"""Golden outputs of the command line.

The files under ``golden/`` hold the exact bytes that ``verify --format
json`` printed for full suites before the family classes and the check
registry replaced the family dispatch; they are never regenerated to make
a change pass.  One hand edit since: when the Meixner ``gram`` and
``pair-orthogonality`` checks moved from truncated-box tail bounds to
exact sums against the factorial moments, the ``detail`` strings of
those two reports in ``suite_meixner.json`` were edited by hand, and
nothing else in any file changed.  A second one: when ``completeness``
moved from the whole Gram matrix to the spectral argument (common
eigenvectors of W-self-adjoint stencils with distinct joint
eigenvalues), the ``detail`` string of that report in
``suite_hahn.json`` and ``suite_krawtchouk.json`` was edited by hand;
its status and max_defect, and nothing else in any file, changed.  A
third one: when ``single`` left the operator checks (it is total -
exchange(1), so every check of it follows from those two by linearity),
the ``eigen-suite`` detail in ``suite_hahn.json``, ``suite_krawtchouk.json``
and ``suite_meixner.json`` was edited by hand from 80, 80 and 30 to 60, 60
and 20 "(m, operator) pairs"; nothing else in any file changed.
Every single ``--check`` must print exactly the suite's reports for its
registry entry.

The ``operator_*.json`` files hold ``export --what operator --format
json`` for every stencil of a Krawtchouk and a truncated Meixner
instance, recorded from the stencils that summed one rational per
coefficient, before the integer stencil kernel replaced them.

The ``export_*`` and ``eval_*`` files hold the bytes of the calls in
``EXPORTS``: eval tables in every format, weight tables in JSON and CSV,
exact and ``--float``, and Gram matrices.  They were recorded from the
writer that went through ``json.dumps(indent=2, sort_keys=True)`` and the
weights that were formed as chains of rational products, before the
hand-written JSON writer and the integer weight rows replaced them.
The ``export_operator_*`` stencils of a four-variable Hahn instance in
JSON, and of the Krawtchouk and truncated Meixner instances in CSV, were
recorded from the writer that listed every (row, col, value) triplet
before one walk over the stencil rows wrote their text.
"""

import contextlib
import importlib.util
import io
import json
import re
from pathlib import Path

import pytest

from mvortho import cli
from mvortho.verify import CHECKS

GOLDEN = Path(__file__).parent / "golden"
BENCH = Path(__file__).resolve().parent.parent / "perfbench"

INSTANCES = {
    "hahn": ["--family", "hahn", "--a", "1,2,1/2", "--b", "2", "--N", "4"],
    "krawtchouk": ["--family", "krawtchouk", "--a", "1/2,1/3,2", "--N", "4"],
    "meixner": ["--family", "meixner", "--a", "1/5,1/4", "--beta", "2", "--xmax", "4"],
}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def reports_of(argv):
    rc, text, err = run(["verify", *argv, "--format", "json"])
    assert rc == 0, err
    return json.loads(text)["reports"]


@pytest.mark.parametrize("name", INSTANCES)
def test_suite_output_is_byte_identical(name):
    rc, text, err = run(["verify", *INSTANCES[name], "--format", "json"])
    assert rc == 0, err
    assert text == (GOLDEN / f"suite_{name}.json").read_text()


@pytest.mark.parametrize("name", INSTANCES)
def test_single_check_prints_the_suites_reports(name):
    suite = json.loads((GOLDEN / f"suite_{name}.json").read_text())["reports"]
    start = 0
    for check in CHECKS:
        if check == "limits":  # not in the suite
            continue
        reports = reports_of([*INSTANCES[name], "--check", check])
        expected = suite[start:start + len(reports)]
        if check == "rodrigues":
            # the suite draws its parameters after generalized-recursions
            # from the same seeded stream
            assert [r["name"] for r in reports] == [r["name"] for r in expected]
        else:
            assert reports == expected, check
        start += len(reports)
    assert start == len(suite)


OPERATORS = {"krawtchouk": ("total", "single", "exchange1", "exchange2"),
             "meixner": ("total", "single", "exchange1")}


@pytest.mark.parametrize("name,op", [(name, op) for name, ops in OPERATORS.items()
                                     for op in ops])
def test_operator_export_is_byte_identical(name, op):
    # the Meixner box's frontier rows leave it: their valid_rows are false
    rc, text, err = run(["export", *INSTANCES[name], "--what", "operator", "--op", op,
                         "--format", "json"])
    assert rc == 0, err
    assert text == (GOLDEN / f"operator_{name}_{op}.json").read_text()


MEIXNER_5_2 = ["--family", "meixner", "--a", "1/5,1/4", "--beta", "5/2", "--xmax", "4"]
EVAL_DEGREES = {"hahn": "1,0,1", "krawtchouk": "0,2,1", "meixner": "1,1"}
EXPORTS = {}
for _name, _m in EVAL_DEGREES.items():
    for _fmt, _ext in (("json", "json"), ("csv", "csv"), ("text", "txt")):
        EXPORTS[f"eval_{_name}.{_ext}"] = ["eval", *INSTANCES[_name], "--m", _m,
                                           "--format", _fmt]
for _name, _inst in (*INSTANCES.items(), ("meixner_beta5_2", MEIXNER_5_2)):
    for _fmt in ("json", "csv"):
        for _float in ((), ("--float",)):
            EXPORTS[f"export_weights_{_name}{'_float' * bool(_float)}.{_fmt}"] = [
                "export", *_inst, "--what", "weights", "--format", _fmt, *_float]
for _name, _inst in INSTANCES.items():
    EXPORTS[f"export_gram_{_name}.json"] = ["export", *_inst, "--what", "gram",
                                            "--format", "json"]
EXPORTS["export_gram_hahn_float.json"] = [*EXPORTS["export_gram_hahn.json"], "--float"]
EXPORTS["export_gram_hahn_float.csv"] = ["export", *INSTANCES["hahn"], "--what", "gram",
                                         "--format", "csv", "--float"]
EXPORTS["export_operator_krawtchouk_total_float.json"] = [
    "export", *INSTANCES["krawtchouk"], "--what", "operator", "--format", "json", "--float"]
HAHN_4 = ["--family", "hahn", "--a", "1,2,3,1/2", "--b", "2", "--N", "5"]
for _op in ("total", "exchange3"):
    EXPORTS[f"export_operator_hahn4_{_op}.json"] = ["export", *HAHN_4, "--what", "operator",
                                                    "--op", _op, "--format", "json"]
for _float in ((), ("--float",)):
    EXPORTS[f"export_operator_krawtchouk_total{'_float' * bool(_float)}.csv"] = [
        "export", *INSTANCES["krawtchouk"], "--what", "operator", "--format", "csv", *_float]
# the frontier rows of the Meixner box are invalid and write no triplet
EXPORTS["export_operator_meixner_total.csv"] = [
    "export", *INSTANCES["meixner"], "--what", "operator", "--format", "csv"]


@pytest.mark.parametrize("name", EXPORTS)
def test_export_is_byte_identical(name):
    rc, text, err = run(EXPORTS[name])
    assert rc == 0, err
    assert text == (GOLDEN / name).read_text()


@pytest.mark.parametrize("N", [4, 5])
def test_shifts_on_small_hahn_lattices(N):
    # the single-variable shifts need degree <= N - 2, as in the suite; the
    # largest m_max, N, asks the pair identities for degree min(5, N + 2)
    argv = ["--family", "hahn", "--a", "1,2,1/2", "--b", "2", "--N", str(N),
            "--check", "shifts"]
    for extra in ([], ["--m-max", str(N)]):
        reports = reports_of(argv + extra)
        assert [r["name"] for r in reports][:2] == ["sv-shifts", "sv-difference-eq"]
        assert all(r["status"] == "pass" for r in reports)


@pytest.mark.parametrize("check", ["adjointness", "commutators", "degree-invariance",
                                   "eigen", "type-one", "gram", "pair-orthogonality"])
def test_meixner_single_checks_default_to_the_suites_xmax(check):
    argv = ["--family", "meixner", "--a", "1/5,1/4", "--beta", "2", "--check", check]
    reports = reports_of(argv)
    assert reports and all(r["status"] != "fail" for r in reports)
    assert reports == reports_of(argv + ["--xmax", "12"])


@pytest.mark.parametrize("seed", range(6))
def test_limits_draw_degrees_within_N(seed):
    argv = ["--family", "krawtchouk", "--a", "1/2,1/3,2", "--N", "4", "--check", "limits",
            "--seed", str(seed), "--format", "json"]
    rc, text, err = run(["verify", *argv])
    assert rc == 0, err
    reports = json.loads(text)["reports"]
    assert len(reports) == 3
    assert all((r["status"], r["max_defect"]) == ("pass", "0") for r in reports)
    for r in reports:
        m = re.search(r"m=\(([^)]*)\)", r["instance"]).group(1)
        assert sum(int(d) for d in m.split(",")) <= 4
    # seeds whose first draws were already valid keep their output
    golden = GOLDEN / f"limits_krawtchouk_seed{seed}.json"
    if seed in (1, 2, 4):
        assert text == golden.read_text()


@pytest.mark.parametrize("workload", sorted(json.loads((BENCH / "expected.json").read_text())))
def test_benchmark_outputs_match_their_seed_0_digests(workload):
    """One seed-0 sample of each benchmark workload, run in a fresh
    interpreter by ``perfbench/worker.py``, against the committed digests:
    a kernel that changes any output bit fails here."""
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    w = bench.WORKLOADS[workload]
    record = bench.run_sample(w.calls(0), w.xmax(), False, timeout=300)
    attempted, failed, problems = bench.check_sample(record, bench.load_expected(workload))
    assert attempted and failed == 0, problems
