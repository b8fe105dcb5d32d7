"""Golden outputs of the command line.

The files under ``golden/`` hold the exact bytes that ``verify --format
json`` printed for full suites before the family classes and the check
registry replaced the family dispatch; they are never regenerated to make
a change pass.  One hand edit since: when the Meixner ``gram`` and
``pair-orthogonality`` checks moved from truncated-box tail bounds to
exact sums against the factorial moments, the ``detail`` strings of
those two reports in ``suite_meixner.json`` were edited by hand, and
nothing else in any file changed.  Every single ``--check`` must print
exactly the suite's reports for its registry entry.
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


@pytest.mark.parametrize("N", [4, 5])
def test_shifts_on_small_hahn_lattices(N):
    # the single-variable shifts need degree <= N - 2, as in the suite
    argv = ["--family", "hahn", "--a", "1,2,1/2", "--b", "2", "--N", str(N),
            "--check", "shifts"]
    for extra in ([], ["--m-max", "5"]):
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
    assert len(reports) == 3 and all(r["status"] == "pass" for r in reports)
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
