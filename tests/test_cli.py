"""The command line as a process-wide entry point: one parser for every
call, and no input that ends in anything but exit code 0, 1 or 2; and the
outputs that other programs read back."""

import ast
import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvortho import R, HahnParams, KrawtchoukParams, MeixnerParams, cli, weight_table
from mvortho.core import enumerate_degrees, shared_lattice
from mvortho.polynomials import eigenpoly_tables
from mvortho.serialize import lattice_json, parse_weight_csv, value_strs

BENCH = Path(__file__).resolve().parent.parent / "perfbench"

HAHN = ["--family", "hahn", "--a", "1,2,1/2", "--b", "2", "--N", "4"]
KRAW = ["--family", "krawtchouk", "--a", "1/2,1/3", "--N", "3"]
MEIX = ["--family", "meixner", "--a", "1/5,1/4", "--beta", "2", "--xmax", "3"]


def run(argv):
    """(exit code, stdout, stderr) of one ``main`` call; argparse exits too."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def load_bench():
    """The benchmark's ``run.py``, for its workloads and recorded digests."""
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def full_parser_run(argv):
    """(exit code, stdout, stderr) of ``argv`` read by the full parser and
    handed to its command, as every call of ``main`` once did."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = cli.build_parser().parse_args(argv)
            rc = args.fn(args)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def test_main_prints_what_the_full_parser_and_its_command_print():
    """``main`` reads a call through its subcommand's parser; the exit code,
    output and error text are those of the full parser on every workload
    call of the benchmark and on the help and usage-error paths, a trailing
    unknown flag (which the subcommand's parser leaves over) among them."""
    calls = [argv for w in load_bench().WORKLOADS.values() for argv in w.calls(0)]
    calls += [
        [],
        ["--help"],
        ["eval", "--help"],
        ["frobnicate", *HAHN],
        ["eval", "--family", "hahn", "--b", "2", "--N", "4", "--m", "1,0,0"],  # no --a
        ["eval", *HAHN, "--m", "1,0,0", "--x"],
        ["eval", *HAHN, "--m", "1,0,0", "--bogus"],
    ]
    for argv in calls:
        expected = full_parser_run(argv)
        assert run(argv) == expected, argv
        assert expected[0] in (0, 2)
    assert run(calls[-1])[2].splitlines()[-1] == "mvortho: error: unrecognized arguments: --bogus"


def test_main_freezes_the_start_up_heap_on_its_first_call_only(monkeypatch):
    frozen = []
    monkeypatch.setattr(cli.gc, "freeze", lambda: frozen.append(True))
    cli._freeze_start_up_heap.cache_clear()
    argv = ["eval", *HAHN, "--m", "1,0,1", "--x", "1,0,2"]
    assert run(argv) == run(argv) == (0, "4/11\n", "")
    assert frozen == [True]


def test_main_reuses_one_parser_and_prints_what_a_fresh_parser_prints(tmp_path):
    """Consecutive calls with different subcommands and flags, --output on
    the first only, give the bytes of calls that each build a new parser."""
    def calls(output):
        return [
            ["eval", *HAHN, "--m", "1,0,1", "--format", "json", "--output", str(output)],
            ["eval", *HAHN, "--m", "0,1,1"],
            ["verify", *KRAW, "--check", "eigen", "--m-max", "1", "--format", "json"],
            ["eval", *HAHN, "--m", "0,1,1", "--x", "1,0,2"],
            ["export", *MEIX, "--what", "weights", "--float"],
            ["eval", *MEIX, "--m", "1,0"],
            ["eval", *HAHN, "--m", "1,0,0", "--x"],  # argparse: --x needs a value
            ["export", *HAHN, "--what", "operator", "--op", "exchange1", "--format", "csv"],
            ["export", *KRAW, "--what", "gram", "--format", "json", "--xmax", "2"],  # foreign
            ["eval", *KRAW, "--m", "1,1", "--format", "csv"],
        ]

    fresh = []
    for argv in calls(tmp_path / "fresh.json"):
        cli.build_parser.cache_clear()
        fresh.append(run(argv))
    cli.build_parser.cache_clear()
    reused = [run(argv) for argv in calls(tmp_path / "reused.json")]
    assert cli.build_parser.cache_info().misses == 1
    assert reused == fresh
    assert [rc for rc, _, _ in reused] == [0, 0, 0, 0, 0, 0, 2, 0, 2, 0]
    assert reused[0][1] == "" and reused[1][1].startswith("(0, 0, 0) ")
    assert (tmp_path / "reused.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()


def test_eval_tables_do_not_depend_on_the_order_of_the_calls():
    """Every |m| <= 3 of Hahn n=3 N=5, first in reverse graded order (each
    call then builds its hats) and then in graded order (each call reads the
    tables earlier calls kept): every output is a fresh table's document."""
    instance = ["--family", "hahn", "--a", "1,2,3", "--b", "2", "--N", "5"]
    params, degrees = HahnParams((R(1), R(2), R(3)), R(2), 5), enumerate_degrees(3, 3)
    lattice = shared_lattice(3, 5, False)
    expected = {m: lattice_json({"family": "hahn", "m": list(m), "values": value_strs(
        *eigenpoly_tables([m], params, lattice)[0].integer_form())}, lattice) for m in degrees}
    cli._eval_factors.cache_clear()
    for m in [*reversed(degrees), *degrees]:
        assert run(["eval", *instance, "--m", ",".join(map(str, m)), "--format", "json"]) == (
            0, expected[m], "")


def test_a_bad_bundle_is_refused_on_every_call():
    """A bundle that raises is not kept: the same flags fail again alike."""
    argv = ["eval", "--family", "hahn", "--a", "1,-2", "--b", "2", "--N", "4", "--m", "1,0"]
    assert run(argv) == run(argv) == (2, "", "error: a_i must be positive, got -2\n")


def test_export_calls_print_their_recorded_bytes_around_calls_on_other_shapes():
    """The benchmark's hahn-export calls (Hahn n=4 N=5), then suites on two
    other shapes, then the export calls again, in one process: each pass
    prints the bytes whose digests the benchmark recorded, so a lattice
    shared across calls changes no output, whichever call built it."""
    bench = load_bench()
    calls = bench.WORKLOADS["hahn-export"].calls(0)
    expected = [entry["sha256"] for entry in bench.load_expected("hahn-export")]

    def digests():
        outputs = [run(argv) for argv in calls]
        assert {(rc, err) for rc, _, err in outputs} == {(0, "")}
        return [hashlib.sha256(out.encode()).hexdigest() for _, out, _ in outputs]

    shared_lattice.cache_clear()
    assert digests() == expected
    for other in (KRAW, MEIX):
        assert run(["verify", *other, "--format", "json"])[0] == 0
    assert digests() == expected


# Malformed values beside the good ones: text the parsers must refuse with
# one error line, never with a traceback.
BAD_RATIONALS = st.sampled_from(["0", "-1", "1/0", "0/0", "1.5", "1e3", "", " ", "a", "1/2/3",
                                 "-1/2", "1/-2", "1" + "0" * 40, "nan", "inf", "\u00bd"])
BAD_INTS = st.sampled_from(["-1", "0", "x", "1/2", "", "1.0", "-3"])
BAD_POINTS = st.lists(st.sampled_from(["0", "1", "2", "-1", "9", "", "a", "1/2"]),
                      min_size=1, max_size=4).map(",".join)
FOREIGN = [("--b", "2"), ("--beta", "2"), ("--N", "3"), ("--xmax", "2"), ("--n", "2")]
CHECKS = ("normalization", "eigen", "gram", "commutators", "boundary", "glue",
          "completeness", "limits")


@st.composite
def argvs(draw):
    """A call of eval, verify or export on a small instance.  Each value is
    good seven times in eight and otherwise malformed; some calls carry a
    flag their family does not take."""
    def pick(good, bad):
        return draw(bad) if draw(st.sampled_from(range(8))) == 7 else draw(st.sampled_from(good))

    def point(n, total):
        return ",".join(map(str, draw(st.lists(st.integers(0, total), min_size=n,
                                               max_size=n).filter(lambda x: sum(x) <= total))))

    command = draw(st.sampled_from(["eval", "verify", "export"]))
    family = pick(["hahn", "krawtchouk", "meixner"], st.just("charlier"))
    n = draw(st.integers(2, 3))
    a_good = ["1/5", "1/4", "1/9"] if family == "meixner" else ["1", "2", "1/2", "7/3"]
    argv = [command, "--family", family,
            "--a", ",".join(pick(a_good, BAD_RATIONALS) for _ in range(n))]
    if family in ("hahn", "krawtchouk", "charlier"):
        argv += ["--N", pick([str(n + 1), "4"], BAD_INTS)]
    if family in ("hahn", "charlier"):
        argv += ["--b", pick(["2", "1/2"], BAD_RATIONALS)]
    if family == "meixner":
        argv += ["--beta", pick(["2", "5/2"], BAD_RATIONALS), "--xmax", pick(["1", "3"], BAD_INTS)]
    if draw(st.sampled_from(range(8))) == 7:
        argv += draw(st.sampled_from(FOREIGN))
    if command == "eval":
        argv += ["--m", pick([point(n, 2)], BAD_POINTS),
                 "--format", pick(["text", "csv", "json"], st.just("yaml"))]
        if draw(st.booleans()):
            argv += ["--x", pick([point(n, 3)], BAD_POINTS)]
    elif command == "verify":
        argv += ["--check", pick(CHECKS, st.just("no-such-check")),
                 "--m-max", pick(["0", "1"], BAD_INTS),
                 "--format", pick(["text", "json"], st.just("yaml"))]
    else:
        argv += ["--what", pick(["weights", "operator", "gram"], st.just("table")),
                 "--op", pick(["total", "single", "exchange1"],
                              st.sampled_from(["exchange0", "exchange7", "exchange",
                                               "exchangex", "double"])),
                 "--format", pick(["csv", "json"], st.just("yaml"))]
        if draw(st.booleans()):
            argv += ["--m-max", pick(["0", "1", "2"], BAD_INTS)]
        if draw(st.booleans()):
            argv.append("--float")
    return argv


@pytest.fixture(scope="module")
def one_parser():
    cli.build_parser.cache_clear()
    cli.build_parser()
    yield
    assert cli.build_parser.cache_info().misses == 1


@given(argvs())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_every_call_exits_0_1_or_2_with_at_most_one_error_line(one_parser, argv):
    rc, _, err = run(argv)
    assert rc in (0, 1, 2), (argv, rc, err)
    assert "Traceback" not in err
    assert sum("error:" in line for line in err.splitlines()) <= 1, (argv, err)
    assert (rc == 2) == ("error:" in err), (argv, err)


@pytest.mark.parametrize("text", ["1/2/3", "1/0", "x"])
@pytest.mark.parametrize("flag", ["--a", "--b", "--beta"])
def test_a_malformed_rational_names_its_flag_and_text(flag, text):
    instance, m = (MEIX, "1,0") if flag == "--beta" else (HAHN, "1,0,0")
    value = f"1,{text}" if flag == "--a" else text
    # the flag given a second time overrides the instance's value
    rc, out, err = run(["eval", *instance, "--m", m, flag, value])
    assert (rc, out) == (2, "")
    assert err == f"error: {flag} must be an integer or p/q with q != 0, got {text!r}\n"


@pytest.mark.parametrize("op", ["exchange", "exchangeX", "exchange-1", "double"])
def test_an_unknown_operator_is_a_usage_error(op):
    rc, out, err = run(["export", *HAHN, "--what", "operator", "--op", op])
    assert (rc, out) == (2, "")
    assert err == f"error: unknown operator {op!r} (total, single, exchangeK)\n"


def test_export_and_verify_refuse_m_max_above_N_alike():
    message = "error: need m_max <= N, got m_max = 9 and N = 4\n"
    assert run(["export", *HAHN, "--what", "gram", "--m-max", "9"]) == (2, "", message)
    assert run(["verify", *HAHN, "--check", "gram", "--m-max", "9"]) == (2, "", message)


def test_repeated_check_flags_run_each_entry_in_the_order_given():
    """``--check A --check B`` prints the reports of ``--check A`` and then
    those of ``--check B`` (it once ran only the last one)."""
    names = ["completeness", "compatibility", "eigen", "boundary", "glue"]

    def reports(*checks):
        argv = ["verify", *HAHN, "--format", "json"]
        for name in checks:
            argv += ["--check", name]
        rc, out, err = run(argv)
        assert (rc, err) == (0, "")
        return json.loads(out)["reports"]

    combined = reports(*names)
    assert combined == [r for name in names for r in reports(name)]
    assert [r["name"] for r in combined[:2]] == ["completeness", "compatibility"]


@pytest.mark.parametrize("family", [HAHN, MEIX], ids=["hahn", "meixner"])
def test_gram_and_pair_orthogonality_give_the_same_reports_in_either_order(family):
    """The context's Gram matrix serves both checks: built for the smaller
    degree first, it is rebuilt for the larger one, and the reports agree."""
    def reports(*checks):
        argv = ["verify", *family, "--format", "json"]
        for name in checks:
            argv += ["--check", name]
        rc, out, err = run(argv)
        assert (rc, err) == (0, "")
        return json.loads(out)["reports"]

    forward = reports("gram", "pair-orthogonality")
    assert [r["name"] for r in forward] == ["gram", "pair-orthogonality"]
    assert forward == reports("pair-orthogonality", "gram")[::-1]


def test_timings_add_a_float_wall_time_to_every_report_and_nothing_else():
    """``verify --format json --timings``, whose ``wall_time`` the frontier
    runs of ``tools/bench_pairs.py`` read: every report carries a float
    >= 0, and without the flag the key is absent and the output unchanged."""
    argv = ["verify", *KRAW, "--format", "json"]
    (rc, plain, err), (trc, timed, terr) = run(argv), run(argv + ["--timings"])
    assert (rc, err, trc, terr) == (0, "", 0, "")
    plain, timed = json.loads(plain), json.loads(timed)
    assert plain["reports"] and all("wall_time" not in r for r in plain["reports"])
    for report in timed["reports"]:
        wall = report.pop("wall_time")
        assert isinstance(wall, float) and wall >= 0
    assert timed == plain


@pytest.mark.parametrize("argv, params, xmax", [
    (HAHN, HahnParams((R(1), R(2), R(1, 2)), R(2), 4), None),
    (KRAW, KrawtchoukParams((R(1, 2), R(1, 3)), 3), None),
    (MEIX, MeixnerParams((R(1, 5), R(1, 4)), R(2)), 3),
], ids=["hahn", "krawtchouk", "meixner"])
def test_the_weights_csv_parses_back_to_the_weight_table(argv, params, xmax):
    """``parse_weight_csv``, which the benchmark's output check reads every
    weights CSV with, gives back the lattice points and exact weights."""
    rc, text, err = run(["export", *argv, "--what", "weights", "--format", "csv"])
    assert (rc, err) == (0, "")
    points, values = parse_weight_csv(text)
    w = weight_table(params, xmax=xmax)
    assert (points, values) == (list(w.lattice.points), list(w.values))
    if params.N is not None:
        assert sum(values) == 1


ONE_POINT = ["eval", *HAHN, "--m", "1,0,1"]
X = (1, 0, 2)


def table_row(fmt):
    """The table's output for ONE_POINT in ``fmt``, and the index of X in it."""
    rc, text, err = run([*ONE_POINT, "--format", fmt])
    assert (rc, err) == (0, "")
    return text, shared_lattice(3, 4, False).index[X]


def one_point(fmt):
    rc, text, err = run([*ONE_POINT, "--x", ",".join(map(str, X)), "--format", fmt])
    assert (rc, err) == (0, "")
    return text


def test_one_point_in_json_is_the_table_document_at_that_point():
    table, i = table_row("json")
    doc = json.loads(table)
    doc.update(points=[doc["points"][i]], values=[doc["values"][i]])
    assert one_point("json") == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_one_point_in_csv_is_the_header_and_the_tables_row():
    table, i = table_row("csv")
    lines = table.splitlines(keepends=True)
    assert one_point("csv") == lines[0] + lines[1 + i]


def test_one_point_in_text_is_the_bare_value():
    table, i = table_row("text")
    point, value = table.splitlines()[i].split(") ")
    assert point + ")" == str(X) and one_point("text") == value + "\n" == "4/11\n"


@pytest.mark.parametrize("argv, message", [
    (["eval", "--family", "hahn", "--n", "3", "--a", "1,2", "--b", "2", "--N", "4", "--m", "1,0"],
     "--a has 2 entries but --n is 3"),
    (["eval", "--family", "hahn", "--a", "1,2", "--N", "4", "--m", "1,0"],
     "hahn needs --b and --N"),
    (["eval", *HAHN, "--m", "1,-1,0"], "degrees must be non-negative"),
])
def test_an_input_error_exits_2_with_its_message(argv, message):
    assert run(argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("family", [["hahn", "--b", "2"], ["krawtchouk"]], ids=lambda f: f[0])
def test_generalized_recursions_draw_their_degrees_within_N(family):
    """At seed 95 the i = 1 chain first draws (0, 2, 2, 2), of |m| = 6 > N = 5,
    and draws again: the chains checked stay within N."""
    rc, out, err = run(["verify", "--family", *family, "--a", "1,2,3,1/2", "--N", "5",
                        "--seed", "95", "--check", "generalized-recursions", "--format", "json"])
    assert (rc, err) == (0, "")
    instances = [r["instance"] for r in json.loads(out)["reports"]]
    assert len(instances) == 2
    assert all(sum(ast.literal_eval(text.split("m=")[1])) <= 5 for text in instances)


def test_meixner_limits_draw_their_points_from_the_xmax_box():
    """``--check limits`` on Meixner reads every x from the lattice of
    ``--xmax``, as the other checks do."""
    rc, out, _ = run(["verify", "--family", "meixner", "--a", "1/5,1/4", "--beta", "2",
                      "--xmax", "2", "--check", "limits", "--format", "json"])
    instances = [r["instance"] for r in json.loads(out)["reports"]]
    assert rc == 0 and len(instances) == 3
    points = [ast.literal_eval(text.split("x=")[1]) for text in instances]
    assert all(len(x) == 2 and sum(x) <= 2 for x in points)
