"""tools/bench_pairs.py: its run specs, its summary on canned run records, how
a frontier run records a timeout, a crash or its reports, the order of its
frontier, start-up and worker peak-RSS runs, and its count of the lines
of ``src/``."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

BETTER = {"wall_s": "lower", "ok_ratio": "higher"}


def record(workload, seed, pair, side, wall, ok=1.0, attempted=10, failed=0):
    return {"workload": workload, "seed": seed, "pair": pair, "side": side,
            "metrics": {"wall_s": wall, "ok_ratio": ok}, "attempted": attempted,
            "failed": failed}


def test_pairs_alternate_which_side_runs_first():
    """The one order every alternating block runs its sides in: the parent
    first in even pairs, so a drift in host speed hits both sides alike."""
    assert [bench_pairs.order(k) for k in range(4)] == [
        ("parent", "change"), ("change", "parent")] * 2


def test_summary_lists_runs_in_pair_order_with_quartiles_and_wins():
    parent = [0.030, 0.028, 0.029, 0.031, 0.027]
    change = [0.026, 0.027, 0.030, 0.025, 0.026]
    # records arrive side-alternated, as the pairs ran, and out of pair order
    records = [record("hahn-suite", 0, k, side, wall, failed=int(side == "change" and k == 2))
               for k in (3, 0, 4, 1, 2)
               for side, wall in (("change", change[k]), ("parent", parent[k]))]
    records += [record("hahn-suite", 3, 0, "parent", 0.02, ok=0.5),
                record("hahn-suite", 3, 0, "change", 0.03, ok=1.0)]
    out = bench_pairs.summary(records, BETTER)
    assert sorted(out) == ["hahn-suite", "hahn-suite seed=3"]
    seed0 = out["hahn-suite"]
    assert seed0["parent"]["wall_s"] == {"median": 0.029, "q1": 0.028, "q3": 0.030,
                                         "runs": parent}
    assert seed0["change"]["wall_s"]["runs"] == change
    assert seed0["change"]["wall_s"]["median"] == 0.026
    assert (seed0["change"]["attempted"], seed0["change"]["failed"]) == (50, 1)
    assert seed0["pairs"] == 5
    # pair 2 (0.030 against 0.029) is the one the change lost; ok_ratio never moved
    assert seed0["wins"] == {"wall_s": 4, "ok_ratio": 0}
    seed3 = out["hahn-suite seed=3"]
    assert seed3["parent"]["wall_s"] == {"median": 0.02, "q1": 0.02, "q3": 0.02, "runs": [0.02]}
    assert seed3["wins"] == {"wall_s": 0, "ok_ratio": 1}


def test_spread_of_an_even_count_uses_inclusive_quartiles():
    assert bench_pairs.spread([4.0, 1.0, 3.0, 2.0]) == pytest.approx(
        {"median": 2.5, "q1": 1.75, "q3": 3.25, "runs": [4.0, 1.0, 3.0, 2.0]})


def test_launcher_stops_a_run_at_the_limit_and_passes_a_crash_through():
    env = {"PATH": "/usr/bin:/bin"}
    slow = bench_pairs.launch([sys.executable, "-c", "import time; time.sleep(30)"],
                              Path.cwd(), env, limit=0.2)
    assert slow["timeout"] and slow["wall_s"] < 10 and "returncode" not in slow
    crash = bench_pairs.launch([sys.executable, "-c", "import sys; sys.exit(3)"],
                               Path.cwd(), env)
    assert (crash["returncode"], crash["stdout"]) == (3, "") and "timeout" not in crash


@pytest.mark.parametrize("run, expected", [
    ({"timeout": True, "wall_s": 60.1, "peak_rss_mb": 300.0},
     {"timeout_s": 60, "peak_rss_mb": 300.0}),
    ({"returncode": 1, "stdout": "", "wall_s": 0.5, "peak_rss_mb": 20.0},
     {"failed": True, "returncode": 1, "wall_s": 0.5}),
    ({"returncode": 1, "stdout": '{"reports": [{"name": "completeness", "status": "fail", '
                                 '"wall_time": 0.25}, {"name": "commutators", "status": '
                                 '"pass", "wall_time": 0.125}]}',
      "wall_s": 0.5, "peak_rss_mb": 20.0},
     {"wall_s": 0.5, "completeness_s": 0.25, "commutators_s": 0.125, "peak_rss_mb": 20.0,
      "all_passed": False}),
])
def test_a_frontier_run_records_a_timeout_a_crash_or_its_reports(monkeypatch, run, expected):
    monkeypatch.setattr(bench_pairs, "launch", lambda argv, cwd, env: run)
    assert bench_pairs.suite_once(Path.cwd(), 3, 4) == expected


@pytest.mark.parametrize("text, spec", [
    ("hahn-suite", ("hahn-suite", 0, 10)),
    ("hahn-suite:3", ("hahn-suite", 3, 10)),
    ("meixner-suite:0:5", ("meixner-suite", 0, 5)),
])
def test_a_run_spec_defaults_to_seed_0_and_ten_pairs(text, spec):
    assert bench_pairs.run_spec(text) == spec


def test_src_lines_counts_the_package_modules_as_wc_does(tmp_path):
    """Two canned trees: only ``src/mvortho/*.py`` counts, a last line
    without a newline is not counted (as ``wc -l``), and a tree without
    modules counts 0; the same per module, in total and by name."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    for tree, files in ((parent, {"core.py": "a\nb\nc\n", "cli.py": "x = 1\n\n"}),
                        (change, {"core.py": "a\nb\n", "cli.py": "x = 1\ny = 2"})):
        (tree / "src" / "mvortho").mkdir(parents=True)
        for name, text in files.items():
            (tree / "src" / "mvortho" / name).write_text(text)
        (tree / "src" / "mvortho" / "notes.txt").write_text("not\ncounted\n")
        (tree / "tests").mkdir()
        (tree / "tests" / "test_core.py").write_text("not\ncounted\n")
    assert bench_pairs.src_lines(parent) == 5
    assert bench_pairs.src_lines(change) == 3
    assert bench_pairs.src_lines(tmp_path) == 0
    assert bench_pairs.src_module_lines(parent) == {"cli.py": 2, "core.py": 3}
    assert bench_pairs.src_module_lines(change) == {"cli.py": 1, "core.py": 2}
    assert bench_pairs.src_module_lines(tmp_path) == {}


DURATIONS = """\
........................................................................ [100%]
============================== slowest durations ===============================
{slow}
(146 durations < 1s hidden.)
{passed} passed in {wall}s
"""


def test_tier1_records_the_tests_over_the_budget_per_run(monkeypatch):
    """Canned pytest output, two runs per side: the command asks for the
    durations over ``SLOW_S`` seconds, and each run records the ones it
    printed, with their phase, or none."""
    slow = {"parent": ["1.25s call     tests/test_core.py::test_a[x-1]\n"
                       "1.03s setup    tests/test_serialize.py::test_b", ""],
            "change": ["1.10s call     tests/test_core.py::test_a[x-1]", ""]}
    commands = []

    class Done:
        def __init__(self, cwd):
            side = Path(cwd).name
            self.stdout = DURATIONS.format(slow=slow[side].pop(0), passed=559, wall="20.50")

    def run(argv, cwd, **kwargs):
        commands.append(argv)
        return Done(cwd)

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    out = bench_pairs.tier1({"parent": Path("parent"), "change": Path("change")}, 2)
    assert all("--durations=0" in argv and "--durations-min=1.0" in argv for argv in commands)
    assert out["parent"] == {"passed": 559, "wall_s": [20.5, 20.5], "slow": [
        {"call tests/test_core.py::test_a[x-1]": 1.25,
         "setup tests/test_serialize.py::test_b": 1.03}, {}]}
    assert out["change"]["slow"] == [{"call tests/test_core.py::test_a[x-1]": 1.1}, {}]


@pytest.mark.parametrize("argv, message", [
    (["--frontier", "3"], "expected n:N, or n:N:K, got '3'"),
    (["--frontier", "3:x"], "expected n:N, or n:N:K, got '3:x'"),
    (["--frontier", "3:24:1:2"], "expected n:N, or n:N:K, got '3:24:1:2'"),
    (["--frontier", "5:10"], "n must be in 2..4, got '5:10'"),
    (["--frontier", "1:10"], "n must be in 2..4, got '1:10'"),
    (["--frontier", "3:24", "--frontier-parent", "4:16"],
     "--frontier-parent 4:16:1 is not given to --frontier"),
    (["--frontier", "3:24:0"], "K must be >= 1, got '3:24:0'"),
    (["--frontier", "3:24:-2"], "K must be >= 1, got '3:24:-2'"),
    (["--frontier", "3:24:x"], "expected n:N, or n:N:K, got '3:24:x'"),
    (["--frontier", "3:24:3", "--frontier-parent", "3:24"],
     "--frontier-parent 3:24:1 is not given to --frontier"),
])
def test_bad_frontier_arguments_exit_2_before_anything_runs(monkeypatch, capsys, argv, message):
    """A malformed instance, an n that ``FRONTIER_A`` does not cover, a run
    count K below 1, or a parent instance (with its K) not also given to
    ``--frontier`` is a usage error, raised before the parent's tree is
    exported."""
    def export(rev, dest):
        raise AssertionError("exported")

    monkeypatch.setattr(bench_pairs, "export", export)
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["--output", "unused.json", *argv])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and message in err


def test_frontier_instances_match_by_value(monkeypatch):
    """``03:24`` and ``3:24`` are one instance, so the parent runs it too:
    the arguments pass the check and the run goes on to the export."""
    def export(rev, dest):
        raise RuntimeError("exported")

    monkeypatch.setattr(bench_pairs, "export", export)
    assert bench_pairs.frontier_spec("03:24") == (3, 24, 1)
    assert bench_pairs.frontier_spec("3:24:03") == (3, 24, 3)
    with pytest.raises(RuntimeError, match="exported"):
        bench_pairs.main(["--output", "unused.json", "--frontier", "3:24",
                          "--frontier-parent", "03:24:1"])


def test_frontier_alternates_k_runs_per_side_and_records_their_medians(monkeypatch):
    """Canned suite runs: 3:24:3 alternates with the parent, the parent first
    in even runs; 4:10:2 runs the change alone.  Each side keeps its runs in
    order and the median of each measure every run recorded, so a timeout
    leaves only the peak RSS to the median."""
    calls = []

    def suite_once(tree, n, N):
        calls.append((tree.name, n, N))
        k = sum(1 for call in calls if call == (tree.name, n, N))
        if (tree.name, n, k) == ("change", 4, 2):
            return {"timeout_s": 60, "peak_rss_mb": 900.0}
        wall = 10.0 * k + (tree.name == "parent")
        return {"wall_s": wall, "completeness_s": wall / 2, "commutators_s": 1.0,
                "peak_rss_mb": 100.0 + k, "all_passed": True}

    monkeypatch.setattr(bench_pairs, "suite_once", suite_once)
    rows = bench_pairs.frontier({"parent": Path("parent"), "change": Path("change")},
                                [(3, 24, 3), (4, 10, 2)], [(3, 24, 3)])
    assert calls == [("parent", 3, 24), ("change", 3, 24), ("change", 3, 24),
                     ("parent", 3, 24), ("parent", 3, 24), ("change", 3, 24),
                     ("change", 4, 10), ("change", 4, 10)]
    three, four = rows
    assert (three["n"], three["N"], three["a"], three["b"], three["runs"]) == (3, 24, "1,2,3",
                                                                              "2", 3)
    assert [r["wall_s"] for r in three["parent"]["runs"]] == [11.0, 21.0, 31.0]
    assert three["change"]["median"] == {"wall_s": 20.0, "completeness_s": 10.0,
                                         "commutators_s": 1.0, "peak_rss_mb": 102.0}
    assert three["parent"]["median"]["wall_s"] == 21.0
    assert "parent" not in four and four["change"]["runs"][1] == {"timeout_s": 60,
                                                                  "peak_rss_mb": 900.0}
    assert four["change"]["median"] == {"peak_rss_mb": 500.5}


def test_startup_alternates_the_sides_and_times_with_and_without_site(monkeypatch):
    """Canned import times, two runs per side: one unrecorded import per side
    first, then the sides alternate, each run once with ``site`` and once
    with ``-S``, from the side's ``src``, with the bytecode cache written;
    the block holds the spread of each."""
    calls = []

    class Done:
        def __init__(self, argv):
            self.stdout = f"{len(calls) / 1000}\n"

    def run(argv, **kwargs):
        assert argv[0] == sys.executable and "mvortho.cli" in argv[-2]
        assert "PYTHONDONTWRITEBYTECODE" not in kwargs["env"]
        calls.append((Path(argv[-1]).parent.name, "-S" in argv[1:-3]))
        return Done(argv)

    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    out = bench_pairs.startup({"parent": Path("parent"), "change": Path("change")}, 2)
    assert calls == [("parent", False), ("change", False),
                     ("parent", False), ("parent", True), ("change", False), ("change", True),
                     ("change", False), ("change", True), ("parent", False), ("parent", True)]
    # the n-th call reads n ms: the two unrecorded imports took 1 and 2
    assert out == {"parent": {"site": bench_pairs.spread([0.003, 0.009]),
                              "no_site": bench_pairs.spread([0.004, 0.010])},
                   "change": {"site": bench_pairs.spread([0.005, 0.007]),
                              "no_site": bench_pairs.spread([0.006, 0.008])}}
    assert set(out["change"]["site"]) == {"median", "q1", "q3", "runs"}


def test_worker_rss_alternates_the_sides_and_records_the_workers_own_peak(monkeypatch):
    """A canned launcher, two runs per side: one unrecorded run per side
    first, then the sides alternate, each the side's worker given the
    workload's seed-0 calls on stdin; the block holds the spread of the
    peak RSS each worker reports."""
    monkeypatch.syspath_prepend(str(bench_pairs.ROOT / "perfbench"))
    from workloads import WORKLOADS

    calls = []

    def launch(argv, cwd, env, stdin):
        spec = json.loads(stdin)
        assert argv == [sys.executable, str(cwd / "perfbench" / "worker.py")]
        assert spec == {"src": str(cwd / "src"), "bench": str(cwd / "perfbench"),
                        "calls": WORKLOADS["meixner-suite"].calls(0), "xmax": 4,
                        "trace": False}
        assert "PYTHONDONTWRITEBYTECODE" not in env
        calls.append(cwd.name)
        return {"returncode": 0, "stdout": json.dumps({"peak_rss_mb": float(len(calls))}),
                "wall_s": 0.1, "peak_rss_mb": 99.0}

    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(bench_pairs, "launch", launch)
    trees = {"parent": Path("parent"), "change": Path("change")}
    out = bench_pairs.worker_rss(trees, ["meixner-suite"], 2)
    assert calls == ["parent", "change", "parent", "change", "change", "parent"]
    assert out == {"meixner-suite": {"parent": bench_pairs.spread([3.0, 6.0]),
                                     "change": bench_pairs.spread([4.0, 5.0])}}


def test_worker_rss_stops_at_a_failed_worker(monkeypatch):
    monkeypatch.setattr(bench_pairs, "launch",
                        lambda argv, cwd, env, stdin: {"returncode": 1, "stdout": ""})
    with pytest.raises(RuntimeError, match="hahn-export worker on the parent side failed"):
        bench_pairs.worker_rss({"parent": Path("parent"), "change": Path("change")},
                               ["hahn-export"], 1)


def test_two_fraction_counts_of_one_tree_agree():
    """Two fresh processes count the same Fractions for one warm run of the
    meixner-suite calls; a workload that does not run ``verify`` is skipped."""
    trees = {"parent": bench_pairs.ROOT, "change": bench_pairs.ROOT}
    out = bench_pairs.fraction_counts(trees, ["meixner-suite", "hahn-export"], 1)
    assert list(out) == ["meixner-suite"]
    (first,), (second,) = out["meixner-suite"].values()
    assert first == second > 0
