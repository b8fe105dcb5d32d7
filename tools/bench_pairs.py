"""Alternating benchmark pairs of this checkout against a parent commit,
written as one ``BENCH_<PR>.json``.

    python3 tools/bench_pairs.py --parent HEAD~1 --output BENCH_24.json \\
        --run hahn-suite --run hahn-suite:3 --run meixner-suite:0:5 \\
        --tier1 2 --frontier 3:24:3 --frontier 4:14 --frontier-parent 3:24:3

Run it from the root of the checkout to measure (the *change*).  The
parent revision is exported with ``git archive`` into a temporary
directory (``--scratch``), so both sides run from committed-looking trees
with their own ``perfbench/``.  Each ``--run WORKLOAD[:SEED[:PAIRS]]``
(default: every workload of ``BENCHMARK.json``; seed 0 and 10 pairs
unless given) runs ``perfbench/run.py --workload W --seed S --seconds 28
--trace 0`` once per side per pair, the parent first in even pairs and
the change first in odd ones, so a drift in host speed hits both sides
alike.

The output keeps the layout of the earlier ``BENCH_*.json`` files: per
workload (keyed ``name`` at seed 0, ``name seed=S`` otherwise) and side,
each end-to-end metric's median, quartiles and runs in pair order, the
operations attempted and failed, and per metric the pairs the change won
(better in the direction ``BENCHMARK.json`` gives).  ``--tier1 K`` adds K
alternating tier-1 runs per side, each with the tests that took over
``SLOW_S`` seconds (pytest's ``--durations``).  ``--worker-rss K`` adds K
alternating runs per side of ``perfbench/worker.py`` on each workload's
seed-0 calls, each spawned from a small launcher, and the spread of the
peak RSS each worker reports: on Linux a child's ``ru_maxrss`` starts from
its parent's RSS at the fork, so the workers that ``run.py`` spawns also
report the records ``run.py`` holds.  ``--frontier n:N[:K]`` adds K runs
(1 unless given) of the full Hahn suite ``verify --format json --timings``
at a = (1, 2, 3, 1/2)[:n], b = 2: process wall time, the ``completeness``
and ``commutators`` times, peak RSS and whether every report passed, for
the change, and alternating with the parent where the same n:N[:K] is also
given to ``--frontier-parent`` (which must name only instances of
``--frontier``, each n in 2..4 and K >= 1; any other value exits 2 before
anything runs); per side, each run in order and the median of each measure
every run recorded.  A run still going after the 60 s
limit is stopped and recorded as a timeout, with its peak RSS so far, and
one that exits without a JSON report as failed, with its return code.
``--traced K --layer NAME`` adds
K alternating pairs of ``--trace 1`` runs per workload at seed 0 and the
spread of each named per-layer metric.  ``--startup K`` adds K alternating
runs per side, each timing ``import mvortho.cli`` inside two fresh
interpreters from cached bytecode, one with ``site`` and one without
(``-S``): a module that ``site`` loads on one host is paid for by the
import on another.  ``src_lines`` gives, per side, the
lines of ``src/mvortho/*.py`` as ``wc -l`` counts them, and
``src_module_lines`` the same count per module.  Only the standard
library is used.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SLOW_S = 1.0  # the per-test budget of tier-1
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "--durations=0", f"--durations-min={SLOW_S}"]
FRONTIER_A = ("1", "2", "3", "1/2")
SECONDS = 28  # the run length of every BENCH file
PAIRS = 10
TIME_LIMIT_S = 60  # the frontier's limit on one full suite
FRONTIER_MEASURES = ("wall_s", "completeness_s", "commutators_s", "peak_rss_mb")
# Runs one command and prints its wall time and peak RSS: ru_maxrss of the
# children of this small launcher is that of the one command.  A command
# still running at the time limit is killed, and reported with "timeout".
# The launcher hands the command its own stdin.
LAUNCHER = """
import json, resource, subprocess, sys, time
t0 = time.perf_counter()
try:
    proc = subprocess.run(sys.argv[3:], cwd=sys.argv[2], input=sys.stdin.read(),
                          capture_output=True, text=True, timeout=float(sys.argv[1]))
    out = {"returncode": proc.returncode, "stdout": proc.stdout}
except subprocess.TimeoutExpired:
    out = {"timeout": True}
out["wall_s"] = time.perf_counter() - t0
out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(json.dumps(out))
"""
# Prints the seconds that ``import mvortho.cli`` takes, from the source directory given.
STARTUP = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import mvortho.cli
print(time.perf_counter() - t0)
"""


def _env(tree: Path) -> dict:
    """This process's environment, importing mvortho from ``tree``."""
    return {**os.environ, "PYTHONPATH": str(tree / "src")}


def bytecode_env() -> dict:
    """This process's environment with bytecode writing allowed, so that one
    unrecorded run per side fills the cache the recorded runs read."""
    return {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


def order(k: int) -> tuple:
    """The sides in the order pair k runs them: the parent first in even
    pairs, the change first in odd ones."""
    return ("parent", "change") if k % 2 == 0 else ("change", "parent")


def export(rev: str, dest: Path) -> str:
    """Extract the tree of ``rev`` into ``dest``; return its full commit id."""
    sha = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, capture_output=True,
                         text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, capture_output=True,
                             check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return sha


def bench_once(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One ``perfbench/run.py`` run: its metrics (end to end, or per layer
    with ``trace``), counts and env."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=True)
    env_line, result_line = proc.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"],
            "correct": result["correct"], "env": json.loads(env_line)["env"]}


def spread(runs: list) -> dict:
    """Median, quartiles and the runs themselves."""
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}


def summary(records: list, better: dict) -> dict:
    """The workloads section of a BENCH file from run records.

    Each record is ``{"workload", "seed", "pair", "side": "parent" | "change",
    "metrics": {name: value}, "attempted", "failed"}``, one per side of each
    pair; ``better`` maps each metric to "lower" or "higher".  Runs are
    listed in pair order, and ``wins`` counts the pairs in which the change
    is strictly better."""
    groups: dict = {}
    for rec in sorted(records, key=lambda r: r["pair"]):
        key = rec["workload"] if rec["seed"] == 0 else f"{rec['workload']} seed={rec['seed']}"
        groups.setdefault(key, {"parent": [], "change": []})[rec["side"]].append(rec)
    out = {}
    for key, sides in groups.items():
        entry = {side: {**{name: spread([r["metrics"][name] for r in recs]) for name in better},
                        "attempted": sum(r["attempted"] for r in recs),
                        "failed": sum(r["failed"] for r in recs)}
                 for side, recs in sides.items()}
        pairs = list(zip(sides["parent"], sides["change"]))
        entry["pairs"] = len(pairs)
        entry["wins"] = {name: sum((c["metrics"][name] < p["metrics"][name]) if way == "lower"
                                   else (c["metrics"][name] > p["metrics"][name])
                                   for p, c in pairs)
                         for name, way in better.items()}
        out[key] = entry
    return out


def slow_tests(stdout: str) -> dict:
    """The phases over ``SLOW_S`` seconds in pytest's ``--durations`` report,
    as {"<phase> <test id>": seconds}."""
    return {f"{phase} {test}": float(s) for s, phase, test in
            re.findall(r"^([\d.]+)s (setup|call|teardown) +(\S+)$", stdout, re.MULTILINE)}


def tier1(trees: dict, runs: int) -> dict:
    """Alternating tier-1 runs: tests passed, pytest's wall time and the
    tests over ``SLOW_S`` seconds of each run, per side."""
    out = {side: {"passed": None, "wall_s": [], "slow": []} for side in trees}
    for k in range(runs):
        for side in order(k):
            proc = subprocess.run(TIER1, cwd=trees[side], capture_output=True, text=True,
                                  env=_env(trees[side]))
            tail = proc.stdout.strip().splitlines()[-1]
            passed = re.search(r"(\d+) passed", tail)
            out[side]["passed"] = int(passed.group(1)) if passed else 0
            out[side]["wall_s"].append(float(re.search(r" in ([\d.]+)s", tail).group(1)))
            out[side]["slow"].append(slow_tests(proc.stdout))
    return out


def startup(trees: dict, runs: int) -> dict:
    """Alternating start-up runs: per side, the spread of the seconds
    ``import mvortho.cli`` takes with ``site`` and without it (``-S``).  One
    unrecorded import per side first writes the bytecode cache."""
    env = bytecode_env()

    def once(side: str, flags: list) -> float:
        argv = [sys.executable, *flags, "-c", STARTUP, str(trees[side] / "src")]
        return float(subprocess.run(argv, capture_output=True, text=True, check=True,
                                    env=env).stdout)

    for side in trees:
        once(side, [])
    out = {side: {"site": [], "no_site": []} for side in trees}
    for k in range(runs):
        for side in order(k):
            out[side]["site"].append(once(side, []))
            out[side]["no_site"].append(once(side, ["-S"]))
    return {side: {key: spread(r) for key, r in rs.items()} for side, rs in out.items()}


def launch(argv: list, cwd: Path, env: dict, limit: float = TIME_LIMIT_S,
           stdin: str = "") -> dict:
    """One command in a fresh process, through the launcher, with ``stdin``
    as its input: its wall time and peak RSS, and its return code and
    stdout, or ``"timeout": True`` when it ran past ``limit`` seconds and
    was stopped."""
    proc = subprocess.run([sys.executable, "-c", LAUNCHER, str(limit), str(cwd), *argv],
                          input=stdin, capture_output=True, text=True, check=True, env=env)
    return json.loads(proc.stdout)


def worker_rss(trees: dict, names: list, runs: int) -> dict:
    """Per workload, alternating runs of the side's ``perfbench/worker.py``
    on the workload's seed-0 calls, each spawned from the launcher: per
    side, the spread of the peak RSS the worker reports, its own
    ``ru_maxrss``.  One unrecorded run per side first writes the bytecode
    cache."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    env = bytecode_env()

    def once(side: str, name: str) -> float:
        tree, workload = trees[side], WORKLOADS[name]
        spec = {"src": str(tree / "src"), "bench": str(tree / "perfbench"),
                "calls": workload.calls(0), "xmax": workload.xmax(), "trace": False}
        run = launch([sys.executable, str(tree / "perfbench" / "worker.py")], tree, env,
                     stdin=json.dumps(spec))
        if run.get("returncode") != 0:
            raise RuntimeError(f"{name} worker on the {side} side failed: {run}")
        return json.loads(run["stdout"])["peak_rss_mb"]

    out = {}
    for name in names:
        for side in trees:
            once(side, name)
        rss = {side: [] for side in trees}
        for k in range(runs):
            for side in order(k):
                rss[side].append(once(side, name))
        out[name] = {side: spread(r) for side, r in rss.items()}
    return out


def suite_once(tree: Path, n: int, N: int) -> dict:
    """The full Hahn suite at (n, N) in a fresh process: wall time, the
    completeness and commutators times, peak RSS and whether every report
    passed; a timeout or a run without a JSON report is recorded as such."""
    argv = [sys.executable, "-m", "mvortho", "verify", "--family", "hahn", "--n", str(n),
            "--N", str(N), "--a", ",".join(FRONTIER_A[:n]), "--b", "2", "--format", "json",
            "--timings"]
    run = launch(argv, tree, _env(tree))
    if run.get("timeout"):
        return {"timeout_s": TIME_LIMIT_S, "peak_rss_mb": run["peak_rss_mb"]}
    try:
        reports = json.loads(run["stdout"])["reports"]
    except (ValueError, KeyError, TypeError):
        return {"failed": True, "returncode": run["returncode"], "wall_s": run["wall_s"]}
    return {"wall_s": run["wall_s"],
            **{f"{name}_s": sum(r["wall_time"] for r in reports if r["name"] == name)
               for name in ("completeness", "commutators")},
            "peak_rss_mb": run["peak_rss_mb"],
            "all_passed": run["returncode"] == 0 and all(r["status"] != "fail" for r in reports)}


def frontier(trees: dict, specs: list, with_parent: list) -> list:
    """One row per (n, N, K) of ``specs``: K runs of :func:`suite_once` per
    side, alternating with the parent's where the spec is in ``with_parent``;
    per side, the runs in order and the median of each of
    ``FRONTIER_MEASURES`` that every run recorded."""
    rows = []
    for spec in specs:
        n, N, runs = spec
        records = {side: [] for side in ("parent", "change")
                   if side == "change" or spec in with_parent}
        for k in range(runs):
            for side in order(k):
                if side in records:
                    records[side].append(suite_once(trees[side], n, N))
        row = {"n": n, "N": N, "a": ",".join(FRONTIER_A[:n]), "b": "2", "runs": runs}
        for side, rs in records.items():
            row[side] = {"runs": rs, "median": {
                key: statistics.median(r[key] for r in rs) for key in FRONTIER_MEASURES
                if all(key in r for r in rs)}}
        print(f"frontier {n}:{N}:{runs}: {row}", file=sys.stderr)
        rows.append(row)
    return rows


def src_module_lines(tree: Path) -> dict:
    """{module file name: its newlines, as ``wc -l`` counts them} over
    ``src/mvortho/*.py`` of ``tree``, sorted by name."""
    return {path.name: path.read_bytes().count(b"\n")
            for path in sorted((tree / "src" / "mvortho").glob("*.py"))}


def src_lines(tree: Path) -> int:
    """The newlines in ``src/mvortho/*.py`` of ``tree``: the total of ``wc -l``."""
    return sum(src_module_lines(tree).values())


def run_spec(text: str) -> tuple:
    """(workload, seed, pairs) of ``WORKLOAD[:SEED[:PAIRS]]``, seed 0 and
    ``PAIRS`` pairs unless given."""
    name, *given = text.split(":")
    seed, pairs = given + ["0", str(PAIRS)][len(given):]
    return name, int(seed), int(pairs)


def frontier_spec(text: str) -> tuple:
    """(n, N, K) of ``n:N[:K]``, with n in 2..4, the instances ``FRONTIER_A``
    covers, and K >= 1 runs per side, 1 unless given."""
    parts = text.split(":")
    try:
        if len(parts) not in (2, 3):
            raise ValueError
        n, N, runs = map(int, parts + ["1"][len(parts) - 2:])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected n:N, or n:N:K, got {text!r}") from None
    if not 2 <= n <= len(FRONTIER_A):
        raise argparse.ArgumentTypeError(f"n must be in 2..{len(FRONTIER_A)}, got {text!r}")
    if runs < 1:
        raise argparse.ArgumentTypeError(f"K must be >= 1, got {text!r}")
    return n, N, runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD~1", help="revision to compare against")
    parser.add_argument("--output", required=True, type=Path)
    parser.add_argument("--run", action="append", default=[],
                        help="WORKLOAD[:SEED[:PAIRS]]; repeat for several")
    parser.add_argument("--traced", type=int, default=0,
                        help="alternating --trace 1 pairs per workload at seed 0")
    parser.add_argument("--layer", action="append", default=[],
                        help="per-layer metric the traced pairs record; repeat for several")
    parser.add_argument("--tier1", type=int, default=0, help="tier-1 runs per side")
    parser.add_argument("--startup", type=int, default=0,
                        help="runs per side timing import mvortho.cli with and without site")
    parser.add_argument("--worker-rss", type=int, default=0,
                        help="runs per side and workload of perfbench/worker.py from a "
                        "small launcher, recording the worker's own peak RSS")
    parser.add_argument("--frontier", action="append", default=[], type=frontier_spec,
                        help="n:N[:K], K runs per side")
    parser.add_argument("--frontier-parent", action="append", default=[], type=frontier_spec,
                        help="n:N[:K], also given to --frontier")
    parser.add_argument("--scratch", type=Path, default=None,
                        help="directory for the parent's tree (default: the system's)")
    args = parser.parse_args(argv)
    for n, N, runs in set(args.frontier_parent) - set(args.frontier):
        parser.error(f"--frontier-parent {n}:{N}:{runs} is not given to --frontier")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    specs = list(map(run_spec, args.run or [w["name"] for w in declared["workloads"]]))

    with tempfile.TemporaryDirectory(dir=args.scratch) as tmp:
        parent = Path(tmp) / "parent"
        sha = export(args.parent, parent)
        trees = {"parent": parent, "change": ROOT}
        records, env = [], None
        for name, seed, pairs in specs:
            for k in range(pairs):
                for side in order(k):
                    run = bench_once(trees[side], name, seed, SECONDS)
                    env = env or run["env"]
                    records.append({"workload": name, "seed": seed, "pair": k, "side": side,
                                    **run})
                    print(f"{name} seed={seed} pair {k} {side}: "
                          f"wall_s {run['metrics']['wall_s']:.6f}", file=sys.stderr)
        bench = {
            "command": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} "
                       "--trace 0",
            "pairs": "per workload and seed as listed, alternating which side runs first; "
                     f"parent = commit {sha[:7]}",
            "quartiles": "statistics.quantiles(n=4, method='inclusive') over the run medians",
            "workloads": summary(records, better),
            "env": {key: env[key] for key in ("python", "backend", "nproc", "cpu")} if env else {},
            "src_lines": {side: src_lines(tree) for side, tree in trees.items()},
            "src_module_lines": {side: src_module_lines(tree) for side, tree in trees.items()},
        }
        if args.traced:
            traced = {}
            for name in dict.fromkeys(name for name, seed, _ in specs if seed == 0):
                runs = {"parent": [], "change": []}
                for k in range(args.traced):
                    for side in order(k):
                        metrics = bench_once(trees[side], name, 0, 2.0, trace=1)["metrics"]
                        runs[side].append({layer: metrics[layer] for layer in args.layer})
                traced[name] = {side: {layer: spread([r[layer] for r in rs])
                                       for layer in args.layer} for side, rs in runs.items()}
            bench["traced"] = {"command": "python3 perfbench/run.py --workload W --seed 0 "
                                          "--seconds 2 --trace 1",
                               "runs": "alternating which side runs first",
                               "workloads": traced}
        if args.tier1:
            bench["tier1"] = {"command": "PYTHONPATH=src " + " ".join(["python", *TIER1[1:]]),
                              "runs": "alternating which side runs first; pytest's wall "
                                      f"time; slow: per run, the tests over {SLOW_S} s",
                              **tier1(trees, args.tier1)}
        if args.startup:
            bench["startup"] = {"command": "python [-S] -c 'import mvortho.cli', timed inside "
                                           "the interpreter, from cached bytecode",
                                "runs": "alternating which side runs first; site: without -S, "
                                        "no_site: with -S",
                                **startup(trees, args.startup)}
        if args.worker_rss:
            names = list(dict.fromkeys(name for name, _, _ in specs))
            bench["worker_rss"] = {
                "command": "python perfbench/worker.py, given the workload's seed-0 calls "
                           "on stdin, spawned from a small launcher",
                "runs": "alternating which side runs first; peak_rss_mb as the worker "
                        "reports it (ru_maxrss)",
                "workloads": worker_rss(trees, names, args.worker_rss)}
        if args.frontier:
            bench["frontier"] = {
                "command": "python -m mvortho verify --family hahn --n n --N N --a A --b 2 "
                           "--format json --timings, one fresh process each",
                "runs": "per instance and side, alternating which side runs first",
                "time_limit_s": TIME_LIMIT_S,
                "instances": frontier(trees, args.frontier, args.frontier_parent)}
    args.output.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
