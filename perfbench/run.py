"""Benchmark of the mvortho command line, end to end and per layer.

    python3 perfbench/run.py --workload hahn-suite --seed 0 --seconds 28 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each sample is a fresh interpreter (``worker.py``) that imports
mvortho, builds the workload's parameters and lattice, and runs the
workload's CLI calls through ``mvortho.cli.main``, so no memo survives
from one sample to the next.  Samples run one at a time (closed loop, one
client) until ``--seconds`` have passed; every sample's output is checked.

``--trace 0`` prints the end-to-end metrics: the medians over samples of
the calls' wall time, the set-up time and the peak RSS, and the share of
operations that passed.  The two times are given at reference speed: each
sample also times a fixed loop of stdlib Fraction arithmetic just before
and after its calls, and its times are scaled by REFERENCE_S over that
loop's time.  On a shared host the speed of a process changes by up to
1.8x between phases that last from seconds to minutes; in trials of ten
28-second runs the spread (IQR over median) of the raw run medians
reached 0.29 for wall time and 0.27 for set-up, of the scaled ones 0.10
and 0.06.  The raw medians are kept in the environment line.  ``--trace 1`` also runs two traced samples and
prints the per-layer metrics from them; their counts must agree exactly.

The last line of standard output is the result object; the line before
it records the environment.  ``--record-expected`` rewrites the seed-0
digests in ``expected.json`` from one sample of every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected.json"
RUN_LIMIT_S = 170.0
MIN_SAMPLES = 3
# The reference loop's time (worker.reference_loop_s) on the host the
# benchmark was defined on, in its faster phases: Intel Xeon, 2 vCPUs,
# Python 3.11.7.
REFERENCE_S = 0.012
# Samples import the package from cached bytecode, as an installed CLI does.
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}

sys.path.insert(0, str(BENCH))
from check import check_sample, expected_entry  # noqa: E402
from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REPORT_NAMES = (
    "normalization", "compatibility", "boundary-safety", "adjointness",
    "commutators", "degree-invariance", "eigen", "eigen-suite",
    "eigen-degeneracy", "type-one", "type-one-overlap", "sv-shifts",
    "sv-difference-eq", "pair-shifts", "pair-recursions",
    "generalized-recursions", "rodrigues", "glue", "gram",
    "pair-orthogonality", "completeness",
)

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}

# Per-layer metric name -> unit, in the order they are printed.
PER_LAYER = {}
for _f in ("eigenpoly", "eigenpoly_table", "hahn_pair", "km_pair", "hahn",
           "krawtchouk", "meixner"):
    PER_LAYER[f"polynomials.{_f}.self_s"] = "s"
    PER_LAYER[f"polynomials.{_f}.calls"] = "count"
for _f in ("hahn_pair", "km_pair", "hahn"):
    PER_LAYER[f"polynomials.{_f}.distinct_ratio"] = "ratio"
PER_LAYER["polynomials.eigenpoly_table.max_bits"] = "bits"
for _f in ("measures.inner_product", "measures.meixner_weight",
           "verify.meixner_product_tail_bound", "operators.apply_operator",
           "operators.operator_matrix", "operators.commutator_defect",
           "operators.adjointness_defect", "operators.degree_invariance_check",
           "linalg.rank", "linalg.mat_mul", "measures.weight_table"):
    PER_LAYER[f"{_f}.self_s"] = "s"
    PER_LAYER[f"{_f}.calls"] = "count"
PER_LAYER["core.family_lattice.calls"] = "count"
for _f in ("verify.poly_coefficients", "verify.gram_check", "verify.residual_defect",
           "serialize.value_str", "serialize.json_text", "serialize.csv_text",
           "serialize.matrix_triplets"):
    PER_LAYER[f"{_f}.self_s"] = "s"
for _layer in LAYERS:
    PER_LAYER[f"layer.{_layer}.self_s"] = "s"
for _name in REPORT_NAMES:
    PER_LAYER[f"verify.check.{_name}.s"] = "s"
PER_LAYER["cli.output_bytes"] = "bytes"
PER_LAYER["trace.wall_s"] = "s"
PER_LAYER["trace.unattributed_s"] = "s"
PER_LAYER["trace.overhead_ratio"] = "ratio"

# Counts that must repeat exactly between two traced runs.
DETERMINISTIC = (".calls", ".distinct_ratio", ".max_bits")


def run_sample(calls, xmax, trace: bool, timeout: float) -> dict:
    """One fresh-interpreter sample; raises RuntimeError if the worker fails."""
    spec = {"src": str(SRC), "bench": str(BENCH), "calls": calls, "xmax": xmax,
            "trace": trace}
    if trace:
        spec["calls"] = [argv + ["--timings"] if argv[0] == "verify" else argv
                         for argv in calls]
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py")], input=json.dumps(spec),
        capture_output=True, text=True, timeout=timeout, cwd=ROOT, env=ENV,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def scaled(record: dict, key: str) -> float:
    """A sample's time at reference speed."""
    return record[key] * REFERENCE_S / record["reference_s"]


def load_expected(name: str):
    return json.loads(EXPECTED.read_text())[name]


def environment(workload: str, seed: int, backend: str, counts: dict) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "backend": backend,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "workload": workload,
        "seed": seed,
        "samples": counts,
    }


def per_layer(traced: list, untraced_wall: float, output_bytes: int) -> dict:
    """Per-layer metrics: counts from the first traced sample (the second
    must agree), times from the faster one."""
    best = min(traced, key=lambda r: r["wall_s"])
    times = best["trace"]
    counts = traced[0]["trace"]
    out = {}
    for name in PER_LAYER:
        out[name] = (counts if name.endswith(DETERMINISTIC) else times).get(name, 0)
    for call in best["calls"]:
        for rep in call.get("reports", ()):
            key = f"verify.check.{rep[0]}.s"
            if key in out:
                out[key] += rep[4]
    out["cli.output_bytes"] = output_bytes
    out["trace.wall_s"] = best["wall_s"]
    out["trace.unattributed_s"] = best["wall_s"] - sum(
        v for k, v in times.items() if k.endswith(".self_s") and not k.startswith("layer."))
    out["trace.overhead_ratio"] = scaled(best, "wall_s") / untraced_wall
    return out


def count_mismatches(traced: list) -> list:
    first, second = (r["trace"] for r in traced)
    return [k for k in sorted(set(first) | set(second))
            if k.endswith(DETERMINISTIC) and first.get(k) != second.get(k)]


def bench(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]
    calls = workload.calls(seed)
    xmax = workload.xmax()
    expected = load_expected(name) if seed == 0 else None
    start = time.perf_counter()

    def remaining() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - start)

    # compile the package's bytecode once, outside every timed region
    subprocess.run([sys.executable, "-c", "import mvortho"], cwd=ROOT, check=True,
                   env={**ENV, "PYTHONPATH": str(SRC)}, timeout=60)

    samples, problems = [], []
    attempted = failed = 0

    def take(traced: bool) -> dict:
        nonlocal attempted, failed
        record = run_sample(calls, xmax, traced, max(remaining(), 1.0))
        a, f, p = check_sample(record, expected)
        attempted += a
        failed += f
        problems.extend(p)
        return record

    # stop when the next sample would end after the measuring time
    durations = []
    while len(samples) < MIN_SAMPLES or (
            time.perf_counter() - start + statistics.median(durations) <= seconds):
        t0 = time.perf_counter()
        samples.append(take(False))
        durations.append(time.perf_counter() - t0)

    flagged = False
    sizes = {sum(c["bytes"] for c in r["calls"]) for r in samples}
    if len(sizes) != 1:
        flagged = True
        problems.append(f"output sizes differ between samples: {sorted(sizes)}")

    wall = statistics.median(scaled(r, "wall_s") for r in samples)
    if trace:
        traced = [take(True), take(True)]
        mismatched = count_mismatches(traced)
        if mismatched:
            flagged = True
            problems.append(f"traced counts differ between runs: {mismatched[:10]}")
        metrics = per_layer(traced, wall, sizes.pop())
        units = PER_LAYER
        print_layers(traced[0]["trace"], traced[0]["wall_s"], workload)
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(scaled(r, "setup_s") for r in samples),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in samples),
            "ok_ratio": 1 - failed / attempted,
        }
        units = END_TO_END

    correct = failed == 0 and not flagged
    for p in problems[:20]:
        print(f"check: {p}", file=sys.stderr)
    counts = {name: len(samples) for name in ("wall_s", "setup_s", "peak_rss_mb")}
    counts["ok_ratio"] = attempted
    if trace:
        counts["per_layer"] = len(traced)
    env = environment(name, seed, samples[0]["backend"], counts)
    for key in ("wall_s", "setup_s", "reference_s"):
        env[f"raw_{key}_median"] = statistics.median(r[key] for r in samples)
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def print_layers(summary: dict, wall: float, workload) -> None:
    """The full per-function table and the share check, on stderr."""
    rows = sorted(((v, k) for k, v in summary.items()
                   if k.endswith(".self_s") and not k.startswith("layer.")), reverse=True)
    for v, k in rows:
        if v > 0.001 * wall:
            calls = summary.get(k[: -len("self_s")] + "calls")
            print(f"trace: {v:9.4f}s {v / wall:6.1%} {calls:>9} {k[:-7]}", file=sys.stderr)
    share = sum(summary.get(k, 0.0) for k in workload.dominant) / wall
    verdict = "holds" if share > workload.share else "DOES NOT hold"
    print(f"trace: {' + '.join(workload.dominant)} = {share:.1%} of traced wall; "
          f"the > {workload.share:.0%} prediction {verdict}", file=sys.stderr)
    print(f"trace: predicted to move wall_s here: {', '.join(workload.moves)}; "
          f"no change expected: {', '.join(workload.no_change)}", file=sys.stderr)


def record_expected() -> int:
    table = {}
    for name, workload in WORKLOADS.items():
        record = run_sample(workload.calls(0), workload.xmax(), False, RUN_LIMIT_S)
        table[name] = [expected_entry(call) for call in record["calls"]]
        _, failed, problems = check_sample(record, None)
        if failed:
            print("\n".join(problems), file=sys.stderr)
            return 1
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "mvortho" / "__init__.py").is_file():
        print(f"error: no mvortho package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.record_expected:
        return record_expected()
    if args.workload is None:
        parser.error("--workload is required")
    return bench(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
