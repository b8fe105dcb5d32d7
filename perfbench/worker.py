"""One benchmark sample: a fresh interpreter runs a workload's CLI calls.

Reads a JSON spec on stdin: ``{"src": <dir holding mvortho>, "bench":
<dir holding tracer.py>, "calls": [argv, ...], "xmax": int | null,
"trace": bool}``.  Writes one JSON object to stdout with the set-up time,
the summed wall time of the calls, the time of the reference loop run
just before and just after the calls, the peak RSS, and per call the exit
code, the output size and digest, and the facts the output check needs.
With ``trace`` the calls run under the tracer and the object also holds
its summary.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
from fractions import Fraction


def reference_loop_s() -> float:
    """Seconds for a fixed loop of stdlib Fraction arithmetic on small
    values, the kind of work mvortho does, with the collector off: the
    host's current speed."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        total = Fraction(0)
        for k in range(3000):
            total += Fraction(k % 7 + 1, k % 5 + 2) * Fraction(k % 3 + 1, k % 11 + 1)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def run_call(cli, argv) -> tuple:
    """(exit code or None, error text, stdout text, seconds) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a traceback is a failed operation, not a crash
        rc = None
        err.write(f"{type(exc).__name__}: {exc}")
    return rc, err.getvalue(), out.getvalue(), time.perf_counter() - t0


def output_facts(argv, text: str) -> dict:
    """What the output check needs from one call's output."""
    from mvortho.serialize import parse_weight_csv

    facts = {"bytes": len(text.encode()),
             "sha256": hashlib.sha256(text.encode()).hexdigest()}
    try:
        if argv[0] == "verify":
            facts["reports"] = [
                [r["name"], r["instance"], r["status"], r["max_defect"],
                 r.get("wall_time")]
                for r in json.loads(text)["reports"]
            ]
        elif "weights" in argv and "csv" in argv:
            _, values = parse_weight_csv(text)
            total = sum(values)
            facts["weights_sum"] = f"{total.numerator}/{total.denominator}"
        else:
            json.loads(text)
    except (ValueError, KeyError, TypeError, StopIteration) as exc:
        facts["unreadable"] = f"{type(exc).__name__}: {exc}"
    return facts


def main() -> int:
    spec = json.load(sys.stdin)
    calls = spec["calls"]

    t0 = time.perf_counter()
    sys.path.insert(0, spec["src"])
    from mvortho import BACKEND, cli
    from mvortho.core import family_lattice

    params = cli.build_params(cli.build_parser().parse_args(calls[0]))
    family_lattice(params, xmax=spec["xmax"])
    setup_s = time.perf_counter() - t0

    tracer = None
    with contextlib.ExitStack() as stack:
        if spec["trace"]:
            sys.path.insert(0, spec["bench"])
            from tracer import Tracer

            tracer = Tracer()
            stack.enter_context(tracer.patched())
        before = reference_loop_s()
        results = [run_call(cli, argv) for argv in calls]
        after = reference_loop_s()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    record = {
        "setup_s": setup_s,
        "wall_s": sum(r[3] for r in results),
        "reference_s": (before + after) / 2,
        "peak_rss_mb": peak_rss_mb,
        "backend": BACKEND,
        "calls": [
            dict(argv=argv, rc=rc, error=err[-2000:], **output_facts(argv, text))
            for argv, (rc, err, text, _) in zip(calls, results)
        ],
    }
    if tracer is not None:
        record["trace"] = tracer.summary()
    json.dump(record, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
