"""The output check: which operations of a sample failed.

An operation is one ``CheckReport`` of a ``verify`` call, or one ``eval``
or ``export`` call.  It fails when its report has status ``fail``, when
the call raised or exited with an unexpected code, or when its output
does not pass the check.  At seed 0 the check compares committed digests
(``expected.json``): for ``verify`` the tuple (name, instance, status,
exact max_defect) of each report, for ``eval``/``export`` the full output
bytes.  At any other seed it requires exit code 0, no ``fail`` status,
and exported weights that sum to exactly 1.
"""

from __future__ import annotations

import hashlib
import json


def report_digest(report) -> str:
    """Digest of (name, instance, status, max_defect); detail and timing excluded."""
    return hashlib.sha256(json.dumps(report[:4]).encode()).hexdigest()


def expected_entry(call: dict) -> dict:
    """What expected.json stores for one call of a seed-0 sample."""
    if call["argv"][0] == "verify":
        return {"reports": [report_digest(r) for r in call["reports"]]}
    return {"sha256": call["sha256"]}


def check_call(call: dict, expected: dict | None) -> tuple:
    """(attempted, failed, problems) for one CLI call."""
    problems = []
    if call["argv"][0] == "verify":
        want = None if expected is None else expected["reports"]
        if call["rc"] not in (0, 1) or "reports" not in call:
            count = max(1, len(want or ()))
            return count, count, [f"verify exited {call['rc']}: {call['error'][-200:]}"]
        attempted = failed = 0
        for i, report in enumerate(call["reports"]):
            bad = report[2] == "fail"
            if want is not None and (i >= len(want) or report_digest(report) != want[i]):
                bad = True
                problems.append(f"report {i} {report[0]} differs from seed-0 digest")
            elif bad:
                problems.append(f"report {i} {report[0]} failed: {report[1]}")
            attempted += 1
            failed += bad
        missing = 0 if want is None else max(0, len(want) - len(call["reports"]))
        if missing:
            problems.append(f"{missing} reports missing")
        return attempted + missing, failed + missing, problems

    if call["rc"] != 0:
        problems.append(f"exited {call['rc']}: {call['error'][-200:]}")
    if "unreadable" in call:
        problems.append(f"output unreadable: {call['unreadable']}")
    if expected is not None and call["sha256"] != expected["sha256"]:
        problems.append("output differs from seed-0 digest")
    if call.get("weights_sum", "1/1") != "1/1":
        problems.append(f"weights sum to {call['weights_sum']}, not 1")
    return 1, int(bool(problems)), [f"{' '.join(call['argv'][:1])}: {p}" for p in problems]


def check_sample(record: dict, expected: list | None) -> tuple:
    """(attempted, failed, problems) over every call of one sample."""
    if expected is not None and len(expected) != len(record["calls"]):
        n = len(expected)
        return n, n, [f"{len(record['calls'])} calls, expected {n}"]
    attempted = failed = 0
    problems = []
    for i, call in enumerate(record["calls"]):
        a, f, p = check_call(call, None if expected is None else expected[i])
        attempted += a
        failed += f
        problems += p
    return attempted, failed, problems
