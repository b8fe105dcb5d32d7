"""Self-tests of the benchmark's output check, tracer and count check.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Takes about half a minute.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
from check import check_sample  # noqa: E402
from tracer import Tracer, layer_functions  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL = ["--family", "hahn", "--a", "1,2,1/2", "--b", "2", "--N", "4"]
SMALL_CALLS = [
    ["verify", *SMALL, "--format", "json"],
    ["eval", *SMALL, "--m", "1,1,0", "--format", "json"],
    ["export", *SMALL, "--what", "weights", "--format", "csv"],
    ["export", *SMALL, "--what", "operator", "--op", "exchange1", "--format", "json"],
]


def mvortho_bindings() -> dict:
    """(module, attribute) -> object for every attribute of every mvortho module."""
    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if name == "mvortho" or name.startswith("mvortho.")
            for attr, value in vars(module).items()}


def cli_outputs(calls) -> list:
    from mvortho import cli

    out = []
    for argv in calls:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(argv) == 0, argv
        out.append(buf.getvalue())
    return out


class OutputCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        workload = WORKLOADS["meixner-suite"]
        cls.expected = run.load_expected("meixner-suite")
        cls.record = run.run_sample(workload.calls(0), workload.xmax(), False, 120)
        cls.export = run.run_sample(SMALL_CALLS[2:3], None, False, 120)

    def failed_ratio(self, record, expected):
        attempted, failed, _ = check_sample(record, expected)
        self.assertGreater(attempted, 0)
        return failed / attempted

    def test_seed_zero_sample_passes(self):
        self.assertEqual(self.failed_ratio(self.record, self.expected), 0)

    def test_altered_defect_fails_the_digest(self):
        record = copy.deepcopy(self.record)
        report = record["calls"][0]["reports"][1]
        report[3] = "1/1000000" if report[3] == "0" else "0"
        self.assertEqual(report[2], "pass")
        self.assertGreater(self.failed_ratio(record, self.expected), 0)
        self.assertEqual(self.failed_ratio(record, None), 0)

    def test_flipped_status_fails_at_any_seed(self):
        record = copy.deepcopy(self.record)
        record["calls"][0]["reports"][2][2] = "fail"
        self.assertGreater(self.failed_ratio(record, self.expected), 0)
        self.assertGreater(self.failed_ratio(record, None), 0)

    def test_weights_must_sum_to_one(self):
        self.assertEqual(self.export["calls"][0]["weights_sum"], "1/1")
        self.assertEqual(self.failed_ratio(self.export, None), 0)
        record = copy.deepcopy(self.export)
        record["calls"][0]["weights_sum"] = "999/1000"
        self.assertGreater(self.failed_ratio(record, None), 0)

    def test_nonzero_exit_fails(self):
        record = copy.deepcopy(self.export)
        record["calls"][0]["rc"] = 2
        self.assertGreater(self.failed_ratio(record, None), 0)


class TracerPatching(unittest.TestCase):
    def test_every_binding_wrapped_then_restored(self):
        import mvortho.cli  # noqa: F401  (loads every layer module)
        from mvortho import polynomials, verify

        before = mvortho_bindings()
        originals = layer_functions()
        tracer = Tracer()
        with tracer.patched():
            during = mvortho_bindings()
            # functions imported by name are wrapped where they are bound
            self.assertIsNot(verify.eigenpoly, originals["polynomials.eigenpoly"])
            self.assertIs(verify.eigenpoly, polynomials.eigenpoly)
            leftover = [key for key, value in during.items()
                        if any(value is fn for fn in originals.values())]
            self.assertEqual(leftover, [])
            traced = cli_outputs(SMALL_CALLS)
        after = mvortho_bindings()
        self.assertEqual(before.keys(), after.keys())
        changed = [key for key in before if before[key] is not after[key]]
        self.assertEqual(changed, [])
        self.assertEqual(cli_outputs(SMALL_CALLS), traced)
        self.assertGreater(tracer.calls["polynomials.hahn_pair"], 0)
        self.assertGreater(tracer.calls["core.family_lattice"], 0)


class CountCheck(unittest.TestCase):
    def test_two_traced_runs_agree_and_a_difference_is_flagged(self):
        workload = WORKLOADS["meixner-suite"]
        traced = [run.run_sample(workload.calls(3), workload.xmax(), True, 120)
                  for _ in range(2)]
        self.assertEqual(run.count_mismatches(traced), [])
        traced[1]["trace"]["measures.meixner_weight.calls"] += 1
        self.assertEqual(run.count_mismatches(traced), ["measures.meixner_weight.calls"])


class BenchmarkFile(unittest.TestCase):
    def test_names_match_the_code(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual([m["name"] for m in spec["per_layer"]], list(run.PER_LAYER))
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)


if __name__ == "__main__":
    unittest.main()
