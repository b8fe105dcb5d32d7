"""The benchmark's workloads: which CLI calls a sample makes, on which instance.

Seed 0 is the fixed instance of each workload.  Any other seed redraws
every rational p/q of that instance as p'/q with p' uniform in {p, p + 1}:
denominators and the lattice size (n, N, xmax) stay fixed, so the cost
of a sample stays comparable while the values change.  For Meixner the
redrawn |a| stays below 1 (at most 2/5 + 2/4).  The seed is also
passed on as ``verify --seed``.

``moves`` and ``no_change`` record, before any optimisation is measured,
which per-layer metrics should move ``wall_s`` on the workload and which
should not; ``dominant`` is the set of functions whose self time the
traced run must show as more than ``share`` of the traced wall.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    integers: tuple      # (flag, value) pairs kept fixed at every seed
    rationals: tuple     # (flag, "p/q,...") pairs redrawn at seeds != 0
    commands: Callable   # (instance argv, seed) -> list of CLI argv lists
    dominant: tuple
    share: float
    moves: tuple
    no_change: tuple

    def instance(self, seed: int) -> list:
        """The instance flags for a seed, as CLI arguments."""
        rng = random.Random(seed)
        drawn = [(flag, text if seed == 0 else redraw(text, rng))
                 for flag, text in self.rationals]
        argv = ["--family", self.family]
        for flag, value in list(drawn) + list(self.integers):
            argv += [flag, str(value)]
        return argv

    def calls(self, seed: int) -> list:
        return self.commands(self.instance(seed), seed)

    def xmax(self):
        return dict(self.integers).get("--xmax")


def redraw(text: str, rng: random.Random) -> str:
    out = []
    for part in text.split(","):
        num, slash, den = part.partition("/")
        p = int(num) + rng.randint(0, 1)
        out.append(f"{p}{slash}{den}")
    return ",".join(out)


def _verify(*extra):
    def commands(inst, seed):
        return [["verify", *inst, *extra, "--seed", str(seed), "--format", "json"]]
    return commands


def _checks(*names):
    def commands(inst, seed):
        return [["verify", *inst, "--check", name, "--seed", str(seed),
                 "--format", "json"] for name in names]
    return commands


def _export(n: int, max_degree: int, operators):
    degrees = sorted((m for m in product(range(max_degree + 1), repeat=n)
                      if sum(m) <= max_degree), key=lambda m: (sum(m), m))

    def commands(inst, seed):
        out = [["eval", *inst, "--m", ",".join(map(str, m)), "--format", "json"]
               for m in degrees]
        out.append(["export", *inst, "--what", "weights", "--format", "csv"])
        out += [["export", *inst, "--what", "operator", "--op", op, "--format", "json"]
                for op in operators]
        return out
    return commands


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="hahn-suite",
            family="hahn",
            integers=(("--N", 5),),
            rationals=(("--a", "1,2,3"), ("--b", "2")),
            commands=_verify(),
            dominant=("layer.polynomials.self_s", "measures.inner_product.self_s"),
            share=0.5,
            moves=("polynomials.*", "measures.inner_product.*", "operators.*",
                   "linalg.*", "core.family_lattice.calls", "measures.weight_table.*"),
            no_change=("measures.meixner_weight.*",
                       "verify.meixner_product_tail_bound.*"),
        ),
        Workload(
            name="meixner-suite",
            family="meixner",
            integers=(("--xmax", 4),),
            rationals=(("--a", "1/5,1/4"), ("--beta", "2")),
            commands=_verify("--m-max", "1"),
            dominant=("measures.meixner_weight.self_s",
                      "verify.meixner_product_tail_bound.self_s"),
            share=2 / 3,
            moves=("measures.meixner_weight.*", "verify.meixner_product_tail_bound.*",
                   "verify.poly_coefficients.self_s", "core.family_lattice.calls",
                   "measures.weight_table.*"),
            no_change=("measures.inner_product.*", "linalg.*", "serialize.*"),
        ),
        Workload(
            name="krawtchouk-operators",
            family="krawtchouk",
            integers=(("--N", 6),),
            rationals=(("--a", "1/2,1/3,2"),),
            commands=_checks("commutators", "degree-invariance", "adjointness", "eigen"),
            dominant=("layer.operators.self_s", "layer.linalg.self_s"),
            share=2 / 3,
            moves=("operators.*", "linalg.*"),
            no_change=("measures.inner_product.*", "measures.meixner_weight.*",
                       "verify.meixner_product_tail_bound.*", "verify.gram_check.self_s"),
        ),
        Workload(
            name="hahn-export",
            family="hahn",
            integers=(("--N", 5),),
            rationals=(("--a", "1,2,3,1/2"), ("--b", "2")),
            commands=_export(4, 3, ("total", "single", "exchange1", "exchange2",
                                    "exchange3")),
            dominant=("layer.polynomials.self_s", "layer.serialize.self_s"),
            share=2 / 3,
            moves=("polynomials.*", "serialize.*", "cli.output_bytes",
                   "operators.operator_matrix.*"),
            no_change=("measures.inner_product.*", "measures.meixner_weight.*",
                       "linalg.*", "verify.*"),
        ),
    )
}
