"""Per-function spans for mvortho, recorded from outside the package.

``Tracer.patched()`` replaces every public function of the layer modules
with a timing wrapper, in every ``mvortho`` namespace that binds it (the
modules import each other's functions by name, so patching only the
defining module would miss most calls), and restores every attribute on
exit.  A function's self time is its span minus the spans of the
wrapped functions it called.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time

LAYERS = ("core", "polynomials", "measures", "operators", "linalg", "verify",
          "serialize", "cli")

# Not wrapped.  The arithmetic leaves are called once per term, stencil move
# or value: wrapping them would mostly measure the wrapper, so their time
# stays with the caller.  cli.main is the traced region itself: what it does
# outside the command (parsing argv) is the unattributed remainder.
UNWRAPPED = {
    "core.rising_factorial", "core.multinomial", "core.compositions",
    "core.tail_sum", "core.tail_param",
    "operators.up_rate", "operators.down_rate", "operators.exchange_coeff",
    "serialize.rational_str",
    "cli.main",
}

# Functions whose argument tuples are kept, for distinct/calls ratios.
ARGS_KEPT = ("polynomials.hahn_pair", "polynomials.km_pair", "polynomials.hahn")
# Functions whose returned value tables are kept, for the largest bit length.
RESULTS_KEPT = ("polynomials.eigenpoly_table",)


def layer_functions() -> dict:
    """{"<layer>.<name>": function} for every wrapped function."""
    out = {}
    for layer in LAYERS:
        module = sys.modules[f"mvortho.{layer}"]
        for name, obj in vars(module).items():
            key = f"{layer}.{name}"
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_") and key not in UNWRAPPED):
                out[key] = obj
    return out


def max_bits(values) -> int:
    """Largest numerator or denominator bit length among rationals."""
    out = 0
    for v in values:
        if v is not None:
            out = max(out, int(v.numerator).bit_length(),
                      int(v.denominator).bit_length())
    return out


class Tracer:
    """Self time and call counts per wrapped function, for one process."""

    def __init__(self):
        self.self_s: dict = {}
        self.calls: dict = {}
        self.args = {key: [] for key in ARGS_KEPT}
        self.results = {key: [] for key in RESULTS_KEPT}
        # child-span time of each open span; the bottom entry is the root
        self._stack = [0.0]

    def _wrap(self, key, fn):
        clock = time.perf_counter
        stack = self._stack
        self_s, calls = self.self_s, self.calls
        self_s[key] = 0.0
        calls[key] = 0
        args_kept = self.args.get(key)
        results_kept = self.results.get(key)

        def wrapper(*args, **kwargs):
            if args_kept is not None:
                args_kept.append((args, tuple(sorted(kwargs.items()))))
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[key] += dt - stack.pop()
                calls[key] += 1
                stack[-1] += dt
            if results_kept is not None:
                results_kept.append(out)
            return out

        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Wrap every binding of a layer function in every mvortho namespace."""
        originals = {id(fn): (key, fn) for key, fn in layer_functions().items()}
        wrappers = {}
        saved = []
        try:
            for modname, module in list(sys.modules.items()):
                if modname != "mvortho" and not modname.startswith("mvortho."):
                    continue
                for attr, value in list(vars(module).items()):
                    if id(value) not in originals:
                        continue
                    key, fn = originals[id(value)]
                    if key not in wrappers:
                        wrappers[key] = self._wrap(key, fn)
                    saved.append((module, attr, value))
                    setattr(module, attr, wrappers[key])
            yield self
        finally:
            for module, attr, value in reversed(saved):
                setattr(module, attr, value)

    def summary(self) -> dict:
        """Counts and self times, plus the derived ratios and bit lengths."""
        out = {}
        for key in self.calls:
            out[f"{key}.calls"] = self.calls[key]
            out[f"{key}.self_s"] = self.self_s[key]
        for key, kept in self.args.items():
            out[f"{key}.distinct_ratio"] = len(set(kept)) / len(kept) if kept else 0.0
        for key, kept in self.results.items():
            out[f"{key}.max_bits"] = max((max_bits(t.values) for t in kept), default=0)
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = sum(
                v for k, v in self.self_s.items() if k.startswith(layer + "."))
        return out
