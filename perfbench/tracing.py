"""Spans and counters recorded from outside the engine.

Each layer function is wrapped in every ``topzeta`` module namespace that
binds it: ``from .x import f`` copies the binding, so patching only the
defining module would miss callers such as ``cli.principalize``.  Counters
are read from the public arguments and results at the same boundaries.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

#: Layer functions by module; a layer's name is "module.function".
LAYERS = {
    "cli": ("main",),
    "poly": ("parse_poly",),
    "blowup": ("initial_state", "blow_up"),
    "principalize": ("find_bad_points", "principalize", "verify_minimality"),
    "diagram": ("diagram_from_state", "validate_all"),
    "zeta": ("pole_report",),
    "ratfunc": ("rf_sum_of_terms",),
    "criterion": ("cross_check", "classify"),
    "generic": ("certify_generic",),
}
LAYER_NAMES = tuple(f"{m}.{f}" for m, fs in LAYERS.items() for f in fs)


def _residual_size(charts, sizes: Counter) -> None:
    """Largest term count, total degree and coefficient bit size over the
    residual generators of the given charts."""
    for chart in charts:
        for p in chart.residual:
            sizes["max_residual_terms"] = max(sizes["max_residual_terms"],
                                              len(p.terms))
            sizes["max_residual_degree"] = max(sizes["max_residual_degree"],
                                               p.total_degree())
            bits = max((max(c.numerator.bit_length(),
                            c.denominator.bit_length())
                        for c in p.terms.values()), default=0)
            sizes["max_coeff_bits"] = max(sizes["max_coeff_bits"], bits)


class Tracer:
    """Self time and calls per layer, plus the size counters of one pass."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()   # summed over the pass
        self.sizes: Counter = Counter()    # maxima over the pass
        self._children: list[float] = []   # child time of each open span
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping --

    def _wrap(self, name: str, fn):
        before, after = _OBSERVERS.get(name, (None, None))

        def wrapper(*args, **kwargs):
            # the observers' own time counts as a child of the enclosing
            # span, so it inflates no layer's self time
            start = time.perf_counter()
            try:
                seen = before(self, args) if before else None
                self._children.append(0.0)
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = time.perf_counter() - t0
                    self.self_s[name] += dur - self._children.pop()
                    self.calls[name] += 1
                if after:
                    after(self, args, result, seen)
                return result
            finally:
                if self._children:
                    self._children[-1] += time.perf_counter() - start

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every layer in every topzeta namespace that binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "topzeta" or n.startswith("topzeta.")]
        for mod_name, fns in LAYERS.items():
            home = importlib.import_module(f"topzeta.{mod_name}")
            for fn_name in fns:
                orig = getattr(home, fn_name, None)
                if not callable(orig):
                    raise RuntimeError(
                        f"layer topzeta.{mod_name}.{fn_name} is missing")
                wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, orig))

    def remove(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False


# --- counters read at layer boundaries ---------------------------------------

def _scan(tracer, args):
    tracer.counts["leaves_scanned"] += len(args[0].leaves)


def _before_blow_up(tracer, args):
    return len(args[0].leaves)


def _after_blow_up(tracer, args, state, leaves_before):
    new = len(state.leaves) - leaves_before + 1
    tracer.counts["new_leaves"] += new
    start = args[1].leaf_index
    _residual_size(state.leaves[start:start + new], tracer.sizes)


def _after_initial_state(tracer, args, state, _):
    _residual_size(state.leaves, tracer.sizes)


def _after_principalize(tracer, args, result, _):
    tracer.sizes["leaf_charts"] = max(tracer.sizes["leaf_charts"],
                                      len(result.state.leaves))


def _after_pole_report(tracer, args, report, _):
    tracer.sizes["terms"] = max(tracer.sizes["terms"], len(report.terms))


def _after_certify(tracer, args, report, _):
    tracer.counts["retries"] += report.retries


_OBSERVERS = {
    "principalize.find_bad_points": (_scan, None),
    "blowup.blow_up": (_before_blow_up, _after_blow_up),
    "blowup.initial_state": (None, _after_initial_state),
    "principalize.principalize": (None, _after_principalize),
    "zeta.pole_report": (None, _after_pole_report),
    "generic.certify_generic": (None, _after_certify),
}
