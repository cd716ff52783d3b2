"""Span tracer that wraps riopi's public functions from outside the package.

Every wrapped call records one span ``[name, start_ns, end_ns, parent,
job, book_ns]`` in memory.  ``book_ns`` is the tracer's own bookkeeping
after the wrapped call returned (coefficient bit lengths, Hankel scale
bits); it sits inside the span's interval, so the parent's self time does
not absorb it, and it is subtracted from the span's own self time.

Three details decide whether a wrapper is ever reached:

* operators resolve on the class, so ``Series.__mul__``, ``__rmul__`` (an
  alias captured when the class was created), ``__truediv__`` and
  ``__rtruediv__`` are each patched on ``Series``;
* a name imported with ``from .x import f`` is a second reference, so every
  ``riopi`` namespace holding the original object is patched;
* ``remove`` puts every original object back, in reverse order.
"""

from __future__ import annotations

import functools
import math
import sys
import time

# (layer, class or None for a module function, attribute, metric name).
TARGETS = (
    ("series", "Series", "__mul__", "mul"),
    ("series", "Series", "__rmul__", "rmul"),
    ("series", "Series", "__truediv__", "truediv"),
    ("series", "Series", "__rtruediv__", "rtruediv"),
    ("series", "Series", "compose", "compose"),
    ("series", "Series", "revert", "revert"),
    ("series", "Series", "sqrt", "sqrt"),
    ("series", None, "cf_eval", "cf_eval"),
    ("riordan", "RiordanArray", "triangle", "triangle"),
    ("riordan", "RiordanArray", "production_matrix", "production_matrix"),
    ("riordan", None, "is_pseudo_involution", "is_pseudo_involution"),
    ("riordan", None, "b_extract", "b_extract"),
    ("riordan", "RiordanArray", "a_and_z", "a_and_z"),
    ("hankel", None, "hankel_transform", "hankel_transform"),
    ("hankel", None, "hankel_det", "hankel_det"),
    ("family", None, "g_family", "g_family"),
    ("family", None, "companion", "companion"),
    ("elliptic", None, "pipeline", "pipeline"),
    ("elliptic", None, "f_from_curve", "f_from_curve"),
    ("elliptic", None, "curve_somos_check", "curve_somos_check"),
    ("somos", None, "somos4_fit", "somos4_fit"),
    ("somos", None, "somos4_check", "somos4_check"),
    ("somos", None, "conjecture_family", "conjecture_family"),
    ("knowndata", None, "computed_values", "computed_values"),
    ("cli", None, "main", "main"),
)

# Layers whose call counts are reported; the others report self time only.
COUNTED_LAYERS = ("series", "riordan", "hankel")

NAME, START, END, PARENT, JOB, BOOK = range(6)


def _series_bits(tracer, args, result):
    coeffs = getattr(result, "coeffs", None)
    if coeffs:
        bits = max(max(c.numerator.bit_length(), c.denominator.bit_length())
                   for c in coeffs)
        if bits > tracer.coeff_bits:
            tracer.coeff_bits = bits


def _mul_ops(tracer, args, result):
    # Only series-by-series products convolve; n(n+1)/2 coefficient
    # products at the common order n, computed from the orders.
    left, right = args
    if hasattr(right, "coeffs") and hasattr(result, "coeffs"):
        n = min(len(left.coeffs), len(right.coeffs))
        tracer.coeff_ops += n * (n + 1) // 2
    _series_bits(tracer, args, result)


def _scale_bits(tracer, args, result):
    # hankel_det(seq, n) clears denominators with lcm(...)^(n+1).
    seq, n = args[0], args[1]
    scale = math.lcm(*(getattr(v, "denominator", 1) for v in seq[: 2 * n + 1]))
    bits = (scale ** (n + 1)).bit_length()
    if bits > tracer.scale_bits:
        tracer.scale_bits = bits


def _after(name: str):
    """Bookkeeping run after a wrapped call returns, or None."""
    if name == "series.mul":
        return _mul_ops
    if name == "hankel.hankel_det":
        return _scale_bits
    if name.startswith("series."):
        return _series_bits
    return None


class Tracer:
    """Holds the spans and counters of one traced run and the patches that
    produce them.  ``job`` is set by the caller before each job."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self.coeff_ops = 0
        self.coeff_bits = 0
        self.scale_bits = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` wrapped so that each call records one span."""
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter_ns, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, tracer.job, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if after is not None:
                after(tracer, args, result)
                end = clock()
                rec[BOOK] = end - rec[END]
                rec[END] = end
            return result

        return traced

    def install(self) -> None:
        """Patch every target in the imported ``riopi`` modules."""
        namespaces = [m for n, m in sys.modules.items()
                      if n == "riopi" or n.startswith("riopi.")]
        for layer, cls_name, attr, fn_name in TARGETS:
            name = f"{layer}.{fn_name}"
            module = sys.modules[f"riopi.{layer}"]
            if cls_name is not None:
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self.wrap(name, original, _after(name)))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, _after(name))
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        self._patch(namespace, key, wrapper)

    def remove(self) -> None:
        """Put every patched attribute back to its original object."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)


def self_times(spans) -> list[int]:
    """Self time of each span in ns: its duration minus the durations of
    its direct children minus its own bookkeeping."""
    covered = [0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            covered[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - rec[BOOK] - covered[i]
            for i, rec in enumerate(spans)]


def ancestor(spans, index: int, names) -> int:
    """Index of the nearest enclosing span whose name is in ``names``, or -1."""
    parent = spans[index][PARENT]
    while parent >= 0 and spans[parent][NAME] not in names:
        parent = spans[parent][PARENT]
    return parent


def selfcheck_share(spans) -> tuple[float, float]:
    """Share of pipeline/b_extract time spent in nested is_pseudo_involution
    spans, and the base (total pipeline/b_extract seconds) it is taken of."""
    parents = ("elliptic.pipeline", "riordan.b_extract")
    base = sum(rec[END] - rec[START] for i, rec in enumerate(spans)
               if rec[NAME] in parents and ancestor(spans, i, parents) < 0)
    nested = sum(rec[END] - rec[START] for i, rec in enumerate(spans)
                 if rec[NAME] == "riordan.is_pseudo_involution"
                 and ancestor(spans, i, parents) >= 0)
    return (nested / base if base else 0.0), base / 1e9


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a stable order."""
    names = []
    for layer, _cls, _attr, fn_name in TARGETS:
        if layer in COUNTED_LAYERS:
            names.append(f"{layer}.{fn_name}.calls")
        names.append(f"{layer}.{fn_name}.self_s")
    names += ["series.mul.coeff_ops", "series.coeff_bits.max",
              "riordan.selfcheck_share", "hankel.scale_bits.max",
              "trace.overhead_frac"]
    return names


def layer_metrics(tracer: Tracer, jobs: int) -> dict[str, tuple[float, str]]:
    """Per-job call counts and self seconds per wrapped function, plus the
    derived counters; ``trace.overhead_frac`` is left to the caller."""
    selfs = self_times(tracer.spans)
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    for rec, own in zip(tracer.spans, selfs):
        calls[rec[NAME]] = calls.get(rec[NAME], 0) + 1
        self_ns[rec[NAME]] = self_ns.get(rec[NAME], 0) + own
    out: dict[str, tuple[float, str]] = {}
    for layer, _cls, _attr, fn_name in TARGETS:
        name = f"{layer}.{fn_name}"
        if layer in COUNTED_LAYERS:
            out[f"{name}.calls"] = (calls.get(name, 0) / jobs, "calls/job")
        out[f"{name}.self_s"] = (self_ns.get(name, 0) / 1e9 / jobs, "s/job")
    out["series.mul.coeff_ops"] = (tracer.coeff_ops / jobs, "ops/job")
    out["series.coeff_bits.max"] = (tracer.coeff_bits, "bits")
    out["riordan.selfcheck_share"] = (selfcheck_share(tracer.spans)[0], "ratio")
    out["hankel.scale_bits.max"] = (tracer.scale_bits, "bits")
    return out
