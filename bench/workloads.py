"""The benchmark's three workloads: seeded inputs, jobs and output checks.

A workload turns ``--seed`` into a list of blocks.  A block is a tuple of
items that fixes the input mix (the share of integer and ``p/q`` parameters
in the rational workloads), and a run stops only at a block boundary, so
every run measures the same share of each kind of input.  The warm-up job
of the set-up takes fixed inputs, so set-up does the same work on every
seed.  Jobs call riopi through the ``riopi`` package attributes at call
time, which is where the tracer's wrappers sit.  Checks take an
independent route and run after the timed loop.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction

BLOCKS = 256  # far more than any run reaches


def _bits(values) -> int:
    return max((max(v.numerator.bit_length(), v.denominator.bit_length())
                for v in values), default=0)


def _cycle(rng: random.Random, pool: list):
    """Draw from ``pool`` without replacement, reshuffling when it runs out."""
    while True:
        batch = list(pool)
        rng.shuffle(batch)
        yield from batch


def _non_integer_rationals(bound: int) -> list[Fraction]:
    """Every p/q with q in {2, 3}, |p/q| <= bound and q not dividing p."""
    return sorted({Fraction(p, q) for q in (2, 3)
                   for p in range(-bound * q, bound * q + 1) if p % q})


class VerifySuite:
    """In-process ``riopi verify all`` passes, one pass per job."""

    name = "verify_suite"
    order = 28  # the conjecture suite's truncation inside ``verify``
    # Randomized trials per pass; the CLI's default is 30.  At 30 a pass
    # costs about 4 s, a 30-second run holds 7-12 passes, and the run's
    # median and tail pass time moved 12-15% from seed to seed.
    trials = 10

    def blocks(self, seed: int) -> list[tuple]:
        return [(seed * 1000 + i,) for i in range(BLOCKS)]

    def warm_up(self, riopi) -> None:
        self._verify(riopi, 0, ["--trials", "1"])

    def run_item(self, riopi, item, job) -> None:
        job("verify", lambda: self._verify(riopi, item, ["--trials", str(self.trials)]))

    def check(self, riopi, item, outputs) -> list[bool]:
        code, text = outputs[0]
        return [code == 0 and json.loads(text)["report"]["failed"] == "0"]

    def descriptor(self, items, outputs) -> dict:
        labels = [c["label"] for out in outputs if out[0] is not None
                  for c in json.loads(out[0][1])["report"]["checks"]]
        params = [l for l in labels if l.startswith(("conjecture family", "curve somos"))]
        rational = [l for l in params if "/" in l]
        return {"pq_share": len(rational) / len(params) if params else 0.0,
                "max_output_bits": None}

    @staticmethod
    def _verify(riopi, seed: int, extra=()) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = riopi.cli.main(["verify", "all", "--seed", str(seed),
                                   "--format", "json", *extra])
        return code, out.getvalue()


class CurveDeep:
    """pipeline(a, N), then b_extract and the production matrix of its g."""

    name = "curve_deep"

    def __init__(self, order: int = 40):
        self.order = order

    def blocks(self, seed: int) -> list[tuple]:
        # Cost follows the sign of a and whether it is an integer (at N = 40
        # a parameter costs 1.8 s for integers a <= 0, 1.1-1.5 s for a > 0
        # and 1.6-2.1 s for p/q), so every block holds one parameter from
        # each of the four kinds.
        rng = random.Random(seed)
        ints = [Fraction(a) for a in range(-6, 7)]
        fracs = _non_integer_rationals(6)
        neg_int = _cycle(rng, [a for a in ints if a < 0])
        pos_int = _cycle(rng, [a for a in ints if a >= 0])
        neg_frac = _cycle(rng, [a for a in fracs if a < 0])
        pos_frac = _cycle(rng, [a for a in fracs if a > 0])
        return [(next(neg_int), next(pos_frac), next(pos_int), next(neg_frac))
                for _ in range(BLOCKS)]

    def warm_up(self, riopi) -> None:
        for a in (Fraction(-3), Fraction(5, 2)):
            CurveDeep(order=16).run_item(riopi, a, lambda kind, fn: fn())

    def run_item(self, riopi, a, job) -> None:
        g = job("pipeline", lambda: riopi.pipeline(a, self.order).g)
        job("b_extract", lambda: riopi.b_extract(g))
        job("production_matrix", lambda: riopi.bell(g).production_matrix())

    def check(self, riopi, a, outputs) -> list[bool]:
        g, b, p = outputs
        n = self.order
        family = riopi.g_family(riopi.family_params_from_curve(a), n)
        closed = riopi.b_from_curve(a, terms=n)
        ok_g = g is not None and g.order == n and g.coeffs == family.coeffs
        ok_b = (b is not None and b.certified == (n - 1) // 2
                and b.values == closed.prefix.values[:b.certified])
        ok_p = p is not None and self._production_ok(riopi, p, closed.prefix.values)
        return [ok_g, ok_b, ok_p]

    def descriptor(self, items, outputs) -> dict:
        bits = 0
        for g, b, p in outputs:
            if g is not None:
                bits = max(bits, _bits(g.coeffs))
            if b is not None:
                bits = max(bits, _bits(b.values))
            if p is not None:
                bits = max(bits, max(_bits(row) for row in p.rows))
        rational = sum(1 for a in items if a.denominator != 1)
        return {"pq_share": rational / len(items), "max_output_bits": bits}

    def _production_ok(self, riopi, p, b_closed) -> bool:
        """P must be lower Hessenberg with first column Z and the other
        columns shifted copies of A, Z = (A - 1)/x, and A the fixed point
        of A = 1 + x*B(x^2/A) for the closed-form B.  That map has a unique
        fixed point with A(0) = 1, the one ``a_from_b`` iterates to; one
        application at order size + 1 stands in for the ~N iterations that
        calling it would cost (12-18 s per parameter at N = 64)."""
        size = self.order - 2
        if p.size != size or any(len(row) != size for row in p.rows):
            return False
        a = [p[i][1] for i in range(size)] + [p[size - 1][0]]
        for i in range(size):
            if p[i][0] != a[i + 1]:
                return False
            for j in range(1, size):
                if p[i][j] != (a[i - j + 1] if i - j + 1 >= 0 else 0):
                    return False
        m = size + 1
        series_a = riopi.Series(a)
        inner = (riopi.Series([0, 0, 1], m) / series_a).truncate(m - 1)
        image = 1 + riopi.Series(b_closed[: m - 1]).compose(inner).shift(1)
        return a[0] == 1 and image.coeffs == series_a.coeffs


class HankelScan:
    """conjecture_family(p, N) over seeded family members, one per job."""

    name = "hankel_scan"

    def __init__(self, order: int = 40):
        self.order = order

    def blocks(self, seed: int) -> list[tuple]:
        # Integer members cost about half as much as p/q members (0.3-0.5 s
        # against 0.55-0.8 s at N = 48).
        # One integer and two p/q members per block put the median job inside
        # the p/q cluster; with equal counts it would sit in the gap between
        # the clusters and move with the slowest integer member of a run.
        rng = random.Random(seed)
        ints = [Fraction(v) for v in range(-3, 4)]
        fracs = _non_integer_rationals(3)
        return [(self._member(rng, ints), self._member(rng, fracs),
                 self._member(rng, fracs)) for _ in range(BLOCKS)]

    def warm_up(self, riopi) -> None:
        for abc in ((1, 2, 1), (Fraction(1, 2), Fraction(-2, 3), Fraction(1, 3))):
            riopi.conjecture_family(riopi.FamilyParams.of(*abc), 24)

    def run_item(self, riopi, abc, job) -> None:
        job("conjecture_family",
            lambda: riopi.conjecture_family(riopi.FamilyParams(*abc), self.order))

    def check(self, riopi, abc, outputs) -> list[bool]:
        report = outputs[0]
        return [report is not None and report.ok and not report.degenerate]

    def descriptor(self, items, outputs) -> dict:
        rational = sum(1 for abc in items if any(v.denominator != 1 for v in abc))
        bits = max((_bits((r.params.alpha, r.params.beta))
                    for (r,) in outputs if r is not None), default=0)
        return {"pq_share": rational / len(items), "max_output_bits": bits}

    @staticmethod
    def _member(rng: random.Random, pool: list) -> tuple:
        while True:
            a, b, c = (rng.choice(pool) for _ in range(3))
            if a * b + c != 0:
                return a, b, c


WORKLOADS = {w.name: w for w in (VerifySuite, CurveDeep, HankelScan)}
