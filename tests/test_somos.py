from fractions import Fraction

import pytest

import riopi.family
import riopi.hankel
import riopi.somos
from riopi import knowndata
from riopi.elliptic import curve_somos_check, f_equation, family_params_from_curve
from riopi.family import (SOMOS_OFFSET, FamilyParams, companion, companion_equation, equation,
                          g_family)
from riopi.hankel import hankel_transform
from riopi.series import Series, rational
from riopi.somos import (
    ConjectureReport,
    SomosReport,
    NoSomosFit,
    SomosParams,
    Underdetermined,
    _check_ints,
    conjecture_family,
    family_somos_params,
    somos4_check,
    somos4_fit,
)

from conftest import rand_fraction


def fraction_check(terms, params):
    """The product form over Fraction, as a test oracle for somos4_check."""
    t = [rational(v) for v in terms]
    failures = tuple([
        n for n in range(4, len(t))
        if t[n] * t[n - 4] != params.alpha * t[n - 1] * t[n - 3] + params.beta * t[n - 2] ** 2
    ])
    return SomosReport(params=params, start=4, end=len(t) - 1,
                       failures=failures, degenerate=params.degenerate)


def random_rational(rng):
    """Zero, a small term, or one with a large numerator and denominator."""
    kind = rng.randrange(4)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
    return Fraction(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 25))


def near_somos(rng, params, length):
    """Terms that follow params wherever t[n-4] is nonzero, some corrupted."""
    t = [random_rational(rng) for _ in range(4)]
    while len(t) < length:
        n = len(t)
        if t[n - 4] and rng.randrange(5):
            t.append((params.alpha * t[n - 1] * t[n - 3] + params.beta * t[n - 2] ** 2)
                     / t[n - 4])
        else:
            t.append(random_rational(rng))
    return t


class TestIntegerCheck:
    """somos4_check cross-multiplies ints; the Fraction form is the oracle."""

    def test_matches_fraction_oracle(self, rng):
        passed = failed = 0
        for _ in range(300):
            params = SomosParams(*(rng.choice((Fraction(0), random_rational(rng)))
                                   for _ in range(2)))
            terms = near_somos(rng, params, rng.randint(5, 14))
            if rng.randrange(2):
                terms = [-t for t in terms]
            report = somos4_check(terms, params)
            assert report == fraction_check(terms, params), (terms, params)
            failed += len(report.failures)
            passed += report.end - report.start + 1 - len(report.failures)
        assert passed >= 1000 and failed >= 200

    def test_zero_alpha_and_beta(self, rng):
        for alpha, beta in ((0, 3), (Fraction(-5, 7), 0), (0, 0)):
            params = SomosParams(Fraction(alpha), Fraction(beta))
            for _ in range(20):
                terms = near_somos(rng, params, 10)
                assert somos4_check(terms, params) == fraction_check(terms, params)

    def test_int_kernel_matches_the_fraction_check(self, rng):
        # _check_ints on int pairs p[n]/q[n] with any q[n] > 0 (here scaled
        # out of lowest terms) reports what somos4_check and the Fraction
        # oracle report on the Fractions, before and after one term moves
        moved = 0
        for i in range(300):
            params = SomosParams(*(rng.choice((Fraction(0), random_rational(rng)))
                                   for _ in range(2)))
            if i % 10 == 0:
                params = SomosParams(Fraction(0), params.beta)
            elif i % 10 == 1:
                params = SomosParams(params.alpha, Fraction(0))
            terms = near_somos(rng, params, rng.randint(5, 14))
            if rng.randrange(2):
                terms = [-t for t in terms]
            reports = []
            for _ in range(2):
                scale = [rng.randint(1, 9) for _ in terms]
                got = _check_ints([t.numerator * m for t, m in zip(terms, scale)],
                                  [t.denominator * m for t, m in zip(terms, scale)], params)
                assert got == somos4_check(terms, params) == fraction_check(terms, params), \
                    (terms, params)
                reports.append(got)
                n = rng.randrange(len(terms))
                terms[n] += rng.choice((1, Fraction(-1, 3), terms[n] or 1))
            moved += reports[0].failures != reports[1].failures
        assert moved >= 100

    def test_fit_params_unchanged_on_verify_subjects(self, monkeypatch):
        # the embedded Somos claims: the fit equals the claim, and equals the
        # fit made with the Fraction oracle as its check
        sources = knowndata.build_sources(knowndata.KNOWN_SEQUENCES)
        reports = []
        for entry in knowndata.KNOWN_SEQUENCES:
            if entry.somos is None:
                continue
            values = knowndata.computed_values(entry, sources)
            terms = list(map(Fraction, *knowndata.somos_terms(entry, values)))
            report = somos4_fit(terms)
            assert report.params == SomosParams(*map(Fraction, entry.somos)), entry.label
            reports.append((terms, report))
        assert len(reports) == 13
        monkeypatch.setattr(riopi.somos, "somos4_check", fraction_check)
        for terms, report in reports:
            assert somos4_fit(terms) == report


class TestCheck:
    def test_printed_example(self):
        report = somos4_check([-1, -1, -2, -3, 5, 28, 67, 411, 506],
                              SomosParams(Fraction(1), Fraction(-2)))
        assert report.ok
        assert report.start == 4 and report.end == 8
        assert report.failures == ()

    def test_constant_sequence(self):
        report = somos4_check([1] * 8, SomosParams(Fraction(1), Fraction(0)))
        assert report.ok and report.degenerate

    def test_curve_hankel_tail(self):
        # (1, 4) holds on the curve-derived transform, zeros included
        from riopi.elliptic import f_from_curve
        values = hankel_transform(f_from_curve(-3, 16).coeffs).values
        report = somos4_check(values, SomosParams(Fraction(1), Fraction(4)))
        assert report.ok

    def test_failure_is_reported_not_raised(self):
        report = somos4_check([1, 1, 1, 1, 5, 1], SomosParams(Fraction(1), Fraction(0)))
        assert not report.ok
        assert report.failures == (4, 5)

    def test_needs_five_terms(self):
        with pytest.raises(ValueError):
            somos4_check([1, 1, 1, 1], SomosParams(Fraction(1), Fraction(0)))

    def test_sign_flip_invariance(self):
        terms = [1, 1, -4, 19, 83, 1112, -12171]
        params = SomosParams(Fraction(1), Fraction(4))
        flipped = [-t for t in terms]
        assert somos4_check(terms, params).ok
        assert somos4_check(flipped, params).ok

    def test_scaling_invariance(self):
        terms = [-1, -1, -2, -3, 5, 28, 67, 411, 506]
        params = SomosParams(Fraction(1), Fraction(-2))
        lam = Fraction(3, 7)
        scaled = [lam * t for t in terms]
        assert somos4_check(scaled, params).ok


class TestFit:
    def test_family_tail(self):
        h = hankel_transform(g_family(FamilyParams.of(2, -2, 3), 21).coeffs)
        assert somos4_fit(h.values[2:]).params == SomosParams(Fraction(1), Fraction(-2))

    def test_second_family_tail(self):
        h = hankel_transform(g_family(FamilyParams.of(-1, 2, 1), 21).coeffs)
        assert somos4_fit(h.values[2:]).params == SomosParams(Fraction(1), Fraction(2))

    def test_underdetermined(self):
        with pytest.raises(Underdetermined):
            somos4_fit([1, 1, 1, 1, 1, 1])

    def test_no_global_fit(self):
        # locally consistent rows, corrupted far tail
        terms = [-1, -1, -2, -3, 5, 28, 67, 411, 999]
        with pytest.raises(NoSomosFit):
            somos4_fit(terms)

    def test_round_trip(self):
        terms = [-1, -1, -2, -3, 5, 28, 67, 411, 506]
        params = somos4_fit(terms).params
        assert somos4_check(terms, params).ok

    def test_needs_six_terms(self):
        with pytest.raises(ValueError):
            somos4_fit([1, 2, 3, 4, 5])


class TestConjecture:
    def test_reference_case(self):
        report = conjecture_family(FamilyParams.of(2, -2, 3), 28)
        assert report.ok
        assert report.params == SomosParams(Fraction(1), Fraction(-2))
        assert not report.degenerate

    def test_companion_case(self):
        report = conjecture_family(FamilyParams.of(-1, 1, 2), 24)
        assert report.ok
        assert report.params == SomosParams(Fraction(1), Fraction(1))
        comp = hankel_transform(companion(FamilyParams.of(-1, 1, 2), 21).coeffs)
        assert list(comp.values)[:10] == [1, -1, -2, -1, 5, 9, -8, -41, -61, 241]

    def test_family_tail_starts_at_the_somos_offset(self):
        # one offset for the family's Somos-4 tail: the printed transforms
        # start at index 2, and conjecture_family and the family, ad and
        # curve kinds all read it from riopi.family
        assert SOMOS_OFFSET == 2
        for kind in ("family", "ad", "curve"):
            assert knowndata.GENERATORS[kind].somos_offset == SOMOS_OFFSET
        for abc in ((2, -2, 3), (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 3))):
            p = FamilyParams.of(*abc)
            report = conjecture_family(p, 24)
            values = hankel_transform(g_family(p, 24)).values
            assert report.family == somos4_check(values[2:], report.params)
            assert report.family.end == len(values) - 3

    def test_degenerate_case(self):
        report = conjecture_family(FamilyParams.of(0, 0, 0), 24)
        assert report.degenerate
        assert report.params == SomosParams(Fraction(0), Fraction(0))
        assert report.ok  # all-zero tails satisfy the product form trivially

    def test_b_zero_is_not_degenerate(self):
        # the report's flag means ab + c = 0 only; b = 0 zeroes beta, which
        # the Somos parameters' own flag counts as degenerate
        report = conjecture_family(FamilyParams.of(1, 0, 1), 24)
        assert report.params == SomosParams(Fraction(1), Fraction(0))
        assert report.params.degenerate and report.family.degenerate
        assert not report.degenerate
        assert report.ok

    def test_equals_the_bareiss_route(self, rng, monkeypatch):
        # the report read off the quadratics equals the one built from the
        # expanded g and companion by Bareiss, on integer and p/q members
        def bareiss_report(p, order):
            params = family_somos_params(p)
            fam = hankel_transform(g_family(p, order)).values[SOMOS_OFFSET:]
            comp = hankel_transform(companion(p, order)).values
            return ConjectureReport(params=params, family=somos4_check(fam, params),
                                    companion=somos4_check(comp, params),
                                    degenerate=p.somos_weight == 0)

        members = []
        for i in range(200):
            draw = (lambda: Fraction(rng.randint(-3, 3))) if i % 2 else (
                lambda: rand_fraction(rng, span=6, dens=(1, 2, 3, 5)))
            members.append(FamilyParams(draw(), draw(), draw()))
        want = {(p, order): bareiss_report(p, order)
                for p in members for order in (24, 28, 40)}

        def forbidden(*args):
            raise AssertionError("conjecture_family expanded a series or ran Bareiss")
        for owner, name in ((riopi.hankel, "_hankel_values"), (riopi.family, "g_family"),
                            (riopi.family, "companion"), (Series, "__init__"),
                            (Series, "_raw")):
            monkeypatch.setattr(owner, name, forbidden)
        for (p, order), report in want.items():
            assert conjecture_family(p, order) == report, (p, order)

    def test_reports_equal_the_fraction_check(self, rng):
        # conjecture_family and curve_somos_check pass the transforms' int
        # pairs to the kernel; somos4_check of the transforms' Fraction
        # values gives the same reports
        for i in range(200):
            order = rng.randint(13, 64)
            if i % 4 == 3:
                a = rand_fraction(rng, span=9, dens=(1, 2, 3, 7))
                want = somos4_check(hankel_transform(f_equation(a), order).values,
                                    family_somos_params(family_params_from_curve(a)))
                assert curve_somos_check(a, order) == want, (a, order)
                continue
            draw = (lambda: Fraction(rng.randint(-4, 4))) if i % 2 else (
                lambda: rand_fraction(rng, span=6, dens=(1, 2, 3, 5)))
            p = FamilyParams(draw(), Fraction(0) if i % 8 == 0 else draw(), draw())
            params = family_somos_params(p)
            want = ConjectureReport(
                params=params,
                family=somos4_check(hankel_transform(equation(p), order).values[SOMOS_OFFSET:],
                                    params),
                companion=somos4_check(hankel_transform(companion_equation(p), order).values,
                                       params),
                degenerate=p.somos_weight == 0)
            assert conjecture_family(p, order) == want, (p, order)

    def test_short_orders_raise(self):
        # the family's tail from SOMOS_OFFSET has 5 values from order 13 on,
        # and curve f's transform from order 9 on
        p = FamilyParams.of(2, -2, 3)
        assert conjecture_family(p, 13).family.end == 4
        assert curve_somos_check(-3, 9).end == 4
        for check, order in ((lambda n: conjecture_family(p, n), 12),
                             (lambda n: curve_somos_check(-3, n), 8)):
            for n in range(1, order + 1):
                with pytest.raises(ValueError, match="need at least 5 terms"):
                    check(n)

    def test_random_small_integer_sweep(self, rng):
        # empirical support: a counterexample would be a finding, so surface
        # the offending parameters in the assertion message
        failures = []
        for _ in range(30):
            while True:
                a, b, c = (rng.randint(-3, 3) for _ in range(3))
                if a * b + c != 0:
                    break
            report = conjecture_family(FamilyParams.of(a, b, c), 28)
            if not report.ok:
                failures.append(((a, b, c),
                                 report.family.failures, report.companion.failures))
        assert not failures, f"somos conjecture counterexamples: {failures}"
