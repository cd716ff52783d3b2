"""Acceptance suite: every criterion is exact integer/rational equality.

Each test prints one PASS/FAIL line; run with -s (or read captured
output) to see them.  Failures list the offending subjects so a genuine
counterexample surfaces as a finding rather than a bare assert.
"""

import random
from fractions import Fraction

from riopi.elliptic import b_from_curve, f_from_curve, pipeline
from riopi.family import (
    FamilyParams,
    binomial,
    companion,
    g_family,
    narayana,
    g_ad,
)
from riopi.hankel import hankel_transform
from riopi.riordan import a_from_g, b_extract, bell, is_pseudo_involution
from riopi.series import Series
from riopi.somos import somos4_check, somos4_fit

from conftest import rand_fraction
from family_oracle import companion_cf, g_family_cf, sum_ab, sum_ab_alt, sum_abc, sum_ad
from riordan_oracle import a_from_b

SEED = 20240815

FAMILY_EXPANSIONS = {
    (1, 0, -1): [1, 1, 1, 2, 4, 7, 13, 26, 52, 104, 212],
    (1, 0, -2): [1, 1, 1, 3, 7, 13, 29, 71, 163, 377, 913],
    (2, 0, -1): [1, 2, 4, 9, 22, 56, 146, 388, 1048, 2869, 7942],
    (1, -1, 0): [1, 1, 1, 2, 4, 8, 17, 37, 82],
    (2, -1, 0): [1, 2, 4, 10, 28, 82, 248, 770, 2440],
    (2, -1, 1): [1, 2, 4, 9, 22, 57, 154, 429, 1223, 3550, 10455],
    (2, -2, 3): [1, 2, 4, 9, 22, 58, 162, 472, 1418, 4357, 13618],
    (-1, 2, 1): [1, -1, 1, 0, -2, 3, 1, -12, 20, 4, -84],
    (-1, -2, -1): [1, -1, 1, -2, 4, -9, 21, -50, 122, -302, 758],
}

GENERAL_HANKELS = {
    ("family", (2, -2, 3)): [1, 0, -1, -1, -2, -3, 5, 28, 67, 411, 506],
    ("family", (-1, 2, 1)): [1, 0, -1, -1, 2, -1, -9, 16, 73, 145, -1442],
    ("family", (-1, -2, -1)): [1, 0, -1, -1, -2, -1, 7, 16, 57, 113, -670],
    ("companion", (-1, 1, 2)): [1, -1, -2, -1, 5, 9, -8, -41, -61, 241],
    ("companion", (-1, -1, -2)): [1, 1, -2, -3, -7, 5, 32, 83, 87, -821],
    ("companion", (1, 2, -1)): [1, -2, 1, 9, -16, -73, -145, 1442, 3951, -49121],
    ("companion", (-1, -2, -1)): [1, 2, 1, -7, -16, -57, -113, 670, 3983, 23647],
    ("curve_g", (-3,)): [1, 0, -1, -1, 4, -19, -83, -1112, 12171],
    ("curve_g", (0,)): [1, 0, -1, -1, 1, -1, -2, 1, 3, 5],
    ("curve_f", (3,)): [1, 1, 2, 1, -7, -16, -57],
    ("curve_f", (-3,)): [1, 1, -4, 19, 83, 1112, -12171],
    ("curve_f", (0,)): [1, 1, -1, 1, 2, -1, -3, -5],
}

SOMOS_FITS = [
    ("family", (2, -2, 3), 2, (1, -2)),
    ("family", (-1, 2, 1), 2, (1, 2)),
    ("family", (-1, -2, -1), 2, (1, -2)),
    ("companion", (-1, 1, 2), 0, (1, 1)),
    ("companion", (1, 2, -1), 0, (1, 2)),
    ("companion", (-1, -2, -1), 0, (1, -2)),
    ("curve_f", (-3,), 0, (1, 4)),
    ("curve_f", (0,), 0, (1, 1)),
]

CURVE_B_TABLE = {
    0: [2, -1, 1, -1, 1, -1],
    1: [1, -1, 0, 0, 0],
    2: [0, -1, -1, -1],
    3: [-1, -1, -2, -4, -8],
    4: [-2, -1, -3, -9, -27],
    5: [-3, -1, -4, -16],
}


def _sequence(kind, params, length):
    if kind == "family":
        return g_family(FamilyParams.of(*params), length).coeffs
    if kind == "companion":
        return companion(FamilyParams.of(*params), length).coeffs
    if kind == "curve_g":
        return pipeline(params[0], length).g.coeffs
    if kind == "curve_f":
        return f_from_curve(params[0], length).coeffs
    raise ValueError(kind)


def _hankel_prefix(kind, params, length):
    return list(hankel_transform(_sequence(kind, params, 2 * length - 1)).values[:length])


def _report(number, name, failures):
    status = "PASS" if not failures else f"FAIL {failures}"
    print(f"ACCEPTANCE {number} {name}: {status}")
    assert not failures, f"criterion {number} ({name}): {failures}"


def test_criterion_1_family_expansions():
    failures = []
    for params, expected in FAMILY_EXPANSIONS.items():
        got = g_family(FamilyParams.of(*params), len(expected)).integers()
        if got != expected:
            failures.append((params, got))
    _report(1, "family expansions", failures)


def test_criterion_2_hankel_transforms():
    failures = []
    for (kind, params), expected in GENERAL_HANKELS.items():
        got = _hankel_prefix(kind, params, len(expected))
        if got != expected:
            failures.append((kind, params, got))
    # A178075 is the negated tail of the (-1,2,1) transform
    tail = _hankel_prefix("family", (-1, 2, 1), 11)[2:]
    if [-v for v in tail] != [1, 1, -2, 1, 9, -16, -73, -145, 1442]:
        failures.append(("A178075 relation", tail))
    # Hankel of the B = a + d*x member at d = 1 (any a: checked at 1 and 2)
    d1_pattern = [1, 0, -1, -1, 0, 1, 1, 0, -1, -1, 0]
    for a in (1, 2):
        got = list(hankel_transform(g_ad(a, 1, 21).coeffs).values)
        if got != d1_pattern:
            failures.append((f"d=1 pattern a={a}", got))
    # c = 0 member at (1, -1): monomial pattern instance
    got = list(hankel_transform(g_family(FamilyParams.of(1, -1, 0), 21).coeffs).values)
    if got != [1, 0, -1, -1, -1, 0, 1, 1, 1, 0, -1]:
        failures.append(("c=0 monomial pattern at (1,-1)", got))
    _report(2, "hankel transforms", failures)


def test_criterion_3_somos_fits():
    failures = []
    for kind, params, offset, expected in SOMOS_FITS:
        printed_length = len(GENERAL_HANKELS[(kind, params)])
        terms = _hankel_prefix(kind, params, printed_length)[offset:]
        try:
            fitted = somos4_fit(terms).params
        except ValueError as exc:
            failures.append((kind, params, str(exc)))
            continue
        if (fitted.alpha, fitted.beta) != tuple(Fraction(v) for v in expected):
            failures.append((kind, params, (fitted.alpha, fitted.beta)))
            continue
        if not somos4_check(terms, fitted).ok:
            failures.append((kind, params, "product form fails in printed range"))
    _report(3, "somos parameter recovery", failures)


def test_criterion_4_curve_pipeline():
    failures = []
    g3 = pipeline(3, 16).g
    if g3.coeffs != g_family(FamilyParams.of(-1, -2, -1), 16).coeffs:
        failures.append("pipeline(3) != g(-1,-2,-1)")
    g2 = pipeline(2, 16).g
    if g2.integers() != [1, 0, 0, -1, 0, -1, 2, -1, 5, -6, 9, -22, 28, -57, 104, -163]:
        failures.append("pipeline(2) printed terms")
    if g2.coeffs != g_family(FamilyParams.of(0, -1, 1), 16).coeffs:
        failures.append("pipeline(2) != g(0,-1,1)")
    gm3 = pipeline(-3, 11).g
    if gm3.integers() != [1, 5, 25, 124, 610, 2979, 14457, 69784, 335330,
                          1605334, 7662014]:
        failures.append("pipeline(-3) printed terms")
    triangle = bell(pipeline(-3, 11).g).triangle(8).integers()
    if triangle != [[1], [5, 1], [25, 10, 1], [124, 75, 15, 1],
                    [610, 498, 150, 20, 1], [2979, 3085, 1247, 250, 25, 1],
                    [14457, 18258, 9300, 2496, 375, 30, 1],
                    [69784, 104580, 64512, 21755, 4370, 525, 35, 1]]:
        failures.append("pipeline(-3) 8x8 triangle")
    prodmat = bell(pipeline(-3, 11).g).production_matrix(7).integers()
    if prodmat != [[5, 1, 0, 0, 0, 0, 0], [0, 5, 1, 0, 0, 0, 0],
                   [-1, 0, 5, 1, 0, 0, 0], [5, -1, 0, 5, 1, 0, 0],
                   [-21, 5, -1, 0, 5, 1, 0], [84, -21, 5, -1, 0, 5, 1],
                   [-326, 84, -21, 5, -1, 0, 5]]:
        failures.append("pipeline(-3) 7x7 production matrix")
    if f_from_curve(0, 15).integers() != [1, 0, 1, -1, 1, -1, 0, 0, 0, -2, 4,
                                          -4, -1, 11, -16]:
        failures.append("f_from_curve(0) printed terms")
    for a, row in CURVE_B_TABLE.items():
        got = b_from_curve(a, terms=len(row)).prefix.values
        if list(got) != row:
            failures.append(f"b table row a={a}")
    _report(4, "curve pipeline end to end", failures)


def test_criterion_5_b_sequence_round_trip():
    rng = random.Random(SEED)
    failures = []
    for _ in range(20):
        a, b, c = (rand_fraction(rng, 3) for _ in range(3))
        g = g_family(FamilyParams.of(a, b, c), 24)
        extracted = b_extract(g)
        expansion = Series([a, -c], 24) / Series([1, b], 24)
        if extracted.values != expansion.coeffs[:extracted.certified]:
            failures.append(("extract", (a, b, c)))
            continue
        recovered_a = a_from_b(expansion, 24)
        if recovered_a.coeffs != a_from_g(g).coeffs:
            failures.append(("a_from_b loop", (a, b, c)))
    _report(5, "b-sequence round trip", failures)


def test_criterion_6_property_suites():
    rng = random.Random(SEED)
    failures = []
    # pseudo-involution matrix-square identity at 8/16/24 for every subject
    subjects = [g_family(FamilyParams.of(*p), 24) for p in FAMILY_EXPANSIONS]
    subjects += [pipeline(a, 24).g for a in (3, 2, -3, 0)]
    for i, g in enumerate(subjects):
        for size in (8, 16, 24):
            if not is_pseudo_involution(g.truncate(size)):
                failures.append(("pseudo-involution", i, size))
    # revert/compose round trips
    x = Series.x(12)
    for _ in range(10):
        f = Series([0, rng.choice([1, -1, 2, Fraction(1, 2)])]
                   + [rand_fraction(rng) for _ in range(10)])
        fbar = f.revert()
        if f.compose(fbar).coeffs != x.coeffs or fbar.compose(f).coeffs != x.coeffs:
            failures.append(("revert round trip", f.coeffs[:4]))
    # continued fractions equal closed forms
    for _ in range(20):
        p = FamilyParams.of(*(rand_fraction(rng, 3) for _ in range(3)))
        if g_family_cf(p, 24).coeffs != g_family(p, 24).coeffs:
            failures.append(("family cf", p))
        if companion_cf(p, 16).coeffs != companion(p, 16).coeffs:
            failures.append(("companion cf", p))
    # sum-formula oracles against series coefficients, n <= 14
    for _ in range(10):
        a, b, c = (rand_fraction(rng, 3) for _ in range(3))
        p = FamilyParams.of(a, b, c)
        gad = g_ad(a, b, 15)   # here b plays d
        gc0 = g_family(FamilyParams.of(a, b, 0), 15)
        gfull = g_family(p, 15)
        for n in range(15):
            if sum_ad(n, a, b) != gad[n]:
                failures.append(("sum_ad", (a, b), n))
            if sum_ab(n, a, b) != gc0[n] or sum_ab_alt(n, a, b) != gc0[n]:
                failures.append(("sum_ab", (a, b), n))
            if sum_abc(n, p) != gfull[n]:
                failures.append(("sum_abc", (a, b, c), n))
    # Narayana diagonal-sum identity for n <= 16
    target = [Fraction(1)] + list(g_family(FamilyParams.of(2, -1, 1), 16).coeffs)
    for n in range(17):
        total = sum(binomial(n - k, j) * narayana(j, k)
                    for k in range(n // 2 + 1) for j in range(k, n - k + 1))
        if total != target[n]:
            failures.append(("narayana diagonal", n))
    _report(6, "property suites", failures)


def test_criterion_7_conjecture_evidence():
    from riopi.somos import conjecture_family
    rng = random.Random(SEED)
    findings = []
    for _ in range(30):
        while True:
            a, b, c = (rng.randint(-3, 3) for _ in range(3))
            if a * b + c != 0:
                break
        report = conjecture_family(FamilyParams.of(a, b, c), 28)
        if not report.ok:
            findings.append(((a, b, c),
                             ("family", report.family.failures),
                             ("companion", report.companion.failures)))
    # a counterexample here would be acceptance-relevant output, not a bug
    _report(7, "somos conjecture evidence (30 seeded trials)", findings)
