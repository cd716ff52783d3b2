"""Compact exact storage: a Series, a BSequence and a ProductionMatrix keep
int numerators over one denominator and build Fractions only when read.
A retained result then costs ints, not Fractions, which is what a caller
that keeps many results (a benchmark loop) pays in memory."""

import gc
from fractions import Fraction

import pytest

from riopi.elliptic import f_from_curve, pipeline
from riopi.riordan import b_extract, bell, is_pseudo_involution
from riopi.series import Series


def stored(obj) -> list:
    """Every object reachable from ``obj`` through its stored attributes and
    containers (classes, and everything they reach, left out)."""
    seen, stack, out = set(), [obj], []
    while stack:
        o = stack.pop()
        if id(o) in seen or isinstance(o, type):
            continue
        seen.add(id(o))
        out.append(o)
        stack.extend(gc.get_referents(o))
    return out


@pytest.mark.parametrize("a", [Fraction(-3), Fraction(-11, 2)])
def test_curve_results_store_no_fractions(a):
    g = pipeline(a, 40).g
    b = b_extract(g)
    p = bell(g).production_matrix()
    assert (g.order, b.certified, p.size) == (40, 19, 38)
    for result in (g, b, p):
        kinds = {type(o) for o in stored(result)} - {type(result)}
        assert kinds <= {tuple, int, type(None)}, (result, kinds)
    # the read-off matrix reads Z as A's tail: one tuple of terms
    assert sum(type(o) is tuple for o in gc.get_referents(p)) == 1


@pytest.mark.parametrize("route, g", [("a_and_z", f_from_curve(Fraction(-11, 2), 40)),
                                      ("walk", pipeline(-3, 8).g)])
def test_every_route_stores_one_tuple_of_ints(route, g):
    # curvef is no pseudo-involution and takes a_and_z; a g of order 8 is
    # too short for the rational-B certificate and takes the walk's 1/g(-x)
    assert is_pseudo_involution(g) == (route == "walk")
    p = bell(g).production_matrix()
    assert p.size == g.order - 2
    assert {type(o) for o in stored(p)} - {type(p)} <= {tuple, int}
    assert sum(type(o) is tuple for o in gc.get_referents(p)) == 1


@pytest.mark.parametrize("a", [Fraction(-3), Fraction(-11, 2)])
def test_reads_build_fresh_fractions(a):
    g = pipeline(a, 40).g
    b = b_extract(g)
    p = bell(g).production_matrix()
    for read in (lambda: g.coeffs, lambda: tuple(g), lambda: b.values,
                 lambda: p.z, lambda: p.a, lambda: p.rows[-1]):
        first, second = read(), read()
        assert first == second and first is not second
        assert all(type(c) is Fraction for c in first)
        assert not any(u is v for u, v in zip(first, second))
    assert g[5] == g.coeffs[5] and g[5] is not g[5]


def test_equal_values_have_equal_fields():
    # lowest terms: one field pair per value, whatever route built it
    s = Series([Fraction(1, 2), Fraction(1, 3), 0])
    t = Series([Fraction(3, 2), 1, Fraction(1, 4)]) - Series([1, Fraction(2, 3), Fraction(1, 4)])
    assert s == t
    assert (Series([1, Fraction(1, 2)]).truncate(1), Series([2, 4]) / 2) == \
        (Series.one(1), Series([1, 2]))
    assert Series([Fraction(2, 4), Fraction(-6, 8)]).coeffs == (Fraction(1, 2), Fraction(-3, 4))
