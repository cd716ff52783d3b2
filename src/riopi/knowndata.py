"""Embedded golden data: printed sequence prefixes, matrix fragments,
table rows and Somos parameter claims, keyed by OEIS tag where one exists.

Prefixes are stored verbatim as printed; nothing here is fetched from
the network.  Every check of ``verify paper`` is a row of
``KNOWN_SEQUENCES`` or a row's Somos-4 claim: a row holds a prefix, or a
matrix fragment or printed table flattened row by row.  Each row names a
kind of ``GENERATORS``, the one table of kinds, parameter counts, Somos
offsets and builds.  Most kinds are series the library builds (a family member,
its companion, a curve's g, f or branch, Catalan); the CLI's subjects
are those with a Somos offset.  Three are formula kinds for the paper's
printed tables, read as one flattened sequence: ``narayana`` and
``binomial_narayana`` (the Narayana triangle and its product with the
binomial triangle, row by row, from ``family.narayana``) and ``curve_b``
(the expansion of a curve's closed-form B-sequence, ``b_from_curve``).
``verify`` builds each source the entries read once (``build_sources``):
a (kind, params) series, or for the Hankel entries the transform of that
kind's equation.  It recomputes every entry from its source and diffs
exactly, which makes this table the regression corpus for the package.
The diff runs on ints: ``computed_values`` reads each value as an int
pair nums[i]/dens[i] off the ints its source holds (a series' numerators
over its denominator, a transform's pairs, a matrix's int rows), and a
row passes when nums[i] == prefix[i]*dens[i] for every i; its Somos
claim goes to the int kernel ``somos._check_ints`` as those pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice
from math import isqrt
from typing import Callable, NamedTuple, Sequence

from . import elliptic, family, series
from .family import FamilyParams, _binomial_ints
from .hankel import HankelTransform, hankel_transform
from .riordan import bell
from .series import Quadratic, Series, rational


@dataclass(frozen=True)
class KnownSequence:
    label: str            # OEIS tag or a descriptive name
    kind: str             # a GENERATORS kind
    params: tuple[str, ...]
    # ""|hankel|hankel_tail_neg|binomial_inverse|diff|prepend:v,v, or the Bell
    # array's triangle|prodmat (production matrix), rows flattened into prefix
    transform: str
    prefix: tuple[int, ...]
    somos: tuple[int, int] | None = None  # (alpha, beta) on somos_terms


KNOWN_SEQUENCES: tuple[KnownSequence, ...] = (
    KnownSequence("A000108", "catalan", (), "",
                  (1, 1, 2, 5, 14, 42)),
    KnownSequence("A023431", "ad", ("1", "1"), "",
                  (1, 1, 1, 2, 4, 7, 13, 26, 52, 104, 212)),
    KnownSequence("A091565", "ad", ("1", "2"), "",
                  (1, 1, 1, 3, 7, 13, 29, 71, 163, 377, 913)),
    KnownSequence("A091561", "ad", ("2", "1"), "",
                  (1, 2, 4, 9, 22, 56, 146, 388, 1048, 2869, 7942)),
    KnownSequence("A152225", "ad", ("2", "1"), "prepend:1",
                  (1, 1, 2, 4, 9, 22, 56, 146, 388, 1048, 2869, 7942)),
    KnownSequence("hankel(ad(1,1))", "ad", ("1", "1"), "hankel",
                  (1, 0, -1, -1, 0, 1, 1, 0, -1, -1, 0)),
    KnownSequence("A004148", "family", ("1", "-1", "0"), "",
                  (1, 1, 1, 2, 4, 8, 17, 37, 82)),
    KnownSequence("A187256", "family", ("2", "-1", "0"), "",
                  (1, 2, 4, 10, 28, 82, 248, 770, 2440)),
    KnownSequence("A105633", "family", ("2", "-1", "1"), "",
                  (1, 2, 4, 9, 22, 57, 154, 429, 1223, 3550, 10455)),
    KnownSequence("A105633+1", "family", ("2", "-1", "1"), "prepend:1",
                  (1, 1, 2, 4, 9, 22, 57, 154, 429, 1223, 3550, 10455)),
    KnownSequence("A007477", "family", ("2", "-1", "1"), "binomial_inverse",
                  (1, 1, 1, 2, 3, 6, 11, 22, 44, 90, 187, 392)),
    KnownSequence("g(2,-2,3)", "family", ("2", "-2", "3"), "",
                  (1, 2, 4, 9, 22, 58, 162, 472, 1418, 4357, 13618)),
    KnownSequence("hankel(g(2,-2,3))", "family", ("2", "-2", "3"), "hankel",
                  (1, 0, -1, -1, -2, -3, 5, 28, 67, 411, 506), somos=(1, -2)),
    KnownSequence("g(-1,2,1)", "family", ("-1", "2", "1"), "",
                  (1, -1, 1, 0, -2, 3, 1, -12, 20, 4, -84)),
    KnownSequence("hankel(g(-1,2,1))", "family", ("-1", "2", "1"), "hankel",
                  (1, 0, -1, -1, 2, -1, -9, 16, 73, 145, -1442), somos=(1, 2)),
    KnownSequence("A178075", "family", ("-1", "2", "1"), "hankel_tail_neg",
                  (1, 1, -2, 1, 9, -16, -73, -145, 1442), somos=(1, 2)),
    KnownSequence("g(-1,-2,-1)", "family", ("-1", "-2", "-1"), "",
                  (1, -1, 1, -2, 4, -9, 21, -50, 122, -302, 758)),
    KnownSequence("hankel(g(-1,-2,-1))", "family", ("-1", "-2", "-1"), "hankel",
                  (1, 0, -1, -1, -2, -1, 7, 16, 57, 113, -670), somos=(1, -2)),
    KnownSequence("curve-f(3)", "curvef", ("3",), "",
                  (1, 0, 1, -1, 4, -10, 30, -84, 237, -653, 1771, -4699, 12173, -30625)),
    KnownSequence("hankel(curve-f(3))", "curvef", ("3",), "hankel",
                  (1, 1, 2, 1, -7, -16, -57), somos=(1, -2)),
    KnownSequence("curve-branch(3)", "curve_branch", ("3",), "",
                  (0, 1, -2, 1, 3, -7)),
    KnownSequence("curve-branch(2)", "curve_branch", ("2",), "",
                  (0, 1, -1, -1, 1)),
    KnownSequence("curve-g(2)", "curve", ("2",), "",
                  (1, 0, 0, -1, 0, -1, 2, -1, 5, -6, 9, -22, 28, -57, 104, -163)),
    KnownSequence("hankel(curve-g(2))", "curve", ("2",), "hankel",
                  (1, 0, -1, -1, -1, 1, 2, 3, 1, -7, -11), somos=(1, -1)),
    KnownSequence("A050512", "curve", ("2",), "hankel_tail_neg",
                  (1, 1, 1, -1, -2, -3, -1, 7, 11), somos=(1, -1)),
    KnownSequence("A025273-related", "curve", ("2",), "binomial_inverse",
                  (1, -1, 1, -2, 5, -12, 29, -72, 182, -466, 1207)),
    KnownSequence("A025250-signed", "curve", ("2",), "diff",
                  (1, -1, 0, -1, 1, -1, 3, -3, 6, -11, 15, -31)),
    KnownSequence("A025258-related", "companion", ("-1", "1", "2"), "",
                  (1, 1, 0, 0, 2, 3, 1, 2, 11, 17, 12)),
    KnownSequence("hankel(companion(-1,1,2))", "companion", ("-1", "1", "2"), "hankel",
                  (1, -1, -2, -1, 5, 9, -8, -41, -61, 241), somos=(1, 1)),
    KnownSequence("companion(-1,-1,-2)", "companion", ("-1", "-1", "-2"), "",
                  (1, 1, 2, 2, 2, -1, -7, -20, -37, -53, -40, 49, 301)),
    KnownSequence("hankel(companion(-1,-1,-2))", "companion", ("-1", "-1", "-2"), "hankel",
                  (1, 1, -2, -3, -7, 5, 32, 83, 87, -821), somos=(1, -1)),
    KnownSequence("companion(1,2,-1)", "companion", ("1", "2", "-1"), "",
                  (1, -1, -1, 4, -4, -5, 23, -28, -28, 164, -232, -166)),
    KnownSequence("hankel(companion(1,2,-1))", "companion", ("1", "2", "-1"), "hankel",
                  (1, -2, 1, 9, -16, -73, -145, 1442, 3951, -49121), somos=(1, 2)),
    KnownSequence("companion(-1,-2,-1)", "companion", ("-1", "-2", "-1"), "",
                  (1, 1, 3, 6, 14, 33, 79, 194, 482, 1214, 3090, 7936, 20544)),
    KnownSequence("hankel(companion(-1,-2,-1))", "companion", ("-1", "-2", "-1"), "hankel",
                  (1, 2, 1, -7, -16, -57, -113, 670, 3983, 23647), somos=(1, -2)),
    KnownSequence("A025243-related", "companion", ("-1", "-2", "-1"), "prepend:1,2",
                  (1, 2, 1, 1, 3, 6, 14, 33, 79, 194, 482, 1214, 3090, 7936, 20544)),
    KnownSequence("curve-g(-3)", "curve", ("-3",), "",
                  (1, 5, 25, 124, 610, 2979, 14457, 69784, 335330, 1605334, 7662014)),
    KnownSequence("hankel(curve-g(-3))", "curve", ("-3",), "hankel",
                  (1, 0, -1, -1, 4, -19, -83, -1112, 12171)),
    KnownSequence("somos(1,4)-curve(-3)", "curvef", ("-3",), "hankel",
                  (1, 1, -4, 19, 83, 1112, -12171), somos=(1, 4)),
    KnownSequence("curve-g(0)", "curve", ("0",), "",
                  (1, 2, 4, 7, 10, 9, -6, -53, -151, -284, -301, 278, 2482, 7717)),
    KnownSequence("hankel(curve-g(0))", "curve", ("0",), "hankel",
                  (1, 0, -1, -1, 1, -1, -2, 1, 3, 5)),
    KnownSequence("A006769", "curvef", ("0",), "hankel",
                  (1, 1, -1, 1, 2, -1, -3, -5), somos=(1, 1)),
    KnownSequence("curve-f(0)", "curvef", ("0",), "",
                  (1, 0, 1, -1, 1, -1, 0, 0, 0, -2, 4, -4, -1, 11, -16)),
    # printed matrix fragments of curve(-3)'s Bell array, row by row
    KnownSequence("triangle curve(-3) 8x8", "curve", ("-3",), "triangle", (
        1,
        5, 1,
        25, 10, 1,
        124, 75, 15, 1,
        610, 498, 150, 20, 1,
        2979, 3085, 1247, 250, 25, 1,
        14457, 18258, 9300, 2496, 375, 30, 1,
        69784, 104580, 64512, 21755, 4370, 525, 35, 1)),
    KnownSequence("production matrix curve(-3) 7x7", "curve", ("-3",), "prodmat", (
        5, 1, 0, 0, 0, 0, 0,
        0, 5, 1, 0, 0, 0, 0,
        -1, 0, 5, 1, 0, 0, 0,
        5, -1, 0, 5, 1, 0, 0,
        -21, 5, -1, 0, 5, 1, 0,
        84, -21, 5, -1, 0, 5, 1,
        -326, 84, -21, 5, -1, 0, 5)),
    KnownSequence("narayana triangle rows", "narayana", (), "", (
        1,
        0, 1,
        0, 1, 1,
        0, 1, 3, 1,
        0, 1, 6, 6, 1,
        0, 1, 10, 20, 10, 1,
        0, 1, 15, 50, 50, 15, 1)),
    # the binomial triangle times the Narayana triangle, row by row; its
    # diagonal sums reproduce A105633 with a prepended 1
    KnownSequence("binomial*narayana product rows", "binomial_narayana", (), "", (
        1,
        1, 1,
        1, 3, 1,
        1, 7, 6, 1,
        1, 15, 24, 10, 1,
        1, 31, 80, 60, 15, 1,
        1, 63, 240, 280, 125, 21, 1)),
    # b_n rows of the curve table for a = 0..5, lengths as printed
    KnownSequence("curve b-table a=0", "curve_b", ("0",), "", (2, -1, 1, -1, 1, -1)),
    KnownSequence("curve b-table a=1", "curve_b", ("1",), "", (1, -1, 0, 0, 0)),
    KnownSequence("curve b-table a=2", "curve_b", ("2",), "", (0, -1, -1, -1)),
    KnownSequence("curve b-table a=3", "curve_b", ("3",), "", (-1, -1, -2, -4, -8)),
    KnownSequence("curve b-table a=4", "curve_b", ("4",), "", (-2, -1, -3, -9, -27)),
    KnownSequence("curve b-table a=5", "curve_b", ("5",), "", (-3, -1, -4, -16)),
)


def _triangle(cell: Callable[[int, int], int], n: int) -> Series:
    """The first n entries of the int triangle cell(r, k), 0 <= k <= r,
    read row by row."""
    return Series._raw(tuple(islice((cell(r, k) for r in count() for k in range(r + 1)), n)), 1)


def _binomial_narayana(n: int, k: int) -> int:
    return sum(family.binomial(n, j) * family.narayana(j, k) for j in range(k, n + 1))


class Generator(NamedTuple):
    arity: int
    somos_offset: int | None  # start of the printed Somos-4 tail in the Hankel transform
    build: Callable[[tuple, int], Series]
    # the quadratic whose root build expands, where the kind has one: its
    # Hankel transform is read off that (``hankel_transform``)
    equation: Callable[[tuple], Quadratic] | None = None


# The generator kinds; the CLI's subjects are those with a Somos offset,
# and each of them has an equation.  Each build and equation looks its
# function up at call time, so a patched module sees it.
GENERATORS = {
    "catalan": Generator(0, None, lambda p, n: series.catalan(n)),
    "family": Generator(3, family.SOMOS_OFFSET,
                        lambda p, n: family.g_family(FamilyParams.of(*p), n),
                        lambda p: family.equation(FamilyParams.of(*p))),
    "ad": Generator(2, family.SOMOS_OFFSET, lambda p, n: family.g_ad(*p, n),
                    lambda p: family.equation(FamilyParams.from_ad(*p))),
    "companion": Generator(3, 0, lambda p, n: family.companion(FamilyParams.of(*p), n),
                           lambda p: family.companion_equation(FamilyParams.of(*p))),
    # a curve's g: pipeline builds the member family_params_from_curve names
    # and certifies it once
    "curve": Generator(1, family.SOMOS_OFFSET, lambda p, n: elliptic.pipeline(*p, n).g,
                       lambda p: family.equation(elliptic.family_params_from_curve(*p))),
    "curvef": Generator(1, 0, lambda p, n: elliptic.f_from_curve(*p, n),
                        lambda p: elliptic.f_equation(*p)),
    "curve_branch": Generator(1, None, lambda p, n: elliptic.curve_branch(*p, n)),
    # the printed tables: two triangles flattened row by row, and a curve's B-sequence
    "narayana": Generator(0, None, lambda p, n: _triangle(family.narayana, n)),
    "binomial_narayana": Generator(0, None, lambda p, n: _triangle(_binomial_narayana, n)),
    "curve_b": Generator(1, None, lambda p, n: Series(
        elliptic.b_from_curve(*p, terms=n).prefix.values)),
}


_HANKEL = ("hankel", "hankel_tail_neg")


def source_length(entry: KnownSequence) -> int:
    """How many terms of its generator's series an entry reads: for a
    Hankel entry, the order of the transform it reads."""
    want = len(entry.prefix)
    if entry.transform == "hankel":
        return 2 * want - 1
    if entry.transform == "hankel_tail_neg":
        return 2 * (want + GENERATORS[entry.kind].somos_offset) - 1
    if entry.transform == "triangle":  # n rows hold n(n + 1)/2 entries
        return isqrt(2 * want)
    if entry.transform == "prodmat":  # an m x m matrix reads m + 1 terms
        return isqrt(want) + 1
    if entry.transform.startswith("prepend:"):
        return want - entry.transform.count(",") - 1
    return want


def _source_key(entry: KnownSequence) -> tuple[str, tuple[str, ...], bool]:
    """What an entry reads: its kind's series at its params, or for a
    Hankel entry (True) the transform of its kind's equation."""
    return entry.kind, entry.params, entry.transform in _HANKEL


def build_sources(entries) -> dict[tuple[str, tuple[str, ...], bool], Series | HankelTransform]:
    """Build each source ``entries`` read (``_source_key``) once, at the
    longest prefix or order any of them reads: a (kind, params) series, or
    the Hankel transform of that kind's equation."""
    lengths: dict[tuple[str, tuple[str, ...], bool], int] = {}
    for entry in entries:
        key = _source_key(entry)
        lengths[key] = max(lengths.get(key, 0), source_length(entry))
    return {(kind, params, hankel): (
        hankel_transform(GENERATORS[kind].equation(params), n) if hankel
        else GENERATORS[kind].build(params, n))
        for (kind, params, hankel), n in lengths.items()}


def computed_values(entry: KnownSequence, sources) -> tuple[Sequence[int], Sequence[int]]:
    """Recompute the values an entry's prefix claims, same length, from
    its source in ``sources`` (see ``build_sources``), as int pairs
    (nums, dens): value i is nums[i]/dens[i], dens[i] > 0, read off the
    ints the source holds and not brought to lowest terms."""
    want, n = len(entry.prefix), source_length(entry)
    transform = entry.transform
    source = sources[_source_key(entry)]
    if transform == "hankel":
        return source.nums[:want], source.dens[:want]
    if transform == "hankel_tail_neg":
        offset = GENERATORS[entry.kind].somos_offset
        return ([-v for v in source.nums[offset:offset + want]],
                source.dens[offset:offset + want])
    if transform == "triangle":
        t = bell(source).triangle(n)
        nums, den = [v for row in t._rows for v in row], t._den
    elif transform == "prodmat":
        p = bell(source).production_matrix(n - 1)
        nums, den = [v for row in p._int_rows() for v in row], p._a_den
    else:
        nums, den = source._nums[:n], source._den
        if transform == "binomial_inverse":
            return _binomial_ints(nums, den, -1, 1)
        if transform == "diff":
            nums = nums[:1] + tuple([b - a for a, b in zip(nums, nums[1:])])
        elif transform.startswith("prepend:"):
            head = [rational(v) for v in transform[len("prepend:"):].split(",")]
            return ([v.numerator for v in head] + list(nums),
                    [v.denominator for v in head] + [den] * len(nums))
        elif transform:
            raise ValueError(f"unknown transform {entry.transform!r}")
    return nums, [den] * len(nums)


def somos_terms(entry: KnownSequence, values):
    """The computed (nums, dens) pairs an entry's Somos claim covers: a
    ``hankel`` entry's from its kind's offset, a ``hankel_tail_neg``
    entry's whole."""
    if entry.transform == "hankel":
        offset = GENERATORS[entry.kind].somos_offset
        return values[0][offset:], values[1][offset:]
    return values
