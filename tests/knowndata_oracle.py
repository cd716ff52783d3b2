"""The golden table's values recomputed as Fractions, as a test oracle.

``riopi.knowndata.computed_values`` reads each entry's values as int
pairs off the ints its source holds.  ``fraction_values`` is the route
it replaced: every value a ``Fraction``, the matrices through their
Fraction ``rows`` and the inverse binomial transform through the public
``binomial_transform``.
"""

from fractions import Fraction

from riopi.family import binomial_transform
from riopi.knowndata import _HANKEL, GENERATORS, _source_key, source_length
from riopi.riordan import bell
from riopi.series import rational


def fraction_values(entry, sources) -> list[Fraction]:
    """The values an entry's prefix claims, same length, as Fractions,
    from its source in ``sources`` (``knowndata.build_sources``)."""
    want, n = len(entry.prefix), source_length(entry)
    transform = entry.transform
    if transform in _HANKEL:
        values = sources[_source_key(entry)].values
        if transform == "hankel":
            return list(values[:want])
        offset = GENERATORS[entry.kind].somos_offset
        return [-v for v in values[offset:offset + want]]
    g = sources[_source_key(entry)]
    if transform == "triangle":
        return [v for row in bell(g).triangle(n).rows for v in row]
    if transform == "prodmat":
        return [v for row in bell(g).production_matrix(n - 1).rows for v in row]
    source = list(g[:n])
    if transform == "":
        return source
    if transform == "binomial_inverse":
        return binomial_transform(source, -1)
    if transform == "diff":
        return [source[0]] + [source[n] - source[n - 1] for n in range(1, want)]
    if transform.startswith("prepend:"):
        return [rational(v) for v in transform[len("prepend:"):].split(",")] + source
    raise ValueError(f"unknown transform {entry.transform!r}")
