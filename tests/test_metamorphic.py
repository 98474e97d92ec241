"""Invariances of a(r), l(r) and preimage counts under rotations of the sphere.

Rotating the source, z -> e^{i theta} z, maps |z| < r onto itself.  A unitary
Moebius map T(w) = (w - b) / (1 + conj(b) w) is an isometry of the chordal
metric, so T o f has the same pullback density as f, and f = p exactly where
T o f = T(p).
"""

import cmath

import pytest

from coverlab.count import count_preimages
from coverlab.expr import parse_map
from coverlab.metric import area, boundary_length

ROTATION = "(0.6+0.8i)"  # e^{i theta}, theta = atan2(0.8, 0.6)
B = 0.3 + 0.2j
TARGETS = [0.5, -0.7 + 1.1j, -1 / B.conjugate(), "inf"]
RTOL = 1e-10


def _rotated(template):
    return parse_map(template.format(z=f"({ROTATION}*z)"))


def _composed(template):
    f = template.format(z="z")
    return parse_map(f"(({f})-(0.3+0.2i))/(1+(0.3-0.2i)*({f}))")


def _moved(p):
    if p == "inf":
        return 1 / B.conjugate()
    if cmath.isclose(p, -1 / B.conjugate()):
        return "inf"
    return (p - B) / (1 + B.conjugate() * p)


CASES = [("{z}^3-{z}", 1.5), ("exp({z})", 3.0), ("sin({z})", 2.0)]


@pytest.mark.parametrize("template,r", CASES)
@pytest.mark.parametrize("transform", [_rotated, _composed], ids=["source-rotation", "moebius"])
def test_area_and_length_are_invariant(template, r, transform):
    m, moved = parse_map(template.format(z="z")), transform(template)
    for quantity in (area, boundary_length):
        expected = quantity(m, r)
        assert quantity(moved, r) == pytest.approx(expected, rel=RTOL)


@pytest.mark.parametrize("template,r", CASES)
def test_preimage_counts_are_invariant(template, r):
    m = parse_map(template.format(z="z"))
    rotated, composed = _rotated(template), _composed(template)
    for p in TARGETS:
        expected = count_preimages(m, p, r)
        assert count_preimages(rotated, p, r) == expected
        assert count_preimages(composed, _moved(p), r) == expected
