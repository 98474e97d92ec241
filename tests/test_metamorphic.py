"""Invariances of a(r), l(r), preimage counts and topology under rotations
of the sphere.

Rotating the source, z -> e^{i theta} z, maps |z| < r onto itself.  A unitary
Moebius map T(w) = (w - b) / (1 + conj(b) w) is an isometry of the chordal
metric, so T o f has the same pullback density as f, and f = p exactly where
T o f = T(p).  Under the source rotation the islands, the figure-eight
preimage graph and its complement are rotated copies, so their counts and
Euler numbers do not change.
"""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coverlab.count import count_preimages, find_islands, find_roots
from coverlab.expr import parse_map
from coverlab.metric import SphericalDisk, area, boundary_areas, boundary_length
from coverlab.trace import GraphSpec, build_preimage_graph, complement_components
from coverlab.verify import verify_euler_identity

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


def _point(max_magnitude):
    return st.complex_numbers(max_magnitude=max_magnitude, allow_nan=False).map(
        lambda a: complex(round(a.real, 3), round(a.imag, 3))
    )


_ZEROS = st.lists(st.tuples(_point(0.9), st.integers(1, 3)), min_size=1, max_size=4).filter(
    lambda zeros: all(abs(a - b) >= 0.05 for k, (a, _) in enumerate(zeros) for b, _ in zeros[:k])
)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(zeros=_ZEROS, theta=st.floats(0, 2 * math.pi), p=st.one_of(st.just(0j), _point(1.0)))
def test_roots_rotate_with_the_source(zeros, theta, p):
    # f = prod (z - a_k)^m_k; f(e^{i theta} z) = p where e^{i theta} z is a p-point of f
    template = "*".join(f"({{z}}{-a.real:+.3f}{-a.imag:+.3f}i)^{k}" for a, k in zeros)
    turn = cmath.exp(1j * theta)
    expected = find_roots(parse_map(template.format(z="z")), p, 1.0)
    rotated = find_roots(
        parse_map(template.format(z=f"((0{turn.real:+.17g}{turn.imag:+.17g}i)*z)")), p, 1.0
    )
    assert len(rotated) == len(expected)
    for root in expected:
        (match,) = [other for other in rotated if abs(other.location - root.location / turn) < 1e-9]
        assert match.multiplicity == root.multiplicity


def _near(radius):
    """Radii 1e-4 to 0.5 of `radius` off it, on either side."""
    off = st.tuples(st.sampled_from([-1, 1]), st.floats(-4, math.log10(0.5)))
    return off.map(lambda so: radius * (1 + so[0] * 10 ** so[1]))


# z^d, exp(z) out to where its circle integrals take 8192 nodes, and two
# maps on circles that come within 1e-4 of their poles: a Moebius map with
# its pole at |z| = 0.5, and a pole of residue 1e-6 at z = 1.0001, whose
# spike is then narrower than 8192 nodes resolve
_CIRCLE_CASES = st.one_of(
    st.tuples(st.integers(1, 6).map(lambda d: f"{{z}}^{d}"), st.floats(0.2, 3.0)),
    st.tuples(st.just("exp({z})"), st.floats(1.0, 300.0)),
    st.tuples(st.just("(2*{z}-1)/({z}+(0.3+0.4i))"), _near(0.5)),
    st.tuples(st.just("{z}+0.000001/({z}-1.0001)"), _near(1.0001)),
)


@settings(derandomize=True, deadline=None)
@given(case=_CIRCLE_CASES, theta=st.floats(0, 2 * math.pi))
def test_circle_integrals_are_invariant_under_source_rotation(case, theta):
    # the circle quadratures of f(e^{i theta} z) put their nodes at other
    # points of f's circle; l(r) and the boundary a(r) agree within their
    # tolerances, tol (1 + value)
    template, r = case
    turn = cmath.exp(1j * theta)
    m = parse_map(template.format(z="z"))
    rotated = parse_map(template.format(z=f"((0{turn.real:+.17g}{turn.imag:+.17g}i)*z)"))
    length = boundary_length(m, r, tol=1e-8)
    assert abs(boundary_length(rotated, r, tol=1e-8) - length) <= 1e-8 * (1 + length)
    (a,), (a_rotated,) = boundary_areas(m, [r], tol=1e-9), boundary_areas(rotated, [r], tol=1e-9)
    assert abs(a_rotated - a) <= 1e-9 * (1 + a)


TOPOLOGY_CASES = [("{z}^3-{z}", 1.5), ("{z}^5", 2.0)]
DISK_CENTERS = [0, 1, "inf"]
DISK_RADIUS = 0.2 / math.sqrt(math.pi)
RESOLUTION = 512


def _islands(m, r, centers):
    """Per disk centre the sorted (degree, chi) of its islands."""
    disks = [SphericalDisk.of(c, DISK_RADIUS) for c in centers]
    return [
        sorted((rec.degree, rec.chi) for rec in find_islands(m, disk, r, RESOLUTION)[0])
        for disk in disks
    ]


def _topology(m, r):
    """Per disk the sorted (degree, chi) of its islands; the graph's V and
    Euler number; the Euler identity total."""
    islands = _islands(m, r, DISK_CENTERS)
    graph = build_preimage_graph(m, GraphSpec(node=0.5j, scale=0.5), r, RESOLUTION)
    complement = complement_components(graph, r, RESOLUTION)
    identity = verify_euler_identity(graph, complement).rows[0]["euler_identity"]
    return islands, len(graph.vertices), graph.euler, identity


@pytest.mark.parametrize("template,r", TOPOLOGY_CASES)
def test_topology_is_invariant_under_source_rotation(template, r):
    expected = _topology(parse_map(template.format(z="z")), r)
    assert _topology(_rotated(template), r) == expected


@pytest.mark.parametrize("template,r", TOPOLOGY_CASES)
def test_islands_are_invariant_under_moebius_composition(template, r):
    # T o f over T(D) has the islands of f over D: same domains, same degrees
    expected = _islands(parse_map(template.format(z="z")), r, DISK_CENTERS)
    moved = [_moved(c) for c in DISK_CENTERS]
    assert _islands(_composed(template), r, moved) == expected
