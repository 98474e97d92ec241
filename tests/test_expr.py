import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coverlab.expr import (
    INF,
    Add,
    Call,
    Const,
    Div,
    IndeterminateError,
    Mul,
    ParseError,
    Pow,
    Sub,
    Var,
    differentiate,
    evaluate,
    evaluate_array,
    evaluate_arrays,
    evaluate_ball,
    parse_map,
)


def test_parse_power():
    assert parse_map("z^3") == Pow(Var(), 3)


def test_parse_rational():
    assert parse_map("(z^2-1)/(z^2+1)") == Div(
        Sub(Pow(Var(), 2), Const(1 + 0j)),
        Add(Pow(Var(), 2), Const(1 + 0j)),
    )


def test_parse_unclosed_paren_offset():
    with pytest.raises(ParseError) as exc:
        parse_map("exp(2*z")
    assert exc.value.offset == 8


@pytest.mark.parametrize(
    ("source", "message", "offset"),
    [
        ("z $ 1", "unexpected character '$'", 3),
        ("z z", "trailing input after expression", 3),
        ("z^x", "integer exponent expected", 3),
        ("z^1.5", "integer exponent expected", 3),
        ("exp z", "'(' expected after exp", 5),
        ("(z+1", "unclosed parenthesis", 5),
    ],
)
def test_parse_error_messages_and_offsets(source, message, offset):
    with pytest.raises(ParseError) as exc:
        parse_map(source)
    assert str(exc.value) == f"{message} (offset {offset})"
    assert exc.value.offset == offset


def test_parse_empty():
    with pytest.raises(ParseError):
        parse_map("   ")


def test_exponent_overflow():
    with pytest.raises(ParseError, match="overflow"):
        parse_map("z^65")
    parse_map("z^64")
    parse_map("z^-64")


def test_unknown_function():
    with pytest.raises(ParseError, match="unknown function"):
        parse_map("sinh(z)")


def test_literal_zero_denominator():
    with pytest.raises(ParseError, match="zero"):
        parse_map("z/0")
    # a denominator that merely evaluates to zero somewhere is fine
    parse_map("1/z")


def test_imaginary_literals():
    assert evaluate(parse_map("0.5i"), 0) == 0.5j
    assert evaluate(parse_map("1+2i"), 0) == 1 + 2j


def test_evaluate_euler_identity():
    v = evaluate(parse_map("exp(z)"), cmath.pi * 1j)
    assert abs(v - (-1)) < 1e-12


def test_evaluate_moebius():
    assert abs(evaluate(parse_map("(z-1)/(z+1)"), 1j) - 1j) < 1e-15


def test_evaluate_pole_is_infinity():
    assert evaluate(parse_map("1/z"), 0) is INF


def test_evaluate_underflowing_negative_power_is_infinity():
    assert evaluate(parse_map("z^-2"), 1e-200) is INF
    assert evaluate(Pow(Const(5e-182 + 0j), -2), 0) is INF


def test_evaluate_indeterminate():
    with pytest.raises(IndeterminateError):
        evaluate(parse_map("z/z"), 0)


def test_derivative_power_rule():
    d = differentiate(parse_map("z^3"))
    assert evaluate(d, 2) == 12


def test_derivative_chain_rule():
    d = differentiate(parse_map("exp(2*z)"))
    assert abs(evaluate(d, 0) - 2) < 1e-15


def test_derivative_trig():
    d = differentiate(parse_map("sin(z)"))
    assert abs(evaluate(d, 0) - 1) < 1e-15
    d2 = differentiate(parse_map("cos(z)"))
    assert abs(evaluate(d2, math.pi / 2) + 1) < 1e-12


# ---------------------------------------------------------------------------
# Random-tree properties (fixed seed, per the module invariants)

_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Pow: 3, Var: 9, Const: 9, Call: 9}


def _fmt_real(x):
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(float(x))


def _print_const(value):
    re_, im = value.real, value.imag
    if im == 0:
        if re_ < 0:
            return f"(0 - {_fmt_real(-re_)})"
        return _fmt_real(re_)
    if re_ == 0:
        if im < 0:
            return f"(0 - {_fmt_real(-im)}i)"
        return f"{_fmt_real(im)}i"
    if re_ < 0:
        return f"(0 - {_print_const(-value)})"
    sign = "+" if im > 0 else "-"
    return f"({_fmt_real(re_)} {sign} {_fmt_real(abs(im))}i)"


def _print(node, parent_prec=0, right_side=False):
    """Source text of a tree, in the grammar parse_map reads: explicit '*',
    parentheses by precedence."""
    if isinstance(node, Var):
        return "z"
    if isinstance(node, Const):
        return _print_const(node.value)
    if isinstance(node, Pow):
        base = _print(node.base, parent_prec=4)
        text = f"{base}^{node.exponent}"
        prec = 3
    elif isinstance(node, Call):
        return f"{node.func}({_print(node.arg)})"
    else:
        ops = {Add: " + ", Sub: " - ", Mul: "*", Div: "/"}
        prec = _PREC[type(node)]
        left = _print(node.left, parent_prec=prec)
        right = _print(node.right, parent_prec=prec, right_side=True)
        text = f"{left}{ops[type(node)]}{right}"
    need = parent_prec > prec or (
        right_side and parent_prec == prec and isinstance(node, (Add, Sub, Mul, Div))
    )
    return f"({text})" if need else text


def _random_tree(rng, depth):
    if depth == 0:
        return rng.choice(
            [
                Var(),
                Const(complex(round(rng.uniform(-3, 3), 3), 0)),
                Const(complex(0, round(rng.uniform(-3, 3), 3))),
            ]
        )
    kind = rng.choice(["add", "sub", "mul", "div", "pow", "call"])
    a = _random_tree(rng, depth - 1)
    b = _random_tree(rng, depth - 1)
    if kind == "add":
        return Add(a, b)
    if kind == "sub":
        return Sub(a, b)
    if kind == "mul":
        return Mul(a, b)
    if kind == "div":
        if b == Const(0j):
            b = Const(1 + 0j)
        return Div(a, b)
    if kind == "pow":
        return Pow(a, rng.randint(-4, 5))
    return Call(rng.choice(["exp", "sin", "cos"]), a)


def test_roundtrip_random_trees():
    rng = random.Random(20240817)
    for _ in range(200):
        tree = _random_tree(rng, rng.randint(1, 4))
        printed = _print(tree)
        reparsed = parse_map(printed)
        assert parse_map(_print(reparsed)) == reparsed, printed


def test_roundtrip_grammar_sources():
    sources = [
        "z^3",
        "(z^2-1)/(z^2+1)",
        "exp(2*z)",
        "1+2i",
        "sin(z)*cos(z) - exp(z^2)/2",
        "0.5i*z^-3 + 7",
    ]
    for s in sources:
        once = parse_map(s)
        twice = parse_map(_print(parse_map(_print(once))))
        assert once == twice


def test_derivative_matches_finite_difference():
    rng = random.Random(7)
    checked = 0
    while checked < 100:
        m = _random_tree(rng, rng.randint(1, 3))
        dm = differentiate(m)
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        h = 1e-5
        try:
            sym = evaluate(dm, z)
            fp = evaluate(m, z + h)
            fm = evaluate(m, z - h)
        except (IndeterminateError, OverflowError):
            continue
        if sym is INF or fp is INF or fm is INF:
            continue
        if abs(sym) > 1e6:  # too close to a pole for the FD oracle
            continue
        fd = (fp - fm) / (2 * h)
        assert abs(sym - fd) / (1 + abs(sym)) < 1e-6
        checked += 1


def test_evaluate_is_pure():
    m = parse_map("exp(z)*z^2")
    assert evaluate(m, 1.5j) == evaluate(m, 1.5j)


def test_evaluate_array_matches_scalar():
    m = parse_map("(z^2-1)/(z^2+1)")
    zs = np.array([0.3 + 0.4j, 2 - 1j, -0.7j])
    vals = evaluate_array(m, zs)
    for z, v in zip(zs, vals):
        assert abs(v - evaluate(m, complex(z))) < 1e-13


def test_evaluate_array_does_not_depend_on_the_array_size():
    # numpy reuses a large temporary right factor in place, as right * left,
    # and its complex product is not bitwise commutative
    m = parse_map("z*exp(z)")
    zs = np.exp(1j * np.arange(40_000)) * np.linspace(0.1, 3, 40_000)
    whole = evaluate_array(m, zs)
    parts = [evaluate_array(m, part) for part in np.split(zs, 400)]
    assert np.array_equal(np.concatenate(parts), whole)


# ---------------------------------------------------------------------------
# Ball enclosures (evaluate_ball)

_CONSTANTS = st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False)
_TREES = st.recursive(
    st.one_of(st.just(Var()), st.builds(Const, _CONSTANTS)),
    lambda children: st.one_of(
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        st.builds(Div, children, children),
        # large exponents and nested exp overflow
        st.builds(Pow, children, st.integers(-8, 8) | st.sampled_from([-64, 64])),
        st.builds(Call, st.sampled_from(["exp", "sin", "cos"]), children),
    ),
    max_leaves=6,
)
_RADII = st.just(0.0) | st.floats(1e-12, 5)


def _constants(node):
    if isinstance(node, Const):
        return [node.value]
    return [c for child in vars(node).values() if not isinstance(child, (int, str))
            for c in _constants(child)]


@settings(derandomize=True, deadline=None)
@given(_TREES, _CONSTANTS, _RADII)
# second-order terms: ra rb of a product, and sin about its zero
@example(Mul(Var(), Var()), 1 + 0j, 2.0)
@example(Call("sin", Var()), 0j, 1.0)
def test_ball_encloses_every_sample(tree, centre, radius):
    c, rho = evaluate_ball(tree, [centre], [radius])
    # a polar grid over the disc, and the constants in it: the poles of 1 / (z - p)
    t, theta = np.meshgrid(np.linspace(0, 1, 7), np.linspace(0, 2 * np.pi, 12, endpoint=False))
    zs = np.r_[centre + radius * t.ravel() * np.exp(1j * theta.ravel()), _constants(tree)]
    zs = zs[np.abs(zs - centre) <= radius]
    with np.errstate(all="ignore"):
        fz = evaluate_array(tree, zs)
        inside = np.isfinite(fz) & (np.abs(fz - c[0]) <= rho[0])
    assert rho[0] == np.inf or inside.all(), (tree, fz[~inside], c, rho)


@settings(derandomize=True, deadline=None)
@given(_TREES, _CONSTANTS, _RADII, st.floats(0, 0.99), st.floats(0, 2 * math.pi), st.integers(1, 3))
def test_ball_is_unbounded_over_a_pole(tree, centre, radius, s, phi, k):
    pole = Pow(Sub(Var(), Const(centre + radius * s * cmath.exp(1j * phi))), k)
    for f in (Add(tree, Div(Const(1 + 0j), pole)), Div(tree, pole), Pow(pole, -1)):
        assert evaluate_ball(f, [centre], [radius])[1][0] == np.inf


def test_ball_is_unbounded_where_not_finite():
    m = parse_map("exp(z)")
    c, rho = evaluate_ball(m, [np.nan, 1e300, 1j, 1j, 800], [0.1, 0.1, np.inf, np.nan, 0.1])
    assert (rho == np.inf).all()
    # and finite, and tight to first order, on a small disc
    c, rho = evaluate_ball(m, [0.5], [1e-3])
    assert c[0] == np.exp(0.5) and rho[0] == pytest.approx(np.exp(0.5) * 1e-3, rel=1e-3)


# ---------------------------------------------------------------------------
# Shared evaluation (evaluate_arrays) against a recursive walk of each tree


def _walk(node, zs):
    """The oracle: one numpy call per node, operands computed first."""
    if isinstance(node, Var):
        return zs
    if isinstance(node, Const):
        return np.full(zs.shape, node.value, dtype=np.complex128)
    if isinstance(node, Add):
        return _walk(node.left, zs) + _walk(node.right, zs)
    if isinstance(node, Sub):
        return _walk(node.left, zs) - _walk(node.right, zs)
    if isinstance(node, Mul):
        return np.multiply(_walk(node.left, zs), _walk(node.right, zs))
    if isinstance(node, Div):
        return _walk(node.left, zs) / _walk(node.right, zs)
    if isinstance(node, Pow):
        return _walk(node.base, zs) ** node.exponent
    if isinstance(node, Call):
        return getattr(np, node.func)(_walk(node.arg, zs))
    raise TypeError(f"unknown node {node!r}")


_ZEROS = st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)])
_ZERO_TREES = st.recursive(
    st.one_of(st.just(Var()), st.builds(Const, _CONSTANTS | _ZEROS)),
    lambda children: st.one_of(
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        st.builds(Div, children, children),
        st.builds(Pow, children, st.integers(-8, 8) | st.sampled_from([-64, 64])),
        st.builds(Call, st.sampled_from(["exp", "sin", "cos"]), children),
    ),
    max_leaves=8,
)


@st.composite
def _shared_maps(draw):
    """Trees, their derivatives and products: maps that share subtrees."""
    trees = draw(st.lists(_ZERO_TREES, min_size=1, max_size=3))
    maps = trees + [differentiate(t) for t in trees]
    maps += [Mul(a, b) for a, b in zip(trees, trees[1:])]
    return draw(st.permutations(maps))


_POINTS = st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False) | _ZEROS


def _bits(values):
    return np.ascontiguousarray(values, dtype=np.complex128).view(np.uint64)


@settings(derandomize=True, deadline=None)
@given(_shared_maps(), st.lists(_POINTS, max_size=40), st.booleans())
# an all-constant root, and 0j against -0j, which compare equal
@example([Div(Const(1 + 0j), Const(0j)), Div(Const(1 + 0j), Const(-0j))], [1j], False)
@example([Const(-0j), Add(Var(), Const(0j)), Add(Var(), Const(-0j))], [-0j, 0j], False)
@example([Pow(Var(), -3), Mul(Pow(Var(), -3), Var())], [0j, 1, 2j, 3], True)
def test_shared_evaluation_matches_the_tree_walk(maps, points, square):
    zs = np.array(points, dtype=np.complex128)
    if square and len(zs) % 2 == 0:
        zs = zs.reshape(2, -1)
    got = evaluate_arrays(maps, zs)
    with np.errstate(all="ignore"):
        want = [_walk(m, zs) for m in maps]
    assert len(got) == len(maps)
    for m, g, w in zip(maps, got, want):
        assert g.shape == w.shape and np.array_equal(_bits(g), _bits(w)), m
