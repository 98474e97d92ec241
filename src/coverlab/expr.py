"""Expression language for holomorphic maps of one complex variable.

Grammar (whitespace insensitive):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ('^' signed-integer)?
    atom   := 'z' | complex-literal | func '(' expr ')' | '(' expr ')'
    func   := 'exp' | 'sin' | 'cos'

A complex literal is a decimal number with an optional 'i' suffix marking a
pure imaginary value; general complex constants are written as sums, e.g.
``1+2i``.  Integer exponents are restricted to magnitude <= 64 so trees stay
small and derivatives stay exact.

A map is its expression tree (Var, Const, Add, ..., Call): `parse_map` is
the only reader of map text, and `differentiate` and `as_fraction` return
new trees.  `pole_free` is the one rule for telling overflow from a pole.

Evaluation is on the extended plane: division of a nonzero value by zero
yields the point at infinity (`INF`), and a genuine 0/0 raises
:class:`IndeterminateError` so the caller can perturb the sample point.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass

import numpy as np

MAX_EXPONENT = 64
_FUNCS = ("exp", "sin", "cos")


class ParseError(ValueError):
    """Syntax error; `offset` is the 1-based byte offset into the source."""

    def __init__(self, message, position):
        self.offset = position + 1
        super().__init__(f"{message} (offset {self.offset})")


class IndeterminateError(ArithmeticError):
    """0/0 or another indeterminate form hit during evaluation."""


class _Infinity:
    """The point at infinity on the Riemann sphere."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"


INF = _Infinity()


# ---------------------------------------------------------------------------
# Tree nodes


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Const:
    value: complex


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Div:
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: object


# ---------------------------------------------------------------------------
# Tokenizer / parser

_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class _Tokens:
    def __init__(self, source):
        self.source = source
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.source) and self.source[self.pos].isspace():
            self.pos += 1

    def peek(self):
        """Return (kind, value, offset) without consuming."""
        self._skip_ws()
        if self.pos >= len(self.source):
            return ("eof", None, self.pos)
        ch = self.source[self.pos]
        if ch in "+-*/^()":
            return ("op", ch, self.pos)
        m = _NUMBER_RE.match(self.source, self.pos)
        if m:
            end = m.end()
            imag = end < len(self.source) and self.source[end] == "i"
            text = m.group(0)
            value = complex(0.0, float(text)) if imag else complex(float(text), 0.0)
            return ("num", (value, end + (1 if imag else 0)), self.pos)
        m = _IDENT_RE.match(self.source, self.pos)
        if m:
            return ("ident", m.group(0), self.pos)
        raise ParseError(f"unexpected character {ch!r}", self.pos)

    def next(self):
        kind, value, offset = self.peek()
        if kind == "num":
            value, end = value
            self.pos = end
        elif kind == "op":
            self.pos = offset + 1
        elif kind == "ident":
            self.pos = offset + len(value)
        return kind, value, offset


def parse_map(source):
    """Parse a map definition into its expression tree.

    Raises :class:`ParseError` with a byte offset on bad syntax, exponent
    overflow, or an unknown function name.
    """
    if not source or not source.strip():
        raise ParseError("empty map source", 0)
    toks = _Tokens(source)
    root = _parse_expr(toks)
    kind, _, offset = toks.peek()
    if kind != "eof":
        raise ParseError("trailing input after expression", offset)
    return root


def _parse_expr(toks):
    node = _parse_term(toks)
    while True:
        kind, value, _ = toks.peek()
        if kind == "op" and value in "+-":
            toks.next()
            rhs = _parse_term(toks)
            node = Add(node, rhs) if value == "+" else Sub(node, rhs)
        else:
            return node


def _parse_term(toks):
    node = _parse_factor(toks)
    while True:
        kind, value, offset = toks.peek()
        if kind == "op" and value in "*/":
            toks.next()
            rhs = _parse_factor(toks)
            if value == "/":
                if rhs == Const(0j):
                    raise ParseError("division by the literal zero constant", offset)
                node = Div(node, rhs)
            else:
                node = Mul(node, rhs)
        else:
            return node


def _parse_factor(toks):
    node = _parse_atom(toks)
    kind, value, _ = toks.peek()
    if kind == "op" and value == "^":
        toks.next()
        node = Pow(node, _parse_signed_int(toks))
    return node


def _parse_signed_int(toks):
    kind, value, offset = toks.peek()
    sign = 1
    if kind == "op" and value in "+-":
        toks.next()
        sign = -1 if value == "-" else 1
        kind, value, offset = toks.peek()
    if kind != "num":
        raise ParseError("integer exponent expected", offset)
    toks.next()
    cval, _ = value if isinstance(value, tuple) else (value, None)
    if cval.imag != 0 or cval.real != int(cval.real):
        raise ParseError("integer exponent expected", offset)
    n = sign * int(cval.real)
    if abs(n) > MAX_EXPONENT:
        raise ParseError(f"exponent overflow (|n| > {MAX_EXPONENT})", offset)
    return n


def _parse_atom(toks):
    kind, value, offset = toks.next()
    if kind == "num":
        return Const(value)
    if kind == "ident":
        if value == "z":
            return Var()
        if value in _FUNCS:
            k, v, off = toks.next()
            if k != "op" or v != "(":
                raise ParseError(f"'(' expected after {value}", off)
            arg = _parse_expr(toks)
            k, v, off = toks.next()
            if k != "op" or v != ")":
                raise ParseError("unclosed parenthesis", off)
            return Call(value, arg)
        raise ParseError(f"unknown function name {value!r}", offset)
    if kind == "op" and value == "(":
        node = _parse_expr(toks)
        k, v, off = toks.next()
        if k != "op" or v != ")":
            raise ParseError("unclosed parenthesis", off)
        return node
    raise ParseError("atom expected ('z', literal, function or parenthesis)", offset)


# ---------------------------------------------------------------------------
# Evaluation: a tree walk at one point with the INF convention (`evaluate`);
# on arrays, one compiled program of numpy calls for several maps


def evaluate(m, z):
    """Value of the map at z; poles give `INF`, 0/0 raises IndeterminateError."""
    return _ev(m, complex(z))


def _finite_or_inf(value):
    if math.isfinite(value.real) and math.isfinite(value.imag):
        return value
    return INF


def _ev(node, z):
    if isinstance(node, Var):
        return z
    if isinstance(node, Const):
        return node.value
    if isinstance(node, (Add, Sub)):
        a, b = _ev(node.left, z), _ev(node.right, z)
        if a is INF and b is INF:
            raise IndeterminateError(f"inf {'+' if isinstance(node, Add) else '-'} inf")
        if a is INF or b is INF:
            return INF
        return _finite_or_inf(a + b if isinstance(node, Add) else a - b)
    if isinstance(node, Mul):
        a, b = _ev(node.left, z), _ev(node.right, z)
        if a is INF or b is INF:
            other = b if a is INF else a
            if other == 0:
                raise IndeterminateError("inf * 0")
            return INF
        return _finite_or_inf(a * b)
    if isinstance(node, Div):
        a, b = _ev(node.left, z), _ev(node.right, z)
        if b is INF:
            if a is INF:
                raise IndeterminateError("inf / inf")
            return 0j
        if a is INF:
            return INF
        if b == 0:
            if a == 0:
                raise IndeterminateError("0 / 0")
            return INF
        return _finite_or_inf(a / b)
    if isinstance(node, Pow):
        base = _ev(node.base, z)
        n = node.exponent
        if base is INF:
            if n > 0:
                return INF
            if n < 0:
                return 0j
            raise IndeterminateError("inf ^ 0")
        if base == 0 and n < 0:
            return INF
        if n == 0:
            return 1 + 0j
        try:
            return _finite_or_inf(base**n)
        except (OverflowError, ZeroDivisionError):  # base^|n| underflowed to 0 for n < 0
            return INF
    if isinstance(node, Call):
        arg = _ev(node.arg, z)
        if arg is INF:
            raise IndeterminateError(f"{node.func} at the point at infinity")
        try:
            return _finite_or_inf(getattr(cmath, node.func)(arg))
        except OverflowError:
            return INF
    raise TypeError(f"unknown node {node!r}")


def evaluate_array(m, zs):
    """Vectorized evaluation on a numpy complex array: ``evaluate_arrays([m], zs)[0]``."""
    return evaluate_arrays([m], zs)[0]


def evaluate_arrays(ms, zs):
    """The maps `ms` on a numpy complex array, one array each (one object for
    equal maps), by one program (_program) that computes a subtree they
    share, as exp(z) in f = f' = exp(z), once.  Plain IEEE semantics: poles
    give inf/nan entries, which callers mask and redo by :func:`evaluate`."""
    ops, outs = _program(tuple(ms))
    vals = [np.asarray(zs, dtype=np.complex128)]
    with np.errstate(all="ignore"):
        for op, args, done in ops:
            vals.append(op(*[vals[a] for a in args]))
            for a in done:
                vals[a] = None
    return [vals[o] for o in outs]


_PROGRAMS = {}  # map ids -> (maps, ops, outs), the 16 last used; holding the maps keeps ids unique
_BINARY = {Add: np.add, Sub: np.subtract, Mul: np.multiply, Div: np.true_divide}


def _program(ms):
    """(ops, outs): the maps' trees as one straight-line program, compiled
    once.  Slot 0 holds z, op k writes slot k, `outs` are the maps' slots.
    An op is [numpy call, argument slots, slots it reads last]; the call is
    the one a walk of the tree makes: np.multiply(left, right) in that order
    (numpy's `*` may run a temporary right factor as right * left, and a
    complex product is not bitwise commutative), np.full for a constant.
    Subtrees equal to the bits of their constants (0j is not -0j) share a slot."""
    hit = _PROGRAMS.pop(ids := tuple(map(id, ms)), None)
    if hit is not None:
        _PROGRAMS[ids] = hit  # the dict runs from least to most recently used
        return hit[1:]
    if len(_PROGRAMS) >= 16:
        del _PROGRAMS[next(iter(_PROGRAMS))]
    ops, slots = [], {}

    def emit(key, op, *args):
        if key not in slots:
            ops.append([op, args, []])
            slots[key] = len(ops)
        return slots[key]

    def visit(node):
        if isinstance(node, Var):
            return 0
        if isinstance(node, Const):
            v = node.value
            return emit((Const, np.complex128(v).tobytes()),
                        lambda z: np.full(z.shape, v, dtype=np.complex128), 0)
        if isinstance(node, Pow):
            n = node.exponent
            return emit((Pow, n, base := visit(node.base)), lambda a: a**n, base)
        if isinstance(node, Call):
            return emit((node.func, arg := visit(node.arg)), getattr(np, node.func), arg)
        args = visit(node.left), visit(node.right)
        return emit((type(node), *args), _BINARY[type(node)], *args)

    outs = [visit(m) for m in ms]
    for a, k in {a: k for k, (_, args, _) in enumerate(ops) for a in args}.items():
        if a not in outs:
            ops[k][2].append(a)
    _PROGRAMS[ids] = ms, ops, outs
    return ops, outs


# ---------------------------------------------------------------------------
# Ball arithmetic (vectorized midpoint-radius enclosures)

_SLACK = 2.0**-48  # relative rounding allowance per operation (32 units in the last place)
_TINY = 1e-300  # absolute allowance for underflow


def evaluate_ball(m, centres, radii):
    """Enclosure (c, rho) of the map over the discs |z - centres| <= radii.

    Midpoint-radius arithmetic (Rump, Acta Numerica 2010) over the tree:
    |f(z) - c| <= rho for every z of the disc, and so is the value that
    :func:`evaluate_array` computes at such a z.  Each operation widens its
    radius by _SLACK times |c| and rho, which covers the rounding of the
    centre, of the radius and of a point evaluation.  rho is inf where the
    disc may hold a pole, and wherever a centre, a radius or a bound is not
    finite, so a finite rho is always a true bound.
    """
    c = np.asarray(centres, dtype=np.complex128)
    rho = np.broadcast_to(np.asarray(radii, dtype=float), c.shape)
    with np.errstate(all="ignore"):
        return _ball(m, *_widened(c, rho))


def _widened(c, rho):
    """The ball (c, rho) widened for rounding; rho = inf unless |c| + 2 rho
    is finite."""
    size = np.abs(c)
    rho = (rho + _SLACK * size + _TINY) * (1 + _SLACK)
    return c, np.where(np.isfinite(size + 2 * rho), rho, np.inf)


def _quotient(a, ra, b, rb):
    """Ball of x / y over x in (a, ra), y in (b, rb): |x/y - a/b| <=
    (ra + |a/b| rb) / (|b| - rb), inf where the disc of y may hold 0."""
    c = a / b
    gap = np.abs(b) * (1 - _SLACK) - rb
    return _widened(c, np.where(gap > 0, (ra + np.abs(c) * rb) / gap, np.inf))


def _ball(node, zc, zr):
    if isinstance(node, Var):
        return zc, zr
    if isinstance(node, Const):
        return _widened(np.full(zc.shape, node.value, dtype=np.complex128), np.zeros(zr.shape))
    if isinstance(node, Pow):
        a, ra = _ball(node.base, zc, zr)
        n = abs(node.exponent)
        # |x^n - a^n| <= (|a| + ra)^n - |a|^n, plus the rounding of n products
        top = (np.abs(a) + ra) ** n
        c, rho = _widened(a**n, top - np.abs(a) ** n + 2 * n * _SLACK * top)
        return _quotient(1, 0, c, rho) if node.exponent < 0 else (c, rho)
    if isinstance(node, Call):
        a, ra = _ball(node.arg, zc, zr)
        c = getattr(np, node.func)(a)
        # |e^x - e^a| <= |e^a| (e^ra - 1); |sin x - sin a|, |cos x - cos a|
        # <= cosh(Im a) (e^ra - 1)
        scale = np.abs(c) if node.func == "exp" else np.cosh(a.imag)
        return _widened(c, scale * (np.expm1(ra) + _SLACK))
    a, ra = _ball(node.left, zc, zr)
    b, rb = _ball(node.right, zc, zr)
    if isinstance(node, Add):
        return _widened(a + b, ra + rb)
    if isinstance(node, Sub):
        return _widened(a - b, ra + rb)
    if isinstance(node, Mul):
        return _widened(np.multiply(a, b), np.abs(a) * rb + np.abs(b) * ra + ra * rb)
    if isinstance(node, Div):
        return _quotient(a, ra, b, rb)
    raise TypeError(f"unknown node {node!r}")


# ---------------------------------------------------------------------------
# Differentiation with constant folding


def differentiate(m):
    """Exact symbolic derivative, as a new tree."""
    return _diff(m)


def _is_const(node, value=None):
    return isinstance(node, Const) and (value is None or node.value == value)


def _try_fold(node):
    """Evaluate an all-constant subtree; keep the tree on any failure."""
    try:
        value = _ev(node, 0j)
    except (IndeterminateError, TypeError):
        return node
    if value is INF:
        return node
    return Const(value)


def _fadd(a, b):
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    if _is_const(a) and _is_const(b):
        return _try_fold(Add(a, b))
    return Add(a, b)


def _fsub(a, b):
    if _is_const(b, 0):
        return a
    if _is_const(a) and _is_const(b):
        return _try_fold(Sub(a, b))
    return Sub(a, b)


def _fmul(a, b):
    if _is_const(a, 0) or _is_const(b, 0):
        return Const(0j)
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    if _is_const(a) and _is_const(b):
        return _try_fold(Mul(a, b))
    return Mul(a, b)


def _fdiv(a, b):
    if _is_const(a, 0) and not _is_const(b, 0):
        return Const(0j)
    if _is_const(b, 1):
        return a
    if _is_const(a) and _is_const(b) and b.value != 0:
        return _try_fold(Div(a, b))
    return Div(a, b)


def _fpow(base, n):
    if n == 0:
        return Const(1 + 0j)
    if n == 1:
        return base
    if _is_const(base):
        return _try_fold(Pow(base, n))
    return Pow(base, n)


def _fcall(func, arg):
    if _is_const(arg):
        return _try_fold(Call(func, arg))
    return Call(func, arg)


def as_fraction(m):
    """Rewrite the map as N/D with division-free numerator and denominator.

    For trees whose function arguments are themselves division-free, N and D
    are entire, which lets root counting work on pole-free functions.  A
    function of a genuine quotient (e.g. exp(1/z)) is kept opaque in the
    numerator; its essential singularity is outside the supported map class.
    """
    return _fraction(m)


def pole_free(m):
    """Whether the map has no poles: the denominator of `as_fraction` is a
    constant.  An inf such a map takes is overflow, not a pole."""
    return isinstance(as_fraction(m)[1], Const)


_ONE = Const(1 + 0j)


def _fraction(node):
    if isinstance(node, (Var, Const)):
        return node, _ONE
    if isinstance(node, (Add, Sub, Mul, Div)):
        na, da = _fraction(node.left)
        nb, db = _fraction(node.right)
        if isinstance(node, Mul):
            return _fmul(na, nb), _fmul(da, db)
        if isinstance(node, Div):
            return _fmul(na, db), _fmul(da, nb)
        combine = _fadd if isinstance(node, Add) else _fsub
        return combine(_fmul(na, db), _fmul(nb, da)), _fmul(da, db)
    if isinstance(node, Pow):
        nb, db = _fraction(node.base)
        n = node.exponent
        if n >= 0:
            return _fpow(nb, n), _fpow(db, n)
        return _fpow(db, -n), _fpow(nb, -n)
    if isinstance(node, Call):
        na, da = _fraction(node.arg)
        if _is_const(da, 1):
            return _fcall(node.func, na), _ONE
        return _fcall(node.func, _fdiv(na, da)), _ONE
    raise TypeError(f"unknown node {node!r}")


def _diff(node):
    if isinstance(node, Var):
        return Const(1 + 0j)
    if isinstance(node, Const):
        return Const(0j)
    if isinstance(node, (Add, Sub)):
        return (_fadd if isinstance(node, Add) else _fsub)(_diff(node.left), _diff(node.right))
    if isinstance(node, (Mul, Div)):
        terms = _fmul(_diff(node.left), node.right), _fmul(node.left, _diff(node.right))
        if isinstance(node, Mul):
            return _fadd(*terms)
        return _fdiv(_fsub(*terms), _fpow(node.right, 2))
    if isinstance(node, Pow):
        n = node.exponent
        if n == 0:
            return Const(0j)
        inner = _fmul(Const(complex(n)), _fpow(node.base, n - 1))
        return _fmul(inner, _diff(node.base))
    if isinstance(node, Call):
        du = _diff(node.arg)
        if node.func == "exp":
            outer = Call("exp", node.arg)
        elif node.func == "sin":
            outer = Call("cos", node.arg)
        else:  # cos
            outer = _fmul(Const(-1 + 0j), Call("sin", node.arg))
        return _fmul(outer, du)
    raise TypeError(f"unknown node {node!r}")
