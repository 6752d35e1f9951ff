"""Symbolic normal ordering for deformed oscillator operator expressions.

Expressions over the alphabet

    a  ad  N  x  p  H  K(N+k)  q  alpha  beta  gamma  i  numerals

are parsed to an AST, and each node's normal form is composed from its
children's.  A NormalForm maps the ladder offset d to the coefficient
c_d, indexed by the source level: applied to |n>, the d-term contributes
c_d(n) times the pure ladder action L^d (ad^d for d > 0, a^-d for d < 0,
vanishing for d < 0 when n < |d|).  The leaves are

    a = {-1: 1}   ad = {+1: 1}   N = {0: N}   K(N+k) = {0: K(N+k)}
    x = (ad + a)/2      p = (i/2)(ad - a)      H = x.x + p.p

Sums merge offset by offset; products, powers and commutators compose.
For A.B, where B acts first, each term pair adds

    c1(N+d2) . c2(N) . prod K(N+k)      to offset d1 + d2,

with k over the levels both ladders cross: d2+1 .. d2+min(-d2, d1) when
d2 < 0 < d1, d2-min(d2, -d1)+1 .. d2 when d1 < 0 < d2, none otherwise.
This is the contraction L^d1 L^d2 = L^(d1+d2) prod K(N+k) of the
generalized deformed oscillator; a ad = K(N+1) and ad a = K(N) are its
smallest cases.  Division and negative powers are defined only by scalar
subexpressions (offset 0 with a constant coefficient).

Coefficients are polynomials in N and the atoms K(N+k), merged term by
term, so coefficients that cancel exactly drop out of the support and
identities whose two sides compose to the same polynomials compare
bit-equal.  Equality of normal forms is still decided by evaluation on an
integer grid, which refutes soundly but certifies equality only up to the
grid: K is an arbitrary spectral function, so equal values on the grid
need not mean equal polynomials in K's atoms.

nf_to_matrix realizes a normal form as a truncated fockrep.Band, offset
for offset.  expr_to_matrix evaluates an expression directly in band
arithmetic, whose products are numeric sums over the entries and share no
code with the contraction rule above; it is the independent oracle the
symbolic command checks normal forms against.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Iterable, Optional

import numpy as np

from .fockrep import Band, IdentityReport, build_rep, commutator, quadratures
from .spectral import SpectralFunction, level_table

__all__ = [
    "ExprSyntaxError",
    "Expr",
    "parse_expr",
    "parse_identity",
    "CoefficientFunction",
    "NormalForm",
    "normal_order",
    "nf_equal",
    "nf_to_matrix",
    "expr_to_matrix",
    "BUILTIN_IDENTITIES",
]

_OPERATOR_NAMES = ("a", "ad", "N", "x", "p", "H")
_PARAMETER_NAMES = ("q", "alpha", "beta", "gamma")

GRID_MAX = 24
# Bounds on symbolic work: an exponent above MAX_EXPONENT is a syntax error,
# and a composition that would multiply more than MAX_COMPOSED_MONOMIALS
# monomial pairs is refused before it starts.
MAX_EXPONENT = 64
MAX_COMPOSED_MONOMIALS = 10_000


class ExprSyntaxError(ValueError):
    """Parse failure, carrying the offending position in the source text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# AST


class Expr:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Num(Expr):
    value: complex


@dataclass(frozen=True)
class Sym(Expr):
    name: str  # one of a, ad, N, x, p, H


@dataclass(frozen=True)
class Param(Expr):
    name: str  # one of q, alpha, beta, gamma


@dataclass(frozen=True)
class KShift(Expr):
    offset: int  # K(N + offset)


@dataclass(frozen=True)
class Add(Expr):
    terms: tuple


@dataclass(frozen=True)
class Mul(Expr):
    factors: tuple  # ordered, noncommutative


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class Div(Expr):
    numerator: Expr
    denominator: Expr  # must be scalar-valued


@dataclass(frozen=True)
class Comm(Expr):
    left: Expr
    right: Expr


# ---------------------------------------------------------------------------
# Tokenizer / parser


_TOKEN_OPS = "+-*/^(),"


def _tokenize(text: str):
    tokens = []  # (kind, value, position)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _TOKEN_OPS:
            tokens.append(("op", c, i))
            i += 1
            continue
        if text.startswith("==", i):
            tokens.append(("eq", "==", i))
            i += 2
            continue
        if c == "=":
            raise ExprSyntaxError("single '=' (use '==')", i)
        if c.isdigit() or c == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE" and j + 1 < n and (
                text[j + 1].isdigit() or (text[j + 1] in "+-" and j + 2 < n and text[j + 2].isdigit())
            ):
                j += 2
                while j < n and text[j].isdigit():
                    j += 1
            lexeme = text[i:j]
            try:
                value = float(lexeme)
            except ValueError:
                raise ExprSyntaxError(f"bad numeral {lexeme!r}", i) from None
            if not math.isfinite(value):
                raise ExprSyntaxError(f"numeral {lexeme!r} is not finite", i)
            if j < n and text[j] == "i":  # imaginary literal like 2i or 0.5i
                tokens.append(("num", complex(0.0, value), i))
                j += 1
            else:
                tokens.append(("num", complex(value, 0.0), i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, value, position = self.peek()
        if kind != "op" or value != op:
            raise ExprSyntaxError(f"expected {op!r}", position)
        return self.advance()

    def parse_side(self) -> Expr:
        """One whole expression; nesting deeper than the interpreter stack
        allows is a syntax error at the token where it gave out."""
        try:
            return self.parse_expr()
        except RecursionError:
            raise ExprSyntaxError("expression nested too deeply", self.peek()[2]) from None

    def parse_expr(self) -> Expr:
        terms = [self.parse_term()]
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                term = self.parse_term()
                terms.append(Neg(term) if value == "-" else term)
            else:
                break
        return terms[0] if len(terms) == 1 else Add(tuple(terms))

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                right = self.parse_unary()
                node = Mul((node, right)) if value == "*" else Div(node, right)
            else:
                break
        return node

    def parse_unary(self) -> Expr:
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            operand = self.parse_unary()
            return Neg(operand) if value == "-" else operand
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            exponent = self.parse_int_exponent()
            return Pow(base, exponent)
        return base

    def parse_int_exponent(self) -> int:
        kind, value, position = self.peek()
        sign = 1
        if kind == "op" and value in "+-":
            self.advance()
            sign = -1 if value == "-" else 1
            kind, value, position = self.peek()
        if kind != "num" or value.imag != 0.0 or value.real != int(value.real):
            raise ExprSyntaxError("exponent must be an integer", position)
        if abs(value.real) > MAX_EXPONENT:
            raise ExprSyntaxError(f"exponent {int(value.real)} exceeds the cap {MAX_EXPONENT}", position)
        self.advance()
        return sign * int(value.real)

    def parse_atom(self) -> Expr:
        kind, value, position = self.advance()
        if kind == "num":
            return Num(value)
        if kind == "op" and value == "(":
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if kind == "name":
            if value == "i":
                return Num(1j)
            if value == "K":
                return self.parse_k_application(position)
            if value == "comm":
                self.expect_op("(")
                left = self.parse_expr()
                self.expect_op(",")
                right = self.parse_expr()
                self.expect_op(")")
                return Comm(left, right)
            if value in _OPERATOR_NAMES:
                return Sym(value)
            if value in _PARAMETER_NAMES:
                return Param(value)
            raise ExprSyntaxError(f"unknown identifier {value!r}", position)
        raise ExprSyntaxError("expected a value", position)

    def parse_k_application(self, position) -> Expr:
        self.expect_op("(")
        kind, value, pos2 = self.advance()
        if kind != "name" or value != "N":
            raise ExprSyntaxError("K takes an argument of the form N+k", pos2)
        kind, value, pos3 = self.peek()
        offset = 0
        if kind == "op" and value in "+-":
            self.advance()
            sign = -1 if value == "-" else 1
            kind, numval, pos4 = self.advance()
            if kind != "num" or numval.imag != 0.0 or numval.real != int(numval.real):
                raise ExprSyntaxError("shift inside K must be an integer", pos4)
            offset = sign * int(numval.real)
        self.expect_op(")")
        return KShift(offset)


def parse_expr(text: str) -> Expr:
    """Parse one expression in the operator grammar.

    Grammar: identifiers a, ad, N, x, p, H; K(N+k) with integer k;
    comm(A, B); named scalar parameters q, alpha, beta, gamma bound at
    normal-ordering time; i (or numeral suffix i) for the imaginary unit;
    operators + - * ^ with ^ binding tightest and products
    left-associative; / only by scalar-valued subexpressions; whitespace
    insensitive.
    """
    parser = _Parser(_tokenize(text))
    node = parser.parse_side()
    kind, _, position = parser.peek()
    if kind != "end":
        raise ExprSyntaxError("trailing input", position)
    return node


def parse_identity(text: str) -> tuple[Expr, Expr]:
    """Parse an identity 'LHS == RHS' into its two sides."""
    parser = _Parser(_tokenize(text))
    lhs = parser.parse_side()
    kind, _, position = parser.peek()
    if kind != "eq":
        raise ExprSyntaxError("expected '==' between the two sides", position)
    parser.advance()
    rhs = parser.parse_side()
    kind, _, position = parser.peek()
    if kind != "end":
        raise ExprSyntaxError("trailing input", position)
    return lhs, rhs


# ---------------------------------------------------------------------------
# Coefficient functions


class CoefficientFunction:
    """Polynomial in N and the spectral atoms K(N+k), with complex scalars.

    terms maps a monomial (j, ks), standing for N^j * prod(K(N+k) for k in
    ks) with ks sorted, to its scalar.  Like monomials merge, exact zeros
    drop and the monomials are kept sorted, so equal polynomials hold equal
    terms and evaluate to the same bits.
    """

    __slots__ = ("K", "terms")

    def __init__(self, K: SpectralFunction, terms: Iterable = ()):
        merged: dict = {}
        for monomial, c in terms:
            merged[monomial] = merged[monomial] + c if monomial in merged else c
        self.K = K
        self.terms = {m: c for m, c in sorted(merged.items()) if c != 0}

    def __call__(self, n):
        """c(n) at an integer level n, or elementwise over an integer array n."""
        ns = np.atleast_1d(n)
        value = self._on_levels(ns, *_level_table(self.K, [(self, ns)]))
        return complex(value[0]) if np.ndim(n) == 0 else value

    def _on_levels(self, n: np.ndarray, table: np.ndarray, lo: int) -> np.ndarray:
        """c(n) over the integer array n, reading K(m) from table[m - lo]: each monomial
        is n**j in Python ints, rounded once, times its atoms in ks order, added in order."""
        atoms = {k: table[n + k - lo] for _, ks in self.terms for k in ks}
        powers = {j: (n.astype(object) ** j).astype(float) for j, _ in self.terms}
        total = np.zeros(n.shape, dtype=complex)
        for (j, ks), c in self.terms.items():
            value = powers[j]
            for k in ks:
                value = value * atoms[k]
            total = total + c * value
        return total

    def shift(self, s: int) -> "CoefficientFunction":
        """c(N) -> c(N+s): K(N+k) -> K(N+k+s) and N^j -> (N+s)^j expanded."""
        if s == 0:
            return self
        return CoefficientFunction(
            self.K,
            (
                ((i, tuple(k + s for k in ks)), c if i == j else c * (math.comb(j, i) * s ** (j - i)))
                for (j, ks), c in self.terms.items()
                for i in range(j + 1)
            ),
        )

    def map_scalars(self, fn: Callable[[complex], complex]) -> "CoefficientFunction":
        """Apply fn to every scalar (negation, division by a scalar)."""
        return CoefficientFunction(self.K, ((m, fn(c)) for m, c in self.terms.items()))

    def __add__(self, other: "CoefficientFunction") -> "CoefficientFunction":
        return CoefficientFunction(self.K, [*self.terms.items(), *other.terms.items()])

    def __mul__(self, other: "CoefficientFunction") -> "CoefficientFunction":
        return CoefficientFunction(
            self.K,
            (
                ((j1 + j2, tuple(sorted(ks1 + ks2))), c1 * c2)
                for (j1, ks1), c1 in self.terms.items()
                for (j2, ks2), c2 in other.terms.items()
            ),
        )


def _level_table(K: SpectralFunction, evaluations) -> tuple:
    """K(lo..hi) and lo, spanning every atom K(n+k) of each (coefficient, levels) pair."""
    reads = [(ns, k) for c, ns in evaluations if ns.size for _, ks in c.terms for k in ks]
    lo = min((int(ns.min()) + k for ns, k in reads), default=0)
    hi = max((int(ns.max()) + k for ns, k in reads), default=-1)
    return level_table(K, lo, hi), lo


# ---------------------------------------------------------------------------
# Normal form


@dataclass(frozen=True, eq=False)
class NormalForm:
    """Canonical form: ladder offset d -> coefficient function c_d.

    Applied to |n>, the d-term contributes c_d(n) times the pure ladder
    action on |n> (raising for d > 0, lowering for d < 0, identity for
    d = 0).  Coefficients are indexed by the source level n; offsets whose
    coefficient cancels exactly are absent.
    """

    K: SpectralFunction
    coefficients: dict = field(repr=False)

    def support(self) -> tuple:
        return tuple(sorted(self.coefficients))

    def coefficient(self, d: int) -> CoefficientFunction:
        return self.coefficients.get(d, CoefficientFunction(self.K))


def _crossed_levels(d1: int, d2: int) -> range:
    """Offsets k with L^d1 L^d2 = L^(d1+d2) prod K(N+k), L^d = ad^d or a^-d."""
    if d2 < 0 < d1:
        return range(d2 + 1, d2 + min(-d2, d1) + 1)
    if d1 < 0 < d2:
        return range(d2 - min(d2, -d1) + 1, d2 + 1)
    return range(0)


def _add(A: dict, B: dict) -> dict:
    out = dict(A)
    for d, c in B.items():
        out[d] = out[d] + c if d in out else c
    return {d: c for d, c in out.items() if c.terms}


def _compose(A: dict, B: dict) -> dict:
    """Coefficients of A.B (B acts first): each term pair adds
    c1(N+d2) c2(N) prod K(N+k) to offset d1+d2.

    Raises ValueError when the composition would multiply more than
    MAX_COMPOSED_MONOMIALS monomial pairs.
    """
    count = sum(len(c.terms) for c in A.values()) * sum(len(c.terms) for c in B.values())
    if count > MAX_COMPOSED_MONOMIALS:
        raise ValueError(
            f"composition would multiply {count} monomial pairs, above the cap {MAX_COMPOSED_MONOMIALS}"
        )
    out: dict = {}
    for d2, c2 in B.items():
        for d1, c1 in A.items():
            term = c1.shift(d2) * c2
            crossed = tuple(_crossed_levels(d1, d2))
            if crossed:
                term = term * CoefficientFunction(c2.K, [((0, crossed), 1.0)])
            d = d1 + d2
            out[d] = out[d] + term if d in out else term
    return {d: c for d, c in out.items() if c.terms}


def _negate(A: dict) -> dict:
    return {d: c.map_scalars(operator.neg) for d, c in A.items()}


def _constant(K: SpectralFunction, c: complex, d: int = 0) -> dict:
    coefficient = CoefficientFunction(K, [((0, ()), complex(c))])
    return {d: coefficient} if coefficient.terms else {}


def _parameter(K: SpectralFunction, name: str) -> float:
    """The value K binds to a named scalar; an error for an unbound name."""
    value = K.params().get(name)
    if value is None:
        raise ValueError(f"parameter {name!r} is not bound for this case")
    return value


def _order(expr: Expr, K: SpectralFunction) -> dict:
    """Offset -> coefficient map of an expression, built bottom-up."""
    if isinstance(expr, Num):
        return _constant(K, expr.value)
    if isinstance(expr, Param):
        return _constant(K, _parameter(K, expr.name))
    if isinstance(expr, Sym):
        name = expr.name
        if name == "a":
            return _constant(K, 1.0, -1)
        if name == "ad":
            return _constant(K, 1.0, +1)
        if name == "N":
            return {0: CoefficientFunction(K, [((1, ()), 1.0 + 0.0j)])}
        if name == "x":
            return _add(_constant(K, 0.5, +1), _constant(K, 0.5, -1))
        if name == "p":
            return _add(_constant(K, 0.5j, +1), _constant(K, -0.5j, -1))
        # H = x^2 + p^2, composed rather than taken from its diagonal closed form
        x, p = _order(Sym("x"), K), _order(Sym("p"), K)
        return _add(_compose(x, x), _compose(p, p))
    if isinstance(expr, KShift):
        return {0: CoefficientFunction(K, [((0, (expr.offset,)), 1.0 + 0.0j)])}
    if isinstance(expr, Neg):
        return _negate(_order(expr.operand, K))
    if isinstance(expr, Add):
        out: dict = {}
        for term in expr.terms:
            out = _add(out, _order(term, K))
        return out
    if isinstance(expr, Mul):
        out = _order(expr.factors[0], K)
        for factor in expr.factors[1:]:
            out = _compose(out, _order(factor, K))
        return out
    if isinstance(expr, Pow):
        if expr.exponent < 0:
            scalar = _scalar_value(expr.base, K)
            if scalar is None:
                raise ValueError("negative powers are only defined for scalar expressions")
            return _constant(K, scalar**expr.exponent)
        out = _constant(K, 1.0)
        base = _order(expr.base, K)
        for _ in range(expr.exponent):
            out = _compose(out, base)
        return out
    if isinstance(expr, Div):
        scalar = _scalar_value(expr.denominator, K)
        if scalar is None:
            raise ValueError("division is only defined by scalar expressions")
        if scalar == 0:
            raise ZeroDivisionError("division by zero scalar")
        numerator = _order(expr.numerator, K)
        return {d: c.map_scalars(lambda v: v / scalar) for d, c in numerator.items()}
    if isinstance(expr, Comm):
        left, right = _order(expr.left, K), _order(expr.right, K)
        return _add(_compose(left, right), _negate(_compose(right, left)))
    raise TypeError(f"unknown expression node {expr!r}")  # pragma: no cover


def _scalar_value(expr: Expr, K: SpectralFunction) -> Optional[complex]:
    """Numeric value of a scalar subexpression, or None if operator-valued.

    An expression is a scalar when its only offset is 0 and that
    coefficient is constant.
    """
    coefficients = _order(expr, K)
    diagonal = coefficients.get(0, CoefficientFunction(K)).terms
    if set(coefficients) - {0} or set(diagonal) - {(0, ())}:
        return None
    return complex(diagonal.get((0, ()), 0.0))


def normal_order(expr: Expr, K: SpectralFunction) -> NormalForm:
    """Compose an expression's canonical normal form over K's algebra.

    Scalar parameters (q, alpha, beta, gamma) take the values bound in K.
    """
    return NormalForm(K=K, coefficients=_order(expr, K))


def nf_equal(
    lhs: NormalForm,
    rhs: NormalForm,
    tol: float = 1e-10,
    name: str = "normal-form equality",
) -> IdentityReport:
    """Decide equality of two normal forms of one K on the integer grid 0..GRID_MAX.

    For d < 0 the levels n < |d| are skipped (the ladder action vanishes
    there, so the coefficients are unconstrained).  The reported deviation
    is normalized per grid point by max(1, |lhs|, |rhs|); a NaN deviation
    anywhere is reported and fails.  One level table serves both sides, so
    no level is evaluated twice.
    """
    if lhs.K != rhs.K:
        raise ValueError("nf_equal compares normal forms of one spectral function")
    pairs = [
        (lhs.coefficient(d), rhs.coefficient(d), np.arange(max(0, -d), GRID_MAX + 1))
        for d in sorted(set(lhs.support()) | set(rhs.support()))
    ]
    table, lo = _level_table(lhs.K, [(c, ns) for cl, cr, ns in pairs for c in (cl, cr)])
    deviations = [np.zeros(0)]
    for cl, cr, ns in pairs:
        vl, vr = cl._on_levels(ns, table, lo), cr._on_levels(ns, table, lo)
        deviations.append(np.abs(vl - vr) / np.maximum(np.maximum(1.0, np.abs(vl)), np.abs(vr)))
    # np.max propagates NaN, where max() would drop it and pass the check
    worst = float(np.max(np.concatenate(deviations), initial=0.0))
    return IdentityReport(
        name=name,
        window=GRID_MAX + 1,
        max_abs_residual=worst,
        tol=tol,
        passed=math.isfinite(worst) and worst <= tol,
    )


def nf_to_matrix(nf: NormalForm, D: int) -> Band:
    """Realize a normal form as its D-dimensional truncated operator.

    Offset d of the band holds, in column n, c_d(n) times the entry of ad^d
    (d >= 0) or a^-d (d < 0) there, the product of the ladder roots
    sqrt(K(1..D-1)) of build_rep(nf.K, D) that the path crosses.
    """
    roots = np.sqrt(build_rep(nf.K, D).levels[1:D])  # roots[m] = sqrt(K(m + 1))
    diagonals = {}
    for d, cfn in nf.coefficients.items():
        if abs(d) >= D:
            continue
        cols = np.arange(max(0, -d), min(D, D - d))
        weight = np.ones(cols.size)
        for j in range(abs(d)):
            weight *= roots[cols + j if d > 0 else cols - j - 1]
        diagonals[d] = cfn(cols) * weight
    return Band(D, diagonals)


def expr_to_matrix(expr: Expr, K: SpectralFunction, D: int) -> Band:
    """Evaluate an expression directly in the truncated representation.

    Independent of the composition engine: symbols map to the truncated
    bands of build_rep and quadratures, K(N+k) to the diagonal
    level_table(K, k, k + D - 1), and the AST is evaluated with band
    arithmetic, whose products sum the entries numerically.  Used as the
    oracle against which normal-ordered realizations are cross-checked.
    """
    rep = build_rep(K, D)
    quads = quadratures(rep)
    identity = Band.diagonal(np.ones(D))

    def ev(node: Expr) -> Band:
        if isinstance(node, Num):
            return node.value * identity
        if isinstance(node, Param):
            return complex(_parameter(K, node.name)) * identity
        if isinstance(node, Sym):
            # operators are formed on first use: H only for expressions that name it
            owner = quads if node.name in ("x", "p", "H") else rep
            return getattr(owner, "mat_" + node.name)
        if isinstance(node, KShift):
            return Band.diagonal(level_table(K, node.offset, node.offset + D - 1))
        if isinstance(node, Neg):
            return -ev(node.operand)
        if isinstance(node, Add):
            return reduce(operator.add, map(ev, node.terms))
        if isinstance(node, Mul):
            return reduce(operator.matmul, map(ev, node.factors))
        if isinstance(node, Pow):
            if node.exponent < 0:
                scalar = _scalar_value(node.base, K)
                if scalar is None:
                    raise ValueError("negative powers are only defined for scalar expressions")
                return scalar**node.exponent * identity
            base = ev(node.base)
            return reduce(operator.matmul, [base] * node.exponent) if node.exponent else identity
        if isinstance(node, Div):
            scalar = _scalar_value(node.denominator, K)
            if scalar is None:
                raise ValueError("division is only defined by scalar expressions")
            return ev(node.numerator) / scalar
        if isinstance(node, Comm):
            return commutator(ev(node.left), ev(node.right))
        raise TypeError(f"unknown expression node {node!r}")  # pragma: no cover

    return ev(expr)


# Built-in identities for the command-line checker.  The general
# equation-of-motion commutators hold for every spectral function; the
# coefficient functions stand left of the quadratures.
BUILTIN_IDENTITIES = {
    "comm_xp": "comm(x,p) == (i/2)*(K(N+1) - K(N))",
    "lh_x": (
        "comm(x,H) == (1/4)*(K(N+2) - K(N) - K(N+1) + K(N-1))*x"
        " + (i/4)*(K(N+2) - K(N) + K(N+1) - K(N-1))*p"
    ),
    "lh_p": (
        "comm(p,H) == (1/4)*(K(N+2) - K(N) - K(N+1) + K(N-1))*p"
        " - (i/4)*(K(N+2) - K(N) + K(N+1) - K(N-1))*x"
    ),
}
