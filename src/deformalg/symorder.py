"""Symbolic normal ordering for deformed oscillator operator expressions.

Expressions over the alphabet

    a  ad  N  x  p  H  K(N+k)  q  alpha  beta  gamma  i  numerals

are parsed to an AST, and one evaluator gives every node its meaning: a
numeral or parameter is a multiple of the identity, a symbol or K(N+k) a
leaf operator, sums and products fold + and @, powers repeat @, and
comm(A, B) is A@B - B@A.  Division and negative powers are defined only by
scalar subexpressions (offset 0 with a constant coefficient).

A check evaluates equal subexpressions once.  normal_order and
expr_to_matrix take a keyword memo, one per evaluator, that the two sides of
an identity share: each leaf and each product is formed once per memo, a
product found again by the identities of its factors, so comm(H^3, x^3) and
H^3*x^3 - x^3*H^3 compose H^3, x^3 and each of their two products once.
Each value is still the same left-to-right fold, so sharing changes no bit,
and a memo lives for one check: nothing is cached across calls.

normal_order evaluates with NormalForm leaves.  A NormalForm maps the
ladder offset d to the coefficient c_d, indexed by the source level:
applied to |n>, the d-term contributes c_d(n) times the pure ladder action
L^d (ad^d for d > 0, a^-d for d < 0, vanishing for d < 0 when n < |d|).
The leaves are

    a = {-1: 1}   ad = {+1: 1}   N = {0: N}   K(N+k) = {0: K(N+k)}
    x = (ad + a)/2      p = (i/2)(ad - a)      H = x@x + p@p

Normal forms add offset by offset and compose by contraction: in A @ B,
where B acts first, each term pair adds

    c1(N+d2) . c2(N) . prod K(N+k)      to offset d1 + d2,

with k over the levels both ladders cross: d2+1 .. d2+min(-d2, d1) when
d2 < 0 < d1, d2-min(d2, -d1)+1 .. d2 when d1 < 0 < d2, none otherwise.
This is L^d1 L^d2 = L^(d1+d2) prod K(N+k) of the generalized deformed
oscillator; a ad = K(N+1) and ad a = K(N) are its smallest cases.

Coefficients are polynomials in N and the atoms K(N+k), merged term by
term, so coefficients that cancel exactly drop out of the support and
identities whose two sides compose to the same polynomials compare
bit-equal.  Equality of normal forms is still decided by evaluation on an
integer grid, which refutes soundly but certifies equality only up to the
grid: K is an arbitrary spectral function, so equal values on the grid
need not mean equal polynomials in K's atoms.  nf_equal reads each atom
K(N+k) from one level table once per shift, and forms each power of N once.

nf_to_matrix realizes a normal form as a truncated fockrep.Band, offset
for offset.  expr_to_matrix runs the same evaluator with the bands of
build_rep and quadratures as leaves; band products are numeric sums over
the entries and never run the contraction rule, so it is the independent
oracle the symbolic command checks normal forms against.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from numbers import Number
from typing import Callable, Iterable

import numpy as np

from .fockrep import Band, IdentityReport, build_rep, quadratures
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
        is n**j in Python ints, rounded once, times its atoms in ks order, added in order.
        Each distinct atom is read from the table once, and each distinct power formed once."""
        atoms = {k: table[n + k - lo] for k in self._shifts()}
        exact = n.astype(object)
        powers = {j: (exact**j).astype(float) for j in {j for j, _ in self.terms}}
        total = np.zeros(n.shape, dtype=complex)
        for (j, ks), c in self.terms.items():
            value = powers[j]
            for k in ks:
                value = value * atoms[k]
            total = total + c * value
        return total

    def _shifts(self) -> set:
        """The offsets k of the atoms K(N+k) it reads."""
        return {k for _, ks in self.terms for k in ks}

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
    """K(lo..hi) and lo, spanning every atom K(n+k) of each (coefficient, levels) pair:
    a pair reads from min(levels) + min(shifts) to max(levels) + max(shifts)."""
    spans = []
    for c, ns in evaluations:
        shifts = c._shifts()
        if shifts and ns.size:
            spans.append((int(ns.min()) + min(shifts), int(ns.max()) + max(shifts)))
    lo = min((first for first, _ in spans), default=0)
    hi = max((last for _, last in spans), default=-1)
    return level_table(K, lo, hi), lo


# ---------------------------------------------------------------------------
# Normal form


class NormalForm:
    """Canonical form: ladder offset d -> coefficient function c_d of the source level.

    Offsets whose coefficient cancels exactly are dropped on construction.
    Normal forms of one K combine as bands do: A + B, A - B and -A merge
    offset by offset, c * A and A / c scale every scalar, and A @ B (B acts
    first) composes by the contraction rule of the module docstring.
    """

    __slots__ = ("K", "coefficients")

    def __init__(self, K: SpectralFunction, coefficients: dict):
        self.K = K
        self.coefficients = {d: c for d, c in coefficients.items() if c.terms}

    def support(self) -> tuple:
        return tuple(sorted(self.coefficients))

    def coefficient(self, d: int) -> CoefficientFunction:
        return self.coefficients.get(d, CoefficientFunction(self.K))

    def _same_algebra(self, other: "NormalForm") -> None:
        if other.K is not self.K and other.K != self.K:
            raise ValueError("normal forms of different spectral functions do not combine")

    def _map_scalars(self, fn: Callable[[complex], complex]) -> "NormalForm":
        return NormalForm(self.K, {d: c.map_scalars(fn) for d, c in self.coefficients.items()})

    def __add__(self, other):
        if not isinstance(other, NormalForm):
            return NotImplemented
        self._same_algebra(other)
        out = dict(self.coefficients)
        for d, c in other.coefficients.items():
            out[d] = out[d] + c if d in out else c
        return NormalForm(self.K, out)

    def __neg__(self) -> "NormalForm":
        return self._map_scalars(operator.neg)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, c):
        if not isinstance(c, Number):
            return NotImplemented
        return self._map_scalars(lambda v: c * v)

    __rmul__ = __mul__

    def __truediv__(self, c):
        if not isinstance(c, Number):
            return NotImplemented
        return self._map_scalars(lambda v: v / c)

    def __matmul__(self, other):
        """Each term pair adds c1(N+d2) c2(N) prod K(N+k) to offset d1+d2; a ValueError
        when that would multiply more than MAX_COMPOSED_MONOMIALS monomial pairs."""
        if not isinstance(other, NormalForm):
            return NotImplemented
        self._same_algebra(other)
        count = math.prod(sum(len(c.terms) for c in nf.coefficients.values()) for nf in (self, other))
        if count > MAX_COMPOSED_MONOMIALS:
            raise ValueError(
                f"composition would multiply {count} monomial pairs, above the cap {MAX_COMPOSED_MONOMIALS}"
            )
        out: dict = {}
        for d2, c2 in other.coefficients.items():
            for d1, c1 in self.coefficients.items():
                term = c1.shift(d2) * c2
                crossed = tuple(_crossed_levels(d1, d2))
                if crossed:
                    term = term * CoefficientFunction(self.K, [((0, crossed), 1.0)])
                d = d1 + d2
                out[d] = out[d] + term if d in out else term
        return NormalForm(self.K, out)


def _crossed_levels(d1: int, d2: int) -> range:
    """Offsets k with L^d1 L^d2 = L^(d1+d2) prod K(N+k), L^d = ad^d or a^-d."""
    if d2 < 0 < d1:
        return range(d2 + 1, d2 + min(-d2, d1) + 1)
    if d1 < 0 < d2:
        return range(d2 - min(d2, -d1) + 1, d2 + 1)
    return range(0)


def _evaluate(expr: Expr, K: SpectralFunction, scalar: Callable, leaf: Callable, memo: dict):
    """The operator an expression denotes: scalar(c) is c times the identity,
    leaf(node) the operator of a Sym or KShift node (H is evaluated as x*x +
    p*p), and every other node combines its children's with +, -, @ and / by
    a normal-form scalar.

    memo holds the leaves and products formed so far: a symbol's operator
    under its name, K(N+k) under k, and each product under the identities of
    its two factors, which the entry keeps alive.  Equal subexpressions
    evaluated with one memo thus form each product once, and comm(A, B) forms
    A*B and B*A through the same entries as those products written out.  Sums,
    negations and scalars are formed where they appear; they seldom repeat,
    and a lookup for each would cost more than it saves.  Every value is
    still the same left-to-right fold.
    """
    def matmul(left, right):
        key = (id(left), id(right))
        entry = memo.get(key)
        if entry is None:
            entry = memo[key] = (left @ right, left, right)
        return entry[0]

    def evaluate(node):
        # Neg, Mul and Div nest on their first operand as deep as the text is
        # long (a*b*c... parses in a loop), so that spine is walked in a loop;
        # it keeps each Neg and Mul node and each Div's divisor, which is
        # checked before the numerator is evaluated
        spine = []
        while isinstance(node, (Neg, Mul, Div)):
            if isinstance(node, Div):
                divisor = _scalar_value(node.denominator, K, "division is only defined by scalar expressions")
                if divisor == 0:
                    raise ZeroDivisionError("division by zero scalar")
                spine.append(divisor)
                node = node.numerator
            else:
                spine.append(node)
                node = node.operand if isinstance(node, Neg) else node.factors[0]
        if isinstance(node, Num):
            value = scalar(node.value)
        elif isinstance(node, Param):
            bound = K.params().get(node.name)
            if bound is None:
                raise ValueError(f"parameter {node.name!r} is not bound for this case")
            value = scalar(bound)
        elif isinstance(node, Sym):
            value = memo.get(node.name)
            if value is None:
                value = memo[node.name] = evaluate(_H_TERMS) if node.name == "H" else leaf(node)
        elif isinstance(node, KShift):
            value = memo.get(node.offset)
            if value is None:
                value = memo[node.offset] = leaf(node)
        elif isinstance(node, Add):
            value = reduce(operator.add, map(evaluate, node.terms))
        elif isinstance(node, Pow):
            if node.exponent < 0:
                base = _scalar_value(node.base, K, "negative powers are only defined for scalar expressions")
                value = scalar(base**node.exponent)
            elif node.exponent == 0:
                value = scalar(1)
            else:
                value = reduce(matmul, [evaluate(node.base)] * node.exponent)
        elif isinstance(node, Comm):
            left, right = evaluate(node.left), evaluate(node.right)
            value = matmul(left, right) - matmul(right, left)
        else:
            raise TypeError(f"unknown expression node {node!r}")  # pragma: no cover
        for outer in reversed(spine):
            if isinstance(outer, Neg):
                value = -value
            elif isinstance(outer, Mul):
                value = reduce(matmul, map(evaluate, outer.factors[1:]), value)
            else:
                value = value / outer
        return value

    return evaluate(expr)


# H = x^2 + p^2, composed rather than taken from its diagonal closed form
_H_TERMS = Add((Mul((Sym("x"), Sym("x"))), Mul((Sym("p"), Sym("p")))))
# The terms of each symbol but H by name, as offset -> (monomial, scalar)
_SYMBOL_TERMS = {
    "a": {-1: ((0, ()), 1.0)},
    "ad": {1: ((0, ()), 1.0)},
    "N": {0: ((1, ()), 1.0)},
    "x": {1: ((0, ()), 0.5), -1: ((0, ()), 0.5)},
    "p": {1: ((0, ()), 0.5j), -1: ((0, ()), -0.5j)},
}


def _normal_form(expr: Expr, K: SpectralFunction, memo: dict) -> NormalForm:
    """Evaluate with NormalForm leaves; _scalar_value calls this, not normal_order, so
    wrappers of normal_order (perfbench's tracer) see whole expressions only."""
    def scalar(c) -> NormalForm:
        return NormalForm(K, {0: CoefficientFunction(K, [((0, ()), complex(c))])})

    def leaf(node) -> NormalForm:
        # a symbol's terms, or the one atom K(N+k) of a level shift
        terms = _SYMBOL_TERMS[node.name] if isinstance(node, Sym) else {0: ((0, (node.offset,)), 1.0)}
        return NormalForm(K, {d: CoefficientFunction(K, [(m, complex(c))]) for d, (m, c) in terms.items()})

    return _evaluate(expr, K, scalar, leaf, memo)


def _scalar_value(expr: Expr, K: SpectralFunction, message: str) -> complex:
    """Numeric value of a scalar subexpression, one whose only offset is 0 with
    a constant coefficient; ValueError(message) for any other expression."""
    nf = _normal_form(expr, K, {})
    diagonal = nf.coefficient(0).terms
    if set(nf.coefficients) - {0} or set(diagonal) - {(0, ())}:
        raise ValueError(message)
    return complex(diagonal.get((0, ()), 0.0))


def normal_order(expr: Expr, K: SpectralFunction, *, memo: dict | None = None) -> NormalForm:
    """Compose an expression's canonical normal form over K's algebra.

    Scalar parameters (q, alpha, beta, gamma) take the values bound in K.
    Calls that pass one memo dict, all for expressions of this K, compose
    each product they share once.
    """
    return _normal_form(expr, K, {} if memo is None else memo)


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


def expr_to_matrix(expr: Expr, K: SpectralFunction, D: int, *, memo: dict | None = None) -> Band:
    """Evaluate an expression directly in the truncated representation.

    The leaves are the bands of build_rep and quadratures and the diagonal
    level_table(K, k, k + D - 1) of K(N+k); band products sum the entries
    numerically, so the result is independent of the contraction rule and
    serves as the oracle for normal-ordered realizations.  Calls that pass
    one memo dict, all for this K and D, build one representation and form
    each product they share once.
    """
    memo = {} if memo is None else memo
    if "rep" not in memo:  # before any band, so a representation error comes first
        rep = build_rep(K, D)
        memo["rep"] = (rep, quadratures(rep))
    rep, quads = memo["rep"]
    identity = Band.diagonal(np.ones(D))

    def leaf(node) -> Band:
        if isinstance(node, Sym):  # a, ad, N, x or p
            return getattr(quads if node.name in ("x", "p") else rep, "mat_" + node.name)
        return Band.diagonal(level_table(K, node.offset, node.offset + D - 1))

    return _evaluate(expr, K, lambda c: complex(c) * identity, leaf, memo)


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
