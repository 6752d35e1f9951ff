"""Symbolic normal ordering for deformed oscillator operator expressions.

Expressions over the alphabet

    a  ad  N  x  p  H  K(N+k)  q  alpha  beta  gamma  i  numerals

are parsed to a tree that nests only where the text nests: in brackets,
commutators and powers.  A run of signs is one Neg node, or none when it
holds an even count of '-'; a + and - chain is one Add, and a * and / chain
one Mul whose factors after the first are operands or Divisor nodes.  One
recursive evaluator, with one branch per node kind, gives every node its
meaning: a numeral or parameter is a multiple of the identity, a symbol or
K(N+k) a leaf operator, sums and products fold + and @ left to right (a
product divides at each Divisor), powers repeat @, and comm(A, B) is
A@B - B@A.  Division and negative powers are defined only by scalar
subexpressions (offset 0 with a constant coefficient).

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
need not mean equal polynomials in K's atoms.

One evaluator gives coefficients their values on levels: nf_equal's grid,
nf_to_matrix's columns and the levels a coefficient is called on.  Each call
of it evaluates one level table and each power N^j once, for all the
coefficients it is given, and reads every atom K(N+k) and power as a slice.

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
# Bounds on symbolic work: an exponent or a K shift above MAX_EXPONENT in size
# is a syntax error, and a composition that would multiply more than
# MAX_COMPOSED_MONOMIALS monomial pairs is refused before it starts.
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
class Divisor(Expr):
    operand: Expr  # a Mul factor after the first; must be scalar-valued


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

    def accept(self, ops: str):
        """The next token's operator, consumed, if it is one of ops; None otherwise."""
        kind, value, _ = self.peek()
        if kind == "op" and value in ops:
            self.pos += 1
            return value
        return None

    def expect(self, value: str, message: str = "") -> None:
        """Consume the next token; a syntax error at it unless it reads value."""
        _, text, position = self.advance()
        if text != value:
            raise ExprSyntaxError(message or f"expected {value!r}", position)

    def parse_side(self) -> Expr:
        """One whole expression; bracket nesting deeper than the interpreter
        stack allows is a syntax error at the token where it gave out."""
        try:
            return self.parse_expr()
        except RecursionError:
            raise ExprSyntaxError("expression nested too deeply", self.peek()[2]) from None

    def parse_expr(self) -> Expr:
        terms = [self.parse_term()]
        while op := self.accept("+-"):
            term = self.parse_term()
            terms.append(Neg(term) if op == "-" else term)
        return terms[0] if len(terms) == 1 else Add(tuple(terms))

    def parse_term(self) -> Expr:
        """A * and / chain as one Mul, each divisor a Divisor factor."""
        factors = [self.parse_unary()]
        while op := self.accept("*/"):
            factor = self.parse_unary()
            factors.append(factor if op == "*" else Divisor(factor))
        return factors[0] if len(factors) == 1 else Mul(tuple(factors))

    def parse_unary(self) -> Expr:
        """A run of signs as one Neg, or none when it holds an even count of '-'."""
        negate = False
        while op := self.accept("+-"):
            negate ^= op == "-"
        operand = self.parse_power()
        return Neg(operand) if negate else operand

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.accept("^") is None:
            return base
        return Pow(base, self.parse_int("exponent", self.accept("+-")))

    def parse_int(self, what: str, sign) -> int:
        """The integer numeral after an optional sign ('+', '-' or None), at
        most MAX_EXPONENT in size; a syntax error at the numeral otherwise."""
        kind, value, position = self.peek()
        if kind != "num" or value.imag != 0.0 or value.real != int(value.real):
            raise ExprSyntaxError(f"{what} must be an integer", position)
        if abs(value.real) > MAX_EXPONENT:
            raise ExprSyntaxError(f"{what} {int(value.real)} exceeds the cap {MAX_EXPONENT}", position)
        self.advance()
        return -int(value.real) if sign == "-" else int(value.real)

    def parse_atom(self) -> Expr:
        kind, value, position = self.advance()
        if kind == "num":
            return Num(value)
        if kind == "op" and value == "(":
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if kind == "name":
            if value == "i":
                return Num(1j)
            if value == "K":
                self.expect("(")
                self.expect("N", "K takes an argument of the form N+k")
                sign = self.accept("+-")
                offset = 0 if sign is None else self.parse_int("shift inside K", sign)
                self.expect(")")
                return KShift(offset)
            if value == "comm":
                self.expect("(")
                left = self.parse_expr()
                self.expect(",")
                right = self.parse_expr()
                self.expect(")")
                return Comm(left, right)
            if value in _OPERATOR_NAMES:
                return Sym(value)
            if value in _PARAMETER_NAMES:
                return Param(value)
            raise ExprSyntaxError(f"unknown identifier {value!r}", position)
        raise ExprSyntaxError("expected a value", position)


def _parse_sides(text: str, count: int) -> list:
    """count expressions separated by '==', then the end of the text."""
    parser = _Parser(_tokenize(text))
    sides = [parser.parse_side()]
    while len(sides) < count:
        parser.expect("==", "expected '==' between the two sides")
        sides.append(parser.parse_side())
    parser.expect("", "trailing input")
    return sides


def parse_expr(text: str) -> Expr:
    """Parse one expression in the operator grammar.

    Grammar: identifiers a, ad, N, x, p, H; K(N+k) with integer k;
    comm(A, B); named scalar parameters q, alpha, beta, gamma bound at
    normal-ordering time; i (or numeral suffix i) for the imaginary unit;
    operators + - * ^ with ^ binding tightest and products
    left-associative; / only by scalar-valued subexpressions; whitespace
    insensitive.
    """
    return _parse_sides(text, 1)[0]


def parse_identity(text: str) -> tuple[Expr, Expr]:
    """Parse an identity 'LHS == RHS' into its two sides."""
    lhs, rhs = _parse_sides(text, 2)
    return lhs, rhs


# ---------------------------------------------------------------------------
# Coefficient functions


class CoefficientFunction:
    """Polynomial in N and the spectral atoms K(N+k), with complex scalars.

    terms maps a monomial (j, ks), standing for N^j * prod(K(N+k) for k in
    ks) with ks sorted, to its scalar.  Like monomials merge, exact zeros
    drop and the monomials are kept sorted, so equal polynomials hold equal
    terms and evaluate to the same bits.  A negation or scalar multiple keeps
    the monomials as they are and drops only the scalars that become exact
    zeros; only a sum merges again.
    """

    __slots__ = ("K", "terms")

    def __init__(self, K: SpectralFunction, terms: Iterable = ()):
        merged: dict = {}
        for monomial, c in terms:
            merged[monomial] = merged[monomial] + c if monomial in merged else c
        self.K = K
        self.terms = {m: c for m, c in sorted(merged.items()) if c != 0}

    @classmethod
    def _of(cls, K: SpectralFunction, terms: dict) -> "CoefficientFunction":
        """The coefficient of terms already merged and sorted, with no exact zero,
        kept as they are."""
        c = object.__new__(cls)
        c.K = K
        c.terms = terms
        return c

    def __call__(self, n):
        """c(n) at an integer level n, or elementwise over an integer array n: the
        values on the levels min(n)..max(n), indexed."""
        ns = np.atleast_1d(n)
        lo, hi = (int(ns.min()), int(ns.max())) if ns.size else (0, -1)
        value = _on_levels(self.K, [(self, lo, hi)])[0][ns - lo]
        return complex(value[0]) if np.ndim(n) == 0 else value

    def _shifted(self, s: int) -> list:
        """The sorted terms of c(N+s), s != 0: K(N+k) -> K(N+k+s) and N^j -> (N+s)^j
        expanded, like monomials added in the order they come, exact zeros dropped."""
        merged: dict = {}
        for (j, ks), c in self.terms.items():
            ks = tuple(k + s for k in ks)
            for i in range(j + 1):
                value = c if i == j else c * (math.comb(j, i) * s ** (j - i))
                m = (i, ks)
                merged[m] = merged[m] + value if m in merged else value
        return [(m, c) for m, c in sorted(merged.items()) if c != 0]

    def __add__(self, other: "CoefficientFunction") -> "CoefficientFunction":
        return CoefficientFunction(self.K, [*self.terms.items(), *other.terms.items()])


def _on_levels(K: SpectralFunction, spans: list) -> list:
    """The values of each (coefficient, first, last) of K on the levels first..last.

    One level table spans every atom K(n+k) the coefficients read, and each
    power n**j is formed once over all their levels; every atom and power is
    read from them as a slice.  Each monomial is its power times its atoms in
    ks order, and the monomials are added in order to zeros.
    """
    reach = []  # the levels of the atoms of each nonempty span
    for c, first, last in spans:
        shifts = {k for _, ks in c.terms for k in ks}
        if shifts and first <= last:
            reach.append((first + min(shifts), last + max(shifts)))
    lo = min((first for first, _ in reach), default=0)
    table = level_table(K, lo, max((last for _, last in reach), default=-1))
    start = min((first for _, first, _ in spans), default=0)
    top = max((last for _, _, last in spans), default=-1)
    powers = _powers(np.arange(start, top + 1), {j for c, _, _ in spans for j, _ in c.terms})
    values = []
    for c, first, last in spans:
        total = np.zeros(last + 1 - first, dtype=complex)
        for (j, ks), scalar in c.terms.items():
            value = powers[j][first - start : last + 1 - start]
            for k in ks:
                value = value * table[first + k - lo : last + 1 + k - lo]
            total = total + scalar * value
        values.append(total)
    return values


def _powers(n: np.ndarray, exponents) -> dict:
    """j -> n**j over the integer array n for each j in exponents, formed in Python
    ints and rounded once to float."""
    exact = n.astype(object)
    return {j: (exact**j).astype(float) for j in exponents}


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
        """fn applied to every scalar: each coefficient keeps its merged, sorted
        monomials, less those whose scalar becomes an exact zero."""
        mapped = {d: {m: v for m, c in cf.terms.items() if (v := fn(c)) != 0} for d, cf in self.coefficients.items()}
        return NormalForm(self.K, {d: CoefficientFunction._of(self.K, terms) for d, terms in mapped.items()})

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
        when that would multiply more than MAX_COMPOSED_MONOMIALS monomial pairs.

        A pair's terms pass through three dicts, each merged as a
        CoefficientFunction merges (like monomials added in the order they
        come, exact zeros dropped before the next dict reads them): c1 shifted
        by d2; its product with c2, the crossed atoms joined into each monomial
        and each scalar then times 1.0, a full complex product, where atoms are
        crossed; and the running sum of offset d1+d2.  Only that sum becomes a
        CoefficientFunction, sorted once, with the bits a CoefficientFunction
        built at every step would hold.
        """
        if not isinstance(other, NormalForm):
            return NotImplemented
        self._same_algebra(other)
        count = math.prod(sum(len(c.terms) for c in nf.coefficients.values()) for nf in (self, other))
        if count > MAX_COMPOSED_MONOMIALS:
            raise ValueError(
                f"composition would multiply {count} monomial pairs, above the cap {MAX_COMPOSED_MONOMIALS}"
            )
        sums: dict = {}  # offset -> {monomial: scalar}, every scalar nonzero
        for d2, c2 in other.coefficients.items():
            right = c2.terms.items()
            for d1, c1 in self.coefficients.items():
                crossed = tuple(_crossed_levels(d1, d2))
                product: dict = {}
                for (j1, ks1), a in c1.terms.items() if d2 == 0 else c1._shifted(d2):
                    for (j2, ks2), b in right:
                        monomial = (j1 + j2, tuple(sorted(ks1 + ks2 + crossed)))
                        value = a * b
                        product[monomial] = product[monomial] + value if monomial in product else value
                total = sums.setdefault(d1 + d2, {})
                for monomial, value in product.items():
                    if value == 0:
                        continue
                    if crossed:
                        value = value * 1.0
                    if monomial in total:
                        value = total[monomial] + value
                        if value == 0:
                            del total[monomial]
                            continue
                    total[monomial] = value
        coefficients = {d: CoefficientFunction._of(self.K, dict(sorted(total.items()))) for d, total in sums.items()}
        return NormalForm(self.K, coefficients)


def _crossed_levels(d1: int, d2: int) -> range:
    """Offsets k with L^d1 L^d2 = L^(d1+d2) prod K(N+k), L^d = ad^d or a^-d."""
    if d2 < 0 < d1:
        return range(d2 + 1, d2 + min(-d2, d1) + 1)
    if d1 < 0 < d2:
        return range(d2 - min(d2, -d1) + 1, d2 + 1)
    return range(0)


def _evaluate(expr: Expr, K: SpectralFunction, scalar: Callable, leaf: Callable, memo: dict):
    """The operator an expression denotes, one branch per node kind: scalar(c)
    is c times the identity, leaf(node) the operator of a Sym or KShift node
    (H is evaluated as x*x + p*p), and every other node combines its
    children's with +, -, @ and / by a normal-form scalar, recursing as deep
    as the brackets, commutators and powers of the text.

    A Mul folds its factors left to right, dividing at each Divisor.  Every
    divisor is checked, the last one first, before any factor is evaluated.

    memo holds the leaves and products formed so far: a symbol's operator
    under its name, K(N+k) under k, and each product under the identities of
    its two factors, which the entry keeps alive.  So equal subexpressions
    form each product once per memo, and comm(A, B) shares A*B and B*A with
    those products written out.  Sums, negations and scalars seldom repeat and
    are formed where they appear.  Every value is the same left-to-right fold.
    """
    def matmul(left, right):
        key = (id(left), id(right))
        entry = memo.get(key)
        if entry is None:
            entry = memo[key] = (left @ right, left, right)
        return entry[0]

    def evaluate(node):
        if isinstance(node, Num):
            return scalar(node.value)
        if isinstance(node, Param):
            bound = K.params().get(node.name)
            if bound is None:
                raise ValueError(f"parameter {node.name!r} is not bound for this case")
            return scalar(bound)
        if isinstance(node, Sym):
            value = memo.get(node.name)
            if value is None:
                value = memo[node.name] = evaluate(_H_TERMS) if node.name == "H" else leaf(node)
            return value
        if isinstance(node, KShift):
            value = memo.get(node.offset)
            if value is None:
                value = memo[node.offset] = leaf(node)
            return value
        if isinstance(node, Neg):
            return -evaluate(node.operand)
        if isinstance(node, Add):
            return reduce(operator.add, map(evaluate, node.terms))
        if isinstance(node, Mul):
            divisors = []
            for factor in reversed(node.factors):
                if isinstance(factor, Divisor):
                    divisor = _scalar_value(factor.operand, K, "division is only defined by scalar expressions")
                    if divisor == 0:
                        raise ZeroDivisionError("division by zero scalar")
                    divisors.append(divisor)
            value = evaluate(node.factors[0])
            for factor in node.factors[1:]:
                value = value / divisors.pop() if isinstance(factor, Divisor) else matmul(value, evaluate(factor))
            return value
        if isinstance(node, Pow):
            if node.exponent < 0:
                base = _scalar_value(node.base, K, "negative powers are only defined for scalar expressions")
                # a complex power forms (1e160 + 0j)^2 as inf + nan*i; a real base's power stays real
                base = base.real if base.imag == 0.0 else base
                try:
                    return scalar(base**node.exponent)
                except (OverflowError, ZeroDivisionError):
                    # a nonzero complex base whose power underflows to 0 raises ZeroDivisionError too
                    failure = "divides by zero" if base == 0 else "overflows float64"
                    written = str(base).strip("()").replace("j", "i")  # as the expression writes it
                    raise ValueError(f"({written})^{node.exponent} {failure}") from None
            if node.exponent == 0:
                return scalar(1)
            return reduce(matmul, [evaluate(node.base)] * node.exponent)
        if isinstance(node, Comm):
            left, right = evaluate(node.left), evaluate(node.right)
            return matmul(left, right) - matmul(right, left)
        raise TypeError(f"unknown expression node {node!r}")  # pragma: no cover

    try:
        return evaluate(expr)
    finally:  # evaluate's cell holds evaluate: free the memo now, not at a GC pass
        del evaluate


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


def _case_memo(memo: dict | None, K: SpectralFunction, D: int | None) -> dict:
    """memo, or a new one, recording on first use the K and the band dimension D
    (None for normal forms) of its operators; a ValueError for any other pair."""
    memo = {} if memo is None else memo
    if memo.setdefault("case", (K, D)) != (K, D):
        raise ValueError("a memo holds the operators of one spectral function and one dimension")
    return memo


def normal_order(expr: Expr, K: SpectralFunction, *, memo: dict | None = None) -> NormalForm:
    """Compose an expression's canonical normal form over K's algebra.

    Scalar parameters (q, alpha, beta, gamma) take the values bound in K.
    Calls that pass one memo dict, all for expressions of this K, compose
    each product they share once; a memo first used for another K, or by
    expr_to_matrix, is a ValueError.
    """
    return _normal_form(expr, K, _case_memo(memo, K, None))


def nf_equal(
    lhs: NormalForm,
    rhs: NormalForm,
    tol: float = 1e-10,
) -> IdentityReport:
    """Decide equality of two normal forms of one K on the integer grid 0..GRID_MAX.

    For d < 0 the levels n < |d| are skipped (the ladder action vanishes
    there, so the coefficients are unconstrained).  The reported deviation
    is normalized per grid point by max(1, |lhs|, |rhs|); a NaN or inf
    deviation anywhere is reported and fails, by IdentityReport.judge's
    rule.  Every coefficient of both sides is evaluated in one call of the
    module's level evaluator, so no level K(n) and no power N^j is formed
    twice.
    """
    if lhs.K != rhs.K:
        raise ValueError("nf_equal compares normal forms of one spectral function")
    # an offset below -GRID_MAX has no level on the grid
    offsets = sorted(d for d in lhs.coefficients.keys() | rhs.coefficients.keys() if d >= -GRID_MAX)
    values = _on_levels(lhs.K, [(side.coefficient(d), max(0, -d), GRID_MAX) for d in offsets for side in (lhs, rhs)])
    deviations = [np.zeros(0)]
    for vl, vr in zip(values[::2], values[1::2]):
        deviations.append(np.abs(vl - vr) / np.maximum(np.maximum(1.0, np.abs(vl)), np.abs(vr)))
    # np.max propagates NaN, where max() would drop it and pass the check
    worst = float(np.max(np.concatenate(deviations), initial=0.0))
    return IdentityReport.judge("normal-form equality", GRID_MAX + 1, worst, tol)


def nf_to_matrix(nf: NormalForm, D: int) -> Band:
    """Realize a normal form as its D-dimensional truncated operator.

    Offset d of the band holds, in column n, c_d(n) times the entry of ad^d
    (d >= 0) or a^-d (d < 0) there, the product of the ladder roots
    sqrt(K(1..D-1)) of build_rep(nf.K, D) that the path crosses.  Every
    kept offset's coefficient is evaluated on its columns in one call of the
    module's level evaluator, so each level the coefficients read is
    evaluated once, beside the representation's K(0..D+1).
    """
    roots = np.sqrt(build_rep(nf.K, D).levels[1:D])  # roots[m] = sqrt(K(m + 1))
    offsets = [d for d in nf.coefficients if abs(d) < D]
    spans = [(nf.coefficients[d], max(0, -d), min(D, D - d) - 1) for d in offsets]
    diagonals = {}
    for d, (_, first, last), value in zip(offsets, spans, _on_levels(nf.K, spans)):
        cols = np.arange(first, last + 1)
        weight = np.ones(cols.size)
        for j in range(abs(d)):
            weight *= roots[cols + j if d > 0 else cols - j - 1]
        diagonals[d] = value * weight
    return Band(D, diagonals)


def expr_to_matrix(expr: Expr, K: SpectralFunction, D: int, *, memo: dict | None = None) -> Band:
    """Evaluate an expression directly in the truncated representation.

    The leaves are the bands of build_rep and quadratures and the diagonal
    level_table(K, k, k + D - 1) of K(N+k); band products sum the entries
    numerically, so the result is independent of the contraction rule and
    serves as the oracle for normal-ordered realizations.  Calls that pass
    one memo dict, all for this K and D, build one representation and form
    each product they share once; a memo first used for another K or D, or
    by normal_order, is a ValueError.
    """
    memo = _case_memo(memo, K, D)
    if "quads" not in memo:  # before any band, so a representation error comes first
        memo["quads"] = quadratures(build_rep(K, D))
    quads = memo["quads"]
    identity = Band.diagonal(np.ones(D))

    def leaf(node) -> Band:
        if isinstance(node, Sym):  # a, ad, N, x or p
            return getattr(quads if node.name in ("x", "p") else quads.rep, "mat_" + node.name)
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
