"""Symbolic normal ordering for deformed oscillator operator expressions.

Expressions over the alphabet

    a  ad  N  x  p  H  K(N+k)  q  alpha  beta  gamma  i  numerals

are parsed to an AST, the quadrature macros are expanded as

    x -> (ad + a)/2      p -> (i/2)(ad - a)      H -> x^2 + p^2

and every monomial word is rewritten to the canonical normal form by the
leftmost-innermost application of

    a  f(N) -> f(N+1) a        ad f(N) -> f(N-1) ad
    a  ad   -> K(N+1)          ad a    -> K(N)
    f(N) g(N) -> (f g)(N)

Each rule strictly decreases the measure (ladder letters, coefficient
atoms standing right of a ladder letter, word length) in lexicographic
order, so rewriting terminates; the contractions make any mixed ladder
block reducible, so the result is a sum of terms  c_d(n) . L^d  with a
single ladder direction per term.

A NormalForm maps the ladder offset d to the coefficient function c_d,
indexed by the source level: applied to |n>, the d-term contributes
c_d(n) times the pure ladder action (which vanishes for d < 0 when
n < |d|).  Coefficient functions are opaque evaluables closed under sum,
product, and integer shift; equality of normal forms is decided by
evaluation on an integer grid, which refutes soundly but certifies
equality only up to the grid (square roots of H-functions admit no
polynomial certificate, so a symbolic decision procedure is out of
scope).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .fockrep import IdentityReport, build_rep, commutator, quadratures
from .spectral import SpectralFunction, eval_K

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

DEFAULT_GRID_MAX = 24


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
    node = parser.parse_expr()
    kind, _, position = parser.peek()
    if kind != "end":
        raise ExprSyntaxError("trailing input", position)
    return node


def parse_identity(text: str) -> tuple[Expr, Expr]:
    """Parse an identity 'LHS == RHS' into its two sides."""
    parser = _Parser(_tokenize(text))
    lhs = parser.parse_expr()
    kind, _, position = parser.peek()
    if kind != "eq":
        raise ExprSyntaxError("expected '==' between the two sides", position)
    parser.advance()
    rhs = parser.parse_expr()
    kind, _, position = parser.peek()
    if kind != "end":
        raise ExprSyntaxError("trailing input", position)
    return lhs, rhs


# ---------------------------------------------------------------------------
# Coefficient functions


class CoefficientFunction:
    """Evaluable coefficient of N, closed under +, *, scalar and shift."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[float], complex]):
        self.fn = fn

    def __call__(self, n: float) -> complex:
        return complex(self.fn(n))

    @staticmethod
    def constant(c: complex) -> "CoefficientFunction":
        return CoefficientFunction(lambda n, c=complex(c): c)

    @staticmethod
    def level() -> "CoefficientFunction":
        return CoefficientFunction(lambda n: complex(n))

    @staticmethod
    def spectral(K: SpectralFunction, offset: int) -> "CoefficientFunction":
        return CoefficientFunction(lambda n, K=K, k=offset: complex(eval_K(K, n + k)))

    def shift(self, k: int) -> "CoefficientFunction":
        f = self.fn
        return CoefficientFunction(lambda n, f=f, k=k: f(n + k))

    def __add__(self, other: "CoefficientFunction") -> "CoefficientFunction":
        f, g = self.fn, other.fn
        return CoefficientFunction(lambda n, f=f, g=g: f(n) + g(n))

    def __mul__(self, other) -> "CoefficientFunction":
        f = self.fn
        if isinstance(other, CoefficientFunction):
            g = other.fn
            return CoefficientFunction(lambda n, f=f, g=g: f(n) * g(n))
        c = complex(other)
        return CoefficientFunction(lambda n, f=f, c=c: c * f(n))

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# Normal form


@dataclass(frozen=True)
class NormalForm:
    """Canonical form: ladder offset d -> coefficient function c_d.

    Applied to |n>, the d-term contributes c_d(n) times the pure ladder
    action on |n> (raising for d > 0, lowering for d < 0, identity for
    d = 0).  Coefficients are indexed by the source level n.
    """

    K: SpectralFunction
    coefficients: dict = field(repr=False)

    def support(self) -> tuple:
        return tuple(sorted(self.coefficients))

    def coefficient(self, d: int) -> CoefficientFunction:
        return self.coefficients.get(d, CoefficientFunction.constant(0.0))


# Word atoms for the rewriting engine: ("lad", +1) for ad, ("lad", -1)
# for a, ("fn", CoefficientFunction) for a diagonal factor.


def _expand(expr: Expr, K: SpectralFunction, params: dict) -> list:
    """Multilinear expansion into [(scalar, word)] with word a tuple of atoms."""
    if isinstance(expr, Num):
        return [(expr.value, ())]
    if isinstance(expr, Param):
        if expr.name not in params or params[expr.name] is None:
            raise ValueError(f"parameter {expr.name!r} is not bound for this case")
        return [(complex(params[expr.name]), ())]
    if isinstance(expr, Sym):
        name = expr.name
        if name == "a":
            return [(1.0 + 0.0j, (("lad", -1),))]
        if name == "ad":
            return [(1.0 + 0.0j, (("lad", +1),))]
        if name == "N":
            return [(1.0 + 0.0j, (("fn", CoefficientFunction.level()),))]
        if name == "x":
            return [(0.5 + 0.0j, (("lad", +1),)), (0.5 + 0.0j, (("lad", -1),))]
        if name == "p":
            return [(0.5j, (("lad", +1),)), (-0.5j, (("lad", -1),))]
        # H = x^2 + p^2
        return _expand(
            Add((Pow(Sym("x"), 2), Pow(Sym("p"), 2))), K, params
        )
    if isinstance(expr, KShift):
        return [(1.0 + 0.0j, (("fn", CoefficientFunction.spectral(K, expr.offset)),))]
    if isinstance(expr, Neg):
        return [(-c, w) for c, w in _expand(expr.operand, K, params)]
    if isinstance(expr, Add):
        out = []
        for term in expr.terms:
            out.extend(_expand(term, K, params))
        return _combine_words(out)
    if isinstance(expr, Mul):
        out = [(1.0 + 0.0j, ())]
        for factor in expr.factors:
            expanded = _expand(factor, K, params)
            out = [(c1 * c2, w1 + w2) for c1, w1 in out for c2, w2 in expanded]
        return _combine_words(out)
    if isinstance(expr, Pow):
        if expr.exponent < 0:
            scalar = _scalar_value(expr.base, K, params)
            if scalar is None:
                raise ValueError("negative powers are only defined for scalar expressions")
            return [(scalar**expr.exponent, ())]
        out = [(1.0 + 0.0j, ())]
        base = _expand(expr.base, K, params)
        for _ in range(expr.exponent):
            out = [(c1 * c2, w1 + w2) for c1, w1 in out for c2, w2 in base]
        return _combine_words(out)
    if isinstance(expr, Div):
        scalar = _scalar_value(expr.denominator, K, params)
        if scalar is None:
            raise ValueError("division is only defined by scalar expressions")
        if scalar == 0:
            raise ZeroDivisionError("division by zero scalar")
        return [(c / scalar, w) for c, w in _expand(expr.numerator, K, params)]
    if isinstance(expr, Comm):
        ab = _expand(Mul((expr.left, expr.right)), K, params)
        ba = _expand(Mul((expr.right, expr.left)), K, params)
        return _combine_words(ab + [(-c, w) for c, w in ba])
    raise TypeError(f"unknown expression node {expr!r}")  # pragma: no cover


def _scalar_value(expr: Expr, K: SpectralFunction, params: dict) -> Optional[complex]:
    """Numeric value of a scalar subexpression, or None if operator-valued."""
    terms = _expand(expr, K, params)
    total = 0.0 + 0.0j
    for c, w in terms:
        if w:
            return None
        total += c
    return total


def _combine_words(terms: list) -> list:
    """Merge identical words (scalar coefficients add; exact zeros drop).

    Words containing coefficient-function atoms are kept apart (function
    identity is not decidable), which only costs redundancy, not
    correctness.
    """
    merged = {}
    rest = []
    for c, w in terms:
        if any(kind == "fn" for kind, _ in w):
            rest.append((c, w))
        else:
            merged[w] = merged.get(w, 0.0) + c
    out = [(c, w) for w, c in merged.items() if c != 0.0]
    out.extend(rest)
    return out


def rewrite_measure(word: list) -> tuple:
    """Termination measure of the rewrite system, strictly decreasing
    lexicographically under every rule.

    Components: ladder letters (contractions remove two), coefficient
    atoms standing right of a ladder letter counted with multiplicity
    (shifts fix one adjacent inversion), word length (merges shorten).
    """
    ladders = sum(1 for kind, _ in word if kind == "lad")
    inversions = 0
    seen_ladders = 0
    for kind, _ in word:
        if kind == "lad":
            seen_ladders += 1
        else:
            inversions += seen_ladders
    return (ladders, inversions, len(word))


def _reduce_word(word: list, K: SpectralFunction, trace: Optional[list] = None) -> tuple:
    """Rewrite one word to (coefficient function | None, ladder offset d).

    Applies the leftmost applicable rule and rescans; rewrite_measure
    strictly decreases at each step (pass `trace` to record the
    intermediate words).
    """
    w = list(word)
    if trace is not None:
        trace.append(list(w))
    i = 0
    while i < len(w) - 1:
        (k1, v1), (k2, v2) = w[i], w[i + 1]
        if k1 == "lad" and k2 == "fn":
            # a f(N) -> f(N+1) a ; ad f(N) -> f(N-1) ad
            w[i], w[i + 1] = ("fn", v2.shift(-v1)), (k1, v1)
        elif k1 == "lad" and k2 == "lad" and v1 != v2:
            if v1 < 0:  # a ad -> K(N+1)
                w[i : i + 2] = [("fn", CoefficientFunction.spectral(K, 1))]
            else:  # ad a -> K(N)
                w[i : i + 2] = [("fn", CoefficientFunction.spectral(K, 0))]
        elif k1 == "fn" and k2 == "fn":
            w[i : i + 2] = [("fn", v1 * v2)]
        else:
            i += 1
            continue
        if trace is not None:
            trace.append(list(w))
        i = max(i - 1, 0)
    fn = None
    d = 0
    for kind, value in w:
        if kind == "fn":
            fn = value if fn is None else fn * value  # only reachable as leftmost atom
        else:
            d += value
    return fn, d


def normal_order(
    expr: Expr, K: SpectralFunction, params: Optional[dict] = None
) -> NormalForm:
    """Rewrite an expression to canonical normal form over K's algebra.

    Scalar parameters (q, alpha, beta, gamma) default to the values bound
    in K; pass `params` to override or extend.
    """
    bound = dict(K.params())
    if params:
        bound.update(params)
    coefficients: dict = {}
    for scalar, word in _expand(expr, K, bound):
        fn, d = _reduce_word(list(word), K)
        # convert the left-applied diagonal g(N) L^d to source indexing
        if fn is None:
            contrib = CoefficientFunction.constant(scalar)
        else:
            contrib = fn.shift(d) * scalar
        if d in coefficients:
            coefficients[d] = coefficients[d] + contrib
        else:
            coefficients[d] = contrib
    return NormalForm(K=K, coefficients=coefficients)


def nf_equal(
    lhs: NormalForm,
    rhs: NormalForm,
    n_max: int = DEFAULT_GRID_MAX,
    tol: float = 1e-10,
    name: str = "normal-form equality",
) -> IdentityReport:
    """Decide equality of two normal forms on the integer grid 0..n_max.

    For d < 0 the levels n < |d| are skipped (the ladder action vanishes
    there, so the coefficients are unconstrained).  The reported deviation
    is normalized per grid point by max(1, |lhs|, |rhs|); a NaN deviation
    anywhere is reported and fails.
    """
    if n_max < 8:
        raise ValueError(f"n_max must be >= 8, got {n_max}")
    deviations = []
    for d in set(lhs.support()) | set(rhs.support()):
        cl = lhs.coefficient(d)
        cr = rhs.coefficient(d)
        for n in range(max(0, -d), n_max + 1):
            vl, vr = cl(n), cr(n)
            deviations.append(abs(vl - vr) / max(1.0, abs(vl), abs(vr)))
    # np.max propagates NaN, where max() would drop it and pass the check
    worst = float(np.max(deviations, initial=0.0))
    return IdentityReport(
        name=name,
        window=n_max + 1,
        max_abs_residual=worst,
        tol=tol,
        passed=math.isfinite(worst) and worst <= tol,
    )


def _ladder_weight(K: SpectralFunction, n: int, d: int) -> float:
    """sqrt-product weight of the pure ladder L^d applied to |n>."""
    prod = 1.0
    if d >= 0:
        for j in range(1, d + 1):
            prod *= eval_K(K, n + j)
    else:
        for j in range(0, -d):
            prod *= eval_K(K, n - j)
    if prod < 0.0:
        raise ValueError(f"negative spectral values under the ladder weight at level {n}")
    return math.sqrt(prod)


def nf_to_matrix(nf: NormalForm, D: int) -> np.ndarray:
    """Realize a normal form as its D-dimensional truncated matrix."""
    if D < 4:
        raise ValueError(f"dimension must be >= 4, got {D}")
    M = np.zeros((D, D), dtype=complex)
    for d, cfn in nf.coefficients.items():
        lo = max(0, -d)
        for n in range(lo, D):
            m = n + d
            if not 0 <= m < D:
                continue
            M[m, n] += cfn(n) * _ladder_weight(nf.K, n, d)
    return M


def expr_to_matrix(
    expr: Expr, K: SpectralFunction, D: int, params: Optional[dict] = None
) -> np.ndarray:
    """Evaluate an expression directly in the truncated matrix representation.

    Independent of the rewriting engine: symbols map to truncated
    matrices and the AST is evaluated with matrix arithmetic.  Used as the
    oracle against which normal-ordered realizations are cross-checked.
    """
    bound = dict(K.params())
    if params:
        bound.update(params)
    rep = build_rep(K, D)
    quads = quadratures(rep)
    identity = np.eye(D, dtype=complex)

    def ev(node: Expr) -> np.ndarray:
        if isinstance(node, Num):
            return node.value * identity
        if isinstance(node, Param):
            if node.name not in bound or bound[node.name] is None:
                raise ValueError(f"parameter {node.name!r} is not bound for this case")
            return complex(bound[node.name]) * identity
        if isinstance(node, Sym):
            # operators are formed on first use: H only for expressions that name it
            owner = quads if node.name in ("x", "p", "H") else rep
            return getattr(owner, "mat_" + node.name)
        if isinstance(node, KShift):
            return np.diag([eval_K(K, n + node.offset) for n in range(D)]).astype(complex)
        if isinstance(node, Neg):
            return -ev(node.operand)
        if isinstance(node, Add):
            total = np.zeros((D, D), dtype=complex)
            for term in node.terms:
                total += ev(term)
            return total
        if isinstance(node, Mul):
            out = identity
            for factor in node.factors:
                out = out @ ev(factor)
            return out
        if isinstance(node, Pow):
            if node.exponent < 0:
                scalar = _scalar_value(node.base, K, bound)
                if scalar is None:
                    raise ValueError("negative powers are only defined for scalar expressions")
                return scalar**node.exponent * identity
            out = identity
            base = ev(node.base)
            for _ in range(node.exponent):
                out = out @ base
            return out
        if isinstance(node, Div):
            scalar = _scalar_value(node.denominator, K, bound)
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
