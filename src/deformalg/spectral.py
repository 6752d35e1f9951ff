"""Spectral functions K(N) for deformed oscillator algebras.

A deformed oscillator algebra is fixed by a single real function K with
K(0) = 0 and K(n) > 0 for n >= 1: the ladder operators satisfy
a'a = K(N) and act on Fock states with sqrt(K) weights.  This module
collects the standard deformation families as evaluable spectral
functions together with their defining relations

    a a' - s * a'a = g(N)

and provides the per-level derived quantities (commutator step,
Hamiltonian eigenvalue) used throughout the package.

The four q-cases are one two-base family (Daskaloyannis' generalized oscillator),
K(n) = q^beta (q^(alpha n) - q^(gamma n))/(q^alpha - q^gamma) with s = q^gamma and
g(n) = q^(alpha n + beta); _EXPONENTS holds each case's (alpha, gamma, beta).

All q-dependent closed forms have removable singularities at q = 1 (and,
for the two-exponent families, at alpha = 1 or alpha = gamma).  Those
points are evaluated by exact limit branches, never by the raw quotient.
Away from q = 1 arik-coon and macfarlane-biedenharn take their direct
brackets; every other q-case level comes from one factored two-base form,
which cancels no digits and raises only where the level overflows.
A level whose value lies below the float range reads 0, so a float table
promises only K(n) >= 0 for n >= 1.

Every K value this module returns, through eval_K, level_table,
forward_delta or hamiltonian_eigenvalue, passes one finiteness rule: a
level that overflows float64 or is NaN raises ValueError
`K(n) of case ... overflows float64` or `K(n) of case ... is not finite`.
They read K through _levels, which makes one call of the closed form per
table and evaluates each level once, except after an OverflowError, when it
evaluates the levels again one by one: a level whose one-base bracket power
overflows is read in the factored form, and the first level that still raises
is named.  So each level's value depends only on K and n.
The table K(0..D+1) of a dimension-D representation also passes _rep_levels.
Only level_table imports numpy, so the table and gup-scan commands, which
read K through _levels and _rep_levels, start without it.
SpectralFunction and DefiningRelation are NamedTuples, not dataclasses, to keep
dataclasses and the inspect modules it imports off the start-up path.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CaseId",
    "SpectralFunction",
    "DefiningRelation",
    "make_case",
    "eval_K",
    "level_table",
    "forward_delta",
    "hamiltonian_eigenvalue",
    "defining_relation",
    "relation_residual",
]

# Closed forms are continued through their removable singularities once the
# defining parameter is within this distance of the singular point.
DEGENERATE_TOL = 1e-12

# Within this distance of q = 1 the arik-coon and macfarlane-biedenharn
# brackets lose digits to cancellation and the factored two-base form takes
# over; away from it they take the direct powers (exact at exactly
# representable points such as integer q-brackets).
NEAR_SINGULAR = 1e-3

# Representation and command-line defaults.
DEFAULT_DIM = 32
DEFAULT_MARGIN = 3
DEFAULT_TOL = 1e-10


class CaseId(str, Enum):
    """Catalog of deformation families (plus user-supplied spectra)."""

    CLASSICAL = "classical"
    ARIK_COON = "arik-coon"
    MACFARLANE_BIEDENHARN = "macfarlane-biedenharn"
    CHUNG = "chung"
    BORZOV = "borzov"
    NONLINEAR = "nonlinear"
    CUSTOM = "custom"


# (alpha, gamma, beta) of each q-case's two-base form: a number, or the name of the case's parameter
_EXPONENTS = {
    CaseId.ARIK_COON: (0.0, 1.0, 0.0),
    CaseId.MACFARLANE_BIEDENHARN: (-1.0, 1.0, 0.0),
    CaseId.CHUNG: ("alpha", 1.0, "beta"),
    CaseId.BORZOV: ("alpha", "gamma", "beta"),
}
# the parameters each q-case requires besides q, in params() order: the names among its exponents
_REQUIRED = {case: tuple(sorted(e for e in exps if isinstance(e, str))) for case, exps in _EXPONENTS.items()}


class SpectralFunction(NamedTuple):
    """A deformation case with an evaluable spectral function K.

    Immutable; all evaluation is pure, so instances may be shared freely
    across threads.
    """

    case_id: CaseId
    q: Optional[float] = None
    alpha: Optional[float] = None
    beta: Optional[float] = None
    gamma: Optional[float] = None
    custom_eval: Optional[Callable[[float], float]] = None

    def __repr__(self) -> str:
        # custom_eval is left out: a function's repr holds its address, and test ids read str(K)
        return (
            f"SpectralFunction(case_id={self.case_id!r}, q={self.q!r}, alpha={self.alpha!r}, "
            f"beta={self.beta!r}, gamma={self.gamma!r})"
        )

    def params(self) -> dict:
        """Present numeric parameters, in fixed (q, alpha, beta, gamma) order."""
        out = {}
        for name in ("q", "alpha", "beta", "gamma"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out


class DefiningRelation(NamedTuple):
    """Right-hand data of a defining relation  a a' - s * a'a = g(N)."""

    s: float
    g: Callable[[float], float]

    def __repr__(self) -> str:
        # g is left out: a function's repr holds its address
        return f"DefiningRelation(s={self.s!r})"


def _require_finite(**params) -> None:
    """Raise ValueError naming the first given parameter that is not finite; None is not given."""
    for name, value in params.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def make_case(
    case_id: CaseId | str,
    q: Optional[float] = None,
    alpha: Optional[float] = None,
    beta: Optional[float] = None,
    gamma: Optional[float] = None,
    custom_eval: Optional[Callable[[float], float]] = None,
) -> SpectralFunction:
    """Build a validated spectral function for one deformation case.

    Parameter requirements per case:

    * ``classical``              -- no parameters; K(n) = n.
    * ``arik-coon``              -- q > 0; K(n) = (q^n - 1)/(q - 1).
    * ``macfarlane-biedenharn``  -- q > 0; symmetric bracket
      K(n) = (q^n - q^-n)/(q - q^-1).
    * ``chung``                  -- q > 0, real alpha, beta;
      K(n) = q^beta (q^(alpha n) - q^n)/(q^alpha - q), borzov at gamma = 1,
      with the exact limit n q^(n-1+beta) at alpha = 1.
    * ``borzov``                 -- q > 0, real alpha, beta, gamma;
      K(n) = q^beta (q^(alpha n) - q^(gamma n))/(q^alpha - q^gamma), with
      the exact limit n q^(gamma (n-1) + beta) at alpha = gamma.
    * ``nonlinear``              -- alpha >= 0, beta > 0;
      K(n) = alpha n^2 + beta n.
    * ``custom``                 -- any callable with custom_eval(0) == 0;
      positivity up to the representation dimension is checked when a
      representation is built.

    The four q-cases evaluate at any q > 0, in the forms _closed_form names.

    Raises ValueError on out-of-domain or non-finite parameters.
    """
    case = case_id if isinstance(case_id, CaseId) else CaseId(case_id)
    _require_finite(q=q, alpha=alpha, beta=beta, gamma=gamma)

    if case is CaseId.CLASSICAL:
        return SpectralFunction(case)

    required = _REQUIRED.get(case)
    if required is not None:
        if q is None:
            raise ValueError(f"case {case.value!r} requires parameter q")
        if not q > 0:
            raise ValueError(f"q must be positive, got {q}")
        if not required:
            return SpectralFunction(case, q=float(q))
        given = {"alpha": alpha, "beta": beta, "gamma": gamma}
        if None in map(given.get, required):
            raise ValueError(f"case {case.value!r} requires {', '.join(required[:-1])} and {required[-1]}")
        return SpectralFunction(case, q=float(q), **{name: float(given[name]) for name in required})

    if case is CaseId.NONLINEAR:
        if alpha is None or beta is None:
            raise ValueError("case 'nonlinear' requires alpha and beta")
        if alpha < 0:
            raise ValueError(f"nonlinear spectrum requires alpha >= 0, got {alpha}")
        if not beta > 0:
            raise ValueError(f"nonlinear spectrum requires beta > 0, got {beta}")
        return SpectralFunction(case, alpha=float(alpha), beta=float(beta))

    if case is CaseId.CUSTOM:
        if custom_eval is None:
            raise ValueError("case 'custom' requires custom_eval")
        if custom_eval(0.0) != 0.0:
            raise ValueError("custom spectral function must satisfy K(0) = 0")
        return SpectralFunction(case, custom_eval=custom_eval)

    raise ValueError(f"unknown case {case_id!r}")  # pragma: no cover


def eval_K(K: SpectralFunction, n: float) -> float:
    """Evaluate the spectral function at a real argument.

    Negative arguments are permitted: the closed forms extend smoothly
    below zero, which the Lie-Hamilton coefficients rely on at the bottom
    of the spectrum.  Raises level_table's ValueError when K(n) overflows
    float64 or is NaN.
    """
    return _levels(K, (n,))[0]


def _exponents(K: SpectralFunction) -> tuple:
    """(alpha, gamma, beta) of a q-case's two-base form, with K's parameters filled in."""
    return tuple(getattr(K, e) if isinstance(e, str) else e for e in _EXPONENTS[K.case_id])


def _factored(K: SpectralFunction) -> Callable[[Sequence[float]], list]:
    """K's two-base form with the larger power of each level taken out, as a function of a level sequence.

    With hi the exponent of the larger of q^(alpha n) and q^(gamma n) at n > 0, lo the other
    and x = (lo - hi) ln q < 0, K(n) is q^(beta + hi (n - 1)) expm1(x n)/expm1(x) at n > 0 and
    -q^(beta + lo n - hi) expm1(-x n)/expm1(x) at n < 0.  Every expm1 argument is <= 0, so each
    level is at least its prefactor and raises OverflowError only where its value overflows.
    """
    q, (a, g, b) = K.q, _exponents(K)
    # below q = 0.5, q - 1.0 rounds away low bits of q, so math.log reads q itself
    d = math.log1p(q - 1.0) if q >= 0.5 else math.log(q)
    lo, hi = (a, g) if (a - g) * d < 0.0 else (g, a)
    x = (lo - hi) * d
    em1 = math.expm1(x)
    return lambda ns: [
        q ** (b + hi * (n - 1.0)) * math.expm1(x * n) / em1 if n > 0
        else -(q ** (b + lo * n - hi)) * math.expm1(-x * n) / em1 if n else 0.0
        for n in ns
    ]


def _closed_form(K: SpectralFunction) -> Callable[[Sequence[float]], list]:
    """K's closed form as a function of a level sequence, its branch and constants resolved once.

    Each branch builds the list of K at every level in one expression, and each constant is
    the value the expression would compute in place.  A power of the direct arik-coon or
    macfarlane-biedenharn bracket can raise OverflowError where its level is finite; _levels
    reads that level from _factored.
    """
    case = K.case_id
    if case is CaseId.CLASSICAL:
        return lambda ns: list(map(float, ns))

    if case is CaseId.CUSTOM:
        custom = K.custom_eval
        return lambda ns: [float(custom(n)) for n in ns]

    if case is CaseId.NONLINEAR:
        al, be = K.alpha, K.beta
        return lambda ns: [al * n * n + be * n for n in ns]

    q = K.q
    if abs(q - 1.0) <= DEGENERATE_TOL:
        return lambda ns: list(map(float, ns))
    # away from q = 1 the one-base brackets take the direct powers and need no log q
    if case is CaseId.ARIK_COON and abs(q - 1.0) >= NEAR_SINGULAR:
        qm1 = q - 1.0
        return lambda ns: [(q**n - 1.0) / qm1 for n in ns]
    if case is CaseId.MACFARLANE_BIEDENHARN and abs(q - 1.0) >= NEAR_SINGULAR:
        bracket = q - 1.0 / q
        return lambda ns: [(q**n - q**-n) / bracket for n in ns]

    a, g, b = _exponents(K)
    if abs(a - g) <= DEGENERATE_TOL:
        return lambda ns: [n * q ** (g * (n - 1.0) + b) for n in ns]
    return _factored(K)


def _levels(K: SpectralFunction, ns) -> list:
    """K at each n of ns, in order, from one call of the closed form.

    The one reader behind every K value this module returns, and the only place
    that catches OverflowError; raises level_table's ValueError at the first
    level that is not finite.  Each level is evaluated once, except after an
    OverflowError, when the levels are evaluated again one by one: an arik-coon
    or macfarlane-biedenharn level whose direct power raises is read from
    _factored, and the first level that still raises is named.
    """
    form = _closed_form(K)
    try:
        values = form(ns)
    except OverflowError:
        # a one-base bracket's power can overflow where its level does not: that level reads _factored
        one_base = K.case_id in (CaseId.ARIK_COON, CaseId.MACFARLANE_BIEDENHARN)
        forms = (form, _factored(K)) if one_base else (form,)
        values = []
        for n in ns:
            for each in forms:
                try:
                    values.append(each((n,))[0])
                    break
                except OverflowError:
                    pass
            else:
                values.append(math.inf)  # stands for the level that raised
                break
    # a finite sum means finite levels; one that overflows only costs the search
    if not math.isfinite(sum(values)):
        for n, k in zip(ns, values):
            if not math.isfinite(k):
                params = ", ".join(f"{name}={value!r}" for name, value in K.params().items())
                where = f" ({params})" if params else ""
                what = "is not finite" if math.isnan(k) else "overflows float64"
                raise ValueError(f"K({n}) of case {K.case_id.value!r}{where} {what}")
    return values


def level_table(K: SpectralFunction, lo: int, hi: int) -> np.ndarray:
    """K(lo..hi) as a float array, from one call of the closed form (empty when hi < lo).

    Each level is evaluated once, except after an OverflowError, as _levels says.

    Raises ValueError naming the case and the first level where K is not
    finite: `K(n) of case ... overflows float64` when the closed form raises
    OverflowError or gives an inf, `K(n) of case ... is not finite` when it
    gives a NaN.
    """
    import numpy as np

    return np.array(_levels(K, range(lo, hi + 1)), dtype=float)


def _require_dimension(D: int) -> None:
    """The dimension rule of a representation: D >= 4, since smaller dimensions
    leave no verification window.  A reader that reads the levels itself checks it
    before the first read."""
    if D < 4:
        raise ValueError(f"representation dimension must be >= 4, got {D}")


def _rep_levels(K: SpectralFunction, D: int, values: Optional[list] = None) -> list:
    """The checked levels K(0..D+1) of K's dimension-D representation.

    The one representation-level rule: the dimension rule of
    _require_dimension, and D + 2 levels, finite, and >= 0 below D.  The
    levels are evaluated through level_table's reader, which has found them
    finite, unless given as values, whose sum is checked instead.
    """
    _require_dimension(D)
    found_finite = values is None
    if found_finite:
        values = _levels(K, range(D + 2))
    if len(values) != D + 2:
        raise ValueError(f"levels must be K(0..{D + 1}), got {len(values)} values")
    # finite levels with a non-negative minimum are valid; anything else costs the search
    if not (found_finite or math.isfinite(sum(values))) or min(values[:D]) < 0.0:
        for n, value in enumerate(values):
            if not (math.isfinite(value) and (value >= 0.0 or n >= D)):
                raise ValueError(f"K({n}) = {value}: levels must be finite, and >= 0 below D = {D}")
    return values


def forward_delta(K: SpectralFunction, n: int) -> float:
    """K(n+1) - K(n): the eigenvalue of [a, a'] on level n."""
    k0, k1 = _levels(K, (n, n + 1))
    return k1 - k0


def hamiltonian_eigenvalue(K: SpectralFunction, n: int) -> float:
    """(K(n) + K(n+1))/2: the level-n eigenvalue of H = x^2 + p^2."""
    k0, k1 = _levels(K, (n, n + 1))
    return 0.5 * (k0 + k1)


def defining_relation(K: SpectralFunction) -> DefiningRelation:
    """The catalog defining relation paired with this case.

    Raises ValueError for custom spectra, which carry no canonical
    relation.
    """
    case = K.case_id
    if case is CaseId.CLASSICAL:
        return DefiningRelation(1.0, lambda n: 1.0)
    if case in _EXPONENTS:
        q, (a, g, b) = K.q, _exponents(K)
        return DefiningRelation(q**g, lambda n: q ** (a * n + b))
    if case is CaseId.NONLINEAR:
        a, b = K.alpha, K.beta
        return DefiningRelation(1.0, lambda n: 2.0 * a * n + a + b)
    raise ValueError("custom spectral functions have no catalog defining relation")


def relation_residual(K: SpectralFunction, rel: DefiningRelation, n_max: int) -> float:
    """Worst normalized defect of  K(n+1) - s K(n) - g(n)  over n = 0..n_max.

    The defect at each level is divided by max(1, |K(n+1)|, |s K(n)|,
    |g(n)|) so that the result is a relative measure: fast-growing spectra
    (q well above 1) would otherwise drown an exact identity in float64
    rounding of its large terms.  A NaN defect at any level returns NaN.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    levels = _levels(K, range(n_max + 2))
    defects = []
    for n in range(n_max + 1):
        up, down, rhs = levels[n + 1], rel.s * levels[n], rel.g(n)
        defects.append(abs(up - down - rhs) / max(1.0, abs(up), abs(down), abs(rhs)))
    # max() would drop a NaN
    return math.nan if any(map(math.isnan, defects)) else max(defects)
