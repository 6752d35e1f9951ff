"""Spectral functions K(N) for deformed oscillator algebras.

A deformed oscillator algebra is fixed by a single real function K with
K(0) = 0 and K(n) > 0 for n >= 1: the ladder operators satisfy
a'a = K(N) and act on Fock states with sqrt(K) weights.  This module
collects the standard deformation families as evaluable spectral
functions together with their defining relations

    a a' - s * a'a = g(N)

and provides the per-level derived quantities (commutator step,
Hamiltonian eigenvalue) used throughout the package.

All q-dependent closed forms have removable singularities at q = 1 (and,
for the two-exponent families, at alpha = 1 or alpha = gamma).  Those
points are evaluated by exact limit branches, never by the raw quotient.

Every K value this module returns, through eval_K, level_table,
forward_delta or hamiltonian_eigenvalue, passes one finiteness rule: a
level that overflows float64 or is NaN raises ValueError
`K(n) of case ... overflows float64` or `K(n) of case ... is not finite`.
The table K(0..D+1) of a dimension-D representation also passes _rep_levels.
Only level_table and relation_residual import numpy, so the table and gup-scan
commands, which read K through _levels and _rep_levels, start without it.
SpectralFunction and DefiningRelation are NamedTuples, not dataclasses, to keep
dataclasses and the inspect modules it imports off the start-up path.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

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

# Within this distance of a removable singularity the raw quotients lose
# digits to cancellation and the expm1/sinh factored forms take over; away
# from it the direct powers are used (they are exact at exactly
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


_Q_CASES = (CaseId.ARIK_COON, CaseId.MACFARLANE_BIEDENHARN, CaseId.CHUNG, CaseId.BORZOV)


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
      K(n) = q^beta (q^(alpha n) - q^n)/(q^alpha - q), with the exact
      limit n q^(n-1+beta) at alpha = 1.
    * ``borzov``                 -- q > 0, real alpha, beta, gamma;
      K(n) = q^beta (q^(alpha n) - q^(gamma n))/(q^alpha - q^gamma), with
      the exact limit n q^(gamma (n-1) + beta) at alpha = gamma.
    * ``nonlinear``              -- alpha >= 0, beta > 0;
      K(n) = alpha n^2 + beta n.
    * ``custom``                 -- any callable with custom_eval(0) == 0;
      positivity up to the representation dimension is checked when a
      representation is built.

    Raises ValueError on out-of-domain or non-finite parameters.
    """
    case = CaseId(case_id)
    _require_finite(q=q, alpha=alpha, beta=beta, gamma=gamma)

    if case is CaseId.CLASSICAL:
        return SpectralFunction(case)

    if case in _Q_CASES:
        if q is None:
            raise ValueError(f"case {case.value!r} requires parameter q")
        if not q > 0:
            raise ValueError(f"q must be positive, got {q}")
        if case is CaseId.ARIK_COON or case is CaseId.MACFARLANE_BIEDENHARN:
            return SpectralFunction(case, q=float(q))
        if case is CaseId.CHUNG:
            if alpha is None or beta is None:
                raise ValueError("case 'chung' requires alpha and beta")
            return SpectralFunction(case, q=float(q), alpha=float(alpha), beta=float(beta))
        if alpha is None or beta is None or gamma is None:
            raise ValueError("case 'borzov' requires alpha, beta and gamma")
        return SpectralFunction(
            case, q=float(q), alpha=float(alpha), beta=float(beta), gamma=float(gamma)
        )

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


def _closed_form(K: SpectralFunction) -> Callable[[float], float]:
    """K's closed form as a function of the level, its branch and constants resolved once.

    Each constant is the value the expression would compute in place, so
    every level keeps its bits.
    """
    case = K.case_id
    if case is CaseId.CLASSICAL:
        return float

    if case is CaseId.CUSTOM:
        custom = K.custom_eval
        return lambda n: float(custom(n))

    if case is CaseId.NONLINEAR:
        al, be = K.alpha, K.beta
        return lambda n: al * n * n + be * n

    q = K.q
    if abs(q - 1.0) <= DEGENERATE_TOL:
        return float
    # q - 1.0 rounds to -1.0 below 2^-54, where log1p(-1) raises
    d = math.log1p(q - 1.0) if q - 1.0 != -1.0 else math.log(q)

    if case is CaseId.ARIK_COON:
        if abs(q - 1.0) < NEAR_SINGULAR:
            em1 = math.expm1(d)
            return lambda n: math.expm1(n * d) / em1
        qm1 = q - 1.0
        return lambda n: (q**n - 1.0) / qm1

    if case is CaseId.MACFARLANE_BIEDENHARN:
        if abs(q - 1.0) < NEAR_SINGULAR:
            sh = math.sinh(d)
            return lambda n: math.sinh(n * d) / sh
        bracket = q - 1.0 / q
        return lambda n: (q**n - q**-n) / bracket

    if case is CaseId.CHUNG:
        a, b = K.alpha, K.beta
        if abs(a - 1.0) <= DEGENERATE_TOL:
            return lambda n: n * q ** (n - 1.0 + b)
        if abs((a - 1.0) * d) < NEAR_SINGULAR:
            em1 = math.expm1((a - 1.0) * d)
            return lambda n: q ** (b + n - 1.0) * math.expm1((a - 1.0) * n * d) / em1
        qb, den = q**b, q**a - q
        return lambda n: qb * (q ** (a * n) - q**n) / den

    # Borzov family
    a, b, g = K.alpha, K.beta, K.gamma
    if abs(a - g) <= DEGENERATE_TOL:
        return lambda n: n * q ** (g * (n - 1.0) + b)
    if abs((a - g) * d) < NEAR_SINGULAR:
        em1 = math.expm1((a - g) * d)
        return lambda n: q ** (b + g * (n - 1.0)) * math.expm1((a - g) * n * d) / em1
    qb, den = q**b, q**a - q**g
    return lambda n: qb * (q ** (a * n) - q ** (g * n)) / den


def _levels(K: SpectralFunction, ns) -> list:
    """K at each n of ns, in order, from one closed form.

    The one reader behind every K value this module returns; raises
    level_table's ValueError at the first level that is not finite.
    """
    form = _closed_form(K)
    values = []
    try:
        for n in ns:
            values.append(form(n))
    except OverflowError:
        values.append(math.inf)  # stands for the level that raised
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
    """K(lo..hi) as a float array, each level evaluated once (empty when hi < lo).

    Raises ValueError naming the case and the first level where K is not
    finite: `K(n) of case ... overflows float64` when the closed form raises
    OverflowError or gives an inf, `K(n) of case ... is not finite` when it
    gives a NaN.
    """
    import numpy as np

    return np.array(_levels(K, range(lo, hi + 1)), dtype=float)


def _rep_levels(K: SpectralFunction, D: int, values: Optional[list] = None) -> list:
    """The checked levels K(0..D+1) of K's dimension-D representation.

    The one representation-level rule: D >= 4, since smaller dimensions leave
    no verification window, and D + 2 levels, finite, and >= 0 below D.  The
    levels are evaluated through level_table's reader unless given as values.
    """
    if D < 4:
        raise ValueError(f"representation dimension must be >= 4, got {D}")
    if values is None:
        values = _levels(K, range(D + 2))
    if len(values) != D + 2:
        raise ValueError(f"levels must be K(0..{D + 1}), got {len(values)} values")
    # a finite sum and a non-negative minimum mean valid levels; anything else costs the search
    if not math.isfinite(sum(values)) or min(values[:D]) < 0.0:
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
    if case is CaseId.ARIK_COON:
        return DefiningRelation(K.q, lambda n: 1.0)
    if case is CaseId.MACFARLANE_BIEDENHARN:
        q = K.q
        return DefiningRelation(q, lambda n: q ** (-n))
    if case is CaseId.CHUNG:
        q, a, b = K.q, K.alpha, K.beta
        return DefiningRelation(q, lambda n: q ** (a * n + b))
    if case is CaseId.BORZOV:
        q, a, b, g = K.q, K.alpha, K.beta, K.gamma
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
    levels = level_table(K, 0, n_max + 1).tolist()
    defects = []
    for n in range(n_max + 1):
        up, down, rhs = levels[n + 1], rel.s * levels[n], rel.g(n)
        defects.append(abs(up - down - rhs) / max(1.0, abs(up), abs(down), abs(rhs)))
    import numpy as np

    # np.max propagates NaN, where max() would drop it
    return float(np.max(defects))
