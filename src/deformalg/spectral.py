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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

__all__ = [
    "CaseId",
    "SpectralFunction",
    "DefiningRelation",
    "make_case",
    "eval_K",
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


@dataclass(frozen=True)
class SpectralFunction:
    """A deformation case with an evaluable spectral function K.

    Immutable; all evaluation is pure, so instances may be shared freely
    across threads.
    """

    case_id: CaseId
    q: Optional[float] = None
    alpha: Optional[float] = None
    beta: Optional[float] = None
    gamma: Optional[float] = None
    custom_eval: Optional[Callable[[float], float]] = field(default=None, repr=False)

    def __call__(self, n: float) -> float:
        return eval_K(self, n)

    def params(self) -> dict:
        """Present numeric parameters, in fixed (q, alpha, beta, gamma) order."""
        out = {}
        for name in ("q", "alpha", "beta", "gamma"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out


@dataclass(frozen=True)
class DefiningRelation:
    """Right-hand data of a defining relation  a a' - s * a'a = g(N)."""

    s: float
    g: Callable[[float], float] = field(repr=False)


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
    for name, value in (("q", q), ("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")

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
    of the spectrum.
    """
    case = K.case_id
    if case is CaseId.CLASSICAL:
        return float(n)

    if case is CaseId.CUSTOM:
        return float(K.custom_eval(n))

    if case is CaseId.NONLINEAR:
        return K.alpha * n * n + K.beta * n

    q = K.q
    if abs(q - 1.0) <= DEGENERATE_TOL:
        return float(n)
    d = math.log1p(q - 1.0)

    if case is CaseId.ARIK_COON:
        if abs(q - 1.0) < NEAR_SINGULAR:
            return math.expm1(n * d) / math.expm1(d)
        return (q**n - 1.0) / (q - 1.0)

    if case is CaseId.MACFARLANE_BIEDENHARN:
        if abs(q - 1.0) < NEAR_SINGULAR:
            return math.sinh(n * d) / math.sinh(d)
        return (q**n - q**-n) / (q - 1.0 / q)

    if case is CaseId.CHUNG:
        a, b = K.alpha, K.beta
        if abs(a - 1.0) <= DEGENERATE_TOL:
            return n * q ** (n - 1.0 + b)
        if abs((a - 1.0) * d) < NEAR_SINGULAR:
            return q ** (b + n - 1.0) * math.expm1((a - 1.0) * n * d) / math.expm1((a - 1.0) * d)
        return q**b * (q ** (a * n) - q**n) / (q**a - q)

    # Borzov family
    a, b, g = K.alpha, K.beta, K.gamma
    if abs(a - g) <= DEGENERATE_TOL:
        return n * q ** (g * (n - 1.0) + b)
    if abs((a - g) * d) < NEAR_SINGULAR:
        return q ** (b + g * (n - 1.0)) * math.expm1((a - g) * n * d) / math.expm1((a - g) * d)
    return q**b * (q ** (a * n) - q ** (g * n)) / (q**a - q**g)


def forward_delta(K: SpectralFunction, n: int) -> float:
    """K(n+1) - K(n): the eigenvalue of [a, a'] on level n."""
    return eval_K(K, n + 1) - eval_K(K, n)


def hamiltonian_eigenvalue(K: SpectralFunction, n: int) -> float:
    """(K(n) + K(n+1))/2: the level-n eigenvalue of H = x^2 + p^2."""
    return 0.5 * (eval_K(K, n) + eval_K(K, n + 1))


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
    defects = []
    for n in range(n_max + 1):
        up = eval_K(K, n + 1)
        down = rel.s * eval_K(K, n)
        rhs = rel.g(n)
        scale = max(1.0, abs(up), abs(down), abs(rhs))
        defects.append(abs(up - down - rhs) / scale)
    # np.max propagates NaN, where max() would drop it
    return float(np.max(defects))
