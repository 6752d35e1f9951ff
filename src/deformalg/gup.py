"""Generalized uncertainty bounds, diagnostics and spectrum inversions.

The operative uncertainty bound everywhere in this package is the
Robertson bound

    dx dp >= |<[x, p]>| / 2,

which for a deformed oscillator equals <K(N+1) - K(N)>/4 on diagonal
states; uncertainty_report evaluates it from the moments of the state.
Alongside it, reports carry a quadratic diagnostic

    (<K(N)>^2 + <K(N+1)>^2) / 4

read from the representation's level table, which is NOT a valid lower
bound: already the classical n = 1 number state has product 3/4 against
a diagnostic value of 5/4.  The violation is surfaced in the report
(square_sum_violated) instead of being hidden; plausible corrected forms
are discussed in the README.

Case-specific bounds (geometric, symmetric-bracket and quadratic
spectra) are closed forms evaluated literally on the supplied state, the
symmetric one through its fourth moment <H^2> = |x(x psi) + p(p psi)|^2,
so no fourth-order operator is formed; their margins may be negative
where the derivations involved
small-deformation approximations, and the suite records those sign
findings rather than presuming them.

Numerical domain note: inverting the geometric spectrum at q < 1 reads n
from 1 - (1-q) h, which saturates geometrically at h -> 1/(1-q).  In
float64 the level information is exhausted near n ~ log(eps)/log(q) / 2;
beyond that no algorithm can recover n from a rounded h (about n = 14
for q = 0.3).  The other inversions do not saturate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fockrep import (
    FockRep,
    QuadratureMoments,
    QuadratureSet,
    StateVector,
    kempf_rescale,
    uncertainty_product,
)
from .spectral import DEGENERATE_TOL, CaseId, SpectralFunction

__all__ = [
    "UncertaintyReport",
    "square_sum_bound",
    "uncertainty_report",
    "invert_number_geometric",
    "invert_number_symmetric",
    "invert_number_quadratic",
    "kempf_rescale",
    "case_bound",
]

VIOLATION_TOL = 1e-12


@dataclass(frozen=True)
class UncertaintyReport:
    """Bound evaluations for one state.

    margin_robertson = product - robertson_bound (>= -1e-12 always, by
    the Robertson theorem); margin_case is present only when a
    case-specific bound applies.  square_sum_violated flags states whose
    product falls below the quadratic diagnostic.
    """

    delta_x: float
    delta_p: float
    product: float
    robertson_bound: float
    square_sum_bound: float
    square_sum_violated: bool
    margin_robertson: float
    case_bound: Optional[float] = None
    margin_case: Optional[float] = None


def square_sum_bound(state: StateVector, rep: FockRep) -> float:
    """Quadratic diagnostic (<K(N)>^2 + <K(N+1)>^2)/4.

    Computed from diagonal expectations over the level table, summed in
    level order; returned for comparison only.  It exceeds the true
    product for low-lying states (see module docstring) and must not be
    used as a bound.
    """
    weights = np.abs(state.amplitudes) ** 2
    dim = weights.shape[0]
    kn = float(sum(weights * rep.levels[:dim]))
    knp1 = float(sum(weights * rep.levels[1 : dim + 1]))
    return 0.25 * (kn * kn + knp1 * knp1)


def uncertainty_report(state: StateVector, rep: FockRep, quads: QuadratureSet) -> UncertaintyReport:
    """Assemble the full bound report for one state, with the case bound where one applies."""
    moments = uncertainty_product(state, quads)
    robertson = 0.5 * abs(moments.xp_commutator_mean)
    diagnostic = square_sum_bound(state, rep)
    cb = _case_bound(state, quads, rep.K, moments)
    margin_case = None if cb is None else moments.product - cb
    return UncertaintyReport(
        delta_x=moments.delta_x,
        delta_p=moments.delta_p,
        product=moments.product,
        robertson_bound=robertson,
        square_sum_bound=diagnostic,
        square_sum_violated=moments.product < diagnostic - VIOLATION_TOL,
        margin_robertson=moments.product - robertson,
        case_bound=cb,
        margin_case=margin_case,
    )


def invert_number_geometric(q: float, h: float) -> float:
    """Level n with Hamiltonian eigenvalue h for the geometric spectrum.

    Solves q^n = (2/(1+q)) (1 - (1-q) h); at q = 1 the exact linear
    branch n = h - 1/2 applies.  Raises ValueError when h lies outside
    the attainable range (non-positive argument of the logarithm).
    """
    if not q > 0:
        raise ValueError(f"q must be positive, got {q}")
    if abs(q - 1.0) <= DEGENERATE_TOL:
        return h - 0.5
    t = (2.0 / (1.0 + q)) * (1.0 - (1.0 - q) * h)
    if t <= 0.0:
        raise ValueError(f"h = {h} is outside the attainable spectrum for q = {q}")
    return math.log(t) / math.log(q)


def invert_number_symmetric(q: float, h: float) -> float:
    """Level n with Hamiltonian eigenvalue h for the symmetric bracket.

    Positive root of  q t^2 - 2(q-1) h t - 1 = 0  with t = q^n, written in
    the cancellation-free form for either sign of (q-1) h; at q = 1 the
    linear branch n = h - 1/2 applies.
    """
    if not q > 0:
        raise ValueError(f"q must be positive, got {q}")
    if abs(q - 1.0) <= DEGENERATE_TOL:
        return h - 0.5
    A = (q - 1.0) * h
    if A >= 0.0:
        t = (A + math.sqrt(A * A + q)) / q
    else:
        t = 1.0 / (math.sqrt(A * A + q) - A)
    return math.log(t) / math.log(q)


def invert_number_quadratic(alpha: float, beta: float, h: float) -> float:
    """Level n with Hamiltonian eigenvalue h for K(n) = alpha n^2 + beta n.

    n = (-(alpha+beta) + sqrt(beta^2 - alpha^2 + 4 alpha h)) / (2 alpha),
    with the linear continuation n = h/beta - 1/2 at alpha = 0.  Raises
    ValueError on a negative radicand.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if abs(alpha) <= DEGENERATE_TOL:
        return h / beta - 0.5
    radicand = beta * beta - alpha * alpha + 4.0 * alpha * h
    if radicand < 0.0:
        raise ValueError(f"h = {h} gives a negative radicand {radicand}")
    return (-(alpha + beta) + math.sqrt(radicand)) / (2.0 * alpha)


def case_bound(state: StateVector, quads: QuadratureSet, K: SpectralFunction) -> Optional[float]:
    """Evaluate the case-specific bound of K's case on the supplied state.

    Geometric case:   (1 - (1-q)(dx^2 + dp^2)) / (4(1+q))
    Symmetric case:   sqrt(q)/(2(1+q)) * (1 + q(q - 1/q)^2/(2(q+1)^2) *
                      (<x^4> + <x^2 p^2> + <p^2 x^2> + <p^4>))
    Quadratic case:   (beta/4)(1 - (alpha/beta^2)(dx^2 + dp^2))

    Delta quantities are standard deviations; the fourth moments are raw
    operator expectations, not central ones (no mean subtraction), and
    their sum is <(x^2 + p^2)^2> = |x(x psi) + p(p psi)|^2.  Returns None
    for the cases without a bound.
    """
    return _case_bound(state, quads, K, uncertainty_product(state, quads))


def _case_bound(state, quads, K, m: QuadratureMoments) -> Optional[float]:
    """case_bound, with dx and dp read from the state's moments m."""
    if K.case_id is CaseId.ARIK_COON:
        q = K.q
        return (1.0 - (1.0 - q) * (m.delta_x**2 + m.delta_p**2)) / (4.0 * (1.0 + q))

    if K.case_id is CaseId.MACFARLANE_BIEDENHARN:
        q = K.q
        x, p, v = quads.mat_x, quads.mat_p, state.amplitudes
        h_psi = x @ (x @ v) + p @ (p @ v)
        moments = float(np.vdot(h_psi, h_psi).real)
        prefactor = math.sqrt(q) / (2.0 * (1.0 + q))
        correction = q * (q - 1.0 / q) ** 2 / (2.0 * (q + 1.0) ** 2)
        return prefactor * (1.0 + correction * moments)

    if K.case_id is CaseId.NONLINEAR:
        a, b = K.alpha, K.beta
        return (b / 4.0) * (1.0 - (a / b**2) * (m.delta_x**2 + m.delta_p**2))

    return None
