"""Generalized uncertainty bounds, diagnostics and spectrum inversions.

The operative uncertainty bound everywhere in this package is the
Robertson bound

    dx dp >= |<[x, p]>| / 2,

which for a deformed oscillator equals <K(N+1) - K(N)>/4 on diagonal
states; uncertainty_report evaluates it from the moments of the state, and
number_state_reports reads it for number states |n> from the finite level
table alone, with the float operations the moments of |n> would perform.
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

Number-state reports and the inversions run on Python floats; numpy and
fockrep are imported only by the functions that take a state vector.
UncertaintyReport is a NamedTuple, not a dataclass, to keep dataclasses and
the inspect modules it imports off the start-up path of gup-scan.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Optional

from .spectral import DEGENERATE_TOL, CaseId, SpectralFunction, _require_finite

if TYPE_CHECKING:
    from .fockrep import FockRep, QuadratureSet, StateVector

__all__ = [
    "UncertaintyReport",
    "square_sum_bound",
    "uncertainty_report",
    "number_state_reports",
    "invert_number_geometric",
    "invert_number_symmetric",
    "invert_number_quadratic",
    "kempf_rescale",
    "case_bound",
]

VIOLATION_TOL = 1e-12


class UncertaintyReport(NamedTuple):
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
    import numpy as np

    D = rep.D
    if state.dim != D:
        raise ValueError(f"a dimension-{D} band applies to {D}-row vectors, got {state.amplitudes.shape}")
    W = np.abs(state.amplitudes) ** 2
    # accumulate adds level after level, where sum would add pairwise
    kn = float(np.add.accumulate(W * rep.levels[:D])[-1])
    knp1 = float(np.add.accumulate(W * rep.levels[1 : D + 1])[-1])
    return 0.25 * (kn * kn + knp1 * knp1)


def uncertainty_report(state: StateVector, rep: FockRep, quads: QuadratureSet) -> UncertaintyReport:
    """Assemble the full bound report for one state, with the case bound where one applies."""
    dx, dp, product, robertson, bound = _state_terms(state, quads, rep.K)
    return _report(dx, dp, product, robertson, square_sum_bound(state, rep), bound)


def number_state_reports(rep: FockRep, levels) -> list:
    """The report of each number state |n>, n in levels, in the order given.

    Report k equals uncertainty_report(number_state(rep.D, n_k), rep,
    quadratures(rep)) bit for bit, read from the level table alone.
    """
    return _level_reports(rep.K, rep.levels.tolist(), levels)


def _level_reports(spectrum: SpectralFunction, K: list, levels) -> list:
    """number_state_reports from the level list K = K(0..D+1) of spectrum's representation.

    The levels are finite and non-negative below D, as spectral._rep_levels
    checks.  x|n> and p|n> hold a = sqrt(K(n))/2 at level n-1 and
    b = sqrt(K(n+1))/2 at level n+1, so dx^2 = dp^2 = a^2 + b^2,
    |<[x, p]>|/2 = |b^2 - a^2| and <(x^2 + p^2)^2> = (2(a^2 + b^2))^2: the
    float operations of the moments of |n>, whose other terms are exact zeros.
    """
    D = len(K) - 2
    form = _bound_form(spectrum)
    reports = []
    for n in levels:
        if not 0 <= n < D:
            raise ValueError(f"level {n} outside 0..{D - 1}")
        a = 0.5 * math.sqrt(K[n]) if n > 0 else 0.0
        b = 0.5 * math.sqrt(K[n + 1]) if n < D - 1 else 0.0
        s = a * a + b * b
        dx, robertson, fourth = math.sqrt(s), abs(b * b - a * a), (s + s) * (s + s)
        bound = None if form is None else form(dx, dx, fourth)
        reports.append(_report(dx, dx, dx * dx, robertson, 0.25 * (K[n] * K[n] + K[n + 1] * K[n + 1]), bound))
    return reports


def _report(dx, dp, product, robertson, diagnostic, bound) -> UncertaintyReport:
    """The UncertaintyReport of one state from its deviations, bounds and diagnostic."""
    # positional, in field order: keywords cost a quarter of the report's time
    return UncertaintyReport(
        dx,
        dp,
        product,
        robertson,
        diagnostic,
        product < diagnostic - VIOLATION_TOL,
        product - robertson,
        bound,
        None if bound is None else product - bound,
    )


def kempf_rescale(quads: QuadratureSet, q: float) -> QuadratureSet:
    """fockrep.kempf_rescale, under the name the benchmark's tracer wraps."""
    # ROADMAP item 1 deletes this forward together with the tracer
    from . import fockrep
    return fockrep.kempf_rescale(quads, q)


def invert_number_geometric(q: float, h: float) -> float:
    """Level n with Hamiltonian eigenvalue h for the geometric spectrum.

    Solves q^n = (2/(1+q)) (1 - (1-q) h); at q = 1 the exact linear
    branch n = h - 1/2 applies.  Raises ValueError when h lies outside
    the attainable range (non-positive argument of the logarithm), and on
    a q or h that is not finite.
    """
    _require_finite(q=q, h=h)
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
    linear branch n = h - 1/2 applies.  Raises ValueError on a q or h that
    is not finite.
    """
    _require_finite(q=q, h=h)
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
    ValueError on a negative radicand, and on parameters that make_case
    rejects for the case: alpha, beta or h not finite, alpha < 0, beta <= 0.
    """
    _require_finite(alpha=alpha, beta=beta, h=h)
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if not beta > 0:
        raise ValueError(f"beta must be > 0, got {beta}")
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
    return _state_terms(state, quads, K)[-1]


def _state_terms(state: StateVector, quads: QuadratureSet, K: SpectralFunction) -> tuple:
    """dx, dp, their product, the Robertson bound and K's case bound, as Python numbers.

    The moments are taken once, from the images x psi and p psi, which also
    form the fourth moment of the symmetric case.
    """
    import numpy as np

    from .fockrep import _moments

    v = state.amplitudes
    xv, pv = quads.mat_x @ v, quads.mat_p @ v
    m = _moments(v, xv, pv)
    dx, dp = float(m.delta_x), float(m.delta_p)
    form = _bound_form(K)
    fourth = None
    if K.case_id is CaseId.MACFARLANE_BIEDENHARN:
        h = quads.mat_x @ xv + quads.mat_p @ pv
        fourth = float(np.vdot(h, h).real)
    bound = None if form is None else form(dx, dp, fourth)
    return dx, dp, float(m.product), 0.5 * abs(complex(m.xp_commutator_mean)), bound


def _bound_form(K: SpectralFunction):
    """K's case bound as a function of (dx, dp, <(x^2 + p^2)^2>), or None where no bound applies."""
    if K.case_id is CaseId.ARIK_COON:
        q = K.q
        return lambda dx, dp, h4: (1.0 - (1.0 - q) * (dx**2 + dp**2)) / (4.0 * (1.0 + q))

    if K.case_id is CaseId.MACFARLANE_BIEDENHARN:
        q = K.q
        prefactor = math.sqrt(q) / (2.0 * (1.0 + q))
        correction = q * (q - 1.0 / q) ** 2 / (2.0 * (q + 1.0) ** 2)
        return lambda dx, dp, h4: prefactor * (1.0 + correction * h4)

    if K.case_id is CaseId.NONLINEAR:
        a, b = K.alpha, K.beta
        return lambda dx, dp, h4: (b / 4.0) * (1.0 - (a / b**2) * (dx**2 + dp**2))

    return None
