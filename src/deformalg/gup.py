"""Generalized uncertainty bounds, diagnostics and the spectrum inversion.

The operative uncertainty bound everywhere in this package is the
Robertson bound

    dx dp >= |<[x, p]>| / 2,

which for a deformed oscillator equals <K(N+1) - K(N)>/4 on diagonal
states.  uncertainty_report(state, quads) is the one reader of a state: it
evaluates the bound from the moments of the state and the case of
quads.rep, and case_bound and square_sum_bound return fields of its
report.  It refuses a Kempf-rescaled QuadratureSet: its moments are not
those of the levels and the case formulas of its rep.
number_state_reports(K, D, levels) reads the same reports for number
states |n> from the checked level table K(0..D+1) alone, with the float
operations the moments of |n> would perform.
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
findings rather than presuming them.  The symmetric (macfarlane-biedenharn)
form is not a lower bound on most states: case_bound gives the measured
counts, and ROADMAP item 17 derives a bound that is a theorem.

Numerical domain note: inverting the geometric spectrum at q < 1 reads n
from 1 - (1-q) h, which saturates geometrically at h -> 1/(1-q).  In
float64 the level information is exhausted near n ~ log(eps)/log(q) / 2;
beyond that no algorithm can recover n from a rounded h (about n = 14
for q = 0.3).  The symmetric and quadratic forms do not saturate.

Number-state reports and the inversion run on Python floats; numpy and
fockrep are imported only by uncertainty_report, the reader of a state vector.
UncertaintyReport is a NamedTuple, not a dataclass, to keep dataclasses and
the inspect modules it imports off the start-up path of gup-scan.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Optional

from .spectral import DEGENERATE_TOL, CaseId, SpectralFunction, _rep_levels, _require_finite

if TYPE_CHECKING:
    from .fockrep import QuadratureSet, StateVector

__all__ = [
    "UncertaintyReport",
    "square_sum_bound",
    "uncertainty_report",
    "number_state_reports",
    "invert_number",
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


def square_sum_bound(state: StateVector, quads: QuadratureSet) -> float:
    """Quadratic diagnostic (<K(N)>^2 + <K(N+1)>^2)/4: uncertainty_report's square_sum_bound.

    Computed from diagonal expectations over the level table, summed in
    level order; returned for comparison only.  It exceeds the true
    product for low-lying states (see module docstring) and must not be
    used as a bound.
    """
    return uncertainty_report(state, quads).square_sum_bound


def uncertainty_report(state: StateVector, quads: QuadratureSet) -> UncertaintyReport:
    """Assemble the full bound report for one state, with the case bound where one applies.

    The one reader of a state: case_bound and square_sum_bound return fields
    of this report.  The moments are taken once, from the images x psi and
    p psi, which also form the fourth moment of the symmetric case.  A state
    of another dimension than the band's is refused by the band product.
    """
    import numpy as np

    from .fockrep import _moments

    if quads.rescaled:
        raise ValueError("the gup readers take unscaled quadratures, not a Kempf-rescaled set")
    v, rep = state.amplitudes, quads.rep
    xv, pv = quads.mat_x @ v, quads.mat_p @ v
    m = _moments(v, xv, pv)
    dx, dp = float(m.delta_x), float(m.delta_p)
    form = _bound_form(rep.K)
    fourth = None
    if rep.K.case_id is CaseId.MACFARLANE_BIEDENHARN:
        h = quads.mat_x @ xv + quads.mat_p @ pv
        fourth = float(np.vdot(h, h).real)
    bound = None if form is None else form(dx, dp, fourth)
    W = np.abs(v) ** 2
    # accumulate adds level after level, where sum would add pairwise
    kn = float(np.add.accumulate(W * rep.levels[: rep.D])[-1])
    knp1 = float(np.add.accumulate(W * rep.levels[1 : rep.D + 1])[-1])
    robertson = 0.5 * abs(complex(m.xp_commutator_mean))
    return _report(dx, dp, float(m.product), robertson, 0.25 * (kn * kn + knp1 * knp1), bound)


def number_state_reports(K: SpectralFunction, D: int, levels) -> list:
    """The reports of the number states |n>, n in levels, of K's dimension-D representation, in order.

    Each equals uncertainty_report(number_state(D, n), quadratures(build_rep(K, D)))
    bit for bit, read from the levels k = K(0..D+1) alone, which
    spectral._rep_levels evaluates and checks as build_rep does.  x|n> and
    p|n> hold a = sqrt(k[n])/2 at level n-1 and b = sqrt(k[n+1])/2 at level
    n+1, so dx^2 = dp^2 = a^2 + b^2, |<[x, p]>|/2 = |b^2 - a^2| and
    <(x^2 + p^2)^2> = (2(a^2 + b^2))^2: the float operations of the moments
    of |n>, whose other terms are exact zeros.
    """
    k = _rep_levels(K, D)
    form = _bound_form(K)
    reports = []
    for n in levels:
        if not 0 <= n < D:
            raise ValueError(f"level {n} outside 0..{D - 1}")
        a = 0.5 * math.sqrt(k[n]) if n > 0 else 0.0
        b = 0.5 * math.sqrt(k[n + 1]) if n < D - 1 else 0.0
        s = a * a + b * b
        dx, robertson, fourth = math.sqrt(s), abs(b * b - a * a), (s + s) * (s + s)
        bound = None if form is None else form(dx, dx, fourth)
        reports.append(_report(dx, dx, dx * dx, robertson, 0.25 * (k[n] * k[n] + k[n + 1] * k[n + 1]), bound))
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


def kempf_rescale(quads: QuadratureSet) -> QuadratureSet:
    """fockrep.kempf_rescale, under the name the benchmark's tracer wraps."""
    # ROADMAP item 1 deletes this forward together with the tracer
    from . import fockrep
    return fockrep.kempf_rescale(quads)


def invert_number(K: SpectralFunction, h: float) -> float:
    """Level n with Hamiltonian eigenvalue h = (K(n) + K(n+1))/2 on K's spectrum.

    arik-coon solves q^n = (2/(1+q)) (1 - (1-q) h), and raises ValueError
    when h lies outside the attainable range (non-positive argument of the
    logarithm).  macfarlane-biedenharn takes the positive root of
    q t^2 - 2(q-1) h t - 1 = 0 with t = q^n, written in the
    cancellation-free form for either sign of (q-1) h.  nonlinear takes
    n = (-(alpha+beta) + sqrt(beta^2 - alpha^2 + 4 alpha h)) / (2 alpha),
    and raises ValueError on a negative radicand.  classical, q = 1 and
    alpha = 0 take the linear branches n = h - 1/2 and n = h/beta - 1/2.

    K's parameters are the ones make_case checked; h must be finite.
    chung, borzov and custom raise ValueError: they have no closed-form inversion.
    """
    _require_finite(h=h)
    case, q = K.case_id, K.q
    if case is CaseId.NONLINEAR:
        alpha, beta = K.alpha, K.beta
        if abs(alpha) <= DEGENERATE_TOL:
            return h / beta - 0.5
        radicand = beta * beta - alpha * alpha + 4.0 * alpha * h
        if radicand < 0.0:
            raise ValueError(f"h = {h} gives a negative radicand {radicand}")
        return (-(alpha + beta) + math.sqrt(radicand)) / (2.0 * alpha)
    if case not in (CaseId.CLASSICAL, CaseId.ARIK_COON, CaseId.MACFARLANE_BIEDENHARN):
        raise ValueError(f"case {case.value!r} has no closed-form inversion")
    if case is CaseId.CLASSICAL or abs(q - 1.0) <= DEGENERATE_TOL:
        return h - 0.5
    if case is CaseId.ARIK_COON:
        t = (2.0 / (1.0 + q)) * (1.0 - (1.0 - q) * h)
        if t <= 0.0:
            raise ValueError(f"h = {h} is outside the attainable spectrum for q = {q}")
    else:
        A = (q - 1.0) * h
        t = (A + math.sqrt(A * A + q)) / q if A >= 0.0 else 1.0 / (math.sqrt(A * A + q) - A)
    return math.log(t) / math.log(q)


def case_bound(state: StateVector, quads: QuadratureSet) -> Optional[float]:
    """The bound of the case of quads.rep.K on the supplied state: uncertainty_report's case_bound.

    Geometric case:   (1 - (1-q)(dx^2 + dp^2)) / (4(1+q))
    Symmetric case:   sqrt(q)/(2(1+q)) * (1 + q(q - 1/q)^2/(2(q+1)^2) *
                      (<x^4> + <x^2 p^2> + <p^2 x^2> + <p^4>))
    Quadratic case:   (beta/4)(1 - (alpha/beta^2)(dx^2 + dp^2))

    Delta quantities are standard deviations; the fourth moments are raw
    operator expectations, not central ones (no mean subtraction), and
    their sum is <(x^2 + p^2)^2> = |x(x psi) + p(p psi)|^2.  Returns None
    for the cases without a bound.

    These are small-deformation forms, not theorems.  The symmetric one
    fails on most states: at q = 1.5 it lies above the product on 223 of 229
    states at D = 32 and on 319 of 325 at D = 128 (the random states of
    seeds 0-199 made truncation safe, plus the number states below the
    margin), by up to 5.2e3 and 4.2e20 times the product (ROADMAP item 17).
    """
    return uncertainty_report(state, quads).case_bound


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
        return lambda dx, dp, h4: (b / 4.0) * (1.0 - (a / b / b) * (dx**2 + dp**2))

    return None
