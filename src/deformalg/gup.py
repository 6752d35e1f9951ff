"""Generalized uncertainty bounds, diagnostics and spectrum inversions.

The operative uncertainty bound everywhere in this package is the
Robertson bound

    dx dp >= |<[x, p]>| / 2,

which for a deformed oscillator equals <K(N+1) - K(N)>/4 on diagonal
states; uncertainty_report evaluates it from the moments of the state, and
number_state_reports from the moments of a batch of number states |n>,
taken as one-hot state stacks a chunk at a time, under one representation
or under a stack of them, one per state.
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
    _chunks,
    _moments,
    kempf_rescale,
)
from .spectral import DEGENERATE_TOL, CaseId, SpectralFunction

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
    return _square_sums(state.amplitudes[:, None], rep.levels)[0]


def uncertainty_report(state: StateVector, rep: FockRep, quads: QuadratureSet) -> UncertaintyReport:
    """Assemble the full bound report for one state, with the case bound where one applies."""
    return _reports(state.amplitudes[:, None], rep, quads)[0]


def number_state_reports(rep: FockRep, quads: QuadratureSet, levels) -> list:
    """The report of each number state |n>, n in levels, in the order given.

    Column k of the one-hot state stack is |levels[k]>.  Under one
    representation report k equals uncertainty_report(number_state(rep.D,
    n_k), rep, quads); the states are taken in (D, c) stacks of at most
    about ROBERTSON_CHUNK amplitudes each, so memory is set by one chunk,
    and the diagnostic still sums over every level, so an inf or NaN in the
    level table reaches every report.  Under a stack of R representations
    levels holds R levels, state k is taken under representation k and all
    R states form one stack, whose width the caller bounds; each column's
    report reads its own level table and case parameters alone.
    """
    D = rep.D
    levels = list(levels)
    for n in levels:
        if not 0 <= n < D:
            raise ValueError(f"level {n} outside 0..{D - 1}")
    stacked = isinstance(rep.K, tuple)
    if stacked and len(levels) != len(rep.K):
        raise ValueError(f"a stack of {len(rep.K)} representations takes {len(rep.K)} levels, got {len(levels)}")
    reports = []
    for chunk in [levels] if stacked else _chunks(D, levels):
        V = np.zeros((D, len(chunk)), dtype=complex)
        V[chunk, np.arange(len(chunk))] = 1.0
        reports += _reports(V, rep, quads)
    return reports


def _reports(V: np.ndarray, rep: FockRep, quads: QuadratureSet) -> list:
    """The UncertaintyReport of each column of the state stack V, its moments taken once.

    The stack-wide work is done by numpy; the closed forms then run on each
    column's Python floats, the arithmetic single states always had.  The
    diagnostics are summed before the images xV and pV are formed, so their
    temporaries and the images are never held at once.
    """
    diagnostics = _square_sums(V, rep.levels)
    xV, pV = quads.mat_x @ V, quads.mat_p @ V
    m = _moments(V, xV, pV)
    columns = zip(
        m.delta_x.tolist(),
        m.delta_p.tolist(),
        m.product.tolist(),
        m.xp_commutator_mean.tolist(),
        diagnostics,
        _case_bounds(rep.K, quads, m, xV, pV),
    )
    reports = []
    for dx, dp, product, xp, diagnostic, bound in columns:
        robertson = 0.5 * abs(xp)
        reports.append(
            UncertaintyReport(
                delta_x=dx,
                delta_p=dp,
                product=product,
                robertson_bound=robertson,
                square_sum_bound=diagnostic,
                square_sum_violated=product < diagnostic - VIOLATION_TOL,
                margin_robertson=product - robertson,
                case_bound=bound,
                margin_case=None if bound is None else product - bound,
            )
        )
    return reports


def _square_sums(V: np.ndarray, levels: np.ndarray) -> list:
    """The quadratic diagnostic of each column of V, each mean summed in level order.

    levels is one level table for every column, or a (D+2, c) stack of one per column.
    """
    W = np.abs(V) ** 2
    D = W.shape[0]
    if levels.ndim == 1:
        levels = levels[:, None]
    # accumulate adds row after row for any number of columns, where sum
    # would add a single column pairwise
    kn = np.add.accumulate(W * levels[:D], axis=0)[-1].tolist()
    knp1 = np.add.accumulate(W * levels[1 : D + 1], axis=0)[-1].tolist()
    return [0.25 * (a * a + b * b) for a, b in zip(kn, knp1)]


def _squared_norms(h: np.ndarray) -> list:
    """|h|^2 for each column of h.

    One column is summed by np.vdot, as single states always were; a wider
    stack is summed column by column, without the overflow warnings np.vdot
    never gives.  The two agree on the vectors x(x psi) + p(p psi) of number
    states, which have one nonzero entry.
    """
    if h.shape[1] == 1:
        return [float(np.vdot(h, h).real)]
    with np.errstate(over="ignore"):
        return (h.real * h.real + h.imag * h.imag).sum(axis=0).tolist()


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
    V = state.amplitudes[:, None]
    xV, pV = quads.mat_x @ V, quads.mat_p @ V
    return _case_bounds(K, quads, _moments(V, xV, pV), xV, pV)[0]


def _case_bounds(K, quads, m: QuadratureMoments, xV, pV) -> list:
    """case_bound for each column of a state stack, from its moments m and its images xV and pV.

    K is the case of every column, or a tuple of one case per column.
    """
    cases = K if isinstance(K, tuple) else (K,)
    forms = [_bound_form(case) for case in cases]
    if len(forms) == 1:
        forms *= xV.shape[1]
    fourth = [None] * xV.shape[1]
    if any(case.case_id is CaseId.MACFARLANE_BIEDENHARN for case in cases):
        fourth = _squared_norms(quads.mat_x @ xV + quads.mat_p @ pV)
    columns = zip(forms, m.delta_x.tolist(), m.delta_p.tolist(), fourth)
    return [None if form is None else form(dx, dp, h4) for form, dx, dp, h4 in columns]


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
