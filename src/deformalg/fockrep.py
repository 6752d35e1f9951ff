"""Truncated Fock-space matrix representations and identity checks.

A representation is its level table: FockRep holds K(0..D+1), evaluated
once, and derives from it the dense complex ladder matrices a, a' and N.
A QuadratureSet holds the quadratures x = (a' + a)/2, p = i(a' - a)/2 and
forms every derived operator once, on first use: x^2, p^2, [x, p], the
Hamiltonian H = x^2 + p^2 and the fourth-moment operator.  Operator
identities are verified on the sub-block where the truncation is faithful
to the infinite-dimensional algebra.

run_verify_checks is the identity suite of one case: one table of
(name, lhs, rhs, margin) rows, the exact ladder structure at margin 0,
the generic windowed identities, the Robertson inequality on random
states and the closed forms of the case.

Truncation policy: identities involving K(N+2) shift levels by up to two,
so they are asserted only on rows and columns 0..D-1-margin (margin 3 by
default).  H is always computed as the matrix product x^2 + p^2, never
from its diagonal closed form, so that the closed form stays a verified
claim rather than a definition.

Residuals are normalized: verify_window reports max|A - B| divided by
max(1, |A|, |B|) over the window.  For rapidly growing spectra the raw
entries reach 1e20 at D = 32, where an absolute comparison would only
measure float64 rounding of the operands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .spectral import CaseId, SpectralFunction, eval_K

__all__ = [
    "FockRep",
    "QuadratureSet",
    "StateVector",
    "IdentityReport",
    "QuadratureMoments",
    "build_rep",
    "quadratures",
    "kempf_rescale",
    "commutator",
    "lie_hamilton_rhs",
    "verify_window",
    "number_state",
    "random_state",
    "truncation_safe",
    "expectation",
    "uncertainty_product",
    "scaled_max_residual",
    "run_verify_checks",
]

DEFAULT_DIM = 32
DEFAULT_MARGIN = 3
DEFAULT_TOL = 1e-10
EXACT_TOL = 1e-14
ROBERTSON_STATES = 200
ROBERTSON_TOL = 1e-12


@dataclass(frozen=True)
class FockRep:
    """Dimension-D truncated matrix representation of one algebra.

    levels = K(0..D+1) is read in slices by every level-dependent form.  On
    first use, mat_a is built as zero except the superdiagonal entries
    (n-1, n) = sqrt(K(n)), mat_ad as its conjugate transpose, mat_N as diag(0..D-1).
    """

    K: SpectralFunction
    D: int
    levels: np.ndarray = field(repr=False)

    @cached_property
    def mat_a(self) -> np.ndarray:
        return np.diag(np.sqrt(self.levels[1 : self.D]), 1).astype(complex)

    @cached_property
    def mat_ad(self) -> np.ndarray:
        return self.mat_a.conj().T.copy()

    @cached_property
    def mat_N(self) -> np.ndarray:
        return np.diag(np.arange(self.D, dtype=float)).astype(complex)


@dataclass(frozen=True)
class QuadratureSet:
    """Position and momentum matrices of a representation, with their products.

    The derived operators mat_xx = x^2, mat_pp = p^2, mat_xp = [x, p], the
    Hamiltonian mat_H = x^2 + p^2 and the fourth-moment operator
    mat_fourth = x^2 x^2 + x^2 p^2 + p^2 x^2 + p^2 p^2 are formed on first
    use and shared by every later reader.
    """

    mat_x: np.ndarray = field(repr=False)
    mat_p: np.ndarray = field(repr=False)

    @cached_property
    def mat_xx(self) -> np.ndarray:
        return self.mat_x @ self.mat_x

    @cached_property
    def mat_pp(self) -> np.ndarray:
        return self.mat_p @ self.mat_p

    @cached_property
    def mat_xp(self) -> np.ndarray:
        return commutator(self.mat_x, self.mat_p)

    @cached_property
    def mat_H(self) -> np.ndarray:
        return self.mat_xx + self.mat_pp

    @cached_property
    def mat_fourth(self) -> np.ndarray:
        x2, p2 = self.mat_xx, self.mat_pp
        return x2 @ x2 + x2 @ p2 + p2 @ x2 + p2 @ p2


@dataclass(frozen=True)
class StateVector:
    """Normalized complex amplitude vector in the truncated Fock basis."""

    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        norm = float(np.linalg.norm(self.amplitudes))
        # negated so that a NaN norm is rejected too
        if not abs(norm - 1.0) <= 1e-12:
            raise ValueError(f"state vector norm {norm} is not 1 within 1e-12")

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True)
class IdentityReport:
    """Result of one windowed matrix-identity check.

    window is the number of retained rows/columns; max_abs_residual is the
    normalized residual described in the module docstring.
    """

    name: str
    window: int
    max_abs_residual: float
    tol: float
    passed: bool


@dataclass(frozen=True)
class QuadratureMoments:
    """Second-moment data of a state under a quadrature set."""

    delta_x: float
    delta_p: float
    product: float
    mean_x: float
    mean_p: float
    xp_commutator_mean: complex


def build_rep(K: SpectralFunction, D: int = DEFAULT_DIM) -> FockRep:
    """Build the D-dimensional truncated representation of K's algebra.

    Evaluates K(0..D+1) once.  Requires D >= 4 (smaller dimensions leave no
    verification window) and K(n) >= 0 for n < D (the weights are sqrt(K)).
    """
    if D < 4:
        raise ValueError(f"representation dimension must be >= 4, got {D}")
    levels = [eval_K(K, n) for n in range(D + 2)]
    for n, value in enumerate(levels[:D]):
        if value < 0.0:
            raise ValueError(f"K({n}) = {value} is negative; sqrt weights undefined")
    return FockRep(K=K, D=D, levels=np.array(levels))


def quadratures(rep: FockRep) -> QuadratureSet:
    """Quadratures x = (a' + a)/2 and p = i(a' - a)/2; H is their QuadratureSet.mat_H."""
    x = 0.5 * (rep.mat_ad + rep.mat_a)
    p = 0.5j * (rep.mat_ad - rep.mat_a)
    return QuadratureSet(mat_x=x, mat_p=p)


def kempf_rescale(quads: QuadratureSet, q: float) -> QuadratureSet:
    """Planck-scale rescaling x' = sqrt(1+q) x, p' = sqrt(1+q) p.

    The rescaled geometric-case commutator satisfies
    [x', p'] = i (1 - ((1-q)/(1+q)) H') with H' = x'^2 + p'^2, which is
    the deformed-quantization normal form; direction fixed so that
    substituting x'/sqrt(1+q) for x recovers the unscaled relation.
    """
    if not q > 0:
        raise ValueError(f"q must be positive, got {q}")
    s = math.sqrt(1.0 + q)
    return QuadratureSet(mat_x=s * quads.mat_x, mat_p=s * quads.mat_p)


def commutator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """AB - BA for equal square matrices."""
    if A.shape != B.shape or A.shape[0] != A.shape[1]:
        raise ValueError(f"commutator needs equal square matrices, got {A.shape} and {B.shape}")
    return A @ B - B @ A


def lie_hamilton_rhs(
    rep: FockRep,
    quads: QuadratureSet,
    side: str,
    k_minus_one: Optional[float] = None,
) -> np.ndarray:
    """Closed-form right side of the equation of motion commutator.

    For side='x' returns  C1(N) x + i C2(N) p  and for side='p' returns
    C1(N) p - i C2(N) x, with diagonal coefficient matrices applied on the
    left and

        C1(n) = (K(n+2) - K(n) - K(n+1) + K(n-1))/4
        C2(n) = (K(n+2) - K(n) + K(n+1) - K(n-1))/4

    K(0..D+1) come from rep.levels.  The K(n-1) value at n = 0 comes from
    the closed form at -1; its contribution provably cancels between the x
    and p terms, so any finite override (k_minus_one) leaves the window
    agreement with the true commutator intact.
    """
    if side not in ("x", "p"):
        raise ValueError(f"side must be 'x' or 'p', got {side!r}")
    D = rep.D
    k_low = eval_K(rep.K, -1) if k_minus_one is None else float(k_minus_one)
    k = np.concatenate(([k_low], rep.levels))  # K(-1..D+1)
    k_prev, k_n, k_next, k_next2 = (k[j : j + D] for j in range(4))  # K(n-1..n+2)
    # diagonal coefficients applied as row scalings, c[:, None] * M = diag(c) @ M
    c1 = (0.25 * (k_next2 - k_n - k_next + k_prev))[:, None]
    c2 = (0.25 * (k_next2 - k_n + k_next - k_prev))[:, None]
    if side == "x":
        return c1 * quads.mat_x + 1j * (c2 * quads.mat_p)
    return c1 * quads.mat_p - 1j * (c2 * quads.mat_x)


def scaled_max_residual(A: np.ndarray, B: np.ndarray, margin: int = 0) -> float:
    """max|A - B| over the window, divided by max(1, |A|, |B|) there."""
    D = A.shape[0]
    w = D - margin
    if w <= 0:
        raise ValueError(f"margin {margin} leaves an empty window at dimension {D}")
    dA = A[:w, :w]
    dB = B[:w, :w]
    scale = max(1.0, float(np.abs(dA).max()), float(np.abs(dB).max()))
    return float(np.abs(dA - dB).max()) / scale


def verify_window(
    A: np.ndarray,
    B: np.ndarray,
    margin: int = DEFAULT_MARGIN,
    tol: float = DEFAULT_TOL,
    name: str = "identity",
) -> IdentityReport:
    """Compare two matrices on the truncation-safe window.

    Retains rows and columns 0..D-1-margin and reports the normalized
    residual there; passes iff it does not exceed tol.  margin 0 compares
    the whole matrices, as the exact structure checks do.
    """
    if A.shape != B.shape or A.shape[0] != A.shape[1]:
        raise ValueError(f"verify_window needs equal square matrices, got {A.shape}, {B.shape}")
    D = A.shape[0]
    if not 0 <= margin < D:
        raise ValueError(f"margin must satisfy 0 <= margin < {D}, got {margin}")
    residual = scaled_max_residual(A, B, margin)
    return IdentityReport(
        name=name,
        window=D - margin,
        max_abs_residual=residual,
        tol=tol,
        passed=residual <= tol,
    )


def number_state(D: int, n: int) -> StateVector:
    """The basis eigenvector |n> of the number operator."""
    if not 0 <= n < D:
        raise ValueError(f"level {n} outside 0..{D - 1}")
    amp = np.zeros(D, dtype=complex)
    amp[n] = 1.0
    return StateVector(amp)


def _splitmix64(seed: int):
    """Platform-independent 64-bit splitmix generator (yields uint64)."""
    state = seed & 0xFFFFFFFFFFFFFFFF
    mask = 0xFFFFFFFFFFFFFFFF
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)


def _gaussian_pairs(seed: int):
    """Box-Muller pairs from the splitmix stream.

    Ordering contract: successive splitmix words u, v map to uniforms in
    (0, 1] via ((word >> 11) + 1) * 2^-53, and each uniform pair yields
    the Gaussian pair (r cos t, r sin t) with r = sqrt(-2 ln u),
    t = 2 pi v.  Fixed across platforms and releases.
    """
    words = _splitmix64(seed)
    while True:
        u = ((next(words) >> 11) + 1) * 2.0**-53
        v = ((next(words) >> 11) + 1) * 2.0**-53
        r = math.sqrt(-2.0 * math.log(u))
        t = 2.0 * math.pi * v
        yield r * math.cos(t), r * math.sin(t)


def random_state(D: int, seed: int) -> StateVector:
    """Deterministic pseudo-random state: 2D Gaussian draws, normalized.

    Amplitude k is (real, imag) = the k-th Box-Muller pair of the seeded
    stream documented in _gaussian_pairs; the same seed always produces
    the same vector on every platform.
    """
    pairs = _gaussian_pairs(seed)
    amp = np.empty(D, dtype=complex)
    for k in range(D):
        re, im = next(pairs)
        amp[k] = complex(re, im)
    amp /= np.linalg.norm(amp)
    return StateVector(amp)


def truncation_safe(state: StateVector, margin: int = DEFAULT_MARGIN) -> StateVector:
    """Zero the top `margin` amplitudes and renormalize.

    States prepared this way have exact moments up to fourth order under
    the truncated operators, because no ladder path can reach the lost
    levels at or above D.
    """
    if not 0 < margin < state.dim:
        raise ValueError(f"margin must satisfy 0 < margin < {state.dim}, got {margin}")
    amp = state.amplitudes.copy()
    amp[state.dim - margin :] = 0.0
    norm = np.linalg.norm(amp)
    if norm == 0.0:
        raise ValueError("state has no support below the truncation margin")
    return StateVector(amp / norm)


def expectation(state: StateVector, M: np.ndarray) -> complex:
    """<psi| M |psi>."""
    v = state.amplitudes
    return complex(np.vdot(v, M @ v))


def uncertainty_product(state: StateVector, quads: QuadratureSet) -> QuadratureMoments:
    """Standard deviations of x and p, their product, and <[x, p]>.

    Truncation-exact when the state's top amplitudes vanish (see
    truncation_safe); this is documented rather than enforced.
    """
    mean_x = expectation(state, quads.mat_x).real
    mean_p = expectation(state, quads.mat_p).real
    var_x = max(expectation(state, quads.mat_xx).real - mean_x**2, 0.0)
    var_p = max(expectation(state, quads.mat_pp).real - mean_p**2, 0.0)
    dx = math.sqrt(var_x)
    dp = math.sqrt(var_p)
    comm_mean = expectation(state, quads.mat_xp)
    return QuadratureMoments(
        delta_x=dx,
        delta_p=dp,
        product=dx * dp,
        mean_x=mean_x,
        mean_p=mean_p,
        xp_commutator_mean=comm_mean,
    )


def run_verify_checks(K: SpectralFunction, D: int, margin: int, tol: float, seed: int) -> list:
    """The identity suite of one case, as IdentityReports in table order.

    Each row (name, lhs, rhs, margin) is built only when it is evaluated;
    margin-0 rows are exact structure checks held to EXACT_TOL, the others
    are held to tol on the window.  [x, H] and [p, H] are formed once and
    shared by the generic and the closed-form Lie-Hamilton rows.
    """
    if not 0 < margin < D:
        raise ValueError(f"margin must satisfy 0 < margin < {D}, got {margin}")
    rep = build_rep(K, D)
    quads = quadratures(rep)
    xH = commutator(quads.mat_x, quads.mat_H)
    pH = commutator(quads.mat_p, quads.mat_H)

    def evaluate(rows):
        return [
            verify_window(A, B, margin=m, tol=EXACT_TOL if m == 0 else tol, name=name)
            for name, A, B, m in rows
        ]

    return (
        evaluate(_structure_rows(rep, quads, xH, pH, margin))
        + [_robertson_check(quads, margin, seed)]
        + evaluate(_closed_form_rows(rep, quads, xH, pH, margin))
    )


def _structure_rows(rep: FockRep, quads: QuadratureSet, xH, pH, margin: int):
    """Exact ladder structure and Hermiticity, then the windowed identities of every case."""
    a, ad, N, D = rep.mat_a, rep.mat_ad, rep.mat_N, rep.D
    x, p, H = quads.mat_x, quads.mat_p, quads.mat_H
    levels = rep.levels[: D + 1]
    delta = levels[1:] - levels[:D]
    yield "ladder_product_diagonal", ad @ a, np.diag(levels[:D]), 0
    yield "number_raises_creation", commutator(N, ad), ad, 0
    yield "number_lowers_annihilation", commutator(N, a), -a, 0
    # a|0>, the first column of a, repeated to a square operand
    yield "vacuum_annihilated", np.broadcast_to(a[:, :1], (D, D)), np.zeros((D, D)), 0
    yield "position_hermitian", x, x.conj().T, 0
    yield "momentum_hermitian", p, p.conj().T, 0
    yield "ladder_commutator_step", commutator(a, ad), np.diag(delta), margin
    yield "hamiltonian_diagonal_form", H, np.diag(0.5 * (levels[:D] + levels[1:])), margin
    yield "xp_commutator_step", quads.mat_xp, np.diag(0.5j * delta), margin
    yield "lie_hamilton_x", xH, lie_hamilton_rhs(rep, quads, "x"), margin
    yield "lie_hamilton_p", pH, lie_hamilton_rhs(rep, quads, "p"), margin


def _robertson_check(quads: QuadratureSet, margin: int, seed: int) -> IdentityReport:
    """Worst violation of dx dp >= |<[x, p]>|/2 over seeded random states."""
    D = quads.mat_x.shape[0]
    violations = []
    for k in range(ROBERTSON_STATES):
        state = truncation_safe(random_state(D, seed + k), margin)
        moments = uncertainty_product(state, quads)
        violations.append(0.5 * abs(moments.xp_commutator_mean) - moments.product)
    # np.max propagates NaN, where max() would drop it and pass the check
    worst = float(np.max(violations, initial=0.0))
    return IdentityReport(
        name="robertson_inequality_random_states",
        window=ROBERTSON_STATES,
        max_abs_residual=worst,
        tol=ROBERTSON_TOL,
        passed=math.isfinite(worst) and worst <= ROBERTSON_TOL,
    )


def _closed_form_rows(rep: FockRep, quads: QuadratureSet, xH, pH, margin: int):
    """Closed forms of [x, H], [p, H] and [x, p] particular to the case."""
    K, D = rep.K, rep.D
    x, p, H, xp = quads.mat_x, quads.mat_p, quads.mat_H, quads.mat_xp
    nn = np.arange(D, dtype=float)
    h = np.real(np.diag(H))
    case = K.case_id
    if case is CaseId.CLASSICAL:
        yield "xp_commutator_constant", xp, 0.5j * np.eye(D), margin
        yield "lie_hamilton_x_classical", xH, 1j * p, margin
        yield "lie_hamilton_p_classical", pH, -1j * x, margin
        yield "hamiltonian_number_shift", H, rep.mat_N + 0.5 * np.eye(D), margin
    elif case is CaseId.ARIK_COON:
        q = K.q
        c1 = (-0.25 * (1.0 - q * q) * q ** (nn - 1.0))[:, None]
        ic2 = (1j * (0.25 * (1.0 + q) ** 2 * q ** (nn - 1.0)))[:, None]
        yield "lie_hamilton_x_closed", xH, c1 * x + ic2 * p, margin
        yield "lie_hamilton_p_closed", pH, c1 * p - ic2 * x, margin
        yield "xp_commutator_qpower", xp, np.diag(0.5j * q**nn), margin
        yield (
            "xp_commutator_hamiltonian_form",
            xp,
            (1j / (1.0 + q)) * (np.eye(D) - (1.0 - q) * H),
            margin,
        )
        rescaled = kempf_rescale(quads, q)
        xp_rescaled, H_rescaled = rescaled.mat_xp, rescaled.mat_H
        # free x' and p' before the right side is formed; this row sets the
        # peak memory of the suite
        del rescaled
        yield (
            "kempf_rescaled_commutator",
            xp_rescaled,
            1j * (np.eye(D) - ((1.0 - q) / (1.0 + q)) * H_rescaled),
            margin,
        )
    elif case is CaseId.MACFARLANE_BIEDENHARN:
        q = K.q
        root = np.sqrt((q - 1.0 / q) ** 2 * h**2 + (q + 1.0) ** 2 / q)
        cx = (q - 1.0) * (q - 1.0 / q) / (2.0 * (1.0 + q))
        ch = (cx * h)[:, None]
        iroot = (0.5j * root)[:, None]
        yield "lie_hamilton_x_closed", xH, ch * x + iroot * p, margin
        yield "lie_hamilton_p_closed", pH, ch * p - iroot * x, margin
        yield "xp_commutator_sqrt_form", xp, np.diag((1j * q / (1.0 + q) ** 2) * root), margin
    elif case is CaseId.NONLINEAR:
        al, be = K.alpha, K.beta
        root = np.sqrt(be * be - al * al + 4.0 * al * h)
        iroot = (1j * root)[:, None]
        yield "lie_hamilton_x_closed", xH, al * x + iroot * p, margin
        yield "lie_hamilton_p_closed", pH, al * p - iroot * x, margin
        yield "xp_commutator_sqrt_form", xp, np.diag(0.5j * root), margin
