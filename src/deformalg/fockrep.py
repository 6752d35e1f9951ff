"""Truncated Fock-space representations as banded operators, and identity checks.

Every operator of a truncated representation is a Band: offset d holds the
entries M[j+d, j].  The ladder operators, x and p have bandwidth 1, x^2, p^2,
H and [x, p] bandwidth 2, [x, H] and [p, H] bandwidth 3, so each product and
each check costs O(D) time and memory, and no D x D array is formed.

A representation is its level table: FockRep holds K(0..D+1), evaluated
once, and derives from it the ladder bands a, a' and N.  A QuadratureSet
holds the quadratures x = (a' + a)/2, p = i(a' - a)/2 and their FockRep, the
one source of every reader's case and levels, and forms [x, p] and the
Hamiltonian H = x^2 + p^2 once, on first use.  The moments of a state read
only x psi and p psi.  Operator identities are verified on the
sub-block where the truncation is faithful to the infinite-dimensional
algebra.

run_verify_checks is the identity suite of one case: one table of
(name, lhs, rhs, margin) rows, the exact ladder structure at margin 0,
the generic windowed identities, the Robertson inequality on random
states and the closed forms of the case.  The Robertson sweep draws its
ROBERTSON_STATES states a chunk of seeds at a time, each chunk in one
batched draw, so its time per state falls at small D and its memory stays
bounded at every D; every state is bit-identical to
truncation_safe(random_state(D, seed + k), margin).

Truncation policy: identities involving K(N+2) shift levels by up to two,
so they are asserted only on rows and columns 0..D-1-margin (margin 3 by
default).  H is always computed as the product x^2 + p^2, never from its
diagonal closed form, so that the closed form stays a verified claim
rather than a definition.

Residuals are normalized: every windowed row reports max|A - B| divided by
max(1, |A|, |B|) over its window.  For rapidly growing spectra the raw
entries reach 1e20 at D = 32, where an absolute comparison would only
measure float64 rounding of the operands.  One private judge,
_judge_windows, computes these residuals for a whole table of rows in one
pass: run_verify_checks hands it every windowed row of a case at once, and
verify_window, the public check that symbolic's matrix oracle calls, is its
one-row case.  Every IdentityReport, here and in symorder.nf_equal, is
judged by one rule: a residual passes iff it is finite and at most tol, so
no NaN or inf passes, whatever the tol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .spectral import DEFAULT_DIM, DEFAULT_MARGIN, DEFAULT_TOL  # re-exported; the CLI reads them without numpy
from .spectral import CaseId, SpectralFunction, _rep_levels, level_table

__all__ = [
    "Band",
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
    "run_verify_checks",
]

EXACT_TOL = 1e-14
ROBERTSON_STATES = 200
ROBERTSON_TOL = 1e-12
ROBERTSON_CHUNK = 8192  # amplitudes per state stack of the Robertson sweep


class Band:
    """A D x D complex operator stored by offset.

    diagonals[d] holds the entries M[j+d, j] in order of the column j, which
    runs over max(0, -d)..min(D, D-d) - 1; every other entry is zero.  The
    offsets present depend only on how an operator was formed, never on its
    values, so an offset whose entries cancel stays, and every entry is
    summed in the same order at every D.

    A @ B sums A[i, k] B[k, j] over k in increasing order; A @ v does the same
    for a vector of length D or a stack of D-row columns.  A + B, A - B, -A,
    c * A and A / c act entrywise, with c a scalar.

    Band(D, diagonals) sorts the offsets, converts every entry array to
    complex and checks its length.  The results of Band's own arithmetic (+,
    -, unary -, c *, /, adjoint and @) skip that through the private
    Band._of: the arithmetic has already fixed the dtype and every length,
    and it hands over its offsets sorted.  Only c * A and A / c with a
    scalar other than a Python, float64 or complex128 number (say
    np.longdouble), which could change the dtype, take the public
    constructor.  In A @ B the first product that spans a whole output
    offset is written, not added to zeros: an entry whose only product is
    -0.0 reads -0.0, where a sum from zeros reads +0.0.  No other bit
    changes, since every entry is summed in the same order.  Each pair of
    offsets finds the columns it covers by comparing the output offset with
    bounds taken once per right offset.
    """

    __slots__ = ("D", "diagonals")
    __array_ufunc__ = None  # numpy scalars and arrays defer to the methods below

    def __init__(self, D: int, diagonals: dict):
        self.D = D
        self.diagonals = {d: np.asarray(m, dtype=complex) for d, m in sorted(diagonals.items())}
        for d, m in self.diagonals.items():
            if m.shape != (D - abs(d),):
                raise ValueError(f"offset {d} of a dimension-{D} band needs {D - abs(d)} entries, got {m.shape}")

    @classmethod
    def _of(cls, D: int, diagonals: dict) -> "Band":
        """A band of complex 1-D entry arrays of the right lengths, in ascending
        offset order, kept as they are."""
        band = object.__new__(cls)
        band.D = D
        band.diagonals = diagonals
        return band

    @classmethod
    def diagonal(cls, values) -> "Band":
        """The diagonal operator with the given entries."""
        values = np.asarray(values)
        return cls(values.shape[0], {0: values})

    @property
    def shape(self) -> tuple:
        return (self.D, self.D)

    def __repr__(self) -> str:
        return f"Band(D={self.D}, offsets={tuple(self.diagonals)})"

    def entries(self, d: int) -> np.ndarray:
        """The entries M[j+d, j] of offset d in column order; zeros where d is absent."""
        m = self.diagonals.get(d)
        return np.zeros(max(0, self.D - abs(d)), dtype=complex) if m is None else m

    def adjoint(self) -> "Band":
        """The conjugate transpose: offset d becomes -d, entry for entry."""
        return Band._of(self.D, {-d: m.conj() for d, m in reversed(self.diagonals.items())})

    def _same_dimension(self, other: "Band") -> None:
        if other.D != self.D:
            raise ValueError(f"operators of dimensions {self.D} and {other.D} do not combine")

    def __add__(self, other):
        if not isinstance(other, Band):
            return NotImplemented
        self._same_dimension(other)
        out = dict(self.diagonals)
        for d, m in other.diagonals.items():
            out[d] = out[d] + m if d in out else m
        return Band._of(self.D, dict(sorted(out.items())))

    def __neg__(self) -> "Band":
        return Band._of(self.D, {d: -m for d, m in self.diagonals.items()})

    def __sub__(self, other):
        if not isinstance(other, Band):
            return NotImplemented
        return self + -other

    def __mul__(self, c):
        if not np.isscalar(c):
            return NotImplemented
        return self._scaled(c, {d: c * m for d, m in self.diagonals.items()})

    __rmul__ = __mul__

    def __truediv__(self, c):
        if not np.isscalar(c):
            return NotImplemented
        return self._scaled(c, {d: m / c for d, m in self.diagonals.items()})

    def _scaled(self, c, diagonals: dict) -> "Band":
        # complex entries and a Python, float64 or complex128 scalar give complex entries
        return (Band._of if isinstance(c, (int, float, complex)) else Band)(self.D, diagonals)

    def __matmul__(self, other):
        if not isinstance(other, Band):
            return self._apply(np.asarray(other))
        self._same_dimension(other)
        D = self.D
        out: dict = {}
        # entry k of offset d sits in column k + s, s = max(0, -d)
        left = [(d1, a, max(0, -d1)) for d1, a in self.diagonals.items()]
        # for one output offset, ascending d2 is ascending k = j + d2
        for d2, b in other.diagonals.items():
            # B[j+d2, j] exists for the columns j in s2..hi2 - 1
            s2, hi2 = (-d2, D) if d2 < 0 else (0, D - d2)
            for d1, a, s1 in left:
                d = d1 + d2
                # the columns j where C[j+d, j] exists too: from -d on for d < 0,
                # below D - d for d > 0; A[j+d, j+d2] then exists with them
                if d < 0:
                    s = -d
                    lo, hi = (s2 if s2 > s else s), hi2
                else:
                    s = 0
                    lo, hi = s2, (hi2 if hi2 < D - d else D - d)
                if lo >= hi:
                    continue
                product = a[lo + d2 - s1 : hi + d2 - s1] * b[lo - s2 : hi - s2]
                c = out.get(d)
                if c is not None:
                    c[lo - s : hi - s] += product
                elif hi - lo == D - abs(d):  # the first product spans the offset: written, not added to zeros
                    out[d] = product
                else:
                    c = out[d] = np.zeros(D - abs(d), dtype=complex)
                    c[lo - s : hi - s] += product
        return Band._of(D, dict(sorted(out.items())))

    def _apply(self, V: np.ndarray) -> np.ndarray:
        if V.ndim not in (1, 2) or V.shape[0] != self.D:
            raise ValueError(f"a dimension-{self.D} band applies to {self.D}-row vectors, got {V.shape}")
        if not self.diagonals:
            return np.zeros(V.shape, dtype=complex)
        out = np.empty(V.shape, dtype=complex)
        # descending offsets: each entry sums its columns k in increasing order.
        # The first offset's products are written, not added to zeros, and the
        # rows it misses are zeroed; so an entry whose every product is -0.0
        # reads -0.0, where a sum from 0.0 would read 0.0
        first = True
        for d, m in reversed(self.diagonals.items()):
            row, col = max(0, d), max(0, -d)
            rows, weights = slice(row, row + m.size), m if V.ndim == 1 else m[:, None]
            if first:
                out[:row] = 0.0
                out[row + m.size :] = 0.0
                np.multiply(weights, V[col : col + m.size], out=out[rows])
                first = False
            else:
                out[rows] += weights * V[col : col + m.size]
        return out


@dataclass(frozen=True, eq=False)
class FockRep:
    """Dimension-D truncated representation of one algebra.

    levels = K(0..D+1) is read in slices by every level-dependent form.  On
    first use, mat_a is built as the band whose only offset, -1, holds the
    entries (n-1, n) = sqrt(K(n)); mat_ad is its adjoint and mat_N the
    diagonal 0..D-1.  spectral._rep_levels checks D and the table: D >= 4, and
    the D + 2 levels finite, and K(n) >= 0 for n < D.
    """

    K: SpectralFunction
    D: int
    levels: np.ndarray = field(repr=False)

    def __post_init__(self):
        _rep_levels(self.K, self.D, self.levels.tolist())

    @cached_property
    def mat_a(self) -> Band:
        return Band(self.D, {-1: np.sqrt(self.levels[1 : self.D])})

    @cached_property
    def mat_ad(self) -> Band:
        return self.mat_a.adjoint()

    @cached_property
    def mat_N(self) -> Band:
        return Band.diagonal(np.arange(self.D, dtype=float))


@dataclass(frozen=True, eq=False)
class QuadratureSet:
    """Position and momentum bands of a representation, with their products.

    rep is the representation the (unscaled) bands came from; rescaled is
    True for the set kempf_rescale returns, whose bands are no longer rep's.
    mat_xp = [x, p] and the Hamiltonian mat_H = x^2 + p^2 are formed on
    first use and shared by every later reader.
    """

    mat_x: Band = field(repr=False)
    mat_p: Band = field(repr=False)
    rep: FockRep = field(repr=False)
    rescaled: bool = False

    @cached_property
    def mat_xp(self) -> Band:
        return commutator(self.mat_x, self.mat_p)

    @cached_property
    def mat_H(self) -> Band:
        return self.mat_x @ self.mat_x + self.mat_p @ self.mat_p


def _require_unit_norm(norm: float) -> None:
    """Reject a state vector norm that is not 1 within 1e-12."""
    # negated so that a NaN norm is rejected too
    if not abs(norm - 1.0) <= 1e-12:
        raise ValueError(f"state vector norm {norm} is not 1 within 1e-12")


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized complex amplitude vector in the truncated Fock basis."""

    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        _require_unit_norm(float(np.linalg.norm(self.amplitudes)))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True)
class IdentityReport:
    """Result of one windowed operator-identity check.

    window is the number of retained rows/columns; max_abs_residual is the
    normalized residual described in the module docstring.
    """

    name: str
    window: int
    max_abs_residual: float
    tol: float
    passed: bool

    @classmethod
    def judge(cls, name: str, window: int, residual: float, tol: float) -> "IdentityReport":
        """The report of a residual held to tol; it passes iff the residual is finite and <= tol."""
        return cls(name, window, residual, tol, math.isfinite(residual) and residual <= tol)


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

    Evaluates K(0..D+1) once, through spectral._rep_levels, which requires
    D >= 4 (smaller dimensions leave no verification window) and checks the
    levels.
    """
    return FockRep(K=K, D=D, levels=np.array(_rep_levels(K, D), dtype=float))


def quadratures(rep: FockRep) -> QuadratureSet:
    """Quadratures x = (a' + a)/2 and p = i(a' - a)/2; H is their QuadratureSet.mat_H.

    Both are read straight from the ladder roots sqrt(K(1..D-1)), which a'
    holds at offset +1 and a at offset -1.
    """
    roots = np.sqrt(rep.levels[1 : rep.D])
    half = (0.5 * roots).astype(complex)  # both offsets of x hold it: no band writes its diagonals
    x = Band(rep.D, {-1: half, 1: half})
    p = Band(rep.D, {-1: -0.5j * roots, 1: 0.5j * roots})
    return QuadratureSet(mat_x=x, mat_p=p, rep=rep)


def kempf_rescale(quads: QuadratureSet) -> QuadratureSet:
    """Planck-scale rescaling x' = sqrt(1+q) x, p' = sqrt(1+q) p of arik-coon quadratures.

    q is quads.rep.K.q; a case other than arik-coon is a ValueError.  The
    rescaled commutator is [x', p'] = i (1 - ((1-q)/(1+q)) H') with
    H' = x'^2 + p'^2, the deformed-quantization normal form; direction fixed
    so that substituting x'/sqrt(1+q) for x recovers the unscaled relation.
    The result is marked rescaled, and the gup state readers refuse it.
    """
    K = quads.rep.K
    if K.case_id is not CaseId.ARIK_COON:
        raise ValueError(f"case {K.case_id.value!r} has no Kempf rescaling, which serves arik-coon alone")
    s = math.sqrt(1.0 + K.q)
    return QuadratureSet(mat_x=s * quads.mat_x, mat_p=s * quads.mat_p, rep=quads.rep, rescaled=True)


def commutator(A: Band, B: Band) -> Band:
    """AB - BA for operators of one dimension."""
    return A @ B - B @ A


def lie_hamilton_rhs(quads: QuadratureSet) -> tuple:
    """Closed-form right sides of the equation of motion commutators [x, H] and [p, H].

    Returns the pair  (C1(N) x + i C2(N) p,  C1(N) p - i C2(N) x),  with
    diagonal coefficient operators applied on the left and

        C1(n) = (K(n+2) - K(n) - K(n+1) + K(n-1))/4
        C2(n) = (K(n+2) - K(n) + K(n+1) - K(n-1))/4

    K(0..D+1) are quads.rep.levels.  The K(n-1) value at n = 0 comes from
    the closed form at -1, through level_table, which rejects it unless it
    is finite; its contribution provably cancels between the x and p terms,
    so its value leaves the window agreement with the true commutator intact.
    """
    D = quads.rep.D
    k = np.concatenate((level_table(quads.rep.K, -1, -1), quads.rep.levels))  # K(-1..D+1)
    k_prev, k_n, k_next, k_next2 = (k[j : j + D] for j in range(4))  # K(n-1..n+2)
    c1 = Band.diagonal(0.25 * (k_next2 - k_n - k_next + k_prev))
    c2 = Band.diagonal(0.25 * (k_next2 - k_n + k_next - k_prev))
    x, p = quads.mat_x, quads.mat_p
    return c1 @ x + 1j * (c2 @ p), c1 @ p - 1j * (c2 @ x)


def verify_window(
    A: Band,
    B: Band,
    margin: int = DEFAULT_MARGIN,
    tol: float = DEFAULT_TOL,
    name: str = "identity",
) -> IdentityReport:
    """Compare two operators on the truncation-safe window.

    Retains rows and columns 0..D-1-margin and reports max|A - B| divided
    by max(1, |A|, |B|) there; IdentityReport.judge passes it iff that
    residual is finite and does not exceed tol.  margin 0 compares the
    whole operators, as the exact structure checks do.  This is the
    one-row case of _judge_windows, which judges run_verify_checks' rows.
    """
    if A.shape != B.shape:
        raise ValueError(f"verify_window needs operators of one dimension, got {A.shape}, {B.shape}")
    D = A.shape[0]
    if not 0 <= margin < D:
        raise ValueError(f"margin must satisfy 0 <= margin < {D}, got {margin}")
    return _judge_windows([(name, A, B, margin, tol)])[0]


def _judge_windows(rows: list) -> list:
    """The IdentityReport of each (name, A, B, margin, tol) row, as verify_window
    describes it, from one reduction over the windows of every row.

    The rows' window entries are concatenated once, each row's behind a
    leading 0, so that no row's segment is empty; np.maximum.reduceat then
    takes every row's max|A|, max|B| and max|A - B| at once.  Like np.max,
    it propagates NaN; Python's max forms the scale, as max(1, |A|, |B|)
    always has, so a NaN magnitude leaves the scale at the other values and
    reaches the residual through |A - B|.  The operands are not checked:
    A and B are bands of one dimension and 0 <= margin < D.
    """
    if not rows:
        return []
    zeros = np.zeros(max(row[1].D for row in rows), dtype=complex)
    parts_a, parts_b, starts, size = [], [], [], 0
    for _, A, B, margin, _ in rows:
        w = A.D - margin
        starts.append(size)
        parts_a.append(zeros[:1])
        parts_b.append(zeros[:1])
        size += 1
        # entry k of offset d sits in row k + max(d, 0) and column k + max(-d, 0)
        for d in sorted(A.diagonals.keys() | B.diagonals.keys()):
            n = w - abs(d)
            if n > 0:
                parts_a.append(A.diagonals.get(d, zeros)[:n])
                parts_b.append(B.diagonals.get(d, zeros)[:n])
                size += n
    a, b = np.concatenate(parts_a), np.concatenate(parts_b)
    # |A|, |B| and then |A - B| in one magnitude buffer, the difference in A's
    magnitudes = np.abs(a)
    top_a = np.maximum.reduceat(magnitudes, starts).tolist()
    np.abs(b, out=magnitudes)
    top_b = np.maximum.reduceat(magnitudes, starts).tolist()
    np.abs(np.subtract(a, b, out=a), out=magnitudes)
    top_diff = np.maximum.reduceat(magnitudes, starts).tolist()
    return [
        IdentityReport.judge(name, A.D - margin, diff / max(1.0, ma, mb), tol)
        for (name, A, _, margin, tol), ma, mb, diff in zip(rows, top_a, top_b, top_diff)
    ]


def number_state(D: int, n: int) -> StateVector:
    """The basis eigenvector |n> of the number operator."""
    if not 0 <= n < D:
        raise ValueError(f"level {n} outside 0..{D - 1}")
    amp = np.zeros(D, dtype=complex)
    amp[n] = 1.0
    return StateVector(amp)


def _row_norms(A: np.ndarray) -> np.ndarray:
    """The 2-norm of each row of A, as a column: the square root of the row's
    sum of re^2 + im^2, numpy's pairwise sum of a 1-D array of those terms."""
    terms = np.square(A.real)
    terms += np.square(A.imag)
    return np.sqrt(terms.sum(axis=1, keepdims=True))


def _divide_rows(A: np.ndarray, norms: np.ndarray) -> None:
    """A /= norms in place, for a C-contiguous complex A and its column of positive row norms.

    numpy divides a complex by a real c as a product with 1/c, so the
    product is taken on A's float view: both parts, one multiply each.
    """
    parts = A.view(float)
    parts *= 1.0 / norms


def _uniform_amplitudes(D: int, seeds) -> np.ndarray:
    """The first D amplitudes of each seed's splitmix stream, one row per seed.

    Ordering contract: SplitMix64 words 1..2D of a seed, where word k is
    the finalizer applied to seed + k * 0x9E3779B97F4A7C15 (mod 2^64), are
    read in successive pairs u, v and mapped to uniforms in (0, 1] via
    ((word >> 11) + 1) * 2^-53; amplitude k is (2u - 1) + i(2v - 1), every
    step exact in float64.  No libm function is called, so the amplitudes
    are the same on every platform and in every numpy build.
    """
    # seeds are masked as Python ints: numpy wraps uint64 array arithmetic
    # silently but warns on scalar overflow
    z = np.array([int(s) & 0xFFFFFFFFFFFFFFFF for s in seeds], dtype=np.uint64)[:, None]
    z = z + np.arange(1, 2 * D + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    # the finalizer in place, each shift into the one buffer t
    t = z >> np.uint64(30)
    z ^= t
    z *= np.uint64(0xBF58476D1CE4E5B9)
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= np.uint64(0x94D049BB133111EB)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    # 2u - 1 = ((word >> 11) - (2^52 - 1)) * 2^-52: an integer of magnitude
    # at most 2^52, which int64 holds and float64 converts and scales exactly
    np.right_shift(z, np.uint64(11), out=z)
    z -= np.uint64(2**52 - 1)
    amplitudes = t.view(float)
    np.multiply(z.view(np.int64), 2.0**-52, out=amplitudes)
    # u and v alternate along each row, as the real and imaginary parts of a complex array do
    return amplitudes.view(complex)


def _random_rows(D: int, seeds) -> np.ndarray:
    """The amplitudes of random_state(D, seed) for each seed, one row per seed."""
    rows = _uniform_amplitudes(D, seeds)
    _divide_rows(rows, _row_norms(rows))
    return rows


def _truncate_rows(A: np.ndarray, margin: int) -> np.ndarray:
    """A, C-contiguous and complex, with the top `margin` amplitudes of each row
    zeroed and each row renormalized, in place."""
    A[:, A.shape[1] - margin :] = 0.0
    norms = _row_norms(A)
    if not norms.all():
        raise ValueError("state has no support below the truncation margin")
    _divide_rows(A, norms)
    return A


def random_state(D: int, seed: int) -> StateVector:
    """Deterministic pseudo-random state: 2D uniform draws on (-1, 1], normalized.

    Amplitude k is (2u - 1) + i(2v - 1) for the k-th pair of uniforms u, v
    of the seeded stream documented in _uniform_amplitudes, divided by the
    vector's 2-norm; the same seed always produces the same vector on every
    platform, since only IEEE-754 basic operations form it.
    """
    return StateVector(_random_rows(D, [seed])[0])


def truncation_safe(state: StateVector, margin: int = DEFAULT_MARGIN) -> StateVector:
    """Zero the top `margin` amplitudes and renormalize.

    States prepared this way have exact moments up to fourth order under
    the truncated operators, because no ladder path can reach the lost
    levels at or above D.
    """
    if not 0 < margin < state.dim:
        raise ValueError(f"margin must satisfy 0 < margin < {state.dim}, got {margin}")
    # a complex copy: the rows are truncated in place, and the state is left as it is
    return StateVector(_truncate_rows(np.array(state.amplitudes, dtype=complex)[None, :], margin)[0])


def expectation(state: StateVector, M: Band) -> complex:
    """<psi| M |psi>."""
    v = state.amplitudes
    return complex(np.vdot(v, M @ v))


def _moments(V: np.ndarray, xV: np.ndarray, pV: np.ndarray) -> QuadratureMoments:
    """Moments of each column of the state stack V, read from its images xV and pV alone.

    <x> = Re<v|xv>, <x^2> = |xv|^2 and <[x, p]> = <xv|pv> - <pv|xv>
    = 2i Im<xv|pv>, since x and p are Hermitian; the same for p.  Each field
    holds one value per column.
    """
    scratch = np.empty(V.shape, dtype=complex)

    def inner(U, W):
        # the conjugate and the complex product into one buffer, then its column sums
        np.conjugate(U, out=scratch)
        np.multiply(scratch, W, out=scratch)
        return scratch.sum(axis=0)

    mean_x = inner(V, xV).real
    mean_p = inner(V, pV).real
    # np.maximum propagates NaN, where a clipped variance would hide it
    dx = np.sqrt(np.maximum(inner(xV, xV).real - mean_x**2, 0.0))
    dp = np.sqrt(np.maximum(inner(pV, pV).real - mean_p**2, 0.0))
    return QuadratureMoments(
        delta_x=dx,
        delta_p=dp,
        product=dx * dp,
        mean_x=mean_x,
        mean_p=mean_p,
        xp_commutator_mean=2j * inner(xV, pV).imag,
    )


def uncertainty_product(state: StateVector, quads: QuadratureSet) -> QuadratureMoments:
    """Standard deviations of x and p, their product, and <[x, p]>.

    Truncation-exact when the state's top amplitudes vanish (see
    truncation_safe); this is documented rather than enforced.
    """
    v = state.amplitudes
    moments = _moments(v, quads.mat_x @ v, quads.mat_p @ v)
    # one state gives 0-d numpy fields; the report holds them as Python numbers
    return QuadratureMoments(*(np.asarray(f).item() for f in vars(moments).values()))


def run_verify_checks(K: SpectralFunction, D: int, margin: int, tol: float, seed: int) -> list:
    """The identity suite of one case, as IdentityReports in table order.

    Every row (name, lhs, rhs, margin) is built first, the structure rows
    before the Robertson sweep and the closed forms after it, and then all
    are judged in one _judge_windows pass; margin-0 rows are exact
    structure checks held to EXACT_TOL, the others are held to tol on the
    window.  [x, H] and [p, H] are formed once and shared by the generic and
    the closed-form Lie-Hamilton rows.

    Finite levels can still overflow in the band products.  numpy's overflow
    and invalid-value warnings are silenced here: the inf or NaN entries
    reach the residuals of their rows, which then fail.
    """
    if not 0 < margin < D:
        raise ValueError(f"margin must satisfy 0 < margin < {D}, got {margin}")

    with np.errstate(over="ignore", invalid="ignore"):
        quads = quadratures(build_rep(K, D))
        xH = commutator(quads.mat_x, quads.mat_H)
        pH = commutator(quads.mat_p, quads.mat_H)
        structure = list(_structure_rows(quads, xH, pH, margin))
        robertson = _robertson_check(quads, margin, seed)
        rows = structure + list(_closed_form_rows(quads, xH, pH, margin))
        reports = _judge_windows([(name, A, B, m, EXACT_TOL if m == 0 else tol) for name, A, B, m in rows])
        return reports[: len(structure)] + [robertson] + reports[len(structure) :]


def _structure_rows(quads: QuadratureSet, xH, pH, margin: int):
    """Exact ladder structure and Hermiticity, then the windowed identities of every case."""
    rep, x, p, H = quads.rep, quads.mat_x, quads.mat_p, quads.mat_H
    a, ad, D = rep.mat_a, rep.mat_ad, rep.D
    levels = rep.levels[: D + 1]
    delta = levels[1:] - levels[:D]

    def number_commutator(M: Band) -> Band:
        # [N, M] has entries (i - j) M_ij, the offset times M: exact in
        # integers where the products N M and M N round
        return Band(D, {d: d * m for d, m in M.diagonals.items()})

    # a|0>: the entries of a in column 0, which is entry 0 of each offset d >= 0
    vacuum = Band(D, {d: np.where(np.arange(m.size) == 0, m, 0) for d, m in a.diagonals.items() if d >= 0})
    yield "ladder_product_diagonal", ad @ a, Band.diagonal(levels[:D]), 0
    yield "number_raises_creation", number_commutator(ad), ad, 0
    yield "number_lowers_annihilation", number_commutator(a), -a, 0
    yield "vacuum_annihilated", vacuum, Band(D, {}), 0
    yield "position_hermitian", x, x.adjoint(), 0
    yield "momentum_hermitian", p, p.adjoint(), 0
    yield "ladder_commutator_step", commutator(a, ad), Band.diagonal(delta), margin
    yield "hamiltonian_diagonal_form", H, Band.diagonal(0.5 * (levels[:D] + levels[1:])), margin
    yield "xp_commutator_step", quads.mat_xp, Band.diagonal(0.5j * delta), margin
    rhs_x, rhs_p = lie_hamilton_rhs(quads)
    yield "lie_hamilton_x", xH, rhs_x, margin
    yield "lie_hamilton_p", pH, rhs_p, margin


def _chunk_count(D: int) -> int:
    """Into how many chunks the Robertson sweep's states of dimension D are split.

    A chunk holds at most about ROBERTSON_CHUNK amplitudes, or two states
    once D exceeds ROBERTSON_CHUNK / 2, so memory is set by one chunk and
    not by all the states.  No chunk holds one state alone: the moments of
    a one-column stack are summed pairwise, those of a wider stack row by
    row, as the whole stack's are.
    """
    return max(1, min(ROBERTSON_STATES // 2, -(-ROBERTSON_STATES * D // ROBERTSON_CHUNK)))


def _robertson_stacks(D: int, margin: int, seed: int):
    """The sweep's states as C-contiguous (D, c) stacks, chunk by chunk.

    State k is truncation_safe(random_state(D, seed + k), margin), bit for
    bit.  The generator keeps no stack once it has yielded it.
    """
    for chunk in np.array_split(np.arange(ROBERTSON_STATES), _chunk_count(D)):
        yield _state_stack(D, [seed + k for k in chunk.tolist()], margin)


def _state_stack(D: int, seeds: list, margin: int) -> np.ndarray:
    """The states of the seeds as one (D, c) stack: each row is drawn,
    normalized and truncated on its own, in place, and the StateVector
    contract is checked for the whole chunk; only the stack outlives the call."""
    rows = _truncate_rows(_random_rows(D, seeds), margin)
    norms = _row_norms(rows)[:, 0]
    # the norm farthest from 1; np.argmax stops at the first NaN
    _require_unit_norm(float(norms[np.argmax(np.abs(norms - 1.0))]))
    return np.ascontiguousarray(rows.T)


def _violations(V: np.ndarray, quads: QuadratureSet) -> np.ndarray:
    """|<[x, p]>|/2 - dx dp for each column of the state stack V."""
    moments = _moments(V, quads.mat_x @ V, quads.mat_p @ V)
    return 0.5 * np.abs(moments.xp_commutator_mean) - moments.product


def _robertson_check(quads: QuadratureSet, margin: int, seed: int) -> IdentityReport:
    """Worst violation of dx dp >= |<[x, p]>|/2 over seeded random states.

    The ROBERTSON_STATES states are drawn in batches by _robertson_stacks
    and their moments are taken one chunk at a time, so at most one chunk
    and its x and p images are held at once.
    """
    worst = 0.0
    for V in _robertson_stacks(quads.mat_x.D, margin, seed):
        # np.max propagates NaN, where max() would drop it and pass the check
        worst = np.max(_violations(V, quads), initial=worst)
        del V  # freed before the next chunk is drawn
    name = "robertson_inequality_random_states"
    return IdentityReport.judge(name, ROBERTSON_STATES, float(worst), ROBERTSON_TOL)


def _closed_form_rows(quads: QuadratureSet, xH, pH, margin: int):
    """Closed forms of [x, H], [p, H] and [x, p] particular to the case."""
    K, D = quads.rep.K, quads.rep.D
    x, p, H, xp = quads.mat_x, quads.mat_p, quads.mat_H, quads.mat_xp
    diagonal = Band.diagonal
    identity = diagonal(np.ones(D))
    nn = np.arange(D, dtype=float)
    h = H.entries(0).real
    case = K.case_id
    if case is CaseId.CLASSICAL:
        yield "xp_commutator_constant", xp, 0.5j * identity, margin
        yield "lie_hamilton_x_classical", xH, 1j * p, margin
        yield "lie_hamilton_p_classical", pH, -1j * x, margin
        yield "hamiltonian_number_shift", H, quads.rep.mat_N + 0.5 * identity, margin
    elif case is CaseId.ARIK_COON:
        q = K.q
        c1 = diagonal(-0.25 * (1.0 - q * q) * q ** (nn - 1.0))
        ic2 = diagonal(1j * (0.25 * (1.0 + q) ** 2 * q ** (nn - 1.0)))
        yield "lie_hamilton_x_closed", xH, c1 @ x + ic2 @ p, margin
        yield "lie_hamilton_p_closed", pH, c1 @ p - ic2 @ x, margin
        yield "xp_commutator_qpower", xp, diagonal(0.5j * q**nn), margin
        yield (
            "xp_commutator_hamiltonian_form",
            xp,
            (1j / (1.0 + q)) * (identity - (1.0 - q) * H),
            margin,
        )
        rescaled = kempf_rescale(quads)
        yield (
            "kempf_rescaled_commutator",
            rescaled.mat_xp,
            1j * (identity - ((1.0 - q) / (1.0 + q)) * rescaled.mat_H),
            margin,
        )
    elif case is CaseId.MACFARLANE_BIEDENHARN:
        q = K.q
        root = np.sqrt((q - 1.0 / q) ** 2 * h**2 + (q + 1.0) ** 2 / q)
        cx = (q - 1.0) * (q - 1.0 / q) / (2.0 * (1.0 + q))
        ch = diagonal(cx * h)
        iroot = diagonal(0.5j * root)
        yield "lie_hamilton_x_closed", xH, ch @ x + iroot @ p, margin
        yield "lie_hamilton_p_closed", pH, ch @ p - iroot @ x, margin
        yield "xp_commutator_sqrt_form", xp, diagonal((1j * q / (1.0 + q) ** 2) * root), margin
    elif case is CaseId.NONLINEAR:
        al, be = K.alpha, K.beta
        root = np.sqrt(be * be - al * al + 4.0 * al * h)
        iroot = diagonal(1j * root)
        yield "lie_hamilton_x_closed", xH, al * x + iroot @ p, margin
        yield "lie_hamilton_p_closed", pH, al * p - iroot @ x, margin
        yield "xp_commutator_sqrt_form", xp, diagonal(0.5j * root), margin
