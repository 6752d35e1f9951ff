"""Shared parameter grids, case factories, word generators and dense oracles for the tests."""

import numpy as np

from deformalg import Band, CaseId, make_case
from deformalg.symorder import KShift, Mul, Num, Sym

Q_GRID = [0.3, 0.7, 1.0, 1.5, 3.0]
ABG_GRID = [-1.0, 0.5, 1.0, 2.0]
NL_ALPHA = [0.5, 1.0, 2.0]
NL_BETA = [0.5, 1.0, 2.0]


def catalog_grid():
    """Every catalog case over its admissible parameter grid."""
    cases = [make_case(CaseId.CLASSICAL)]
    for q in Q_GRID:
        cases.append(make_case(CaseId.ARIK_COON, q=q))
        cases.append(make_case(CaseId.MACFARLANE_BIEDENHARN, q=q))
        for a in ABG_GRID:
            for b in ABG_GRID:
                cases.append(make_case(CaseId.CHUNG, q=q, alpha=a, beta=b))
                for g in ABG_GRID:
                    cases.append(make_case(CaseId.BORZOV, q=q, alpha=a, beta=b, gamma=g))
    for a in NL_ALPHA:
        for b in NL_BETA:
            cases.append(make_case(CaseId.NONLINEAR, alpha=a, beta=b))
    return cases


def representative_cases():
    """One or two parameter points per case, covering the special branches."""
    return [
        make_case(CaseId.CLASSICAL),
        make_case(CaseId.ARIK_COON, q=0.7),
        make_case(CaseId.ARIK_COON, q=3.0),
        make_case(CaseId.MACFARLANE_BIEDENHARN, q=0.3),
        make_case(CaseId.MACFARLANE_BIEDENHARN, q=2.0),
        make_case(CaseId.CHUNG, q=0.7, alpha=2.0, beta=0.5),
        make_case(CaseId.CHUNG, q=1.5, alpha=1.0, beta=-1.0),
        make_case(CaseId.BORZOV, q=1.5, alpha=0.5, beta=1.0, gamma=2.0),
        make_case(CaseId.BORZOV, q=0.7, alpha=2.0, beta=0.0, gamma=2.0),
        make_case(CaseId.NONLINEAR, alpha=1.0, beta=2.0),
        make_case(CaseId.NONLINEAR, alpha=0.5, beta=0.5),
    ]


def splitmix64(seed):
    """SplitMix64 word stream (yields ints in 0..2^64-1): the tests' oracle."""
    state = seed & 0xFFFFFFFFFFFFFFFF
    mask = 0xFFFFFFFFFFFFFFFF
    while True:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)


def seeded_cubic_coeffs(seed):
    """Three positive coefficients in [0.1, 1.1) from the splitmix stream."""
    words = splitmix64(seed)
    return tuple(0.1 + (next(words) >> 11) * 2.0**-53 for _ in range(3))


def custom_case(seed):
    """Seeded cubic spectrum c1 n + c2 n^2 + c3 n^3: smooth, K(0)=0, positive."""
    c1, c2, c3 = seeded_cubic_coeffs(seed)
    return make_case(
        CaseId.CUSTOM, custom_eval=lambda n: c1 * n + c2 * n * n + c3 * n**3
    )


CUSTOM_SEEDS = (2024, 2025)


def custom_cases():
    return [custom_case(seed) for seed in CUSTOM_SEEDS]


def random_words(seed, count, max_len):
    """Seeded product words over ladder letters, spectral shifts, scalars."""
    words = splitmix64(seed)
    scalars = [0.5, -1.5, 2.0, 0.25j, 1.0 + 1.0j]
    for _ in range(count):
        length = 1 + next(words) % max_len
        atoms = []
        for _ in range(length):
            pick = next(words) % 10
            if pick < 3:
                atoms.append(Sym("a"))
            elif pick < 6:
                atoms.append(Sym("ad"))
            elif pick < 8:
                atoms.append(KShift(next(words) % 4 - 1))
            else:
                atoms.append(Num(scalars[next(words) % len(scalars)]))
        yield Mul(tuple(atoms))


def dense(M):
    """The D x D array of a band: the tests' own dense copy, against which
    the band form is checked.  Arrays pass through unchanged."""
    if not isinstance(M, Band):
        return M
    out = np.zeros(M.shape, dtype=complex)
    for d, m in M.diagonals.items():
        cols = np.arange(m.size) + max(0, -d)
        out[cols + d, cols] = m
    return out


def residual(A, B, margin=0):
    """max|A - B| over rows and columns 0..D-1-margin, divided by
    max(1, |A|, |B|) there, computed on dense copies of bands or arrays."""
    A, B = dense(A), dense(B)
    w = A.shape[0] - margin
    dA, dB = A[:w, :w], B[:w, :w]
    scale = max(1.0, float(np.abs(dA).max()), float(np.abs(dB).max()))
    return float(np.abs(dA - dB).max()) / scale
