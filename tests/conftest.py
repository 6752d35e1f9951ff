"""Shared parameter grids, case factories, word generators and dense oracles for the tests."""

import importlib.util
import pathlib
from functools import reduce

import numpy as np

from deformalg import (
    BUILTIN_IDENTITIES,
    Band,
    CaseId,
    expr_to_matrix,
    level_table,
    make_case,
    nf_to_matrix,
    normal_order,
    parse_identity,
    verify_window,
)
from deformalg.symorder import Add, Comm, Divisor, KShift, Mul, Neg, Num, Param, Pow, Sym

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


def perfbench_workloads():
    """perfbench/workloads.py, loaded as it is: the benchmark's call lists."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def symbolic_mix_identities():
    """The identities of the symbolic-mix workload: the builtins by text, then its composites."""
    return [*BUILTIN_IDENTITIES.values(), *perfbench_workloads().COMPOSITES]


def realization_reports(K, D=32, margin=9, tol=1e-10):
    """verify_window of each side's normal form realized by nf_to_matrix against the
    side evaluated by expr_to_matrix, for both sides of every symbolic-mix identity in
    order.  No word of these sides moves a level by more than nine (H^3*x^3), so the
    margin of 9 keeps truncation out of the window.  This check reads the levels
    of nf_to_matrix's coefficients, which neither of check_identity's oracles
    compares with anything independent."""
    sides = [side for identity in symbolic_mix_identities() for side in parse_identity(identity)]
    return [
        verify_window(nf_to_matrix(normal_order(side, K), D), expr_to_matrix(side, K, D), margin=margin, tol=tol)
        for side in sides
    ]


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


def dense_expr(expr, K, D):
    """The D x D array of an expression, walked here with numpy products on
    ladder matrices built from level_table: the tests' own evaluator, which
    shares no code with symorder's."""
    a = np.diag(np.sqrt(level_table(K, 1, D - 1)).astype(complex), 1)  # a[n-1, n] = sqrt(K(n))
    ad = a.conj().T
    x, p = (ad + a) / 2, 0.5j * (ad - a)
    symbols = {"a": a, "ad": ad, "N": np.diag(np.arange(D, dtype=complex)), "x": x, "p": p, "H": x @ x + p @ p}
    eye = np.eye(D, dtype=complex)

    def scalar(M):
        assert np.array_equal(M, M[0, 0] * eye), "not a multiple of the identity"
        return M[0, 0]

    def ev(node):
        if isinstance(node, Num):
            return node.value * eye
        if isinstance(node, Param):
            return K.params()[node.name] * eye
        if isinstance(node, Sym):
            return symbols[node.name]
        if isinstance(node, KShift):
            return np.diag(level_table(K, node.offset, node.offset + D - 1).astype(complex))
        if isinstance(node, Neg):
            return -ev(node.operand)
        if isinstance(node, Add):
            return reduce(np.add, map(ev, node.terms))
        if isinstance(node, Mul):
            value = ev(node.factors[0])
            for factor in node.factors[1:]:
                value = value / scalar(ev(factor.operand)) if isinstance(factor, Divisor) else value @ ev(factor)
            return value
        if isinstance(node, Pow):
            base = ev(node.base)
            if node.exponent < 0:
                return scalar(base) ** node.exponent * eye
            return np.linalg.matrix_power(base, node.exponent)
        if isinstance(node, Comm):
            left, right = ev(node.left), ev(node.right)
            return left @ right - right @ left
        raise TypeError(f"unknown expression node {node!r}")

    return ev(expr)
