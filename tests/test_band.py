"""The banded operator form: entries independent of D, products against dense
numpy products, and memory that stays far below one dense matrix."""

import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from conftest import custom_cases, dense, random_words, representative_cases, symbolic_mix_identities
from deformalg import (
    BUILTIN_IDENTITIES,
    Band,
    CaseId,
    QuadratureSet,
    build_rep,
    commutator,
    expr_to_matrix,
    make_case,
    parse_identity,
    quadratures,
    run_verify_checks,
)
from deformalg import cli, fockrep
from deformalg.fockrep import ROBERTSON_STATES

EPS = np.finfo(float).eps


def operators(K, D):
    """x^2, p^2, H, [x, p], [x, H] and [p, H], then both sides of each builtin."""
    quads = quadratures(build_rep(K, D))
    x, p, H = quads.mat_x, quads.mat_p, quads.mat_H
    named = {
        "x^2": x @ x,
        "p^2": p @ p,
        "H": H,
        "[x,p]": quads.mat_xp,
        "[x,H]": commutator(x, H),
        "[p,H]": commutator(p, H),
    }
    for name, identity in BUILTIN_IDENTITIES.items():
        for side, expr in zip(("lhs", "rhs"), parse_identity(identity)):
            named[f"{name} {side}"] = expr_to_matrix(expr, K, D)
    return named


@pytest.mark.parametrize("D", [8, 32])
@pytest.mark.parametrize("K", representative_cases() + custom_cases(), ids=str)
def test_entries_away_from_the_edge_do_not_depend_on_d(K, D):
    # entry k of offset d lies in row k + max(d, 0) and column k + max(-d, 0),
    # so rows and columns <= D - 4 hold the entries k <= D - 4 - |d|
    small, large = operators(K, D), operators(K, 2 * D)
    for name, band in small.items():
        assert set(band.diagonals) == set(large[name].diagonals), name
        for d, entries in band.diagonals.items():
            keep = max(0, D - 3 - abs(d))
            assert entries[:keep].tobytes() == large[name].diagonals[d][:keep].tobytes(), (name, d)


def recorded_products(monkeypatch, K, D, exprs):
    """Every band product formed while expr_to_matrix evaluates exprs."""
    products = []
    matmul = Band.__matmul__

    def recording(A, B):
        C = matmul(A, B)
        if isinstance(B, Band):
            products.append((A, B, C))
        return C

    monkeypatch.setattr(Band, "__matmul__", recording)
    for expr in exprs:
        expr_to_matrix(expr, K, D)
    monkeypatch.undo()
    return products


def ordered_sum_product(a, b):
    """AB with each entry summed over k in increasing order, one rounding per
    product and per sum, as the band product sums; no fused multiply-add."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=complex)
    for k in range(a.shape[1]):
        out += a[:, k : k + 1] * b[k : k + 1, :]
    return out


@pytest.mark.parametrize("D", [8, 32])
@pytest.mark.parametrize("K", representative_cases() + custom_cases(), ids=str)
def test_products_match_dense_products_within_four_ulp(monkeypatch, K, D):
    # |C - AB| <= 4 eps (|A||B|) entrywise against numpy's product, |A||B| the
    # product of the entries' magnitudes (1.0 eps at most, measured), and
    # equal to the k-ordered sum, which a BLAS product with fused
    # multiply-adds is not
    exprs = [side for identity in BUILTIN_IDENTITIES.values() for side in parse_identity(identity)]
    exprs += list(random_words(seed=99, count=200, max_len=6))
    products = recorded_products(monkeypatch, K, D, exprs)
    assert len(products) > 200
    for A, B, C in products:
        a, b = dense(A), dense(B)
        error = np.abs(dense(C) - a @ b)
        assert np.all(error <= 4 * EPS * (np.abs(a) @ np.abs(b))), (A, B)
        assert np.array_equal(dense(C), ordered_sum_product(a, b)), (A, B)


def staged_product(A, B):
    """A @ B as the band product was first written, the oracle for its bounds:
    five max and min calls per pair of offsets, the first product that spans
    its output offset written and every other one added."""
    D = A.D
    out = {}
    left = [(d1, a, max(0, -d1)) for d1, a in A.diagonals.items()]
    for d2, b in B.diagonals.items():
        s2 = max(0, -d2)
        for d1, a, s1 in left:
            d = d1 + d2
            lo, hi = max(0, -d2, -d), min(D, D - d2, D - d)
            if lo >= hi:
                continue
            s = max(0, -d)
            product = a[lo + d2 - s1 : hi + d2 - s1] * b[lo - s2 : hi - s2]
            c = out.get(d)
            if c is not None:
                c[lo - s : hi - s] += product
            elif hi - lo == D - abs(d):
                out[d] = product
            else:
                c = out[d] = np.zeros(D - abs(d), dtype=complex)
                c[lo - s : hi - s] += product
    return dict(sorted(out.items()))


def assert_staged(A, B, C):
    """C holds the offsets of staged_product(A, B) in its order, and the same entry bytes."""
    expected = staged_product(A, B)
    assert list(C.diagonals) == list(expected), (A, B)
    for d, m in expected.items():
        assert C.diagonals[d].tobytes() == m.tobytes(), (A, B, d)


@pytest.mark.parametrize("D", [4, 5, 8, 32, 129])
@pytest.mark.parametrize("K", representative_cases() + custom_cases(), ids=str)
def test_products_equal_the_staged_product_bit_for_bit(monkeypatch, K, D):
    exprs = [side for identity in symbolic_mix_identities() for side in parse_identity(identity)]
    exprs += list(random_words(seed=29, count=60, max_len=6))
    products = recorded_products(monkeypatch, K, D, exprs)
    assert len(products) > 100
    for A, B, C in products:
        assert_staged(A, B, C)


def test_a_first_pair_that_does_not_span_its_offset_is_added_to_zeros():
    # offset 0 first meets (1, -1), which misses column 0, then (0, 0), which spans it
    D = 6
    A = Band(D, {0: np.full(D, -1.0), 1: np.full(D - 1, 2.0 - 1j)})
    B = Band(D, {-1: np.full(D - 1, -0.0), 0: np.zeros(D)})
    C = A @ B
    assert_staged(A, B, C)
    assert not np.signbit(C.entries(0).real).any()


@pytest.mark.parametrize("D", [4, 5, 8])
def test_products_of_random_offset_sets_equal_the_staged_product(D):
    rng = np.random.default_rng(D)
    offsets = range(-D + 1, D)

    def band():
        chosen = sorted(rng.choice(offsets, size=rng.integers(0, 5), replace=False).tolist())
        return Band(D, {d: rng.normal(size=D - abs(d)) + 1j * rng.normal(size=D - abs(d)) for d in chosen})

    for _ in range(200):
        A, B = band(), band()
        assert_staged(A, B, A @ B)


def recorded_results(monkeypatch, K, D, exprs):
    """Every band that Band's arithmetic builds while expr_to_matrix evaluates exprs."""
    results = []
    of = Band._of.__func__

    def recording(cls, D, diagonals):
        band = of(cls, D, diagonals)
        results.append(band)
        return band

    monkeypatch.setattr(Band, "_of", classmethod(recording))
    for expr in exprs:
        expr_to_matrix(expr, K, D)
    monkeypatch.undo()
    return results


def assert_passes_the_public_checks(band):
    """The band's offsets sorted, each offset complex, 1-D and of length D - |d|,
    and Band(D, diagonals) the same band, offset for offset and byte for byte."""
    D = band.D
    assert list(band.diagonals) == sorted(band.diagonals)
    for d, m in band.diagonals.items():
        assert (m.dtype, m.shape) == (np.dtype(complex), (D - abs(d),)), (band, d)
    checked = Band(D, band.diagonals)
    assert list(checked.diagonals) == list(band.diagonals)
    for d, m in band.diagonals.items():
        assert checked.diagonals[d].tobytes() == m.tobytes(), (band, d)


@pytest.mark.parametrize("D", [4, 8, 32])
@pytest.mark.parametrize("K", representative_cases() + custom_cases(), ids=str)
def test_arithmetic_results_pass_the_public_checks(monkeypatch, K, D):
    exprs = [side for identity in BUILTIN_IDENTITIES.values() for side in parse_identity(identity)]
    exprs += list(random_words(seed=7, count=40, max_len=6))
    results = recorded_results(monkeypatch, K, D, exprs)
    assert len(results) > 40
    rep = build_rep(K, D)
    quads = quadratures(rep)
    bands = [rep.mat_a, rep.mat_ad, rep.mat_N, quads.mat_x, quads.mat_p, quads.mat_H, quads.mat_xp]
    # offsets {-2, 2} times {0, 1} first meet the output offsets in the order -2, 2, -1, 3
    bands += [rep.mat_a @ rep.mat_a + rep.mat_ad @ rep.mat_ad, rep.mat_N + rep.mat_ad]
    for A in bands:
        results += [-A, A.adjoint(), 2 * A, A * (0.5 - 1j), np.float64(3.0) * A, A / 3, A / (1 + 2j)]
        for B in bands:
            results += [A + B, A - B, A @ B]
    for band in results:
        assert_passes_the_public_checks(band)


def test_a_scalar_of_another_dtype_takes_the_public_conversion():
    x = quadratures(build_rep(make_case(CaseId.ARIK_COON, q=0.7), 8)).mat_x
    for c in (np.longdouble(0.1), np.clongdouble(0.1 + 0.2j)):
        for band in (c * x, x * c, x / c):
            assert_passes_the_public_checks(band)


def test_an_entry_whose_only_product_is_negative_zero_keeps_its_sign():
    # offset 0 of A @ B is spanned by its first product, which is written, not added to +0.0
    C = Band.diagonal(-np.ones(4)) @ Band.diagonal(np.zeros(4))
    assert np.signbit(C.entries(0).real).all()


def test_vectors_and_state_stacks_apply_column_by_column():
    quads = quadratures(build_rep(make_case(CaseId.ARIK_COON, q=0.7), 12))
    rng = np.random.default_rng(5)
    V = rng.normal(size=(12, 3)) + 1j * rng.normal(size=(12, 3))
    stacked = quads.mat_x @ V
    for s in range(3):
        assert stacked[:, s].tobytes() == (quads.mat_x @ V[:, s]).tobytes()
    assert np.allclose(stacked, dense(quads.mat_x) @ V, rtol=4 * EPS, atol=0.0)
    with pytest.raises(ValueError):
        quads.mat_x @ np.ones(11)


def test_one_operator_form():
    rep = build_rep(make_case(CaseId.MACFARLANE_BIEDENHARN, q=1.5), 8)
    quads = quadratures(rep)
    for band in (rep.mat_a, rep.mat_ad, rep.mat_N, quads.mat_x, quads.mat_p, quads.mat_xp, quads.mat_H):
        assert isinstance(band, Band)
    for gone in ("mat_xx", "mat_pp", "mat_fourth"):
        assert not hasattr(QuadratureSet, gone)


DIM = 2048
DENSE_BYTES = DIM * DIM * 16  # one dense complex matrix


def peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def scan(n_to):
    argv = ["gup-scan", "--case", "macfarlane-biedenharn", "--q", "0.95", "--dim", str(DIM)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv + ["--n-from", "0", "--n-to", str(n_to)]) == 0


@pytest.mark.parametrize(
    "work",
    [
        lambda: scan(124),
        lambda: scan(DIM - 4),
        lambda: expr_to_matrix(
            parse_identity(BUILTIN_IDENTITIES["lh_x"])[1], make_case(CaseId.NONLINEAR, alpha=1.0, beta=2.0), DIM
        ),
    ],
    ids=["gup-scan", "gup-scan-full-range", "expr_to_matrix"],
)
def test_peak_memory_stays_below_one_dense_matrix(work):
    assert peak_bytes(work) < DENSE_BYTES


def test_verify_peak_memory_stays_below_the_robertson_state_stack():
    # far below one dense matrix too: the sweep holds one chunk of its states at a time
    K = make_case(CaseId.ARIK_COON, q=0.7)
    assert peak_bytes(lambda: run_verify_checks(K, DIM, 3, 1e-10, 0)) < ROBERTSON_STATES * DIM * 16


Q_SCAN = ["gup-scan", "--case", "arik-coon", "--q", "0.5", "--q-steps", "61", "--n-from", "3"]


@pytest.mark.parametrize(
    "argv",
    [
        Q_SCAN + ["--dim", "32", "--q-from", "0.25", "--q-to", "1.75"],
        ["gup-scan", "--case", "macfarlane-biedenharn", "--q", "1.5", "--dim", "128", "--n-from", "0", "--n-to", "124"],
    ],
    ids=["q-scan", "level-scan"],
)
def test_a_gup_scan_forms_no_band(monkeypatch, argv):
    def refused(*args):
        raise AssertionError("a gup-scan reads its reports from the level table")

    for owner, name in ((fockrep, "quadratures"), (Band, "__init__"), (Band, "_apply")):
        monkeypatch.setattr(owner, name, refused)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0


def test_q_scan_peak_memory_is_set_by_one_representation():
    # one representation at a time: its 20002 levels, as Python floats while
    # they are evaluated and read, peak near 1.2 MB; q stays at or below 1,
    # where K(20001) is finite
    argv = Q_SCAN + ["--dim", "20000", "--q-from", "0.25", "--q-to", "1.0"]
    codes = []
    with contextlib.redirect_stdout(io.StringIO()):
        peak = peak_bytes(lambda: codes.append(cli.main(argv)))
    assert codes == [0] and peak < 2_000_000
