"""The banded operator form: entries independent of D, products against dense
numpy products, and memory that stays far below one dense matrix."""

import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from conftest import custom_cases, dense, random_words, representative_cases
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
from deformalg import cli

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


def scan():
    argv = ["gup-scan", "--case", "macfarlane-biedenharn", "--q", "0.95", "--dim", str(DIM)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv + ["--n-from", "0", "--n-to", "124"]) == 0


@pytest.mark.parametrize(
    "work",
    [
        lambda: run_verify_checks(make_case(CaseId.ARIK_COON, q=0.7), DIM, 3, 1e-10, 0),
        scan,
        lambda: expr_to_matrix(
            parse_identity(BUILTIN_IDENTITIES["lh_x"])[1], make_case(CaseId.NONLINEAR, alpha=1.0, beta=2.0), DIM
        ),
    ],
    ids=["verify", "gup-scan", "expr_to_matrix"],
)
def test_peak_memory_stays_below_one_dense_matrix(work):
    assert peak_bytes(work) < DENSE_BYTES
