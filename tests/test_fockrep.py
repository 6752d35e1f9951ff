"""Matrix representation engine: structure, windowed identities, states."""

import math

import numpy as np
import pytest

from conftest import catalog_grid, custom_cases, representative_cases
from deformalg import (
    CaseId,
    build_rep,
    commutator,
    eval_K,
    expectation,
    lie_hamilton_rhs,
    make_case,
    number_state,
    quadratures,
    random_state,
    square_sum_bound,
    truncation_safe,
    uncertainty_product,
    verify_window,
)
from deformalg.fockrep import run_verify_checks, scaled_max_residual


def classical():
    return make_case(CaseId.CLASSICAL)


class TestBuildRep:
    def test_classical_ladder_weights(self):
        rep = build_rep(classical(), 4)
        sub = [rep.mat_a[n - 1, n] for n in range(1, 4)]
        assert sub == [math.sqrt(1), math.sqrt(2), math.sqrt(3)]

    def test_geometric_ladder_weights(self):
        rep = build_rep(make_case(CaseId.ARIK_COON, q=2.0), 4)
        sub = np.array([rep.mat_a[n - 1, n] for n in range(1, 4)])
        assert sub == pytest.approx(np.sqrt([1.0, 3.0, 7.0]), rel=1e-14)

    def test_ladder_product_diagonal_for_all_cases(self):
        for K in representative_cases() + custom_cases():
            rep = build_rep(K, 12)
            diag = np.diag([eval_K(K, n) for n in range(12)]).astype(complex)
            assert scaled_max_residual(rep.mat_ad @ rep.mat_a, diag) <= 1e-14

    def test_number_commutators_exact(self):
        for K in representative_cases():
            rep = build_rep(K, 10)
            assert scaled_max_residual(commutator(rep.mat_N, rep.mat_ad), rep.mat_ad) <= 1e-14
            assert scaled_max_residual(commutator(rep.mat_N, rep.mat_a), -rep.mat_a) <= 1e-14

    def test_vacuum_annihilated_exactly(self):
        rep = build_rep(make_case(CaseId.ARIK_COON, q=0.7), 8)
        assert np.all(rep.mat_a[:, 0] == 0.0)

    @pytest.mark.parametrize("K", representative_cases() + custom_cases(), ids=str)
    def test_levels_are_k_at_zero_to_d_plus_one(self, K):
        rep = build_rep(K, 12)
        assert rep.levels.tolist() == [eval_K(K, n) for n in range(14)]

    def test_level_table_is_the_only_k_evaluation(self):
        calls = []

        def counted(n):
            calls.append(n)
            return 2.0 * n

        K = make_case(CaseId.CUSTOM, custom_eval=counted)
        calls.clear()
        rep = build_rep(K, 8)
        assert calls == list(range(10))
        calls.clear()
        quads = quadratures(rep)
        square_sum_bound(random_state(8, 3), rep)
        lie_hamilton_rhs(rep, quads, "x")
        assert calls == [-1]
        calls.clear()
        lie_hamilton_rhs(rep, quads, "p", k_minus_one=0.0)
        assert calls == []

    def test_dimension_and_negativity_rejected(self):
        with pytest.raises(ValueError):
            build_rep(classical(), 3)
        bad = make_case(CaseId.CUSTOM, custom_eval=lambda n: n * (n - 2.5))
        with pytest.raises(ValueError):
            build_rep(bad, 8)


class TestQuadratures:
    def test_classical_hamiltonian_diagonal(self):
        quads = quadratures(build_rep(classical(), 6))
        window = np.real(np.diag(quads.mat_H))[:4]
        assert window == pytest.approx([0.5, 1.5, 2.5, 3.5], abs=1e-14)

    def test_quadratic_spectrum_hamiltonian_level(self):
        K = make_case(CaseId.NONLINEAR, alpha=1.0, beta=2.0)
        quads = quadratures(build_rep(K, 8))
        assert quads.mat_H[2, 2].real == pytest.approx(11.5, abs=1e-12)

    def test_hamiltonian_diagonal_holds_up_to_two_below_truncation(self):
        # H = x^2 + p^2 is exact on rows/cols 0..D-3, not only the
        # default margin-3 window
        for K in representative_cases():
            D = 16
            quads = quadratures(build_rep(K, D))
            hdiag = np.diag(
                [0.5 * (eval_K(K, n) + eval_K(K, n + 1)) for n in range(D)]
            ).astype(complex)
            assert verify_window(quads.mat_H, hdiag, margin=2, tol=1e-12).passed, K

    def test_hermiticity(self):
        for K in representative_cases():
            quads = quadratures(build_rep(K, 16))
            assert scaled_max_residual(quads.mat_x, quads.mat_x.conj().T) <= 1e-14
            assert scaled_max_residual(quads.mat_p, quads.mat_p.conj().T) <= 1e-14


    @pytest.mark.parametrize("K", representative_cases(), ids=str)
    def test_derived_products_exact_and_formed_once(self, K):
        quads = quadratures(build_rep(K, 16))
        x, p = quads.mat_x, quads.mat_p
        x2, p2 = x @ x, p @ p
        for name, fresh in (
            ("mat_xx", x @ x),
            ("mat_pp", p @ p),
            ("mat_xp", commutator(x, p)),
            ("mat_H", x @ x + p @ p),
            ("mat_fourth", x2 @ x2 + x2 @ p2 + p2 @ x2 + p2 @ p2),
        ):
            product = getattr(quads, name)
            assert product.tobytes() == fresh.tobytes(), name
            assert getattr(quads, name) is product, name


class TestCommutator:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            commutator(np.eye(3), np.eye(4))

    def test_classical_xp_is_constant(self):
        quads = quadratures(build_rep(classical(), 12))
        target = 0.5j * np.eye(12, dtype=complex)
        assert verify_window(commutator(quads.mat_x, quads.mat_p), target, name="xp").passed

    def test_geometric_xp_level_two(self):
        quads = quadratures(build_rep(make_case(CaseId.ARIK_COON, q=0.5), 6))
        value = commutator(quads.mat_x, quads.mat_p)[2, 2]
        assert value == pytest.approx(0.125j, abs=1e-14)


class TestWindowedIdentities:
    @pytest.mark.parametrize("K", representative_cases() + custom_cases(), ids=str)
    def test_general_identities(self, K):
        D, margin, tol = 32, 3, 1e-10
        rep = build_rep(K, D)
        quads = quadratures(rep)
        levels = np.array([eval_K(K, n) for n in range(D + 1)])
        delta = np.diag(levels[1:] - levels[:-1]).astype(complex)
        hdiag = np.diag(0.5 * (levels[:-1] + levels[1:])).astype(complex)
        checks = [
            ("ladder_comm", commutator(rep.mat_a, rep.mat_ad), delta),
            ("hamiltonian", quads.mat_H, hdiag),
            ("xp_comm", commutator(quads.mat_x, quads.mat_p), 0.5j * delta),
            ("lh_x", commutator(quads.mat_x, quads.mat_H), lie_hamilton_rhs(rep, quads, "x")),
            ("lh_p", commutator(quads.mat_p, quads.mat_H), lie_hamilton_rhs(rep, quads, "p")),
        ]
        for name, lhs, rhs in checks:
            report = verify_window(lhs, rhs, margin=margin, tol=tol, name=name)
            assert report.passed, (K, report)

    def test_classical_equations_of_motion(self):
        quads = quadratures(build_rep(classical(), 32))
        lhs_x = commutator(quads.mat_x, quads.mat_H)
        lhs_p = commutator(quads.mat_p, quads.mat_H)
        assert verify_window(lhs_x, 1j * quads.mat_p).passed
        assert verify_window(lhs_p, -1j * quads.mat_x).passed

    def test_geometric_closed_coefficients(self):
        q, D = 0.7, 32
        K = make_case(CaseId.ARIK_COON, q=q)
        rep = build_rep(K, D)
        quads = quadratures(rep)
        rhs = lie_hamilton_rhs(rep, quads, "x")
        assert verify_window(commutator(quads.mat_x, quads.mat_H), rhs).passed
        nn = np.arange(D, dtype=float)
        c1 = np.diag(-0.25 * (1 - q * q) * q ** (nn - 1)).astype(complex)
        c2 = np.diag(0.25 * (1 + q) ** 2 * q ** (nn - 1)).astype(complex)
        closed = c1 @ quads.mat_x + 1j * c2 @ quads.mat_p
        assert verify_window(rhs, closed, tol=1e-12).passed

    @pytest.mark.parametrize("side", ["x", "p"])
    @pytest.mark.parametrize("k_minus_one", [None, 37.5])
    @pytest.mark.parametrize("K", representative_cases() + custom_cases(), ids=str)
    def test_lie_hamilton_rhs_matches_per_element_formula(self, K, side, k_minus_one):
        D = 16
        rep = build_rep(K, D)
        quads = quadratures(rep)
        # the per-level formula, one K evaluation per level, as an oracle
        kvals = {m: eval_K(K, m) for m in range(-1, D + 2)}
        if k_minus_one is not None:
            kvals[-1] = float(k_minus_one)
        c1 = np.array(
            [0.25 * (kvals[n + 2] - kvals[n] - kvals[n + 1] + kvals[n - 1]) for n in range(D)]
        )[:, None]
        c2 = np.array(
            [0.25 * (kvals[n + 2] - kvals[n] + kvals[n + 1] - kvals[n - 1]) for n in range(D)]
        )[:, None]
        if side == "x":
            oracle = c1 * quads.mat_x + 1j * (c2 * quads.mat_p)
        else:
            oracle = c1 * quads.mat_p - 1j * (c2 * quads.mat_x)
        rhs = lie_hamilton_rhs(rep, quads, side, k_minus_one=k_minus_one)
        assert rhs.tobytes() == oracle.tobytes()

    def test_k_minus_one_extension_is_irrelevant_on_window(self):
        K = make_case(CaseId.MACFARLANE_BIEDENHARN, q=1.5)
        rep = build_rep(K, 16)
        quads = quadratures(rep)
        lhs = commutator(quads.mat_x, quads.mat_H)
        for override in (eval_K(K, -1), 37.5):
            rhs = lie_hamilton_rhs(rep, quads, "x", k_minus_one=override)
            assert verify_window(lhs, rhs).passed

    def test_negative_control_detects_wrong_spectrum(self):
        D = 32
        quads = quadratures(build_rep(classical(), D))
        wrong = np.diag([0.5 * ((n + 0.1) + (n + 1.1)) for n in range(D)]).astype(complex)
        report = verify_window(quads.mat_H, wrong, name="wrong-spectrum")
        assert not report.passed
        assert report.max_abs_residual >= 0.05 / (D + 1)  # 0.1 shift over entries ~O(D)

    def test_verify_window_validation(self):
        with pytest.raises(ValueError):
            verify_window(np.eye(4), np.eye(4), margin=4)
        report = verify_window(np.eye(8, dtype=complex), np.eye(8, dtype=complex))
        assert report.passed and report.max_abs_residual == 0.0
        assert report.window == 5

    def test_verify_window_margin_zero_spans_whole_matrix(self):
        D, q = 12, 0.7
        quads = quadratures(build_rep(make_case(CaseId.ARIK_COON, q=q), D))
        # [x, p] departs from its closed form only in the truncated top level
        closed = np.diag(0.5j * q ** np.arange(D))
        report = verify_window(quads.mat_xp, closed, margin=0, tol=1e-14)
        assert report.window == D
        assert report.max_abs_residual == scaled_max_residual(quads.mat_xp, closed, 0)
        assert report.max_abs_residual > scaled_max_residual(quads.mat_xp, closed, 1)


class TestStates:
    def test_number_state_basis(self):
        state = number_state(4, 0)
        assert list(state.amplitudes) == [1, 0, 0, 0]
        with pytest.raises(ValueError):
            number_state(4, 4)

    def test_state_vector_norm_enforced(self):
        from deformalg import StateVector

        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 1.0], dtype=complex))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_state_vector_rejects_non_finite_amplitudes(self, bad):
        from deformalg import StateVector

        with pytest.raises(ValueError):
            StateVector(np.array([1.0, bad, 0.0], dtype=complex))

    def test_random_state_determinism_and_norm(self):
        one = random_state(16, 42)
        two = random_state(16, 42)
        assert np.array_equal(one.amplitudes, two.amplitudes)
        assert np.linalg.norm(one.amplitudes) == pytest.approx(1.0, abs=1e-12)
        other = random_state(16, 43)
        assert not np.array_equal(one.amplitudes, other.amplitudes)

    def test_truncation_safe_zeroes_top(self):
        state = truncation_safe(random_state(16, 7), margin=3)
        assert np.all(state.amplitudes[13:] == 0.0)
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_number_states_have_centered_quadratures(self):
        quads = quadratures(build_rep(make_case(CaseId.ARIK_COON, q=1.5), 10))
        for n in range(6):
            state = number_state(10, n)
            assert expectation(state, quads.mat_x) == 0.0
            assert expectation(state, quads.mat_p) == 0.0


class TestUncertaintyProduct:
    def test_classical_number_states(self):
        quads = quadratures(build_rep(classical(), 8))
        first = uncertainty_product(number_state(8, 1), quads)
        assert first.product == pytest.approx(0.75, abs=1e-12)
        assert first.mean_x == 0.0 and first.mean_p == 0.0
        vacuum = uncertainty_product(number_state(8, 0), quads)
        assert vacuum.product == pytest.approx(0.25, abs=1e-12)

    def test_geometric_number_state(self):
        quads = quadratures(build_rep(make_case(CaseId.ARIK_COON, q=0.5), 10))
        report = uncertainty_product(number_state(10, 2), quads)
        assert report.product == pytest.approx(0.25 * (1.5 + 1.75), abs=1e-12)


class TestVerifySuite:
    def test_robertson_check_fails_on_nan_spectrum(self):
        K = make_case(CaseId.CUSTOM, custom_eval=lambda n: n if n < 5 else math.nan)
        checks = {c.name: c for c in run_verify_checks(K, 16, 3, 1e-10, seed=0)}
        robertson = checks["robertson_inequality_random_states"]
        assert math.isnan(robertson.max_abs_residual)
        assert not robertson.passed
