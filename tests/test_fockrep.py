"""Matrix representation engine: structure, windowed identities, states."""

import hashlib
import math
import warnings

import numpy as np
import pytest

from conftest import catalog_grid, custom_cases, dense, representative_cases, residual, splitmix64
from deformalg import (
    Band,
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
from deformalg import fockrep
from deformalg.fockrep import run_verify_checks, scaled_max_residual


def classical():
    return make_case(CaseId.CLASSICAL)


class TestBuildRep:
    def test_classical_ladder_weights(self):
        rep = build_rep(classical(), 4)
        sub = [dense(rep.mat_a)[n - 1, n] for n in range(1, 4)]
        assert sub == [math.sqrt(1), math.sqrt(2), math.sqrt(3)]

    def test_geometric_ladder_weights(self):
        rep = build_rep(make_case(CaseId.ARIK_COON, q=2.0), 4)
        sub = np.array([dense(rep.mat_a)[n - 1, n] for n in range(1, 4)])
        assert sub == pytest.approx(np.sqrt([1.0, 3.0, 7.0]), rel=1e-14)

    def test_ladder_product_diagonal_for_all_cases(self):
        for K in representative_cases() + custom_cases():
            rep = build_rep(K, 12)
            diag = np.diag([eval_K(K, n) for n in range(12)]).astype(complex)
            assert residual(rep.mat_ad @ rep.mat_a, diag) <= 1e-14

    def test_number_commutators_exact(self):
        for K in representative_cases():
            rep = build_rep(K, 10)
            assert scaled_max_residual(commutator(rep.mat_N, rep.mat_ad), rep.mat_ad) <= 1e-14
            assert scaled_max_residual(commutator(rep.mat_N, rep.mat_a), -rep.mat_a) <= 1e-14

    def test_vacuum_annihilated_exactly(self):
        rep = build_rep(make_case(CaseId.ARIK_COON, q=0.7), 8)
        assert np.all(dense(rep.mat_a)[:, 0] == 0.0)

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

    def test_dimension_and_negativity_rejected(self):
        with pytest.raises(ValueError):
            build_rep(classical(), 3)
        bad = make_case(CaseId.CUSTOM, custom_eval=lambda n: n * (n - 2.5))
        with pytest.raises(ValueError):
            build_rep(bad, 8)


class TestIdentityEquality:
    def test_equality_is_identity_and_hashes(self):
        K = make_case(CaseId.ARIK_COON, q=0.7)
        rep = build_rep(K, 8)
        pairs = [
            (rep, build_rep(K, 8)),
            (quadratures(rep), quadratures(rep)),
            (number_state(8, 1), number_state(8, 1)),
        ]
        for one, other in pairs:
            assert one == one
            assert one != other  # separate builds, compared without touching the arrays
            assert len({one, other, one}) == 2


class TestQuadratures:
    def test_classical_hamiltonian_diagonal(self):
        quads = quadratures(build_rep(classical(), 6))
        window = np.real(np.diag(dense(quads.mat_H)))[:4]
        assert window == pytest.approx([0.5, 1.5, 2.5, 3.5], abs=1e-14)

    def test_quadratic_spectrum_hamiltonian_level(self):
        K = make_case(CaseId.NONLINEAR, alpha=1.0, beta=2.0)
        quads = quadratures(build_rep(K, 8))
        assert dense(quads.mat_H)[2, 2].real == pytest.approx(11.5, abs=1e-12)

    def test_hamiltonian_diagonal_holds_up_to_two_below_truncation(self):
        # H = x^2 + p^2 is exact on rows/cols 0..D-3, not only the
        # default margin-3 window
        for K in representative_cases():
            D = 16
            quads = quadratures(build_rep(K, D))
            hdiag = Band.diagonal([0.5 * (eval_K(K, n) + eval_K(K, n + 1)) for n in range(D)])
            assert verify_window(quads.mat_H, hdiag, margin=2, tol=1e-12).passed, K

    def test_hermiticity(self):
        for K in representative_cases():
            quads = quadratures(build_rep(K, 16))
            assert residual(quads.mat_x, dense(quads.mat_x).conj().T) <= 1e-14
            assert residual(quads.mat_p, dense(quads.mat_p).conj().T) <= 1e-14


    @pytest.mark.parametrize("K", representative_cases(), ids=str)
    def test_derived_products_exact_and_formed_once(self, K):
        quads = quadratures(build_rep(K, 16))
        x, p = quads.mat_x, quads.mat_p
        for name, fresh in (
            ("mat_xp", commutator(x, p)),
            ("mat_H", x @ x + p @ p),
        ):
            product = getattr(quads, name)
            assert dense(product).tobytes() == dense(fresh).tobytes(), name
            assert getattr(quads, name) is product, name


class TestCommutator:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            commutator(Band.diagonal(np.ones(3)), Band.diagonal(np.ones(4)))

    def test_classical_xp_is_constant(self):
        quads = quadratures(build_rep(classical(), 12))
        target = 0.5j * Band.diagonal(np.ones(12))
        assert verify_window(commutator(quads.mat_x, quads.mat_p), target, name="xp").passed

    def test_geometric_xp_level_two(self):
        quads = quadratures(build_rep(make_case(CaseId.ARIK_COON, q=0.5), 6))
        value = dense(commutator(quads.mat_x, quads.mat_p))[2, 2]
        assert value == pytest.approx(0.125j, abs=1e-14)


class TestWindowedIdentities:
    @pytest.mark.parametrize("K", representative_cases() + custom_cases(), ids=str)
    def test_general_identities(self, K):
        D, margin, tol = 32, 3, 1e-10
        rep = build_rep(K, D)
        quads = quadratures(rep)
        levels = np.array([eval_K(K, n) for n in range(D + 1)])
        delta = Band.diagonal(levels[1:] - levels[:-1])
        hdiag = Band.diagonal(0.5 * (levels[:-1] + levels[1:]))
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
        closed = c1 @ dense(quads.mat_x) + 1j * c2 @ dense(quads.mat_p)
        assert residual(rhs, closed, 3) <= 1e-12

    @pytest.mark.parametrize("side", ["x", "p"])
    @pytest.mark.parametrize("K", representative_cases() + custom_cases(), ids=str)
    def test_lie_hamilton_rhs_matches_per_element_formula(self, K, side):
        D = 16
        rep = build_rep(K, D)
        quads = quadratures(rep)
        # the per-level formula, one K evaluation per level, as an oracle
        kvals = {m: eval_K(K, m) for m in range(-1, D + 2)}
        c1 = np.array(
            [0.25 * (kvals[n + 2] - kvals[n] - kvals[n + 1] + kvals[n - 1]) for n in range(D)]
        )[:, None]
        c2 = np.array(
            [0.25 * (kvals[n + 2] - kvals[n] + kvals[n + 1] - kvals[n - 1]) for n in range(D)]
        )[:, None]
        x, p = dense(quads.mat_x), dense(quads.mat_p)
        if side == "x":
            oracle = c1 * x + 1j * (c2 * p)
        else:
            oracle = c1 * p - 1j * (c2 * x)
        rhs = lie_hamilton_rhs(rep, quads, side)
        # every entry equal to the formula's; a band product sums from +0.0, so
        # where the formula gives -0.0 the band holds +0.0
        assert np.array_equal(dense(rhs), oracle)

    def test_k_minus_one_extension_is_irrelevant_on_window(self):
        mb = make_case(CaseId.MACFARLANE_BIEDENHARN, q=1.5)
        for k_minus_one in (eval_K(mb, -1), 37.5):
            # Macfarlane-Biedenharn at every level but -1
            K = make_case(
                CaseId.CUSTOM,
                custom_eval=lambda n, low=k_minus_one: low if n == -1 else eval_K(mb, n),
            )
            rep = build_rep(K, 16)
            quads = quadratures(rep)
            lhs = commutator(quads.mat_x, quads.mat_H)
            rhs = lie_hamilton_rhs(rep, quads, "x")
            assert verify_window(lhs, rhs).passed

    def test_k_minus_one_nan_fails_and_raise_propagates(self):
        mb = make_case(CaseId.MACFARLANE_BIEDENHARN, q=1.5)
        nan_low = make_case(
            CaseId.CUSTOM, custom_eval=lambda n: math.nan if n == -1 else eval_K(mb, n)
        )
        checks = {c.name: c for c in run_verify_checks(nan_low, 16, 3, 1e-10, 0)}
        for side in ("x", "p"):
            report = checks[f"lie_hamilton_{side}"]
            assert math.isnan(report.max_abs_residual) and not report.passed

        def raising(n):
            if n == -1:
                raise ArithmeticError("K(-1) undefined")
            return eval_K(mb, n)

        with pytest.raises(ArithmeticError, match="K\\(-1\\) undefined"):
            run_verify_checks(make_case(CaseId.CUSTOM, custom_eval=raising), 16, 3, 1e-10, 0)

    def test_negative_control_detects_wrong_spectrum(self):
        D = 32
        quads = quadratures(build_rep(classical(), D))
        wrong = Band.diagonal([0.5 * ((n + 0.1) + (n + 1.1)) for n in range(D)])
        report = verify_window(quads.mat_H, wrong, name="wrong-spectrum")
        assert not report.passed
        assert report.max_abs_residual >= 0.05 / (D + 1)  # 0.1 shift over entries ~O(D)

    def test_verify_window_validation(self):
        with pytest.raises(ValueError):
            verify_window(Band.diagonal(np.ones(4)), Band.diagonal(np.ones(4)), margin=4)
        report = verify_window(Band.diagonal(np.ones(8)), Band.diagonal(np.ones(8)))
        assert report.passed and report.max_abs_residual == 0.0
        assert report.window == 5

    def test_verify_window_margin_zero_spans_whole_matrix(self):
        D, q = 12, 0.7
        quads = quadratures(build_rep(make_case(CaseId.ARIK_COON, q=q), D))
        # [x, p] departs from its closed form only in the truncated top level
        closed = Band.diagonal(0.5j * q ** np.arange(D))
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


def oracle_state(D, seed):
    """random_state's documented contract, one amplitude at a time from the oracle stream."""
    words = splitmix64(seed)
    amp = np.empty(D, dtype=complex)
    for k in range(D):
        u = ((next(words) >> 11) + 1) * 2.0**-53
        v = ((next(words) >> 11) + 1) * 2.0**-53
        r = math.sqrt(-2.0 * math.log(u))
        t = 2.0 * math.pi * v
        amp[k] = complex(r * math.cos(t), r * math.sin(t))
    amp /= np.linalg.norm(amp)
    return amp


# sha256 of random_state(D, seed).amplitudes.tobytes()
STATE_DIGESTS = {
    (8, 0): "36c61fc54bd8fefd4a77ef221e99aa9f312c565acf972229de4dd90d41f51f83",
    (32, 1): "0f8e3794582a290fb4b4df36144a4c394c5850a6c45e1b3de09e0e78dc04121e",
    (128, 7): "2b8f669da6c5b3cd99fc90ebef21a1443ee20775f0f67e9a4b5db990c7d679f7",
    (8, -1): "00e03442d4a123fee7c1378d71c24b2f267d9aadc9760c282bb0eb9d20367e93",
    (8, 2**64 - 1): "00e03442d4a123fee7c1378d71c24b2f267d9aadc9760c282bb0eb9d20367e93",
    (32, 2**64 - 100): "ab2bdb3a39cc31ac0e6d0e108440b687d4810d06411d0cd15b114ac06b099d60",
    (256, 123456789012345678901): (
        "3220fb4d94638c423f4ad41cf3ede777471a5dfab34833a9bb015378cb958b83"
    ),
}


class TestRandomStream:
    """The seeded stream behind random_state is pinned bit for bit."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_oracle_matches_splitmix64_reference(self):
        words = splitmix64(0)
        assert [next(words) for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    @pytest.mark.parametrize("D,seed", list(STATE_DIGESTS), ids=str)
    def test_state_bytes_match_stored_digest(self, D, seed):
        data = random_state(D, seed).amplitudes.tobytes()
        assert hashlib.sha256(data).hexdigest() == STATE_DIGESTS[D, seed]

    @pytest.mark.parametrize("D", [4, 32, 129])
    @pytest.mark.parametrize("seed", [0, 1, 49, -1, 2**63, 2**64 - 3, 123456789012345678901])
    def test_state_equals_oracle(self, D, seed):
        assert random_state(D, seed).amplitudes.tobytes() == oracle_state(D, seed).tobytes()

    def test_seed_wraps_modulo_two_to_the_64(self):
        # the Robertson sweep draws seeds seed..seed+199, which wrap past 2^64
        for k in range(3):
            wrapped = random_state(16, 2**64 + k).amplitudes
            assert wrapped.tobytes() == random_state(16, k).amplitudes.tobytes()


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

    def test_creation_on_the_wrong_diagonal_fails_the_exact_row(self, monkeypatch):
        def misplaced(K, D):
            rep = build_rep(K, D)
            # ad's weights on offset 2, entries (n + 2, n), instead of offset 1
            rep.__dict__["mat_ad"] = Band(D, {2: np.sqrt(rep.levels[1 : D - 1])})
            return rep

        monkeypatch.setattr(fockrep, "build_rep", misplaced)
        K = make_case(CaseId.ARIK_COON, q=0.7)
        checks = {c.name: c for c in run_verify_checks(K, 16, 3, 1e-10, seed=0)}
        # [N, ad] is then 2 ad: half the scale of the row, far above EXACT_TOL
        assert not checks["number_raises_creation"].passed
        assert checks["number_raises_creation"].max_abs_residual >= 0.25
        assert checks["number_lowers_annihilation"].passed
