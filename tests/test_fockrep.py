"""Matrix representation engine: structure, windowed identities, states."""

import contextlib
import hashlib
import io
import json
import math
import warnings

import numpy as np
import pytest

from conftest import catalog_grid, custom_case, custom_cases, dense, representative_cases, residual, splitmix64
from deformalg import (
    Band,
    CaseId,
    FockRep,
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
from deformalg import cli, fockrep
from deformalg.fockrep import EXACT_TOL, run_verify_checks


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
            assert residual(commutator(rep.mat_N, rep.mat_ad), rep.mat_ad) <= 1e-14
            assert residual(commutator(rep.mat_N, rep.mat_a), -rep.mat_a) <= 1e-14

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
        square_sum_bound(random_state(8, 3), quads)
        lie_hamilton_rhs(quads)
        assert calls == [-1]

    def test_dimension_and_negativity_rejected(self):
        with pytest.raises(ValueError):
            build_rep(classical(), 3)
        bad = make_case(CaseId.CUSTOM, custom_eval=lambda n: n * (n - 2.5))
        with pytest.raises(ValueError):
            build_rep(bad, 8)

    @pytest.mark.parametrize("K", representative_cases(), ids=str)
    @pytest.mark.parametrize("D", [4, 8])
    def test_a_hand_built_table_is_checked(self, K, D):
        levels = build_rep(K, D).levels
        for table in (levels[:-1], np.append(levels, 1.0)):
            with pytest.raises(ValueError, match=rf"^levels must be K\(0..{D + 1}\), got {table.size} values$"):
                FockRep(K, D, table)
        for n in range(D + 2):
            for value in (math.inf, -math.inf, math.nan):
                bad = levels.copy()
                bad[n] = value
                with pytest.raises(ValueError, match=rf"^K\({n}\) = {value}: levels must be finite"):
                    FockRep(K, D, bad)
            bad = levels.copy()
            bad[n] = -1.0
            if n < D:
                with pytest.raises(ValueError, match=rf"^K\({n}\) = -1.0: .* >= 0 below D = {D}$"):
                    FockRep(K, D, bad)
            else:
                # K(D) and K(D+1) weigh no ladder entry
                assert FockRep(K, D, bad).levels[n] == -1.0


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
        rhs_x, rhs_p = lie_hamilton_rhs(quads)
        checks = [
            ("ladder_comm", commutator(rep.mat_a, rep.mat_ad), delta),
            ("hamiltonian", quads.mat_H, hdiag),
            ("xp_comm", commutator(quads.mat_x, quads.mat_p), 0.5j * delta),
            ("lh_x", commutator(quads.mat_x, quads.mat_H), rhs_x),
            ("lh_p", commutator(quads.mat_p, quads.mat_H), rhs_p),
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
        rhs = lie_hamilton_rhs(quads)[0]
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
        rhs = lie_hamilton_rhs(quads)["xp".index(side)]
        # every entry equal to the formula's, up to the sign of a zero: a band
        # sum or a partly spanned product starts from +0.0 where the formula
        # may give -0.0
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
            rhs = lie_hamilton_rhs(quads)[0]
            assert verify_window(lhs, rhs).passed

    def test_k_minus_one_nan_fails_and_raise_propagates(self):
        mb = make_case(CaseId.MACFARLANE_BIEDENHARN, q=1.5)
        nan_low = make_case(
            CaseId.CUSTOM, custom_eval=lambda n: math.nan if n == -1 else eval_K(mb, n)
        )
        with pytest.raises(ValueError, match=r"^K\(-1\) of case 'custom' is not finite$"):
            run_verify_checks(nan_low, 16, 3, 1e-10, 0)

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
        assert report.max_abs_residual == residual(quads.mat_xp, closed, 0)
        assert report.max_abs_residual > residual(quads.mat_xp, closed, 1)

    def test_verify_window_fails_an_infinite_residual_at_an_infinite_tol(self):
        A, B = Band.diagonal([1e308, 0, 0, 0]), Band.diagonal([-1e308, 0, 0, 0])
        with np.errstate(over="ignore"):
            report = verify_window(A, B, margin=0, tol=math.inf)
        assert report.max_abs_residual == math.inf
        assert report.passed is False

    @pytest.mark.parametrize(
        "worst, passed", [(0.0, True), (1e308, True), (math.inf, False), (-math.inf, False), (math.nan, False)]
    )
    def test_one_verdict_rule_passes_only_finite_residuals(self, worst, passed):
        assert fockrep.IdentityReport.judge("rule", 4, worst, math.inf).passed is passed


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


def pairwise_sum(terms):
    """The sum of float terms in numpy's order for a 1-D float64 array: fewer
    than 8 terms in sequence, up to 128 in eight interleaved partial sums
    and the rest in sequence, longer runs split at the multiple of 8 at or
    below the half."""
    n = len(terms)
    if n < 8:
        total = -0.0
        for t in terms:
            total += t
        return total
    if n <= 128:
        r = list(terms[:8])
        full = n - n % 8
        for i in range(8, full, 8):
            for j in range(8):
                r[j] += terms[i + j]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for t in terms[full:]:
            total += t
        return total
    half = n // 2 - n // 2 % 8
    return pairwise_sum(terms[:half]) + pairwise_sum(terms[half:])


def oracle_state(D, seed):
    """random_state's documented contract in plain Python floats, drawn from the oracle stream."""
    words = splitmix64(seed)
    parts = [2.0 * (((next(words) >> 11) + 1) * 2.0**-53) - 1.0 for _ in range(2 * D)]
    re, im = parts[0::2], parts[1::2]
    norm = math.sqrt(pairwise_sum([r * r + i * i for r, i in zip(re, im)]))
    # numpy divides a complex by a real c as a product with 1/c
    scale = 1.0 / norm
    return np.array([complex(r * scale, i * scale) for r, i in zip(re, im)])


# sha256 of random_state(D, seed).amplitudes.tobytes()
STATE_DIGESTS = {
    (8, 0): "d0beefe647c16a3cb18273e7e53fdcf6baf72b38510c21f6c4c47072529331dc",
    (32, 1): "bbef4cdb7c4b3f19737646a9a91480b15d2c9feb590cd7849aac9722138d5dd1",
    (128, 7): "e9ebe3ff02747f16b9bc40411637df44ff3a9efc898377bfdb2155de5db33339",
    (8, -1): "95f00966264680bb03e1bf98f84e23574ba2f42878a74dff4da91f0258b9a690",
    (8, 2**64 - 1): "95f00966264680bb03e1bf98f84e23574ba2f42878a74dff4da91f0258b9a690",
    (32, 2**64 - 100): "7905cc98aefed300344d884a5a3264151139a4b00f85aaf941b3eca6d39ef614",
    (256, 123456789012345678901): (
        "775e226f6919b551f9a3b9150ed685db1313c44e2bf9831ce85984da575bb030"
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

    def test_pairwise_sum_is_numpys_order(self):
        rng = np.random.default_rng(5)
        for n in [*range(1, 300), 1000, 4096]:
            terms = rng.random(n) * 10.0 ** rng.integers(-8, 8, n)
            assert pairwise_sum(terms.tolist()) == terms.sum(), n

    @pytest.mark.parametrize("D,seed", list(STATE_DIGESTS), ids=str)
    def test_state_bytes_match_stored_digest(self, D, seed):
        data = random_state(D, seed).amplitudes.tobytes()
        assert hashlib.sha256(data).hexdigest() == STATE_DIGESTS[D, seed]

    @pytest.mark.parametrize("D", [4, 32, 129])
    @pytest.mark.parametrize("seed", [0, 1, 49, -1, 2**63, 2**64 - 3, 123456789012345678901])
    def test_state_equals_oracle(self, D, seed):
        assert random_state(D, seed).amplitudes.tobytes() == oracle_state(D, seed).tobytes()

    @pytest.mark.parametrize("D", [4, 33])
    def test_batched_draw_rows_equal_one_seed_draws(self, D):
        seeds = [0, 1, 49, -1, 2**63, 2**64 - 100, 2**64 + 5, 123456789012345678901]
        rows = fockrep._uniform_amplitudes(D, seeds)
        assert rows.shape == (len(seeds), D)
        for row, seed in zip(rows, seeds):
            assert row.tobytes() == fockrep._uniform_amplitudes(D, [seed])[0].tobytes()

    def test_first_amplitude_of_seed_zero(self):
        # words 1 and 2 of seed 0 are 0xE220A8397B1DCDAF and 0x6E789E6AA1B965F4.
        # u = ((w >> 11) + 1) 2^-53 = 0x1C4415072F63BA 2^-53, so 2u - 1 =
        # (0x38882A0E5EC774 - 2^53) 2^-53 = 0x18882A0E5EC774 2^-53;
        # v = 0xDCF13CD54372D 2^-53, so 2v - 1 = -(2^53 - 0x1B9E279AA86E5A) 2^-53
        # = -0x461D8655791A6 2^-53
        amplitude = fockrep._uniform_amplitudes(1, [0])[0, 0]
        assert amplitude == complex(float.fromhex("0x1.8882a0e5ec774p-1"), float.fromhex("-0x1.18761955e4698p-3"))

    def test_draws_and_truncation_leave_earlier_states_unchanged(self):
        # the rows are drawn, normalized and truncated in place, on fresh arrays only
        state = random_state(16, 7)
        before = state.amplitudes.tobytes()
        truncated = truncation_safe(state, 3)
        assert not np.shares_memory(truncated.amplitudes, state.amplitudes)
        random_state(16, 7)
        truncation_safe(random_state(16, 7), 3)
        assert state.amplitudes.tobytes() == before
        assert truncated.amplitudes.tobytes() == truncation_safe(random_state(16, 7), 3).amplitudes.tobytes()

    @pytest.mark.parametrize("D", [8, 41, 128, 256, 4096])
    def test_a_row_divided_by_its_norm_is_its_float_view_times_the_reciprocal(self, D):
        # what the in-place normalization relies on, on rows shaped as the sweep's chunks
        seeds = range(fockrep.ROBERTSON_STATES // fockrep._chunk_count(D))
        rows = fockrep._uniform_amplitudes(D, seeds)
        truncated = rows.copy()
        truncated[:, D - 3 :] = 0.0
        for A in (rows, truncated):
            norms = fockrep._row_norms(A)
            assert (A / norms).tobytes() == (A.view(float) * (1.0 / norms)).tobytes()

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


def oracle_apply(band, V):
    """band @ V for a (D, c) stack as a sum from zeros: one add per offset, descending."""
    out = np.zeros(V.shape, dtype=complex)
    for d, m in sorted(band.diagonals.items(), reverse=True):
        row, col = max(0, d), max(0, -d)
        out[row : row + m.size] += m[:, None] * V[col : col + m.size]
    return out


def oracle_violations(V, quads):
    """|<[x, p]>|/2 - dx dp for each column of V, each inner product summed from one fresh product."""
    xV, pV = oracle_apply(quads.mat_x, V), oracle_apply(quads.mat_p, V)

    def inner(U, W):
        return (U.conj() * W).sum(axis=0)

    mean_x, mean_p = inner(V, xV).real, inner(V, pV).real
    dx = np.sqrt(np.maximum(inner(xV, xV).real - mean_x**2, 0.0))
    dp = np.sqrt(np.maximum(inner(pV, pV).real - mean_p**2, 0.0))
    return 0.5 * np.abs(2j * inner(xV, pV).imag) - dx * dp


class TestRobertsonSweep:
    """The chunked sweep against the per-state construction, bit for bit."""

    @pytest.mark.parametrize(
        "K",
        [make_case(CaseId.ARIK_COON, q=0.7), make_case(CaseId.CHUNG, q=0.7, alpha=2.0, beta=0.5)],
        ids=["arik-coon", "chung"],
    )
    @pytest.mark.parametrize("D", [8, 41, 128, 256, 4096])
    def test_violations_equal_the_test_side_arithmetic(self, K, D):
        # a live comparison, not a digest: the complex products follow numpy's
        # CPU dispatch; chung's levels are exactly 0 from n = 2090, so at
        # D = 4096 the x and p images hold signed zeros
        quads = quadratures(build_rep(K, D))
        for V in fockrep._robertson_stacks(D, 3, 0):
            assert fockrep._violations(V, quads).tobytes() == oracle_violations(V, quads).tobytes()

    @pytest.mark.parametrize("seed", [0, -1, 2**64 - 100])
    @pytest.mark.parametrize("D", [8, 41, 128, 256, 512, 4096])
    def test_chunks_equal_the_per_state_stack(self, D, seed):
        quads = quadratures(build_rep(make_case(CaseId.ARIK_COON, q=0.7), D))
        reference = np.stack(
            [truncation_safe(random_state(D, seed + k), 3).amplitudes for k in range(fockrep.ROBERTSON_STATES)],
            axis=1,
        )
        moments = fockrep._moments(reference, quads.mat_x @ reference, quads.mat_p @ reference)
        expected = 0.5 * np.abs(moments.xp_commutator_mean) - moments.product
        stacks = list(fockrep._robertson_stacks(D, 3, seed))
        assert all(V.flags.c_contiguous and V.shape[1] >= 2 for V in stacks)
        assert np.concatenate(stacks, axis=1).tobytes() == reference.tobytes()
        violations = np.concatenate([fockrep._violations(V, quads) for V in stacks])
        assert violations.tobytes() == expected.tobytes()
        report = fockrep._robertson_check(quads, 3, seed)
        assert report.max_abs_residual == max(0.0, float(expected.max()))

    def test_chunks_raise_the_state_errors(self, monkeypatch):
        def top_level_only(D, seeds):
            rows = np.zeros((len(seeds), D), dtype=complex)
            rows[:, -1] = 1.0
            return rows

        monkeypatch.setattr(fockrep, "_random_rows", top_level_only)
        with pytest.raises(ValueError, match="no support below the truncation margin"):
            next(fockrep._robertson_stacks(8, 3, 0))
        monkeypatch.undo()

        def scaled(A, margin):
            A = 2.0 * A
            A[1, 0] = math.nan
            return A

        monkeypatch.setattr(fockrep, "_truncate_rows", scaled)
        with pytest.raises(ValueError, match="state vector norm nan is not 1"):
            next(fockrep._robertson_stacks(8, 3, 0))

    def test_nan_in_an_early_chunk_fails_the_check(self, monkeypatch):
        chunks = iter([np.array([math.nan, 0.0]), np.zeros(2)])
        monkeypatch.setattr(fockrep, "_violations", lambda V, quads: next(chunks))
        quads = quadratures(build_rep(classical(), 41))
        report = fockrep._robertson_check(quads, 3, 0)
        assert math.isnan(report.max_abs_residual) and not report.passed

    def test_chunks_hold_two_states_or_more_at_every_dimension(self):
        for D in range(4, 20001):
            count = fockrep._chunk_count(D)
            # np.array_split makes the first STATES % count chunks one state longer
            small, extra = divmod(fockrep.ROBERTSON_STATES, count)
            sizes = [small + 1] * extra + [small] * (count - extra)
            assert min(sizes) >= 2 and sum(sizes) == fockrep.ROBERTSON_STATES, D


class TestVerifySuite:
    def test_nan_residuals_fail_their_rows(self):
        # a finite table whose products overflow: inf - inf is NaN in these rows
        # (the Robertson row's NaN is TestRobertsonSweep's)
        K = make_case(CaseId.CUSTOM, custom_eval=lambda n: 1e308 if n else 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            checks = {c.name: c for c in run_verify_checks(K, 16, 3, 1e-10, seed=0)}
        for name in ("hamiltonian_diagonal_form", "lie_hamilton_x", "lie_hamilton_p"):
            assert math.isnan(checks[name].max_abs_residual) and not checks[name].passed, name

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


# the six cases of the benchmark workloads, with their parameters
WORKLOAD_CASES = {
    "classical": make_case(CaseId.CLASSICAL),
    "arik-coon": make_case(CaseId.ARIK_COON, q=0.7),
    "macfarlane-biedenharn": make_case(CaseId.MACFARLANE_BIEDENHARN, q=1.5),
    "chung": make_case(CaseId.CHUNG, q=0.7, alpha=2.0, beta=0.5),
    "borzov": make_case(CaseId.BORZOV, q=1.5, alpha=0.5, beta=1.0, gamma=2.0),
    "nonlinear": make_case(CaseId.NONLINEAR, alpha=1.0, beta=2.0),
    "custom": custom_case(2024),
}


def bits(x):
    return np.float64(x).tobytes()


def recorded_judgements(monkeypatch):
    """Every table of rows that _judge_windows judges, with its reports, as they happen."""
    judged = []
    judge = fockrep._judge_windows

    def recording(rows):
        reports = judge(rows)
        judged.append((list(rows), reports))
        return reports

    monkeypatch.setattr(fockrep, "_judge_windows", recording)
    return judged


def assert_reports_are_the_test_side_residuals(rows, reports):
    """Each report carries its row's name and window, and conftest.residual of
    its operands, bit for bit, judged by IdentityReport.judge's rule."""
    assert len(reports) == len(rows)
    for (name, A, B, margin, tol), report in zip(rows, reports):
        assert (report.name, report.window, report.tol) == (name, A.D - margin, tol)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = residual(A, B, margin)
        assert bits(report.max_abs_residual) == bits(expected), (name, report.max_abs_residual, expected)
        assert report.passed is (math.isfinite(expected) and expected <= tol), name


class TestOnePassJudge:
    @pytest.mark.parametrize("D", [4, 8, 32, 129])
    @pytest.mark.parametrize("K", WORKLOAD_CASES.values(), ids=WORKLOAD_CASES)
    def test_every_verify_row_is_the_test_side_residual(self, monkeypatch, K, D):
        judged = recorded_judgements(monkeypatch)
        checks = run_verify_checks(K, D, 3, 1e-10, seed=0)
        # one judge for the whole table; the Robertson row is the sweep's
        [(rows, reports)] = judged
        k = [c.name for c in checks].index("robertson_inequality_random_states")
        assert checks[:k] + checks[k + 1 :] == reports
        assert all(tol == (EXACT_TOL if m == 0 else 1e-10) for _, _, _, m, tol in rows)
        assert_reports_are_the_test_side_residuals(rows, reports)

    def test_the_nan_rows_are_the_test_side_residual(self, monkeypatch):
        judged = recorded_judgements(monkeypatch)
        K = make_case(CaseId.CUSTOM, custom_eval=lambda n: 1e308 if n else 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            run_verify_checks(K, 16, 3, 1e-10, seed=0)
        [(rows, reports)] = judged
        assert sum(math.isnan(r.max_abs_residual) for r in reports) >= 3
        assert_reports_are_the_test_side_residuals(rows, reports)

    @pytest.mark.parametrize("name", ["chung", "borzov"])
    def test_a_case_without_closed_forms_adds_no_rows(self, name):
        K = WORKLOAD_CASES[name]
        rep = build_rep(K, 16)
        quads = quadratures(rep)
        xH, pH = commutator(quads.mat_x, quads.mat_H), commutator(quads.mat_p, quads.mat_H)
        assert list(fockrep._closed_form_rows(quads, xH, pH, 3)) == []
        assert fockrep._judge_windows([]) == []
        assert len(run_verify_checks(K, 16, 3, 1e-10, seed=0)) == 12

    @pytest.mark.parametrize(
        "case_args",
        [
            ["--case", "arik-coon", "--q", "0.7"],
            ["--case", "borzov", "--q", "1.5", "--alpha", "0.5", "--beta", "1", "--gamma", "2"],
            ["--case", "macfarlane-biedenharn", "--q", "3", "--dim", "600"],  # products overflow: NaN
        ],
        ids=["arik-coon", "borzov", "overflowing"],
    )
    @pytest.mark.parametrize("check", ["comm_xp", "lh_x", "comm(N,ad) - ad == 0"])
    def test_the_symbolic_oracle_is_the_one_row_case(self, monkeypatch, case_args, check):
        judged = recorded_judgements(monkeypatch)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            cli.main(["symbolic", *case_args, "--check", check])
        [(rows, reports)] = judged
        assert len(rows) == 1 and rows[0][3] == 3
        assert_reports_are_the_test_side_residuals(rows, reports)
        oracle = json.loads(out.getvalue())["matrix_oracle"]
        assert bits(oracle["max_abs_residual"]) == bits(reports[0].max_abs_residual)
