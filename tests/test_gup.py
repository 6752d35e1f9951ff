"""Uncertainty bounds, the quadratic diagnostic, and the spectrum inversion."""

import contextlib
import io
import math
import re
import warnings

import numpy as np
import pytest

from conftest import catalog_grid, custom_case, custom_cases, dense, representative_cases
from deformalg import cli, fockrep, gup
from deformalg import (
    Band,
    CaseId,
    UncertaintyReport,
    build_rep,
    case_bound,
    commutator,
    eval_K,
    hamiltonian_eigenvalue,
    invert_number,
    kempf_rescale,
    make_case,
    number_state,
    number_state_reports,
    quadratures,
    random_state,
    square_sum_bound,
    truncation_safe,
    uncertainty_product,
    uncertainty_report,
    verify_window,
)

# Margins of the symmetric-bracket fourth-moment bound on number states,
# frozen from an independent ladder-path-enumeration oracle (exact for
# n + 2 < D).  Signs are part of the record: the bound slightly exceeds
# the product at the vacuum for q != 1 because its derivation assumes a
# small deformation; it holds with a wide gap from n = 1 up.
SYMMETRIC_BOUND_MARGINS = {
    (0.95, 0): -1.3516903318855356e-08,
    (0.95, 1): 0.49999890417026077,
    (0.95, 2): 1.0013073191561366,
    (0.95, 3): 1.5052339952371154,
    (1.05, 0): -1.1065550364897092e-08,
    (1.05, 1): 0.4999991029789623,
    (1.05, 2): 1.0011835437407242,
    (1.05, 3): 1.5047380440816216,
}


def classical():
    return make_case(CaseId.CLASSICAL)


class TestReportRecord:
    """UncertaintyReport is an immutable value, equal and hashed by its fields."""

    FIELDS = (0.5, 0.5, 0.25, 0.25, 0.5, True, 0.0)

    def test_report_is_an_immutable_value(self):
        report = UncertaintyReport(*self.FIELDS)
        with pytest.raises(AttributeError):
            report.product = 1.0
        same = UncertaintyReport(*self.FIELDS)
        assert report == same and hash(report) == hash(same) == hash((*self.FIELDS, None, None))
        assert report != UncertaintyReport(*self.FIELDS, case_bound=0.125, margin_case=0.125)

    def test_report_defaults_and_keywords(self):
        report = UncertaintyReport(
            delta_x=0.5,
            delta_p=0.5,
            product=0.25,
            robertson_bound=0.25,
            square_sum_bound=0.5,
            square_sum_violated=True,
            margin_robertson=0.0,
        )
        assert report == UncertaintyReport(*self.FIELDS)
        assert (report.case_bound, report.margin_case) == (None, None)

    def test_report_repr_names_every_field(self):
        report = UncertaintyReport(*self.FIELDS, case_bound=0.125, margin_case=0.125)
        assert repr(report) == str(report) == (
            "UncertaintyReport(delta_x=0.5, delta_p=0.5, product=0.25, robertson_bound=0.25, "
            "square_sum_bound=0.5, square_sum_violated=True, margin_robertson=0.0, "
            "case_bound=0.125, margin_case=0.125)"
        )


class TestRobertsonBound:
    def test_classical_number_states(self):
        rep = build_rep(classical(), 12)
        quads = quadratures(rep)
        for n in range(8):
            bound = uncertainty_report(number_state(12, n), quads).robertson_bound
            assert bound == pytest.approx(0.25, abs=1e-13)

    def test_geometric_number_state(self):
        rep = build_rep(make_case(CaseId.ARIK_COON, q=0.5), 10)
        quads = quadratures(rep)
        bound = uncertainty_report(number_state(10, 2), quads).robertson_bound
        assert bound == pytest.approx(0.0625, abs=1e-14)
        assert bound == pytest.approx(0.25 * 0.5**2, abs=1e-14)

    def test_inequality_on_random_states(self):
        for K in (classical(), make_case(CaseId.MACFARLANE_BIEDENHARN, q=1.5)):
            rep = build_rep(K, 16)
            quads = quadratures(rep)
            for k in range(100):
                state = truncation_safe(random_state(16, 1000 + k), margin=3)
                moments = uncertainty_product(state, quads)
                bound = uncertainty_report(state, quads).robertson_bound
                assert moments.product - bound >= -1e-12


def square_sum_per_level(state, K):
    """The diagnostic with one K evaluation per level, summed in level order."""
    weights = np.abs(state.amplitudes) ** 2
    kn = float(sum(w * eval_K(K, n) for n, w in enumerate(weights)))
    knp1 = float(sum(w * eval_K(K, n + 1) for n, w in enumerate(weights)))
    return 0.25 * (kn * kn + knp1 * knp1)


class TestSquareSumDiagnostic:
    @pytest.mark.parametrize("K", representative_cases(), ids=str)
    def test_matches_per_level_formula(self, K):
        D = 16
        quads = quadratures(build_rep(K, D))
        states = [number_state(D, n) for n in range(D)]
        states += [random_state(D, 50 + k) for k in range(5)]
        states += [truncation_safe(random_state(D, 60 + k), 3) for k in range(5)]
        for state in states:
            assert square_sum_bound(state, quads) == square_sum_per_level(state, K)

    def test_classical_first_level_violates(self):
        quads = quadratures(build_rep(classical(), 8))
        state = number_state(8, 1)
        diagnostic = square_sum_bound(state, quads)
        assert diagnostic == pytest.approx(1.25, abs=1e-13)
        report = uncertainty_report(state, quads)
        assert report.product == pytest.approx(0.75, abs=1e-13)
        assert report.square_sum_violated

    def test_classical_vacuum_equality(self):
        quads = quadratures(build_rep(classical(), 8))
        state = number_state(8, 0)
        assert square_sum_bound(state, quads) == pytest.approx(0.25, abs=1e-14)
        report = uncertainty_report(state, quads)
        assert not report.square_sum_violated

    def test_vacuum_general_form(self):
        for q in (0.5, 2.0):
            K = make_case(CaseId.ARIK_COON, q=q)
            quads = quadratures(build_rep(K, 8))
            expected = 0.25 * eval_K(K, 1) ** 2
            assert square_sum_bound(number_state(8, 0), quads) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("dim", [1, 4])
    def test_a_state_of_another_dimension_is_rejected(self, dim):
        # a dimension-1 state would broadcast over all eight levels
        quads = quadratures(build_rep(classical(), 8))
        message = rf"^a dimension-8 band applies to 8-row vectors, got \({dim},\)$"
        with pytest.raises(ValueError, match=message):
            square_sum_bound(number_state(dim, 0), quads)


def closed_form_inversion(K, h):
    """The geometric, symmetric and quadratic inversion formulas, one per case: the tests' oracle."""
    if K.case_id is CaseId.CLASSICAL:
        return h - 0.5
    if K.case_id is CaseId.NONLINEAR:
        alpha, beta = K.alpha, K.beta
        if abs(alpha) <= 1e-12:
            return h / beta - 0.5
        radicand = beta * beta - alpha * alpha + 4.0 * alpha * h
        if radicand < 0.0:
            raise ValueError(f"h = {h} gives a negative radicand {radicand}")
        return (-(alpha + beta) + math.sqrt(radicand)) / (2.0 * alpha)
    q = K.q
    if abs(q - 1.0) <= 1e-12:
        return h - 0.5
    if K.case_id is CaseId.ARIK_COON:
        t = (2.0 / (1.0 + q)) * (1.0 - (1.0 - q) * h)
        if t <= 0.0:
            raise ValueError(f"h = {h} is outside the attainable spectrum for q = {q}")
        return math.log(t) / math.log(q)
    A = (q - 1.0) * h
    if A >= 0.0:
        t = (A + math.sqrt(A * A + q)) / q
    else:
        t = 1.0 / (math.sqrt(A * A + q) - A)
    return math.log(t) / math.log(q)


INVERTIBLE = (CaseId.CLASSICAL, CaseId.ARIK_COON, CaseId.MACFARLANE_BIEDENHARN, CaseId.NONLINEAR)


class TestInversions:
    def test_geometric_spot_checks(self):
        K = make_case(CaseId.ARIK_COON, q=0.5)
        h = hamiltonian_eigenvalue(K, 2)
        assert h == pytest.approx(1.625, abs=1e-14)
        assert (2.0 / 1.5) * (1.0 - 0.5 * h) == pytest.approx(0.25, abs=1e-14)
        assert invert_number(K, h) == pytest.approx(2.0, abs=1e-12)
        assert invert_number(make_case(CaseId.ARIK_COON, q=2.0), 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_geometric_continuation_at_q_one(self):
        K = make_case(CaseId.ARIK_COON, q=1.0)
        for n in range(6):
            assert invert_number(K, n + 0.5) == pytest.approx(n, abs=1e-14)

    def test_geometric_out_of_range(self):
        with pytest.raises(ValueError, match=r"^h = 10.0 is outside the attainable spectrum for q = 0.5$"):
            invert_number(make_case(CaseId.ARIK_COON, q=0.5), 10.0)

    def test_symmetric_spot_checks(self):
        K = make_case(CaseId.MACFARLANE_BIEDENHARN, q=2.0)
        h = hamiltonian_eigenvalue(K, 1)
        assert h == pytest.approx(1.75, abs=1e-14)
        # exact rational arithmetic: (1/3)(2.625 + sqrt(6.890625 + 4.5)) = 2
        assert (2.625 + math.sqrt(6.890625 + 4.5)) / 3.0 == pytest.approx(2.0, abs=1e-14)
        assert invert_number(K, h) == pytest.approx(1.0, abs=1e-12)
        assert invert_number(K, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_monotone(self):
        K = make_case(CaseId.MACFARLANE_BIEDENHARN, q=2.0)
        ns = [invert_number(K, h) for h in np.linspace(0.5, 40.0, 50)]
        assert all(b > a for a, b in zip(ns, ns[1:]))

    def test_quadratic_spot_checks(self):
        K = make_case(CaseId.NONLINEAR, alpha=1.0, beta=2.0)
        assert invert_number(K, 19.5) == pytest.approx(3.0, abs=1e-12)
        assert invert_number(K, 11.5) == pytest.approx(2.0, abs=1e-12)
        assert invert_number(K, 1.5) == pytest.approx(0.0, abs=1e-12)
        assert math.sqrt(4.0 - 1.0 + 46.0) == 7.0

    def test_quadratic_linear_continuation(self):
        assert invert_number(make_case(CaseId.NONLINEAR, alpha=0.0, beta=2.0), 5.0) == pytest.approx(2.0, abs=1e-14)

    def test_quadratic_negative_radicand(self):
        with pytest.raises(ValueError, match=r"^h = -10.0 gives a negative radicand -37.0$"):
            invert_number(make_case(CaseId.NONLINEAR, alpha=1.0, beta=2.0), -10.0)

    @pytest.mark.parametrize("K", [K for K in catalog_grid() if K.case_id in INVERTIBLE], ids=str)
    def test_each_case_takes_its_closed_form_bit_for_bit(self, K):
        # the round-trip levels, then eigenvalues below, between and beyond them,
        # among them the geometric saturation point and the negative radicands
        hs = [hamiltonian_eigenvalue(K, n) for n in range(29)]
        hs += [-1e300, -10.0, -1.0, -0.25, 0.0, 0.25, 1.0 + 1e-9, 1.4, 3.3, 10.0, 1e6, 1e300]
        for h in hs:
            try:
                expected = closed_form_inversion(K, h)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    invert_number(K, h)
            else:
                assert invert_number(K, h).hex() == expected.hex(), h

    @pytest.mark.parametrize(
        "K",
        [
            make_case(CaseId.CHUNG, q=0.7, alpha=2.0, beta=0.5),
            make_case(CaseId.BORZOV, q=1.5, alpha=0.5, beta=1.0, gamma=2.0),
            custom_case(2024),
        ],
        ids=lambda K: K.case_id.value,
    )
    def test_cases_without_a_closed_form_are_refused(self, K):
        with pytest.raises(ValueError, match=rf"^case '{K.case_id.value}' has no closed-form inversion$"):
            invert_number(K, 1.5)

    @pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("K", representative_cases(), ids=str)
    def test_h_that_is_not_finite_is_refused(self, K, h):
        with pytest.raises(ValueError, match=rf"^h must be finite, got {h}$"):
            invert_number(K, h)

    @pytest.mark.parametrize("q", [0.7, 1.0, 1.5, 3.0])
    def test_geometric_round_trip(self, q):
        K = make_case(CaseId.ARIK_COON, q=q)
        for n in range(29):
            h = hamiltonian_eigenvalue(K, n)
            assert abs(invert_number(K, h) - n) <= 1e-9

    def test_geometric_round_trip_saturation_domain(self):
        # at q < 1 the map n -> h saturates at 1/(1-q); float64 carries
        # the level information only up to n ~ ln(eps)/(2 ln q)
        K = make_case(CaseId.ARIK_COON, q=0.3)
        for n in range(13):
            h = hamiltonian_eigenvalue(K, n)
            assert abs(invert_number(K, h) - n) <= 1e-9

    @pytest.mark.parametrize("q", [0.3, 0.7, 1.0, 1.5, 3.0])
    def test_symmetric_round_trip(self, q):
        K = make_case(CaseId.MACFARLANE_BIEDENHARN, q=q)
        for n in range(29):
            h = hamiltonian_eigenvalue(K, n)
            assert abs(invert_number(K, h) - n) <= 1e-9

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_quadratic_round_trip(self, alpha, beta):
        K = make_case(CaseId.NONLINEAR, alpha=alpha, beta=beta)
        for n in range(29):
            h = hamiltonian_eigenvalue(K, n)
            assert abs(invert_number(K, h) - n) <= 1e-9


class TestKempfRescaling:
    @pytest.mark.parametrize(
        "K",
        [K for K in representative_cases() + custom_cases() if K.case_id is not CaseId.ARIK_COON],
        ids=str,
    )
    def test_a_case_other_than_arik_coon_is_rejected_by_name(self, K):
        # q comes from the quadratures' own case, so no other case's q can reach the rescaling
        quads = quadratures(build_rep(K, 8))
        message = f"^case '{K.case_id.value}' has no Kempf rescaling, which serves arik-coon alone$"
        for rescale in (kempf_rescale, gup.kempf_rescale):
            with pytest.raises(ValueError, match=message):
                rescale(quads)

    def test_the_quadratures_carry_their_representation(self):
        rep = build_rep(make_case(CaseId.ARIK_COON, q=0.5), 8)
        quads = quadratures(rep)
        assert quads.rep is rep and not quads.rescaled
        assert kempf_rescale(quads).rep is quads.rep and kempf_rescale(quads).rescaled

    def test_the_gup_readers_refuse_a_rescaled_set(self):
        # rescaled moments beside the unscaled levels read product 0.375, diagnostic 0.25 and case bound 0.104
        quads = quadratures(build_rep(make_case(CaseId.ARIK_COON, q=0.5), 12))
        vacuum = number_state(12, 0)
        report = uncertainty_report(vacuum, quads)
        assert (report.product, report.square_sum_bound) == pytest.approx((0.25, 0.25), abs=1e-15)
        assert report.case_bound == pytest.approx(0.125, abs=1e-15)
        message = "^the gup readers take unscaled quadratures, not a Kempf-rescaled set$"
        for reader in (uncertainty_report, case_bound, square_sum_bound):
            with pytest.raises(ValueError, match=message):
                reader(vacuum, kempf_rescale(quads))
        # the moments themselves stay readable
        assert uncertainty_product(vacuum, kempf_rescale(quads)).product == pytest.approx(0.375, rel=1e-12)

    def test_classical_limit(self):
        quads = quadratures(build_rep(make_case(CaseId.ARIK_COON, q=1.0), 16))
        rescaled = kempf_rescale(quads)
        assert np.allclose(dense(rescaled.mat_x), math.sqrt(2.0) * dense(quads.mat_x))
        lhs = commutator(rescaled.mat_x, rescaled.mat_p)
        assert verify_window(lhs, 1j * Band.diagonal(np.ones(16)), tol=1e-12).passed

    def test_deformed_commutator_form(self):
        q = 0.5
        quads = quadratures(build_rep(make_case(CaseId.ARIK_COON, q=q), 32))
        rescaled = kempf_rescale(quads)
        lhs = commutator(rescaled.mat_x, rescaled.mat_p)
        rhs = 1j * (Band.diagonal(np.ones(32)) - ((1 - q) / (1 + q)) * rescaled.mat_H)
        assert verify_window(lhs, rhs, tol=1e-10).passed

    def test_vacuum_product_scales(self):
        q = 0.5
        quads = quadratures(build_rep(make_case(CaseId.ARIK_COON, q=q), 12))
        rescaled = kempf_rescale(quads)
        moments = uncertainty_product(number_state(12, 0), rescaled)
        assert moments.product == pytest.approx((1 + q) * 0.25, rel=1e-12)

    @pytest.mark.parametrize("q", [0.3, 0.7, 1.5, 3.0])
    def test_hamiltonian_form_equals_power_form(self, q):
        # the two geometric-case commutator normal forms agree directly
        D = 32
        quads = quadratures(build_rep(make_case(CaseId.ARIK_COON, q=q), D))
        nn = np.arange(D, dtype=float)
        h_form = (1j / (1 + q)) * (Band.diagonal(np.ones(D)) - (1 - q) * quads.mat_H)
        power_form = 0.5j * Band.diagonal(q**nn)
        assert verify_window(h_form, power_form, tol=1e-10).passed


class TestCaseBounds:
    def test_geometric_bound_equals_q_power_over_eight(self):
        q = 0.5
        K = make_case(CaseId.ARIK_COON, q=q)
        rep = build_rep(K, 16)
        quads = quadratures(rep)
        for n in range(6):
            state = number_state(16, n)
            rhs = case_bound(state, quads)
            assert rhs == pytest.approx(q**n / 8.0, rel=1e-11)
            lhs = uncertainty_product(state, quads).product
            assert lhs - rhs >= 0.0

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.7, 0.9, 0.99])
    def test_geometric_bound_margins_nonnegative(self, q):
        K = make_case(CaseId.ARIK_COON, q=q)
        rep = build_rep(K, 16)
        quads = quadratures(rep)
        for n in range(6):
            state = number_state(16, n)
            report = uncertainty_report(state, quads)
            assert report.margin_case >= 0.0

    def test_symmetric_bound_equality_at_q_one_vacuum(self):
        K = make_case(CaseId.MACFARLANE_BIEDENHARN, q=1.0)
        rep = build_rep(K, 16)
        quads = quadratures(rep)
        state = number_state(16, 0)
        rhs = case_bound(state, quads)
        lhs = uncertainty_product(state, quads).product
        assert lhs == pytest.approx(0.25, abs=1e-13)
        assert rhs == pytest.approx(0.25, abs=1e-13)

    @pytest.mark.parametrize("q", [0.3, 0.95, 1.05, 2.0])
    def test_symmetric_bound_equals_sum_of_four_expectations(self, q):
        # the bound reads <(x^2 + p^2)^2> as |x(x psi) + p(p psi)|^2; the four
        # expectations of dense products agree with it to rounding, at most 8
        # ulp of the bound here (3.9 measured), up to the truncated top level
        D = 16
        K = make_case(CaseId.MACFARLANE_BIEDENHARN, q=q)
        quads = quadratures(build_rep(K, D))
        x, p = dense(quads.mat_x), dense(quads.mat_p)
        x2, p2 = x @ x, p @ p
        for n in range(D):
            v = number_state(D, n).amplitudes
            moments = sum(np.vdot(v, M @ v) for M in (x2 @ x2, x2 @ p2, p2 @ x2, p2 @ p2)).real
            prefactor = math.sqrt(q) / (2.0 * (1.0 + q))
            correction = q * (q - 1.0 / q) ** 2 / (2.0 * (q + 1.0) ** 2)
            expected = prefactor * (1.0 + correction * moments)
            bound = case_bound(number_state(D, n), quads)
            assert bound == pytest.approx(expected, rel=8 * np.finfo(float).eps, abs=0.0), n

    def test_symmetric_bound_frozen_margins(self):
        for (q, n), frozen in SYMMETRIC_BOUND_MARGINS.items():
            K = make_case(CaseId.MACFARLANE_BIEDENHARN, q=q)
            rep = build_rep(K, 24)
            quads = quadratures(rep)
            state = number_state(24, n)
            margin = uncertainty_product(state, quads).product - case_bound(state, quads)
            assert margin == pytest.approx(frozen, abs=1e-10), (q, n)
            assert (margin < 0.0) == (frozen < 0.0)

    def test_quadratic_bound_vacuum_values(self):
        K = make_case(CaseId.NONLINEAR, alpha=1.0, beta=2.0)
        rep = build_rep(K, 16)
        quads = quadratures(rep)
        state = number_state(16, 0)
        lhs = uncertainty_product(state, quads).product
        rhs = case_bound(state, quads)
        assert lhs == pytest.approx(0.75, abs=1e-13)
        assert rhs == pytest.approx(0.3125, abs=1e-13)

    @pytest.mark.parametrize("alpha,beta", [(0.1, 1.0), (0.2, 2.0), (0.05, 1.0)])
    def test_quadratic_bound_margins_positive(self, alpha, beta):
        K = make_case(CaseId.NONLINEAR, alpha=alpha, beta=beta)
        rep = build_rep(K, 16)
        quads = quadratures(rep)
        for n in range(6):
            state = number_state(16, n)
            report = uncertainty_report(state, quads)
            assert report.margin_case > 0.0

    @pytest.mark.parametrize("beta,bound", [(1e200, 2.5e199), (1e-200, -math.inf)])
    def test_quadratic_bound_at_extreme_beta_reads_its_limit(self, beta, bound):
        # beta^2 overflows at beta = 1e200 and underflows to 0 at 1e-200; alpha/beta/beta reads 0 and inf
        K = make_case(CaseId.NONLINEAR, alpha=1.0, beta=beta)
        D = 8
        quads = quadratures(build_rep(K, D))
        reports = number_state_reports(K, D, range(D - 3))
        for n, row in enumerate(reports):
            state = number_state(D, n)
            assert case_bound(state, quads) == bound
            assert row.case_bound == bound
            assert uncertainty_report(state, quads).margin_case == row.margin_case
            assert row.margin_case == row.product - bound
        assert all(r.margin_case == math.inf for r in reports) == (bound == -math.inf)
        out = io.StringIO()
        argv = ["gup-scan", "--case", "nonlinear", "--alpha", "1", "--beta", repr(beta), "--dim", "8"]
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        assert out.getvalue().splitlines()[1].split(",")[10] == cli.fmt_float(bound)

    @pytest.mark.parametrize("K", representative_cases(), ids=str)
    def test_report_carries_the_case_bound_where_one_applies(self, K):
        D = 12
        rep = build_rep(K, D)
        quads = quadratures(rep)
        has_bound = K.case_id in (CaseId.ARIK_COON, CaseId.MACFARLANE_BIEDENHARN, CaseId.NONLINEAR)
        for state in (number_state(D, 2), truncation_safe(random_state(D, 5), 3)):
            report = uncertainty_report(state, quads)
            bound = case_bound(state, quads)
            assert (bound is not None) == has_bound
            assert report.case_bound == bound
            if has_bound:
                assert report.margin_case == report.product - bound
            else:
                assert report.margin_case is None

    @pytest.mark.parametrize("K", representative_cases(), ids=str)
    def test_report_takes_the_moments_once(self, K, monkeypatch):
        calls = []
        moments = fockrep._moments

        def counted(V, xV, pV):
            calls.append(V.shape)
            return moments(V, xV, pV)

        # gup reads fockrep._moments each time it takes the moments of a state
        monkeypatch.setattr(fockrep, "_moments", counted)
        D = 12
        rep = build_rep(K, D)
        uncertainty_report(number_state(D, 2), quadratures(rep))
        assert calls == [(D,)]

    def test_case_without_bound_gives_none(self):
        K = classical()
        rep = build_rep(K, 8)
        quads = quadratures(rep)
        assert case_bound(number_state(8, 0), quads) is None


def oracle_report(state, rep, quads):
    """The report of one state from the per-state formulas: uncertainty_product,
    the builtin sum in level order, and the fourth moment through np.vdot."""
    K = rep.K
    m = uncertainty_product(state, quads)
    v = state.amplitudes
    weights = np.abs(v) ** 2
    D = weights.shape[0]
    kn = float(sum(weights * rep.levels[:D]))
    knp1 = float(sum(weights * rep.levels[1 : D + 1]))
    diagnostic = 0.25 * (kn * kn + knp1 * knp1)
    spread = m.delta_x**2 + m.delta_p**2
    if K.case_id is CaseId.ARIK_COON:
        bound = (1.0 - (1.0 - K.q) * spread) / (4.0 * (1.0 + K.q))
    elif K.case_id is CaseId.MACFARLANE_BIEDENHARN:
        q, x, p = K.q, quads.mat_x, quads.mat_p
        h = x @ (x @ v) + p @ (p @ v)
        prefactor = math.sqrt(q) / (2.0 * (1.0 + q))
        correction = q * (q - 1.0 / q) ** 2 / (2.0 * (q + 1.0) ** 2)
        bound = prefactor * (1.0 + correction * float(np.vdot(h, h).real))
    elif K.case_id is CaseId.NONLINEAR:
        a, b = K.alpha, K.beta
        bound = (b / 4.0) * (1.0 - (a / b**2) * spread)
    else:
        bound = None
    robertson = 0.5 * abs(m.xp_commutator_mean)
    return UncertaintyReport(
        delta_x=m.delta_x,
        delta_p=m.delta_p,
        product=m.product,
        robertson_bound=robertson,
        square_sum_bound=diagnostic,
        square_sum_violated=m.product < diagnostic - gup.VIOLATION_TOL,
        margin_robertson=m.product - robertson,
        case_bound=bound,
        margin_case=None if bound is None else m.product - bound,
    )


def fields(report, exact_bits=False):
    """The report's fields, floats as their bytes when exact_bits, NaN as one marker otherwise."""
    out = []
    for value in report._asdict().values():
        if isinstance(value, float):
            value = np.float64(value).tobytes() if exact_bits else ("nan" if math.isnan(value) else value)
        out.append(value)
    return out


# Parameters whose level tables stay finite up to D = 4096
DEEP_CASES = [
    make_case(CaseId.CLASSICAL),
    make_case(CaseId.ARIK_COON, q=0.7),
    make_case(CaseId.MACFARLANE_BIEDENHARN, q=0.95),
    make_case(CaseId.CHUNG, q=0.7, alpha=2.0, beta=0.5),
    make_case(CaseId.BORZOV, q=0.7, alpha=2.0, beta=0.0, gamma=2.0),
    make_case(CaseId.NONLINEAR, alpha=1.0, beta=2.0),
]


class TestNumberStateReports:
    """The number-state reports read from the level table against the per-state formulas."""

    @staticmethod
    def assert_match(rep, levels):
        reports = number_state_reports(rep.K, rep.D, levels)
        assert len(reports) == len(levels)
        quads = quadratures(rep)
        for n, report in zip(levels, reports):
            assert fields(report) == fields(oracle_report(number_state(rep.D, n), rep, quads)), n

    @pytest.mark.parametrize("K", DEEP_CASES, ids=str)
    def test_levels_in_any_order_at_D_4096(self, K):
        D = 4096
        self.assert_match(build_rep(K, D), [D - 1, 5, 5] + list(range(0, D, 31)))

    @pytest.mark.parametrize("K", representative_cases(), ids=str)
    @pytest.mark.parametrize("D", [8, 128])
    def test_every_level(self, K, D):
        self.assert_match(build_rep(K, D), list(range(D)))

    def test_overflowing_fourth_moments(self):
        # <(x^2 + p^2)^2> and the diagnostic overflow to inf at the top levels
        K = make_case(CaseId.MACFARLANE_BIEDENHARN, q=3.5)
        rep = build_rep(K, 300)
        self.assert_match(rep, list(range(297)))
        with warnings.catch_warnings():
            # np.vdot and Python floats overflow silently, so the level-table path does too
            warnings.simplefilter("error")
            top = number_state_reports(K, 300, [295, 296])[1]
        assert top.case_bound == math.inf and top.square_sum_bound == math.inf

    def test_finite_levels_whose_sum_overflows(self):
        K = make_case(CaseId.CUSTOM, custom_eval=lambda n: 1e308 if n else 0.0)
        rep = build_rep(K, 8)
        assert sum(rep.levels.tolist()) == math.inf
        with np.errstate(over="ignore"):
            self.assert_match(rep, list(range(8)))

    def test_levels_outside_the_representation_are_rejected(self):
        with pytest.raises(ValueError, match="level 8 outside 0..7"):
            number_state_reports(classical(), 8, [0, 8])
        assert number_state_reports(classical(), 8, []) == []

    def test_the_representation_rule_of_build_rep_applies(self):
        with pytest.raises(ValueError, match="dimension must be >= 4"):
            number_state_reports(classical(), 3, [0])
        negative = make_case(CaseId.CUSTOM, custom_eval=lambda n: -1.0 if n == 2 else n)
        with pytest.raises(ValueError, match=r"K\(2\) = -1.0: levels must be finite"):
            number_state_reports(negative, 8, [0])

    @pytest.mark.parametrize("K", representative_cases(), ids=str)
    def test_single_states_keep_their_bits(self, K):
        D = 24
        rep = build_rep(K, D)
        quads = quadratures(rep)
        for seed in range(20):
            state = truncation_safe(random_state(D, 700 + seed), 3)
            expected = oracle_report(state, rep, quads)
            assert fields(uncertainty_report(state, quads), True) == fields(expected, True)
            assert np.float64(square_sum_bound(state, quads)).tobytes() == np.float64(expected.square_sum_bound).tobytes()
            bound = case_bound(state, quads)
            if expected.case_bound is None:
                assert bound is None
            else:
                assert np.float64(bound).tobytes() == np.float64(expected.case_bound).tobytes()


# The four cases with a q, at the parameters the command-line workloads use
Q_CASES = {
    "arik-coon": {},
    "macfarlane-biedenharn": {},
    "chung": {"alpha": 2.0, "beta": 0.5},
    "borzov": {"alpha": 0.5, "beta": 1.0, "gamma": 2.0},
}


def single_rep_report(K, D, n):
    """The oracle report of |n> under K's own representation, built alone."""
    rep = build_rep(K, D)
    return oracle_report(number_state(D, n), rep, quadratures(rep))


@pytest.mark.parametrize("case", list(Q_CASES))
@pytest.mark.parametrize("D", [8, 32, 300])
def test_each_q_scan_row_is_the_report_at_its_grid_point(case, D):
    params = Q_CASES[case]
    options = [f"--{name}={value}" for name, value in params.items()]
    for n in (0, 3, D - 4):
        argv = ["gup-scan", "--case", case, *options, "--dim", str(D), "--q-from", "0.25", "--q-to", "1.75",
                "--q-steps", "13", "--n-from", str(n)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        rows = [line.split(",") for line in out.getvalue().splitlines()[1:]]
        assert len(rows) == 13
        for row in rows:
            report = single_rep_report(make_case(case, q=float(row[1]), **params), D, n)
            expected = [
                report.delta_x, report.delta_p, report.product, report.robertson_bound, report.case_bound,
                report.square_sum_bound, report.margin_robertson, report.margin_case,
            ]
            assert row[5] == str(n)
            assert [None if cell == "" else float(cell) for cell in row[6:]] == expected, row
