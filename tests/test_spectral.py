"""Spectral function catalog: closed forms, limits, defining relations."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ABG_GRID, Q_GRID, catalog_grid, custom_case
from deformalg import (
    CaseId,
    DefiningRelation,
    defining_relation,
    eval_K,
    forward_delta,
    hamiltonian_eigenvalue,
    make_case,
    relation_residual,
)


def geometric_sum(q, n):
    # independent oracle for the geometric q-bracket
    return sum(q**k for k in range(n))


class TestClosedForms:
    def test_classical_is_identity(self):
        K = make_case(CaseId.CLASSICAL)
        assert eval_K(K, 5) == 5.0
        assert eval_K(K, -1) == -1.0

    def test_geometric_bracket_matches_sum_oracle(self):
        K = make_case(CaseId.ARIK_COON, q=2.0)
        assert eval_K(K, 3) == pytest.approx(geometric_sum(2.0, 3), abs=1e-12)
        assert geometric_sum(2.0, 3) == 7.0
        K = make_case(CaseId.ARIK_COON, q=0.5)
        assert eval_K(K, 2) == pytest.approx(1.5, abs=1e-12)

    def test_geometric_bracket_at_q_one(self):
        K = make_case(CaseId.ARIK_COON, q=1.0)
        assert eval_K(K, 4) == 4.0

    def test_symmetric_bracket_rational_oracle(self):
        expected = (Fraction(2) ** 2 - Fraction(2) ** -2) / (Fraction(2) - Fraction(1, 2))
        assert expected == Fraction(5, 2)
        K = make_case(CaseId.MACFARLANE_BIEDENHARN, q=2.0)
        assert eval_K(K, 2) == pytest.approx(float(expected), abs=1e-12)

    def test_quadratic_spectrum(self):
        K = make_case(CaseId.NONLINEAR, alpha=1.0, beta=2.0)
        assert eval_K(K, 3) == 1.0 * 9 + 2.0 * 3

    def test_two_exponent_families_against_raw_quotient(self):
        for q in (0.3, 2.0):
            K = make_case(CaseId.CHUNG, q=q, alpha=2.0, beta=0.5)
            for n in range(1, 9):
                raw = q**0.5 * (q ** (2.0 * n) - q**n) / (q**2.0 - q)
                assert eval_K(K, n) == pytest.approx(raw, rel=1e-13)
            K = make_case(CaseId.BORZOV, q=q, alpha=2.0, beta=0.5, gamma=-1.0)
            for n in range(1, 9):
                raw = q**0.5 * (q ** (2.0 * n) - q ** (-1.0 * n)) / (q**2.0 - q**-1.0)
                assert eval_K(K, n) == pytest.approx(raw, rel=1e-13)


class TestDerivedQuantities:
    def test_forward_delta_classical(self):
        K = make_case(CaseId.CLASSICAL)
        assert all(forward_delta(K, n) == 1.0 for n in range(10))

    def test_forward_delta_geometric_is_q_power(self):
        K = make_case(CaseId.ARIK_COON, q=0.5)
        assert forward_delta(K, 2) == pytest.approx(0.25, abs=1e-14)
        for n in range(12):
            assert forward_delta(K, n) == pytest.approx(0.5**n, rel=1e-12)

    def test_forward_delta_quadratic_is_linear(self):
        K = make_case(CaseId.NONLINEAR, alpha=1.0, beta=2.0)
        assert forward_delta(K, 2) == 7.0
        for n in range(12):
            assert forward_delta(K, n) == 2.0 * n + 3.0

    def test_hamiltonian_eigenvalues(self):
        assert hamiltonian_eigenvalue(make_case(CaseId.CLASSICAL), 0) == 0.5
        K = make_case(CaseId.NONLINEAR, alpha=1.0, beta=2.0)
        assert hamiltonian_eigenvalue(K, 2) == 11.5
        assert hamiltonian_eigenvalue(K, 2) == 1.0 * 4 + 3.0 * 2 + 1.5
        K = make_case(CaseId.MACFARLANE_BIEDENHARN, q=2.0)
        assert hamiltonian_eigenvalue(K, 1) == pytest.approx(1.75, abs=1e-14)


class TestDefiningRelations:
    def test_classical_residual_is_zero(self):
        K = make_case(CaseId.CLASSICAL)
        assert relation_residual(K, DefiningRelation(1.0, lambda n: 1.0), 20) == 0.0

    def test_geometric_telescoping(self):
        K = make_case(CaseId.ARIK_COON, q=0.7)
        assert relation_residual(K, DefiningRelation(0.7, lambda n: 1.0), 20) <= 1e-12

    def test_symmetric_bracket_relation(self):
        K = make_case(CaseId.MACFARLANE_BIEDENHARN, q=2.0)
        rel = DefiningRelation(2.0, lambda n: 2.0**-n)
        assert relation_residual(K, rel, 20) <= 1e-12

    def test_catalog_pairings_over_grid(self):
        for K in catalog_grid():
            assert relation_residual(K, defining_relation(K), 20) <= 1e-12, K

    def test_nan_defect_is_reported(self):
        K = make_case(CaseId.CLASSICAL)
        residual = relation_residual(K, DefiningRelation(1.0, lambda n: math.nan), 20)
        assert math.isnan(residual)
        late = DefiningRelation(1.0, lambda n: 1.0 if n < 5 else math.nan)
        assert math.isnan(relation_residual(K, late, 20))

    def test_custom_has_no_catalog_relation(self):
        with pytest.raises(ValueError):
            defining_relation(custom_case(2024))

    def test_n_max_validation(self):
        K = make_case(CaseId.CLASSICAL)
        with pytest.raises(ValueError):
            relation_residual(K, defining_relation(K), 0)


class TestInvariants:
    def test_ground_state_is_exactly_zero(self):
        for K in catalog_grid():
            assert eval_K(K, 0) == 0.0, K

    def test_positivity_up_to_64(self):
        for q in Q_GRID:
            for K in (
                make_case(CaseId.ARIK_COON, q=q),
                make_case(CaseId.MACFARLANE_BIEDENHARN, q=q),
            ):
                assert all(eval_K(K, n) > 0.0 for n in range(1, 65)), K
        assert all(eval_K(make_case(CaseId.CLASSICAL), n) > 0 for n in range(1, 65))
        for a in (0.5, 1.0, 2.0):
            for b in (0.5, 1.0, 2.0):
                K = make_case(CaseId.NONLINEAR, alpha=a, beta=b)
                assert all(eval_K(K, n) > 0.0 for n in range(1, 65))

    @pytest.mark.parametrize("q", [1.0 - 1e-8, 1.0 + 1e-8])
    def test_q_to_one_continuity(self, q):
        # tolerance is relative to the level: the true geometric-bracket
        # deviation at n = 32 is ~5e-6, i.e. 1.5e-7 of the value
        cases = [
            make_case(CaseId.ARIK_COON, q=q),
            make_case(CaseId.MACFARLANE_BIEDENHARN, q=q),
        ]
        for a in ABG_GRID:
            for b in ABG_GRID:
                cases.append(make_case(CaseId.CHUNG, q=q, alpha=a, beta=b))
                for g in ABG_GRID:
                    cases.append(make_case(CaseId.BORZOV, q=q, alpha=a, beta=b, gamma=g))
        for K in cases:
            for n in range(33):
                assert abs(eval_K(K, n) - n) <= 1e-6 * max(1.0, n), (K, n)

    @pytest.mark.parametrize("da", [-1e-8, 1e-8])
    def test_branch_consistency_two_exponent(self, da):
        for q in (0.7, 1.5):
            limit = make_case(CaseId.CHUNG, q=q, alpha=1.0, beta=0.5)
            near = make_case(CaseId.CHUNG, q=q, alpha=1.0 + da, beta=0.5)
            for n in range(33):
                ref = eval_K(limit, n)
                assert abs(eval_K(near, n) - ref) <= 1e-6 * max(1.0, abs(ref))
            limit = make_case(CaseId.BORZOV, q=q, alpha=2.0, beta=0.5, gamma=2.0)
            near = make_case(CaseId.BORZOV, q=q, alpha=2.0 + da, beta=0.5, gamma=2.0)
            for n in range(33):
                ref = eval_K(limit, n)
                assert abs(eval_K(near, n) - ref) <= 1e-6 * max(1.0, abs(ref))


class TestValidation:
    def test_nonpositive_q_rejected(self):
        for case in (CaseId.ARIK_COON, CaseId.MACFARLANE_BIEDENHARN):
            with pytest.raises(ValueError):
                make_case(case, q=-1.0)
            with pytest.raises(ValueError):
                make_case(case, q=0.0)
        with pytest.raises(ValueError):
            make_case(CaseId.CHUNG, q=-2.0, alpha=1.0, beta=1.0)

    def test_nonlinear_domain(self):
        with pytest.raises(ValueError):
            make_case(CaseId.NONLINEAR, alpha=-0.5, beta=1.0)
        with pytest.raises(ValueError):
            make_case(CaseId.NONLINEAR, alpha=1.0, beta=0.0)

    def test_missing_parameters(self):
        with pytest.raises(ValueError):
            make_case(CaseId.ARIK_COON)
        with pytest.raises(ValueError):
            make_case(CaseId.CHUNG, q=0.5)
        with pytest.raises(ValueError):
            make_case(CaseId.BORZOV, q=0.5, alpha=1.0, beta=1.0)

    def test_custom_requires_vanishing_ground_level(self):
        with pytest.raises(ValueError):
            make_case(CaseId.CUSTOM, custom_eval=lambda n: n + 0.1)
        K = custom_case(2024)
        assert eval_K(K, 0) == 0.0
        assert eval_K(K, 2) > 0.0

    def test_string_case_ids_accepted(self):
        K = make_case("arik-coon", q=2.0)
        assert K.case_id is CaseId.ARIK_COON
        assert K.params() == {"q": 2.0}


# Valid parameters of every catalog case; each slot is then spoiled in turn.
CATALOG_PARAMS = {
    CaseId.CLASSICAL: {},
    CaseId.ARIK_COON: {"q": 0.7},
    CaseId.MACFARLANE_BIEDENHARN: {"q": 1.5},
    CaseId.CHUNG: {"q": 0.7, "alpha": 2.0, "beta": 0.5},
    CaseId.BORZOV: {"q": 1.5, "alpha": 0.5, "beta": 1.0, "gamma": 2.0},
    CaseId.NONLINEAR: {"alpha": 1.0, "beta": 2.0},
}


class TestParameterValidation:
    @settings(max_examples=200, derandomize=True, database=None)
    @given(
        case=st.sampled_from(sorted(CATALOG_PARAMS)),
        slot=st.sampled_from(("q", "alpha", "beta", "gamma")),
        bad=st.sampled_from((math.nan, math.inf, -math.inf)),
    )
    def test_non_finite_parameter_rejected(self, case, slot, bad):
        params = dict(CATALOG_PARAMS[case], **{slot: bad})
        with pytest.raises(ValueError, match="finite"):
            make_case(case, **params)

    def test_valid_parameters_accepted(self):
        for case, params in CATALOG_PARAMS.items():
            assert make_case(case, **params).case_id is case
