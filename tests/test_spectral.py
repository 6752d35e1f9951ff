"""Spectral function catalog: closed forms, limits, defining relations."""

import math
import re
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ABG_GRID, Q_GRID, catalog_grid, custom_case
from deformalg import (
    CaseId,
    DefiningRelation,
    SpectralFunction,
    defining_relation,
    eval_K,
    forward_delta,
    hamiltonian_eigenvalue,
    level_table,
    make_case,
    relation_residual,
)
from deformalg import gup
from deformalg.spectral import DEGENERATE_TOL, NEAR_SINGULAR


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


def relation_walk(K):
    """(s, g) of K's catalog defining relation, spelled out case by case: the tests' copy of the relations."""
    case = K.case_id
    if case is CaseId.CLASSICAL:
        return 1.0, lambda n: 1.0
    if case is CaseId.NONLINEAR:
        a, b = K.alpha, K.beta
        return 1.0, lambda n: 2.0 * a * n + a + b
    q = K.q
    if case is CaseId.ARIK_COON:
        return q, lambda n: 1.0
    if case is CaseId.MACFARLANE_BIEDENHARN:
        return q, lambda n: q ** (-n)
    if case is CaseId.CHUNG:
        return q, lambda n: q ** (K.alpha * n + K.beta)
    return q**K.gamma, lambda n: q ** (K.alpha * n + K.beta)


class TestDefiningRelations:
    def test_every_relation_keeps_the_bits_of_the_case_walk(self):
        for K in catalog_grid():
            rel, (s, g) = defining_relation(K), relation_walk(K)
            assert rel.s.hex() == s.hex(), K
            assert [rel.g(n).hex() for n in range(-1, 41)] == [g(n).hex() for n in range(-1, 41)], K

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


class TestRecords:
    """SpectralFunction and DefiningRelation are immutable values, equal and hashed by their fields."""

    def test_spectral_function_is_an_immutable_value(self):
        K = make_case(CaseId.ARIK_COON, q=0.7)
        with pytest.raises(AttributeError):
            K.q = 0.5
        same = SpectralFunction(CaseId.ARIK_COON, q=0.7)
        assert K == same and hash(K) == hash(same) == hash((CaseId.ARIK_COON, 0.7, None, None, None, None))
        assert K != make_case(CaseId.ARIK_COON, q=0.5)

    def test_spectral_function_defaults_and_keywords(self):
        K = SpectralFunction(CaseId.CHUNG, 0.7, 2.0, beta=0.5)
        assert (K.case_id, K.q, K.alpha, K.beta, K.gamma, K.custom_eval) == (CaseId.CHUNG, 0.7, 2.0, 0.5, None, None)
        assert K == make_case(CaseId.CHUNG, q=0.7, alpha=2.0, beta=0.5)
        assert SpectralFunction(case_id=CaseId.CLASSICAL) == make_case(CaseId.CLASSICAL)

    def test_spectral_function_repr_hides_custom_eval(self):
        expected = "SpectralFunction(case_id=<CaseId.ARIK_COON: 'arik-coon'>, q=0.7, alpha=None, beta=None, gamma=None)"
        assert repr(make_case(CaseId.ARIK_COON, q=0.7)) == expected
        custom = make_case(CaseId.CUSTOM, custom_eval=lambda n: 2.0 * n)
        expected = "SpectralFunction(case_id=<CaseId.CUSTOM: 'custom'>, q=None, alpha=None, beta=None, gamma=None)"
        assert repr(custom) == str(custom) == expected

    def test_defining_relation_is_an_immutable_value(self):
        def g(n):
            return 1.0

        rel = DefiningRelation(0.7, g)
        with pytest.raises(AttributeError):
            rel.s = 0.5
        same = DefiningRelation(s=0.7, g=g)
        assert rel == same and hash(rel) == hash(same) == hash((0.7, g))
        assert rel != DefiningRelation(0.7, lambda n: 1.0)
        assert repr(rel) == str(rel) == "DefiningRelation(s=0.7)"
        with pytest.raises(TypeError):
            DefiningRelation(0.7)  # g has no default


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
            with pytest.raises(ValueError, match=r"^q must be positive, got -1.0$"):
                make_case(case, q=-1.0)
            with pytest.raises(ValueError, match=r"^q must be positive, got 0.0$"):
                make_case(case, q=0.0)
        with pytest.raises(ValueError, match=r"^q must be positive, got -2.0$"):
            make_case(CaseId.CHUNG, q=-2.0, alpha=1.0, beta=1.0)

    def test_nonlinear_domain(self):
        for alpha in (-0.5, -1.0):
            with pytest.raises(ValueError, match=rf"^nonlinear spectrum requires alpha >= 0, got {alpha}$"):
                make_case(CaseId.NONLINEAR, alpha=alpha, beta=2.0)
        for alpha, beta in ((1.0, 0.0), (0.0, 0.0), (0.0, -2.0), (1.0, -2.0)):
            with pytest.raises(ValueError, match=rf"^nonlinear spectrum requires beta > 0, got {beta}$"):
                make_case(CaseId.NONLINEAR, alpha=alpha, beta=beta)

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

    def test_a_case_id_member_and_its_string_give_the_same_case(self):
        K = make_case(CaseId.CHUNG, q=0.7, alpha=2.0, beta=0.5)
        assert K == make_case("chung", q=0.7, alpha=2.0, beta=0.5)
        assert K.case_id is CaseId.CHUNG


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
    @example(case=CaseId.ARIK_COON, slot="q", bad=math.inf)
    @example(case=CaseId.ARIK_COON, slot="q", bad=math.nan)
    @example(case=CaseId.MACFARLANE_BIEDENHARN, slot="q", bad=math.inf)
    @example(case=CaseId.NONLINEAR, slot="alpha", bad=math.nan)
    @example(case=CaseId.NONLINEAR, slot="beta", bad=math.inf)
    def test_non_finite_parameter_rejected(self, case, slot, bad):
        params = dict(CATALOG_PARAMS[case], **{slot: bad})
        with pytest.raises(ValueError, match=rf"^{slot} must be finite, got {bad}$"):
            make_case(case, **params)

    def test_valid_parameters_accepted(self):
        for case, params in CATALOG_PARAMS.items():
            assert make_case(case, **params).case_id is case


EPS = sys.float_info.epsilon

# (case, switch, parameter): every branch switch of the catalog, with the
# parameter that crosses it.  A "degenerate" switch enters a limit branch at
# DEGENERATE_TOL; a "near" switch leaves the factored two-base form for the
# direct arik-coon and macfarlane-biedenharn brackets at NEAR_SINGULAR.
# Chung and borzov take the factored form on both sides of their "near"
# point, (alpha - 1) d or (alpha - gamma) d = NEAR_SINGULAR with d = ln q, so
# there K must be continuous within the same tolerance.
BRANCH_SWITCHES = [
    (CaseId.ARIK_COON, "degenerate", "q"),
    (CaseId.ARIK_COON, "near", "q"),
    (CaseId.MACFARLANE_BIEDENHARN, "degenerate", "q"),
    (CaseId.MACFARLANE_BIEDENHARN, "near", "q"),
    (CaseId.CHUNG, "degenerate", "q"),
    (CaseId.CHUNG, "degenerate", "alpha"),
    (CaseId.CHUNG, "near", "alpha"),
    (CaseId.BORZOV, "degenerate", "q"),
    (CaseId.BORZOV, "degenerate", "alpha"),
    (CaseId.BORZOV, "near", "alpha"),
]


def straddle(inside, start, center):
    """Adjacent floats (p_in, p_out) with inside(p_in) and not inside(p_out),
    found by unit steps from start; center lies inside the branch."""
    out = math.copysign(math.inf, start - center)
    p = start
    while not inside(p):
        p = math.nextafter(p, center)
    while inside(math.nextafter(p, out)):
        p = math.nextafter(p, out)
    return p, math.nextafter(p, out)


class TestBranchContinuity:
    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(
        switch=st.sampled_from(BRANCH_SWITCHES),
        n=st.integers(0, 40),
        side=st.sampled_from((-1.0, 1.0)),
        q=st.floats(0.5, 2.0).filter(lambda q: abs(q - 1.0) >= 0.05),
        exponents=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
    )
    def test_catalog_k_is_continuous_across_its_branch_switches(
        self, switch, n, side, q, exponents
    ):
        case, kind, parameter = switch
        params = {"q": q}
        if case is CaseId.CHUNG:
            params.update(alpha=exponents[0], beta=exponents[1])
        if case is CaseId.BORZOV:
            params.update(alpha=exponents[0], beta=exponents[1], gamma=exponents[2])
        d = math.log1p(q - 1.0)
        tol_at = {"degenerate": DEGENERATE_TOL, "near": NEAR_SINGULAR}[kind]
        if parameter == "q":
            center, start = 1.0, 1.0 + side * tol_at

            def inside(v):
                return abs(v - 1.0) <= tol_at if kind == "degenerate" else abs(v - 1.0) < tol_at

        else:
            center = 1.0 if case is CaseId.CHUNG else params["gamma"]
            start = center + side * (tol_at if kind == "degenerate" else tol_at / abs(d))

            def inside(v):
                if kind == "degenerate":
                    return abs(v - center) <= tol_at
                return abs((v - center) * d) < tol_at

        p_in, p_out = straddle(inside, start, center)
        k_in = eval_K(make_case(case, **dict(params, **{parameter: p_in})), n)
        k_out = eval_K(make_case(case, **dict(params, **{parameter: p_out})), n)

        # delta: the switch variable in units of the exponent, d at a q switch
        # and (alpha - center) d at an alpha switch; scale bounds the exponents
        d_in = math.log1p(p_in - 1.0) if parameter == "q" else d
        delta = d_in if parameter == "q" else (p_in - center) * d
        scale = max([1.0] + [abs(params[k]) for k in ("alpha", "beta", "gamma") if k in params])
        # the limit branch drops the first-order term of K's expansion, about
        # n |delta| of K per unit exponent; the direct quotient cancels about
        # eps/|delta|; both round their powers of q by about n eps per unit ln q
        rounding = 8.0 * EPS * (1.0 + n * scale * max(1.0, abs(d_in)))
        if kind == "degenerate":
            tol = 2.0 * n * scale * abs(delta) + rounding
        else:
            tol = 4.0 * (1.0 + scale * abs(d_in)) * EPS / abs(delta) + rounding
        assert abs(k_in - k_out) <= tol * max(abs(k_in), abs(k_out)), (p_in, p_out, k_in, k_out)


def branch_walk_K(K, n):
    """K(n) with the branch and every constant worked out at each call: the
    tests' copy of the closed forms as one function of (K, n)."""
    case = K.case_id
    if case is CaseId.CLASSICAL:
        return float(n)
    if case is CaseId.CUSTOM:
        return float(K.custom_eval(n))
    if case is CaseId.NONLINEAR:
        return K.alpha * n * n + K.beta * n
    q = K.q
    if abs(q - 1.0) <= DEGENERATE_TOL:
        return float(n)
    try:
        if case is CaseId.ARIK_COON and abs(q - 1.0) >= NEAR_SINGULAR:
            return (q**n - 1.0) / (q - 1.0)
        if case is CaseId.MACFARLANE_BIEDENHARN and abs(q - 1.0) >= NEAR_SINGULAR:
            return (q**n - q**-n) / (q - 1.0 / q)
    except OverflowError:
        pass  # the level in the factored two-base form
    a, g, b = {
        CaseId.ARIK_COON: (0.0, 1.0, 0.0),
        CaseId.MACFARLANE_BIEDENHARN: (-1.0, 1.0, 0.0),
        CaseId.CHUNG: (K.alpha, 1.0, K.beta),
        CaseId.BORZOV: (K.alpha, K.gamma, K.beta),
    }[case]
    if abs(a - g) <= DEGENERATE_TOL:
        return n * q ** (g * (n - 1.0) + b)
    d = math.log1p(q - 1.0) if q >= 0.5 else math.log(q)
    lo, hi = (a, g) if (a - g) * d < 0.0 else (g, a)
    x = (lo - hi) * d
    if n > 0:
        return q ** (b + hi * (n - 1.0)) * math.expm1(x * n) / math.expm1(x)
    if n < 0:
        return -(q ** (b + lo * n - hi)) * math.expm1(-x * n) / math.expm1(x)
    return 0.0


Q_CASES = (CaseId.ARIK_COON, CaseId.MACFARLANE_BIEDENHARN, CaseId.CHUNG, CaseId.BORZOV)
# every branch of the closed forms, and the regions near a singularity that the factored
# form covers: (case, which parameter sits where)
BRANCHES = (
    [(CaseId.CLASSICAL, None), (CaseId.CUSTOM, None), (CaseId.NONLINEAR, None)]
    + [(case, kind) for case in Q_CASES for kind in ("q = 1", "q near 1", "direct q")]
    + [(CaseId.CHUNG, "alpha = 1"), (CaseId.CHUNG, "(alpha - 1) d near 0")]
    + [(CaseId.BORZOV, "alpha = gamma"), (CaseId.BORZOV, "(alpha - gamma) d near 0")]
)


@st.composite
def branch_cases(draw):
    """A case whose parameters put K on the drawn branch."""
    case, kind = draw(st.sampled_from(BRANCHES))
    if case is CaseId.CLASSICAL:
        return make_case(case)
    if case is CaseId.CUSTOM:
        c1, c2 = draw(st.floats(0.0, 2.0)), draw(st.floats(0.0, 2.0))
        return make_case(case, custom_eval=lambda n: c1 * n + c2 * n * n)
    if case is CaseId.NONLINEAR:
        return make_case(case, alpha=draw(st.floats(0.0, 3.0)), beta=draw(st.floats(0.1, 3.0)))

    def near():
        # a signed distance inside a near-singular branch and outside the degenerate one
        return draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(2 * DEGENERATE_TOL, 0.99 * NEAR_SINGULAR))

    if kind == "q = 1":
        q = 1.0 + draw(st.floats(-DEGENERATE_TOL, DEGENERATE_TOL))
    elif kind == "q near 1":
        q = 1.0 + near()
    else:
        q = draw(st.floats(0.2, 3.0).filter(lambda q: abs(q - 1.0) >= NEAR_SINGULAR))
    d = abs(math.log1p(q - 1.0))
    params = {"q": q}
    if case in (CaseId.CHUNG, CaseId.BORZOV):
        params["beta"] = draw(st.floats(-2.0, 2.0))
        center = 1.0
        if case is CaseId.BORZOV:
            center = params["gamma"] = draw(st.floats(-2.0, 2.0))
        if kind in ("alpha = 1", "alpha = gamma"):
            params["alpha"] = center + draw(st.floats(-DEGENERATE_TOL, DEGENERATE_TOL))
        elif kind.startswith("(alpha"):
            params["alpha"] = center + near() / d
        else:
            params["alpha"] = draw(st.floats(-2.0, 3.0))
    return make_case(case, **params)


class TestLevelTable:
    @settings(max_examples=600, derandomize=True, database=None, deadline=None)
    @given(K=branch_cases(), lo=st.integers(-1, 3), count=st.integers(0, 40))
    def test_every_level_keeps_the_bits_of_the_branch_walk(self, K, lo, count):
        hi = lo + count - 1
        expected = np.array([branch_walk_K(K, n) for n in range(lo, hi + 1)], dtype=float)
        assert level_table(K, lo, hi).tobytes() == expected.tobytes()
        assert [eval_K(K, n) for n in range(lo, hi + 1)] == expected.tolist()
        walk = [branch_walk_K(K, n) for n in range(lo, hi + 2)]
        for reader, combine in (
            (forward_delta, lambda k0, k1: k1 - k0),
            (hamiltonian_eigenvalue, lambda k0, k1: 0.5 * (k0 + k1)),
        ):
            expected = np.array(list(map(combine, walk, walk[1:])), dtype=float)
            assert np.array([reader(K, n) for n in range(lo, hi + 1)], dtype=float).tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "K, message",
        [
            (make_case(CaseId.MACFARLANE_BIEDENHARN, q=3.5), "K(568) of case 'macfarlane-biedenharn' (q=3.5) overflows"),
            (make_case(CaseId.ARIK_COON, q=10.0), "K(310) of case 'arik-coon' (q=10.0) overflows"),
            (make_case(CaseId.CUSTOM, custom_eval=math.expm1), "K(710) of case 'custom' overflows"),
        ],
        ids=["macfarlane-biedenharn", "arik-coon", "custom"],
    )
    def test_an_overflowing_level_is_named(self, K, message):
        with pytest.raises(ValueError, match=message.replace("(", r"\(").replace(")", r"\)")):
            level_table(K, -400, 800)

    @pytest.mark.parametrize(
        "K, hi",
        [(make_case(CaseId.ARIK_COON, q=10.0), 309), (make_case(CaseId.MACFARLANE_BIEDENHARN, q=3.5), 567)],
        ids=["arik-coon", "macfarlane-biedenharn"],
    )
    def test_a_table_that_reaches_an_overflowing_power_keeps_every_level(self, K, hi):
        # K(hi) is finite, though its direct power (10^309, 3.5^567) overflows
        expected = np.array([branch_walk_K(K, n) for n in range(hi + 1)], dtype=float)
        assert level_table(K, 0, hi).tobytes() == expected.tobytes()
        assert np.array([eval_K(K, n) for n in range(hi + 1)], dtype=float).tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "value, what",
        [(math.inf, "overflows float64"), (-math.inf, "overflows float64"), (math.nan, "is not finite")],
        ids=["inf", "-inf", "nan"],
    )
    @pytest.mark.parametrize("level", [-1, 0, 3, 9])
    def test_a_non_finite_level_is_named(self, value, what, level):
        bad = {}  # filled after make_case, which checks K(0) = 0
        K = make_case(CaseId.CUSTOM, custom_eval=lambda n: bad.get(n, float(n)))
        bad[level] = value
        with pytest.raises(ValueError, match=rf"^K\({level}\) of case 'custom' {what}$"):
            level_table(K, -1, 9)
        # a table that stops below the level keeps its values
        assert level_table(K, -1, level - 1).tolist() == list(range(-1, level))

    def test_a_nan_below_an_overflowing_level_is_named_first(self):
        def form(n):
            if n == 6:
                raise OverflowError("math range error")
            return math.nan if n == 3 else float(n)

        K = make_case(CaseId.CUSTOM, custom_eval=form)
        with pytest.raises(ValueError, match=r"^K\(3\) of case 'custom' is not finite$"):
            level_table(K, 0, 9)

    def test_a_level_that_raises_overflow_is_named(self):
        def form(n):
            if n == 6:
                raise OverflowError("math range error")
            return 2.0 * n

        K = make_case(CaseId.CUSTOM, custom_eval=form)
        with pytest.raises(ValueError, match=r"^K\(6\) of case 'custom' overflows float64$"):
            level_table(K, 0, 9)
        # a table that stops below the level keeps its values
        assert level_table(K, 0, 5).tolist() == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]

    def test_a_level_that_rounds_to_inf_is_named(self):
        # q^beta (q^(alpha n) - q^n)/(q^alpha - q) = 10^300.25 (1e10 - 1e5)/90 = 1.98e308 at n = 5:
        # inf without an OverflowError in the factored form
        K = make_case(CaseId.CHUNG, q=10.0, alpha=2.0, beta=300.25)
        message = r"^K\(5\) of case 'chung' \(q=10.0, alpha=2.0, beta=300.25\) overflows float64$"
        with pytest.raises(ValueError, match=message):
            level_table(K, 0, 9)
        assert level_table(K, 0, 4)[-1] == branch_walk_K(K, 4)

    def test_every_reader_raises_the_level_table_error(self):
        K = make_case(CaseId.CHUNG, q=10.0, alpha=2.0, beta=300.25)
        message = r"^K\(5\) of case 'chung' \(q=10.0, alpha=2.0, beta=300.25\) overflows float64$"
        for read in (lambda: eval_K(K, 5), lambda: forward_delta(K, 4), lambda: hamiltonian_eigenvalue(K, 4)):
            with pytest.raises(ValueError, match=message):
                read()

    @pytest.mark.parametrize("reader", [forward_delta, hamiltonian_eigenvalue])
    def test_a_level_pair_evaluates_each_level_once(self, reader):
        calls = []

        def counted(n):
            calls.append(n)
            return 2.0 * n

        K = make_case(CaseId.CUSTOM, custom_eval=counted)
        calls.clear()
        reader(K, 4)
        assert calls == [4, 5]

    def test_a_number_state_report_evaluates_each_level_once(self):
        calls = []

        def counted(n):
            calls.append(n)
            return 2.0 * n

        K = make_case(CaseId.CUSTOM, custom_eval=counted)
        calls.clear()
        gup.number_state_reports(K, 16, [3])
        assert calls == list(range(18))


def exact_two_base(q, alpha, gamma, beta, ns):
    """K(n) of the two-base form at each integer n of ns in 80-digit arithmetic, from the float
    parameters as given."""
    with mpmath.workdps(80):
        q, alpha, gamma, beta = map(mpmath.mpf, (q, alpha, gamma, beta))
        qa, qg = q**alpha, q**gamma
        scale = q**beta / (qa - qg)
        return [scale * (qa**n - qg**n) for n in ns]


# (case, alpha, gamma): chung and borzov with alpha below and above gamma; at alpha = 2, gamma = 3
# q^alpha - q^gamma overflows at q = 1e300 and underflows to 0 at q = 1e-300
EXTREME_BASES = [
    (CaseId.CHUNG, 0.5, 1.0),
    (CaseId.CHUNG, 2.0, 1.0),
    (CaseId.BORZOV, 0.5, 2.0),
    (CaseId.BORZOV, 2.0, 0.5),
    (CaseId.BORZOV, 2.0, 3.0),
]


class TestExtremeQ:
    """Chung and borzov levels at extreme q against exact values."""

    @pytest.mark.parametrize(
        "case, alpha, gamma", EXTREME_BASES, ids=[f"{c.value}-a{a}-g{g}" for c, a, g in EXTREME_BASES]
    )
    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.5])
    @pytest.mark.parametrize("q", [1e-300, 1e-5, 1e300])
    def test_levels_match_the_exact_values(self, case, alpha, gamma, beta, q):
        params = {"q": q, "alpha": alpha, "beta": beta}
        if case is CaseId.BORZOV:
            params["gamma"] = gamma
        K = make_case(case, **params)
        exact = exact_two_base(q, alpha, gamma, beta, range(13))
        top = sys.float_info.max
        overflowing = [n for n, value in enumerate(exact) if abs(value) > top]
        last = overflowing[0] - 1 if overflowing else 12
        if overflowing:
            with pytest.raises(ValueError, match=rf"^K\({overflowing[0]}\) of case '{case.value}' .* overflows float64$"):
                level_table(K, 0, 12)
        levels = level_table(K, 0, last).tolist()
        for n, (k, value) in enumerate(zip(levels, exact)):
            if abs(value) >= sys.float_info.min:
                assert abs(k - value) <= 4 * math.ulp(float(value)), (n, k, value)
            elif abs(value) < mpmath.ldexp(1, -1075):  # rounds to 0
                assert k == 0.0, (n, k, value)
        assert levels[0] == 0.0 and last >= 1

    @pytest.mark.parametrize(
        "q, alpha, beta, level",
        [(10.0, 2.0, 300.0, 5), (1e300, 0.5, 1.0, 1)],
        ids=["q=10", "q=1e300"],
    )
    def test_a_level_whose_product_overflows_reads_its_value(self, q, alpha, beta, level):
        # 1e300 * (1e10 - 1e5) and 1e300 * -1e300 overflow, though K(5) = 1.1111e308 and K(1) = 1e300
        K = make_case(CaseId.CHUNG, q=q, alpha=alpha, beta=beta)
        (value,) = exact_two_base(q, alpha, 1.0, beta, [level])
        assert abs(eval_K(K, level) - value) <= 4 * math.ulp(float(value))
        with pytest.raises(ValueError, match=rf"^K\({level + 1}\) of case 'chung' .* overflows float64$"):
            level_table(K, 0, level + 1)

    def test_levels_below_the_float_range_keep_their_bits(self):
        # the D = 4096 table of the number-state tests: exactly 0 (+0.0, as the factored form gives it) from n = 2090 on
        K = make_case(CaseId.CHUNG, q=0.7, alpha=2.0, beta=0.5)
        levels = level_table(K, 0, 4097)
        assert levels.tobytes() == np.array([branch_walk_K(K, n) for n in range(4098)]).tobytes()
        assert levels[2089] > 0.0 and not levels[2090:].any()


# The accuracy grid: chung and borzov base pairs (case, alpha, gamma), each with every beta and q,
# read at levels -64..64, since verify reads K(-1) and symbolic reads shifts down to K(N-64)
GRID_BASES = [
    (CaseId.CHUNG, 0.5, 1.0),
    (CaseId.CHUNG, 2.0, 1.0),
    (CaseId.CHUNG, -1.0, 1.0),
    (CaseId.BORZOV, 0.5, 2.0),
    (CaseId.BORZOV, 2.0, 0.5),
    (CaseId.BORZOV, 2.0, 3.0),
    (CaseId.BORZOV, -1.0, -2.0),
]
GRID_BETAS = (0.0, 1.0, -0.5, 62.0)
GRID_Q = (1e-300, 1e-200, 1e-100, 1e-20, 1e-5, 0.3, 0.8, 1.5, 1e3, 1e20, 1e100, 1e300)
# the levels compared with mpmath: a subsample of -64..64 that holds the levels whose factors are
# subnormal at q = 1e-5 (K(2) at beta = 62, K(62) of chung alpha = 2)
GRID_LEVELS = (-64, -63, -58, -33, -17, -2, -1, 1, 2, 3, 7, 31, 62, 63, 64)
# a level rounds to inf from here up
OVERFLOW = mpmath.mpf(2) ** 1024 * (1 - mpmath.mpf(2) ** -54)


def accuracy_tables():
    """(K, (alpha, gamma, beta), lo, hi): the grid, the one-base brackets at extreme q, and every
    q-case within NEAR_SINGULAR of q = 1."""
    for case, alpha, gamma in GRID_BASES:
        for beta in GRID_BETAS:
            for q in GRID_Q:
                params = {"q": q, "alpha": alpha, "beta": beta}
                if case is CaseId.BORZOV:
                    params["gamma"] = gamma
                yield make_case(case, **params), (alpha, gamma, beta), -64, 64
    for q in (1e-300, 1e-200, 1e-5, 3.5, 10.0, 1e200, 1e300):
        hi = 800 if q in (3.5, 10.0) else 64
        yield make_case(CaseId.ARIK_COON, q=q), (0.0, 1.0, 0.0), -64, hi
        yield make_case(CaseId.MACFARLANE_BIEDENHARN, q=q), (-1.0, 1.0, 0.0), -64, hi
    for q in (1.0 - 9e-4, 1.0 - 1e-6, 1.0 + 1e-6, 1.0 + 9e-4):
        yield make_case(CaseId.ARIK_COON, q=q), (0.0, 1.0, 0.0), -64, 64
        yield make_case(CaseId.MACFARLANE_BIEDENHARN, q=q), (-1.0, 1.0, 0.0), -64, 64
        yield make_case(CaseId.CHUNG, q=q, alpha=2.0, beta=0.5), (2.0, 1.0, 0.5), -64, 64
        yield make_case(CaseId.BORZOV, q=q, alpha=0.5, beta=1.0, gamma=2.0), (0.5, 2.0, 1.0), -64, 64


def read_tables(K, lo, hi):
    """K(lo..hi) read as level tables, each up to the level named as overflowing: the finite
    levels as {n: K(n)}, and the named levels."""
    values, named = {}, []
    while lo <= hi:
        try:
            top = hi + 1
            table = level_table(K, lo, hi)
        except ValueError as err:
            top = int(re.fullmatch(r"K\((-?\d+)\) of case .* overflows float64", str(err)).group(1))
            named.append(top)
            table = level_table(K, lo, top - 1)
        values.update(zip(range(lo, top), table.tolist()))
        lo = top + 1
    return values, named


class TestAccuracy:
    def test_levels_are_within_4_ulp_and_only_overflowing_levels_are_named(self):
        wrong = []
        for K, (alpha, gamma, beta), lo, hi in accuracy_tables():
            values, named = read_tables(K, lo, hi)
            # the sample, and the top level read below each named one
            levels = sorted({n for n in (*GRID_LEVELS, *(m - 1 for m in named)) if n in values})
            exact = dict(zip(levels + named, exact_two_base(K.q, alpha, gamma, beta, levels + named)))
            wrong += [(K, n, "named") for n in named if abs(exact[n]) < OVERFLOW]
            for n in levels:
                value = exact[n]
                if abs(value) >= sys.float_info.min and abs(values[n] - value) > 4 * math.ulp(float(value)):
                    wrong.append((K, n, values[n], float(value)))
        assert not wrong, (len(wrong), wrong[:5])
