"""Spectral function catalog: closed forms, limits, defining relations."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
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


EPS = sys.float_info.epsilon

# (case, switch, parameter): every branch switch of the catalog, with the
# parameter that crosses it.  A "degenerate" switch enters a limit branch at
# DEGENERATE_TOL; a "near" switch leaves the expm1/sinh forms for the direct
# quotient at NEAR_SINGULAR.  Chung and Borzov cross their near switch in
# (alpha - 1) d and (alpha - gamma) d, with d = ln q.
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
    d = math.log1p(q - 1.0)
    if case is CaseId.ARIK_COON:
        if abs(q - 1.0) < NEAR_SINGULAR:
            return math.expm1(n * d) / math.expm1(d)
        return (q**n - 1.0) / (q - 1.0)
    if case is CaseId.MACFARLANE_BIEDENHARN:
        if abs(q - 1.0) < NEAR_SINGULAR:
            return math.sinh(n * d) / math.sinh(d)
        return (q**n - q**-n) / (q - 1.0 / q)
    if case is CaseId.CHUNG:
        a, b = K.alpha, K.beta
        if abs(a - 1.0) <= DEGENERATE_TOL:
            return n * q ** (n - 1.0 + b)
        if abs((a - 1.0) * d) < NEAR_SINGULAR:
            return q ** (b + n - 1.0) * math.expm1((a - 1.0) * n * d) / math.expm1((a - 1.0) * d)
        return q**b * (q ** (a * n) - q**n) / (q**a - q)
    a, b, g = K.alpha, K.beta, K.gamma
    if abs(a - g) <= DEGENERATE_TOL:
        return n * q ** (g * (n - 1.0) + b)
    if abs((a - g) * d) < NEAR_SINGULAR:
        return q ** (b + g * (n - 1.0)) * math.expm1((a - g) * n * d) / math.expm1((a - g) * d)
    return q**b * (q ** (a * n) - q ** (g * n)) / (q**a - q**g)


Q_CASES = (CaseId.ARIK_COON, CaseId.MACFARLANE_BIEDENHARN, CaseId.CHUNG, CaseId.BORZOV)
# every branch of the closed forms: (case, which parameter sits where)
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
            (make_case(CaseId.MACFARLANE_BIEDENHARN, q=3.5), "K(567) of case 'macfarlane-biedenharn' (q=3.5) overflows"),
            (make_case(CaseId.ARIK_COON, q=10.0), "K(309) of case 'arik-coon' (q=10.0) overflows"),
            (make_case(CaseId.CUSTOM, custom_eval=math.expm1), "K(710) of case 'custom' overflows"),
        ],
        ids=["macfarlane-biedenharn", "arik-coon", "custom"],
    )
    def test_an_overflowing_level_is_named(self, K, message):
        with pytest.raises(ValueError, match=message.replace("(", r"\(").replace(")", r"\)")):
            level_table(K, -400, 800)

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

    def test_a_level_that_rounds_to_inf_is_named(self):
        # q^beta (q^(alpha n) - q^n)/(q^alpha - q) = 1e300 * 1e10 / 90 at n = 5: inf without an OverflowError
        K = make_case(CaseId.CHUNG, q=10.0, alpha=2.0, beta=300.0)
        message = r"^K\(5\) of case 'chung' \(q=10.0, alpha=2.0, beta=300.0\) overflows float64$"
        with pytest.raises(ValueError, match=message):
            level_table(K, 0, 9)
        assert level_table(K, 0, 4)[-1] == 1.111e306

    def test_every_reader_raises_the_level_table_error(self):
        K = make_case(CaseId.CHUNG, q=10.0, alpha=2.0, beta=300.0)
        message = r"^K\(5\) of case 'chung' \(q=10.0, alpha=2.0, beta=300.0\) overflows float64$"
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
