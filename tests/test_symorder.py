"""Parser, normal ordering, and the symbolic-numeric oracle bridge."""

import math

import numpy as np
import pytest

from conftest import random_words, representative_cases
from deformalg import (
    BUILTIN_IDENTITIES,
    CaseId,
    ExprSyntaxError,
    build_rep,
    commutator,
    eval_K,
    expr_to_matrix,
    make_case,
    nf_equal,
    nf_to_matrix,
    normal_order,
    parse_expr,
    parse_identity,
    quadratures,
)
from deformalg.fockrep import QuadratureSet, scaled_max_residual
from deformalg.symorder import Add, Comm, KShift, Mul, Num, Sym


def classical():
    return make_case(CaseId.CLASSICAL)


class TestParser:
    def test_commutator_node(self):
        node = parse_expr("comm(x,p)")
        assert isinstance(node, Comm)
        assert node.left == Sym("x") and node.right == Sym("p")

    def test_bound_parameter_product(self):
        node = parse_expr("a*ad - q*ad*a")
        assert isinstance(node, Add)

    def test_k_shift_difference(self):
        node = parse_expr("K(N+2)-K(N)")
        assert isinstance(node, Add)
        assert node.terms[0] == KShift(2)

    def test_imaginary_literals(self):
        assert parse_expr("2i") == Num(2j)
        assert parse_expr("i") == Num(1j)

    def test_whitespace_insensitive(self):
        a = parse_expr("comm( x , p )")
        b = parse_expr("comm(x,p)")
        assert a == b

    def test_syntax_error_carries_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("a*+")
        assert err.value.position >= 0
        with pytest.raises(ExprSyntaxError):
            parse_expr("a*(b")

    def test_unknown_identifier(self):
        with pytest.raises(ExprSyntaxError, match="unknown identifier"):
            parse_expr("a*b")

    def test_non_integer_shift_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("K(N+1.5)")
        with pytest.raises(ExprSyntaxError):
            parse_expr("K(x)")

    def test_identity_split(self):
        lhs, rhs = parse_identity("a*ad == K(N+1)")
        assert isinstance(lhs, Mul)
        assert rhs == KShift(1)
        with pytest.raises(ExprSyntaxError):
            parse_identity("a*ad")


class TestNormalOrder:
    def test_contraction_lowering_raising(self):
        K = make_case(CaseId.ARIK_COON, q=2.0)
        nf = normal_order(parse_expr("a*ad"), K)
        assert nf.support() == (0,)
        for n in range(8):
            assert nf.coefficient(0)(n) == pytest.approx(eval_K(K, n + 1), rel=1e-13)

    def test_double_contraction(self):
        K = make_case(CaseId.MACFARLANE_BIEDENHARN, q=1.5)
        nf = normal_order(parse_expr("ad^2*a^2"), K)
        assert nf.support() == (0,)
        for n in range(2, 10):
            expected = eval_K(K, n) * eval_K(K, n - 1)
            assert nf.coefficient(0)(n) == pytest.approx(expected, rel=1e-12)

    def test_number_commutator(self):
        nf = normal_order(parse_expr("comm(N,ad)"), classical())
        assert nf.support() == (1,)
        for n in range(8):
            assert nf.coefficient(1)(n) == 1.0

    def test_unbound_parameter_raises(self):
        with pytest.raises(ValueError, match="not bound"):
            normal_order(parse_expr("q*a"), classical())

    def test_division_by_operator_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            normal_order(parse_expr("a/ad"), classical())

    def test_scalar_division_and_negative_power(self):
        K = make_case(CaseId.ARIK_COON, q=0.5)
        nf = normal_order(parse_expr("(1+q)^-1 * a / 2"), K)
        assert nf.coefficient(-1)(3) == pytest.approx(1.0 / 1.5 / 2.0)


class TestNormalFormEquality:
    def test_xp_commutator_identity(self):
        K = make_case(CaseId.ARIK_COON, q=0.7)
        lhs = normal_order(parse_expr("comm(x,p)"), K)
        rhs = normal_order(parse_expr("(i/2)*(K(N+1)-K(N))"), K)
        report = nf_equal(lhs, rhs, tol=1e-12)
        assert report.passed

    def test_equation_of_motion_builtin_classical(self):
        K = classical()
        lhs_text, rhs_text = BUILTIN_IDENTITIES["lh_x"].split("==")
        lhs = normal_order(parse_expr(lhs_text), K)
        rhs = normal_order(parse_expr(rhs_text), K)
        assert nf_equal(lhs, rhs, tol=1e-12).passed
        # classical special form [x,H] = i p
        assert nf_equal(lhs, normal_order(parse_expr("i*p"), K), tol=1e-12).passed

    def test_negative_control_ordering_matters(self):
        K = classical()
        report = nf_equal(
            normal_order(parse_expr("a*ad"), K),
            normal_order(parse_expr("ad*a"), K),
        )
        assert not report.passed
        assert report.max_abs_residual == pytest.approx(1.0)

    def test_hamiltonian_macro_normal_orders_to_diagonal(self):
        for K in representative_cases():
            lhs = normal_order(parse_expr("H"), K)
            rhs = normal_order(parse_expr("(1/2)*(K(N)+K(N+1))"), K)
            assert nf_equal(lhs, rhs, tol=1e-12).passed, K

    def test_nan_coefficient_fails(self):
        # N and K(N) agree below n = 5, where the custom K turns NaN
        K = make_case(CaseId.CUSTOM, custom_eval=lambda n: n if n < 5 else math.nan)
        report = nf_equal(normal_order(parse_expr("N"), K), normal_order(parse_expr("K(N)"), K))
        assert math.isnan(report.max_abs_residual)
        assert not report.passed

    def test_grid_validation(self):
        K = classical()
        nf = normal_order(parse_expr("a"), K)
        with pytest.raises(ValueError):
            nf_equal(nf, nf, n_max=4)


class TestRealization:
    def test_diagonal_realization(self):
        K = make_case(CaseId.ARIK_COON, q=2.0)
        nf = normal_order(parse_expr("ad*a"), K)
        M = nf_to_matrix(nf, 8)
        expected = np.diag([eval_K(K, n) for n in range(8)]).astype(complex)
        assert scaled_max_residual(M, expected) <= 1e-14

    def test_creation_realization(self):
        K = make_case(CaseId.MACFARLANE_BIEDENHARN, q=0.7)
        rep = build_rep(K, 8)
        M = nf_to_matrix(normal_order(parse_expr("ad"), K), 8)
        assert scaled_max_residual(M, rep.mat_ad) <= 1e-14

    def test_macro_soundness(self):
        K = make_case(CaseId.CHUNG, q=1.5, alpha=0.5, beta=1.0)
        rep = build_rep(K, 10)
        M = nf_to_matrix(normal_order(parse_expr("x"), K), 10)
        assert scaled_max_residual(M, 0.5 * (rep.mat_ad + rep.mat_a)) <= 1e-14

    def test_matrix_oracle_forms_h_only_when_named(self, monkeypatch):
        def refuse(quads):
            raise AssertionError("H formed")

        monkeypatch.setattr(QuadratureSet, "mat_H", property(refuse))
        K = make_case(CaseId.ARIK_COON, q=0.7)
        expr_to_matrix(parse_expr("comm(x,p) + a*ad + N"), K, 8)
        with pytest.raises(AssertionError, match="H formed"):
            expr_to_matrix(parse_expr("comm(x,H)"), K, 8)

    def test_commutator_realization_beats_truncation(self):
        # the normal-ordered form is exact; the truncated matrix product
        # is corrupted only in the last row/column block
        D = 12
        K = make_case(CaseId.ARIK_COON, q=1.5)
        quads = quadratures(build_rep(K, D))
        M = nf_to_matrix(normal_order(parse_expr("x*p - p*x"), K), D)
        direct = commutator(quads.mat_x, quads.mat_p)
        assert scaled_max_residual(M[: D - 2, : D - 2], direct[: D - 2, : D - 2]) <= 1e-14
        # ...and differs where truncation bites
        assert abs(M[D - 1, D - 1] - direct[D - 1, D - 1]) > 0.1


class TestTermination:
    def test_measure_strictly_decreases_along_rewrites(self):
        from deformalg.symorder import CoefficientFunction, _reduce_word, rewrite_measure

        K = make_case(CaseId.ARIK_COON, q=0.7)
        level = CoefficientFunction.level()
        words = [
            # a f a' f a a' f
            [("lad", -1), ("fn", level), ("lad", 1), ("fn", level),
             ("lad", -1), ("lad", 1), ("fn", level)],
            [("lad", 1)] * 3 + [("fn", level)] + [("lad", -1)] * 3,
            [("lad", -1), ("lad", 1)] * 4,
            [("fn", level), ("fn", level), ("lad", -1), ("fn", level)],
        ]
        for word in words:
            trace = []
            _reduce_word(word, K, trace=trace)
            measures = [rewrite_measure(w) for w in trace]
            assert all(b < a for a, b in zip(measures, measures[1:])), measures
            final = trace[-1]
            ladder_signs = {v for kind, v in final if kind == "lad"}
            assert len(ladder_signs) <= 1  # single ladder direction remains
            kinds = [kind for kind, _ in final]
            assert kinds == sorted(kinds)  # coefficient atoms all left

    def test_deep_alternating_words_terminate_and_match_oracle(self):
        K = make_case(CaseId.MACFARLANE_BIEDENHARN, q=1.5)
        D = 16
        text = "a*K(N)*ad*K(N+1)*a*ad*K(N-1)*a*ad*N"
        expr = parse_expr(text)
        realized = nf_to_matrix(normal_order(expr, K), D)
        direct = expr_to_matrix(expr, K, D)
        assert scaled_max_residual(realized, direct, margin=10) <= 1e-12


class TestMatrixOracle:
    @pytest.mark.parametrize("K", representative_cases(), ids=str)
    def test_random_words_match_direct_products(self, K):
        D = 12
        for word in random_words(seed=99, count=200, max_len=6):
            margin = len(word.factors)
            realized = nf_to_matrix(normal_order(word, K), D)
            direct = expr_to_matrix(word, K, D)
            residual = scaled_max_residual(realized, direct, margin=margin)
            assert residual <= 1e-9, (K, word, residual)

    def test_confluence_under_reassociation(self):
        K = make_case(CaseId.ARIK_COON, q=0.7)
        a, ad, k1 = Sym("a"), Sym("ad"), KShift(1)
        left = Mul((Mul((a, ad)), k1))
        right = Mul((a, Mul((ad, k1))))
        assert nf_equal(normal_order(left, K), normal_order(right, K), tol=1e-13).passed
        summed = Mul((Add((a, ad)), k1))
        distributed = Add((Mul((a, k1)), Mul((ad, k1))))
        assert nf_equal(
            normal_order(summed, K), normal_order(distributed, K), tol=1e-13
        ).passed

    def test_confluence_on_random_words(self):
        # fully left-nested and fully right-nested products of the same
        # word reduce to nf_equal-identical forms
        K = make_case(CaseId.MACFARLANE_BIEDENHARN, q=1.5)
        for word in random_words(seed=123, count=60, max_len=5):
            atoms = word.factors
            if len(atoms) < 3:
                continue
            left = atoms[0]
            for atom in atoms[1:]:
                left = Mul((left, atom))
            right = atoms[-1]
            for atom in reversed(atoms[:-1]):
                right = Mul((atom, right))
            report = nf_equal(normal_order(left, K), normal_order(right, K), tol=1e-11)
            assert report.passed, (word, report)

    def test_builtins_pass_for_all_cases(self):
        for K in representative_cases():
            for name, identity in BUILTIN_IDENTITIES.items():
                lhs, rhs = parse_identity(identity)
                report = nf_equal(
                    normal_order(lhs, K), normal_order(rhs, K), tol=1e-10, name=name
                )
                assert report.passed, (K, name, report)
