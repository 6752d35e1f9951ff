"""Parser, normal ordering, and the symbolic-numeric oracle bridge."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import custom_cases, dense, random_words, representative_cases, residual
from deformalg import (
    BUILTIN_IDENTITIES,
    Band,
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
from deformalg.symorder import Add, Comm, Expr, KShift, Mul, Num, Pow, Sym

# every character the grammar uses, and tokens that make parseable strings likely
GRAMMAR_ALPHABET = sorted(set("a ad N x p H K comm q alpha beta gamma i 0123456789.eE+-*/^(),="))
GRAMMAR_TOKENS = (
    "a", "ad", "N", "x", "p", "H", "K(N", "K(N+1)", "K(N+1e400)", "comm(", "q", "alpha",
    "i", "2", "0.5", "3i", "1e400", "1e-3", "^2", "^-1", "^1e400",
    "(", ")", "+", "-", "*", "/", "^", ",", "==", " ",
)


COMPOSITE = "comm(H^3,x^3) == H^3*x^3 - x^3*H^3"


def classical():
    return make_case(CaseId.CLASSICAL)


def per_level(c, n):
    """A coefficient at one level, the loop form: each atom K(n+k) by eval_K,
    each monomial from n**j in Python ints, the monomials summed in order."""
    spectral = {k: eval_K(c.K, n + k) for _, ks in c.terms for k in ks}
    total = 0j
    for (j, ks), scalar in c.terms.items():
        total += scalar * math.prod((spectral[k] for k in ks), start=n**j)
    return total


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

    @pytest.mark.parametrize(
        "text, position", [("x^1e400", 2), ("K(N+1e400)", 4), ("1e400", 0), ("a*2.5e999i", 2)]
    )
    def test_non_finite_numeral_rejected_at_its_position(self, text, position):
        with pytest.raises(ExprSyntaxError, match="not finite") as err:
            parse_expr(text)
        assert err.value.position == position

    @pytest.mark.parametrize("text, position", [("x^65", 2), ("(a*ad)^-1000000", 8), ("N ^ 1e300", 4)])
    def test_exponent_above_the_cap_fails_at_its_position(self, text, position):
        with pytest.raises(ExprSyntaxError, match="exceeds the cap 64") as err:
            parse_expr(text)
        assert err.value.position == position
        assert parse_expr("x^64") == Pow(Sym("x"), 64)

    def test_nesting_beyond_the_stack_is_a_syntax_error(self):
        text = "(" * 400 + "x" + ")" * 400
        with pytest.raises(ExprSyntaxError, match="nested too deeply") as err:
            parse_identity(text + " == x")
        assert 0 <= err.value.position <= len(text)

    @settings(max_examples=400, derandomize=True, database=None)
    @given(
        st.one_of(
            st.text(alphabet=GRAMMAR_ALPHABET, max_size=40),
            st.lists(st.sampled_from(GRAMMAR_TOKENS), max_size=20).map("".join),
        )
    )
    def test_every_string_parses_or_fails_at_a_position(self, text):
        # parsing only: normal-ordering an arbitrary exponent is unbounded work
        for parse in (parse_expr, parse_identity):
            try:
                parsed = parse(text)
            except ExprSyntaxError as err:
                assert 0 <= err.position <= len(text), (text, err)
            else:
                sides = parsed if parse is parse_identity else (parsed,)
                assert all(isinstance(side, Expr) for side in sides)

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


class TestComposition:
    def test_hamiltonian_composes_to_its_diagonal_closed_form(self):
        K = make_case(CaseId.CHUNG, q=0.7, alpha=2.0, beta=0.5)
        nf = normal_order(parse_expr("H"), K)
        assert nf.support() == (0,)
        assert nf.coefficient(0).terms == {(0, (0,)): 0.5, (0, (1,)): 0.5}

    def test_shift_expands_powers_of_the_level(self):
        # a N^2 ad = (N+1)^2 K(N+1)
        nf = normal_order(parse_expr("a*N^2*ad"), make_case(CaseId.ARIK_COON, q=0.7))
        assert nf.coefficient(0).terms == {(0, (1,)): 1.0, (1, (1,)): 2.0, (2, (1,)): 1.0}

    @pytest.mark.parametrize("K", representative_cases(), ids=str)
    def test_number_commutator_cancels_exactly(self, K):
        assert normal_order(parse_expr("comm(N,ad) - ad"), K).support() == ()

    @pytest.mark.parametrize(
        "K",
        [
            make_case(CaseId.MACFARLANE_BIEDENHARN, q=1.5),
            make_case(CaseId.CHUNG, q=0.7, alpha=2.0, beta=0.5),
            make_case(CaseId.BORZOV, q=1.5, alpha=0.5, beta=1.0, gamma=2.0),
        ],
        ids=str,
    )
    @pytest.mark.parametrize("name", ["lh_x", "lh_p"])
    def test_equations_of_motion_cancel_exactly(self, K, name):
        lhs, rhs = parse_identity(BUILTIN_IDENTITIES[name])
        report = nf_equal(normal_order(lhs, K), normal_order(rhs, K))
        assert report.max_abs_residual == 0.0

    def test_each_distinct_atom_evaluated_once_per_call(self):
        calls = []

        def counted(n):
            calls.append(n)
            return 0.5 * n * n + n

        K = make_case(CaseId.CUSTOM, custom_eval=counted)
        coefficient = normal_order(parse_expr("K(N)*K(N) + K(N)*K(N+1) + ad*a"), K).coefficient(0)
        calls.clear()
        value = coefficient(4)
        assert sorted(calls) == [4, 5]
        assert value == 12.0 * 12.0 + 12.0 * 17.5 + 12.0

    def test_composition_above_the_monomial_cap_is_refused(self):
        K = make_case(CaseId.ARIK_COON, q=0.7)
        # x^14 multiplies 4,596 monomial pairs in its last composition, x^16 12,884
        assert normal_order(parse_expr("x^14"), K).support()
        with pytest.raises(ValueError, match="multiply 12884 monomial pairs, above the cap 10000"):
            normal_order(parse_expr("x^16"), K)

    def test_equality_is_identity_and_hashes(self):
        K = classical()
        one, other = (normal_order(parse_expr("a*ad"), K) for _ in range(2))
        assert one == one
        assert one != other
        assert len({one, other, one}) == 2


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

    @pytest.mark.parametrize("identity", [BUILTIN_IDENTITIES["lh_x"], COMPOSITE])
    def test_each_level_is_evaluated_once_per_call(self, identity):
        calls = []

        def counted(n):
            calls.append(n)
            return n * (n + 1.0)

        K = make_case(CaseId.CUSTOM, custom_eval=counted)
        lhs, rhs = (normal_order(side, K) for side in parse_identity(identity))
        calls.clear()
        assert nf_equal(lhs, rhs).passed
        assert calls and len(calls) == len(set(calls))


class TestCoefficientEvaluation:
    WORDS = [
        "N^3*K(N-1)*ad^2*a + 2.5i*N^2 - comm(N^2, x)",
        "comm(H^2,x^2)",
        "(1/3)*N^7*a^3 - K(N+2)*N*ad",
        "-0.0*ad + x*K(N)*p",
    ]

    @pytest.mark.parametrize("K", representative_cases() + custom_cases(), ids=str)
    def test_array_evaluation_is_the_per_level_loop_bit_for_bit(self, K):
        exprs = [parse_expr(text) for text in self.WORDS]
        exprs += list(random_words(seed=7, count=40, max_len=5))
        for expr in exprs:
            for d, c in normal_order(expr, K).coefficients.items():
                ns = np.arange(max(0, -d), 30)
                expected = np.array([per_level(c, n) for n in ns.tolist()], dtype=complex)
                assert c(ns).tobytes() == expected.tobytes(), (expr, d)
                assert np.array([c(int(ns[-1]))]).tobytes() == expected[-1:].tobytes()


class TestRealization:
    def test_diagonal_realization(self):
        K = make_case(CaseId.ARIK_COON, q=2.0)
        nf = normal_order(parse_expr("ad*a"), K)
        M = nf_to_matrix(nf, 8)
        expected = Band.diagonal([eval_K(K, n) for n in range(8)])
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

    def test_ladder_weights_come_from_the_level_table(self):
        calls = []

        def counted(n):
            calls.append(n)
            return n * (n + 1.0)

        K = make_case(CaseId.CUSTOM, custom_eval=counted)
        nf = normal_order(parse_expr("ad^3 + 2*a^2"), K)
        calls.clear()
        nf_to_matrix(nf, 8)
        # build_rep(K, 8) evaluates K(0..9) once; no entry evaluates K again
        assert calls == list(range(10))

    @pytest.mark.parametrize("K", representative_cases(), ids=str)
    def test_ladder_powers_are_products_of_ladder_roots(self, K):
        D = 10
        rep = build_rep(K, D)
        for text, power in (("ad", dense(rep.mat_ad)), ("a", dense(rep.mat_a))):
            for k in (1, 2):
                M = nf_to_matrix(normal_order(parse_expr(f"{text}^{k}"), K), D)
                assert np.array_equal(dense(M), np.linalg.matrix_power(power, k))
            M = nf_to_matrix(normal_order(parse_expr(f"{text}^5"), K), D)
            assert residual(M, np.linalg.matrix_power(power, 5)) <= 1e-14

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
        M = dense(nf_to_matrix(normal_order(parse_expr("x*p - p*x"), K), D))
        direct = dense(commutator(quads.mat_x, quads.mat_p))
        assert residual(M[: D - 2, : D - 2], direct[: D - 2, : D - 2]) <= 1e-14
        # ...and differs where truncation bites
        assert abs(M[D - 1, D - 1] - direct[D - 1, D - 1]) > 0.1


class TestTermination:
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
