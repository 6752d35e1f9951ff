"""Parser, normal ordering, and the symbolic-numeric oracle bridge."""

import contextlib
import gc
import io
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    custom_cases,
    dense,
    dense_expr,
    random_words,
    representative_cases,
    residual,
    symbolic_mix_identities,
)
from deformalg import (
    BUILTIN_IDENTITIES,
    Band,
    CaseId,
    ExprSyntaxError,
    NormalForm,
    build_rep,
    cli,
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
from deformalg import symorder
from deformalg.fockrep import IdentityReport
from deformalg.spectral import level_table
from deformalg.symorder import (
    GRID_MAX,
    Add,
    CoefficientFunction,
    Comm,
    Divisor,
    Expr,
    KShift,
    Mul,
    Neg,
    Num,
    Param,
    Pow,
    Sym,
)

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


# The contraction as it was first written, the oracle for the fused one: each term
# pair builds its coefficient in five stages, and each stage merges like
# monomials in order, sorts them and drops exact zeros.


def merged(terms):
    """Like monomials added in the order they come, then sorted, exact zeros dropped."""
    out = {}
    for monomial, c in terms:
        out[monomial] = out[monomial] + c if monomial in out else c
    return {m: c for m, c in sorted(out.items()) if c != 0}


def staged_shift(terms, s):
    """c(N) -> c(N+s), N^j expanded binomially."""
    if s == 0:
        return terms
    return merged(
        ((i, tuple(k + s for k in ks)), c if i == j else c * (math.comb(j, i) * s ** (j - i)))
        for (j, ks), c in terms.items()
        for i in range(j + 1)
    )


def staged_times(left, right):
    return merged(
        ((j1 + j2, tuple(sorted(ks1 + ks2))), c1 * c2)
        for (j1, ks1), c1 in left.items()
        for (j2, ks2), c2 in right.items()
    )


def crossed_levels(d1, d2):
    if d2 < 0 < d1:
        return range(d2 + 1, d2 + min(-d2, d1) + 1)
    if d1 < 0 < d2:
        return range(d2 - min(d2, -d1) + 1, d2 + 1)
    return range(0)


def staged_product(A, B):
    """The terms of A @ B by offset: shift, product, crossed atoms (times 1.0), then
    added into the offset's sum, each stage merged on its own."""
    out = {}
    for d2, c2 in B.coefficients.items():
        for d1, c1 in A.coefficients.items():
            term = staged_times(staged_shift(c1.terms, d2), c2.terms)
            crossed = tuple(crossed_levels(d1, d2))
            if crossed:
                term = staged_times(term, {(0, crossed): 1.0})
            d = d1 + d2
            out[d] = merged([*out[d].items(), *term.items()]) if d in out else term
    return {d: terms for d, terms in out.items() if terms}


def term_bits(terms_by_offset):
    """Offsets and monomials in order, each scalar by its type and float.hex of both parts."""
    return [
        (d, [(m, type(c).__name__, float(c.real).hex(), float(c.imag).hex()) for m, c in terms.items()])
        for d, terms in terms_by_offset.items()
    ]


def assert_staged(A, B, C):
    expected = term_bits(staged_product(A, B))
    assert term_bits({d: c.terms for d, c in C.coefficients.items()}) == expected


def recorded_compositions(monkeypatch, K, exprs):
    """Every normal-form product formed while normal_order evaluates exprs."""
    products = []
    matmul = NormalForm.__matmul__

    def recording(A, B):
        C = matmul(A, B)
        products.append((A, B, C))
        return C

    monkeypatch.setattr(NormalForm, "__matmul__", recording)
    for expr in exprs:
        normal_order(expr, K)
    monkeypatch.undo()
    return products


def staged_nf_equal(lhs, rhs, tol=1e-10):
    """nf_equal as it was first written, the oracle for the one-grid form: each
    coefficient forms its own powers of N and fancy-indexes its own atoms."""
    pairs = [
        (lhs.coefficient(d), rhs.coefficient(d), np.arange(max(0, -d), GRID_MAX + 1))
        for d in sorted(set(lhs.support()) | set(rhs.support()))
    ]
    spans = []
    for cl, cr, ns in pairs:
        for c in (cl, cr):
            shifts = {k for _, ks in c.terms for k in ks}
            if shifts:
                spans.append((int(ns.min()) + min(shifts), int(ns.max()) + max(shifts)))
    lo = min((first for first, _ in spans), default=0)
    table = level_table(lhs.K, lo, max((last for _, last in spans), default=-1))

    def on_levels(c, n):
        atoms = {k: table[n + k - lo] for _, ks in c.terms for k in ks}
        exact = n.astype(object)
        powers = {j: (exact**j).astype(float) for j, _ in c.terms}
        total = np.zeros(n.shape, dtype=complex)
        for (j, ks), scalar in c.terms.items():
            value = powers[j]
            for k in ks:
                value = value * atoms[k]
            total = total + scalar * value
        return total

    deviations = [np.zeros(0)]
    for cl, cr, ns in pairs:
        vl, vr = on_levels(cl, ns), on_levels(cr, ns)
        deviations.append(np.abs(vl - vr) / np.maximum(np.maximum(1.0, np.abs(vl)), np.abs(vr)))
    worst = float(np.max(np.concatenate(deviations), initial=0.0))
    return IdentityReport.judge("normal-form equality", GRID_MAX + 1, worst, tol)


def per_offset_nf_to_matrix(nf, D):
    """nf_to_matrix as it was first written, the oracle for the one-table form: each
    kept offset calls its coefficient on its own columns."""
    roots = np.sqrt(build_rep(nf.K, D).levels[1:D])
    diagonals = {}
    for d, cfn in nf.coefficients.items():
        if abs(d) >= D:
            continue
        cols = np.arange(max(0, -d), min(D, D - d))
        weight = np.ones(cols.size)
        for j in range(abs(d)):
            weight *= roots[cols + j if d > 0 else cols - j - 1]
        diagonals[d] = cfn(cols) * weight
    return Band(D, diagonals)


def symbolic_mix_sides():
    """Both sides of every identity of the symbolic-mix workload."""
    return [side for identity in symbolic_mix_identities() for side in parse_identity(identity)]


def report_bits(report):
    return (report.name, report.window, report.max_abs_residual.hex(), report.tol, report.passed)


def tree_depth(node):
    """Nesting depth of an expression tree, walked with an explicit stack."""
    deepest, stack = 0, [(node, 1)]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        for value in vars(node).values():
            for child in value if isinstance(value, tuple) else (value,):
                if isinstance(child, Expr):
                    stack.append((child, level + 1))
    return deepest


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

    @pytest.mark.parametrize("text", ["K(N+65)", "K(N-65)", "K(N+100000)"])
    def test_k_shift_above_the_cap_fails_at_its_position(self, text):
        with pytest.raises(ExprSyntaxError, match="shift inside K [0-9]+ exceeds the cap 64") as err:
            parse_expr(text)
        assert err.value.position == 4
        assert parse_expr("K(N+64)*K(N-64)") == Mul((KShift(64), KShift(-64)))

    @pytest.mark.parametrize(
        "chain, expected",
        [
            (lambda n: "-" * n + "x", 1),  # an even count of '-' leaves no Neg
            (lambda n: "-" * (n + 1) + "x", 2),
            (lambda n: "+-" * n + "-x", 2),
            (lambda n: "x" + "*x" * n, 2),
            (lambda n: "x" + "/1*1" * (n // 2), 3),
        ],
        ids=["even-signs", "odd-signs", "mixed-signs", "products", "alternating"],
    )
    def test_nesting_depth_does_not_grow_with_chain_length(self, chain, expected):
        for n in (10, 100_000):
            lhs, rhs = parse_identity(chain(n) + " == " + chain(10))
            assert (tree_depth(lhs), tree_depth(rhs)) == (expected, expected), n

    def test_a_chain_is_one_node(self):
        assert parse_expr("---x") == Neg(Sym("x")) and parse_expr("-+-x") == Sym("x")
        a, x, p = Sym("a"), Sym("x"), Sym("p")
        assert parse_expr("a*x/2*-p/q") == Mul((a, x, Divisor(Num(2)), Neg(p), Divisor(Param("q"))))
        assert parse_expr("(a*x)*p") == Mul((Mul((a, x)), p))

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

    @pytest.mark.parametrize(
        "K, text, error, message",
        [
            (classical(), "x/0/a", ValueError, "division is only defined by scalar expressions"),
            (classical(), "x/a/0", ZeroDivisionError, "division by zero scalar"),
            # alpha is not bound on arik-coon, but no factor is evaluated before the divisors
            (make_case(CaseId.ARIK_COON, q=0.7), "alpha*x/0", ZeroDivisionError, "division by zero scalar"),
        ],
        ids=["operator-last", "zero-last", "unbound-factor"],
    )
    def test_every_divisor_is_checked_last_first_before_any_factor(self, K, text, error, message):
        for evaluate in (lambda e: normal_order(e, K), lambda e: expr_to_matrix(e, K, 8)):
            with pytest.raises((ValueError, ZeroDivisionError)) as err:
                evaluate(parse_expr(text))
            assert (err.type, str(err.value)) == (error, message)

    def test_scalar_division_and_negative_power(self):
        K = make_case(CaseId.ARIK_COON, q=0.5)
        nf = normal_order(parse_expr("(1+q)^-1 * a / 2"), K)
        assert nf.coefficient(-1)(3) == pytest.approx(1.0 / 1.5 / 2.0)

    @pytest.mark.parametrize(
        "text, value",
        [("(1e160)^-2", 1e-320), ("(-2)^-3", -0.125), ("(2+1i)^-1", (2 + 1j) ** -1)],
        ids=["square-overflows", "negative-real", "complex"],
    )
    def test_a_negative_power_of_a_real_scalar_is_a_real_power(self, text, value):
        # a complex power forms (1e160 + 0j)^2 as inf + nan*i; a real base's power stays real
        K = make_case(CaseId.ARIK_COON, q=0.7)
        nf = normal_order(parse_expr(f"{text}*x"), K)
        assert nf.coefficient(1)(3) == 0.5 * value
        band, x = (expr_to_matrix(parse_expr(f"{side}x"), K, 8) for side in (f"{text}*", ""))
        assert np.array_equal(band.diagonals[1], complex(value) * x.diagonals[1])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("(1e-300)^-64", "(1e-300)^-64 overflows float64"),
            ("(0)^-1", "(0.0)^-1 divides by zero"),
            # a complex power that underflows to 0 raises as a division by zero would
            ("(1e-300+1e-300i)^-64", "(1e-300+1e-300i)^-64 overflows float64"),
        ],
        ids=["overflows", "zero", "complex-overflows"],
    )
    def test_a_negative_power_that_fails_names_its_base_and_exponent(self, text, message):
        K = make_case(CaseId.CLASSICAL)
        for evaluate in (lambda e: normal_order(e, K), lambda e: expr_to_matrix(e, K, 8)):
            with pytest.raises(ValueError) as err:
                evaluate(parse_expr(f"{text}*x"))
            assert str(err.value) == message


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


class TestFusedContraction:
    """NormalForm @ NormalForm against the staged contraction, bit for bit."""

    @pytest.mark.parametrize("K", representative_cases() + custom_cases(), ids=str)
    def test_products_equal_the_staged_contraction(self, monkeypatch, K):
        exprs = symbolic_mix_sides()
        exprs += list(random_words(seed=29, count=60, max_len=6))
        products = recorded_compositions(monkeypatch, K, exprs)
        assert len(products) > 100
        for A, B, C in products:
            assert_staged(A, B, C)

    @staticmethod
    def single(K, d, terms):
        return NormalForm(K, {d: CoefficientFunction(K, terms)})

    def test_a_crossed_contraction_multiplies_by_one_as_a_complex(self):
        # (-0.0 - 1i)(1 - 0.0i) = -0.0 - 1i; the crossed atom's factor 1.0 then
        # turns the real part to +0.0, as a full complex product does
        K = make_case(CaseId.ARIK_COON, q=0.7)
        A = self.single(K, 1, [((0, ()), complex(-0.0, -1.0))])
        B = self.single(K, -1, [((0, ()), complex(1.0, -0.0))])
        C = A @ B
        assert_staged(A, B, C)
        (value,) = C.coefficient(0).terms.values()
        assert value.imag == -1.0 and value.real == 0.0 and not math.copysign(1.0, value.real) < 0

    @pytest.mark.parametrize("d2", [-2, -1, 0, 1, 2])
    def test_an_infinite_coefficient_composes_as_staged(self, d2):
        K = make_case(CaseId.NONLINEAR, alpha=1.0, beta=2.0)
        inf = math.inf
        A = NormalForm(
            K,
            {
                1: CoefficientFunction(K, [((2, (0,)), complex(inf, -1.0)), ((0, ()), 2.0 + 0j)]),
                -1: CoefficientFunction(K, [((1, (1,)), complex(0.5, inf))]),
            },
        )
        B = self.single(K, d2, [((1, ()), 1.0 + 0j), ((0, (-1,)), complex(-0.0, 3.0))])
        for left, right in ((A, B), (B, A), (A, A)):
            assert_staged(left, right, left @ right)


class TestOneGridEquality:
    """nf_equal against the per-coefficient evaluation, bit for bit."""

    @pytest.mark.parametrize("K", representative_cases() + custom_cases(), ids=str)
    def test_reports_equal_the_per_coefficient_evaluation(self, K):
        sides = [tuple(normal_order(side, K) for side in parse_identity(text)) for text in symbolic_mix_identities()]
        words = [normal_order(word, K) for word in random_words(seed=29, count=60, max_len=6)]
        sides += list(zip(words[::2], words[1::2]))
        for lhs, rhs in sides:
            assert report_bits(nf_equal(lhs, rhs)) == report_bits(staged_nf_equal(lhs, rhs))
            assert report_bits(nf_equal(rhs, lhs, 1e-3)) == report_bits(staged_nf_equal(rhs, lhs, 1e-3))

    def test_a_nan_report_equals_the_per_coefficient_evaluation(self):
        K = make_case(CaseId.CUSTOM, custom_eval=lambda n: 1e200 * n)
        lhs, rhs = normal_order(parse_expr("N*K(N)*K(N+1) + ad"), K), normal_order(parse_expr("2*K(N)*K(N)"), K)
        with np.errstate(over="ignore", invalid="ignore"):
            report, expected = nf_equal(lhs, rhs), staged_nf_equal(lhs, rhs)
        assert math.isnan(report.max_abs_residual)
        assert report_bits(report) == report_bits(expected)


class TestScalarMaps:
    """-A, c * A and A / c against the construction that merges and sorts again, bit for bit."""

    MAPS = [
        ("-A", lambda A: -A, lambda v: -v),
        ("2.5*A", lambda A: 2.5 * A, lambda v: 2.5 * v),
        ("A*(0.3-1i)", lambda A: A * (0.3 - 1j), lambda v: (0.3 - 1j) * v),
        ("A*float64(3)", lambda A: A * np.float64(3.0), lambda v: np.float64(3.0) * v),
        ("A/3", lambda A: A / 3, lambda v: v / 3),
        ("A/(2i)", lambda A: A / 2j, lambda v: v / 2j),
        ("1e-200*A", lambda A: 1e-200 * A, lambda v: 1e-200 * v),
        ("0*A", lambda A: 0.0 * A, lambda v: 0.0 * v),
    ]

    @staticmethod
    def merged_map(A, fn):
        terms = {d: merged((m, fn(c)) for m, c in cf.terms.items()) for d, cf in A.coefficients.items()}
        return {d: t for d, t in terms.items() if t}

    def assert_maps_merge(self, A):
        for name, apply, fn in self.MAPS:
            B = apply(A)
            assert term_bits({d: c.terms for d, c in B.coefficients.items()}) == term_bits(self.merged_map(A, fn)), name

    @pytest.mark.parametrize("K", representative_cases() + custom_cases(), ids=str)
    def test_scalar_maps_equal_the_merging_construction(self, K):
        exprs = symbolic_mix_sides()
        for expr in exprs + list(random_words(seed=30, count=40, max_len=6)):
            self.assert_maps_merge(normal_order(expr, K))

    def test_an_underflow_drops_its_monomial_and_a_nan_stays(self):
        K = make_case(CaseId.NONLINEAR, alpha=1.0, beta=2.0)
        A = NormalForm(
            K,
            {
                # 1e-200 * 1e-200 underflows to +0.0 and -0.0: both monomials drop, and offset 1 with them
                1: CoefficientFunction(K, [((0, ()), 1e-200 + 0j), ((1, (0,)), complex(-1e-200, 0.0))]),
                # inf * 0 is NaN, which is not an exact zero and stays
                0: CoefficientFunction(K, [((0, (1,)), complex(math.inf, 1.0)), ((2, ()), 3.0 + 0j)]),
            },
        )
        with np.errstate(invalid="ignore"):  # np.float64(3.0) * (inf + 1i) forms inf * 0
            self.assert_maps_merge(A)
        assert (1e-200 * A).support() == (0,)
        (nan,) = (0.0 * A).coefficient(0).terms.values()
        assert math.isnan(nan.real) and (0.0 * A).support() == (0,)

    def test_scalar_maps_construct_no_coefficient(self, monkeypatch):
        K = make_case(CaseId.BORZOV, q=1.5, alpha=0.5, beta=1.0, gamma=2.0)
        A = normal_order(parse_expr("comm(H^2,x^2)"), K)
        constructions = []
        init = CoefficientFunction.__init__

        def counted(self, *args):
            constructions.append(args)
            init(self, *args)

        monkeypatch.setattr(CoefficientFunction, "__init__", counted)
        for _, apply, _ in self.MAPS:
            apply(A)
        assert constructions == []


class TestNormalFormOperators:
    @staticmethod
    def nf(text, K):
        return normal_order(parse_expr(text), K)

    def test_composition_contracts_as_the_band_product_does(self):
        K = make_case(CaseId.ARIK_COON, q=0.7)
        a_ad = self.nf("a", K) @ self.nf("ad", K)
        assert a_ad.coefficient(0).terms == {(0, (1,)): 1.0}
        rep = build_rep(K, 10)
        assert residual(nf_to_matrix(a_ad, 10), rep.mat_a @ rep.mat_ad, margin=1) <= 1e-15

    def test_operators_match_the_parsed_expressions_term_for_term(self):
        K = make_case(CaseId.CHUNG, q=0.7, alpha=2.0, beta=0.5)
        x, p, h = self.nf("x", K), self.nf("p", K), self.nf("H", K)
        for built, text in [
            (x @ p - p @ x, "comm(x,p)"),
            (-(x + h), "-(x + H)"),
            (2.5 * h / 4, "2.5*H/4"),
            (h * 2j, "H*2i"),
        ]:
            expected = self.nf(text, K)
            assert built.support() == expected.support(), text
            for d in built.support():
                assert built.coefficient(d).terms == expected.coefficient(d).terms, (text, d)

    def test_exact_cancellation_drops_offsets(self):
        K = classical()
        x = self.nf("x", K)
        assert (x - x).support() == () and (0 * x).support() == ()

    def test_operands_of_another_algebra_or_type_are_refused(self):
        x = self.nf("x", classical())
        with pytest.raises(ValueError, match="do not combine"):
            x @ self.nf("x", make_case(CaseId.ARIK_COON, q=0.7))
        with pytest.raises(TypeError):
            x + 1
        with pytest.raises(TypeError):
            x * "2"


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
        # K(N)^2 overflows to inf on both sides from n = 1, and inf - inf is NaN
        K = make_case(CaseId.CUSTOM, custom_eval=lambda n: 1e200 * n)
        with np.errstate(over="ignore", invalid="ignore"):
            report = nf_equal(normal_order(parse_expr("K(N)*K(N)"), K), normal_order(parse_expr("2*K(N)*K(N)"), K))
        assert math.isnan(report.max_abs_residual)
        assert not report.passed

    @pytest.mark.parametrize(
        "identity", [BUILTIN_IDENTITIES["lh_x"], COMPOSITE, "comm(N^3,x)*K(N+1) == N^3*x*K(N+1) - x*N^3*K(N+1)"]
    )
    def test_each_level_is_evaluated_once_per_call(self, monkeypatch, identity):
        calls, exponents = [], []

        def counted(n):
            calls.append(n)
            return n * (n + 1.0)

        powers = symorder._powers

        def counted_powers(n, js):
            exponents.extend(js)
            return powers(n, js)

        K = make_case(CaseId.CUSTOM, custom_eval=counted)
        lhs, rhs = (normal_order(side, K) for side in parse_identity(identity))
        calls.clear()
        monkeypatch.setattr(symorder, "_powers", counted_powers)
        assert nf_equal(lhs, rhs).passed
        assert calls and len(calls) == len(set(calls))
        # each power N^j over the grid, for every j of both sides and no other
        used = {j for nf in (lhs, rhs) for c in nf.coefficients.values() for j, _ in c.terms}
        assert sorted(exponents) == sorted(used)


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

    @pytest.mark.parametrize("K", representative_cases() + custom_cases(), ids=str)
    def test_every_shape_of_levels_is_the_per_level_loop_bit_for_bit(self, K):
        # a scalar, an empty array, a 2-D array, unsorted levels with repeats, negative levels
        levels = [
            np.int64(7),
            12,
            np.arange(0),
            np.array([[4, 0, 9], [2, 2, 11]]),
            np.array([9, 2, 9, 0, 5, 2, 2]),
            np.array([-3, 5, -1, -3, 0]),
        ]
        for text in self.WORDS:
            for d, c in normal_order(parse_expr(text), K).coefficients.items():
                for n in levels:
                    expected = np.array([per_level(c, m) for m in np.ravel(n).tolist()], dtype=complex)
                    value = c(n)
                    if np.ndim(n) == 0:
                        assert type(value) is complex, (text, d)
                        value = np.array([value])
                    else:
                        assert value.shape == np.shape(n), (text, d, n)
                    assert value.tobytes() == expected.tobytes(), (text, d, n)


class TestRealization:
    def test_diagonal_realization(self):
        K = make_case(CaseId.ARIK_COON, q=2.0)
        nf = normal_order(parse_expr("ad*a"), K)
        M = nf_to_matrix(nf, 8)
        expected = Band.diagonal([eval_K(K, n) for n in range(8)])
        assert residual(M, expected) <= 1e-14

    def test_creation_realization(self):
        K = make_case(CaseId.MACFARLANE_BIEDENHARN, q=0.7)
        rep = build_rep(K, 8)
        M = nf_to_matrix(normal_order(parse_expr("ad"), K), 8)
        assert residual(M, rep.mat_ad) <= 1e-14

    def test_macro_soundness(self):
        K = make_case(CaseId.CHUNG, q=1.5, alpha=0.5, beta=1.0)
        rep = build_rep(K, 10)
        M = nf_to_matrix(normal_order(parse_expr("x"), K), 10)
        assert residual(M, 0.5 * (rep.mat_ad + rep.mat_a)) <= 1e-14

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
        # the coefficients K(n+3) on offset 2, K(n-2) on -1 and n^2 K(n+2) + K(n) on 0
        # read K(-1..9) over their columns, each level once in one table
        nf = normal_order(parse_expr("K(N+1)*ad^2 + K(N-1)*a + N^2*K(N+2) + K(N)"), K)
        calls.clear()
        nf_to_matrix(nf, 8)
        assert calls[:10] == list(range(10))
        assert calls[10:] == list(range(-1, 10))

    @pytest.mark.parametrize("K", representative_cases() + custom_cases(), ids=str)
    def test_realizations_equal_the_per_offset_evaluation(self, K):
        exprs = symbolic_mix_sides()
        forms = [normal_order(expr, K) for expr in exprs + list(random_words(seed=30, count=40, max_len=6))]
        for D in (4, 5, 8, 32):
            for nf in forms:
                M, expected = nf_to_matrix(nf, D), per_offset_nf_to_matrix(nf, D)
                assert list(M.diagonals) == list(expected.diagonals)
                for d, entries in M.diagonals.items():
                    assert entries.tobytes() == expected.diagonals[d].tobytes(), (D, d)

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

    def test_the_level_leaf_is_the_representation_diagonal(self):
        # K(0..309) of D = 308 reaches 10^309, a direct power that overflows below a finite level
        K = make_case(CaseId.ARIK_COON, q=10.0)
        diagonal = expr_to_matrix(parse_expr("K(N)"), K, 308).diagonals[0]
        assert not diagonal.imag.any()
        assert diagonal.real.tobytes() == build_rep(K, 308).levels[:308].tobytes()

    def test_matrix_oracle_forms_h_only_when_named(self, monkeypatch):
        # H is x*x + p*p, the only squares these expressions can form
        squares = []
        matmul = Band.__matmul__

        def spy(left, right):
            if left is right:
                squares.append(left)
            return matmul(left, right)

        monkeypatch.setattr(Band, "__matmul__", spy)
        K = make_case(CaseId.ARIK_COON, q=0.7)
        expr_to_matrix(parse_expr("comm(x,p) + a*ad + N"), K, 8)
        assert squares == []
        expr_to_matrix(parse_expr("comm(x,H)"), K, 8)
        assert len(squares) == 2

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
        assert residual(realized, direct, margin=10) <= 1e-12


class TestEvaluatorAgainstDenseWalk:
    """expr_to_matrix shares symorder's evaluator with normal_order, so it is
    checked here against conftest.dense_expr, a separate numpy walk."""

    D, MARGIN = 16, 6
    # the composite identities of the benchmark's symbolic-mix workload
    COMPOSITES = (
        "comm(H^3,x^3) == H^3*x^3 - x^3*H^3",
        "comm(x,comm(p,H)) + comm(p,comm(H,x)) + comm(H,comm(x,p)) == 0",
        "comm(H^2,x^2) == H*comm(H,x^2) + comm(H,x^2)*H",
        "ad^3*a^3 == K(N)*K(N-1)*K(N-2)",
    )

    def assert_matches(self, expr, K):
        got = expr_to_matrix(expr, K, self.D)
        assert residual(got, dense_expr(expr, K, self.D), margin=self.MARGIN) <= 1e-13, (K, expr)

    @pytest.mark.parametrize("K", representative_cases(), ids=str)
    def test_identities_and_edge_nodes(self, K):
        for identity in (*BUILTIN_IDENTITIES.values(), *self.COMPOSITES):
            for side in parse_identity(identity):
                self.assert_matches(side, K)
        for text in ("x^0", "-comm(a,ad)", "---x*-+-p", "x/2*p/(1+i)*-x/4"):
            self.assert_matches(parse_expr(text), K)

    def test_scalar_division_and_bound_parameters(self):
        self.assert_matches(parse_expr("(1+q)^-1*a/2"), make_case(CaseId.ARIK_COON, q=0.7))
        self.assert_matches(parse_expr("alpha*x - K(N-1)"), make_case(CaseId.NONLINEAR, alpha=1.0, beta=2.0))

    @pytest.mark.parametrize("K", representative_cases(), ids=str)
    def test_random_words(self, K):
        for word in random_words(seed=5, count=200, max_len=6):
            self.assert_matches(word, K)


class TestMatrixOracle:
    @pytest.mark.parametrize("K", representative_cases(), ids=str)
    def test_random_words_match_direct_products(self, K):
        D = 12
        for word in random_words(seed=99, count=200, max_len=6):
            margin = len(word.factors)
            realized = nf_to_matrix(normal_order(word, K), D)
            direct = expr_to_matrix(word, K, D)
            worst = residual(realized, direct, margin=margin)
            assert worst <= 1e-9, (K, word, worst)

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
                report = nf_equal(normal_order(lhs, K), normal_order(rhs, K), tol=1e-10)
                assert report.passed, (K, name, report)


def bits(value):
    """Every bit of a band or a normal form, in a comparable form."""
    if isinstance(value, Band):
        return tuple((d, m.tobytes()) for d, m in value.diagonals.items())
    return tuple(
        (d, tuple(c.terms), np.array(list(c.terms.values()), dtype=complex).tobytes())
        for d, c in value.coefficients.items()
    )


class TestSharedEvaluation:
    """A memo shared by the sides of one check forms each product once."""

    SHARING = (
        "x^16 == x^16",
        "comm(a,ad) == a*ad - ad*a",
        "comm(H,x^2) + comm(H,x^2) == 2*comm(H,x^2)",
    )

    @pytest.mark.parametrize("K", representative_cases(), ids=str)
    def test_a_shared_memo_keeps_every_bit(self, K):
        texts = (*BUILTIN_IDENTITIES.values(), *TestEvaluatorAgainstDenseWalk.COMPOSITES, *self.SHARING[1:])
        sides = [side for text in texts for side in parse_identity(text)]
        sides += [*random_words(7, 40, 6), parse_expr("-(x*p)/2 - -(x*p)/2 + (2+1i)^-1*(x*p)^0")]
        forms, bands = {}, {}
        for side in sides:
            assert bits(normal_order(side, K, memo=forms)) == bits(normal_order(side, K)), side
            assert bits(expr_to_matrix(side, K, 12, memo=bands)) == bits(expr_to_matrix(side, K, 12)), side

    def test_a_check_forms_each_distinct_product_once(self, monkeypatch):
        formed = []  # (left, right, product) of every operator product, kept alive
        for cls in (NormalForm, Band):
            def spy(left, right, matmul=cls.__matmul__):
                product = matmul(left, right)
                formed.append((left, right, product))
                return product

            monkeypatch.setattr(cls, "__matmul__", spy)

        def check():
            formed.clear()
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["symbolic", "--case", "arik-coon", "--q", "0.7", "--check", COMPOSITE]) == 0
            return list(formed)

        first, second = check(), check()
        for products in (first, second):
            counts = Counter((type(left), bits(left), bits(right)) for left, right, _ in products)
            assert max(counts.values()) == 1
            # x@x, p@p, H@H, H^2@H, x^2@x, H^3@x^3 and x^3@H^3, for normal forms and for bands
            assert Counter(kind for kind, *_ in counts) == {NormalForm: 7, Band: 7}
        assert {id(p) for *_, p in first}.isdisjoint(id(p) for *_, p in second)

    @pytest.mark.parametrize(
        "evaluate, kind",
        [(normal_order, NormalForm), (lambda expr, K: expr_to_matrix(expr, K, 16), Band)],
        ids=["normal_order", "expr_to_matrix"],
    )
    def test_a_call_leaves_only_its_result_alive(self, evaluate, kind):
        # reference counting alone frees the memo and every intermediate on return
        expr, K = parse_expr("comm(H^3,x^3)"), make_case(CaseId.ARIK_COON, q=0.7)
        evaluate(expr, K)
        gc.collect()
        gc.disable()
        try:
            before = sum(type(obj) is kind for obj in gc.get_objects())
            result = evaluate(expr, K)
            after = sum(type(obj) is kind for obj in gc.get_objects())
        finally:
            gc.enable()
        assert isinstance(result, kind) and after - before == 1

    def test_a_memo_serves_one_case_and_dimension(self):
        # operators formed for one K or D must never be returned for another
        x = parse_expr("x")
        K, other = make_case(CaseId.ARIK_COON, q=0.7), make_case(CaseId.ARIK_COON, q=0.3)
        forms, bands = {}, {}
        band, form = expr_to_matrix(x, K, 8, memo=bands), normal_order(x, K, memo=forms)
        for mismatch in (
            lambda: expr_to_matrix(x, K, 16, memo=bands),
            lambda: expr_to_matrix(x, other, 8, memo=bands),
            lambda: normal_order(x, other, memo=forms),
            lambda: normal_order(x, K, memo=bands),
            lambda: expr_to_matrix(x, K, 8, memo=forms),
        ):
            with pytest.raises(ValueError, match="one spectral function and one dimension"):
                mismatch()
        # an equal case shares the memo's operators
        same = make_case(CaseId.ARIK_COON, q=0.7)
        assert expr_to_matrix(x, same, 8, memo=bands) is band and normal_order(x, same, memo=forms) is form

    @pytest.mark.parametrize(
        "nest",
        [
            lambda n: "comm(x," * n + "x" + ")" * n,
            lambda n: "(x - " * n + "x" + ")" * n,
            lambda n: "x/(" + "1/(" * n + "1" + ")" * (n + 1),
        ],
        ids=["commutators", "parentheses", "divisors"],
    )
    def test_the_deepest_nesting_that_parses_evaluates(self, nest):
        def parses(depth):
            try:
                parse_identity(nest(depth) + " == x")
            except ExprSyntaxError:
                return False
            return True

        deepest, too_deep = 1, 4096
        assert parses(deepest) and not parses(too_deep)
        while too_deep - deepest > 1:
            middle = (deepest + too_deep) // 2
            deepest, too_deep = (middle, too_deep) if parses(middle) else (deepest, middle)
        lhs, _ = parse_identity(nest(deepest) + " == x")
        K = make_case(CaseId.ARIK_COON, q=0.7)
        realized = nf_to_matrix(normal_order(lhs, K), 8)
        assert residual(realized, expr_to_matrix(lhs, K, 8), margin=3) <= 1e-12
