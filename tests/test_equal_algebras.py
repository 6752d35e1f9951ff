"""Equal algebras give equal answers: a metamorphic check across the level branches.

Distinct parameter points of the catalog name the same algebra, but their
levels run through different code: borzov(q, 0, 0, 1) through the two-base
factored form and arik-coon(q) through the direct bracket, chung(q, -1, 0)
and macfarlane-biedenharn(q) likewise, nonlinear(0, 1) through its
polynomial and classical through float(n), and macfarlane-biedenharn at
q = 2^k and 2^-k and borzov(q, alpha, beta, gamma) and
borzov(1/q, -alpha, -beta, -gamma) through reciprocal powers.  So each pair is
an oracle that needs no reference arithmetic (metamorphic testing; Chen et
al., ACM Computing Surveys 51(1), 4 (2018)).  Both q of a reciprocal pair are
powers of two, so that 1/q is exact.  Each pair is held to its level table,
its verify verdicts and residuals and its symbolic verdicts on the builtins;
the two-base pairs also to their gup-scan rows.
"""

import numpy as np
import pytest

from deformalg.fockrep import run_verify_checks
from deformalg.gup import number_state_reports
from deformalg.spectral import CaseId, make_case, level_table
from deformalg.symorder import BUILTIN_IDENTITIES, check_identity

LEVELS = (-1, 129)
ULP_BOUND = 3
# outside NEAR_SINGULAR and the near-1 points below, the pairs agree within 3 ulp
Q_GRID = [0.3, 0.7, 1.05, 1.5, 2.0, 3.5]
# within 1e-1 of q = 1 the one-base brackets cancel: measured, borzov against arik-coon and
# chung against macfarlane-biedenharn differ by up to 9 and 11 ulp at q = 0.95, 394 and 415 at
# 0.999, and 222 and 146 at 1 + 1.0001e-3
NEAR_ONE = [0.95, 0.999, 1 + 1.0001e-3]
NEAR_ONE_REASON = "ROADMAP item 16: the direct one-base brackets cancel near q = 1"
VERIFY_Q = [0.3, 0.7, 0.95, 0.999, 1.05, 1.5, 3.5]
PAIR_IDS = ["borzov-arik-coon", "chung-macfarlane-biedenharn"]
RECIPROCAL_Q = [2.0, 4.0]
BORZOV_EXPONENTS = [(0.5, 1.0, 2.0), (2.0, 0.5, 1.0), (-1.0, 62.0, -2.0), (0.0, 0.0, 1.0), (1.5, -0.25, 0.75)]
# gup-scan columns within 16 ulp; measured at most 2 (delta_x, delta_p), 5 (product),
# 7 (square_sum_bound) and 10 (margin_robertson) over Q_GRID at D = 32 and 128
GUP_ULP_BOUND = 16
GUP_ULP_COLUMNS = ("delta_x", "delta_p", "product", "square_sum_bound", "margin_robertson")
EPS = float(np.finfo(float).eps)
# the shared verify rows' max_abs_residual within 16 eps; measured at most 9.96 eps off the
# near-1 points (chung(1.05, -1, 0) against macfarlane-biedenharn(1.05), lie_hamilton_x, D = 128),
# 2.74 eps on the borzov pair, and 15.99 eps at q = 0.999 on the chung pair at D = 32.  Two
# near-1 cells exceed it, both at D = 128: 19.9 eps at q = 0.999 on the chung pair and 33.9 eps
# at q = 1 + 1.0001e-3 on the borzov pair
RESIDUAL_EPS_BOUND = 16
RESIDUAL_NEAR_ONE_CELLS = {("chung-macfarlane-biedenharn", 0.999, 128), ("borzov-arik-coon", 1 + 1.0001e-3, 128)}


def two_base_pairs(q):
    """(name, two-base case, one-base case) for each two-base point that is a one-base algebra."""
    return [
        ("borzov-arik-coon", make_case(CaseId.BORZOV, q=q, alpha=0.0, beta=0.0, gamma=1.0),
         make_case(CaseId.ARIK_COON, q=q)),
        ("chung-macfarlane-biedenharn", make_case(CaseId.CHUNG, q=q, alpha=-1.0, beta=0.0),
         make_case(CaseId.MACFARLANE_BIEDENHARN, q=q)),
    ]


def reciprocal_borzov(q, alpha, beta, gamma):
    return (make_case(CaseId.BORZOV, q=q, alpha=alpha, beta=beta, gamma=gamma),
            make_case(CaseId.BORZOV, q=1.0 / q, alpha=-alpha, beta=-beta, gamma=-gamma))


def exact_pairs():
    """(name, case, case) for nonlinear(0, 1) and classical and the macfarlane-biedenharn 2^k pairs."""
    nonlinear = make_case(CaseId.NONLINEAR, alpha=0.0, beta=1.0)
    pairs = [("nonlinear-classical", nonlinear, make_case(CaseId.CLASSICAL))]
    pairs += [
        (f"macfarlane-biedenharn 2^{k}", *(make_case(CaseId.MACFARLANE_BIEDENHARN, q=2.0**e) for e in (k, -k)))
        for k in (1, 2)
    ]
    return pairs


def every_pair():
    """(name, case, case) for every pair of the file, the two-base pairs at VERIFY_Q."""
    pairs = exact_pairs()
    pairs += [pair for q in VERIFY_Q for pair in two_base_pairs(q)]
    pairs += [
        (f"borzov {q} {exponents}", *reciprocal_borzov(q, *exponents))
        for q in RECIPROCAL_Q
        for exponents in BORZOV_EXPONENTS
    ]
    return pairs


def table(K):
    return level_table(K, *LEVELS)


def ulp_distance(a, b):
    """The largest count of float64 steps between a and b, entry by entry; -0.0 and 0.0 are 0 apart."""
    ordered = []
    for x in (a, b):
        bits = x.view(np.int64)
        ordered.append(np.where(bits < 0, np.int64(-(2**63)) - bits, bits))
    return int(np.max(np.abs(ordered[0] - ordered[1])))


def test_nonlinear_without_its_quadratic_term_is_classical_bit_for_bit():
    nonlinear = make_case(CaseId.NONLINEAR, alpha=0.0, beta=1.0)
    assert table(nonlinear).tobytes() == table(make_case(CaseId.CLASSICAL)).tobytes()


@pytest.mark.parametrize("k", [1, 2])
def test_macfarlane_biedenharn_at_reciprocal_q_is_bit_for_bit_the_same(k):
    a, b = (table(make_case(CaseId.MACFARLANE_BIEDENHARN, q=2.0**e)) for e in (k, -k))
    # K(0) = 0 / (q - 1/q) takes the sign of q - 1/q, so adding 0.0 makes both zeros +0.0
    assert (a + 0.0).tobytes() == (b + 0.0).tobytes()


@pytest.mark.parametrize(
    "q",
    Q_GRID + [pytest.param(q, marks=pytest.mark.xfail(strict=True, reason=NEAR_ONE_REASON)) for q in NEAR_ONE],
)
@pytest.mark.parametrize("pair", [0, 1], ids=PAIR_IDS)
def test_two_base_levels_are_the_one_base_levels_within_3_ulp(pair, q):
    _, two_base, one_base = two_base_pairs(q)[pair]
    assert ulp_distance(table(two_base), table(one_base)) <= ULP_BOUND


@pytest.mark.parametrize("q", VERIFY_Q)
def test_equal_algebras_give_equal_verify_verdicts(q):
    for name, *cases in two_base_pairs(q):
        for D in (32, 128):
            rows = [{c.name: c.passed for c in run_verify_checks(K, D, 3, 1e-10, 0)} for K in cases]
            shared = sorted(rows[0].keys() & rows[1].keys())
            assert len(shared) == 12, (name, D)
            assert [rows[0][row] for row in shared] == [rows[1][row] for row in shared], (name, D)


def shared_residuals(cases, D):
    """The max_abs_residual of each verify row both cases hold, in row-name order, one array per case."""
    rows = [{c.name: c.max_abs_residual for c in run_verify_checks(K, D, 3, 1e-10, 0)} for K in cases]
    shared = sorted(rows[0].keys() & rows[1].keys())
    return [np.array([row[name] for name in shared]) for row in rows]


def residual_cells():
    """(pair, q, D) over every q of the file; the two cells past the bound are strict xfails."""
    for q in sorted({*Q_GRID, *NEAR_ONE, *VERIFY_Q}):
        for pair, name in enumerate(PAIR_IDS):
            for D in (32, 128):
                past = (name, q, D) in RESIDUAL_NEAR_ONE_CELLS
                marks = pytest.mark.xfail(strict=True, reason=NEAR_ONE_REASON) if past else ()
                yield pytest.param(pair, q, D, marks=marks, id=f"{name}-{q}-D{D}")


@pytest.mark.parametrize("pair, q, D", residual_cells())
def test_two_base_verify_residuals_are_the_one_base_residuals_within_16_eps(pair, q, D):
    two_base, one_base = shared_residuals(two_base_pairs(q)[pair][1:], D)
    assert two_base.size == 12
    assert np.max(np.abs(two_base - one_base)) <= RESIDUAL_EPS_BOUND * EPS


@pytest.mark.parametrize("D", [32, 128])
@pytest.mark.parametrize("label, one, other", [pytest.param(*pair, id=pair[0]) for pair in exact_pairs()])
def test_exact_pairs_give_equal_verify_residuals(label, one, other, D):
    a, b = shared_residuals((one, other), D)
    assert a.size == (12 if label == "nonlinear-classical" else 15)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("exponents", BORZOV_EXPONENTS, ids=str)
@pytest.mark.parametrize("q", RECIPROCAL_Q)
def test_borzov_at_reciprocal_q_and_negated_exponents_is_bit_for_bit_the_same(q, exponents):
    a, b = reciprocal_borzov(q, *exponents)
    assert table(a).tobytes() == table(b).tobytes()
    for D in (32, 128):
        assert run_verify_checks(a, D, 3, 1e-10, 0) == run_verify_checks(b, D, 3, 1e-10, 0), D


@pytest.mark.parametrize("name", BUILTIN_IDENTITIES)
def test_equal_algebras_give_equal_symbolic_verdicts(name):
    for label, *cases in every_pair():
        verdicts = [[r.passed for r in check_identity(BUILTIN_IDENTITIES[name], K, 32, 3, 1e-10)] for K in cases]
        assert verdicts == [[True, True]] * 2, label


def gup_columns(K, D):
    """The number-state reports of levels 0..D-4, one float64 array per field."""
    reports = number_state_reports(K, D, range(D - 3))
    return {field: np.array([getattr(r, field) for r in reports]) for field in reports[0]._fields}


@pytest.mark.parametrize("D", [32, 128])
@pytest.mark.parametrize("q", Q_GRID)
@pytest.mark.parametrize("pair", [0, 1], ids=PAIR_IDS)
def test_two_base_gup_rows_are_the_one_base_rows(pair, q, D):
    two_base, one_base = (gup_columns(K, D) for K in two_base_pairs(q)[pair][1:])
    for column in GUP_ULP_COLUMNS:
        assert ulp_distance(two_base[column], one_base[column]) <= GUP_ULP_BOUND, column
    # |<[x, p]>|/2 = |b^2 - a^2| cancels terms of size dx^2: measured within 2.2 eps dx^2
    gap = np.abs(two_base["robertson_bound"] - one_base["robertson_bound"])
    assert np.all(gap <= 4 * EPS * one_base["delta_x"] ** 2)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: at q = 0.3 the Robertson bound q^n/4 is the rounding of a difference of levels",
)
@pytest.mark.parametrize("D", [32, 128])
def test_borzov_robertson_bound_at_q_0_3_is_the_arik_coon_one_within_16_ulp(D):
    two_base, one_base = (gup_columns(K, D)["robertson_bound"] for K in two_base_pairs(0.3)[0][1:])
    assert ulp_distance(two_base, one_base) <= GUP_ULP_BOUND
