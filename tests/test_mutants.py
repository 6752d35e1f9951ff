"""The mutation kill matrix of verify and symbolic: which defects each command's own verdict catches.

Each mutant monkeypatches fockrep or symorder names with a defect a real
change could make.  A verify cell runs run_verify_checks on one of
perfbench's six verify cases at one dimension, with the mutant in place, and
the mutant is caught there when some row fails.  A caught cell is a plain
test.  A missed cell is a strict xfail whose reason names the ROADMAP item
that will catch it, so that item's change sees XPASS and drops the marker.
An exception is not a miss: a cell that raises fails.

A symbolic cell runs symorder.check_identity on the three builtins and
perfbench's four composites, on one of the six cases at D = 32, and pins
which oracle fails on which identity.  It also pins which sides fail the
realization check, a check of the tests and not of the symbolic command: each
side's normal form realized by nf_to_matrix against the side evaluated by
expr_to_matrix.  The mutant is caught there when any report of either fails.
"""

import dataclasses

import numpy as np
import pytest

from conftest import perfbench_workloads, realization_reports, symbolic_mix_identities
from deformalg import Band, make_case
from deformalg import fockrep, symorder
from deformalg.fockrep import run_verify_checks
from deformalg.spectral import level_table
from deformalg.symorder import check_identity

MARGIN, TOL, SEED = 3, 1e-10, 0
DIMS = (32, 128)
# perfbench's verify cases by name, their command-line parameters read as make_case's
CASES = {
    name: make_case(name, **{flag[2:]: float(value) for flag, value in zip(params[::2], params[1::2])})
    for name, params in perfbench_workloads().CASES.items()
}


def scaled_commutator_mean(factor):
    """<[x, p]> of every swept state times factor."""

    def patch(monkeypatch):
        moments = fockrep._moments

        def mutant(V, xV, pV):
            m = moments(V, xV, pV)
            return dataclasses.replace(m, xp_commutator_mean=factor * m.xp_commutator_mean)

        monkeypatch.setattr(fockrep, "_moments", mutant)

    return patch


def scaled_closed_forms(factor):
    """The right side of every closed-form row times factor."""

    def patch(monkeypatch):
        rows = fockrep._closed_form_rows

        def mutant(quads, xH, pH, margin):
            for name, A, B, m in rows(quads, xH, pH, margin):
                yield name, A, B * factor, m

        monkeypatch.setattr(fockrep, "_closed_form_rows", mutant)

    return patch


def raised_step(monkeypatch):
    """The right side of xp_commutator_step 50% too large at the levels n = 0 and 1."""
    rows = fockrep._structure_rows

    def mutant(quads, xH, pH, margin):
        for name, A, B, m in rows(quads, xH, pH, margin):
            if name == "xp_commutator_step":
                B = Band.diagonal(B.entries(0) * np.where(np.arange(B.D) < 2, 1.5, 1.0))
            yield name, A, B, m

    monkeypatch.setattr(fockrep, "_structure_rows", mutant)


def scaled_levels(factor):
    """The representation's levels K(n), n >= 2, times factor."""

    def patch(monkeypatch):
        levels = fockrep._rep_levels

        def mutant(K, D, values=None):
            values = levels(K, D, values)
            return values[:2] + [factor * value for value in values[2:]]

        monkeypatch.setattr(fockrep, "_rep_levels", mutant)

    return patch


def flipped_p_offset(monkeypatch):
    """p's offset -1 with its sign flipped, +0.5j sqrt(K(n)): p = i(a' + a)/2."""
    quadratures = fockrep.quadratures

    def mutant(rep):
        quads = quadratures(rep)
        p = quads.mat_p
        return dataclasses.replace(quads, mat_p=Band(p.D, {-1: -p.diagonals[-1], 1: p.diagonals[1]}))

    monkeypatch.setattr(fockrep, "quadratures", mutant)


# What will catch each missed cell
ITEMS = {
    2: "ROADMAP item 2: residuals scaled by the products that formed them",
    9: "ROADMAP item 9: a 1e-11 relative error is below tol 1e-10 in float64; the exact oracle sees it",
    10: "ROADMAP item 10: the random states sit far above the Robertson bound; coherent states saturate it",
    13: "ROADMAP item 13: no row checks the case's own defining relation",
}

# mutant -> (patch, marks, item).  marks hold two characters per case, in CASES order,
# for D = 32 and 128: X where verify fails, . where it passes (a strict xfail naming
# item) and - where the case has no row the mutant changes (no cell).  chung and borzov
# have no closed-form rows.
KILL_MATRIX = {
    "commutator_mean_x1.5": (scaled_commutator_mean(1.5), ".. .. .. .. .. ..", 10),
    "commutator_mean_x0.5": (scaled_commutator_mean(0.5), ".. .. .. .. .. ..", 10),
    "closed_forms_x(1+1e-11)": (scaled_closed_forms(1 + 1e-11), ".. .. .. -- -- ..", 9),
    "closed_forms_x(1+1e-8)": (scaled_closed_forms(1 + 1e-8), "XX XX XX -- -- XX", None),
    "xp_step_+50%_at_n=0,1": (raised_step, "XX XX X. XX X. XX", 2),
    "levels_n>=2_x(1+1e-11)": (scaled_levels(1 + 1e-11), ".. .. .. .. .. ..", 13),
    "levels_n>=2_x(1+1e-7)": (scaled_levels(1 + 1e-7), "XX XX .. .. .. XX", 13),
    "p_offset_-1_sign_flipped": (flipped_p_offset, "XX XX XX XX XX XX", None),
}


def cells():
    for mutant, (_, marks, item) in KILL_MATRIX.items():
        for case, pair in zip(CASES, marks.split(), strict=True):
            for D, mark in zip(DIMS, pair, strict=True):
                if mark == "-":
                    continue
                missed = pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEMS.get(item))
                yield pytest.param(mutant, case, D, marks=missed if mark == "." else (), id=f"{mutant}-{case}-D{D}")


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("D", DIMS)
def test_verify_passes_every_case_unmutated(case, D):
    assert all(report.passed for report in run_verify_checks(CASES[case], D, MARGIN, TOL, SEED))


@pytest.mark.parametrize("mutant, case, D", cells())
def test_verify_catches_the_mutant(monkeypatch, mutant, case, D):
    KILL_MATRIX[mutant][0](monkeypatch)
    assert not all(report.passed for report in run_verify_checks(CASES[case], D, MARGIN, TOL, SEED))


def crossed_levels_up_one(monkeypatch):
    """Every atom K(N+k) a ladder product crosses read one level up, as K(N+k+1)."""
    crossed = symorder._crossed_levels

    def mutant(d1, d2):
        levels = crossed(d1, d2)
        return range(levels.start + 1, levels.stop + 1)

    monkeypatch.setattr(symorder, "_crossed_levels", mutant)


def p_lowering_scalar_positive(monkeypatch):
    """p's offset -1 scalar +0.5j in the normal form, p = i(a' + a)/2 there alone."""
    monkeypatch.setitem(symorder._SYMBOL_TERMS, "p", {1: ((0, ()), 0.5j), -1: ((0, ()), 0.5j)})


def scaled_level_tables(monkeypatch):
    """Every level symorder's readers take from its level store times 1 + 1e-7, while
    its representations are built from exact levels, so their bands stay exact.
    Scaling the store alone would be the consistent algebra (1 + 1e-7) K, in which
    every identity holds."""
    read = symorder._Levels.__call__
    monkeypatch.setattr(symorder._Levels, "__call__", lambda self, lo, hi: read(self, lo, hi) * (1 + 1e-7))
    monkeypatch.setattr(symorder, "FockRep", lambda K, D, levels: fockrep.FockRep(K, D, level_table(K, 0, D + 1)))


def on_levels_up_one(monkeypatch):
    """Every span symorder's level evaluator is given read one level up, (c, first + 1, last + 1)."""
    on_levels = symorder._on_levels

    def mutant(K, spans):
        return on_levels(K, [(c, first + 1, last + 1) for c, first, last in spans])

    monkeypatch.setattr(symorder, "_on_levels", mutant)


SYMBOLIC_DIM = 32
IDENTITIES = symbolic_mix_identities()

# mutant -> (patch, marks, realized).  marks hold seven characters per case, in CASES order,
# one per identity of IDENTITIES: N where nf_equal fails, M where the matrix oracle fails, B
# where both do and . where both pass.  realized holds fourteen per case, one per side of
# those identities in order: R where the realization check fails and . where it passes.
# Both sides of nf_equal read one level evaluator, so check_identity misses the last mutant.
SYMBOLIC_KILL_MATRIX = {
    "crossed_levels_up_one": (
        crossed_levels_up_one,
        "......N NNN...N NNN...N NNN...N NNN...N NNN...N",
        "......RR..RRR. " + " ".join(["R.R.R.RR..RRR."] * 5),
    ),
    "p_offset_-1_scalar_+0.5j": (
        p_lowering_scalar_positive,
        " ".join(["NNN...."] * 6),
        "R.RRR.RR..RR.. " + " ".join(["R.RRRRRR..RR.."] * 5),
    ),
    "level_tables_x(1+1e-7)": (scaled_level_tables, " ".join(["MMM...M"] * 6), " ".join(["R.R.R.RR..RRR."] * 6)),
    "on_levels_up_one": (
        on_levels_up_one,
        " ".join(["......."] * 6),
        "......RR..RRRR " + " ".join(["RRRRRRRR..RRRR"] * 5),
    ),
}


def symbolic_marks(K):
    """One character per identity: which of check_identity's two reports fail."""
    marks = ""
    for identity in IDENTITIES:
        nf, matrix = (report.passed for report in check_identity(identity, K, SYMBOLIC_DIM, MARGIN, TOL))
        marks += {(True, True): ".", (False, True): "N", (True, False): "M", (False, False): "B"}[nf, matrix]
    return marks


def realized_marks(K):
    """One character per side: whether its realization check fails."""
    return "".join("." if report.passed else "R" for report in realization_reports(K, SYMBOLIC_DIM))


@pytest.mark.parametrize("case", CASES)
def test_symbolic_passes_every_case_unmutated(case):
    assert symbolic_marks(CASES[case]) == "." * len(IDENTITIES)
    assert realized_marks(CASES[case]) == "." * 2 * len(IDENTITIES)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("mutant", SYMBOLIC_KILL_MATRIX)
def test_symbolic_catches_the_mutant(monkeypatch, mutant, case):
    patch, *marks = SYMBOLIC_KILL_MATRIX[mutant]
    expected = tuple(dict(zip(CASES, column.split(), strict=True))[case] for column in marks)
    patch(monkeypatch)
    got = symbolic_marks(CASES[case]), realized_marks(CASES[case])
    assert got == expected and got != ("." * len(IDENTITIES), "." * 2 * len(IDENTITIES))
