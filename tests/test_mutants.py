"""The mutation kill matrix of verify: which defects the command's own verdict catches.

Each mutant monkeypatches one fockrep function with a defect a real change
could make.  A cell runs run_verify_checks on one of perfbench's six verify
cases at one dimension, with the mutant in place, and the mutant is caught
there when some row fails.  A caught cell is a plain test.  A missed cell is
a strict xfail whose reason names the ROADMAP item that will catch it, so
that item's change sees XPASS and drops the marker.  An exception is not a
miss: a cell that raises fails.
"""

import dataclasses

import numpy as np
import pytest

from conftest import perfbench_workloads
from deformalg import Band, make_case
from deformalg import fockrep
from deformalg.fockrep import run_verify_checks

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
