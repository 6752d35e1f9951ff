"""Acceptance suite: one test and one printed status line per criterion.

Every criterion is evaluated at its stated tolerance (matrix residuals
are normalized by operand magnitude, as everywhere in the package).  All
failures a criterion produces are collected and reported together.

Known red: the geometric-spectrum inversion round trip (criterion 4) is
unattainable in float64 at q = 0.3 beyond n ~ 14, because the Hamiltonian
eigenvalues saturate geometrically at 1/(1-q) and a rounded h no longer
carries the level information.  See the README numerical-limits note.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import (
    CUSTOM_SEEDS,
    NL_ALPHA,
    NL_BETA,
    Q_GRID,
    catalog_grid,
    custom_case,
    dense,
    random_words,
    representative_cases,
    residual,
)
from deformalg import (
    BUILTIN_IDENTITIES,
    CaseId,
    DefiningRelation,
    build_rep,
    case_bound,
    commutator,
    eval_K,
    expr_to_matrix,
    hamiltonian_eigenvalue,
    invert_number,
    lie_hamilton_rhs,
    make_case,
    nf_equal,
    nf_to_matrix,
    normal_order,
    number_state,
    parse_identity,
    quadratures,
    random_state,
    relation_residual,
    square_sum_bound,
    truncation_safe,
    uncertainty_product,
    uncertainty_report,
)
from regen_goldens import child_env
from test_gup import SYMMETRIC_BOUND_MARGINS

D = 32
MARGIN = 3
WINDOW_TOL = 1e-10
EXACT_TOL = 1e-14


def finish(number, label, failures):
    status = "PASS" if not failures else f"FAIL ({len(failures)} defects)"
    print(f"ACCEPTANCE {number:>2} {label}: {status}")
    for item in failures[:12]:
        print(f"    - {item}")
    assert not failures, f"criterion {number}: {failures[:12]}"


def case_label(K):
    return f"{K.case_id.value}({', '.join(f'{k}={v}' for k, v in K.params().items())})"


def test_criterion_01_representation_exactness():
    failures = []
    for K in catalog_grid():
        rep = build_rep(K, D)
        diag = np.diag([eval_K(K, n) for n in range(D)]).astype(complex)
        checks = [
            ("ladder_product", rep.mat_ad @ rep.mat_a, diag),
            ("number_raises", commutator(rep.mat_N, rep.mat_ad), rep.mat_ad),
            ("number_lowers", commutator(rep.mat_N, rep.mat_a), -rep.mat_a),
        ]
        for name, lhs, rhs in checks:
            error = residual(lhs, rhs)
            if error > EXACT_TOL:
                failures.append(f"{case_label(K)} {name}: {error:.2e}")
    finish(1, "representation exactness", failures)


def test_criterion_02_general_identities():
    failures = []
    cases = catalog_grid() + [custom_case(seed) for seed in CUSTOM_SEEDS]
    for K in cases:
        rep = build_rep(K, D)
        quads = quadratures(rep)
        levels = np.array([eval_K(K, n) for n in range(D + 1)])
        delta = np.diag(levels[1:] - levels[:-1]).astype(complex)
        hdiag = np.diag(0.5 * (levels[:-1] + levels[1:])).astype(complex)
        rhs_x, rhs_p = lie_hamilton_rhs(quads)
        checks = [
            ("ladder_comm", commutator(rep.mat_a, rep.mat_ad), delta),
            ("hamiltonian_diag", quads.mat_H, hdiag),
            ("xp_comm", commutator(quads.mat_x, quads.mat_p), 0.5j * delta),
            ("lie_x", commutator(quads.mat_x, quads.mat_H), rhs_x),
            ("lie_p", commutator(quads.mat_p, quads.mat_H), rhs_p),
        ]
        for name, lhs, rhs in checks:
            error = residual(lhs, rhs, MARGIN)
            if error > WINDOW_TOL:
                failures.append(f"{case_label(K)} {name}: {error:.2e}")
    finish(2, "general windowed identities", failures)


def test_criterion_03_case_closed_forms():
    failures = []

    # the left sides are the library's band commutators, the right sides
    # dense closed forms built from dense copies of x, p and H
    def check(K, name, lhs, rhs):
        error = residual(lhs, rhs, MARGIN)
        if error > WINDOW_TOL:
            failures.append(f"{case_label(K)} {name}: {error:.2e}")

    eye = np.eye(D, dtype=complex)
    nn = np.arange(D, dtype=float)

    K = make_case(CaseId.CLASSICAL)
    quads = quadratures(build_rep(K, D))
    check(K, "xp_constant", commutator(quads.mat_x, quads.mat_p), 0.5j * eye)
    check(K, "motion_x", commutator(quads.mat_x, quads.mat_H), 1j * dense(quads.mat_p))
    check(K, "motion_p", commutator(quads.mat_p, quads.mat_H), -1j * dense(quads.mat_x))

    for q in Q_GRID:
        K = make_case(CaseId.ARIK_COON, q=q)
        quads = quadratures(build_rep(K, D))
        X, P, HH = quads.mat_x, quads.mat_p, quads.mat_H
        x, p, H = dense(X), dense(P), dense(HH)
        c1 = np.diag(-0.25 * (1 - q * q) * q ** (nn - 1)).astype(complex)
        c2 = np.diag(0.25 * (1 + q) ** 2 * q ** (nn - 1)).astype(complex)
        check(K, "motion_x_closed", commutator(X, HH), c1 @ x + 1j * c2 @ p)
        check(K, "motion_p_closed", commutator(P, HH), c1 @ p - 1j * c2 @ x)
        check(K, "xp_qpower", commutator(X, P), 0.5j * np.diag(q**nn).astype(complex))
        check(K, "xp_h_form", commutator(X, P), (1j / (1 + q)) * (eye - (1 - q) * H))

    for q in Q_GRID:
        K = make_case(CaseId.MACFARLANE_BIEDENHARN, q=q)
        quads = quadratures(build_rep(K, D))
        X, P, HH = quads.mat_x, quads.mat_p, quads.mat_H
        x, p, H = dense(X), dense(P), dense(HH)
        h = np.real(np.diag(H))
        root = np.diag(np.sqrt((q - 1 / q) ** 2 * h**2 + (q + 1) ** 2 / q)).astype(complex)
        cx = (q - 1) * (q - 1 / q) / (2 * (1 + q))
        hdiag = np.diag(h).astype(complex)
        check(K, "motion_x_closed", commutator(X, HH), cx * hdiag @ x + 0.5j * root @ p)
        check(K, "motion_p_closed", commutator(P, HH), cx * hdiag @ p - 0.5j * root @ x)
        check(K, "xp_sqrt_form", commutator(X, P), (1j * q / (1 + q) ** 2) * root)

    for a in NL_ALPHA:
        for b in NL_BETA:
            K = make_case(CaseId.NONLINEAR, alpha=a, beta=b)
            quads = quadratures(build_rep(K, D))
            X, P, HH = quads.mat_x, quads.mat_p, quads.mat_H
            x, p, H = dense(X), dense(P), dense(HH)
            h = np.real(np.diag(H))
            root = np.diag(np.sqrt(b * b - a * a + 4 * a * h)).astype(complex)
            check(K, "motion_x_closed", commutator(X, HH), a * x + 1j * root @ p)
            check(K, "motion_p_closed", commutator(P, HH), a * p - 1j * root @ x)
            check(K, "xp_sqrt_form", commutator(X, P), 0.5j * root)

    finish(3, "case closed forms", failures)


def test_criterion_04_inversion_round_trips():
    failures = []
    roundtrip_tol = 1e-9

    def sweep(K, label):
        worst = 0.0
        worst_n = 0
        for n in range(29):
            h = hamiltonian_eigenvalue(K, n)
            err = abs(invert_number(K, h) - n)
            if err > worst:
                worst, worst_n = err, n
        if worst > roundtrip_tol:
            failures.append(f"{label}: worst |n_hat - n| = {worst:.2e} at n = {worst_n}")

    for q in Q_GRID:
        K = make_case(CaseId.ARIK_COON, q=q)
        sweep(K, f"geometric q={q}")
    for q in Q_GRID:
        K = make_case(CaseId.MACFARLANE_BIEDENHARN, q=q)
        sweep(K, f"symmetric q={q}")
    for a in NL_ALPHA:
        for b in NL_BETA:
            K = make_case(CaseId.NONLINEAR, alpha=a, beta=b)
            sweep(K, f"quadratic alpha={a} beta={b}")

    # exact rational spot checks
    h = hamiltonian_eigenvalue(make_case(CaseId.ARIK_COON, q=0.5), 2)
    t = (2.0 / 1.5) * (1.0 - 0.5 * h)
    if abs(t - 0.25) > 1e-12:
        failures.append(f"geometric spot check: q^n = {t!r}, expected 0.25")
    K = make_case(CaseId.MACFARLANE_BIEDENHARN, q=2.0)
    t = 2.0 ** invert_number(K, hamiltonian_eigenvalue(K, 1))
    if abs(t - 2.0) > 1e-11:
        failures.append(f"symmetric spot check: q^n = {t!r}, expected 2")
    n = invert_number(make_case(CaseId.NONLINEAR, alpha=1.0, beta=2.0), 19.5)
    if abs(n - 3.0) > 1e-12:
        failures.append(f"quadratic spot check: n = {n!r}, expected 3")

    finish(4, "inversion round trips", failures)


def test_criterion_05_robertson_inequality():
    failures = []
    for K in representative_cases():
        rep = build_rep(K, D)
        quads = quadratures(rep)
        x, p = dense(quads.mat_x), dense(quads.mat_p)
        mats = {"x": x, "p": p, "xx": x @ x, "pp": p @ p, "c": x @ p - p @ x}
        V = np.column_stack(
            [
                truncation_safe(random_state(D, 5000 + k), MARGIN).amplitudes
                for k in range(1000)
            ]
        )
        means = {
            name: np.einsum("ji,jk,ki->i", V.conj(), M, V) for name, M in mats.items()
        }
        var_x = np.maximum(means["xx"].real - means["x"].real ** 2, 0.0)
        var_p = np.maximum(means["pp"].real - means["p"].real ** 2, 0.0)
        product = np.sqrt(var_x) * np.sqrt(var_p)
        bound = 0.5 * np.abs(means["c"])
        worst = float((product - bound).min())
        if worst < -1e-12:
            failures.append(f"{case_label(K)}: product - bound = {worst:.2e}")
    finish(5, "Robertson inequality on 1000 random states per case", failures)


def test_criterion_06_square_sum_misprint_diagnostic():
    failures = []
    K = make_case(CaseId.CLASSICAL)
    quads = quadratures(build_rep(K, 8))
    state = number_state(8, 1)
    diagnostic = square_sum_bound(state, quads)
    product = uncertainty_product(state, quads).product
    report = uncertainty_report(state, quads)
    if abs(diagnostic - 1.25) > 1e-12:
        failures.append(f"diagnostic value {diagnostic!r}, expected 1.25")
    if abs(product - 0.75) > 1e-12:
        failures.append(f"product {product!r}, expected 0.75")
    if not report.square_sum_violated:
        failures.append("violation not reported for the classical n=1 state")
    finish(6, "quadratic diagnostic violation is reported", failures)


def test_criterion_07_case_bounds():
    failures = []

    for q in (0.3, 0.5, 0.7, 0.9, 0.99):
        K = make_case(CaseId.ARIK_COON, q=q)
        rep = build_rep(K, 16)
        quads = quadratures(rep)
        for n in range(6):
            report = uncertainty_report(number_state(16, n), quads)
            if report.margin_case < 0.0:
                failures.append(f"geometric q={q} n={n}: margin {report.margin_case:.2e}")

    for a, b in ((0.1, 1.0), (0.2, 2.0), (0.05, 1.0)):
        K = make_case(CaseId.NONLINEAR, alpha=a, beta=b)
        rep = build_rep(K, 16)
        quads = quadratures(rep)
        for n in range(6):
            report = uncertainty_report(number_state(16, n), quads)
            if not report.margin_case > 0.0:
                failures.append(f"quadratic a={a} b={b} n={n}: margin {report.margin_case:.2e}")

    for (q, n), frozen in SYMMETRIC_BOUND_MARGINS.items():
        K = make_case(CaseId.MACFARLANE_BIEDENHARN, q=q)
        rep = build_rep(K, 24)
        quads = quadratures(rep)
        state = number_state(24, n)
        margin = uncertainty_product(state, quads).product - case_bound(state, quads)
        if abs(margin - frozen) > 1e-10:
            failures.append(f"symmetric q={q} n={n}: margin {margin!r} vs frozen {frozen!r}")
    K = make_case(CaseId.MACFARLANE_BIEDENHARN, q=1.0)
    rep = build_rep(K, 16)
    quads = quadratures(rep)
    vacuum = number_state(16, 0)
    lhs = uncertainty_product(vacuum, quads).product
    rhs = case_bound(vacuum, quads)
    if abs(lhs - rhs) > 1e-12 or abs(lhs - 0.25) > 1e-12:
        failures.append(f"symmetric equality at q=1 vacuum: lhs {lhs!r} rhs {rhs!r}")

    finish(7, "case-specific bounds", failures)


def test_criterion_08_symbolic_numeric_oracle():
    failures = []
    D_words = 12
    for K in representative_cases():
        for word in random_words(seed=99, count=200, max_len=6):
            margin = len(word.factors)
            realized = nf_to_matrix(normal_order(word, K), D_words)
            direct = expr_to_matrix(word, K, D_words)
            worst = residual(realized, direct, margin=margin)
            if not (worst <= 1e-9):  # negated so that a NaN residual fails
                failures.append(f"{case_label(K)} word {word}: {worst:.2e}")
        for name, identity in BUILTIN_IDENTITIES.items():
            lhs, rhs = parse_identity(identity)
            nf_report = nf_equal(normal_order(lhs, K), normal_order(rhs, K), tol=1e-10)
            mat = residual(expr_to_matrix(lhs, K, D), expr_to_matrix(rhs, K, D), MARGIN)
            if not nf_report.passed or not (mat <= WINDOW_TOL):
                failures.append(f"{case_label(K)} builtin {name}")
    finish(8, "symbolic-numeric oracle (200 words + builtins per case)", failures)


def test_criterion_08_records_a_nan_residual_as_a_failure(monkeypatch):
    module = sys.modules[__name__]
    words = list(random_words(seed=99, count=2, max_len=6))
    recorded = {}
    monkeypatch.setattr(module, "representative_cases", lambda: [make_case(CaseId.CLASSICAL)])
    monkeypatch.setattr(module, "random_words", lambda seed, count, max_len: words)
    monkeypatch.setattr(module, "residual", lambda A, B, margin=0: math.nan)
    monkeypatch.setattr(module, "finish", lambda number, label, failures: recorded.setdefault(number, failures))
    test_criterion_08_symbolic_numeric_oracle()
    assert [f.split(" ")[1] for f in recorded[8]] == ["word"] * 2 + ["builtin"] * len(BUILTIN_IDENTITIES)


def test_criterion_09_limits_and_reductions():
    failures = []
    abg = (-1.0, 0.5, 1.0, 2.0)
    for q in (1.0 - 1e-8, 1.0 + 1e-8):
        cases = [
            make_case(CaseId.ARIK_COON, q=q),
            make_case(CaseId.MACFARLANE_BIEDENHARN, q=q),
        ]
        for a in abg:
            for b in abg:
                cases.append(make_case(CaseId.CHUNG, q=q, alpha=a, beta=b))
                for g in abg:
                    cases.append(make_case(CaseId.BORZOV, q=q, alpha=a, beta=b, gamma=g))
        for K in cases:
            for n in range(33):
                if abs(eval_K(K, n) - n) > 1e-6 * max(1.0, n):
                    failures.append(f"{case_label(K)} n={n}: K = {eval_K(K, n)!r}")

    for q in Q_GRID:
        geometric_like = make_case(CaseId.BORZOV, q=q, alpha=0.0, beta=0.0, gamma=1.0)
        rel = DefiningRelation(q, lambda n: 1.0)
        residual = relation_residual(geometric_like, rel, 20)
        if residual > 1e-12:
            failures.append(f"borzov->geometric q={q}: residual {residual:.2e}")
        symmetric_like = make_case(CaseId.BORZOV, q=q, alpha=-1.0, beta=0.0, gamma=1.0)
        rel = DefiningRelation(q, lambda n, q=q: q**-n)
        residual = relation_residual(symmetric_like, rel, 20)
        if residual > 1e-12:
            failures.append(f"borzov->symmetric q={q}: residual {residual:.2e}")

    finish(9, "q->1 limits and family reductions", failures)


def test_criterion_10_cli_determinism(tmp_path):
    import pathlib

    failures = []
    golden = pathlib.Path(__file__).parent / "golden"
    commands = {
        "verify_classical.json": ["verify", "--case", "classical"],
        "table_nonlinear.csv": [
            "table", "--case", "nonlinear", "--alpha", "1", "--beta", "2", "--levels", "5",
        ],
        "gup_scan_arik_coon.csv": [
            "gup-scan", "--case", "arik-coon", "--q", "0.5", "--n-from", "0", "--n-to", "4",
        ],
        "symbolic_lh_x.json": [
            "symbolic", "--case", "nonlinear", "--alpha", "1", "--beta", "2", "--check", "lh_x",
        ],
    }
    for name, args in commands.items():
        out = tmp_path / name
        cp = subprocess.run(
            [sys.executable, "-m", "deformalg", *args, "--out", str(out)],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        if cp.returncode != 0:
            failures.append(f"{name}: exit {cp.returncode}: {cp.stderr.strip()}")
            continue
        if out.read_bytes() != (golden / name).read_bytes():
            failures.append(f"{name}: bytes differ from golden file")

    exit_checks = [
        (["verify", "--case", "classical"], 0),
        (["symbolic", "--case", "classical", "--check", "a*ad == ad*a"], 1),
        (["verify", "--case", "arik-coon", "--q", "-1"], 2),
    ]
    for args, expected in exit_checks:
        cp = subprocess.run(
            [sys.executable, "-m", "deformalg", *args], capture_output=True, text=True, env=child_env()
        )
        if cp.returncode != expected:
            failures.append(f"{args}: exit {cp.returncode}, expected {expected}")

    finish(10, "CLI golden files and exit codes", failures)
