"""The three workloads: fixed lists of deformalg CLI calls and their output checks.

Every identity and scan below is a theorem of the algebra it runs on, so the
expected exit code of every call is 0 and every scanned row keeps the
Robertson bound.  Case parameters are fixed because they set the numerical
regime; the seed only feeds `verify --seed` and the call order.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Callable, NamedTuple

# The six CLI cases with the parameters of the paper's table.
CASES = {
    "classical": [],
    "arik-coon": ["--q", "0.7"],
    "macfarlane-biedenharn": ["--q", "1.5"],
    "chung": ["--q", "0.7", "--alpha", "2", "--beta", "0.5"],
    "borzov": ["--q", "1.5", "--alpha", "0.5", "--beta", "1", "--gamma", "2"],
    "nonlinear": ["--alpha", "1", "--beta", "2"],
}

BUILTINS = ("comm_xp", "lh_x", "lh_p")

COMPOSITES = (
    "comm(H^3,x^3) == H^3*x^3 - x^3*H^3",
    "comm(x,comm(p,H)) + comm(p,comm(H,x)) + comm(H,comm(x,p)) == 0",
    "comm(H^2,x^2) == H*comm(H,x^2) + comm(H,x^2)*H",
    "ad^3*a^3 == K(N)*K(N-1)*K(N-2)",
)
COMPOSITE_CASES = ("arik-coon", "nonlinear", "borzov")

SCAN_LEVEL_CASES = {
    "arik-coon": ["--q", "0.5"],
    "macfarlane-biedenharn": ["--q", "0.95"],
    "nonlinear": ["--alpha", "0.1", "--beta", "1"],
}
SCAN_LEVEL_DIM = 128
SCAN_LEVELS = 125
SCAN_Q_CASES = ("arik-coon", "macfarlane-biedenharn")
SCAN_Q_DIM = 32
SCAN_Q_STEPS = 61
SCAN_Q_LEVEL = 3

WORKLOADS = ("verify-scale", "symbolic-mix", "bound-scan")

# Call kind behind each gated latency, per workload.  verify-scale gates D=128
# rather than D=256: two D=256 calls a round leave six 3.5 s samples a run,
# whose relative spread between runs is about three times that of D=128.
TIERS = {
    "verify-scale": {"small_op_rel": "verify_D32", "large_op_rel": "verify_D128"},
    "symbolic-mix": {"small_op_rel": "symbolic_builtin", "large_op_rel": "symbolic_heavy"},
    "bound-scan": {"small_op_rel": "scan_q", "large_op_rel": "scan_levels"},
}


class Outcome(NamedTuple):
    """What one call's output says: its verdict, a defect in the output
    itself (None when well formed), and the failed checks with residuals."""

    passed: bool
    malformed: str | None
    failed_checks: dict


class Op(NamedTuple):
    kind: str
    label: str
    argv: list
    check: Callable[[str, int], Outcome]


def _verdict(payload: dict, rc: int) -> str | None:
    if payload.get("pass") is not (rc == 0):
        return f"exit code {rc} disagrees with pass={payload.get('pass')!r}"
    return None


def check_verify(text: str, rc: int) -> Outcome:
    payload = json.loads(text)
    checks = payload["checks"]
    failed = {c["name"]: c["max_abs_residual"] for c in checks if not c["pass"]}
    problem = _verdict(payload, rc)
    if problem is None and payload["pass"] is not (not failed):
        problem = "overall pass disagrees with the per-check verdicts"
    if problem is None and not all(math.isfinite(c["max_abs_residual"]) for c in checks):
        problem = "non-finite residual"
    return Outcome(rc == 0, problem, failed)


def check_symbolic(text: str, rc: int) -> Outcome:
    payload = json.loads(text)
    failed = {}
    for part in ("normal_form", "matrix_oracle"):
        if not payload[part]["pass"]:
            key = "max_deviation" if part == "normal_form" else "max_abs_residual"
            failed[part] = payload[part][key]
    return Outcome(rc == 0, _verdict(payload, rc), failed)


ROBERTSON_TOL = 1e-12  # margin_robertson >= -1e-12 is the Robertson theorem (gup.UncertaintyReport)


def _scan_checker(rows_expected: int) -> Callable[[str, int], Outcome]:
    """A scan passes when it exits 0 and every row keeps the Robertson bound;
    each row that breaks it is a failed check named by its q and n."""

    def check(text: str, rc: int) -> Outcome:
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0][:2] != ["case", "q"] or "margin_robertson" not in rows[0]:
            return Outcome(False, "missing CSV header", {})
        header, body = rows[0], rows[1:]
        if len(body) != rows_expected:
            return Outcome(False, f"{len(body)} rows, expected {rows_expected}", {})
        q, n, margin = (header.index(c) for c in ("q", "n", "margin_robertson"))
        failed = {} if rc == 0 else {"exit": rc}
        for row in body:
            for cell in row[1:]:
                if cell and not math.isfinite(float(cell)):
                    return Outcome(False, f"non-finite value in row {row}", {})
            if float(row[margin]) < -ROBERTSON_TOL:
                failed[f"margin_robertson q={row[q]} n={row[n]}"] = float(row[margin])
        return Outcome(not failed, None, failed)

    return check


def _case_args(case: str, params: list) -> list:
    return ["--case", case, *params]


def build(workload: str, seed: int) -> list:
    """The fixed call list of one round of `workload`."""
    ops = []
    if workload == "verify-scale":
        sizes = [(32, CASES), (128, CASES), (256, ("arik-coon", "nonlinear"))]
        for D, cases in sizes:
            for case in cases:
                argv = ["verify", *_case_args(case, CASES[case]), "--dim", str(D), "--seed", str(seed)]
                ops.append(Op(f"verify_D{D}", f"{case} D={D}", argv, check_verify))
    elif workload == "symbolic-mix":
        for case, params in CASES.items():
            for name in BUILTINS:
                argv = ["symbolic", *_case_args(case, params), "--check", name]
                ops.append(Op("symbolic_builtin", f"{case} {name}", argv, check_symbolic))
        for case in COMPOSITE_CASES:
            for identity in COMPOSITES:
                argv = ["symbolic", *_case_args(case, CASES[case]), "--check", identity]
                ops.append(Op("symbolic_heavy", f"{case} {identity}", argv, check_symbolic))
    elif workload == "bound-scan":
        for case, params in SCAN_LEVEL_CASES.items():
            argv = [
                "gup-scan", *_case_args(case, params), "--dim", str(SCAN_LEVEL_DIM),
                "--n-from", "0", "--n-to", str(SCAN_LEVELS - 1),
            ]
            ops.append(Op("scan_levels", f"{case} levels", argv, _scan_checker(SCAN_LEVELS)))
        for case in SCAN_Q_CASES:
            argv = [
                "gup-scan", *_case_args(case, ["--q", "0.25"]), "--dim", str(SCAN_Q_DIM),
                "--q-from", "0.25", "--q-to", "1.75", "--q-steps", str(SCAN_Q_STEPS),
                "--n-from", str(SCAN_Q_LEVEL),
            ]
            ops.append(Op("scan_q", f"{case} q-scan", argv, _scan_checker(SCAN_Q_STEPS)))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return ops
