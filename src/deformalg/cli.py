"""Command-line front end: identity suites, tables, bound scans, symbolic checks.

The commands parse and validate arguments, make one library call each and
format its results: the verify suite is fockrep.run_verify_checks and the
symbolic check symorder.check_identity.

A command line is parsed once.  One whose first word is a command name goes
straight to that command's own parser, any other (-h, no command, an
unknown word) to the top-level parser, which hands a command it finds to
the same command parser.  Words left over are one usage error of the
top-level parser, worded as argparse words them.  main then checks --tol,
DEFORMALG_SEED and --dim and --margin for every command, so each command
takes the parsed arguments alone.

Importing this module, parsing the arguments, table and gup-scan load no
numpy: they read K through spectral's level readers and the number-state
reports from gup in Python floats.  verify imports fockrep, and symbolic
symorder, when they run, so only these two commands load numpy.
Nor do they load dataclasses or json: spectral's and gup's records are
NamedTuples, and json is imported by render_json, which only verify and
symbolic call.

Output is deterministic byte-for-byte: finite floats are rendered in
scientific notation with 17 significant digits (JSON writes NaN and the
infinities as json.dumps does), JSON objects keep fixed key order, and
lines end with LF.  Exit codes: 0 all checks passed, 1 at least one
check failed, 2 usage or parameter error.

The random-state seed args.seed is --seed, overridden by the
DEFORMALG_SEED environment variable when set.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from gettext import gettext
from typing import Optional

from . import gup
from .spectral import DEFAULT_DIM, DEFAULT_MARGIN, DEFAULT_TOL, CaseId, SpectralFunction, make_case
from .spectral import _levels

__all__ = ["main"]

_CLI_CASES = tuple(case for case in CaseId if case is not CaseId.CUSTOM)


class UsageError(ValueError):
    """Parameter or range error reported with exit code 2."""


# ---------------------------------------------------------------------------
# deterministic formatting


def fmt_float(x: float) -> str:
    """Scientific notation with 17 significant digits; -0.0 normalized."""
    if x == 0.0:
        x = 0.0
    return f"{x:.16e}"


def render_json(payload: dict) -> str:
    """payload as json.dumps(payload, indent=2) writes it, plus LF, but with every finite float in fmt_float's form.

    A NaN or infinite float is written as json.dumps writes it: NaN, Infinity or -Infinity.
    """
    import json

    quote = json.encoder.encode_basestring_ascii  # what json.dumps runs on a str by default

    def text(value, newline: str) -> str:
        # newline is LF and the indent of value's own line
        if isinstance(value, dict):
            if not value:
                return "{}"
            inner = newline + "  "
            rows = [f"{quote(k)}: {text(v, inner)}" for k, v in value.items()]
            return "{" + inner + ("," + inner).join(rows) + newline + "}"
        if isinstance(value, (list, tuple)):
            if not value:
                return "[]"
            inner = newline + "  "
            return "[" + inner + ("," + inner).join([text(v, inner) for v in value]) + newline + "]"
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, int):
            return str(value)
        if isinstance(value, float) and math.isfinite(value):
            return fmt_float(value)
        if isinstance(value, str):
            return quote(value)
        return json.dumps(value)  # None, a non-finite float, or json's TypeError

    return text(payload, "\n") + "\n"


def render_csv(header: list, rows: list) -> str:
    return "".join(",".join(row) + "\n" for row in [header, *rows])


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "wb") as fh:
            fh.write(text.encode("utf-8"))


def _case_columns(K: SpectralFunction) -> list:
    """The columns case, q, alpha, beta and gamma of K's rows."""
    params = (K.q, K.alpha, K.beta, K.gamma)
    return [K.case_id.value] + ["" if value is None else fmt_float(value) for value in params]


# ---------------------------------------------------------------------------
# subcommands


def _case_from_args(args, q: Optional[float] = None) -> SpectralFunction:
    """The case of --case and its parameters, with q in place of --q when given."""
    try:
        return make_case(
            args.case, q=args.q if q is None else q, alpha=args.alpha, beta=args.beta, gamma=args.gamma
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _validate_geometry(args) -> None:
    if args.dim < 4:
        raise UsageError(f"--dim must be >= 4, got {args.dim}")
    if not 0 < args.margin < args.dim:
        raise UsageError(f"--margin must satisfy 0 < margin < dim, got {args.margin}")


def run_verify_checks(K: SpectralFunction, D: int, margin: int, tol: float, seed: int) -> list:
    """fockrep.run_verify_checks, under the name the benchmark's tracer wraps."""
    # ROADMAP item 1 deletes this forward together with the tracer
    from . import fockrep
    return fockrep.run_verify_checks(K, D, margin, tol, seed)


def cmd_verify(args) -> int:
    K = _case_from_args(args)
    checks = run_verify_checks(K, args.dim, args.margin, args.tol, args.seed)
    all_pass = all(c.passed for c in checks)
    if args.format == "json":
        payload = {
            "case": K.case_id.value,
            "params": K.params(),
            "D": args.dim,
            "margin": args.margin,
            "window": args.dim - args.margin,
            "tol": args.tol,
            "seed": args.seed,
            "checks": [
                {
                    "name": c.name,
                    "window": c.window,
                    "max_abs_residual": c.max_abs_residual,
                    "tol": c.tol,
                    "pass": c.passed,
                }
                for c in checks
            ],
            "pass": all_pass,
        }
        _emit(render_json(payload), args.out)
    else:
        header = ["case", "q", "alpha", "beta", "gamma", "name", "window", "max_abs_residual", "tol", "pass"]
        base = _case_columns(K)
        rows = [
            base
            + [c.name, str(c.window), fmt_float(c.max_abs_residual), fmt_float(c.tol), "true" if c.passed else "false"]
            for c in checks
        ]
        _emit(render_csv(header, rows), args.out)
    return 0 if all_pass else 1


def cmd_table(args) -> int:
    K = _case_from_args(args)
    if args.levels < 1:
        raise UsageError(f"--levels must be >= 1, got {args.levels}")
    if args.levels > args.dim - args.margin:
        raise UsageError(
            f"--levels {args.levels} exceeds dim - margin = {args.dim - args.margin}"
        )
    header = ["n", "K_n", "K_np1", "H_n", "delta_n"]
    levels = _levels(K, range(args.levels + 1))
    rows = [
        [str(n)] + [fmt_float(v) for v in (k, k1, 0.5 * (k + k1), k1 - k)]
        for n, (k, k1) in enumerate(zip(levels, levels[1:]))
    ]
    _emit(render_csv(header, rows), args.out)
    return 0


_SCAN_HEADER = [
    "case", "q", "alpha", "beta", "gamma", "n", "delta_x", "delta_p", "product",
    "robertson_bound", "case_bound", "square_sum_bound", "margin_robertson", "margin_case",
]


def _scan_rows(bases: list, levels, reports: list) -> list:
    """One row per report: the case columns of its representation, its level and its values."""
    rows = []
    for base, n, r in zip(bases, levels, reports):
        dx = fmt_float(r.delta_x)
        # a number state has dp == dx, and equal floats format alike (fmt_float normalizes -0.0)
        dp = dx if r.delta_p == r.delta_x else fmt_float(r.delta_p)
        rows.append(base + [
            str(n), dx, dp, fmt_float(r.product), fmt_float(r.robertson_bound),
            "" if r.case_bound is None else fmt_float(r.case_bound), fmt_float(r.square_sum_bound),
            fmt_float(r.margin_robertson), "" if r.margin_case is None else fmt_float(r.margin_case),
        ])
    return rows


def cmd_gup_scan(args) -> int:
    n_cap = args.dim - 1 - args.margin
    if args.q_from is not None or args.q_to is not None:
        if args.q_from is None or args.q_to is None:
            raise UsageError("--q-from and --q-to must be given together")
        # refused here, where the grid arithmetic would turn inf * 0 into a NaN point
        for flag, bound in (("--q-from", args.q_from), ("--q-to", args.q_to)):
            if not math.isfinite(bound):
                raise UsageError(f"{flag} must be finite, got {bound}")
        # the grid replaces q, so a q-scan needs no --q; one that is given is still checked
        K = _case_from_args(args, args.q_from if args.q is None else args.q)
        if K.q is None:
            raise UsageError(f"case {K.case_id.value!r} has no q parameter to scan")
        if args.q_steps < 1:
            raise UsageError(f"--q-steps must be >= 1, got {args.q_steps}")
        if args.n_to is not None:
            raise UsageError("--n-to applies to level scans; a q-scan takes its one level from --n-from")
        n_fixed = args.n_from if args.n_from is not None else 0
        if not 0 <= n_fixed <= n_cap:
            raise UsageError(f"scan level must lie in 0..{n_cap}, got {n_fixed}")
        grid = []
        for i in range(args.q_steps):
            if args.q_steps == 1:
                qi = args.q_from
            else:
                qi = args.q_from + (args.q_to - args.q_from) * i / (args.q_steps - 1)
            grid.append(make_case(K.case_id, q=qi, alpha=K.alpha, beta=K.beta, gamma=K.gamma))
        reports = [gup.number_state_reports(Ki, args.dim, [n_fixed])[0] for Ki in grid]
        rows = _scan_rows([_case_columns(Ki) for Ki in grid], [n_fixed] * len(grid), reports)
    else:
        K = _case_from_args(args)
        n_from = args.n_from if args.n_from is not None else 0
        n_to = args.n_to if args.n_to is not None else n_from
        if not 0 <= n_from <= n_to:
            raise UsageError(f"need 0 <= --n-from <= --n-to, got {n_from}..{n_to}")
        if n_to > n_cap:
            raise UsageError(f"--n-to {n_to} exceeds dim - 1 - margin = {n_cap}")
        levels = range(n_from, n_to + 1)
        reports = gup.number_state_reports(K, args.dim, levels)
        rows = _scan_rows([_case_columns(K)] * len(levels), levels, reports)
    _emit(render_csv(_SCAN_HEADER, rows), args.out)
    return 0


def cmd_symbolic(args) -> int:
    from . import symorder

    K = _case_from_args(args)
    if args.check is None:
        raise UsageError("--check is required (an identity 'LHS == RHS' or a builtin name)")
    source = args.check.strip()
    identity = symorder.BUILTIN_IDENTITIES.get(source, source)
    if "==" not in identity:
        raise UsageError(
            f"unknown builtin {source!r}; available: {', '.join(sorted(symorder.BUILTIN_IDENTITIES))}"
        )
    try:
        nf_report, matrix = symorder.check_identity(identity, K, args.dim, args.margin, args.tol)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:  # an ExprSyntaxError is a ValueError
        raise UsageError(str(exc)) from exc
    payload = {
        "case": K.case_id.value,
        "params": K.params(),
        "check": source,
        "identity": identity,
        "normal_form": {
            "pass": nf_report.passed,
            "max_deviation": nf_report.max_abs_residual,
            "grid_max": nf_report.window - 1,
        },
        "matrix_oracle": {
            "pass": matrix.passed,
            "max_abs_residual": matrix.max_abs_residual,
            "D": args.dim,
            "window": matrix.window,
        },
        "pass": nf_report.passed and matrix.passed,
    }
    _emit(render_json(payload), args.out)
    return 0 if payload["pass"] else 1


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--case", required=True, choices=[c.value for c in _CLI_CASES])
    sub.add_argument("--q", type=float, default=None)
    sub.add_argument("--alpha", type=float, default=None)
    sub.add_argument("--beta", type=float, default=None)
    sub.add_argument("--gamma", type=float, default=None)
    sub.add_argument("--dim", type=int, default=DEFAULT_DIM)
    sub.add_argument("--margin", type=int, default=DEFAULT_MARGIN)
    sub.add_argument("--tol", type=float, default=DEFAULT_TOL)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", default=None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="deformalg",
        description="Verification and analysis toolkit for deformed oscillator algebras.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_verify = subparsers.add_parser("verify", help="run the identity suite for one case")
    _add_common(p_verify)
    p_verify.add_argument("--format", choices=["json", "csv"], default="json")
    p_verify.set_defaults(func=cmd_verify)

    p_table = subparsers.add_parser("table", help="emit the spectrum table as CSV")
    _add_common(p_table)
    p_table.add_argument("--format", choices=["csv"], default="csv")
    p_table.add_argument("--levels", type=int, default=8)
    p_table.set_defaults(func=cmd_table)

    p_scan = subparsers.add_parser("gup-scan", help="scan uncertainty bounds over levels or q")
    _add_common(p_scan)
    p_scan.add_argument("--format", choices=["csv"], default="csv")
    p_scan.add_argument("--n-from", type=int, default=None)
    p_scan.add_argument("--n-to", type=int, default=None)
    p_scan.add_argument("--q-from", type=float, default=None)
    p_scan.add_argument("--q-to", type=float, default=None)
    p_scan.add_argument("--q-steps", type=int, default=5)
    p_scan.set_defaults(func=cmd_gup_scan)

    p_sym = subparsers.add_parser("symbolic", help="check an operator identity symbolically")
    _add_common(p_sym)
    p_sym.add_argument("--format", choices=["json"], default="json")
    p_sym.add_argument("--check", default=None)
    p_sym.set_defaults(func=cmd_symbolic)

    parser.commands = subparsers.choices  # command name -> its own parser, which main calls directly
    return parser


# argparse takes -1e-3, -1. or -inf after a flag for a flag, unless joined by '=';
# the same holds for an identity such as -comm(a,ad)==K(N)-K(N+1) after --check
_FLOAT_OPTIONS = ("--q", "--alpha", "--beta", "--gamma", "--tol", "--q-from", "--q-to")


def _is_value_of(flag: str, arg: str) -> bool:
    """Whether arg, which starts with '-', is the value of the flag before it."""
    if flag == "--check":
        return not arg.startswith("--")
    if flag not in _FLOAT_OPTIONS:
        return False
    try:
        float(arg)  # what type=float will parse
    except ValueError:
        return False
    return True


def main(argv: Optional[list] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(1, len(argv))):
        if argv[i].startswith("-") and _is_value_of(argv[i - 1], argv[i]):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    try:
        args, leftover = command.parse_known_args(argv[1:]) if command else parser.parse_known_args(argv)
        if leftover:
            parser.error(gettext("unrecognized arguments: %s") % " ".join(leftover))
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    # negated so that NaN is rejected too
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        print(f"error: tol must be finite and non-negative, got {args.tol}", file=sys.stderr)
        return 2
    env_seed = os.environ.get("DEFORMALG_SEED")
    if env_seed is not None:
        try:
            args.seed = int(env_seed)
        except ValueError:
            print(f"error: DEFORMALG_SEED must be an integer, got {env_seed!r}", file=sys.stderr)
            return 2
    try:
        _validate_geometry(args)
        return args.func(args)
    except ValueError as exc:  # UsageError and the library's parameter errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
