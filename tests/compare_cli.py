"""Byte comparison of the command line and the demos between a git ref and the working tree.

Usage:  python tests/compare_cli.py <git-ref>

The ref is exported with `git archive` into a temporary directory.  Each tree
then runs one fixed call list through deformalg.cli.main, in-process in one
subprocess per tree, followed by its four demos.  A call that raises is
recorded as exit code 1 with the exception's last traceback line on stderr,
as `python -m deformalg` would end.  Every call whose exit code,
stdout or stderr differs is printed with a unified diff.  Exits 1 on any
difference and 0 when every call and demo is byte-identical.

tests/golden/compare_cli.digest holds one line per call and demo of the
working tree (see digest), which tests/regen_goldens.py writes and
tests/test_tooling.py checks: a Tier-1 failure names the calls whose output
moved, and this script shows how.

The call list is read from this tree: the golden commands of
tests/regen_goldens.py, the three perfbench workloads at seeds 1 and 2,
20-level tables and CSV verify runs at D = 8 and 32 on the six cases, verify
runs on the six cases at D = 512 with --seed 0 and with
--seed 18446744073709551516 (the sweep's seeds then wrap past 2^64), verify
runs at dimensions that place the Robertson sweep's chunk boundaries
differently, full-range gup-scans on the six cases at D = 8, 65, 129 and
300, q-scans on the four cases with a q at D = 32 and, over 61 steps, at
D = 300, a one-step q-scan,
macfarlane-biedenharn scans at q = 3.5 whose fourth moments overflow, calls
in every command whose level tables overflow float64, by an OverflowError or
by rounding to inf, each a parameter error (exit 2), chung and borzov tables
whose q^beta or q^alpha - q^gamma overflows at q = 1e300, 1e-300 and 1e-5, nonlinear gup-scans
at beta = 1e200 and 1e-200, where beta^2 overflows and underflows, verify runs in JSON
and CSV whose finite level tables overflow in the band products (NaN
residual rows, exit 1), a symbolic call whose matrix oracle overflows
the same way and one whose normal-form coefficients overflow, calls in
every command at q below 2^-54, chung and borzov
tables and a borzov gup-scan at q = 1e-300 whose factors underflow, among
them a borzov table whose q^alpha - q^gamma underflows to 0, tables whose
arik-coon or macfarlane-biedenharn power overflows below the level that
overflows, chung and borzov tables with a subnormal factor or 600 levels, gup-scan and symbolic
calls whose representation tables reach such a power below their top level, q-scans with and
without --q, with an --n-to and with an infinite --q-to, a set of usage errors (among them q-scans given only one
of --q-from and --q-to, a q-scan through a non-positive q and each command given
a --format it does not write), and symbolic
calls through every node kind and error path of the expression evaluator,
negative powers of real and complex scalars whose powers overflow, identities that
reuse a subterm, powers of N shifted past a ladder on classical, arik-coon
q=0.7 and nonlinear alpha=1 beta=2 (comm(N^2,ad) == ad*(2*N+1),
N^3*a^2 == a^2*(N-2)^3 and the failing N^3*ad^2 == ad^2*N^3), on classical,
arik-coon q=0.7 and borzov numeral quotients that are not powers of two and
a negative numeral power ((1/3)*x == x/3, (5/3)*ad*a == (5/3)*K(N) and
3^-2*x == x/9), a complex factor on either side ((1+2i)*x == x*(1+2i)) and
K(N+k) leaves below, across and above the representation's table
(K(N-4)*x, K(N+3)*ad and K(N+40)*a, each against the ladders moved to its
left), signed sums on the same three cases (x - x + p - p + a == a,
a*ad - ad*a - K(N+1) + K(N) + ad == ad, a - -ad == a + ad and
-x + x - p*x + p*x + H == x*x + p*p), leaves that grow a check's level store (K(N+60)*a on classical at
D = 8, far above the representation's table; K(N+30)*a on arik-coon q=10 at
D = 290, which overflows at K(310) past the levels the grid and the
representation hold; and K(N+60)*a^30 == 0 on arik-coon q=1e10 at D = 8,
which names the first level of the store's growth that overflows), sign runs
and product and quotient chains 500 to 3,000 links long, divisor-order
errors, K shifts just above the cap and far above it, together with
negative parameter values written as '-1.' and '-1.e0'.  Command lines
that test where the parse goes: leftover words after a command, -h and
--help before and after one, a command name given twice or after an
option, an abbreviated option, '--' after --check and a negative --seed.
Standard library only.
"""

from __future__ import annotations

import difflib
import hashlib
import io
import json
import os
import pathlib
import shlex
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
DIGEST = ROOT / "tests" / "golden" / "compare_cli.digest"

USAGE_ERRORS = [
    [],
    ["verify", "--case", "no-such-case"],
    ["verify", "--case", "arik-coon", "--q", "-1"],
    ["verify", "--case", "arik-coon", "--q", "inf", "--dim", "8"],
    ["verify", "--case", "nonlinear", "--alpha", "nan", "--beta", "2", "--dim", "8"],
    ["verify", "--case", "chung", "--q", "0.7"],
    ["verify", "--case", "classical", "--dim", "3"],
    ["verify", "--case", "classical", "--margin", "0"],
    ["gup-scan", "--case", "chung", "--q", "0.7", "--alpha=-inf", "--beta", "0.5", "--dim", "8"],
    ["gup-scan", "--case", "classical", "--n-from", "0", "--n-to", "29"],
    ["gup-scan", "--case", "classical", "--q-from", "0.25", "--q-to", "0.75"],
    ["gup-scan", "--case", "arik-coon", "--q", "0.5", "--q-from", "0.25"],
    ["gup-scan", "--case", "arik-coon", "--q-from", "0.25"],
    ["gup-scan", "--case", "arik-coon", "--q-to", "1.75"],
    ["gup-scan", "--case", "arik-coon", "--q", "0.5", "--q-from", "0.5", "--q-to", "inf", "--q-steps", "2",
     "--dim", "8"],
    ["gup-scan", "--case", "classical", "--format", "json"],
    ["gup-scan", "--case", "arik-coon", "--q-from", "0.5", "--q-to", "-0.5", "--q-steps", "3"],
    ["table", "--case", "classical", "--levels", "30", "--dim", "32"],
    ["table", "--case", "classical", "--levels", "0"],
    ["table", "--case", "classical", "--format", "json"],
    ["symbolic", "--case", "classical"],
    ["symbolic", "--case", "classical", "--check", "comm_xp", "--format", "csv"],
    ["symbolic", "--case", "classical", "--check", "no_such_builtin"],
    ["symbolic", "--case", "classical", "--check", "a*ad == ad*"],
    ["symbolic", "--case", "classical", "--check", "x^1e400 == x"],
    ["symbolic", "--case", "classical", "--check", "x/a == x"],
    ["symbolic", "--case", "classical", "--check", "x/0 == x"],
    ["symbolic", "--case", "arik-coon", "--q", "0.7", "--check", "alpha == 1"],
    ["symbolic", "--case", "classical", "--check", "a*ad == ad*a"],
]

# a command line that starts with a command name goes to that command's parser alone; these
# check that leftover words, help, a repeated or late command name, an abbreviated option and
# '--' read as they do through the top-level parser
PARSE_PATH_CALLS = [
    ["verify", "--case", "classical", "extra"],
    ["gup-scan", "--case", "classical", "--dim", "8", "one", "two"],
    ["-h"],
    ["--help"],
    ["-h", "verify"],
    ["verify", "-h"],
    ["gup-scan", "--case", "classical", "--help"],
    ["verify", "verify"],
    ["--case", "classical", "verify"],
    ["verify", "--ca", "classical", "--dim", "8"],
    ["symbolic", "--case", "classical", "--check", "--", "comm_xp"],
    ["symbolic", "--case", "classical", "--dim", "8", "--check", "comm_xp", "--"],
    ["verify", "--case", "classical", "--dim", "8", "--", "extra"],
    ["verify", "--case", "classical", "--dim", "8", "--seed", "-3"],
]

SYMBOLIC = ["symbolic", "--case", "classical", "--check"]
EDGE_CALLS = [
    ["symbolic", "--case", "arik-coon", "--q", "0.7", "--check", "(1+q)^-1*a/2 == a/(2+2*q)"],
    # negative powers of a real scalar whose square overflows, of one whose power overflows, and of
    # zero, and of a complex scalar whose power overflows
    ["symbolic", "--case", "arik-coon", "--q", "0.7", "--check", "(1e160)^-2*x == 1e-320*x"],
    SYMBOLIC + ["(1e-300)^-64*x == x"],
    SYMBOLIC + ["(0)^-1*x == x"],
    SYMBOLIC + ["(1e-300+1e-300i)^-64*x == x"],
    SYMBOLIC + ["x^0 == 1"],
    SYMBOLIC + ["-comm(a,ad) == K(N)-K(N+1)"],
    SYMBOLIC + ["-comm(a,ad)==K(N)-K(N+1)"],
    ["symbolic", "--case", "nonlinear", "--alpha", "1", "--beta", "2", "--check", "alpha*x == x*alpha"],
    SYMBOLIC + ["a^-1 == a"],
    SYMBOLIC + ["x^16 == x"],
    SYMBOLIC + ["(N^64)^64*ad == ad"],
    # identities that reuse a subterm; the first fails inside the reused one
    SYMBOLIC + ["x^16 == x^16"],
    SYMBOLIC + ["comm(a,ad) == a*ad - ad*a"],
    SYMBOLIC + ["comm(H,x^2) + comm(H,x^2) == 2*comm(H,x^2)"],
    # sign runs and product and quotient chains, each parsed to one node
    SYMBOLIC + ["-" * 500 + "x == x"],
    SYMBOLIC + ["-" * 1000 + "x == x"],
    SYMBOLIC + ["1*" * 600 + "x == x"],
    SYMBOLIC + ["x" + "/1" * 600 + " == x"],
    SYMBOLIC + ["x" + "/1*1" * 1500 + " == x"],
    # every divisor of a chain is checked, the last one first, before any factor
    SYMBOLIC + ["x/0/a == x"],
    SYMBOLIC + ["x/a/0 == x"],
    ["symbolic", "--case", "arik-coon", "--q", "0.7", "--check", "alpha*x/0 == x"],
    # K shifts share the exponent cap
    SYMBOLIC + ["K(N+65) == K(N+65)"],
    SYMBOLIC + ["K(N+100000) - K(N-100000) == 200000"],
    ["table", "--case", "chung", "--q", "0.7", "--alpha", "-1.", "--beta", "0.5", "--levels", "1"],
    ["table", "--case", "chung", "--q", "0.7", "--alpha", "-1.e0", "--beta", "0.5", "--levels", "1"],
]
# coefficients holding a power of N shifted past a ladder, N^j -> (N+s)^j expanded; the last fails
EDGE_CALLS += [
    ["symbolic", "--case", *case, "--check", identity]
    for case in (["classical"], ["arik-coon", "--q", "0.7"], ["nonlinear", "--alpha", "1", "--beta", "2"])
    for identity in ("comm(N^2,ad) == ad*(2*N+1)", "N^3*a^2 == a^2*(N-2)^3", "N^3*ad^2 == ad^2*N^3")
]

# numeral quotients that are not powers of two, a negative numeral power, a complex factor on
# either side, and K(N+k) leaves below, across and above the representation table K(0..D+1)
EDGE_CALLS += [
    ["symbolic", "--case", *case, "--check", identity]
    for case in (["classical"], ["arik-coon", "--q", "0.7"], ["borzov", "--q", "1.5", "--alpha", "0.5", "--beta", "1",
                                                                "--gamma", "2"])
    for identity in (
        "(1/3)*x == x/3",
        "(5/3)*ad*a == (5/3)*K(N)",
        "3^-2*x == x/9",
        "(1+2i)*x == x*(1+2i)",
        "K(N-4)*x == (ad*K(N-3) + a*K(N-5))/2",
        "K(N+3)*ad == ad*K(N+4)",
        "K(N+40)*a == a*K(N+39)",
    )
]
# signed sums that cancel whole offsets and add them again, a sum whose first term cancels against
# K(N+1) - K(N), a Neg of a Neg, and a sum whose negated first term cancels
EDGE_CALLS += [
    ["symbolic", "--case", *case, "--check", identity]
    for case in (["classical"], ["arik-coon", "--q", "0.7"], ["borzov", "--q", "1.5", "--alpha", "0.5", "--beta", "1",
                                                                "--gamma", "2"])
    for identity in (
        "x - x + p - p + a == a",
        "a*ad - ad*a - K(N+1) + K(N) + ad == ad",
        "a - -ad == a + ad",
        "-x + x - p*x + p*x + H == x*x + p*p",
    )
]
# K(N+k) leaves that grow the check's one level store: far above the representation's table, past
# an overflowing level once the grid and the representation have filled it, and a leaf that
# overflows where no reader has evaluated its level, so the error names the store's first bad level
EDGE_CALLS += [
    ["symbolic", "--case", "classical", "--dim", "8", "--check", "K(N+60)*a == a*K(N+59)"],
    ["symbolic", "--case", "arik-coon", "--q", "10", "--dim", "290", "--check", "K(N+30)*a == a*K(N+29)"],
    ["symbolic", "--case", "arik-coon", "--q", "1e10", "--dim", "8", "--check", "K(N+60)*a^30 == 0"],
]

# q-scans without --q, with an invalid --q, and with an --n-to the q-scan cannot use
Q_SCAN = ["gup-scan", "--case", "arik-coon", "--q-from", "0.25", "--q-to", "0.75", "--q-steps", "2"]
Q_SCAN_CALLS = [
    Q_SCAN,
    Q_SCAN + ["--q", "0.25"],
    Q_SCAN + ["--q", "-1"],
    Q_SCAN + ["--q", "0.5", "--n-from", "3", "--n-to", "10"],
]

# K(n) overflows float64 below the top of these level tables: 3.5^n does at n = 567
MB_OVERFLOW = ["--case", "macfarlane-biedenharn", "--q", "3.5", "--dim", "600"]
CHUNG_INF = ["--case", "chung", "--q", "10", "--alpha", "2", "--beta", "300", "--dim", "8"]
NONLINEAR_INF = ["--case", "nonlinear", "--alpha", "1e308", "--beta", "1", "--dim", "8"]
OVERFLOW_CALLS = [
    ["gup-scan", *MB_OVERFLOW, "--n-to", "5"],
    ["verify", *MB_OVERFLOW],
    ["table", *MB_OVERFLOW, "--levels", "590"],
    ["symbolic", *MB_OVERFLOW, "--check", "comm_xp"],
    ["gup-scan", "--case", "macfarlane-biedenharn", "--q", "1", "--dim", "600",
     "--q-from", "1", "--q-to", "3.5", "--q-steps", "61", "--n-from", "3"],
    # K(6) = 10^300 (10^12 - 10^6)/90 overflows; K(5) = 1.1111e308 is read, though 10^300 * 10^10 overflows
    ["gup-scan", *CHUNG_INF, "--n-from", "0", "--n-to", "2"],
    ["gup-scan", *CHUNG_INF, "--q-from", "1", "--q-to", "10", "--q-steps", "3", "--n-from", "1"],
    ["verify", *CHUNG_INF],
    ["symbolic", *CHUNG_INF, "--check", "comm_xp"],
    ["table", *CHUNG_INF, "--levels", "5"],
    # K(2) = 1e308 * 2 * 2 + 2 rounds to inf by multiplication too
    ["gup-scan", *NONLINEAR_INF, "--n-from", "0", "--n-to", "4"],
    ["table", *NONLINEAR_INF, "--levels", "4"],
    ["verify", *NONLINEAR_INF],
    ["symbolic", *NONLINEAR_INF, "--check", "comm_xp"],
    # alpha / beta^2 of the nonlinear case bound: beta^2 overflows, and underflows to 0
    ["gup-scan", "--case", "nonlinear", "--alpha", "1", "--beta", "1e200", "--dim", "8"],
    ["gup-scan", "--case", "nonlinear", "--alpha", "1", "--beta", "1e-200", "--dim", "8"],
    # q^beta or q^alpha - q^gamma overflows before any level: K(1), K(2), K(2) and K(1) overflow
    ["table", "--case", "chung", "--q", "1e300", "--alpha", "0.5", "--beta", "2", "--levels", "3"],
    ["table", "--case", "borzov", "--q", "1e300", "--alpha", "0.5", "--beta", "0", "--gamma", "2", "--levels", "3"],
    ["table", "--case", "chung", "--q", "1e-300", "--alpha", "-2", "--beta", "0", "--levels", "3"],
    ["table", "--case", "borzov", "--q", "1e-5", "--alpha", "80", "--beta", "-70", "--gamma", "1", "--levels", "3"],
]

# finite level tables whose band products overflow: NaN residual rows, exit 1
NAN_RESIDUAL_CALLS = [
    ["verify", *case, *fmt]
    for case in (
        ["--case", "chung", "--q", "10", "--alpha", "2", "--beta", "280", "--dim", "8"],
        ["--case", "macfarlane-biedenharn", "--q", "3", "--dim", "600"],
    )
    for fmt in (["--format", "csv"], [])
] + [
    # the symbolic matrix oracle's band products overflow too, and so do the normal form's coefficients
    ["symbolic", "--case", "macfarlane-biedenharn", "--q", "3", "--dim", "600", "--check", "lh_x"],
    ["symbolic", "--case", "classical", "--check", "(1e200)^2 == 0"],
]

# q below 2^-54, where q - 1.0 rounds to -1.0
TINY_Q_CALLS = [
    ["table", "--case", "arik-coon", "--q", "1e-300", "--levels", "3"],
    ["verify", "--case", "arik-coon", "--q", "1e-300", "--dim", "8"],
    ["symbolic", "--case", "arik-coon", "--q", "1e-300", "--check", "comm_xp"],
    ["gup-scan", "--case", "arik-coon", "--q-from", "1e-320", "--q-to", "0.5", "--q-steps", "3", "--dim", "8"],
    # K(2) = (q^2 - q^-2)/(q - 1/q): q^-2 overflows float64
    ["table", "--case", "macfarlane-biedenharn", "--q", "1e-200", "--levels", "3"],
    # levels that underflow to 0 in the direct quotient, though their values (1e-300, 5e-151) are representable
    ["table", "--case", "chung", "--q", "1e-300", "--alpha", "2", "--beta", "1", "--levels", "3"],
    ["table", "--case", "borzov", "--q", "1e-300", "--alpha", "2", "--beta", "0", "--gamma", "1", "--levels", "3"],
    ["table", "--case", "borzov", "--q", "1e-300", "--alpha", "0.5", "--beta", "0", "--gamma", "2", "--levels", "4"],
    ["gup-scan", "--case", "borzov", "--q", "1e-300", "--alpha", "2", "--beta", "0", "--gamma", "1", "--dim", "8",
     "--n-to", "4"],
    # q^alpha - q^gamma underflows to 0
    ["table", "--case", "borzov", "--q", "1e-300", "--alpha", "2", "--beta", "0", "--gamma", "3", "--levels", "3"],
]

# levels near the ends of the float range: a one-base bracket whose power overflows, though the
# level (1.11e308, 9.54e307, 1e200) does not, and two-base levels with a subnormal factor
# (q^beta = 1e-310 and q^62 = 1e-310) or with 600 levels of rounding
EXTREME_LEVEL_CALLS = [
    ["table", "--case", "arik-coon", "--q", "10", "--dim", "400", "--levels", "309"],
    ["table", "--case", "macfarlane-biedenharn", "--q", "3.5", "--dim", "600", "--levels", "567"],
    ["table", "--case", "arik-coon", "--q", "1e200", "--levels", "3"],
    ["table", "--case", "macfarlane-biedenharn", "--q", "1e200", "--levels", "3"],
    ["table", "--case", "borzov", "--q", "1e-5", "--alpha", "-1", "--beta", "62", "--gamma", "-2", "--levels", "3"],
    ["table", "--case", "chung", "--q", "1e-5", "--alpha", "2", "--beta", "-0.5", "--dim", "70", "--levels", "63"],
    ["table", "--case", "chung", "--q", "0.8", "--alpha", "2", "--beta", "1", "--dim", "603", "--levels", "600"],
]

# representation tables K(0..D+1) whose top level is finite though its one-base power overflows:
# 10^309 at D = 308 and 3.5^567 at D = 566
ONE_BASE_POWER_CALLS = [
    ["gup-scan", "--case", "macfarlane-biedenharn", "--q", "3.5", "--dim", "566", "--n-from", "0", "--n-to", "3"],
    ["gup-scan", "--case", "arik-coon", "--q", "10", "--dim", "308", "--n-from", "0", "--n-to", "3"],
    ["symbolic", "--case", "macfarlane-biedenharn", "--q", "3.5", "--dim", "566", "--check", "comm_xp"],
    ["symbolic", "--case", "arik-coon", "--q", "10", "--dim", "308", "--check", "comm_xp"],
]

# Runs inside the tree given as argv[1]: the labelled calls arrive on stdin as
# JSON, and {label: [exit code, stdout, stderr]} leaves on stdout.
CHILD = r"""
import contextlib, io, json, pathlib, runpy, sys, traceback
tree = pathlib.Path(sys.argv[1]).resolve()
sys.path.insert(0, str(tree / "src"))
from deformalg import cli
if not pathlib.Path(cli.__file__).resolve().is_relative_to(tree):
    sys.exit(f"deformalg imported from {cli.__file__}, not from {tree}")
calls = json.load(sys.stdin)
results = {}
for label, argv in calls:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception as exc:
            sys.stderr.write("".join(traceback.format_exception_only(exc)))
            rc = 1
    results[label] = [rc, out.getvalue(), err.getvalue()]
for demo in sorted((tree / "demos").glob("*.py")):
    out, err = io.StringIO(), io.StringIO()
    rc = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            runpy.run_path(str(demo), run_name="__main__")
        except Exception:
            traceback.print_exc()
            rc = 1
    results["demo " + demo.name] = [rc, out.getvalue(), err.getvalue()]
json.dump(results, sys.stdout)
"""


def call_list() -> dict:
    """label -> argv, in a fixed order, with repeated calls listed once."""
    sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "perfbench")]
    import regen_goldens
    import workloads

    argvs = list(regen_goldens.COMMANDS.values())
    for seed in (1, 2):
        for workload in workloads.WORKLOADS:
            argvs += [op.argv for op in workloads.build(workload, seed)]
    for case, params in workloads.CASES.items():
        argvs.append(["table", "--case", case, *params, "--levels", "20"])
        for dim in ("8", "32"):
            argvs.append(
                ["verify", "--case", case, *params, "--format", "csv", "--margin", "5",
                 "--seed", "9", "--dim", dim]
            )
    # the sweep at D = 512, with seeds that wrap past 2^64 in the second run
    for case, params in workloads.CASES.items():
        for seed in ("0", "18446744073709551516"):
            argvs.append(["verify", "--case", case, *params, "--dim", "512", "--seed", seed])
    # full-range level scans
    for case, params in workloads.CASES.items():
        for dim in (8, 65, 129, 300):
            argvs.append(
                ["gup-scan", "--case", case, *params, "--dim", str(dim),
                 "--n-from", "0", "--n-to", str(dim - 4)]
            )
    # q-scans, one level per representation, on the cases that have a q
    for case, params in workloads.CASES.items():
        if "--q" in params:
            argvs.append(
                ["gup-scan", "--case", case, *params, "--q-from", "0.25", "--q-to", "1.75",
                 "--q-steps", "7", "--n-from", "3"]
            )
            argvs.append(
                ["gup-scan", "--case", case, *params, "--dim", "300", "--q-from", "0.25",
                 "--q-to", "1.75", "--q-steps", "61", "--n-from", "3"]
            )
    argvs.append(
        ["gup-scan", "--case", "arik-coon", "--q", "0.5", "--q-from", "0.6", "--q-to", "0.9",
         "--q-steps", "1", "--n-from", "2"]
    )
    # fourth moments up to 1e212, then overflowing to inf at the top of D = 300,
    # where the parent's np.vdot and Python float arithmetic print no warning
    for dim in (200, 300):
        argvs.append(
            ["gup-scan", "--case", "macfarlane-biedenharn", "--q", "3.5", "--dim", str(dim),
             "--n-from", "0", "--n-to", str(dim - 4)]
        )
    # the Robertson sweep's chunk boundaries: one chunk at D = 4, then 2, 7 and 100
    sweep = ["verify", "--case", "arik-coon", "--q", "0.7"]
    argvs += [sweep + ["--dim", "4", "--margin", margin] for margin in ("1", "3")]
    argvs += [sweep + ["--dim", dim] for dim in ("41", "257", "4096")]
    argvs += USAGE_ERRORS + EDGE_CALLS + Q_SCAN_CALLS + OVERFLOW_CALLS + NAN_RESIDUAL_CALLS + TINY_Q_CALLS
    argvs += EXTREME_LEVEL_CALLS + ONE_BASE_POWER_CALLS + PARSE_PATH_CALLS
    return {shlex.join(argv): argv for argv in argvs}


def run_tree(tree: pathlib.Path, calls: dict) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("DEFORMALG_SEED", "PYTHONPATH")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(tree)],
        input=json.dumps(list(calls.items())),
        capture_output=True,
        text=True,
        cwd=tree,
        env=env,
    )
    if done.returncode != 0:
        sys.exit(f"calls in {tree} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def digest(results: dict) -> str:
    """One line per call and demo, in run order: the first 16 hex digits of the
    SHA-256 of its [exit code, stdout, stderr] as JSON, then its label."""
    return "".join(
        f"{hashlib.sha256(json.dumps(result).encode()).hexdigest()[:16]} {label}\n" for label, result in results.items()
    )


def export(ref: str, target: pathlib.Path) -> None:
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", ref], capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target)


def diff_lines(old: str, new: str, what: str, label: str) -> list:
    return list(
        difflib.unified_diff(
            old.splitlines(keepends=True),
            new.splitlines(keepends=True),
            f"{label} {what} (ref)",
            f"{label} {what} (working tree)",
        )
    )


def main(argv: list) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    calls = call_list()
    with tempfile.TemporaryDirectory() as tmp:
        base = pathlib.Path(tmp)
        export(argv[0], base)
        before = run_tree(base, calls)
    after = run_tree(ROOT, calls)
    differing = 0
    for label in dict.fromkeys([*before, *after]):
        old, new = before.get(label), after.get(label)
        if old == new:
            continue
        differing += 1
        print(f"=== {label}")
        if old is None or new is None:
            print("    present in only one tree")
            continue
        if old[0] != new[0]:
            print(f"    exit code {old[0]} -> {new[0]}")
        for index, what in ((1, "stdout"), (2, "stderr")):
            sys.stdout.writelines(diff_lines(old[index], new[index], what, label))
    print(f"{len(after)} calls and demos compared with {argv[0]}: {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
