"""Command-line interface: exit codes, schemas, golden-file determinism.

Commands run in-process through cli.main; the tests marked as entry-point
smoke tests start `python -m deformalg` in a subprocess instead, and the
start-up tests run each command in a fresh interpreter.
"""

import contextlib
import importlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from regen_goldens import COMMANDS as GOLDEN_COMMANDS
from regen_goldens import child_env

import deformalg
from deformalg import cli, gup

GOLDEN = pathlib.Path(__file__).parent / "golden"


class Completed(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


@pytest.fixture(autouse=True)
def _no_env_seed(monkeypatch):
    monkeypatch.delenv("DEFORMALG_SEED", raising=False)


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(args))
    return Completed(rc, out.getvalue(), err.getvalue())


def run_module(*args, env_extra=None):
    cmd = [sys.executable, "-m", "deformalg", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=child_env(**(env_extra or {})))


MB_OVERFLOW = ["--case", "macfarlane-biedenharn", "--q", "3.5", "--dim", "600"]
CHUNG_INF = ["--case", "chung", "--q", "10", "--alpha", "2", "--beta", "300.25", "--dim", "8"]


class TestExitCodes:
    def test_help(self):
        # entry-point smoke test
        cp = run_module("--help")
        assert cp.returncode == 0
        assert "verify" in cp.stdout and "gup-scan" in cp.stdout

    def test_verify_all_pass(self):
        cp = run_cli("verify", "--case", "classical", "--dim", "32")
        assert cp.returncode == 0, cp.stderr
        payload = json.loads(cp.stdout)
        assert payload["pass"] is True
        assert all(c["pass"] for c in payload["checks"])

    def test_verify_includes_qpower_check(self):
        cp = run_cli("verify", "--case", "arik-coon", "--q", "0.7", "--dim", "32")
        assert cp.returncode == 0, cp.stderr
        payload = json.loads(cp.stdout)
        names = [c["name"] for c in payload["checks"]]
        assert "xp_commutator_qpower" in names
        check = payload["checks"][names.index("xp_commutator_qpower")]
        assert check["pass"] and check["max_abs_residual"] <= 1e-10

    def test_parameter_error_exits_two(self):
        cp = run_cli("verify", "--case", "arik-coon", "--q", "-1")
        assert cp.returncode == 2
        assert "error" in cp.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ("verify", "--case", "arik-coon", "--q", "inf"),
            ("verify", "--case", "nonlinear", "--alpha", "nan", "--beta", "2"),
            ("gup-scan", "--case", "chung", "--q", "0.7", "--alpha=-inf", "--beta", "0.5"),
            # named by its flag, before inf * 0 makes a NaN grid point
            ("gup-scan", "--case", "arik-coon", "--q", "0.5", "--q-from", "0.5", "--q-to", "inf", "--q-steps", "2"),
        ],
    )
    def test_non_finite_parameter_exits_two(self, args):
        cp = run_cli(*args, "--dim", "8")
        assert cp.returncode == 2
        assert "must be finite" in cp.stderr and cp.stdout == ""

    @pytest.mark.parametrize("bound", [("--q-from", "0.25"), ("--q-to", "1.75")], ids=["q-from", "q-to"])
    def test_a_q_scan_needs_both_bounds(self, bound):
        # with or without --q, before the case is built from a q the scan may lack
        for q in ([], ["--q", "0.5"]):
            cp = run_cli("gup-scan", "--case", "arik-coon", *q, *bound)
            assert cp.returncode == 2 and cp.stdout == ""
            assert "--q-from and --q-to must be given together" in cp.stderr

    def test_one_parser_serves_every_call(self):
        # a usage error inside a subcommand, then valid calls of other subcommands
        calls = [
            ("gup-scan", "--case", "classical", "--dim", "x"),
            ("table", "--case", "classical", "--levels", "3"),
            ("verify", "--case", "no-such-case"),
            ("symbolic", "--case", "classical", "--check", "comm_xp"),
        ]
        alone = []
        for args in calls:
            cli.build_parser.cache_clear()
            alone.append(run_cli(*args))
        cli.build_parser.cache_clear()
        together = [run_cli(*args) for args in calls]
        assert together == alone
        assert [cp.returncode for cp in together] == [2, 0, 2, 0]
        assert cli.build_parser() is cli.build_parser()

    def test_a_command_line_that_starts_with_a_command_is_parsed_by_that_command_alone(self, monkeypatch):
        parser = cli.build_parser()
        top_level = []
        parse_known_args = parser.parse_known_args

        def spy(*args, **kwargs):
            top_level.append(args)
            return parse_known_args(*args, **kwargs)

        monkeypatch.setattr(parser, "parse_known_args", spy)
        commands = [
            ("verify", "--case", "classical", "--dim", "8"),
            ("table", "--case", "classical", "--levels", "3"),
            ("gup-scan", "--case", "classical", "--dim", "8"),
            ("symbolic", "--case", "classical", "--check", "comm_xp"),
            ("verify", "--case", "no-such-case"),
            ("verify", "--case", "classical", "extra"),
            ("verify", "-h"),
        ]
        assert [run_cli(*args).returncode for args in commands] == [0, 0, 0, 0, 2, 2, 0]
        assert top_level == []
        # only a command line that does not start with a command name reads the top-level parser
        assert [run_cli(*args).returncode for args in [(), ("-h",), ("no-such-command",)]] == [2, 0, 2]
        assert len(top_level) == 3

    @pytest.mark.parametrize(
        "args,leftover",
        [
            (("verify", "--case", "classical", "extra"), "extra"),
            (("gup-scan", "--case", "classical", "--dim", "8", "one", "two"), "one two"),
            (("verify", "--case", "classical", "--dim", "8", "--", "extra"), "-- extra"),
        ],
        ids=["verify", "gup-scan", "double-dash"],
    )
    def test_leftover_words_are_a_top_level_usage_error(self, args, leftover):
        cp = run_cli(*args)
        assert (cp.returncode, cp.stdout) == (2, "")
        assert cp.stderr == (
            "usage: deformalg [-h] {verify,table,gup-scan,symbolic} ...\n"
            f"deformalg: error: unrecognized arguments: {leftover}\n"
        )

    @pytest.mark.parametrize(
        "command,written,other",
        [("table", "csv", "json"), ("gup-scan", "csv", "json"), ("symbolic", "json", "csv")],
        ids=["table", "gup-scan", "symbolic"],
    )
    def test_each_command_accepts_only_the_format_it_writes(self, command, written, other):
        args = (command, "--case", "classical") + (("--check", "comm_xp") if command == "symbolic" else ())
        assert run_cli(*args, "--format", written) == run_cli(*args)
        cp = run_cli(*args, "--format", other)
        assert (cp.returncode, cp.stdout) == (2, "")
        assert f"argument --format: invalid choice: '{other}'" in cp.stderr

    def test_zero_margin_rejected(self):
        cp = run_cli("verify", "--case", "classical", "--margin", "0")
        assert cp.returncode == 2
        assert "margin" in cp.stderr

    def test_missing_subcommand_exits_two(self):
        # entry-point smoke test
        cp = run_module()
        assert cp.returncode == 2

    def test_symbolic_failure_exits_one(self):
        cp = run_cli("symbolic", "--case", "classical", "--check", "a*ad == ad*a")
        assert cp.returncode == 1
        payload = json.loads(cp.stdout)
        assert payload["pass"] is False

    @pytest.mark.xfail(
        strict=True,
        reason="the normal form matches with deviation 0.0, but the matrix oracle reports "
        "1.89e-10 > 1e-10: verify_window divides by max(1, |A|, |B|), both sides are "
        "about 0, and the rounding of the cancelled products N@ad - ad@N - ad is not scaled "
        "by the size of those products",
    )
    def test_symbolic_number_ladder_commutator_on_borzov(self):
        cp = run_cli(
            "symbolic", "--case", "borzov", "--q", "1.5", "--alpha", "0.5", "--beta", "1",
            "--gamma", "2", "--check", "comm(N,ad) - ad == 0",
        )
        assert cp.returncode == 0, cp.stdout

    @pytest.mark.xfail(
        strict=True,
        reason="a false pass: ad^k a^k is the product of K(N - j) over j < k, which vanishes on "
        "every level both oracles read, the nf_equal grid 0..24 and the D=32 window 0..28, "
        "though not on the levels above them; ROADMAP item 4 decides such an identity from "
        "its coefficients instead of sampling it",
    )
    def test_symbolic_product_vanishing_on_the_sampled_levels_fails(self):
        for case_args, k in ((["--case", "classical"], 29), (["--case", "arik-coon", "--q", "0.5"], 30)):
            cp = run_cli("symbolic", *case_args, "--check", f"ad^{k}*a^{k} == 0")
            assert cp.returncode == 1, (case_args, cp.stdout)

    def test_symbolic_negative_power_of_a_real_scalar_passes(self):
        # both sides are 1e-320 x; a complex power would form 1e160^2 as inf + nan*i
        cp = run_cli("symbolic", "--case", "arik-coon", "--q", "0.7", "--check", "(1e160)^-2*x == 1e-320*x")
        assert cp.returncode == 0, cp.stdout
        assert "NaN" not in cp.stdout

    @pytest.mark.parametrize(
        "identity, message",
        [("(1e-300)^-64*x == x", "(1e-300)^-64 overflows float64"), ("(0)^-1*x == x", "(0.0)^-1 divides by zero")],
        ids=["overflows", "zero"],
    )
    def test_symbolic_failing_negative_power_exits_two_and_names_it(self, identity, message):
        cp = run_cli("symbolic", "--case", "classical", "--check", identity)
        assert (cp.returncode, cp.stdout, cp.stderr) == (2, "", f"error: {message}\n")

    def test_symbolic_parse_error_exits_two(self):
        cp = run_cli("symbolic", "--case", "classical", "--check", "a*ad == ad*")
        assert cp.returncode == 2
        assert "position" in cp.stderr

    @pytest.mark.parametrize("identity", ["x^1e400 == x", "K(N+1e400) == N", "1e400 == 1"])
    def test_symbolic_non_finite_numeral_exits_two(self, identity):
        cp = run_cli("symbolic", "--case", "classical", "--check", identity)
        assert cp.returncode == 2 and cp.stdout == ""
        assert "is not finite" in cp.stderr and "position" in cp.stderr

    def test_symbolic_unknown_builtin_exits_two(self):
        cp = run_cli("symbolic", "--case", "classical", "--check", "no_such_builtin")
        assert cp.returncode == 2

    @pytest.mark.parametrize(
        "identity",
        [
            "-" * 500 + "x == x",
            "-" * 100_000 + "x == x",
            "1*" * 5000 + "x == x",
            "x" + "/1" * 5000 + " == x",
            "x" + "/1*1" * 2500 + " == x",
        ],
        ids=["negations", "sign-run", "products", "quotients", "alternating"],
    )
    def test_long_operator_chains_evaluate(self, identity):
        # each chain parses to one node whatever its length, so neither the
        # parser nor the evaluator recurses once per link
        cp = run_cli("symbolic", "--case", "classical", "--check", identity)
        assert (cp.returncode, cp.stderr) == (0, "")
        assert json.loads(cp.stdout)["pass"] is True

    @pytest.mark.parametrize(
        "args",
        [
            ["symbolic", "--case", "classical", "--check", "a*ad == ad*a", "--tol=inf"],
            ["verify", "--case", "classical", "--dim", "8", "--tol=inf"],
            ["verify", "--case", "classical", "--dim", "8", "--tol=-1"],
        ],
        ids=["symbolic-inf", "verify-inf", "verify-negative"],
    )
    def test_tolerance_must_be_finite_and_non_negative(self, args):
        # an infinite tol passed a false identity and wrote "tol": inf, a
        # negative one failed every check with exit 1
        cp = run_cli(*args)
        assert cp.returncode == 2 and cp.stdout == ""
        assert cp.stderr.startswith("error: tol must be ")

    @pytest.mark.parametrize(
        "identity, message",
        [
            ("x^1000000 == x^1000000", "exceeds the cap"),
            ("x^40 == x^40", "monomial pairs, above the cap"),
            # (N+1)^4096 has binomial coefficients beyond float range
            ("(N^64)^64*ad == ad", "too large to convert to float"),
        ],
    )
    def test_symbolic_work_is_bounded(self, identity, message):
        cp = run_cli("symbolic", "--case", "classical", "--check", identity)
        assert cp.returncode == 2 and cp.stdout == ""
        assert message in cp.stderr

    @pytest.mark.parametrize(
        "args",
        [
            # 3.5^n overflows float64 at n = 567, below the top level of D = 600
            ["gup-scan", *MB_OVERFLOW, "--n-to", "5"],
            ["verify", *MB_OVERFLOW],
            ["table", *MB_OVERFLOW, "--levels", "590"],
            ["symbolic", *MB_OVERFLOW, "--check", "comm_xp"],
            ["gup-scan", *MB_OVERFLOW, "--q-from", "1", "--q-to", "3.5", "--q-steps", "61", "--n-from", "3"],
            # K(5) = 10^300.25 (1e10 - 1e5)/90 = 1.98e308 rounds to inf without an OverflowError
            ["gup-scan", *CHUNG_INF, "--n-from", "0", "--n-to", "2"],
            ["verify", *CHUNG_INF],
            ["table", *CHUNG_INF, "--levels", "5"],
            ["symbolic", *CHUNG_INF, "--check", "comm_xp"],
            ["gup-scan", *CHUNG_INF, "--q-from", "1", "--q-to", "10", "--q-steps", "3", "--n-from", "1"],
        ],
        ids=[
            "gup-scan", "verify", "table", "symbolic", "q-scan",
            "chung-gup-scan", "chung-verify", "chung-table", "chung-symbolic", "chung-q-scan",
        ],
    )
    def test_an_overflowing_level_table_exits_two(self, args):
        cp = run_cli(*args)
        assert (cp.returncode, cp.stdout) == (2, "")
        assert cp.stderr.startswith("error: K(") and cp.stderr.endswith(") overflows float64\n")
        assert cp.stderr.count("\n") == 1
        if "chung" in args:
            assert cp.stderr.startswith("error: K(5) of case 'chung' (q=10.0, alpha=2.0, beta=300.25)")

    @pytest.mark.parametrize(
        "args, level",
        [
            (["--case", "chung", "--q", "1e300", "--alpha", "0.5", "--beta", "2"], 1),
            (["--case", "borzov", "--q", "1e300", "--alpha", "0.5", "--beta", "0", "--gamma", "2"], 2),
            (["--case", "chung", "--q", "1e-300", "--alpha", "-2", "--beta", "0"], 2),
            (["--case", "borzov", "--q", "1e-5", "--alpha", "80", "--beta", "-70", "--gamma", "1"], 1),
        ],
        ids=["chung-big-q", "borzov-big-q", "chung-tiny-q", "borzov-big-beta"],
    )
    def test_overflowing_two_base_constants_name_the_first_overflowing_level(self, args, level):
        # q^beta or q^alpha - q^gamma overflows before any level is evaluated
        cp = run_cli("table", *args, "--levels", "3")
        assert (cp.returncode, cp.stdout) == (2, "")
        assert cp.stderr.startswith(f"error: K({level}) of case ") and cp.stderr.endswith(") overflows float64\n")

    def test_a_q_below_two_to_the_minus_54_reads_its_levels(self):
        # q - 1.0 rounds to -1.0 there, and log1p(-1.0) has no value
        cp = run_cli("table", "--case", "arik-coon", "--q", "1e-300", "--levels", "3")
        assert cp.returncode == 0, cp.stderr
        rows = [line.split(",") for line in cp.stdout.splitlines()[1:]]
        assert [float(row[1]) for row in rows] + [float(rows[-1][2])] == [0.0, 1.0, 1.0, 1.0]
        # K(2) = 1e200 reads, though its q^-2 term overflows; K(3) = 1e400 overflows
        cp = run_cli("table", "--case", "macfarlane-biedenharn", "--q", "1e-200", "--levels", "3")
        assert (cp.returncode, cp.stdout) == (2, "")
        assert cp.stderr == "error: K(3) of case 'macfarlane-biedenharn' (q=1e-200) overflows float64\n"

    def test_table_range_violation(self):
        cp = run_cli("table", "--case", "classical", "--levels", "30", "--dim", "32")
        assert cp.returncode == 2

    def test_scan_range_violation(self):
        cp = run_cli("gup-scan", "--case", "classical", "--n-from", "0", "--n-to", "29")
        assert cp.returncode == 2


WORKLOAD_CASES = [
    ["classical"],
    ["arik-coon", "--q", "0.7"],
    ["macfarlane-biedenharn", "--q", "1.5"],
    ["chung", "--q", "0.7", "--alpha", "2", "--beta", "0.5"],
    ["borzov", "--q", "1.5", "--alpha", "0.5", "--beta", "1", "--gamma", "2"],
    ["nonlinear", "--alpha", "1", "--beta", "2"],
]


class TestVerifyScale:
    @pytest.mark.parametrize("case_args", WORKLOAD_CASES, ids=lambda args: args[0])
    def test_exact_rows_pass_at_dim_256(self, case_args):
        # the margin-0 rows are held to 1e-14 at every size, where a dense
        # [N, ad] would round (n+1)s - ns by about n eps s
        cp = run_cli("verify", "--case", *case_args, "--dim", "256")
        failed = [c["name"] for c in json.loads(cp.stdout)["checks"] if not c["pass"]]
        assert cp.returncode == 0 and failed == []


class TestNegativeFloatValues:
    def test_scientific_negative_matches_equals_form(self):
        base = ["gup-scan", "--case", "chung", "--q", "0.7", "--beta", "0.5"]
        spaced = run_cli(*base, "--alpha", "-1e-3")
        joined = run_cli(*base, "--alpha=-1e-3")
        assert spaced.returncode == 0, spaced.stderr
        assert spaced == joined

    @pytest.mark.parametrize("value", ["-1E2", "-2.5e+1", "-.5"])
    def test_other_negative_forms_reach_the_case(self, value):
        base = ["table", "--case", "chung", "--q", "0.7", "--beta", "0.5"]
        cp = run_cli(*base, "--alpha", value)
        assert cp == run_cli(*base, f"--alpha={value}")
        assert cp.returncode == 0, cp.stderr

    @pytest.mark.parametrize("value", ["-1.", "-1.e0"])
    def test_trailing_point_negatives_match_equals_form(self, value):
        # values that float(), and so type=float, reads with a trailing point
        base = ["table", "--case", "chung", "--q", "0.7", "--beta", "0.5", "--levels", "1"]
        cp = run_cli(*base, "--alpha", value)
        assert cp == run_cli(*base, "--alpha=-1.")
        assert cp.returncode == 0, cp.stderr

    def test_identity_starting_with_minus_is_the_check(self):
        joined = run_cli("symbolic", "--case", "classical", "--check", "-comm(a,ad)==K(N)-K(N+1)")
        spaced = run_cli("symbolic", "--case", "classical", "--check", "-comm(a,ad) == K(N)-K(N+1)")
        assert joined.returncode == spaced.returncode == 0, joined.stderr
        verdicts = [
            {k: v for k, v in json.loads(cp.stdout).items() if k not in ("check", "identity")}
            for cp in (joined, spaced)
        ]
        assert verdicts[0] == verdicts[1]

    def test_negative_infinity_is_a_finite_parameter_error(self):
        cp = run_cli(
            "gup-scan", "--case", "chung", "--q", "0.7", "--alpha", "-inf", "--beta", "0.5"
        )
        assert cp.returncode == 2 and cp.stdout == ""
        assert "alpha must be finite" in cp.stderr


class TestTable:
    def test_classical_hamiltonian_column(self):
        cp = run_cli("table", "--case", "classical", "--levels", "3")
        assert cp.returncode == 0
        lines = cp.stdout.strip().split("\n")
        assert lines[0] == "n,K_n,K_np1,H_n,delta_n"
        h_column = [float(line.split(",")[3]) for line in lines[1:]]
        assert h_column == [0.5, 1.5, 2.5]

    def test_quadratic_spectrum_row(self):
        cp = run_cli("table", "--case", "nonlinear", "--alpha", "1", "--beta", "2", "--levels", "3")
        row = cp.stdout.strip().split("\n")[3].split(",")
        assert float(row[3]) == 11.5

    def test_geometric_row(self):
        cp = run_cli("table", "--case", "arik-coon", "--q", "2", "--levels", "3")
        row = cp.stdout.strip().split("\n")[3].split(",")
        assert float(row[1]) == 3.0 and float(row[4]) == 4.0


class TestScan:
    def test_classical_products(self):
        cp = run_cli("gup-scan", "--case", "classical", "--n-from", "0", "--n-to", "2")
        lines = cp.stdout.strip().split("\n")
        assert lines[0].startswith("case,q,alpha,beta,gamma,n,delta_x,delta_p,product")
        products = [float(line.split(",")[8]) for line in lines[1:]]
        assert products == pytest.approx([0.25, 0.75, 1.25], abs=1e-12)

    def test_geometric_robertson_column(self):
        cp = run_cli(
            "gup-scan", "--case", "arik-coon", "--q", "0.5", "--n-from", "2", "--n-to", "2"
        )
        row = cp.stdout.strip().split("\n")[1].split(",")
        assert float(row[9]) == pytest.approx(0.0625, abs=1e-12)

    def test_margin_robertson_nonnegative(self):
        cp = run_cli(
            "gup-scan", "--case", "macfarlane-biedenharn", "--q", "1.5",
            "--n-from", "0", "--n-to", "10",
        )
        for line in cp.stdout.strip().split("\n")[1:]:
            assert float(line.split(",")[12]) >= -1e-12

    def test_q_scan_grid(self):
        cp = run_cli(
            "gup-scan", "--case", "arik-coon",
            "--q", "0.5", "--q-from", "0.25", "--q-to", "0.75", "--q-steps", "3",
        )
        assert cp.returncode == 0
        qs = [float(line.split(",")[1]) for line in cp.stdout.strip().split("\n")[1:]]
        assert qs == pytest.approx([0.25, 0.5, 0.75])

    @pytest.mark.parametrize(
        "case_args",
        [
            ["classical"],
            ["arik-coon", "--q", "0.5"],
            ["macfarlane-biedenharn", "--q", "1.5"],
            ["nonlinear", "--alpha", "1", "--beta", "2"],
        ],
        ids=lambda args: args[0],
    )
    def test_level_scan_matches_single_level_scans(self, case_args):
        scan = run_cli("gup-scan", "--case", *case_args, "--n-from", "0", "--n-to", "6")
        rows = scan.stdout.split("\n")[1:-1]
        singles = [
            run_cli("gup-scan", "--case", *case_args, "--n-from", str(n), "--n-to", str(n))
            for n in range(7)
        ]
        assert rows == [cp.stdout.split("\n")[1] for cp in singles]

    def test_a_delta_p_apart_from_delta_x_gets_its_own_string(self):
        report = gup.UncertaintyReport(0.5, 0.25, 0.125, 0.0625, 1.0, True, 0.0625)
        [row] = cli._scan_rows([["classical", "", "", "", ""]], [2], [report])
        assert row[5:9] == ["2", cli.fmt_float(0.5), cli.fmt_float(0.25), cli.fmt_float(0.125)]
        assert row[10] == row[13] == ""

    def test_q_scan_on_caseless_q_rejected(self):
        cp = run_cli(
            "gup-scan", "--case", "classical", "--q-from", "0.25", "--q-to", "0.75"
        )
        assert cp.returncode == 2

    Q_SCAN = ("gup-scan", "--case", "arik-coon", "--q-from", "0.25", "--q-to", "0.75", "--q-steps", "2")

    def test_q_scan_needs_no_q(self):
        without = run_cli(*self.Q_SCAN)
        assert (without.returncode, without.stderr) == (0, "")
        assert without.stdout == run_cli(*self.Q_SCAN, "--q", "0.25").stdout
        assert without.stdout.count("\n") == 3

    def test_a_given_q_is_still_checked(self):
        cp = run_cli(*self.Q_SCAN, "--q", "-1")
        assert (cp.returncode, cp.stdout, cp.stderr) == (2, "", "error: q must be positive, got -1.0\n")

    def test_a_nonpositive_grid_point_is_refused_by_make_case(self):
        # the grid 0.5, 0.0, -0.5 starts at a valid q
        cp = run_cli("gup-scan", "--case", "arik-coon", "--q-from", "0.5", "--q-to", "-0.5", "--q-steps", "3")
        assert (cp.returncode, cp.stdout, cp.stderr) == (2, "", "error: q must be positive, got 0.0\n")

    def test_q_scan_rejects_n_to(self):
        cp = run_cli(*self.Q_SCAN, "--q", "0.5", "--n-from", "3", "--n-to", "10")
        assert (cp.returncode, cp.stdout) == (2, "")
        assert cp.stderr.startswith("error: --n-to") and cp.stderr.count("\n") == 1


class TestDeterminism:
    @pytest.mark.parametrize("golden_name,args", list(GOLDEN_COMMANDS.items()))
    def test_golden_byte_equality(self, tmp_path, golden_name, args):
        out = tmp_path / golden_name
        cp = run_cli(*args, "--out", str(out))
        assert cp.returncode == 0, cp.stderr
        produced = out.read_bytes()
        assert produced == (GOLDEN / golden_name).read_bytes()
        # a second run is byte-identical
        out2 = tmp_path / ("again_" + golden_name)
        run_cli(*args, "--out", str(out2))
        assert out2.read_bytes() == produced
        assert b"\r" not in produced

    def test_stdout_matches_file_output(self, tmp_path):
        out = tmp_path / "t.csv"
        run_cli("table", "--case", "classical", "--levels", "4", "--out", str(out))
        cp = run_cli("table", "--case", "classical", "--levels", "4")
        assert cp.stdout.encode() == out.read_bytes()


# JSON text with the characters json escapes: quotes, backslashes, control and non-ASCII
JSON_TEXT = st.text(st.characters() | st.sampled_from('"\\/\x00\x08\x1f\n\t\x7f\u00e9\u2028\U0001f600'))
JSON_PAYLOADS = st.recursive(
    st.none() | st.booleans() | st.integers() | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=24,
)


class TestRenderJson:
    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(JSON_PAYLOADS)
    def test_matches_json_dumps_without_floats(self, payload):
        assert cli.render_json(payload) == json.dumps(payload, indent=2) + "\n"

    def test_floats_take_seventeen_digits(self):
        payload = {"zero": -0.0, "steps": (0.1, 1e-300, -2.5), "edges": [float("inf"), float("nan")], "empty": {}}
        assert cli.render_json(payload) == (
            "{\n"
            '  "zero": 0.0000000000000000e+00,\n'
            '  "steps": [\n'
            "    1.0000000000000001e-01,\n"
            "    1.0000000000000000e-300,\n"
            "    -2.5000000000000000e+00\n"
            "  ],\n"
            '  "edges": [\n'
            "    Infinity,\n"
            "    NaN\n"
            "  ],\n"
            '  "empty": {}\n'
            "}\n"
        )

    def test_non_finite_floats_as_json_dumps_writes_them(self):
        payload = {"edges": [float("inf"), -float("inf"), float("nan")], "one": float("nan")}
        assert cli.render_json(payload) == json.dumps(payload, indent=2) + "\n"


# finite level tables whose band products overflow: their residual rows are NaN
NAN_RESIDUALS = {
    "chung": ["--case", "chung", "--q", "10", "--alpha", "2", "--beta", "280", "--dim", "8"],
    "macfarlane-biedenharn": ["--case", "macfarlane-biedenharn", "--q", "3", "--dim", "600"],
}


class TestNonFiniteResiduals:
    @pytest.mark.parametrize("case_args", NAN_RESIDUALS.values(), ids=NAN_RESIDUALS)
    def test_json_parses_and_the_nan_rows_fail(self, case_args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cp = run_cli("verify", *case_args)
        assert (cp.returncode, cp.stderr) == (1, "")
        payload = json.loads(cp.stdout)
        nan_rows = [c for c in payload["checks"] if math.isnan(c["max_abs_residual"])]
        assert nan_rows and not any(c["pass"] for c in nan_rows)
        assert payload["pass"] is False

    @pytest.mark.parametrize("case_args", NAN_RESIDUALS.values(), ids=NAN_RESIDUALS)
    def test_csv_keeps_nan_and_fails_the_rows(self, case_args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cp = run_cli("verify", *case_args, "--format", "csv")
        assert (cp.returncode, cp.stderr) == (1, "")
        rows = [line.split(",") for line in cp.stdout.splitlines()[1:]]
        nan_rows = [row for row in rows if row[7] == "nan"]
        assert nan_rows and all(row[9] == "false" for row in nan_rows)

    def test_the_symbolic_matrix_oracle_fails_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cp = run_cli("symbolic", *NAN_RESIDUALS["macfarlane-biedenharn"], "--check", "lh_x")
        assert (cp.returncode, cp.stderr) == (1, "")
        oracle = json.loads(cp.stdout)["matrix_oracle"]
        assert math.isnan(oracle["max_abs_residual"]) and oracle["pass"] is False

    def test_the_symbolic_normal_form_fails_without_warnings(self):
        # the coefficient 1e400 overflows on the normal form's levels as in the matrix oracle
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cp = run_cli("symbolic", "--case", "classical", "--check", "(1e200)^2 == 0")
        assert (cp.returncode, cp.stderr) == (1, "")
        normal_form = json.loads(cp.stdout)["normal_form"]
        assert math.isnan(normal_form["max_deviation"]) and normal_form["pass"] is False


class TestSeedHandling:
    def test_env_overrides_flag(self, monkeypatch):
        with_flag = run_cli("verify", "--case", "classical", "--seed", "3")
        monkeypatch.setenv("DEFORMALG_SEED", "7")
        with_env = run_cli("verify", "--case", "classical", "--seed", "3")
        assert json.loads(with_flag.stdout)["seed"] == 3
        assert json.loads(with_env.stdout)["seed"] == 7

    def test_bad_env_seed(self):
        # entry-point smoke test
        cp = run_module("verify", "--case", "classical", env_extra={"DEFORMALG_SEED": "x"})
        assert cp.returncode == 2


# Runs cli.main on its arguments, or only imports the CLI when given none, and
# lists on stderr's last line which of numpy, dataclasses, inspect and json it loaded.
STARTUP_PROBE = """
import sys
import deformalg.cli
rc = deformalg.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print("loaded:", *[m for m in ("numpy", "dataclasses", "inspect", "json") if m in sys.modules], file=sys.stderr)
sys.exit(rc)
"""


class TestStartup:
    @pytest.mark.parametrize(
        "args,returncode,numpy_free",
        [
            ([], 0, True),
            (["--help"], 0, True),
            (["verify", "--case", "no-such-case"], 2, True),
            (GOLDEN_COMMANDS["table_nonlinear.csv"], 0, True),
            (GOLDEN_COMMANDS["gup_scan_macfarlane_biedenharn.csv"], 0, True),
            (["gup-scan", "--case", "arik-coon", "--dim", "8", "--q-from", "0.25", "--q-to", "1.75"], 0, True),
            (["gup-scan", *MB_OVERFLOW, "--n-to", "5"], 2, True),
            (["verify", "--case", "classical", "--dim", "8"], 0, False),
            (GOLDEN_COMMANDS["symbolic_lh_x.json"], 0, False),
        ],
        ids=["import", "help", "usage-error", "table", "gup-scan", "q-scan", "overflow", "verify", "symbolic"],
    )
    def test_only_verify_and_symbolic_load_numpy(self, args, returncode, numpy_free):
        cmd = [sys.executable, "-c", STARTUP_PROBE, *args]
        cp = subprocess.run(cmd, capture_output=True, text=True, env=child_env())
        assert cp.returncode == returncode, cp.stderr
        if numpy_free:
            # nor dataclasses, inspect or json, which only verify and symbolic need
            assert cp.stderr.splitlines()[-1] == "loaded:"


class TestLazyExports:
    def test_every_name_is_its_home_modules_object(self):
        for name in deformalg.__all__:
            home = importlib.import_module(f"deformalg.{deformalg._HOMES[name]}")
            value = getattr(home, name)
            assert getattr(deformalg, name) is value and deformalg.__getattr__(name) is value, name
            assert getattr(value, "__module__", home.__name__) == home.__name__, name

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from deformalg import *", namespace)
        for name in deformalg.__all__:
            assert namespace[name] is getattr(deformalg, name), name

    def test_each_modules_all_is_its_export_entry(self):
        for home, names in deformalg._EXPORTS.items():
            module = importlib.import_module(f"deformalg.{home}")
            assert sorted(module.__all__) == names.split(), home

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            deformalg.no_such_name
        assert not hasattr(deformalg, "no_such_name")

    def test_a_submodule_imports_by_name(self):
        probe = "from deformalg import fockrep, gup; print(fockrep.__name__, gup.__name__)"
        cp = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=child_env())
        assert (cp.returncode, cp.stdout) == (0, "deformalg.fockrep deformalg.gup\n"), cp.stderr
