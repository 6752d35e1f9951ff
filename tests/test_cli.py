"""Command-line interface: exit codes, schemas, golden-file determinism.

Commands run in-process through cli.main; the tests marked as entry-point
smoke tests start `python -m deformalg` in a subprocess instead.
"""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
from typing import NamedTuple

import pytest
from regen_goldens import COMMANDS as GOLDEN_COMMANDS

from deformalg import cli

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
    env = dict(os.environ, **(env_extra or {}))
    cmd = [sys.executable, "-m", "deformalg", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


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
        ],
    )
    def test_non_finite_parameter_exits_two(self, args):
        cp = run_cli(*args, "--dim", "8")
        assert cp.returncode == 2
        assert "must be finite" in cp.stderr and cp.stdout == ""

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

    def test_q_scan_on_caseless_q_rejected(self):
        cp = run_cli(
            "gup-scan", "--case", "classical", "--q-from", "0.25", "--q-to", "0.75"
        )
        assert cp.returncode == 2


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
