"""Regenerate the golden CLI outputs (run manually after intentional changes).

Usage:  python tests/regen_goldens.py
"""

import pathlib
import subprocess
import sys

GOLDEN = pathlib.Path(__file__).parent / "golden"

COMMANDS = {
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
    "verify_arik_coon.json": ["verify", "--case", "arik-coon", "--q", "0.7"],
    "verify_macfarlane_biedenharn.json": [
        "verify", "--case", "macfarlane-biedenharn", "--q", "1.5",
    ],
    "verify_chung.json": [
        "verify", "--case", "chung", "--q", "0.7", "--alpha", "2", "--beta", "0.5",
    ],
    "verify_borzov.json": [
        "verify", "--case", "borzov", "--q", "1.5", "--alpha", "0.5", "--beta", "1", "--gamma", "2",
    ],
    "verify_nonlinear.json": ["verify", "--case", "nonlinear", "--alpha", "1", "--beta", "2"],
}


def main():
    GOLDEN.mkdir(exist_ok=True)
    for name, args in COMMANDS.items():
        target = GOLDEN / name
        cmd = [sys.executable, "-m", "deformalg", *args, "--out", str(target)]
        subprocess.run(cmd, check=True)
        print(f"wrote {target}")


if __name__ == "__main__":
    main()
