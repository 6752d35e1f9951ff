"""Regenerate the golden CLI outputs, demo transcripts and compare_cli digest (run manually after intentional changes).

Usage:  python tests/regen_goldens.py
"""

import contextlib
import io
import os
import pathlib
import runpy
import subprocess
import sys

GOLDEN = pathlib.Path(__file__).parent / "golden"
DEMO_DIR = pathlib.Path(__file__).parents[1] / "demos"
DEMO_GOLDEN = GOLDEN / "demos"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

COMMANDS = {
    "verify_classical.json": ["verify", "--case", "classical"],
    "table_nonlinear.csv": [
        "table", "--case", "nonlinear", "--alpha", "1", "--beta", "2", "--levels", "5",
    ],
    "gup_scan_arik_coon.csv": [
        "gup-scan", "--case", "arik-coon", "--q", "0.5", "--n-from", "0", "--n-to", "4",
    ],
    "gup_scan_macfarlane_biedenharn.csv": [
        "gup-scan", "--case", "macfarlane-biedenharn", "--q", "0.95", "--dim", "128",
        "--n-from", "0", "--n-to", "124",
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


DEMOS = sorted(DEMO_DIR.glob("*.py"))


def child_env(**extra) -> dict:
    """os.environ with this checkout's src first on PYTHONPATH, so that a child
    `python -m deformalg` runs this source whether or not a package is installed."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path, **extra)


def demo_stdout(path) -> str:
    """Everything a demo prints when run in-process as __main__."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return out.getvalue()


def demo_transcript(path) -> pathlib.Path:
    """tests/golden/demos/<stem>.txt, the checked-in stdout of a demo."""
    return DEMO_GOLDEN / f"{path.stem}.txt"


def write_demo_transcripts():
    DEMO_GOLDEN.mkdir(parents=True, exist_ok=True)
    for path in DEMOS:
        target = demo_transcript(path)
        target.write_bytes(demo_stdout(path).encode("utf-8"))
        print(f"wrote {target}")


def write_compare_cli_digest():
    import compare_cli  # tests/compare_cli.py, beside this file

    compare_cli.DIGEST.write_text(compare_cli.digest(compare_cli.run_tree(compare_cli.ROOT, compare_cli.call_list())))
    print(f"wrote {compare_cli.DIGEST}")


def main():
    sys.path.insert(0, str(SRC))  # the demos run in this process
    GOLDEN.mkdir(exist_ok=True)
    for name, args in COMMANDS.items():
        target = GOLDEN / name
        cmd = [sys.executable, "-m", "deformalg", *args, "--out", str(target)]
        subprocess.run(cmd, check=True, env=child_env())
        print(f"wrote {target}")
    write_demo_transcripts()
    write_compare_cli_digest()


if __name__ == "__main__":
    main()
