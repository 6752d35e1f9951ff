"""Every demo runs in-process and prints exactly its checked-in transcript,
and the README's library tour runs as written."""

import contextlib
import io
import pathlib

import pytest
from regen_goldens import DEMOS, demo_stdout, demo_transcript

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(path):
    assert demo_stdout(path).encode("utf-8") == demo_transcript(path).read_bytes()


def test_all_demos_collected():
    assert len(DEMOS) == 4


def test_readme_library_tour_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library tour\n", 1)[1]
    tour = section.split("```python\n", 1)[1].split("\n```\n", 1)[0]
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(tour, str(README), "exec"), {"__name__": "readme_tour"})
