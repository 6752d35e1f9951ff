"""Every demo runs in-process and prints exactly its checked-in transcript."""

import pytest
from regen_goldens import DEMOS, demo_stdout, demo_transcript


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(path):
    assert demo_stdout(path).encode("utf-8") == demo_transcript(path).read_bytes()


def test_all_demos_collected():
    assert len(DEMOS) == 4
