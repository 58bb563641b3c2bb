"""The python examples in README.md run as written, and the figures it
states for the Sobolev row blocks and the Wiener draw blocks are those the
code computes."""
import re
from pathlib import Path

import pytest

from skorokhod_sde import analysis, sources

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_example_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_stated_sobolev_block():
    words = r"`sobolev_seminorm` takes the rows of all its paths in blocks of about"
    stated = re.search(words.replace(" ", r"\s+") + r"\s+(\d[\d ]*?)\s+pairs", TEXT)
    assert stated, "README no longer states the Sobolev seminorm's block size"
    assert int(stated.group(1).replace(" ", "")) == analysis._PAIR_BLOCK


def test_stated_draw_block():
    words = r"draws the Wiener streams of a block of paths at a time, about"
    stated = re.search(words.replace(" ", r"\s+") + r"\s+(\d[\d ]*?)\s+values", TEXT)
    assert stated, "README no longer states the size of the Wiener draw block"
    assert int(stated.group(1).replace(" ", "")) == sources._DRAW_BLOCK
