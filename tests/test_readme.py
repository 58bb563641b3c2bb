"""The python examples in README.md run as written, and the figures it
states for the memory budget, the Sobolev row blocks and the Wiener draw
blocks are those the code computes."""
import re
from pathlib import Path

import pytest

from skorokhod_sde import analysis, make_scenario, parse_config, sources
from skorokhod_sde.engine import check_budget

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_example_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def default_paths_cap(exact: bool) -> int:
    """The largest ``--paths`` that the default config's ``simulate``
    budget check passes, by bisection: the check grows with the paths."""
    doc = parse_config("")
    model, grid = make_scenario(doc.scenario_config()), doc.build_grid()

    def fits(n):
        try:
            check_budget("simulate", model, grid.horizon, grid.n_steps, n,
                         min(max(doc.retain, 1), n), exact, summarized=True)
        except ValueError:
            return False
        return True

    fit, over = 1, 2
    while fits(over):
        fit, over = over, 2 * over
    while over - fit > 1:
        mid = (fit + over) // 2
        fit, over = (mid, over) if fits(mid) else (fit, mid)
    return fit


def test_stated_paths_caps():
    stated = re.search(r"The default grid fits ([\d ]+)\s+paths, or ([\d ]+) with exact\s+jump"
                       r"\s+timing", TEXT)
    assert stated, "README no longer states the default grid's --paths caps"
    caps = [int(n.replace(" ", "")) for n in stated.groups()]
    assert caps == [default_paths_cap(False), default_paths_cap(True)]


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
