"""The CLI's outputs over a matrix of commands, seeds and configs, pinned
byte for byte: every case runs in-process through ``cli.main``, and its exit
code, its stdout and the sha256 of every file it writes must match
``parity_outputs.json``.

The fixture is recorded from a tree whose outputs are known good, by
running this module as a script::

    PYTHONPATH=src python tests/test_parity.py

Re-recording it changes a check: say what moved and why.  Like the seed-42
golden gate, the digests hold for one build of numpy and libm.
"""
import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from skorokhod_sde.cli import main

FIXTURE = Path(__file__).resolve().parent / "parity_outputs.json"
SEEDS = (1, 2)
EXACT = "[engine]\njump_timing = exact\n"
WHITE_NOISE = "[scenario]\ninput_mode = white_noise\n"
STABILITY = "[experiment]\nkind = stability\n"

# name: (subcommand, config text, --paths)
CASES = {
    "panels": ("panels", "", None),
    "panels_exact": ("panels", EXACT, None),
    "simulate": ("simulate", "", None),
    "simulate_1000": ("simulate", "", 1000),
    "simulate_50_retain_5": ("simulate", "[outputs]\nretain = 5\n", 50),
    "simulate_exact_20": ("simulate", EXACT, 20),
    "simulate_white_noise_exact_5": ("simulate", WHITE_NOISE + EXACT, 5),
    "stability": ("stability", STABILITY, None),
    "stability_white_noise": ("stability", WHITE_NOISE + STABILITY, None),
    "converge": ("converge", "[experiment]\nkind = converge\n", None),
    "validate": ("validate", "", None),
}


def run_case(name: str, seed: int) -> dict:
    """Run one case in the current directory.  ``--out`` is relative, since
    every JSON output records its ``[outputs] dir``."""
    command, config, paths = CASES[name]
    out = Path(f"{name}_{seed}")
    argv = ["--seed", str(seed), "--out", str(out)]
    if config:
        Path(f"{name}.cfg").write_text(config)
        argv += ["--config", f"{name}.cfg"]
    if paths is not None:
        argv += ["--paths", str(paths)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv + [command])
    files = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(out.rglob("*")) if p.is_file()}
    return {"exit": code, "stdout": stdout.getvalue(), "files": files}


def _key(name, seed):
    return f"{name}@{seed}"


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_the_matrix(recorded):
    assert sorted(recorded) == sorted(_key(n, s) for n in CASES for s in SEEDS)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", CASES)
def test_outputs_match_the_fixture(name, seed, recorded, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_case(name, seed) == recorded[_key(name, seed)]


if __name__ == "__main__":
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name in CASES:
            for seed in SEEDS:
                results[_key(name, seed)] = run_case(name, seed)
    FIXTURE.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
