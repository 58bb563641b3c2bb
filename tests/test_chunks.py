"""The chunk walk of ``engine._step_streams``: every command steps its streams
a chunk at a time, and what it writes does not depend on how many chunks
there were; its memory beyond one chunk grows only by the per-path results
that ``engine.check_budget`` counts."""
import math
import shutil
import tracemalloc

import numpy as np
import pytest

from skorokhod_sde import (
    OUParams,
    ReflectedJumpSDE,
    ReflectionDomain,
    SimulationAbort,
    build_dyadic_partition,
    make_scenario,
    parse_config,
    sample_path_inputs,
    simulate_ensemble,
    uniform_grid,
)
from skorokhod_sde import cli, engine
from skorokhod_sde.analysis import (
    REFERENCE_OFFSET,
    stability_experiment,
    strong_convergence_experiment,
)
from skorokhod_sde.engine import check_budget

# 10 paths each; retain = 7 spans a chunk edge at 2 chunks (5 + 2) and at 3 (4 + 3)
SIMULATE = "[engine]\nn_paths = 10\n[outputs]\nretain = 7\n[grid]\nhorizon = 20.0\n"
COMMANDS = {  # id: (command, config text)
    "simulate": ("simulate", SIMULATE),
    "simulate_exact": ("simulate", SIMULATE + "[engine]\njump_timing = exact\n"),
    "stability": ("stability", "[experiment]\nkind = stability\nn_paths = 10\n"),
    "stability_white_noise": ("stability", "[scenario]\ninput_mode = white_noise\n"
                              "[experiment]\nkind = stability\nn_paths = 10\n"),
    "converge": ("converge", "[experiment]\nkind = converge\nn_paths = 10\nlevels = 3,4,5\n"),
}


def chunked(monkeypatch, size):
    """Make every walk step chunks of ``size`` streams; returns the list
    that gets one entry per chunk drawn."""
    drawn = []
    draw = engine.sample_path_inputs
    monkeypatch.setattr(engine, "_chunk_paths", lambda path_bytes: size)
    monkeypatch.setattr(engine, "sample_path_inputs",
                        lambda *args: drawn.append(args) or draw(*args))
    return drawn


@pytest.mark.parametrize("case", COMMANDS)
def test_outputs_identical_at_any_chunk_count(case, tmp_path, monkeypatch):
    command, text = COMMANDS[case]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"  # one name: the config written with the outputs names it
    written = []
    for n_chunks in (1, 2, 3):
        drawn = chunked(monkeypatch, math.ceil(10 / n_chunks))
        assert cli.main(["--config", str(cfg), "--out", str(out), command]) == 0
        assert len(drawn) == n_chunks
        written.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
        shutil.rmtree(out)
    assert len(written[0]) > 1 or command != "simulate"
    assert written[1] == written[0] and written[2] == written[0]


@pytest.mark.parametrize("command", ["simulate", "stability", "converge"])
def test_no_path_is_rejected_before_any_draw(command, monkeypatch):
    drawn = chunked(monkeypatch, 1)
    model = make_scenario(parse_config("").scenario_config())
    with pytest.raises(ValueError, match="^n_paths must be >= 1$"):
        if command == "simulate":
            simulate_ensemble(model, uniform_grid(0.1, 2.0), 0, 1)
        elif command == "stability":
            stability_experiment(model, uniform_grid(0.1, 2.0), [0.1, 0.01], 0, 1)
        else:
            strong_convergence_experiment(model, (1, 2), 0, 1, 2.0)
    assert drawn == []


def blow_up_model(grid, seed, n_streams):
    """A model whose drift is infinite where its input current is above a
    level that, in the steps of ``grid``, only one of the streams reaches;
    and that stream."""
    current = OUParams(sigma=1.0)
    quiet = ReflectedJumpSDE(1, lambda x, u: -x, lambda x: 0.1, ReflectionDomain.unreflected(1),
                             np.array([0.0]), input_current=current)
    peaks = sample_path_inputs(quiet, grid, seed, range(n_streams)).u[:-1].max(axis=0)
    second, first = np.sort(peaks)[-2:]
    level = (first + second) / 2
    model = ReflectedJumpSDE(1, lambda x, u: np.where(u[:, None] > level, np.inf, -x),
                             lambda x: 0.1, ReflectionDomain.unreflected(1), np.array([0.0]),
                             input_current=current)
    return model, int(np.argmax(peaks))


@pytest.mark.parametrize("command", ["simulate", "stability", "converge"])
def test_abort_in_the_last_chunk_reads_as_in_one(command, monkeypatch):
    """One path aborts, in the last of 3 chunks: the abort names the step,
    the row, the time and the state that the one-chunk run names."""
    seed, n_streams, levels = 1, 9, (1, 2)
    if command == "converge":
        grid = build_dyadic_partition(max(levels) + REFERENCE_OFFSET, 2.0)
    else:
        grid = uniform_grid(0.1, 2.0)
    model, stream = blow_up_model(grid, seed, n_streams)
    assert stream >= 6  # in the last chunk of 3

    def run():
        with pytest.raises(SimulationAbort) as exc:
            if command == "simulate":
                simulate_ensemble(model, grid, n_streams, seed, 2)
            elif command == "stability":
                stability_experiment(model, grid, [0.1, 0.01], n_streams, seed)
            else:
                strong_convergence_experiment(model, levels, n_streams, seed, 2.0)
        return exc.value

    aborts = []
    for size in (n_streams, 3):
        chunked(monkeypatch, size)
        aborts.append(run())
    one, three = aborts
    assert one.row == stream and "drift" in str(one)
    assert (three.step_index, three.what, three.row, three.time) == (
        one.step_index, one.what, one.row, one.time)
    assert three.state.tobytes() == one.state.tobytes() and str(three) == str(one)


def _peak_bytes(run) -> int:
    run()  # the caches a first run fills are not the command's arrays
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command", ["simulate", "simulate_exact", "stability", "converge"])
def test_peak_flat_in_paths_beyond_one_chunk(command, monkeypatch):
    """Beyond one chunk, the peak grows with the paths by no more than what
    :func:`check_budget` counts for their results, 24 bytes per gathered
    float: a terminal state, or a gap per offset, or an error per level."""
    size, offsets, levels = 32, (0.1, 0.01, 0.001), (3, 4, 5)
    chunked(monkeypatch, size)
    model = make_scenario(parse_config("").scenario_config())
    grid = uniform_grid(0.1, 20.0)
    run, count, results = {
        "simulate": (lambda n: simulate_ensemble(model, grid, n, 3, 1, "end_of_step"),
                     lambda n: check_budget("simulate", model, 20.0, 200, n, 1), 2),
        "simulate_exact": (lambda n: simulate_ensemble(model, grid, n, 3, 1, "exact"),
                           lambda n: check_budget("simulate", model, 20.0, 200, n, 1, True), 2),
        "stability": (lambda n: stability_experiment(model, grid, offsets, n, 3),
                      lambda n: check_budget("stability", model, 20.0, 200, n, 0, rows=4,
                                             results=3), 3),
        "converge": (lambda n: strong_convergence_experiment(model, levels, n, 3, 20.0),
                     lambda n: check_budget("converge", model, 20.0, 2**8, n, 0,
                                            coarse_steps=2**5, results=3), 3),
    }[command]
    few, many = 2 * size, 16 * size
    assert count(many) - count(few) == 24 * results * (many - few)  # one chunk either way
    peaks = [_peak_bytes(lambda: run(n)) for n in (few, many)]
    assert peaks[1] - peaks[0] <= count(many) - count(few)
