"""Integration tests for the command-line surface: file outputs, summaries,
seed precedence and exit codes."""
import contextlib
import io
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skorokhod_sde import (
    JUMP_LOG,
    TrajectoryBundle,
    make_scenario,
    parse_config,
    simulate_trajectory,
    uniform_grid,
)
from skorokhod_sde import cli, config
from skorokhod_sde.cli import SEED_ENV_VAR, TRAJECTORY_HEADER, main, summarize
from skorokhod_sde.config import _SCHEMA
from skorokhod_sde.engine import JUMP_TIMINGS, SimulationAbort, check_budget, simulate_rows
from skorokhod_sde.models import INPUT_MODES

SMALL = "[grid]\nhorizon = 5.0\ndt = 0.1\n"


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(*argv):
    return main(list(argv))


class TestSimulate:
    def test_default_row_count(self, tmp_path):
        out = tmp_path / "out"
        assert run("--out", str(out), "simulate") == 0
        lines = (out / "trajectory_000.csv").read_text().splitlines()
        assert lines[0] == TRAJECTORY_HEADER
        assert len(lines) == 1 + 1001
        times = [float(row.split(",")[0]) for row in lines[1:]]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_reflected_scenario_nonnegative(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, SMALL)
        assert run("--config", cfg, "--out", str(out), "simulate") == 0
        rows = (out / "trajectory_000.csv").read_text().splitlines()[1:]
        rates = np.array([[float(v) for v in row.split(",")[1:3]] for row in rows])
        assert rates.min() >= 0.0

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run("--config", cfg, "--out", str(out_a), "simulate") == 0
        assert run("--config", cfg, "--out", str(out_b), "simulate") == 0
        assert (out_a / "trajectory_000.csv").read_bytes() == \
            (out_b / "trajectory_000.csv").read_bytes()

    def test_csv_round_trip_fidelity(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        assert run("--config", cfg, "--out", str(out), "simulate") == 0
        doc = parse_config(SMALL)
        bundle = simulate_trajectory(
            make_scenario(doc.scenario_config()), doc.build_grid(), doc.seed, 0
        )
        rows = (out / "trajectory_000.csv").read_text().splitlines()[1:]
        for k, row in enumerate(rows):
            vals = row.split(",")
            assert float(vals[1]) == bundle.states[k, 0]
            assert float(vals[2]) == bundle.states[k, 1]
            assert float(vals[3]) == bundle.phi[k, 0]

    def test_summary_contents(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        assert run("--config", cfg, "--out", str(out), "simulate") == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["scenario"] == "ou_reflected_jumps"
        record = summary["trajectories"][0]
        assert record["schema_version"] == 1
        assert len(record["terminal_state"]) == 2
        assert record["seed"]["master_seed"] == 42

    def test_paths_and_retain(self, tmp_path):
        cfg = write_config(tmp_path, SMALL + "[outputs]\nretain = 3\n")
        out = tmp_path / "out"
        assert run("--config", cfg, "--out", str(out), "--paths", "3", "simulate") == 0
        for idx in range(3):
            assert (out / f"trajectory_{idx:03d}.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["n_paths"] == 3


class TestSeedPrecedence:
    def _seed_of(self, tmp_path, *argv):
        out = tmp_path / "seed_out"
        assert run(*argv, "--out", str(out), "simulate") == 0
        summary = json.loads((out / "summary.json").read_text())
        return summary["trajectories"][0]["seed"]["master_seed"]

    def test_flag_wins_over_env(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, SMALL)
        monkeypatch.setenv(SEED_ENV_VAR, "111")
        assert self._seed_of(tmp_path, "--config", cfg, "--seed", "9") == 9

    def test_env_fallback(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, SMALL)
        monkeypatch.setenv(SEED_ENV_VAR, "111")
        assert self._seed_of(tmp_path, "--config", cfg) == 111

    def test_config_seed_beats_env(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, SMALL + "[engine]\nseed = 55\n")
        monkeypatch.setenv(SEED_ENV_VAR, "111")
        assert self._seed_of(tmp_path, "--config", cfg) == 55

    def test_default_seed(self, tmp_path, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        cfg = write_config(tmp_path, SMALL)
        assert self._seed_of(tmp_path, "--config", cfg) == 42

    def test_bad_env_seed_is_config_error(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path, SMALL)
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
        assert run("--config", cfg, "--out", str(tmp_path / "x"), "simulate") == 1


class TestPanels:
    def test_all_four_panels(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "panels"
        assert run("--config", cfg, "--out", str(out), "panels") == 0
        for mode in ("white_noise", "ou_current", "ou_reflected", "ou_reflected_jumps"):
            assert (out / f"panel_{mode}.csv").exists()
        summary = json.loads((out / "panels_summary.json").read_text())
        assert summary["master_seed"] == 42
        assert set(summary["panels"]) == {
            "white_noise", "ou_current", "ou_reflected", "ou_reflected_jumps"
        }

    def test_long_format(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "panels"
        assert run("--config", cfg, "--out", str(out), "panels") == 0
        lines = (out / "panels_long.csv").read_text().splitlines()
        assert lines[0] == "scenario,series,t,value"
        assert len(lines) == 1 + 4 * 2 * 51


class TestExperimentCommands:
    def test_stability_requires_experiment_section(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        assert run("--config", cfg, "--out", str(tmp_path / "s"), "stability") == 1

    def test_stability_run(self, tmp_path):
        text = SMALL + (
            "[experiment]\nkind = stability\noffsets = 0.1,0.01\n"
            "n_paths = 20\nhorizon = 2.0\n"
        )
        cfg = write_config(tmp_path, text)
        out = tmp_path / "stab"
        assert run("--config", cfg, "--out", str(out), "stability") == 0
        report = json.loads((out / "stability.json").read_text())
        assert len(report["errors"]) == 2
        assert report["errors"][0] > report["errors"][1]
        assert report["fitted_slope"] > 0.5

    def test_converge_run(self, tmp_path):
        text = SMALL + (
            "[scenario]\ninput_mode = ou_reflected\n"
            "[experiment]\nkind = converge\nlevels = 3,4,5\n"
            "n_paths = 4\nhorizon = 2.0\n"
        )
        cfg = write_config(tmp_path, text)
        out = tmp_path / "conv"
        assert run("--config", cfg, "--out", str(out), "converge") == 0
        report = json.loads((out / "convergence.json").read_text())
        assert report["levels"] == [3, 4, 5]
        assert report["reference_level"] == 8
        assert report["rms_errors"][-1] < report["rms_errors"][0]

    @pytest.mark.parametrize("kind", ["stability", "converge"])
    def test_exact_jump_timing_rejected(self, tmp_path, capsys, kind):
        text = SMALL + f"[engine]\njump_timing = exact\n[experiment]\nkind = {kind}\n"
        out = tmp_path / "x"
        assert run("--config", write_config(tmp_path, text), "--out", str(out), kind) == 1
        assert "jump_timing" in capsys.readouterr().err
        assert not out.exists()

    def test_validate_run(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "val"
        assert run("--config", cfg, "--out", str(out), "validate") == 0
        report = json.loads((out / "validate.json").read_text())
        assert report["lipschitz"]["sigmoid"] <= 1.2 / 4.0 + 1e-3
        assert report["jump_bound"]["passed"]


class TestExitCodes:
    def test_config_error(self, tmp_path):
        cfg = write_config(tmp_path, "[grid]\ndt = fast\n")
        assert run("--config", cfg, "simulate") == 1

    def test_missing_config_file(self, tmp_path):
        assert run("--config", str(tmp_path / "nope.cfg"), "simulate") == 1

    @pytest.mark.parametrize("flags", [
        ("--seed", "-1"),
        ("--seed", "18446744073709551616"),
        ("--paths", "0"),
        ("--paths", "-3"),
    ])
    def test_bad_override_is_config_error(self, tmp_path, capsys, flags):
        cfg = write_config(tmp_path, SMALL)
        assert run("--config", cfg, *flags, "--out", str(tmp_path / "x"),
                   "simulate") == 1
        assert "E_INVARIANT" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("value", ["-5", "18446744073709551616"])
    def test_out_of_range_env_seed_is_config_error(self, tmp_path, monkeypatch,
                                                   capsys, value):
        cfg = write_config(tmp_path, SMALL)
        monkeypatch.setenv(SEED_ENV_VAR, value)
        assert run("--config", cfg, "--out", str(tmp_path / "x"), "simulate") == 1
        assert "seed must lie in" in capsys.readouterr().err

    def test_largest_seed_accepted(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        assert run("--config", cfg, "--seed", "18446744073709551615",
                   "--out", str(tmp_path / "x"), "simulate") == 0

    def test_out_of_range_config_seed_names_its_line(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL + "[engine]\nseed = 18446744073709551616\n")
        assert run("--config", cfg, "simulate") == 1
        assert "line 5:" in capsys.readouterr().err

    def test_runtime_abort_on_unwritable_output(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        assert run("--config", cfg, "--out", str(blocker), "simulate") == 2

    def test_nan_result_is_runtime_abort(self, tmp_path, capsys):
        # without noise every level meets the reference exactly: the errors
        # are all 0 and the fitted order is NaN, which JSON cannot hold
        cfg = write_config(tmp_path, "[scenario]\ninput_mode = ou_reflected\n[ou]\nsigma = 0\n"
                                     "[experiment]\nkind = converge\nn_paths = 5\n")
        out = tmp_path / "x"
        assert run("--config", cfg, "--out", str(out), "converge") == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime abort: ") and "convergence.json" in err
        assert "Traceback" not in err
        assert not (out / "convergence.json").exists()

    @pytest.mark.parametrize("command, summary", [
        ("simulate", "summary.json"), ("panels", "panels_summary.json"),
    ])
    def test_abort_writes_no_file(self, tmp_path, capsys, command, summary):
        # the states stay finite, but the path seminorms overflow to inf,
        # which the summary cannot hold; no trajectory CSV is left behind
        cfg = write_config(tmp_path, SMALL + "[scenario]\ninput_mode = ou_current\n"
                                             "x0_e = 1e308\n")
        out = tmp_path / "x"
        assert run("--config", cfg, "--out", str(out), command) == 2
        assert f"{summary} not written" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("timing", JUMP_TIMINGS)
    def test_panels_abort_names_its_panel(self, tmp_path, capsys, timing):
        """Only the jump panel overflows; the abort names that panel and
        stream 0, at the step, time and state of the mode's own run."""
        text = (SMALL + "[jumps]\ndist = constant\nvalue = 1e154\nrho = 1e154\n"
                f"[engine]\njump_timing = {timing}\n")
        doc = parse_config(text)
        with np.errstate(all="ignore"):  # as in main
            for mode in INPUT_MODES[:3]:  # the other panels run through
                simulate_trajectory(make_scenario(doc.scenario_config(mode)), doc.build_grid(),
                                    doc.seed, jump_timing=timing)
            with pytest.raises(SimulationAbort) as alone:
                simulate_trajectory(make_scenario(doc.scenario_config("ou_reflected_jumps")),
                                    doc.build_grid(), doc.seed, jump_timing=timing)
        out = tmp_path / "x"
        assert run("--config", write_config(tmp_path, text), "--out", str(out), "panels") == 2
        a = alone.value
        assert capsys.readouterr().err == (
            f"runtime abort: non-finite {a.what} at step {a.step_index}, panel "
            f"ou_reflected_jumps, stream 0, t = {a.time!r}, state {a.state.tolist()}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, text", [
        ("stability", "[experiment]\nkind = stability\noffsets = 1e308,1e307\n"),
        ("simulate", "[ou]\ngamma = 1e-300\n"),
    ])
    def test_abort_is_one_line(self, tmp_path, capsys, command, text):
        # the overflow before the abort prints no numpy warning
        cfg = write_config(tmp_path, text)
        assert run("--config", cfg, "--out", str(tmp_path / "x"), command) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("runtime abort: non-finite drift at step ")

    def test_runtime_abort_on_memory_error(self, tmp_path, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(cli, "simulate_ensemble", exhausted)
        cfg = write_config(tmp_path, SMALL)
        assert run("--config", cfg, "--out", str(tmp_path / "x"), "simulate") == 2
        assert "runtime abort: MemoryError" in capsys.readouterr().err


class TestSummarize:
    def test_hand_built_bundle(self):
        grid = uniform_grid(0.5, 1.0)
        states = np.array([[0.0, 0.0], [0.4, 0.1], [0.2, 0.3]])
        phi_lower = np.array([[0.0, 0.0], [0.0, 0.0], [0.1, 0.0]])
        phi_upper = np.zeros((3, 2))
        bundle = TrajectoryBundle(
            grid=grid, states=states, phi_lower=phi_lower, phi_upper=phi_upper,
            jumps=np.array([], JUMP_LOG), master_seed=1, stream_index=0,
        )
        summary, = summarize([bundle])
        assert summary["terminal_state"] == [0.2, 0.3]
        assert summary["max_rate"] == [0.4, 0.3]
        assert summary["max_rate_time"] == [0.5, 1.0]
        assert summary["reflection_local_time"] == [0.1, 0.0]
        assert summary["jump_counts"] == [0, 0]
        assert summary["seminorms"]["sup_norm"] == pytest.approx(0.5)

    def test_zero_dynamics_bundle(self):
        grid = uniform_grid(0.5, 1.0)
        states = np.full((3, 2), 0.7)
        zeros = np.zeros((3, 2))
        bundle = TrajectoryBundle(
            grid=grid, states=states, phi_lower=zeros, phi_upper=zeros,
            jumps=np.array([], JUMP_LOG), master_seed=0, stream_index=0,
        )
        summary, = summarize([bundle])
        assert summary["max_rate"] == [0.7, 0.7]
        assert summary["reflection_local_time"] == [0.0, 0.0]

    def test_batch_matches_one_bundle_at_a_time(self):
        doc = parse_config("")
        grid = uniform_grid(0.5, 20.0)
        bundles = simulate_rows(make_scenario(doc.scenario_config(INPUT_MODES)), grid, 3)
        assert summarize(bundles) == [summarize([b])[0] for b in bundles]


def per_value(x) -> str:
    return format(float(x), ".17g")


class TestCsvWriters:
    """Both writers against the per-value formatter they replace."""

    def bundle(self):
        grid = uniform_grid(0.5, 1.5)
        states = np.array([[-0.0, 5e-324], [1e308, 0.1], [1 / 3, -2.5], [7.0, 1e-17]])
        phi_lower = np.array([[0.0, 0.0], [0.1, 0.0], [0.1, 1 / 3], [0.3, 1 / 3]])
        phi_upper = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 2e-300]])
        jumps = np.array([(0.0, 1.0, 0), (1.0, 0.5, 1), (1.2, 2.0, 0)], JUMP_LOG)
        return TrajectoryBundle(
            grid=grid, states=states, phi_lower=phi_lower, phi_upper=phi_upper,
            jumps=jumps, master_seed=3, stream_index=0,
        )

    def test_trajectory_csv_bytes(self, tmp_path):
        bundle = self.bundle()
        counts = bundle.cumulative_jump_counts()
        assert counts.tolist() == [[0, 0], [1, 0], [1, 1], [2, 1]]
        lines = [TRAJECTORY_HEADER]
        for k, t in enumerate(bundle.grid.times):
            lines.append(",".join([
                per_value(t),
                *(per_value(x) for x in bundle.states[k]),
                *(per_value(x) for x in bundle.phi[k]),
                *(str(int(n)) for n in counts[k]),
            ]))
        path = tmp_path / "trajectory.csv"
        cli.write_trajectory_csv(path, bundle)
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_long_csv_bytes(self, tmp_path):
        panels = {"a": self.bundle(), "b": self.bundle(), "c%d%%": self.bundle()}
        lines = ["scenario,series,t,value"]
        for mode, bundle in panels.items():
            for series, col in (("r_E", 0), ("r_I", 1)):
                for k, t in enumerate(bundle.grid.times):
                    lines.append(f"{mode},{series},{per_value(t)},"
                                 f"{per_value(bundle.states[k, col])}")
        path = tmp_path / "long.csv"
        cli.write_long_csv(path, [cli.write_trajectory_csv(tmp_path / "t.csv", bundle, None, mode)
                                  for mode, bundle in panels.items()])
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def column_table_trajectory(bundle) -> str:
    """The trajectory CSV as one ``%.17g``/``%d`` row template over the
    float table of all seven columns."""
    table = np.column_stack([bundle.grid.times, bundle.states, bundle.phi,
                             bundle.cumulative_jump_counts()])
    row = ",".join(["%.17g"] * 5 + ["%d"] * 2) + "\n"
    return f"{TRAJECTORY_HEADER}\n" + (row * len(table)) % tuple(table.ravel().tolist())


def column_table_long(panels) -> str:
    """The long CSV as one ``%.17g`` row template per scenario and series."""
    chunks = ["scenario,series,t,value\n"]
    for mode, bundle in panels.items():
        for series, col in (("r_E", 0), ("r_I", 1)):
            row = f"{mode.replace('%', '%%')},{series},%.17g,%.17g\n"
            pairs = np.column_stack([bundle.grid.times, bundle.states[:, col]])
            chunks.append((row * len(pairs)) % tuple(pairs.ravel().tolist()))
    return "".join(chunks)


class TestSharedTexts:
    """The writers share each value's text between the trajectory and long
    CSVs; the bytes equal those of per-cell row templates."""

    EDGES = [0.0, -0.0, 5e-324, -5e-324, -1e-300, 1e308, -1e308, 0.1, 1 / 3, 7.0]

    def bundle(self, shift):
        n = len(self.EDGES)
        grid = uniform_grid(0.1, 0.1 * (n - 1))
        values = np.roll(self.EDGES, shift)
        states = np.column_stack([values, values[::-1]])
        # x - 0.0 is x, so phi holds the edge values, -0.0 among them
        phi_lower = np.column_stack([np.linspace(0.0, 1e-300, n), np.roll(self.EDGES, shift + 1)])
        phi_upper = np.zeros((n, 2))
        # integer-valued counts up to 12 in coordinate 0, one jump in coordinate 1
        jumps = np.array([(0.01 * k, 1.0, 0) for k in range(12)] + [(0.45, -2.0, 1)], JUMP_LOG)
        return TrajectoryBundle(
            grid=grid, states=states, phi_lower=phi_lower, phi_upper=phi_upper,
            jumps=jumps, master_seed=5, stream_index=shift,
        )

    def panels(self):
        return {mode: self.bundle(k) for k, mode in
                enumerate(["white_noise", "c%d%%", "%s,%(x)s", "%"])}

    def test_edge_values_in_both_columns(self):
        bundle = self.bundle(0)
        assert bundle.cumulative_jump_counts()[-1].tolist() == [12, 1]
        assert np.signbit(bundle.states).any() and np.signbit(bundle.phi).any()
        assert (bundle.phi == 0.0).any() and (np.abs(bundle.phi) == 5e-324).any()

    def test_shared_texts_match_row_templates(self, tmp_path):
        # as cmd_panels writes them: one text of each grid time for all files
        panels = self.panels()
        times = cli._texts(self.bundle(0).grid.times)
        rows = [cli.write_trajectory_csv(tmp_path / f"panel_{k}.csv", bundle, times, mode)
                for k, (mode, bundle) in enumerate(panels.items())]
        for k, bundle in enumerate(panels.values()):
            assert (tmp_path / f"panel_{k}.csv").read_bytes() == (
                column_table_trajectory(bundle).encode())
        cli.write_long_csv(tmp_path / "long.csv", rows)
        assert (tmp_path / "long.csv").read_bytes() == column_table_long(panels).encode()

    def test_no_long_rows_without_a_mode(self, tmp_path):
        bundle = self.bundle(3)
        path = tmp_path / "trajectory.csv"
        assert cli.write_trajectory_csv(path, bundle, cli._texts(bundle.grid.times)) is None
        assert path.read_bytes() == column_table_trajectory(bundle).encode()

    def test_each_writer_alone(self, tmp_path):
        # no grid-time texts given: the writer makes its own
        panels = self.panels()
        rows = []
        for mode, bundle in panels.items():
            path = tmp_path / "trajectory.csv"
            rows.append(cli.write_trajectory_csv(path, bundle, mode=mode))
            assert path.read_bytes() == column_table_trajectory(bundle).encode()
        cli.write_long_csv(tmp_path / "long.csv", rows)
        assert (tmp_path / "long.csv").read_bytes() == column_table_long(panels).encode()

    @pytest.mark.parametrize("command, text, files", [
        ("panels", "", 4),
        ("simulate", "[engine]\nn_paths = 5\n[outputs]\nretain = 3\n", 3),
    ])
    def test_each_value_formatted_once_per_command(self, tmp_path, monkeypatch,
                                                   command, text, files):
        formatted = []
        texts = cli._texts
        monkeypatch.setattr(cli, "_texts", lambda v: formatted.append(np.shape(v)) or texts(v))
        cfg = write_config(tmp_path, SMALL + text)
        assert run("--config", cfg, "--out", str(tmp_path / "out"), command) == 0
        # the grid times, then each kept path's states, one coordinate at a time
        assert formatted == [(51,)] + [(51,)] * (2 * files)


class TestHelp:
    def test_subcommand_lines(self, capsys, monkeypatch):
        """The five subcommands, in order, with their help strings."""
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            run("--help")
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "  {simulate,panels,stability,converge,validate}\n" in out
        assert (
            "    simulate            run one scenario and write trajectory/summary files\n"
            "    panels              run all four input scenarios with a shared master seed\n"
            "    stability           initial-condition stability experiment\n"
            "    converge            dyadic strong-convergence experiment\n"
            "    validate            numeric Lipschitz / jump-coefficient checks\n"
        ) in out


class TestConfigSource:
    def test_override_fixes_file_value(self, tmp_path):
        cfg = write_config(tmp_path, SMALL + "[engine]\nn_paths = 0\n")
        out = tmp_path / "out"
        assert run("--config", cfg, "--paths", "3", "--out", str(out), "simulate") == 0
        assert json.loads((out / "summary.json").read_text())["n_paths"] == 3

    def test_directory_as_config_is_config_error(self, tmp_path, capsys):
        assert run("--config", str(tmp_path), "simulate") == 1
        assert "E_READ" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [("--seed", "abc"), ("--paths", "many")])
    def test_non_integer_flag_is_config_error(self, tmp_path, capsys, flags):
        cfg = write_config(tmp_path, SMALL)
        assert run("--config", cfg, *flags, "--out", str(tmp_path / "x"), "simulate") == 1
        assert "E_TYPE" in capsys.readouterr().err

    def test_missing_experiment_section(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run("--seed", "7", "--out", str(out), "stability") == 1
        err = capsys.readouterr().err
        assert "[E_MISSING_SECTION] stability needs an [experiment] section" in err
        assert "line 0" not in err
        assert not out.exists()

    @pytest.mark.parametrize("text, flags, where", [
        ("[grid]\ndt = 1e-7\n", (), "line 2: "),
        (SMALL, ("--paths", "1000000000000"), ""),
        ("[jumps]\nintensity = 10000000\n", (), "line 2: "),  # 2e9 expected jumps
    ])
    def test_over_memory_budget_is_config_error(self, tmp_path, capsys, text, flags, where):
        out = tmp_path / "x"
        cfg = write_config(tmp_path, text)
        assert run("--config", cfg, *flags, "--out", str(out), "simulate") == 1
        err = capsys.readouterr().err
        assert f"config error: {where}[E_INVARIANT] simulate needs" in err
        assert "memory budget" in err and "line 0" not in err
        assert not out.exists()

    def test_binary_config_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"\xff\xfe\x00")
        assert run("--config", str(path), "simulate") == 1
        assert "E_READ" in capsys.readouterr().err

    def test_byte_order_mark_is_read_past(self, tmp_path):
        text = SMALL + "[engine]\nseed = 5\n"
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        parser = cli.build_parser()
        docs = [cli._load_config(parser.parse_args(["--config", str(path), "simulate"]))
                for path in (plain, marked)]
        assert docs[0] == docs[1] and docs[0].seed == 5

    @pytest.mark.parametrize("data", [b"[grid]\ndt = 0.1 # \xe9\n",
                                      b"\xef\xbb\xbf[grid]\ndt = \xff\n"])
    def test_non_utf8_config_is_config_error(self, tmp_path, capsys, data):
        path = tmp_path / "run.cfg"
        path.write_bytes(data)
        assert run("--config", str(path), "--out", str(tmp_path / "x"), "simulate") == 1
        assert "E_READ" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command, text, line", [
        ("stability", "[experiment]\nkind = stability\nn_paths = 0\n", 3),
        ("converge", "[experiment]\nkind = converge\nn_paths = 0\n", 3),
        ("converge", "[experiment]\nkind = converge\nlevels = 0\n", 3),
        ("converge", "[experiment]\nkind = converge\nlevels = 28\n", 3),
        ("converge", "[experiment]\nkind = converge\nlevels =\n", 3),
        ("stability", "[experiment]\nkind = stability\noffsets =\n", 3),
        ("stability", "[experiment]\nkind = stability\n[grid]\ndt = 12.5\n", 4),
        ("simulate", "[grid]\ndt = nan\n", 2),
        ("simulate", "[grid]\nhorizon = inf\n", 2),
        ("simulate", "[grid]\ndt = 0.3\n", 2),
        ("simulate", "[grid]\ndt = 1e-13\n", 2),
        ("stability", "[experiment]\nkind = stability\noffsets = 0.1\n", 3),
        ("converge", "[experiment]\nkind = converge\nlevels = 5\n", 3),
        ("simulate", "[scenario]\ninput_mode = ou_reflected\nx0_e = -1\n", 3),
    ])
    def test_bad_input_names_its_line(self, tmp_path, capsys, command, text, line):
        cfg = write_config(tmp_path, text)
        out = tmp_path / "x"
        assert run("--config", cfg, "--out", str(out), command) == 1
        assert f"line {line}:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate", "simulate"])
    @pytest.mark.parametrize("text, lines", [
        ("[jumps]\ndist = uniform\nlo = -1e308\nhi = 1e308\n", [3, 4]),
        ("[jumps]\nmean = 1e200\n", [2]),
        ("[jumps]\ndist = constant\nvalue = 1e200\n", [3]),
    ])
    def test_overflowing_jump_sizes_name_their_line(self, tmp_path, capsys, command, text,
                                                    lines):
        cfg = write_config(tmp_path, text)
        assert run("--config", cfg, "--out", str(tmp_path / "x"), command) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"config error: line {n}: [E_INVARIANT] jump size range and second moment "
            "must be finite" for n in lines
        ]

    def test_panel_outside_its_domain_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL + "[scenario]\ninput_mode = white_noise\nx0_e = -1\n")
        out = tmp_path / "x"
        assert run("--config", cfg, "--out", str(out), "panels") == 1
        assert "outside the domain" in capsys.readouterr().err
        assert not out.exists()

    def test_panels_over_the_memory_budget_is_config_error(self, tmp_path, capsys):
        # 1.6e6 steps: simulate's one kept path fits the budget, four panels' do not
        cfg = write_config(tmp_path, "[grid]\ndt = 6.25e-5\n")
        out = tmp_path / "x"
        assert run("--config", cfg, "--out", str(out), "panels") == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: [E_INVARIANT] panels: the four-panel batch needs ")
        assert err.count("\n") == 1 and "memory budget" in err
        assert not out.exists()


FLOAT_KEYS = sorted(key for key, (_, default, _) in _SCHEMA.items() if type(default) is float)
EXTREMES = ("1e308", "-1e308", "5e-324", "-1", "0", "1e15")


def _numbers(text: str) -> list[float]:
    """Every number of a JSON document, or of a CSV file below its header."""
    found = []

    def keep(value):
        found.append(float(value))

    if text.startswith("{"):
        json.loads(text, parse_float=keep, parse_int=keep, parse_constant=keep)
    else:
        for field in ",".join(text.splitlines()[1:]).split(","):
            with contextlib.suppress(ValueError):  # a scenario or series name
                keep(field)
    return found


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(sorted(cli._COMMANDS)), mode=st.sampled_from(INPUT_MODES),
       timing=st.sampled_from(JUMP_TIMINGS),
       keys=st.dictionaries(st.sampled_from(FLOAT_KEYS), st.sampled_from(EXTREMES),
                            min_size=1, max_size=3))
@example(command="converge", mode="white_noise", timing="end_of_step",
         keys={("experiment", "horizon"): "5e-324"})  # a dyadic step of 0
@example(command="stability", mode="white_noise", timing="end_of_step",
         keys={("experiment", "offsets"): "1e160,1e-3"})  # a perturbation size of inf
@example(command="stability", mode="white_noise", timing="end_of_step",
         keys={("experiment", "offsets"): "7e153,1"})
def test_any_run_exits_cleanly(command, mode, timing, keys):
    """On a 2-unit horizon with 1 to 3 float keys at extreme values, every
    command ends in exit 0 with finite outputs, 1 (config errors, one stderr
    line each) or 2 (runtime abort, one stderr line, no output file), and
    nothing raises past main."""
    sections = {
        "scenario": {"input_mode": mode}, "grid": {"horizon": "2.0"},
        "engine": {"jump_timing": timing},
        "experiment": {"kind": command if command in ("stability", "converge") else "none",
                       "n_paths": "3", "horizon": "2.0", "levels": "2,3"},
    }
    for (section, key), value in keys.items():
        sections.setdefault(section, {})[key] = value
    text = "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in rows.items())
                   for section, rows in sections.items())
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "run.cfg", Path(tmp) / "out"
        cfg.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["--config", str(cfg), "--out", str(out), command])
        written = sorted(out.iterdir()) if out.exists() else []
        assert code in (0, 1, 2), text
        if code == 1:
            assert all(line.startswith("config error: ")
                       for line in err.getvalue().splitlines()), text
        if code == 0:
            for path in written:
                assert all(map(math.isfinite, _numbers(path.read_text()))), (text, path.name)
        if code == 2:
            assert written == [], text
            assert err.getvalue().count("\n") == 1, text


SUMMARIZED = "[engine]\nn_paths = 5\n[outputs]\nretain = 5\n"
STABILITY_20 = "[experiment]\nkind = stability\nn_paths = 20\n"
CONVERGE = "[experiment]\nkind = converge\n"
# the finer grids: dt = 0.01, a tenth of the default, on a 20 ms horizon for
# simulate and panels, whose Sobolev seminorm costs n_points**2 per kept path
# (panels takes 4.5 s at the default 100 ms); for converge, levels one finer
# (steps 2x), as tracemalloc slows each step about 5x
FINER_STEPS = "[grid]\nhorizon = 20.0\ndt = 0.01\n"
# one kept path on 3001 points: the CSV writers' texts and lists outgrow the
# count's slack, which the arrays of a wider batch provide
ONE_PATH_LONG = "[engine]\nn_paths = 1\n[grid]\nhorizon = 30.0\ndt = 0.01\n"
WHOLE_COMMANDS = {  # id: (command, config text, the name check_budget counts it under)
    "simulate": ("simulate", SUMMARIZED, "simulate"),
    "simulate_finer": ("simulate", SUMMARIZED + FINER_STEPS, "simulate"),
    "simulate_one_path_3001_points": ("simulate", ONE_PATH_LONG, "simulate"),
    "panels": ("panels", "", "the four-panel batch"),
    "panels_finer": ("panels", FINER_STEPS, "the four-panel batch"),
    "stability": ("stability", STABILITY_20, "stability"),
    "stability_finer": ("stability", STABILITY_20 + "[grid]\ndt = 0.01\n", "stability"),
    "converge": ("converge", CONVERGE, "converge"),
    "converge_finer": ("converge", CONVERGE + "levels = 5,6,7,8,9,10\nn_paths = 20\n",
                       "converge"),
}


class TestWholeCommandMemory:
    """A whole command, run through :func:`cli.main`, holds at most the
    bytes that its config's :func:`check_budget` call counted: ``simulate``
    with every path retained, ``panels``, ``stability`` and ``converge``, on
    the default grid and on a finer one."""

    @pytest.fixture(scope="class", autouse=True)
    def warm(self, tmp_path_factory):
        """A process's first run of each command imports modules and fills
        caches that later runs reuse; those are not the command's arrays."""
        tiny = tmp_path_factory.mktemp("warm")
        for command, text in (("simulate", ""), ("panels", ""),
                              ("stability", "kind = stability\nn_paths = 2\n"),
                              ("converge", "kind = converge\nn_paths = 2\nlevels = 2,3\n")):
            cfg = write_config(tiny, f"[grid]\nhorizon = 1.0\n[experiment]\nhorizon = 1.0\n{text}")
            assert run("--config", cfg, "--out", str(tiny / command), command) == 0

    @pytest.mark.parametrize("case", WHOLE_COMMANDS)
    def test_peak_within_the_counted_bytes(self, case, tmp_path, monkeypatch):
        command, text, name = WHOLE_COMMANDS[case]
        counted = {}

        def spy(command, *args, **kwargs):
            counted[command] = check_budget(command, *args, **kwargs)
            return counted[command]

        monkeypatch.setattr(config, "check_budget", spy)
        monkeypatch.setattr(cli, "check_budget", spy)
        cfg = write_config(tmp_path, text)
        tracemalloc.start()
        try:
            assert run("--config", cfg, "--out", str(tmp_path / "out"), command) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= counted[name]
