"""Integration tests for the command-line surface: file outputs, summaries,
seed precedence and exit codes."""
import json

import numpy as np
import pytest

from skorokhod_sde import (
    TrajectoryBundle,
    make_scenario,
    parse_config,
    simulate_trajectory,
    uniform_grid,
)
from skorokhod_sde.cli import SEED_ENV_VAR, TRAJECTORY_HEADER, main, summarize

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


class TestSummarize:
    def test_hand_built_bundle(self):
        grid = uniform_grid(0.5, 1.0)
        states = np.array([[0.0, 0.0], [0.4, 0.1], [0.2, 0.3]])
        phi_lower = np.array([[0.0, 0.0], [0.0, 0.0], [0.1, 0.0]])
        phi_upper = np.zeros((3, 2))
        bundle = TrajectoryBundle(
            grid=grid, states=states, phi=phi_lower - phi_upper,
            phi_lower=phi_lower, phi_upper=phi_upper, jumps=(),
            master_seed=1, stream_index=0,
        )
        summary = summarize(bundle)
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
            grid=grid, states=states, phi=zeros, phi_lower=zeros,
            phi_upper=zeros, jumps=(), master_seed=0, stream_index=0,
        )
        summary = summarize(bundle)
        assert summary["max_rate"] == [0.7, 0.7]
        assert summary["reflection_local_time"] == [0.0, 0.0]
