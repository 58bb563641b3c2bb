"""Integration tests for the command-line surface: file outputs, summaries,
seed precedence and exit codes."""
import json

import numpy as np
import pytest

from skorokhod_sde import (
    JumpEvent,
    TrajectoryBundle,
    make_scenario,
    parse_config,
    simulate_trajectory,
    uniform_grid,
)
from skorokhod_sde import cli
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


def per_value(x) -> str:
    return format(float(x), ".17g")


class TestCsvWriters:
    """Both writers against the per-value formatter they replace."""

    def bundle(self):
        grid = uniform_grid(0.5, 1.5)
        states = np.array([[-0.0, 5e-324], [1e308, 0.1], [1 / 3, -2.5], [7.0, 1e-17]])
        phi_lower = np.array([[0.0, 0.0], [0.1, 0.0], [0.1, 1 / 3], [0.3, 1 / 3]])
        phi_upper = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 2e-300]])
        jumps = (JumpEvent(0.0, 1.0, 0), JumpEvent(1.0, 0.5, 1), JumpEvent(1.2, 2.0, 0))
        return TrajectoryBundle(
            grid=grid, states=states, phi=phi_lower - phi_upper,
            phi_lower=phi_lower, phi_upper=phi_upper, jumps=jumps,
            master_seed=3, stream_index=0,
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
        panels = {"a": self.bundle(), "b": self.bundle()}
        lines = ["scenario,series,t,value"]
        for mode, bundle in panels.items():
            for series, col in (("r_E", 0), ("r_I", 1)):
                for k, t in enumerate(bundle.grid.times):
                    lines.append(f"{mode},{series},{per_value(t)},"
                                 f"{per_value(bundle.states[k, col])}")
        path = tmp_path / "long.csv"
        cli.write_long_csv(path, panels)
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


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
