"""Command-line surface: scenario runs, the four-panel comparison, and the
stability / convergence / assumption-validation experiments.

Exit codes: 0 success, 1 configuration error, 2 runtime abort.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    seminorm_report,
    stability_experiment,
    strong_convergence_experiment,
)
from .config import (
    E_INVARIANT,
    E_MISSING_SECTION,
    E_READ,
    ConfigDocument,
    ConfigError,
    ConfigIssue,
    emit_config,
    parse_config,
)
from .engine import (
    SimulationAbort,
    TrajectoryBundle,
    simulate_ensemble,
    simulate_trajectory,
    uniform_grid,
)
from .models import (
    INPUT_MODES,
    check_jump_coefficient_bound,
    estimate_lipschitz_constant,
    make_scenario,
    sigmoid_F,
    wilson_cowan_diffusion,
    wilson_cowan_drift,
)

SEED_ENV_VAR = "SKOROKHOD_SDE_SEED"

TRAJECTORY_HEADER = "t,r_E,r_I,phi_E,phi_I,jump_count_E,jump_count_I"


def write_trajectory_csv(path: Path, bundle: TrajectoryBundle) -> None:
    columns = [bundle.grid.times, bundle.states, bundle.phi, bundle.cumulative_jump_counts()]
    np.savetxt(path, np.column_stack(columns), fmt=["%.17g"] * 5 + ["%d"] * 2,
               delimiter=",", header=TRAJECTORY_HEADER, comments="")


def write_long_csv(path: Path, panels: dict[str, TrajectoryBundle]) -> None:
    """Plot-ready long format: scenario,series,t,value."""
    lines = ["scenario,series,t,value"]
    for mode, bundle in panels.items():
        times = bundle.grid.times.tolist()
        for series, col in (("r_E", 0), ("r_I", 1)):
            lines += [f"{mode},{series},{t:.17g},{v:.17g}"
                      for t, v in zip(times, bundle.states[:, col].tolist())]
    path.write_text("\n".join(lines) + "\n")


def summarize(bundle: TrajectoryBundle) -> dict:
    """Terminal state, peak rates, reflection local time, jump totals and
    path seminorms of one trajectory."""
    times = bundle.grid.times
    states = bundle.states
    counts = bundle.cumulative_jump_counts()
    peaks = states.argmax(axis=0)
    report = seminorm_report(states, times)
    return {
        "schema_version": 1,
        "terminal_state": [float(v) for v in states[-1]],
        "max_rate": [float(states[peaks[c], c]) for c in range(2)],
        "max_rate_time": [float(times[peaks[c]]) for c in range(2)],
        "reflection_local_time": [float(v) for v in bundle.phi_tv[-1]],
        "jump_counts": [int(counts[-1, c]) for c in range(2)],
        "seminorms": dataclasses.asdict(report),
        "seed": {"master_seed": bundle.master_seed,
                 "stream_index": bundle.stream_index},
    }


def _write_json(path: Path, payload: dict) -> None:
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:  # a NaN or infinity, which JSON cannot hold
        raise OSError(f"{path} not written: {exc}") from None
    path.write_text(text + "\n")


def _out_dir(doc: ConfigDocument) -> Path:
    out = Path(doc.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_config(args) -> ConfigDocument:
    """The config file with the flags as overrides and the seed environment
    variable as a fallback, validated once."""
    text = ""
    if args.config is not None:
        try:
            text = Path(args.config).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError([ConfigIssue(E_READ, 0, f"cannot read {args.config}: {exc}")])
    flags = {("engine", "seed"): args.seed, ("engine", "n_paths"): args.paths,
             ("outputs", "dir"): args.out}
    overrides = {key: value for key, value in flags.items() if value is not None}
    env = os.environ.get(SEED_ENV_VAR)
    fallbacks = {} if env is None else {("engine", "seed"): env}
    return parse_config(text, overrides, fallbacks)


def cmd_simulate(doc: ConfigDocument) -> int:
    model = make_scenario(doc.scenario_config())
    result = simulate_ensemble(
        model, doc.build_grid(), doc.n_paths, doc.seed,
        retain=max(doc.retain, 1), jump_timing=doc.jump_timing,
    )
    summary = {
        "config": emit_config(doc),
        "scenario": doc.input_mode,
        "n_paths": doc.n_paths,
        "trajectories": [summarize(b) for b in result.bundles],
        "ensemble_terminal_mean": [float(v) for v in result.terminal_mean],
        "ensemble_terminal_variance": [float(v) for v in result.terminal_variance],
    }
    # the JSON first: a value it cannot hold aborts before any file is written
    out = _out_dir(doc)
    _write_json(out / "summary.json", summary)
    for bundle in result.bundles:
        write_trajectory_csv(out / f"trajectory_{bundle.stream_index:03d}.csv", bundle)
    write_long_csv(out / "long.csv", {doc.input_mode: result.bundles[0]})
    return 0


def cmd_panels(doc: ConfigDocument) -> int:
    try:
        scenarios = {mode: make_scenario(doc.scenario_config(mode)) for mode in INPUT_MODES}
    except ValueError as exc:  # x0 outside the domain of a reflected panel
        raise ConfigError([ConfigIssue(E_INVARIANT, 0, f"panels: {exc}")]) from None
    grid = doc.build_grid()
    panels = {mode: simulate_trajectory(model, grid, doc.seed, jump_timing=doc.jump_timing)
              for mode, model in scenarios.items()}
    summaries = {mode: summarize(bundle) for mode, bundle in panels.items()}
    out = _out_dir(doc)  # the JSON first, as in cmd_simulate
    _write_json(out / "panels_summary.json", {"master_seed": doc.seed, "panels": summaries})
    for mode, bundle in panels.items():
        write_trajectory_csv(out / f"panel_{mode}.csv", bundle)
    write_long_csv(out / "panels_long.csv", panels)
    return 0


def _require_experiment(doc: ConfigDocument, kind: str) -> None:
    if doc.experiment.kind != kind:
        raise ConfigError([ConfigIssue(
            E_MISSING_SECTION, 0, f"{kind} needs an [experiment] section with kind = {kind}"
        )])
    if doc.jump_timing != "end_of_step":  # the experiments add jumps at step ends
        raise ConfigError([ConfigIssue(
            E_INVARIANT, 0, f"{kind} needs [engine] jump_timing = end_of_step"
        )])


def cmd_stability(doc: ConfigDocument) -> int:
    _require_experiment(doc, "stability")
    exp = doc.experiment
    model = make_scenario(doc.scenario_config())
    grid = uniform_grid(doc.dt, exp.horizon)
    report = stability_experiment(model, grid, exp.offsets, exp.n_paths, doc.seed)
    _write_json(_out_dir(doc) / "stability.json",
                {"config": emit_config(doc), **dataclasses.asdict(report)})
    return 0


def cmd_converge(doc: ConfigDocument) -> int:
    _require_experiment(doc, "converge")
    exp = doc.experiment
    model = make_scenario(doc.scenario_config())
    report = strong_convergence_experiment(
        model, exp.levels, exp.n_paths, doc.seed, exp.horizon
    )
    _write_json(_out_dir(doc) / "convergence.json",
                {"config": emit_config(doc), **dataclasses.asdict(report)})
    return 0


def cmd_validate(doc: ConfigDocument) -> int:
    params = doc.params
    box = (np.zeros(2), np.ones(2))
    n = 2 * 10**4
    drift_L, _ = estimate_lipschitz_constant(
        lambda x: wilson_cowan_drift(x, params, params.I_ext_E, params.I_ext_I),
        box, n_samples=n,
    )
    diff_L, _ = estimate_lipschitz_constant(
        lambda x: wilson_cowan_diffusion(x, params), box, n_samples=n
    )
    sig_L, _ = estimate_lipschitz_constant(
        lambda x: sigmoid_F(x[:, 0], params.theta_E, params.a_E),
        (np.array([-5.0]), np.array([10.0])), n_samples=n,
    )
    a3 = check_jump_coefficient_bound(
        lambda x, xi: doc.rho * xi, doc.scenario_config().jumps, box, n_samples=n
    )
    payload = {
        "config": emit_config(doc),
        "lipschitz": {
            "drift": drift_L,
            "diffusion": diff_L,
            "sigmoid": sig_L,
            "sigmoid_analytic_bound": params.a_E / 4.0,
        },
        "jump_bound": {
            "c_rho": a3.c_rho,
            "growth_ratio": a3.growth_ratio,
            "lipschitz_ratio": a3.lipschitz_ratio,
            "passed": bool(a3.passed),
        },
    }
    _write_json(_out_dir(doc) / "validate.json", payload)
    print(json.dumps(payload["lipschitz"], sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skorokhod-sde",
        description="Reflected jump-diffusion simulation toolkit",
    )
    parser.add_argument("--config", metavar="PATH", help="config document")
    parser.add_argument("--seed", help="master seed override")
    parser.add_argument("--out", metavar="DIR", help="output directory override")
    parser.add_argument("--paths", help="number of trajectories override")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "run one scenario and write trajectory/summary files"),
        ("panels", "run all four input scenarios with a shared master seed"),
        ("stability", "initial-condition stability experiment"),
        ("converge", "dyadic strong-convergence experiment"),
        ("validate", "numeric Lipschitz / jump-coefficient checks"),
    ):
        sub.add_parser(name, help=help_text)
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "panels": cmd_panels,
    "stability": cmd_stability,
    "converge": cmd_converge,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # non-finite values are judged by the isfinite and allow_nan=False checks
    with np.errstate(all="ignore"):
        try:
            doc = _load_config(args)
            return _COMMANDS[args.command](doc)
        except ConfigError as exc:
            for issue in exc.issues:
                print(f"config error: {issue}", file=sys.stderr)
            return 1
        except (SimulationAbort, OSError, MemoryError) as exc:
            print(f"runtime abort: {str(exc) or type(exc).__name__}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
