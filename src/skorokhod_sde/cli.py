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
    ConfigDocument,
    ConfigError,
    emit_config,
    invariant_issues,
    parse_config,
)
from .engine import (
    SimulationAbort,
    TrajectoryBundle,
    simulate_ensemble,
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


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_trajectory_csv(path: Path, bundle: TrajectoryBundle) -> None:
    times = bundle.grid.times
    counts = bundle.cumulative_jump_counts()
    lines = [TRAJECTORY_HEADER]
    for k in range(times.size):
        lines.append(",".join([
            _fmt(times[k]),
            _fmt(bundle.states[k, 0]), _fmt(bundle.states[k, 1]),
            _fmt(bundle.phi[k, 0]), _fmt(bundle.phi[k, 1]),
            str(counts[k, 0]), str(counts[k, 1]),
        ]))
    path.write_text("\n".join(lines) + "\n")


def write_long_csv(path: Path, panels: dict[str, TrajectoryBundle]) -> None:
    """Plot-ready long format: scenario,series,t,value."""
    lines = ["scenario,series,t,value"]
    for mode, bundle in panels.items():
        times = bundle.grid.times
        for series, col in (("r_E", 0), ("r_I", 1)):
            for k in range(times.size):
                lines.append(
                    f"{mode},{series},{_fmt(times[k])},{_fmt(bundle.states[k, col])}"
                )
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
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _load_config(args) -> ConfigDocument:
    if args.config is not None:
        text = Path(args.config).read_text()
    else:
        text = ""
    doc = parse_config(text)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    elif not _text_sets_seed(text):
        env = os.environ.get(SEED_ENV_VAR)
        if env is not None:
            try:
                overrides["seed"] = int(env)
            except ValueError:
                raise ConfigError(
                    [_issue(f"{SEED_ENV_VAR}={env!r} is not an integer")]
                )
    if args.paths is not None:
        overrides["n_paths"] = args.paths
    if args.out is not None:
        overrides["out_dir"] = args.out
    if overrides:
        doc = dataclasses.replace(doc, **overrides)
        issues = invariant_issues(doc)
        if issues:
            raise ConfigError(issues)
    return doc


def _issue(message: str):
    from .config import ConfigIssue, E_TYPE

    return ConfigIssue(E_TYPE, 0, message)


def _text_sets_seed(text: str) -> bool:
    section = None
    for line in text.splitlines():
        stmt = line.split("#", 1)[0].strip()
        if stmt.startswith("[") and stmt.endswith("]"):
            section = stmt[1:-1].strip()
        elif section == "engine" and "=" in stmt:
            if stmt.split("=", 1)[0].strip() == "seed":
                return True
    return False


def _scenario_inputs(doc: ConfigDocument, mode: str | None = None):
    scenario = doc.scenario_config(mode)
    return make_scenario(scenario), scenario.grid


def cmd_simulate(doc: ConfigDocument) -> int:
    model, grid = _scenario_inputs(doc)
    result = simulate_ensemble(
        model, grid, doc.n_paths, doc.seed,
        retain=max(doc.retain, 1), jump_timing=doc.jump_timing,
    )
    out = Path(doc.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for bundle in result.bundles:
        write_trajectory_csv(out / f"trajectory_{bundle.stream_index:03d}.csv", bundle)
    write_long_csv(out / "long.csv", {doc.input_mode: result.bundles[0]})
    summary = {
        "config": emit_config(doc),
        "scenario": doc.input_mode,
        "n_paths": doc.n_paths,
        "trajectories": [summarize(b) for b in result.bundles],
        "ensemble_terminal_mean": [float(v) for v in result.mean[-1]],
        "ensemble_terminal_variance": [float(v) for v in result.variance[-1]],
    }
    _write_json(out / "summary.json", summary)
    return 0


def cmd_panels(doc: ConfigDocument) -> int:
    out = Path(doc.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    panels = {}
    summaries = {}
    for mode in INPUT_MODES:
        model, grid = _scenario_inputs(doc, mode)
        result = simulate_ensemble(model, grid, 1, doc.seed, retain=1,
                                   jump_timing=doc.jump_timing)
        bundle = result.bundles[0]
        panels[mode] = bundle
        summaries[mode] = summarize(bundle)
        write_trajectory_csv(out / f"panel_{mode}.csv", bundle)
    write_long_csv(out / "panels_long.csv", panels)
    _write_json(out / "panels_summary.json",
                {"master_seed": doc.seed, "panels": summaries})
    return 0


def _require_experiment(doc: ConfigDocument, kind: str) -> None:
    if doc.experiment.kind != kind:
        raise ConfigError([_issue(
            f"this command needs an [experiment] section with kind = {kind}"
        )])


def cmd_stability(doc: ConfigDocument) -> int:
    _require_experiment(doc, "stability")
    exp = doc.experiment
    model, _ = _scenario_inputs(doc)
    grid = uniform_grid(doc.dt, exp.horizon)
    report = stability_experiment(model, grid, exp.offsets, exp.n_paths, doc.seed)
    out = Path(doc.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "stability.json", {
        "config": emit_config(doc),
        "perturbation_sizes": list(report.perturbation_sizes),
        "errors": list(report.errors),
        "fitted_slope": report.fitted_slope,
        "n_paths": report.n_paths,
    })
    return 0


def cmd_converge(doc: ConfigDocument) -> int:
    _require_experiment(doc, "converge")
    exp = doc.experiment
    model, _ = _scenario_inputs(doc)
    report = strong_convergence_experiment(
        model, exp.levels, exp.n_paths, doc.seed, exp.horizon
    )
    out = Path(doc.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "convergence.json", {
        "config": emit_config(doc),
        "levels": list(report.levels),
        "dts": list(report.dts),
        "rms_errors": list(report.rms_errors),
        "empirical_order": report.empirical_order,
        "reference_level": report.reference_level,
        "n_paths": report.n_paths,
    })
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
    rho_amp = doc.rho
    a3 = check_jump_coefficient_bound(
        lambda x, xi: rho_amp * xi, doc.scenario_config().jumps_E, box,
        n_samples=n,
    )
    out = Path(doc.out_dir)
    out.mkdir(parents=True, exist_ok=True)
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
    _write_json(out / "validate.json", payload)
    print(json.dumps(payload["lipschitz"], sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skorokhod-sde",
        description="Reflected jump-diffusion simulation toolkit",
    )
    parser.add_argument("--config", metavar="PATH", help="config document")
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--out", metavar="DIR", help="output directory override")
    parser.add_argument("--paths", type=int, help="number of trajectories override")
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
    try:
        doc = _load_config(args)
        return _COMMANDS[args.command](doc)
    except ConfigError as exc:
        for issue in exc.issues:
            print(f"config error: {issue}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (SimulationAbort, OSError) as exc:
        print(f"runtime abort: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
