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
from collections.abc import Sequence
from itertools import chain
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
    check_budget,
    simulate_ensemble,
    simulate_rows,
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
_TRAJECTORY_ROW = "%s,%s,%s,%.17g,%.17g,%d,%d\n"  # texts of t, r_E, r_I; then phi, counts


def _texts(values) -> list[str]:
    """The ``%.17g`` text of each value of a 1-d array."""
    return ("%.17g\n" * values.size % tuple(values.tolist())).splitlines()


def write_trajectory_csv(path: Path, bundle: TrajectoryBundle, times=None, mode=None):
    """Write the bundle's trajectory CSV from the texts of its grid ``times``,
    if given, and of its states, each made once; with a scenario name
    ``mode``, return its rows of the long CSV, made as they are read."""
    times = _texts(bundle.grid.times) if times is None else times
    r_e, r_i = map(_texts, bundle.states.T)
    rows = zip(times, r_e, r_i, *bundle.phi.T.tolist(),
               *bundle.cumulative_jump_counts().T.tolist())
    with path.open("w") as out:  # row by row: no text of the whole file is made
        out.writelines(chain([f"{TRAJECTORY_HEADER}\n"], map(_TRAJECTORY_ROW.__mod__, rows)))
    if mode is not None:
        return (f"{mode},{series},{t},{v}\n" for series, values in
                (("r_E", r_e), ("r_I", r_i)) for t, v in zip(times, values))


def write_long_csv(path: Path, scenarios) -> None:
    """Plot-ready long format: scenario,series,t,value, from the rows that
    :func:`write_trajectory_csv` returned for each scenario, taken in turn."""
    with path.open("w") as out:
        out.writelines(chain(["scenario,series,t,value\n"], chain.from_iterable(scenarios)))


def summarize(bundles: Sequence[TrajectoryBundle]) -> list[dict]:
    """Terminal state, peak rates, reflection local time, jump totals and
    path seminorms of each kept trajectory of one command, on one grid."""
    times = bundles[0].grid.times
    reports = seminorm_report(np.stack([b.states for b in bundles], axis=1), times)
    summaries = []
    for bundle, report in zip(bundles, reports):
        states = bundle.states
        peaks = states.argmax(axis=0)
        summaries.append({
            "schema_version": 1,
            "terminal_state": [float(v) for v in states[-1]],
            "max_rate": [float(states[peaks[c], c]) for c in range(2)],
            "max_rate_time": [float(times[peaks[c]]) for c in range(2)],
            "reflection_local_time": [float(v) for v in bundle.phi_tv[-1]],
            "jump_counts": np.bincount(bundle.jumps["coord"], minlength=2).tolist(),
            "seminorms": dataclasses.asdict(report),
            "seed": {"master_seed": bundle.master_seed,
                     "stream_index": bundle.stream_index},
        })
    return summaries


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
            text = Path(args.config).read_text(encoding="utf-8-sig")
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
        "trajectories": summarize(result.bundles),
        "ensemble_terminal_mean": [float(v) for v in result.terminal_mean],
        "ensemble_terminal_variance": [float(v) for v in result.terminal_variance],
    }
    # the JSON first: a value it cannot hold aborts before any file is written
    out = _out_dir(doc)
    _write_json(out / "summary.json", summary)
    times = _texts(result.bundles[0].grid.times)  # once per command
    for b, mode in zip(result.bundles, [doc.input_mode] + [None] * len(result.bundles)):
        rows = write_trajectory_csv(out / f"trajectory_{b.stream_index:03d}.csv", b, times, mode)
        if mode is not None:  # the first path's, before the next path's texts are made
            write_long_csv(out / "long.csv", [rows])
    return 0


def cmd_panels(doc: ConfigDocument) -> int:
    """Step the four input modes as the rows of one batch, on the inputs of
    stream 0 (see :func:`simulate_rows`)."""
    grid = doc.build_grid()
    try:
        model = make_scenario(doc.scenario_config(INPUT_MODES))
        # one stream's inputs and the histories of the four rows, summarized
        check_budget("the four-panel batch", model, grid.horizon, grid.n_steps, 1,
                     len(INPUT_MODES), doc.jump_timing == "exact", summarized=True)
    except ValueError as exc:  # x0 outside a reflected panel's domain, or over the budget
        raise ConfigError([ConfigIssue(E_INVARIANT, 0, f"panels: {exc}")]) from None
    try:
        bundles = simulate_rows(model, grid, doc.seed, jump_timing=doc.jump_timing)
    except SimulationAbort as exc:  # name the panel, not its batch row
        raise SimulationAbort(exc.step_index, exc.what, 0, exc.time, exc.state,
                              f"panel {INPUT_MODES[exc.row]}, stream 0") from None
    summaries = dict(zip(INPUT_MODES, summarize(bundles)))
    out = _out_dir(doc)  # the JSON first, as in cmd_simulate
    _write_json(out / "panels_summary.json", {"master_seed": doc.seed, "panels": summaries})
    times = _texts(grid.times)  # one bundle's other texts are held at a time
    write_long_csv(out / "panels_long.csv", (write_trajectory_csv(
        out / f"panel_{mode}.csv", b, times, mode) for mode, b in zip(INPUT_MODES, bundles)))
    return 0


def _experiment(doc: ConfigDocument, kind: str, file_name: str, run) -> int:
    """Run the ``[experiment]`` of ``kind`` as ``run(model, experiment)`` on
    the scenario model and write its report with the config to ``file_name``."""
    if doc.experiment.kind != kind:
        raise ConfigError([ConfigIssue(
            E_MISSING_SECTION, 0, f"{kind} needs an [experiment] section with kind = {kind}"
        )])
    if doc.jump_timing != "end_of_step":  # the experiments add jumps at step ends
        raise ConfigError([ConfigIssue(
            E_INVARIANT, 0, f"{kind} needs [engine] jump_timing = end_of_step"
        )])
    report = run(make_scenario(doc.scenario_config()), doc.experiment)
    _write_json(_out_dir(doc) / file_name,
                {"config": emit_config(doc), **dataclasses.asdict(report)})
    return 0


def cmd_stability(doc: ConfigDocument) -> int:
    return _experiment(doc, "stability", "stability.json", lambda model, exp: stability_experiment(
        model, doc.build_grid(exp.horizon), exp.offsets, exp.n_paths, doc.seed))


def cmd_converge(doc: ConfigDocument) -> int:
    return _experiment(doc, "converge", "convergence.json", lambda model, exp: (
        strong_convergence_experiment(model, exp.levels, exp.n_paths, doc.seed, exp.horizon)))


def cmd_validate(doc: ConfigDocument) -> int:
    params = doc.params
    box = (np.zeros(2), np.ones(2))
    n = 2 * 10**4
    lipschitz = {name: estimate_lipschitz_constant(fn, on, n_samples=n) for name, fn, on in (
        ("drift", lambda x: wilson_cowan_drift(x, params), box),
        ("diffusion", lambda x: wilson_cowan_diffusion(x, params), box),
        ("sigmoid", lambda x: sigmoid_F(x[:, 0], params.theta_E, params.a_E),
         (np.array([-5.0]), np.array([10.0]))),
    )}
    a3 = check_jump_coefficient_bound(
        lambda x, xi: doc.rho * xi, doc.scenario_config().jumps, box, n_samples=n
    )
    payload = {
        "config": emit_config(doc),
        "lipschitz": {**lipschitz, "sigmoid_analytic_bound": params.a_E / 4.0},
        "jump_bound": dataclasses.asdict(a3),
    }
    _write_json(_out_dir(doc) / "validate.json", payload)
    print(json.dumps(payload["lipschitz"], sort_keys=True))
    return 0


_COMMANDS = {  # name: (handler, help)
    "simulate": (cmd_simulate, "run one scenario and write trajectory/summary files"),
    "panels": (cmd_panels, "run all four input scenarios with a shared master seed"),
    "stability": (cmd_stability, "initial-condition stability experiment"),
    "converge": (cmd_converge, "dyadic strong-convergence experiment"),
    "validate": (cmd_validate, "numeric Lipschitz / jump-coefficient checks"),
}


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
    for name, (_, help_text) in _COMMANDS.items():
        sub.add_parser(name, help=help_text)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # non-finite values are judged by the isfinite and allow_nan=False checks
    with np.errstate(all="ignore"):
        try:
            doc = _load_config(args)
            return _COMMANDS[args.command][0](doc)
        except ConfigError as exc:
            for issue in exc.issues:
                print(f"config error: {issue}", file=sys.stderr)
            return 1
        except (SimulationAbort, OSError, MemoryError) as exc:
            print(f"runtime abort: {str(exc) or type(exc).__name__}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
