"""Output-correctness gate: every command the benchmark runs is checked here
before its time counts.

A command passes when it exited 0, wrote the files its command writes, every
number in them is finite, reflected rates are >= 0, reflection terms and jump
counts never decrease, every CSV float survives a 17-digit round trip, the
files agree with each other, and, on the golden seed, trajectory CSVs are
byte-identical to the recorded digests and JSON numbers match the recorded
ones within ``REL_TOL``.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from workloads import MODES, N_POINTS, REFLECTED_MODES

# Ensemble moments may move by this much relative when their summation
# order changes; trajectories and CSVs may not move at all.
REL_TOL = 1e-12

TRAJECTORY_HEADER = ["t", "r_E", "r_I", "phi_E", "phi_I", "jump_count_E", "jump_count_I"]
HORIZON = 100.0

OUTPUTS = {
    "simulate": ("trajectory_000.csv", "long.csv", "summary.json"),
    "panels": tuple(f"panel_{m}.csv" for m in MODES) + ("panels_long.csv", "panels_summary.json"),
    "stability": ("stability.json",),
    "converge": ("convergence.json",),
}


def digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _float(s: str, where: str, problems: list) -> float:
    try:
        v = float(s)
    except ValueError:
        problems.append(f"{where}: {s!r} is not a number")
        return math.nan
    if not math.isfinite(v):
        problems.append(f"{where}: non-finite {s}")
    elif format(v, ".17g") != s:
        problems.append(f"{where}: {s!r} does not round-trip at 17 digits")
    return v


def _int(s: str, where: str, problems: list) -> int:
    try:
        v = int(s)
    except ValueError:
        problems.append(f"{where}: {s!r} is not an integer")
        return -1
    if str(v) != s or v < 0:
        problems.append(f"{where}: bad count {s!r}")
    return v


def check_trajectory_csv(path: Path, reflected: bool, jumps: bool, problems: list):
    """Check one trajectory CSV; returns its columns as (strings, values),
    or None when they cannot be compared further."""
    found: list[str] = []
    cols = _trajectory_columns(path, reflected, jumps, found)
    problems.extend(found)
    return None if found else cols


def _trajectory_columns(path: Path, reflected: bool, jumps: bool, problems: list):
    lines = path.read_text().splitlines()
    if not lines or lines[0].split(",") != TRAJECTORY_HEADER:
        problems.append(f"{path.name}: bad header")
        return None
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != N_POINTS or any(len(r) != 7 for r in rows):
        problems.append(f"{path.name}: expected {N_POINTS} rows of 7 fields")
        return None
    text = list(zip(*rows))
    values = []
    for c, col in enumerate(text):
        conv = _int if c >= 5 else _float
        values.append([conv(s, f"{path.name}:{TRAJECTORY_HEADER[c]}", problems) for s in col])
    if problems:
        return None
    t = values[0]
    if t[0] != 0.0 or t[-1] != HORIZON or any(b <= a for a, b in zip(t, t[1:])):
        problems.append(f"{path.name}: time column is not 0 < ... < {HORIZON}")
    for c in (3, 4, 5, 6):
        col = values[c]
        if any(b < a for a, b in zip(col, col[1:])):
            problems.append(f"{path.name}: {TRAJECTORY_HEADER[c]} decreases")
    if reflected and (min(values[1]) < 0 or min(values[2]) < 0):
        problems.append(f"{path.name}: reflected rate below 0")
    if not reflected and any(v != 0 for c in (3, 4) for v in values[c]):
        problems.append(f"{path.name}: reflection term in an unreflected mode")
    if not jumps and (values[5][-1] or values[6][-1]):
        problems.append(f"{path.name}: jumps in a jump-free mode")
    return text, values


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def check_summary_entry(entry: dict, cols, seed: int, where: str, problems: list):
    """A trajectory summary must agree with the trajectory's CSV."""
    _, v = cols
    if entry["terminal_state"] != [v[1][-1], v[2][-1]]:
        problems.append(f"{where}: terminal_state differs from the CSV")
    if entry["jump_counts"] != [v[5][-1], v[6][-1]]:
        problems.append(f"{where}: jump_counts differ from the CSV")
    if entry["max_rate"] != [max(v[1]), max(v[2])]:
        problems.append(f"{where}: max_rate differs from the CSV")
    for got, phi in zip(entry["reflection_local_time"], (v[3][-1], v[4][-1])):
        if not _close(got, phi, 1e-9) and abs(got - phi) > 1e-12:
            problems.append(f"{where}: reflection_local_time {got} vs phi {phi}")
    if entry["seed"]["master_seed"] != seed:
        problems.append(f"{where}: master_seed {entry['seed']['master_seed']} != {seed}")
    for name, value in entry["seminorms"].items():
        if value < 0:
            problems.append(f"{where}: negative seminorm {name}")


def check_long_csv(path: Path, series: dict, problems: list):
    """``series`` maps scenario -> trajectory CSV text columns; the long
    file must repeat their t, r_E and r_I strings exactly."""
    expected = ["scenario,series,t,value"]
    for mode, text in series.items():
        for name, c in (("r_E", 1), ("r_I", 2)):
            expected += [f"{mode},{name},{t},{x}" for t, x in zip(text[0], text[c])]
    if path.read_text().splitlines() != expected:
        problems.append(f"{path.name}: does not match the trajectory CSVs")


def _walk_numbers(obj, where: str, problems: list):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _walk_numbers(v, f"{where}.{k}", problems)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _walk_numbers(v, f"{where}[{i}]", problems)
    elif isinstance(obj, float) and not math.isfinite(obj):
        problems.append(f"{where}: non-finite {obj}")


def compare_json(got, want, where: str, problems: list):
    """Structural equality, floats within REL_TOL relative."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            problems.append(f"{where}: keys differ from golden")
            return
        for k in want:
            compare_json(got[k], want[k], f"{where}.{k}", problems)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            problems.append(f"{where}: length differs from golden")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            compare_json(g, w, f"{where}[{i}]", problems)
    elif isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if not _close(got, want, REL_TOL):
            problems.append(f"{where}: {got!r} vs golden {want!r}")
    elif got != want or type(got) is not type(want):
        problems.append(f"{where}: {got!r} vs golden {want!r}")


def _check_simulate(out: Path, seed: int, paths: int, problems: list):
    cols = check_trajectory_csv(out / "trajectory_000.csv", True, True, problems)
    summary = json.loads((out / "summary.json").read_text())
    _walk_numbers(summary, "summary.json", problems)
    if cols is None or problems:
        return
    if summary["n_paths"] != paths or len(summary["trajectories"]) != 1:
        problems.append(f"summary.json: expected n_paths {paths} and one trajectory")
        return
    check_summary_entry(summary["trajectories"][0], cols, seed, "summary.json", problems)
    if min(summary["ensemble_terminal_variance"]) < 0:
        problems.append("summary.json: negative ensemble variance")
    check_long_csv(out / "long.csv", {summary["scenario"]: cols[0]}, problems)


def _check_panels(out: Path, seed: int, problems: list):
    cols = {
        m: check_trajectory_csv(out / f"panel_{m}.csv", m in REFLECTED_MODES,
                                m == "ou_reflected_jumps", problems)
        for m in MODES
    }
    summary = json.loads((out / "panels_summary.json").read_text())
    _walk_numbers(summary, "panels_summary.json", problems)
    if problems:
        return
    if summary["master_seed"] != seed or set(summary["panels"]) != set(MODES):
        problems.append("panels_summary.json: wrong seed or scenario set")
        return
    for m in MODES:
        check_summary_entry(summary["panels"][m], cols[m], seed, f"panels_summary.json:{m}", problems)
    check_long_csv(out / "panels_long.csv", {m: cols[m][0] for m in MODES}, problems)


def _check_stability(out: Path, problems: list):
    report = json.loads((out / "stability.json").read_text())
    _walk_numbers(report, "stability.json", problems)
    if problems:
        return
    sizes, errors = report["perturbation_sizes"], report["errors"]
    if report["n_paths"] != 200 or len(sizes) != 3 or len(errors) != 3:
        problems.append("stability.json: expected 200 paths and 3 offsets")
        return
    for offset, size, err in zip((0.1, 0.01, 0.001), sizes, errors):
        if size != (2 * offset) ** 2:
            problems.append(f"stability.json: size {size} for offset {offset}")
        # the sup over time includes t = 0, where the paths differ by the offset
        if err < size * (1 - REL_TOL):
            problems.append(f"stability.json: error {err} below its initial gap {size}")


def _check_converge(out: Path, problems: list):
    report = json.loads((out / "convergence.json").read_text())
    _walk_numbers(report, "convergence.json", problems)
    if problems:
        return
    levels = list(range(4, 10))
    if (report["levels"] != levels or report["reference_level"] != 12
            or report["n_paths"] != 200):
        problems.append("convergence.json: expected levels 4..9, reference 12, 200 paths")
        return
    if report["dts"] != [20.0 * 2.0**-k for k in levels]:
        problems.append("convergence.json: dts are not 20 * 2^-level")
    if any(not e > 0 for e in report["rms_errors"]):
        problems.append("convergence.json: rms error not positive")


def check_command(command, out: Path, rc, seed: int, golden: dict | None = None):
    """Gate one command's outputs in ``out``.  ``golden`` maps file name to
    a sha256 (CSV) or a JSON document.  Returns (problems, digests)."""
    problems: list[str] = []
    if rc != 0:
        return [f"{command.command}: exit code {rc}"], {}
    names = OUTPUTS[command.command]
    missing = [n for n in names if not (out / n).is_file()]
    if missing:
        return [f"{command.command}: missing {', '.join(missing)}"], {}
    try:
        if command.command == "simulate":
            _check_simulate(out, seed, command.paths, problems)
        elif command.command == "panels":
            _check_panels(out, seed, problems)
        elif command.command == "stability":
            _check_stability(out, problems)
        else:
            _check_converge(out, problems)
        for name, want in (golden or {}).items():
            if name.endswith(".csv"):
                if digest(out / name) != want:
                    problems.append(f"{name}: differs from the golden digest")
            else:
                compare_json(json.loads((out / name).read_text()), want, name, problems)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problems.append(f"{command.command}: malformed output ({type(exc).__name__}: {exc})")
    return problems, {n: digest(out / n) for n in names}
