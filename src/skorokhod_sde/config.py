"""Flat-sectioned key/value configuration documents.

Grammar (one statement per line)::

    [section]
    key = value        # trailing comments allowed

One table, ``_SCHEMA``, names every key: it drives parsing, type checks and
``emit_config``.  Unknown sections/keys are rejected, every value is
type-checked, and the document is validated once, by building what the
commands build from it; all problems are reported together with line numbers
and stable error codes.  ``emit`` writes the canonical form, and
``parse_config(emit(cfg)) == cfg`` for every valid document.
"""
from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, field, fields, replace
from functools import reduce
from itertools import groupby

from .analysis import REFERENCE_OFFSET, _fit_levels
from .engine import (
    JUMP_TIMINGS,
    SimulationGrid,
    build_dyadic_partition,
    check_budget,
    dyadic_steps,
    uniform_grid,
    uniform_steps,
)
from .models import (
    INPUT_MODES,
    SCENARIOS,
    ScenarioConfig,
    ScenarioError,
    WilsonCowanParams,
    make_scenario,
)
from .sources import JUMP_DISTS, MAX_SEED, CompoundPoissonSpec, JumpSizeDist, OUParams

__all__ = [
    "ConfigDocument",
    "ExperimentConfig",
    "ConfigError",
    "ConfigIssue",
    "parse_config",
    "emit_config",
]

E_SYNTAX = "E_SYNTAX"
E_UNKNOWN_SECTION = "E_UNKNOWN_SECTION"
E_UNKNOWN_KEY = "E_UNKNOWN_KEY"
E_TYPE = "E_TYPE"
E_INVARIANT = "E_INVARIANT"
E_CONTRADICTION = "E_CONTRADICTION"
E_READ = "E_READ"
E_MISSING_SECTION = "E_MISSING_SECTION"

EXPERIMENT_KINDS = ("none", "stability", "converge")


@dataclass(frozen=True)
class ConfigIssue:
    """One problem; ``line`` 0 means the value came from outside the
    document (a flag, the environment or the command itself)."""

    code: str
    line: int
    message: str

    def __str__(self):
        where = f"line {self.line}: " if self.line else ""
        return f"{where}[{self.code}] {self.message}"


class ConfigError(ValueError):
    def __init__(self, issues):
        self.issues = tuple(issues)
        super().__init__("; ".join(str(i) for i in self.issues))


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str = "none"
    offsets: tuple[float, ...] = (0.1, 0.01, 0.001)
    levels: tuple[int, ...] = (4, 5, 6, 7, 8, 9)
    n_paths: int = 200
    horizon: float = 20.0


@dataclass(frozen=True)
class ConfigDocument:
    input_mode: str = "ou_reflected_jumps"
    params: WilsonCowanParams = field(default_factory=WilsonCowanParams)
    ou: OUParams = field(default_factory=OUParams)
    x0_e: float = 0.0
    x0_i: float = 0.0
    jump_intensity: float = 0.5
    jump_dist: str = "exponential"
    jump_mean: float = 1.0
    jump_value: float = 1.0
    jump_lo: float = 0.0
    jump_hi: float = 1.0
    rho: float = 0.01
    horizon: float = 100.0
    dt: float = 0.1
    level: int = 0  # 0 = uniform grid with dt; >= 1 = dyadic level
    seed: int = 42
    n_paths: int = 1
    jump_timing: str = "end_of_step"
    out_dir: str = "out"
    retain: int = 1
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)

    def jump_size_dist(self) -> JumpSizeDist:
        if self.jump_dist == "constant":
            return JumpSizeDist.constant(self.jump_value)
        if self.jump_dist == "exponential":
            return JumpSizeDist.exponential(self.jump_mean)
        return JumpSizeDist.uniform(self.jump_lo, self.jump_hi)

    def build_grid(self, horizon: float | None = None) -> SimulationGrid:
        """The ``[grid]`` on [0, ``horizon``], by default on its own horizon."""
        horizon = self.horizon if horizon is None else horizon
        if self.level:
            return build_dyadic_partition(self.level, horizon)
        return uniform_grid(self.dt, horizon)

    def grid_steps(self, horizon: float) -> int:
        """The step count of :meth:`build_grid` on ``horizon``, after its checks."""
        return dyadic_steps(self.level, horizon) if self.level else uniform_steps(self.dt, horizon)

    def scenario_config(self, mode: str | tuple[str, ...] | None = None) -> ScenarioConfig:
        """The document's own scenario, or the ``panels`` row of ``mode`` (or
        rows, of a tuple of modes), which take the document's jump law only
        if one of them has jumps."""
        rows = (mode,) if isinstance(mode, str) else mode or ()
        has_jumps = any(SCENARIOS[row][2] for row in rows)
        intensity = self.jump_intensity if mode is None or has_jumps else 0.0
        mode = mode or self.input_mode
        jumps = CompoundPoissonSpec(intensity, self.jump_size_dist())
        return ScenarioConfig(input_mode=mode, params=self.params, ou=self.ou, jumps=jumps,
                              rho=self.rho, x0=(self.x0_e, self.x0_i))


_DEFAULT = ConfigDocument()


def _get(doc: ConfigDocument, attr: str):
    return reduce(getattr, attr.split("."), doc)


def _fields(section: str, group: str):
    """One row per field of a parameter dataclass, keyed by its lowercased name."""
    return [(section, f.name.lower(), f"{group}.{f.name}")
            for f in fields(getattr(_DEFAULT, group))]


_CHOICES = {
    "input_mode": INPUT_MODES,
    "jump_dist": JUMP_DISTS,
    "jump_timing": JUMP_TIMINGS,
    "experiment.kind": EXPERIMENT_KINDS,
}

# (section, key) -> (ConfigDocument attribute path, default, choices), in the
# order emit_config writes them.  A value has its default's type; a tuple
# default means a comma-separated list of its elements' type.
_SCHEMA = {
    (section, key): (attr, _get(_DEFAULT, attr), _CHOICES.get(attr, ()))
    for section, key, attr in [
        ("scenario", "input_mode", "input_mode"),
        *_fields("scenario", "params"),
        ("scenario", "x0_e", "x0_e"), ("scenario", "x0_i", "x0_i"),
        *_fields("ou", "ou"),
        ("jumps", "intensity", "jump_intensity"), ("jumps", "dist", "jump_dist"),
        ("jumps", "mean", "jump_mean"), ("jumps", "value", "jump_value"),
        ("jumps", "lo", "jump_lo"), ("jumps", "hi", "jump_hi"),
        ("jumps", "rho", "rho"),
        ("grid", "horizon", "horizon"), ("grid", "dt", "dt"), ("grid", "level", "level"),
        ("engine", "seed", "seed"), ("engine", "n_paths", "n_paths"),
        ("engine", "jump_timing", "jump_timing"),
        ("outputs", "dir", "out_dir"), ("outputs", "retain", "retain"),
        *_fields("experiment", "experiment"),
    ]
}
_SECTIONS = {section for section, _ in _SCHEMA}


def _convert(raw: str, default, choices=()):
    """``raw`` as a value of ``default``'s type; raises ValueError."""
    if isinstance(default, tuple):
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        if not parts:
            raise ValueError("needs at least one value")
        return tuple(_convert(p, default[0]) for p in parts)
    kind = type(default)
    try:
        value = kind(raw)
    except ValueError:
        raise ValueError(f"cannot parse {raw!r} as {kind.__name__}") from None
    if kind is float and not math.isfinite(value):
        raise ValueError(f"{raw!r} is not a finite number")
    if choices and value not in choices:
        raise ValueError(f"{raw!r} not one of {', '.join(choices)}")
    return value


def _build(values: dict) -> ConfigDocument:
    """The document ``values`` ({(section, key): value}) describe, after
    building from it what the commands build: the parameter dataclasses, the
    grid, the jump law, the scenario model and the experiment grid, and
    checks the arrays of each command it configures against the engine's
    memory budget.  Raises the ValueError of the first build that rejects
    it."""
    groups: dict[str, dict] = {}
    for section_key, value in values.items():
        head, _, name = _SCHEMA[section_key][0].rpartition(".")
        groups.setdefault(head, {})[name] = value
    top = groups.pop("", {})
    if not SCENARIOS[top.get("input_mode", _DEFAULT.input_mode)][2]:
        # A jump-free mode has no jumps unless given some, which make_scenario
        # rejects; adding 0.0 turns a -0.0 into the canonical 0.0.
        top["jump_intensity"] = top.get("jump_intensity", 0.0) + 0.0
    doc = replace(_DEFAULT, **top, **{
        head: replace(getattr(_DEFAULT, head), **kwargs) for head, kwargs in groups.items()
    })
    n_steps = doc.grid_steps(doc.horizon)
    model = make_scenario(doc.scenario_config())
    if not 0 <= doc.seed <= MAX_SEED:
        raise ValueError(f"seed must lie in 0..{MAX_SEED}")
    exp = doc.experiment
    if doc.n_paths < 1 or exp.n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if doc.retain < 0:
        raise ValueError("retain must be >= 0")
    check_budget("simulate", model, doc.horizon, n_steps, doc.n_paths,
                 min(max(doc.retain, 1), doc.n_paths), doc.jump_timing == "exact",
                 summarized=True)
    if exp.kind == "stability":
        # one batch: the reference and every perturbed ensemble, on the
        # inputs tiled once per ensemble, with every row's history kept
        rows = (1 + len(exp.offsets)) * exp.n_paths
        check_budget("stability", model, exp.horizon, doc.grid_steps(exp.horizon), rows, rows)
        for offset in exp.offsets:
            model.with_x0(model.x0 + offset)
        if len({abs(offset) for offset in exp.offsets} - {0.0}) < 2:
            raise ValueError("offsets need two distinct nonzero sizes to fit a slope")
    if exp.kind == "converge":
        finest = _fit_levels(exp.levels, exp.horizon)[-1]
        check_budget("converge", model, exp.horizon,
                     dyadic_steps(finest + REFERENCE_OFFSET, exp.horizon), exp.n_paths, 0,
                     coarse_steps=dyadic_steps(finest, exp.horizon))
    return doc


def parse_config(text: str, overrides=None, fallbacks=None) -> ConfigDocument:
    """Parse and validate a config document; raises :class:`ConfigError` with
    every problem found.  The empty document yields the defaults.

    ``overrides`` and ``fallbacks`` map ``(section, key)`` to value text from
    outside the document (line 0): an override replaces the document's value,
    a fallback is used only for a key nothing else set.  Validation runs once,
    on the result."""
    issues: list[ConfigIssue] = []
    values: dict[tuple[str, str], object] = {}  # in the order they were set
    lines: dict[tuple[str, str], int] = {}

    def put(line, section_key, raw):
        _, default, choices = _SCHEMA[section_key]
        try:
            value = _convert(raw, default, choices)
        except ValueError as exc:
            issues.append(ConfigIssue(E_TYPE, line, f"{section_key[1]}: {exc}"))
            return
        values.pop(section_key, None)
        values[section_key] = value
        lines[section_key] = line

    section = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        stmt = rawline.split("#", 1)[0].strip()
        if not stmt:
            continue
        if stmt.startswith("[") and stmt.endswith("]"):
            section = stmt[1:-1].strip()
            if section not in _SECTIONS:
                issues.append(ConfigIssue(
                    E_UNKNOWN_SECTION, lineno, f"unknown section [{section}]"))
                section = None
            continue
        if "=" not in stmt:
            issues.append(ConfigIssue(E_SYNTAX, lineno, f"expected 'key = value', got {stmt!r}"))
            continue
        key, raw = (part.strip() for part in stmt.split("=", 1))
        if section is None:
            issues.append(ConfigIssue(E_SYNTAX, lineno, f"key {key!r} outside any section"))
        elif (section, key) not in _SCHEMA:
            issues.append(ConfigIssue(
                E_UNKNOWN_KEY, lineno, f"unknown key {key!r} in section [{section}]"))
        else:
            put(lineno, (section, key), raw)
    for section_key, raw in (overrides or {}).items():
        put(0, section_key, raw)
    for section_key, raw in (fallbacks or {}).items():
        if section_key not in values:
            put(0, section_key, raw)

    try:
        doc = _build(values)
    except ValueError:
        # One walk: blame each statement that does not build with those kept
        # before it, until those kept and all the rest build (a later
        # statement can mend an earlier one, as dt a horizon it did not divide).
        kept, items = {}, list(values.items())
        for i, (section_key, value) in enumerate(items):
            try:
                _build({**kept, section_key: value})
            except ValueError as exc:
                code = E_CONTRADICTION if isinstance(exc, ScenarioError) else E_INVARIANT
                issues.append(ConfigIssue(code, lines[section_key], str(exc)))
                with suppress(ValueError):
                    if len(items) - i > 2:  # one statement left is the next build
                        _build({**kept, **dict(items[i + 1:])})
                        break
            else:
                kept[section_key] = value
    if issues:
        raise ConfigError(sorted(issues, key=lambda i: i.line))
    return doc


def _text(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def emit_config(doc: ConfigDocument) -> str:
    """Canonical serialization: every section and key, fixed order."""
    blocks = []
    for section, rows in groupby(_SCHEMA.items(), key=lambda row: row[0][0]):
        lines = [f"[{section}]"]
        lines += [f"{key} = {_text(_get(doc, attr))}" for (_, key), (attr, _, _) in rows]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
