"""Flat-sectioned key/value configuration documents.

Grammar (one statement per line)::

    [section]
    key = value        # trailing comments allowed

Unknown sections/keys are rejected, every value is type-checked and physical
invariants are validated at load time; all problems are reported together
with line numbers and stable error codes.  ``emit`` writes the canonical
form, and ``parse_config(emit(cfg)) == cfg`` for every valid document.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .engine import SimulationGrid, build_dyadic_partition, uniform_grid
from .models import INPUT_MODES, ScenarioConfig, WilsonCowanParams
from .sources import CompoundPoissonSpec, JumpSizeDist, OUParams

__all__ = [
    "ConfigDocument",
    "ExperimentConfig",
    "ConfigError",
    "ConfigIssue",
    "parse_config",
    "emit_config",
    "invariant_issues",
]

E_SYNTAX = "E_SYNTAX"
E_UNKNOWN_SECTION = "E_UNKNOWN_SECTION"
E_UNKNOWN_KEY = "E_UNKNOWN_KEY"
E_TYPE = "E_TYPE"
E_INVARIANT = "E_INVARIANT"
E_CONTRADICTION = "E_CONTRADICTION"

JUMP_TIMINGS = ("end_of_step", "exact")
EXPERIMENT_KINDS = ("none", "stability", "converge")
JUMP_DISTS = ("constant", "exponential", "uniform")
MAX_SEED = 2**64 - 1  # master seeds are 64-bit unsigned


@dataclass(frozen=True)
class ConfigIssue:
    code: str
    line: int
    message: str

    def __str__(self):
        return f"line {self.line}: [{self.code}] {self.message}"


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

    def build_grid(self) -> SimulationGrid:
        if self.level >= 1:
            return build_dyadic_partition(self.level, self.horizon)
        return uniform_grid(self.dt, self.horizon)

    def scenario_config(self, mode: str | None = None) -> ScenarioConfig:
        mode = mode or self.input_mode
        if mode == "ou_reflected_jumps":
            spec = CompoundPoissonSpec(self.jump_intensity, self.jump_size_dist())
        else:
            spec = CompoundPoissonSpec(0.0, self.jump_size_dist())
        return ScenarioConfig(
            input_mode=mode,
            params=self.params,
            ou=self.ou,
            jumps_E=spec,
            jumps_I=spec,
            rho=self.rho,
            grid=self.build_grid(),
            x0=(self.x0_e, self.x0_i),
        )


# section -> key -> (type tag, extra)
_SCHEMA = {
    "scenario": {
        "input_mode": ("choice", INPUT_MODES),
        "tau_e": ("float",), "tau_i": ("float",),
        "theta_e": ("float",), "theta_i": ("float",),
        "a_e": ("float",), "a_i": ("float",),
        "w_ee": ("float",), "w_ei": ("float",),
        "w_ie": ("float",), "w_ii": ("float",),
        "delta_e": ("float",), "delta_i": ("float",),
        "sigma_ext_e": ("float",), "sigma_ext_i": ("float",),
        "i_ext_e": ("float",), "i_ext_i": ("float",),
        "x0_e": ("float",), "x0_i": ("float",),
    },
    "ou": {
        "mu": ("float",), "gamma": ("float",),
        "sigma": ("float",), "v0": ("float",),
    },
    "jumps": {
        "intensity": ("float",),
        "dist": ("choice", JUMP_DISTS),
        "mean": ("float",), "value": ("float",),
        "lo": ("float",), "hi": ("float",),
        "rho": ("float",),
    },
    "grid": {
        "horizon": ("float",), "dt": ("float",), "level": ("int",),
    },
    "engine": {
        "seed": ("int",), "n_paths": ("int",),
        "jump_timing": ("choice", JUMP_TIMINGS),
    },
    "outputs": {
        "dir": ("str",), "retain": ("int",),
    },
    "experiment": {
        "kind": ("choice", EXPERIMENT_KINDS),
        "offsets": ("float_list",),
        "levels": ("int_list",),
        "n_paths": ("int",),
        "horizon": ("float",),
    },
}

_WC_KEYS = {
    "tau_e": "tau_E", "tau_i": "tau_I", "theta_e": "theta_E",
    "theta_i": "theta_I", "a_e": "a_E", "a_i": "a_I",
    "w_ee": "w_EE", "w_ei": "w_EI", "w_ie": "w_IE", "w_ii": "w_II",
    "delta_e": "delta_E", "delta_i": "delta_I",
    "sigma_ext_e": "sigma_ext_E", "sigma_ext_i": "sigma_ext_I",
    "i_ext_e": "I_ext_E", "i_ext_i": "I_ext_I",
}


def _convert(raw: str, spec, line: int, key: str, issues):
    tag = spec[0]
    try:
        if tag == "float":
            return float(raw)
        if tag == "int":
            return int(raw)
        if tag == "str":
            return raw
        if tag == "choice":
            if raw not in spec[1]:
                issues.append(ConfigIssue(
                    E_TYPE, line,
                    f"{key}: {raw!r} not one of {', '.join(spec[1])}"))
                return None
            return raw
        if tag == "float_list":
            return tuple(float(p) for p in raw.split(",") if p.strip())
        if tag == "int_list":
            return tuple(int(p) for p in raw.split(",") if p.strip())
    except ValueError:
        issues.append(ConfigIssue(E_TYPE, line, f"{key}: cannot parse {raw!r} as {tag}"))
        return None
    raise AssertionError(tag)


def parse_config(text: str) -> ConfigDocument:
    """Parse and validate a config document; raises :class:`ConfigError` with
    every problem found.  The empty document yields the defaults."""
    issues: list[ConfigIssue] = []
    values: dict[tuple[str, str], object] = {}
    lines: dict[tuple[str, str], int] = {}
    section = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        stmt = rawline.split("#", 1)[0].strip()
        if not stmt:
            continue
        if stmt.startswith("[") and stmt.endswith("]"):
            section = stmt[1:-1].strip()
            if section not in _SCHEMA:
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
            continue
        if key not in _SCHEMA[section]:
            issues.append(ConfigIssue(
                E_UNKNOWN_KEY, lineno, f"unknown key {key!r} in section [{section}]"))
            continue
        converted = _convert(raw, _SCHEMA[section][key], lineno, key, issues)
        if converted is not None:
            values[(section, key)] = converted
            lines[(section, key)] = lineno

    def get(section, key, default):
        return values.get((section, key), default)

    def line_of(section, key):
        return lines.get((section, key), 0)

    defaults = ConfigDocument()
    wc_kwargs = {
        target: get("scenario", key, getattr(defaults.params, target))
        for key, target in _WC_KEYS.items()
    }
    try:
        params = WilsonCowanParams(**wc_kwargs)
    except ValueError as exc:
        params = defaults.params
        # attribute the failure to the offending key when one can be singled out
        blamed = False
        for key, target in _WC_KEYS.items():
            if ("scenario", key) in values:
                try:
                    WilsonCowanParams(**{target: values[("scenario", key)]})
                except ValueError as key_exc:
                    issues.append(ConfigIssue(
                        E_INVARIANT, line_of("scenario", key), str(key_exc)))
                    blamed = True
        if not blamed:
            issues.append(ConfigIssue(E_INVARIANT, 0, str(exc)))

    try:
        ou = OUParams(
            mu=get("ou", "mu", defaults.ou.mu),
            gamma=get("ou", "gamma", defaults.ou.gamma),
            sigma=get("ou", "sigma", defaults.ou.sigma),
            v0=get("ou", "v0", defaults.ou.v0),
        )
    except ValueError as exc:
        issues.append(ConfigIssue(E_INVARIANT, line_of("ou", "gamma"), str(exc)))
        ou = defaults.ou

    experiment = ExperimentConfig(
        kind=get("experiment", "kind", "none"),
        offsets=get("experiment", "offsets", ExperimentConfig().offsets),
        levels=get("experiment", "levels", ExperimentConfig().levels),
        n_paths=get("experiment", "n_paths", ExperimentConfig().n_paths),
        horizon=get("experiment", "horizon", ExperimentConfig().horizon),
    )

    input_mode = get("scenario", "input_mode", defaults.input_mode)
    intensity = get("jumps", "intensity", defaults.jump_intensity)
    if input_mode != "ou_reflected_jumps":
        if ("jumps", "intensity") in values and intensity > 0:
            issues.append(ConfigIssue(
                E_CONTRADICTION, line_of("jumps", "intensity"),
                f"jump intensity > 0 contradicts input_mode={input_mode}"))
        # canonical form: jump-free modes carry zero intensity
        intensity = 0.0

    doc = ConfigDocument(
        input_mode=input_mode,
        params=params,
        ou=ou,
        x0_e=get("scenario", "x0_e", 0.0),
        x0_i=get("scenario", "x0_i", 0.0),
        jump_intensity=intensity,
        jump_dist=get("jumps", "dist", defaults.jump_dist),
        jump_mean=get("jumps", "mean", defaults.jump_mean),
        jump_value=get("jumps", "value", defaults.jump_value),
        jump_lo=get("jumps", "lo", defaults.jump_lo),
        jump_hi=get("jumps", "hi", defaults.jump_hi),
        rho=get("jumps", "rho", defaults.rho),
        horizon=get("grid", "horizon", defaults.horizon),
        dt=get("grid", "dt", defaults.dt),
        level=get("grid", "level", defaults.level),
        seed=get("engine", "seed", defaults.seed),
        n_paths=get("engine", "n_paths", defaults.n_paths),
        jump_timing=get("engine", "jump_timing", defaults.jump_timing),
        out_dir=get("outputs", "dir", defaults.out_dir),
        retain=get("outputs", "retain", defaults.retain),
        experiment=experiment,
    )

    issues.extend(invariant_issues(doc, line_of))
    if issues:
        raise ConfigError(sorted(issues, key=lambda i: i.line))
    return doc


def invariant_issues(doc: ConfigDocument, line_of=lambda section, key: 0):
    """Cross-field invariants of a document; ``line_of(section, key)`` gives
    the line a key was set on (0 when it did not come from a line)."""
    issues = []
    if doc.jump_intensity < 0:
        issues.append(ConfigIssue(E_INVARIANT, line_of("jumps", "intensity"),
                                  "jump intensity must be >= 0"))
    try:
        doc.jump_size_dist()
    except ValueError as exc:
        issues.append(ConfigIssue(E_INVARIANT, line_of("jumps", "dist"), str(exc)))
    if doc.horizon <= 0:
        issues.append(ConfigIssue(E_INVARIANT, line_of("grid", "horizon"),
                                  "horizon must be positive"))
    if doc.level == 0 and doc.dt <= 0:
        issues.append(ConfigIssue(E_INVARIANT, line_of("grid", "dt"),
                                  "dt must be positive"))
    if doc.level < 0 or doc.level > 30:
        issues.append(ConfigIssue(E_INVARIANT, line_of("grid", "level"),
                                  "dyadic level must lie in 1..30 (0 = uniform)"))
    if doc.n_paths < 1:
        issues.append(ConfigIssue(E_INVARIANT, line_of("engine", "n_paths"),
                                  "n_paths must be >= 1"))
    if doc.retain < 0:
        issues.append(ConfigIssue(E_INVARIANT, line_of("outputs", "retain"),
                                  "retain must be >= 0"))
    if not 0 <= doc.seed <= MAX_SEED:
        issues.append(ConfigIssue(E_INVARIANT, line_of("engine", "seed"),
                                  f"seed must lie in 0..{MAX_SEED}"))
    return issues


def emit_config(doc: ConfigDocument) -> str:
    """Canonical serialization: every section and key, fixed order."""
    exp = doc.experiment
    out = [
        "[scenario]",
        f"input_mode = {doc.input_mode}",
    ]
    for key, target in _WC_KEYS.items():
        out.append(f"{key} = {getattr(doc.params, target)!r}")
    out += [
        f"x0_e = {doc.x0_e!r}",
        f"x0_i = {doc.x0_i!r}",
        "",
        "[ou]",
        f"mu = {doc.ou.mu!r}",
        f"gamma = {doc.ou.gamma!r}",
        f"sigma = {doc.ou.sigma!r}",
        f"v0 = {doc.ou.v0!r}",
        "",
        "[jumps]",
        f"intensity = {doc.jump_intensity!r}",
        f"dist = {doc.jump_dist}",
        f"mean = {doc.jump_mean!r}",
        f"value = {doc.jump_value!r}",
        f"lo = {doc.jump_lo!r}",
        f"hi = {doc.jump_hi!r}",
        f"rho = {doc.rho!r}",
        "",
        "[grid]",
        f"horizon = {doc.horizon!r}",
        f"dt = {doc.dt!r}",
        f"level = {doc.level}",
        "",
        "[engine]",
        f"seed = {doc.seed}",
        f"n_paths = {doc.n_paths}",
        f"jump_timing = {doc.jump_timing}",
        "",
        "[outputs]",
        f"dir = {doc.out_dir}",
        f"retain = {doc.retain}",
        "",
        "[experiment]",
        f"kind = {exp.kind}",
        "offsets = " + ",".join(repr(v) for v in exp.offsets),
        "levels = " + ",".join(str(v) for v in exp.levels),
        f"n_paths = {exp.n_paths}",
        f"horizon = {exp.horizon!r}",
        "",
    ]
    return "\n".join(out)
