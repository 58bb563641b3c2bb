"""Concrete models: the stochastic Wilson-Cowan excitatory/inhibitory system,
with one drift and one diffusion formula for both populations on the parameter
rows of :class:`WilsonCowanParams`, the four input-current scenarios, and
numeric validators for the Lipschitz and jump-coefficient assumptions.
"""
from __future__ import annotations

import importlib.util
import sys
from dataclasses import astuple, dataclass, field
from functools import cache, partial
from importlib.machinery import EXTENSION_SUFFIXES
from os.path import isfile
from types import SimpleNamespace

import numpy as np

from .engine import ReflectedJumpSDE
from .skorokhod import ReflectionDomain
from .sources import CompoundPoissonSpec, JumpSizeDist, OUParams


def _load_expit(name="scipy.special._special_ufuncs"):
    """scipy's ``expit`` ufunc, loaded without importing the whole ``scipy.special`` package."""
    if name not in sys.modules:
        pkg = importlib.util.find_spec("scipy").submodule_search_locations[0] + "/special"
        path = next(p for s in EXTENSION_SUFFIXES if isfile(p := f"{pkg}/_special_ufuncs{s}"))
        spec = importlib.util.spec_from_file_location(name, path)
        spec.loader.exec_module(module := importlib.util.module_from_spec(spec))
        sys.modules[name] = module  # so `import scipy.special` reuses it, not a second copy
    return sys.modules[name].expit


try:
    expit = _load_expit()
except Exception:  # not found, not loadable, or no expit there (older scipy kept it elsewhere)
    from scipy.special import expit

__all__ = [
    "WilsonCowanParams",
    "ScenarioConfig",
    "ScenarioError",
    "SCENARIOS",
    "INPUT_MODES",
    "sigmoid_F",
    "wilson_cowan_drift",
    "wilson_cowan_diffusion",
    "make_scenario",
    "estimate_lipschitz_constant",
    "check_jump_coefficient_bound",
    "A3Report",
]

# mode -> (white_noise, reflected, jumps): the switches that set the four
# input-current scenarios apart.  A mode without white noise drives both
# external inputs with one shared Ornstein-Uhlenbeck current; a reflected one
# lives on the half-line domain [0, inf)^2.
SCENARIOS = {
    "white_noise": (True, False, False),
    "ou_current": (False, False, False),
    "ou_reflected": (False, True, False),
    "ou_reflected_jumps": (False, True, True),
}
INPUT_MODES = tuple(SCENARIOS)


@dataclass(frozen=True)
class WilsonCowanParams:
    """Constants of the coupled excitatory/inhibitory firing-rate system.

    Defaults are the classic Wilson-Cowan parameter set (time constants in
    ms).  ``delta_*`` are the refractory saturation factors multiplying the
    firing rates.
    """

    tau_E: float = 1.0
    tau_I: float = 2.0
    theta_E: float = 2.8
    theta_I: float = 4.0
    a_E: float = 1.2
    a_I: float = 1.0
    w_EE: float = 12.0
    w_EI: float = 4.0
    w_IE: float = 13.0
    w_II: float = 11.0
    delta_E: float = 0.2
    delta_I: float = 0.2
    sigma_ext_E: float = 0.1
    sigma_ext_I: float = 0.1
    I_ext_E: float = 0.0
    I_ext_I: float = 0.0

    def __post_init__(self):
        if not np.isfinite(astuple(self)).all():
            raise ValueError("Wilson-Cowan parameters must be finite")
        if not (self.tau_E > 0 and self.tau_I > 0):
            raise ValueError("time constants must be positive")
        if not (self.a_E > 0 and self.a_I > 0):
            raise ValueError("sigmoid slopes must be positive")
        for name in ("delta_E", "delta_I"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        for name in ("w_EE", "w_EI", "w_IE", "w_II"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative")
        if not (self.sigma_ext_E >= 0 and self.sigma_ext_I >= 0):
            raise ValueError("noise amplitudes must be nonnegative")


def _rows(params: WilsonCowanParams, m: int) -> SimpleNamespace:
    """The parameters as contiguous (2, m) rows, E over I, so that every
    ufunc of :func:`_drift` and :func:`_diffusion` on m states gets
    same-shape operands: ``w_from_E`` = (w_EE, w_IE), ``w_from_I`` = (w_EI,
    w_II), ``I_ext``, ``theta``, ``a``, ``delta``, ``tau``, ``sigma_ext``,
    and ``F_shift`` = expit(-a theta), the shift of :func:`sigmoid_F`.
    The public coefficients take m = 1, columns that broadcast, since they
    are not called per step and a call may hold many states."""
    pairs = {"w_from_E": (params.w_EE, params.w_IE), "w_from_I": (params.w_EI, params.w_II)}
    for name in ("I_ext", "theta", "a", "delta", "tau", "sigma_ext"):
        pairs[name] = (getattr(params, f"{name}_E"), getattr(params, f"{name}_I"))
    c = {name: np.array(pair, dtype=float).reshape(2, 1) for name, pair in pairs.items()}
    c["F_shift"] = expit(-c["a"] * c["theta"])
    return SimpleNamespace(**{name: np.broadcast_to(a, (2, m)).copy() for name, a in c.items()})


def sigmoid_F(x, theta, a):
    """Shifted logistic gain: 1/(1+e^{-a(x-theta)}) - 1/(1+e^{a theta}).

    Vanishes at x = 0; expit keeps the exponentials overflow-safe.
    """
    return _shifted_logistic(np.asarray(x, dtype=float), theta, a, expit(-a * theta))


def _shifted_logistic(x, theta, a, shift, out=None):
    """:func:`sigmoid_F` given its shift, expit(-a theta), into ``out`` if given."""
    y = np.subtract(x, theta, out=out)
    y = np.multiply(a, y, out=out)
    y = expit(y, out=out)
    return np.subtract(y, shift, out=out)


def wilson_cowan_drift(state, params: WilsonCowanParams, u=0.0):
    """Drift of (r_E, r_I): relaxation plus saturated sigmoid recurrent input.

    ``state`` is (2,) or (m, 2); ``u``, the current of both external inputs,
    broadcasts against (m,).  Ufuncs loop over m on contiguous (2, m) rows:
    an F-ordered ``state`` is read, and the result returned, without a copy."""
    return _on_rows(_drift, np.asarray(state, dtype=float), _rows(params, 1), u)


def wilson_cowan_diffusion(state, params: WilsonCowanParams):
    """Diagonal noise amplitude sigma_ext (1 - delta r) / tau per population."""
    return _on_rows(_diffusion, np.asarray(state, dtype=float), _rows(params, 1))


def _on_rows(formula, state, c, *args):
    """``formula`` of the contiguous (2, m) rows of a (2,) or (m, 2)
    ``state``, with no copy of an F-ordered one, and of ``c``, the
    parameter rows of :func:`_rows` at width m, or at width 1, which
    broadcast to the same bits; returned in the state's shape."""
    r = np.ascontiguousarray(state.reshape(-1, state.shape[-1]).T)
    return formula(r, c, *args).T.reshape(state.shape)


def _drift(r, c, u):
    x = np.multiply(c.w_from_E, r[0])  # x, then the gain
    d = np.multiply(c.w_from_I, r[1])  # scratch, then the drift
    np.subtract(x, d, out=x)
    np.add(c.I_ext, u, out=d)
    np.add(x, d, out=x)
    _shifted_logistic(x, c.theta, c.a, c.F_shift, out=x)
    np.multiply(c.delta, r, out=d)
    np.subtract(1.0, d, out=d)
    np.multiply(d, x, out=d)
    np.subtract(d, r, out=d)  # -r + d, exactly
    return np.divide(d, c.tau, out=d)


def _diffusion(r, c):
    return c.sigma_ext * (1.0 - c.delta * r) / c.tau


@dataclass(frozen=True)
class ScenarioConfig:
    """One panel of the four-scenario comparison, or, with a tuple of input
    modes, one batch row per mode.  ``jumps`` is the jump law of each
    coordinate; the default, modest positive jumps, is comparable to the
    typical firing-rate excursions (~0.1) when scaled by rho = 0.01."""

    input_mode: str | tuple[str, ...] = "ou_reflected_jumps"
    params: WilsonCowanParams = field(default_factory=WilsonCowanParams)
    ou: OUParams = field(default_factory=OUParams)
    jumps: CompoundPoissonSpec = field(
        default_factory=lambda: CompoundPoissonSpec(0.5, JumpSizeDist.exponential(1.0)))
    rho: float = 0.01
    x0: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if not self.modes or not set(self.modes) <= set(SCENARIOS):
            raise ValueError(f"unknown input_mode {self.input_mode!r}")

    @property
    def modes(self) -> tuple[str, ...]:
        return (self.input_mode,) if isinstance(self.input_mode, str) else self.input_mode


class ScenarioError(ValueError):
    """Contradictory scenario configuration."""


def make_scenario(config: ScenarioConfig) -> ReflectedJumpSDE:
    """Assemble the reflected jump-diffusion of one input scenario from its
    row of :data:`SCENARIOS`.  Every mode feeds the input current ``u`` to
    both external inputs; ``u`` is zero without an input process, which is
    what the white-noise mode has instead of the OU current.

    A tuple of modes gives one batch row per mode, all driven by the inputs
    of one stream (:func:`engine.simulate_rows`).  A switch that differs
    between the rows is a (rows, 1) column; one that does not stays a scalar,
    so the model of one mode steps as it would alone.

    The coefficients take the parameters as contiguous (2, m) rows, built
    once per batch width m and kept in the model, so that every ufunc of
    theirs gets same-shape operands."""
    params = config.params
    table = np.array([SCENARIOS[mode] for mode in config.modes])  # (rows, 3)
    white_noise, reflected = (c[:, None] if c.any() != c.all() else bool(c[0])  # rows differ
                              for c in table.T[:2])
    jumps = table[:, 2]
    if config.jumps.intensity_alpha > 0 and not jumps.any():
        raise ScenarioError(
            f"jump intensity > 0 contradicts input_mode={config.input_mode}, which has no jumps")

    rows = cache(partial(_rows, params))  # built once per batch width

    def on_rows(formula, state, *args):
        return _on_rows(formula, state, rows(state.size // 2), *args)

    if np.ndim(white_noise):  # a white-noise row has no input current
        def drift(state, u):
            return on_rows(_drift, state, np.where(white_noise[:, 0], 0.0, u))

        def diffusion(state):
            return np.where(white_noise, on_rows(_diffusion, state), 0.0)
    else:
        def drift(state, u):
            return on_rows(_drift, state, u)

        def diffusion(state):
            return on_rows(_diffusion, state) if white_noise else 0.0

    rho = float(config.rho)

    def jump_coeff(state):
        return rho

    def domain(reflected):
        return ReflectionDomain.half_line(0.0, 2) if reflected else ReflectionDomain.unreflected(2)

    return ReflectedJumpSDE(
        dimension=2,
        drift=drift,
        diffusion=diffusion,
        domain=(ReflectionDomain(tuple(domain(r).bounds for r in reflected[:, 0]))
                if np.ndim(reflected) else domain(reflected)),
        x0=np.asarray(config.x0, dtype=float),
        jump_coeff=jump_coeff if jumps.any() else None,
        jump_specs=(config.jumps, config.jumps) if jumps.any() else None,
        input_current=None if table[:, 0].all() else config.ou,
        row_jumps=None if isinstance(config.input_mode, str) else tuple(jumps.tolist()),
    )


def _sample_box(rng, lows, highs, n):
    lows = np.asarray(lows, dtype=float)
    return rng.uniform(lows, highs, size=(n, lows.size))


def estimate_lipschitz_constant(fn, box, n_samples: int = 10**5):
    """Max sampled difference quotient of ``fn`` over random point pairs.

    ``box`` is (lows, highs); ``fn`` maps (m, d) to (m,) or (m, k).  Distances
    use the 1-norm on both sides.
    """
    lows, highs = box
    rng = np.random.default_rng(0)
    x = _sample_box(rng, lows, highs, n_samples)
    z = _sample_box(rng, lows, highs, n_samples)
    fx = np.atleast_2d(np.asarray(fn(x), dtype=float).T).T
    fz = np.atleast_2d(np.asarray(fn(z), dtype=float).T).T
    num = np.abs(fx - fz).sum(axis=-1)
    den = np.abs(x - z).sum(axis=-1)
    ok = den > 0
    return float(np.max(num[ok] / den[ok], initial=0.0))


@dataclass(frozen=True)
class A3Report:
    c_rho: float
    growth_ratio: float
    lipschitz_ratio: float
    passed: bool


def check_jump_coefficient_bound(rho, spec: CompoundPoissonSpec, box,
                                 n_samples: int = 10**5) -> A3Report:
    """Monte Carlo estimate of the square-integral bounds on the jump
    coefficient ``rho(x, y)`` against the jump-size law.

    Growth ratio: E|rho(x, xi)|^2 / (1 + |x|^2), maximized over sampled x.
    Lipschitz ratio: E|rho(x, xi) - rho(z, xi)|^2 / |x - z|^2 over 200
    sampled pairs.
    """
    lows, highs = box
    rng = np.random.default_rng(0)
    xi = spec.jump_dist.sample(rng, n_samples)
    xs = _sample_box(rng, lows, highs, 200)
    zs = _sample_box(rng, lows, highs, 200)

    def mean_sq(x, z=None):
        """E|rho(x, xi) - rho(z, xi)|^2 over the xi draws, or E|rho(x, xi)|^2
        without ``z``; vector values by their squared 2-norm."""
        diff = np.asarray(rho(x, xi), dtype=float)
        if z is not None:
            diff = diff - np.asarray(rho(z, xi), dtype=float)
        if diff.ndim == 1:
            return float(np.mean(diff**2))
        return float(np.mean(np.sum(diff**2, axis=-1)))

    growth = 0.0
    for x in xs:
        growth = max(growth, mean_sq(x) / (1.0 + float(np.sum(x**2))))
    lip = 0.0
    for x, z in zip(xs, zs):
        dist2 = float(np.sum((x - z) ** 2))
        if dist2 > 0:
            lip = max(lip, mean_sq(x, z) / dist2)
    c_rho = max(growth, lip)
    return A3Report(c_rho, growth, lip, passed=bool(np.isfinite(c_rho)))
