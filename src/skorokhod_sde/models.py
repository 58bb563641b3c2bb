"""Concrete models: the stochastic Wilson-Cowan excitatory/inhibitory system,
the four input-current scenarios, and numeric validators for the Lipschitz and
jump-coefficient assumptions.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .engine import ReflectedJumpSDE
from .skorokhod import ReflectionDomain
from .sources import CompoundPoissonSpec, JumpSizeDist, OUParams

__all__ = [
    "WilsonCowanParams",
    "ScenarioConfig",
    "ScenarioError",
    "INPUT_MODES",
    "sigmoid_F",
    "wilson_cowan_drift",
    "wilson_cowan_diffusion",
    "make_scenario",
    "default_jump_spec",
    "estimate_lipschitz_constant",
    "check_jump_coefficient_bound",
    "A3Report",
]

INPUT_MODES = ("white_noise", "ou_current", "ou_reflected", "ou_reflected_jumps")


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
        if self.tau_E <= 0 or self.tau_I <= 0:
            raise ValueError("time constants must be positive")
        if self.a_E <= 0 or self.a_I <= 0:
            raise ValueError("sigmoid slopes must be positive")
        for name in ("delta_E", "delta_I"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        for name in ("w_EE", "w_EI", "w_IE", "w_II"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.sigma_ext_E < 0 or self.sigma_ext_I < 0:
            raise ValueError("noise amplitudes must be nonnegative")


def sigmoid_F(x, theta: float, a: float):
    """Shifted logistic gain: 1/(1+e^{-a(x-theta)}) - 1/(1+e^{a theta}).

    Vanishes at x = 0; expit keeps the exponentials overflow-safe.
    """
    return expit(a * (np.asarray(x, dtype=float) - theta)) - expit(-a * theta)


def wilson_cowan_drift(state, params: WilsonCowanParams, i_ext_e, i_ext_i):
    """Drift of (r_E, r_I): relaxation plus saturated sigmoid recurrent input.

    ``state`` has shape (m, 2); the input currents broadcast against (m,).
    """
    state = np.asarray(state, dtype=float)
    r_e = state[..., 0]
    r_i = state[..., 1]
    x_e = params.w_EE * r_e - params.w_EI * r_i + i_ext_e
    x_i = params.w_IE * r_e - params.w_II * r_i + i_ext_i
    d_e = (
        -r_e
        + (1.0 - params.delta_E * r_e) * sigmoid_F(x_e, params.theta_E, params.a_E)
    ) / params.tau_E
    d_i = (
        -r_i
        + (1.0 - params.delta_I * r_i) * sigmoid_F(x_i, params.theta_I, params.a_I)
    ) / params.tau_I
    return np.stack([d_e, d_i], axis=-1)


def wilson_cowan_diffusion(state, params: WilsonCowanParams):
    """Diagonal noise amplitude sigma_ext (1 - delta r) / tau per population."""
    state = np.asarray(state, dtype=float)
    g_e = params.sigma_ext_E * (1.0 - params.delta_E * state[..., 0]) / params.tau_E
    g_i = params.sigma_ext_I * (1.0 - params.delta_I * state[..., 1]) / params.tau_I
    return np.stack([g_e, g_i], axis=-1)


def default_jump_spec() -> CompoundPoissonSpec:
    # Artifact default: modest positive jumps comparable to the typical
    # firing-rate excursions (~0.1) when scaled by rho = 0.01.
    return CompoundPoissonSpec(0.5, JumpSizeDist.exponential(1.0))


@dataclass(frozen=True)
class ScenarioConfig:
    """One panel of the four-scenario comparison."""

    input_mode: str = "ou_reflected_jumps"
    params: WilsonCowanParams = field(default_factory=WilsonCowanParams)
    ou: OUParams = field(default_factory=OUParams)
    jumps_E: CompoundPoissonSpec = field(default_factory=default_jump_spec)
    jumps_I: CompoundPoissonSpec = field(default_factory=default_jump_spec)
    rho: float = 0.01
    x0: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.input_mode not in INPUT_MODES:
            raise ValueError(f"unknown input_mode {self.input_mode!r}")


class ScenarioError(ValueError):
    """Contradictory scenario configuration."""


def make_scenario(config: ScenarioConfig) -> ReflectedJumpSDE:
    """Assemble the reflected jump-diffusion for one input scenario.

    white_noise: additive output noise through the diffusion term, no
    reflection.  ou_*: the white-noise diffusion is replaced by a pre-sampled
    shared Ornstein-Uhlenbeck current feeding both external inputs; reflected
    modes use the half-line domain [0, inf)^2.  Jumps are only valid together
    with reflection.
    """
    params = config.params
    mode = config.input_mode
    wants_jumps = (
        config.jumps_E.intensity_alpha > 0 or config.jumps_I.intensity_alpha > 0
    )
    if mode != "ou_reflected_jumps" and wants_jumps:
        raise ScenarioError(
            f"jump intensity > 0 requires input_mode=ou_reflected_jumps, got {mode!r}"
        )

    if mode == "white_noise":
        def drift(state, u):
            return wilson_cowan_drift(state, params, params.I_ext_E, params.I_ext_I)

        def diffusion(state):
            return wilson_cowan_diffusion(state, params)

        input_current = None
    else:
        def drift(state, u):
            return wilson_cowan_drift(
                state, params, params.I_ext_E + u, params.I_ext_I + u
            )

        def diffusion(state):
            return np.zeros_like(np.asarray(state, dtype=float))

        input_current = config.ou

    if mode in ("white_noise", "ou_current"):
        domain = ReflectionDomain.unreflected(2)
    else:
        domain = ReflectionDomain.half_line(0.0, 2)

    if mode == "ou_reflected_jumps":
        rho_amp = config.rho

        def jump_coeff(state):
            return np.full_like(np.asarray(state, dtype=float), rho_amp)

        jump_specs = (config.jumps_E, config.jumps_I)
    else:
        jump_coeff = None
        jump_specs = None

    return ReflectedJumpSDE(
        dimension=2,
        drift=drift,
        diffusion=diffusion,
        domain=domain,
        x0=np.asarray(config.x0, dtype=float),
        jump_coeff=jump_coeff,
        jump_specs=jump_specs,
        input_current=input_current,
        name=f"wilson_cowan[{mode}]",
    )


def _sample_box(rng, lows, highs, n):
    lows = np.asarray(lows, dtype=float)
    highs = np.asarray(highs, dtype=float)
    return rng.uniform(lows, highs, size=(n, lows.size))


def estimate_lipschitz_constant(fn, box, n_samples: int = 10**5, seed: int = 0):
    """Max sampled difference quotient of ``fn`` over random point pairs.

    ``box`` is (lows, highs); ``fn`` maps (m, d) to (m,) or (m, k).  Distances
    use the 1-norm on both sides.  Returns (estimate, n_samples).
    """
    lows, highs = box
    rng = np.random.default_rng(seed)
    x = _sample_box(rng, lows, highs, n_samples)
    z = _sample_box(rng, lows, highs, n_samples)
    fx = np.atleast_2d(np.asarray(fn(x), dtype=float).T).T
    fz = np.atleast_2d(np.asarray(fn(z), dtype=float).T).T
    num = np.abs(fx - fz).sum(axis=-1)
    den = np.abs(x - z).sum(axis=-1)
    ok = den > 0
    if not np.any(ok):
        return 0.0, n_samples
    return float(np.max(num[ok] / den[ok])), n_samples


@dataclass(frozen=True)
class A3Report:
    c_rho: float
    growth_ratio: float
    lipschitz_ratio: float
    passed: bool
    n_samples: int


def check_jump_coefficient_bound(rho, spec: CompoundPoissonSpec, box,
                                 n_samples: int = 10**5, n_states: int = 200,
                                 seed: int = 0) -> A3Report:
    """Monte Carlo estimate of the square-integral bounds on the jump
    coefficient ``rho(x, y)`` against the jump-size law.

    Growth ratio: E|rho(x, xi)|^2 / (1 + |x|^2), maximized over sampled x.
    Lipschitz ratio: E|rho(x, xi) - rho(z, xi)|^2 / |x - z|^2 over pairs.
    """
    if not np.isfinite(spec.jump_dist.second_moment()):
        raise ValueError("jump-size law must have a finite second moment")
    lows, highs = box
    rng = np.random.default_rng(seed)
    xi = spec.jump_dist.sample(rng, n_samples)
    xs = _sample_box(rng, lows, highs, n_states)
    zs = _sample_box(rng, lows, highs, n_states)

    def mean_sq(x, z=None):
        # rho values for one state across all xi draws; vector outputs use
        # the squared 2-norm.
        rx = np.asarray(rho(x, xi), dtype=float)
        if z is None:
            diff = rx
        else:
            diff = rx - np.asarray(rho(z, xi), dtype=float)
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
    return A3Report(c_rho, growth, lip, passed=np.isfinite(c_rho), n_samples=n_samples)
