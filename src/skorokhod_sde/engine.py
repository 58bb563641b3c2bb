"""Time stepping for coupled reflected jump-diffusions.

The scheme freezes drift/diffusion/jump coefficients at the left endpoint of
each grid cell, adds the compound-Poisson jumps that fall inside the cell at
the end of the step, and applies the componentwise reflection last, so the
recorded state always lies in the domain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .skorokhod import ReflectionDomain, reflect_box, total_variation
from .sources import (
    CompoundPoissonSpec,
    JumpEvent,
    OUParams,
    PathInputs,
    SeedSpec,
    _cells,
    sample_path_inputs,
)

__all__ = [
    "SimulationGrid",
    "build_dyadic_partition",
    "uniform_grid",
    "ReflectedJumpSDE",
    "TrajectoryBundle",
    "EnsembleResult",
    "SimulationAbort",
    "euler_step",
    "simulate_trajectory",
    "simulate_paths",
    "simulate_ensemble",
]

MAX_DYADIC_LEVEL = 30


class SimulationAbort(RuntimeError):
    """Raised when a coefficient evaluation produced a non-finite value."""

    def __init__(self, step_index: int, what: str):
        super().__init__(f"non-finite {what} at step {step_index}")
        self.step_index = step_index


@dataclass(frozen=True, eq=False)
class SimulationGrid:
    """Uniform or dyadic time grid on [0, horizon]."""

    times: np.ndarray
    horizon: float
    dt: float
    mode: str = "uniform"
    level: Optional[int] = None

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    def left_endpoint(self, t: float) -> float:
        """Step function mapping t to the left endpoint of its grid cell
        (cells are half-open on the left: ((k-1) dt, k dt])."""
        if t < 0 or t > self.horizon * (1 + 1e-12):
            raise ValueError(f"t={t} outside [0, {self.horizon}]")
        if t <= 0:
            return 0.0
        k = math.ceil(t / self.dt - 1e-9)
        k = min(max(k, 1), self.n_steps)
        return (k - 1) * self.dt


def build_dyadic_partition(level: int, horizon: float) -> SimulationGrid:
    """Dyadic grid with 2^level steps: points k * 2^-level * horizon."""
    if level < 1:
        raise ValueError("dyadic level must be >= 1")
    if level > MAX_DYADIC_LEVEL:
        raise ValueError(f"dyadic level capped at {MAX_DYADIC_LEVEL}")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    n = 2**level
    times = np.linspace(0.0, horizon, n + 1)
    return SimulationGrid(times, float(horizon), horizon / n, "dyadic", level)


def uniform_grid(dt: float, horizon: float) -> SimulationGrid:
    if dt <= 0 or horizon <= 0:
        raise ValueError("dt and horizon must be positive")
    n = round(horizon / dt)
    if n < 1 or abs(n * dt - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError("horizon must be an integer multiple of dt")
    times = np.linspace(0.0, horizon, n + 1)
    return SimulationGrid(times, float(horizon), horizon / n, "uniform", None)


@dataclass(frozen=True, eq=False)
class ReflectedJumpSDE:
    """Coupled reflected jump-diffusion with diagonal noise.

    ``drift(state, u)`` and ``diffusion(state)`` map a batch of states
    (m, d) to (m, d); ``u`` is the exogenous input-current value per path
    (zeros when there is no input process).  ``jump_coeff(state)`` scales the
    drawn jump sizes per coordinate.
    """

    dimension: int
    drift: Callable[[np.ndarray, np.ndarray], np.ndarray]
    diffusion: Callable[[np.ndarray], np.ndarray]
    domain: ReflectionDomain
    x0: np.ndarray
    jump_coeff: Optional[Callable[[np.ndarray], np.ndarray]] = None
    jump_specs: Optional[tuple[CompoundPoissonSpec, ...]] = None
    input_current: Optional[OUParams] = None
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        if self.x0.shape != (self.dimension,):
            raise ValueError("x0 must have shape (dimension,)")
        if self.domain.dim != self.dimension:
            raise ValueError("domain dimension mismatch")
        if not self.domain.contains(self.x0):
            raise ValueError(f"x0={self.x0} outside the domain")
        if (self.jump_specs is None) != (self.jump_coeff is None):
            raise ValueError("jump_specs and jump_coeff must be given together")
        if self.jump_specs is not None and len(self.jump_specs) != self.dimension:
            raise ValueError("need one CompoundPoissonSpec per coordinate")

    @property
    def has_jumps(self) -> bool:
        return self.jump_specs is not None and any(
            s.intensity_alpha > 0 for s in self.jump_specs
        )

    def with_x0(self, x0) -> "ReflectedJumpSDE":
        return replace(self, x0=np.asarray(x0, dtype=float))

    # component_index layout used by the samplers
    def wiener_component(self, coord: int) -> int:
        return coord

    def jump_component(self, coord: int) -> int:
        return self.dimension + coord

    @property
    def input_component(self) -> int:
        return 2 * self.dimension

    @property
    def bridge_component(self) -> int:
        return 2 * self.dimension + 1


@dataclass(frozen=True, eq=False)
class TrajectoryBundle:
    """One recorded trajectory: states, reflection terms and the jump log."""

    grid: SimulationGrid
    states: np.ndarray           # (n_points, d)
    phi: np.ndarray              # net reflection term, (n_points, d)
    phi_lower: np.ndarray
    phi_upper: np.ndarray
    jumps: tuple[JumpEvent, ...]
    master_seed: int
    stream_index: int

    @property
    def phi_tv(self) -> np.ndarray:
        return total_variation(self.phi_lower) + total_variation(self.phi_upper)

    def cumulative_jump_counts(self) -> np.ndarray:
        """Applied-jump counts per coordinate at each grid point."""
        counts = np.zeros(self.states.shape, dtype=int)
        k = _cells(self.grid.times, [ev.time for ev in self.jumps])
        coords = np.array([ev.component for ev in self.jumps], dtype=int)
        np.add.at(counts, (k + 1, coords), 1)
        return np.cumsum(counts, axis=0)


@dataclass(frozen=True, eq=False)
class EnsembleResult:
    grid: SimulationGrid
    n_paths: int
    mean: np.ndarray       # (n_points, d)
    variance: np.ndarray   # unbiased, (n_points, d)
    bundles: tuple[TrajectoryBundle, ...] = ()


def _proposal(model, state, u, dW, jump_sum, dt, step_index):
    f = model.drift(state, u)
    g = model.diffusion(state)
    if not np.all(np.isfinite(f)):
        raise SimulationAbort(step_index, "drift")
    if not np.all(np.isfinite(g)):
        raise SimulationAbort(step_index, "diffusion")
    prop = state + f * dt + g * dW
    if jump_sum is not None and model.jump_coeff is not None:
        rho = model.jump_coeff(state)
        if not np.all(np.isfinite(rho)):
            raise SimulationAbort(step_index, "jump coefficient")
        prop = prop + rho * jump_sum
    if not np.all(np.isfinite(prop)):
        raise SimulationAbort(step_index, "state proposal")
    return prop


def euler_step(model, state, dW, dt, jumps=None, u=None, step_index=0):
    """One reflected Euler step from ``state`` (coefficients frozen there).

    ``jumps`` may be a list of :class:`JumpEvent` or a per-coordinate array of
    summed jump sizes.  Returns (next_state, lower_phi_inc, upper_phi_inc).
    """
    state = np.asarray(state, dtype=float)
    dW = np.asarray(dW, dtype=float)
    if u is None:
        u = np.zeros(state.shape[:-1])
    if jumps is None:
        jump_sum = None
    elif isinstance(jumps, (list, tuple)):
        jump_sum = np.zeros(state.shape[-1])
        for ev in jumps:
            jump_sum[ev.component] += ev.size
    else:
        jump_sum = np.asarray(jumps, dtype=float)
    prop = _proposal(model, state, u, dW, jump_sum, dt, step_index)
    return reflect_box(prop, model.domain)


def integrate_batch(model: ReflectedJumpSDE, times: np.ndarray, dW: np.ndarray,
                    jump_sums, u: np.ndarray, x0s: np.ndarray):
    """Step a batch of paths through the grid.

    dW: (n_steps, m, d); jump_sums: (n_steps, m, d) or None; u: (n_steps, m);
    x0s: (m, d).  Returns (states, phi_lower, phi_upper), each
    (n_points, m, d).
    """
    n_steps = times.size - 1
    m, d = x0s.shape
    states = np.empty((n_steps + 1, m, d))
    phi_lower = np.zeros((n_steps + 1, m, d))
    phi_upper = np.zeros((n_steps + 1, m, d))
    x = x0s.copy()
    states[0] = x
    acc_lo = np.zeros((m, d))
    acc_hi = np.zeros((m, d))
    for k in range(n_steps):
        dt = times[k + 1] - times[k]
        js = None if jump_sums is None else jump_sums[k]
        prop = _proposal(model, x, u[k], dW[k], js, dt, k)
        x, linc, uinc = reflect_box(prop, model.domain)
        acc_lo += linc
        acc_hi += uinc
        states[k + 1] = x
        phi_lower[k + 1] = acc_lo
        phi_upper[k + 1] = acc_hi
    return states, phi_lower, phi_upper


def simulate_paths(model: ReflectedJumpSDE, grid: SimulationGrid,
                   master_seed: int, stream_indices: Sequence[int]):
    """Simulate the given trajectory streams; returns (states, phi_lower,
    phi_upper, inputs) with array shapes (n_points, m, d).  ``inputs`` is the
    :class:`PathInputs` drawn for them; ``inputs[j]`` is path j's jump log."""
    inputs = sample_path_inputs(model, grid, master_seed, stream_indices)
    jump_sums = inputs.jump_sums(grid.times) if model.jump_specs is not None else None
    x0s = np.tile(model.x0, (len(inputs), 1))
    states, phi_lower, phi_upper = integrate_batch(
        model, grid.times, inputs.dW, jump_sums, inputs.u[:-1], x0s
    )
    return states, phi_lower, phi_upper, inputs


def _simulate_path_exact(model: ReflectedJumpSDE, grid: SimulationGrid,
                         master_seed: int, stream_index: int):
    """Variant of :func:`simulate_paths` for one path that splits steps at
    jump times.

    Within a jump step the Brownian increment is partitioned by conditional
    Brownian-bridge draws from a dedicated stream; coefficients stay frozen at
    the step's left-endpoint state and reflection is applied after every
    sub-interval.
    """
    inputs = sample_path_inputs(model, grid, master_seed, [stream_index])
    bridge_rng = SeedSpec(master_seed, stream_index, model.bridge_component).rng()
    times = grid.times
    dW, u = inputs.dW[:, 0], inputs.u[:, 0]
    # stable in time, so simultaneous jumps keep coordinate order
    events = sorted(inputs[0], key=lambda e: e.time)
    events_by_step: dict[int, list[JumpEvent]] = {}
    for k, ev in zip(_cells(times, [e.time for e in events]).tolist(), events):
        events_by_step.setdefault(k, []).append(ev)
    d = model.dimension
    states = np.empty((times.size, d))
    phi_lower = np.zeros((times.size, d))
    phi_upper = np.zeros((times.size, d))
    x = model.x0.copy()
    states[0] = x
    acc_lo = np.zeros(d)
    acc_hi = np.zeros(d)
    for k in range(times.size - 1):
        t0, t1 = times[k], times[k + 1]
        frozen = x.copy()
        f = model.drift(frozen[None, :], u[k : k + 1])[0]
        g = model.diffusion(frozen[None, :])[0]
        rho = (
            model.jump_coeff(frozen[None, :])[0]
            if model.jump_coeff is not None
            else None
        )
        if not (np.all(np.isfinite(f)) and np.all(np.isfinite(g))):
            raise SimulationAbort(k, "coefficients")
        s = t0
        remaining = dW[k].copy()
        for ev in events_by_step.get(k, ()):
            sub = max(ev.time, s) - s
            total = t1 - s
            if total > 0 and sub > 0:
                mean = remaining * (sub / total)
                std = math.sqrt(sub * (total - sub) / total)
                dw_sub = mean + std * bridge_rng.standard_normal(d)
            else:
                dw_sub = np.zeros(d)
            prop = x + f * sub + g * dw_sub
            prop[ev.component] += ev.size * (rho[ev.component] if rho is not None else 0.0)
            x, linc, uinc = reflect_box(prop, model.domain)
            acc_lo += linc
            acc_hi += uinc
            remaining = remaining - dw_sub
            s = max(ev.time, s)
        prop = x + f * (t1 - s) + g * remaining
        if not np.all(np.isfinite(prop)):
            raise SimulationAbort(k, "state proposal")
        x, linc, uinc = reflect_box(prop, model.domain)
        acc_lo += linc
        acc_hi += uinc
        states[k + 1] = x
        phi_lower[k + 1] = acc_lo
        phi_upper[k + 1] = acc_hi
    return states[:, None], phi_lower[:, None], phi_upper[:, None], inputs


def _simulate(model, grid, master_seed, stream_indices, jump_timing):
    if jump_timing == "exact":
        (stream_index,) = stream_indices
        return _simulate_path_exact(model, grid, master_seed, stream_index)
    if jump_timing != "end_of_step":
        raise ValueError(f"unknown jump_timing {jump_timing!r}")
    return simulate_paths(model, grid, master_seed, stream_indices)


def _bundle(grid, states, phi_lower, phi_upper, inputs: PathInputs, j,
            master_seed, stream_index):
    lower, upper = phi_lower[:, j, :], phi_upper[:, j, :]
    return TrajectoryBundle(
        grid=grid,
        states=states[:, j, :],
        phi=lower - upper,
        phi_lower=lower,
        phi_upper=upper,
        jumps=inputs[j],
        master_seed=master_seed,
        stream_index=stream_index,
    )


def simulate_trajectory(model: ReflectedJumpSDE, grid: SimulationGrid,
                        master_seed: int, stream_index: int = 0,
                        jump_timing: str = "end_of_step") -> TrajectoryBundle:
    """Full trajectory on the grid, deterministic in the seed triple."""
    states, phi_lower, phi_upper, inputs = _simulate(
        model, grid, master_seed, [stream_index], jump_timing
    )
    return _bundle(grid, states, phi_lower, phi_upper, inputs, 0,
                   master_seed, stream_index)


def simulate_ensemble(model: ReflectedJumpSDE, grid: SimulationGrid,
                      n_paths: int, master_seed: int, retain: int = 0,
                      jump_timing: str = "end_of_step") -> EnsembleResult:
    """Independent trajectories via disjoint stream indices 0..n_paths-1;
    returns per-time-point mean/variance plus the first ``retain`` bundles."""
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    retain = min(retain, n_paths)
    if jump_timing == "exact":
        bundles = [
            simulate_trajectory(model, grid, master_seed, i, jump_timing="exact")
            for i in range(n_paths)
        ]
        states = np.stack([b.states for b in bundles], axis=1)
        kept = tuple(bundles[:retain])
    else:
        states, phi_lower, phi_upper, inputs = _simulate(
            model, grid, master_seed, range(n_paths), jump_timing
        )
        kept = tuple(
            _bundle(grid, states, phi_lower, phi_upper, inputs, j, master_seed, j)
            for j in range(retain)
        )
    mean = states.mean(axis=1)
    if n_paths > 1:
        variance = states.var(axis=1, ddof=1)
    else:
        variance = np.zeros_like(mean)
    return EnsembleResult(grid, n_paths, mean, variance, kept)
