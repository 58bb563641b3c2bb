"""Time stepping for coupled reflected jump-diffusions.

The scheme freezes drift/diffusion/jump coefficients at the left endpoint of
each grid cell and applies the componentwise reflection last, so the recorded
state always lies in the domain.  The compound-Poisson jumps that fall inside
a cell are either added at the end of the step or, with exact jump timing,
applied at their own times: the step is split there, each sub-step takes a
Brownian-bridge share of the step's increment and is reflected.  One batched
loop, :func:`integrate_batch`, runs both.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
    stream_layout,
)

__all__ = [
    "SimulationGrid",
    "build_dyadic_partition",
    "dyadic_steps",
    "uniform_grid",
    "uniform_steps",
    "ReflectedJumpSDE",
    "TrajectoryBundle",
    "EnsembleResult",
    "SimulationAbort",
    "JUMP_TIMINGS",
    "simulate_trajectory",
    "simulate_paths",
    "simulate_ensemble",
]

MAX_DYADIC_LEVEL = 30  # grids have at most 2**MAX_DYADIC_LEVEL steps
JUMP_TIMINGS = ("end_of_step", "exact")


class SimulationAbort(RuntimeError):
    """Raised when a coefficient evaluation or a state proposal produced a
    non-finite value."""

    def __init__(self, step_index: int, what: str):
        super().__init__(f"non-finite {what} at step {step_index}")
        self.step_index = step_index


@dataclass(frozen=True, eq=False)
class SimulationGrid:
    """Uniform or dyadic time grid on [0, horizon]."""

    times: np.ndarray
    horizon: float
    dt: float

    @property
    def n_steps(self) -> int:
        return self.times.size - 1


def dyadic_steps(level: int, horizon: float) -> int:
    """Step count of the dyadic grid of ``level`` on [0, horizon], after the
    checks :func:`build_dyadic_partition` makes."""
    if level < 1:
        raise ValueError("dyadic level must be >= 1")
    if level > MAX_DYADIC_LEVEL:
        raise ValueError(f"dyadic level capped at {MAX_DYADIC_LEVEL}")
    if not 0 < horizon < math.inf:
        raise ValueError("horizon must be positive and finite")
    return 2**level


def build_dyadic_partition(level: int, horizon: float) -> SimulationGrid:
    """Dyadic grid with 2^level steps: points k * 2^-level * horizon."""
    n = dyadic_steps(level, horizon)
    times = np.linspace(0.0, horizon, n + 1)
    return SimulationGrid(times, float(horizon), horizon / n)


def uniform_steps(dt: float, horizon: float) -> int:
    """Step count of the uniform grid of step ``dt`` on [0, horizon], after
    the checks :func:`uniform_grid` makes."""
    if dt <= 0 or horizon <= 0:
        raise ValueError("dt and horizon must be positive")
    ratio = horizon / dt
    n = round(ratio) if math.isfinite(ratio) else 0
    if n > 2**MAX_DYADIC_LEVEL:
        raise ValueError(f"grid capped at 2**{MAX_DYADIC_LEVEL} steps")
    if n < 1 or abs(n * dt - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError("horizon must be an integer multiple of dt")
    return n


def uniform_grid(dt: float, horizon: float) -> SimulationGrid:
    n = uniform_steps(dt, horizon)
    times = np.linspace(0.0, horizon, n + 1)
    return SimulationGrid(times, float(horizon), horizon / n)


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


def _coefficients(model, x, u, step_index, with_jumps):
    """Drift, diffusion and, if ``with_jumps``, the jump coefficient, frozen
    at the batch of states ``x``."""
    f = model.drift(x, u)
    g = model.diffusion(x)
    if not np.all(np.isfinite(f)):
        raise SimulationAbort(step_index, "drift")
    if not np.all(np.isfinite(g)):
        raise SimulationAbort(step_index, "diffusion")
    rho = None
    if with_jumps and model.jump_coeff is not None:
        rho = model.jump_coeff(x)
        if not np.all(np.isfinite(rho)):
            raise SimulationAbort(step_index, "jump coefficient")
    return f, g, rho


def _reflect(model, prop, step_index):
    if not np.all(np.isfinite(prop)):
        raise SimulationAbort(step_index, "state proposal")
    return reflect_box(prop, model.domain)


def integrate_batch(model: ReflectedJumpSDE, times: np.ndarray, dW: np.ndarray,
                    jump_sums, u: np.ndarray, x0s: np.ndarray, substeps=None):
    """Step a batch of paths through the grid.

    dW: (n_steps, m, d); u: (n_steps, m); x0s: (m, d).  Jumps come either as
    ``jump_sums``, (n_steps, m, d) summed sizes added at the end of each
    step, or as ``substeps`` from :func:`_exact_substeps`, which split each
    step at its jump times; the other is None.  Returns (states, phi_lower,
    phi_upper), each (n_points, m, d).
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
    substeps = substeps or {}
    for k in range(n_steps):
        groups = substeps.get(k, ())
        js = None if jump_sums is None else jump_sums[k]
        f, g, rho = _coefficients(model, x, u[k], k, js is not None or bool(groups))
        dt = times[k + 1] - times[k]
        w = dW[k]
        if groups:
            # Coefficients stay frozen at the step's left endpoint (copy x,
            # they may alias it); each group moves its rows to their next
            # jump, applies it and reflects.
            x, w, dt = x.copy(), w.copy(), np.full((m, 1), dt)
            for rows, coord, size, sub, frac, noise, rest in groups:
                dw = w[rows] * frac + noise
                prop = x[rows] + f[rows] * sub + g[rows] * dw
                prop[np.arange(rows.size), coord] += size * rho[rows, coord]
                x[rows], linc, uinc = _reflect(model, prop, k)
                acc_lo[rows] += linc
                acc_hi[rows] += uinc
                w[rows] -= dw
                dt[rows] = rest
        prop = x + f * dt + g * w
        if rho is not None and js is not None:
            prop = prop + rho * js
        x, linc, uinc = _reflect(model, prop, k)
        acc_lo += linc
        acc_hi += uinc
        states[k + 1] = x
        phi_lower[k + 1] = acc_lo
        phi_upper[k + 1] = acc_hi
    return states, phi_lower, phi_upper


def _exact_substeps(model, times, inputs: PathInputs, master_seed, stream_indices):
    """The jumps of ``inputs`` as sub-steps of the grid ``times``.

    Returns {step: [group, ...]}: group r holds the r-th jump in that step of
    every path that has one, as arrays (rows, coord, size, sub, frac, noise,
    rest).  ``sub`` is the time since the row's previous jump (or the step's
    left endpoint) and ``rest`` the time left to the step's right endpoint.
    The sub-step's Brownian increment is ``frac`` times what is left of the
    step's increment plus ``noise``, a conditional Brownian-bridge draw from
    the path's bridge stream, one draw per sub-step of positive length.
    """
    if inputs.time.size == 0:
        return {}
    # stable, so simultaneous jumps keep their coordinate order
    order = np.lexsort((inputs.time, inputs.path))
    time, size, path, coord = (
        a[order] for a in (inputs.time, inputs.size, inputs.path, inputs.coord)
    )
    step = _cells(times, time)
    first = np.ones(time.size, dtype=bool)
    first[1:] = (path[1:] != path[:-1]) | (step[1:] != step[:-1])
    rank = np.arange(time.size) - np.flatnonzero(first)[np.cumsum(first) - 1]
    end = np.maximum(time, times[step])
    start = np.where(first, times[step], np.roll(end, 1))
    sub = end - start
    draw = sub > 0  # then the time left, total, is positive too
    total = np.where(draw, times[step + 1] - start, 1.0)
    d = model.dimension
    bridge = stream_layout(d)[3]
    counts = np.bincount(path[draw], minlength=len(inputs))
    z = np.zeros((time.size, d))
    z[draw] = np.concatenate([np.empty((0, d))] + [
        SeedSpec(master_seed, idx, bridge).rng().standard_normal((n, d))
        for idx, n in zip(stream_indices, counts) if n
    ])
    frac = np.where(draw, sub / total, 0.0)
    noise = np.where(draw[:, None], np.sqrt(sub * (total - sub) / total)[:, None] * z, 0.0)
    rest = times[step + 1] - end
    fields = (path, coord, size, sub[:, None], frac[:, None], noise, rest[:, None])
    by_group = np.lexsort((rank, step))
    step, rank = step[by_group], rank[by_group]
    cut = np.flatnonzero((np.diff(step) != 0) | (np.diff(rank) != 0)) + 1
    groups: dict[int, list] = {}
    pieces = zip(*(np.split(a[by_group], cut) for a in fields))
    for k, group in zip(step[np.r_[0, cut]].tolist(), pieces):
        groups.setdefault(k, []).append(group)
    return groups


def simulate_paths(model: ReflectedJumpSDE, grid: SimulationGrid,
                   master_seed: int, stream_indices: Sequence[int],
                   jump_timing: str = "end_of_step"):
    """Simulate the given trajectory streams; returns (states, phi_lower,
    phi_upper, inputs) with array shapes (n_points, m, d).  ``inputs`` is the
    :class:`PathInputs` drawn for them; ``inputs[j]`` is path j's jump log.

    ``jump_timing`` is ``"end_of_step"`` (each step's jumps are summed and
    added at its end) or ``"exact"`` (each step is split at its jump times).
    """
    if jump_timing not in JUMP_TIMINGS:
        raise ValueError(f"unknown jump_timing {jump_timing!r}")
    inputs = sample_path_inputs(model, grid, master_seed, stream_indices)
    jump_sums = substeps = None
    if jump_timing == "exact":
        substeps = _exact_substeps(model, grid.times, inputs, master_seed, stream_indices)
    elif model.jump_specs is not None:
        jump_sums = inputs.jump_sums(grid.times)
    x0s = np.tile(model.x0, (len(inputs), 1))
    states, phi_lower, phi_upper = integrate_batch(
        model, grid.times, inputs.dW, jump_sums, inputs.u[:-1], x0s, substeps
    )
    return states, phi_lower, phi_upper, inputs


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
    states, phi_lower, phi_upper, inputs = simulate_paths(
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
    states, phi_lower, phi_upper, inputs = simulate_paths(
        model, grid, master_seed, range(n_paths), jump_timing
    )
    kept = tuple(
        _bundle(grid, states, phi_lower, phi_upper, inputs, j, master_seed, j)
        for j in range(min(retain, n_paths))
    )
    mean = states.mean(axis=1)
    if n_paths > 1:
        variance = states.var(axis=1, ddof=1)
    else:
        variance = np.zeros_like(mean)
    return EnsembleResult(grid, n_paths, mean, variance, kept)
