"""Path diagnostics and verification experiments: seminorms of sampled
paths, initial-condition stability under common random numbers, and strong
convergence of the dyadic scheme against a fine-grid reference.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import (
    ReflectedJumpSDE,
    SimulationGrid,
    build_dyadic_partition,
    integrate_batch,
    simulate_paths,
)
from .sources import sample_path_inputs

__all__ = [
    "SeminormReport",
    "StabilityReport",
    "ConvergenceReport",
    "sup_norm",
    "holder_seminorm",
    "sobolev_seminorm",
    "seminorm_report",
    "ensemble_moments",
    "stability_experiment",
    "strong_convergence_experiment",
]

REFERENCE_OFFSET = 3  # the convergence reference is this many levels finer


def _as_2d(path) -> np.ndarray:
    path = np.asarray(path, dtype=float)
    if path.size == 0:
        raise ValueError("empty path")
    if path.ndim == 1:
        return path[:, None]
    return path


def sup_norm(path) -> float:
    """Grid maximum of |h(t)| with the componentwise 1-norm."""
    return float(np.abs(_as_2d(path)).sum(axis=1).max())


def holder_seminorm(path, times, alpha: float) -> float:
    """max over grid pairs of |h(t) - h(s)| / |t - s|^alpha.

    Exact on the grid; a lower bound for the continuum seminorm.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    values = np.ascontiguousarray(_as_2d(path))
    times = np.ascontiguousarray(times, dtype=float)
    if values.shape[0] != times.size or times.size < 2:
        raise ValueError("need >= 2 grid points with matching times")
    return _holder_pair_max(values, times, alpha)


def _holder_pair_max(values, times, alpha):
    # Row-at-a-time to keep memory linear in the path length.
    n = values.shape[0]
    best = 0.0
    for i in range(n - 1):
        num = np.abs(values[i + 1 :] - values[i]).sum(axis=1)
        ratio = num / (times[i + 1 :] - times[i]) ** alpha
        m = float(ratio.max())
        if m > best:
            best = m
    return best


def sobolev_seminorm(path, times, alpha: float, p: float) -> float:
    """Double-integral seminorm int int |h(t)-h(s)|^p / |t-s|^{1+alpha p},
    trapezoid quadrature with the diagonal excluded."""
    if p <= 1:
        raise ValueError("p must exceed 1")
    values = _as_2d(path)
    times = np.asarray(times, dtype=float)
    if times.size < 2:
        raise ValueError("need >= 2 grid points")
    diff = np.abs(values[:, None, :] - values[None, :, :]).sum(axis=2)
    gap = np.abs(times[:, None] - times[None, :])
    integrand = np.zeros_like(gap)
    off = gap > 0
    integrand[off] = diff[off] ** p / gap[off] ** (1.0 + alpha * p)
    inner = np.trapezoid(integrand, times, axis=1)
    return float(np.trapezoid(inner, times))


@dataclass(frozen=True)
class SeminormReport:
    sup_norm: float
    holder_alpha: float
    holder_seminorm: float
    sobolev_alpha: float
    sobolev_p: float
    sobolev_seminorm: float


def seminorm_report(path, times, holder_alpha: float = 0.25,
                    sobolev_alpha: float = 0.25, sobolev_p: float = 2.0):
    return SeminormReport(
        sup_norm=sup_norm(path),
        holder_alpha=holder_alpha,
        holder_seminorm=holder_seminorm(path, times, holder_alpha),
        sobolev_alpha=sobolev_alpha,
        sobolev_p=sobolev_p,
        sobolev_seminorm=sobolev_seminorm(path, times, sobolev_alpha, sobolev_p),
    )


def ensemble_moments(states: np.ndarray):
    """Unbiased per-time mean/variance and the mean max-process statistic.

    ``states`` has shape (n_points, m, d); the max-process statistic is the
    per-path grid maximum of the 1-norm, averaged over paths.
    """
    states = np.asarray(states, dtype=float)
    if states.ndim != 3 or states.shape[1] == 0:
        raise ValueError("states must be (n_points, m, d) with m >= 1")
    m = states.shape[1]
    mean = states.mean(axis=1)
    variance = states.var(axis=1, ddof=1) if m > 1 else np.zeros_like(mean)
    max_process = float(np.abs(states).sum(axis=2).max(axis=0).mean())
    return mean, variance, max_process


@dataclass(frozen=True)
class StabilityReport:
    perturbation_sizes: tuple[float, ...]  # E|X0^k - X0|^2 per offset
    errors: tuple[float, ...]              # E max_t |X^k(t) - X(t)|^2
    fitted_slope: float
    n_paths: int


def stability_experiment(model: ReflectedJumpSDE, grid: SimulationGrid,
                         perturbations, n_paths: int, master_seed: int):
    """Initial-condition sensitivity under common random numbers.

    Each perturbed ensemble shares every noise stream with the reference
    (same master seed and stream indices); only the initial state is offset
    by ``offset`` in each coordinate.  Errors use the 1-norm squared.
    """
    perturbations = [float(p) for p in perturbations]
    streams = range(n_paths)
    ref_states, _, _, _ = simulate_paths(model, grid, master_seed, streams)
    sizes = []
    errors = []
    d = model.dimension
    for offset in perturbations:
        perturbed = model.with_x0(model.x0 + offset)
        states, _, _, _ = simulate_paths(perturbed, grid, master_seed, streams)
        diff = np.abs(states - ref_states).sum(axis=2)  # (n_points, m)
        errors.append(float((diff.max(axis=0) ** 2).mean()))
        sizes.append((d * offset) ** 2)
    positive = [(s, e) for s, e in zip(sizes, errors) if s > 0 and e > 0]
    if len(positive) >= 2:
        ls = np.log([s for s, _ in positive])
        le = np.log([e for _, e in positive])
        slope = float(np.polyfit(ls, le, 1)[0])
    else:
        slope = float("nan")
    return StabilityReport(tuple(sizes), tuple(errors), slope, n_paths)


@dataclass(frozen=True)
class ConvergenceReport:
    levels: tuple[int, ...]
    dts: tuple[float, ...]
    rms_errors: tuple[float, ...]
    empirical_order: float
    reference_level: int
    n_paths: int


def strong_convergence_experiment(model: ReflectedJumpSDE, levels, n_paths: int,
                                  master_seed: int, horizon: float,
                                  reference_offset: int = REFERENCE_OFFSET):
    """RMS terminal error of the dyadic scheme against a fine reference.

    All levels share one noise realization: Brownian increments (and the
    input-current driving noise) are generated at the reference level and
    aggregated down to each coarser grid.
    """
    levels = sorted(int(n) for n in levels)
    ref_level = levels[-1] + reference_offset
    fine_grid = build_dyadic_partition(ref_level, horizon)
    inputs = sample_path_inputs(model, fine_grid, master_seed, range(n_paths))
    m, d = n_paths, model.dimension
    x0s = np.tile(model.x0, (m, 1))

    def run_level(level):
        grid = build_dyadic_partition(level, horizon)
        stride = 2 ** (ref_level - level)
        n_steps = grid.n_steps
        dW = inputs.dW.reshape(n_steps, stride, m, d).sum(axis=1)
        u = inputs.u[::stride][:-1]
        sums = inputs.jump_sums(grid.times) if model.jump_specs is not None else None
        states, _, _ = integrate_batch(model, grid.times, dW, sums, u, x0s)
        return states[-1]

    terminal_ref = run_level(ref_level)
    dts = []
    errs = []
    for level in levels:
        terminal = run_level(level)
        diff = np.abs(terminal - terminal_ref).sum(axis=1)
        errs.append(float(np.sqrt(np.mean(diff**2))))
        dts.append(horizon * 2.0**-level)
    positive = [(dt, e) for dt, e in zip(dts, errs) if e > 0]
    if len(positive) >= 2:
        order = float(
            np.polyfit(np.log([d_ for d_, _ in positive]),
                       np.log([e for _, e in positive]), 1)[0]
        )
    else:
        order = float("nan")
    return ConvergenceReport(
        tuple(levels), tuple(dts), tuple(errs), order, ref_level, n_paths
    )
