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
)
from .sources import PathInputs, sample_path_inputs

__all__ = [
    "SeminormReport",
    "StabilityReport",
    "ConvergenceReport",
    "sup_norm",
    "holder_seminorm",
    "sobolev_seminorm",
    "seminorm_report",
    "stability_experiment",
    "strong_convergence_experiment",
]

REFERENCE_OFFSET = 3  # the convergence reference is this many levels finer
HOLDER_ALPHA, SOBOLEV_ALPHA, SOBOLEV_P = 0.25, 0.25, 2.0  # seminorm_report's exponents
_PAIR_BLOCK = 2**16  # pairs per row block of the Sobolev seminorm


def _as_2d(path) -> np.ndarray:
    path = np.asarray(path, dtype=float)
    if path.size == 0:
        raise ValueError("empty path")
    if not np.isfinite(path).all():
        raise ValueError("path values must be finite")
    if path.ndim == 1:
        return path[:, None]
    return path


def sup_norm(path) -> float:
    """Grid maximum of |h(t)| with the componentwise 1-norm."""
    return float(np.abs(_as_2d(path)).sum(axis=1).max())


def _pair_inputs(path, times):
    values = _as_2d(path)
    times = np.asarray(times, dtype=float)
    if values.shape[0] != times.size or times.size < 2:
        raise ValueError("need >= 2 grid points with matching times")
    if not (np.isfinite(times).all() and (np.diff(times) > 0).all()):
        raise ValueError("times must be finite and strictly increasing")
    return values, times


def holder_seminorm(path, times, alpha: float) -> float:
    """max over grid pairs of |h(t) - h(s)| / |t - s|^alpha, one lag at a time.

    Exact on the grid; a lower bound for the continuum seminorm.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    values, times = _pair_inputs(path, times)
    return max(
        float((np.abs(values[lag:] - values[:-lag]).sum(axis=1)
               / (times[lag:] - times[:-lag]) ** alpha).max())
        for lag in range(1, times.size)
    )


def sobolev_seminorm(path, times, alpha: float, p: float) -> float:
    """Double-integral seminorm int int |h(t)-h(s)|^p / |t-s|^{1+alpha p},
    trapezoid quadrature with the diagonal excluded.  Rows are taken in
    blocks of about ``_PAIR_BLOCK`` pairs, so memory is linear in the path
    length."""
    if p <= 1:
        raise ValueError("p must exceed 1")
    values, times = _pair_inputs(path, times)
    n = times.size
    step = max(1, _PAIR_BLOCK // n)
    inner = np.empty(n)
    for i0 in range(0, n, step):
        rows = np.arange(i0, min(i0 + step, n))
        dist = np.abs(values - values[rows, None]).sum(axis=2)
        gap = np.abs(times - times[rows, None])
        with np.errstate(invalid="ignore"):  # 0/0 on the diagonal
            integrand = dist**p / gap ** (1.0 + alpha * p)
        integrand[rows - i0, rows] = 0.0
        inner[rows] = np.trapezoid(integrand, times, axis=1)
    return float(np.trapezoid(inner, times))


@dataclass(frozen=True)
class SeminormReport:
    sup_norm: float
    holder_alpha: float
    holder_seminorm: float
    sobolev_alpha: float
    sobolev_p: float
    sobolev_seminorm: float


def seminorm_report(path, times):
    return SeminormReport(
        sup_norm=sup_norm(path),
        holder_alpha=HOLDER_ALPHA,
        holder_seminorm=holder_seminorm(path, times, HOLDER_ALPHA),
        sobolev_alpha=SOBOLEV_ALPHA,
        sobolev_p=SOBOLEV_P,
        sobolev_seminorm=sobolev_seminorm(path, times, SOBOLEV_ALPHA, SOBOLEV_P),
    )


@dataclass(frozen=True)
class StabilityReport:
    perturbation_sizes: tuple[float, ...]  # E|X0^k - X0|^2 per offset
    errors: tuple[float, ...]              # E max_t |X^k(t) - X(t)|^2
    fitted_slope: float
    n_paths: int


def _log_slope(xs, ys) -> float:
    """Least-squares slope of log y against log x over the points where
    both are positive; NaN with fewer than two such points."""
    points = [(x, y) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len(points) < 2:
        return float("nan")
    lx = np.log([x for x, _ in points])
    ly = np.log([y for _, y in points])
    return float(np.polyfit(lx, ly, 1)[0])


def _step_paths(model: ReflectedJumpSDE, times, inputs: PathInputs, stride: int = 1):
    """States (n_points, m, d) of every path of ``inputs`` started at
    ``model.x0`` on ``times``, the grid the inputs were drawn on coarsened by
    ``stride``: Wiener increments summed over each step, the input current
    taken at its left endpoint and the jumps added at its end."""
    m, d = len(inputs), model.dimension
    dW = inputs.dW
    if stride > 1:
        dW = dW.reshape(times.size - 1, stride, m, d).sum(axis=1)
    sums = inputs.jump_sums(times) if model.jump_specs is not None else None
    x0s = np.tile(model.x0, (m, 1))
    return integrate_batch(model, times, dW, sums, inputs.u[::stride][:-1], x0s)[0]


def stability_experiment(model: ReflectedJumpSDE, grid: SimulationGrid,
                         perturbations, n_paths: int, master_seed: int):
    """Initial-condition sensitivity under common random numbers.

    The inputs are drawn once and every ensemble is stepped on them, so each
    perturbed ensemble shares every noise stream with the reference; only the
    initial state is offset by ``offset`` in each coordinate.  Errors use the
    1-norm squared.
    """
    perturbations = [float(p) for p in perturbations]
    inputs = sample_path_inputs(model, grid, master_seed, range(n_paths))
    ref_states = _step_paths(model, grid.times, inputs)
    sizes, errors = [], []
    d = model.dimension
    for offset in perturbations:
        states = _step_paths(model.with_x0(model.x0 + offset), grid.times, inputs)
        diff = np.abs(states - ref_states).sum(axis=2)  # (n_points, m)
        errors.append(float((diff.max(axis=0) ** 2).mean()))
        sizes.append((d * offset) ** 2)
    return StabilityReport(tuple(sizes), tuple(errors),
                           _log_slope(sizes, errors), n_paths)


@dataclass(frozen=True)
class ConvergenceReport:
    levels: tuple[int, ...]
    dts: tuple[float, ...]
    rms_errors: tuple[float, ...]
    empirical_order: float
    reference_level: int
    n_paths: int


def strong_convergence_experiment(model: ReflectedJumpSDE, levels, n_paths: int,
                                  master_seed: int, horizon: float):
    """RMS terminal error of the dyadic scheme against a fine reference.

    All levels share one noise realization: Brownian increments (and the
    input-current driving noise) are generated at the reference level and
    aggregated down to each coarser grid.
    """
    levels = sorted(int(n) for n in levels)
    ref_level = levels[-1] + REFERENCE_OFFSET
    fine_grid = build_dyadic_partition(ref_level, horizon)
    inputs = sample_path_inputs(model, fine_grid, master_seed, range(n_paths))

    def terminal(level):
        grid = build_dyadic_partition(level, horizon)
        return _step_paths(model, grid.times, inputs, 2 ** (ref_level - level))[-1]

    terminal_ref = terminal(ref_level)
    dts, errs = [], []
    for level in levels:
        diff = np.abs(terminal(level) - terminal_ref).sum(axis=1)
        errs.append(float(np.sqrt(np.mean(diff**2))))
        dts.append(horizon * 2.0**-level)
    return ConvergenceReport(tuple(levels), tuple(dts), tuple(errs),
                             _log_slope(dts, errs), ref_level, n_paths)
