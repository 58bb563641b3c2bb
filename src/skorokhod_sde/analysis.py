"""Path diagnostics and verification experiments: seminorms of sampled
paths, initial-condition stability under common random numbers, and strong
convergence of the dyadic scheme against a fine-grid reference.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import (
    ReflectedJumpSDE,
    SimulationAbort,
    SimulationGrid,
    build_dyadic_partition,
    integrate_batch,
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
    "stability_experiment",
    "strong_convergence_experiment",
]

REFERENCE_OFFSET = 3  # the convergence reference is this many levels finer
HOLDER_ALPHA, SOBOLEV_ALPHA, SOBOLEV_P = 0.25, 0.25, 2.0  # seminorm_report's exponents
_PAIR_BLOCK = 2**14  # pairs per row block of the Sobolev seminorm
_PAIRWISE_FROM = 8  # numpy sums a trailing axis this long pairwise, not in order
_BOUND_SLACK = 1e-12  # relative rounding allowance of the Hölder stopping bound


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


def _l1(a, b):
    """``np.abs(a - b).sum(axis=-1)``, bit for bit, at a fraction of its cost.

    Below ``_PAIRWISE_FROM`` trailing entries numpy adds them in order, so
    accumulating the columns in order gives the same floats; from there on
    it sums pairwise (in an order that depends on the memory layout), and
    the plain reduction is kept."""
    d = np.shape(a)[-1]
    if d >= _PAIRWISE_FROM:
        return np.abs(a - b).sum(axis=-1)
    total = np.abs(a[..., 0] - b[..., 0])
    for c in range(1, d):
        total += np.abs(a[..., c] - b[..., c])
    return total


def _pair_inputs(path, times):
    """The paths of an (n,) or (n, d) path or of an (n, k, d) stack, each
    an (n, d) copy with contiguous columns for _l1's loop or, from
    _PAIRWISE_FROM on, where numpy's pairwise sums add in a
    layout-dependent order, with contiguous rows; and the times."""
    values = _as_2d(path)
    times = np.asarray(times, dtype=float)
    if values.shape[0] != times.size or times.size < 2:
        raise ValueError("need >= 2 grid points with matching times")
    if not (np.isfinite(times).all() and (np.diff(times) > 0).all()):
        raise ValueError("times must be finite and strictly increasing")
    layout = np.asfortranarray if values.shape[-1] < _PAIRWISE_FROM else np.ascontiguousarray
    stack = values if values.ndim == 3 else values[:, None]
    return [layout(stack[:, j]) for j in range(stack.shape[1])], times


def holder_seminorm(path, times, alpha: float) -> float:
    """max over grid pairs of |h(t) - h(s)| / |t - s|^alpha, one lag at a time.

    The sweep stops after lag L once osc / min(lag-L gaps)^alpha * (1 + 1e-12)
    is at most the best quotient so far, where osc = sum over components of
    (max - min) bounds every pair's 1-norm.  Exact on the grid; a lower
    bound for the continuum seminorm.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    (values,), times = _pair_inputs(path, times)
    # Float subtraction and sums are monotone, so osc bounds every pair's
    # 1-norm and a later lag's gaps are no smaller than this lag's smallest;
    # the slack covers the rounding of pow.
    osc = float(_l1(values.max(axis=0), values.min(axis=0)))
    best = 0.0
    for lag in range(1, times.size):
        gap = times[lag:] - times[:-lag]
        best = max(best, float((_l1(values[lag:], values[:-lag]) / gap**alpha).max()))
        if osc / gap.min() ** alpha * (1.0 + _BOUND_SLACK) <= best:
            break
    return best


def sobolev_seminorm(path, times, alpha: float, p: float):
    """Double-integral seminorm int int |h(t)-h(s)|^p / |t-s|^{1+alpha p},
    trapezoid quadrature with the diagonal excluded.  Rows are taken in
    blocks of about ``_PAIR_BLOCK`` pairs, so memory is linear in the path
    length.  An (n, k, d) stack of k paths on one grid returns their k
    values, and each block's weights |t-s|^{1+alpha p} serve every path."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not 1.0 < p < np.inf:
        raise ValueError("p must lie in (1, inf)")
    paths, times = _pair_inputs(path, times)
    n = times.size
    step = max(1, _PAIR_BLOCK // n)
    inner = np.empty((len(paths), n))
    for i0 in range(0, n, step):
        rows = np.arange(i0, min(i0 + step, n))
        weight = np.abs(times - times[rows, None]) ** (1.0 + alpha * p)
        for j, x in enumerate(paths):
            integrand = _l1(x, x[rows, None]) ** p
            with np.errstate(invalid="ignore"):  # 0/0 on the diagonal
                integrand /= weight
            integrand[rows - i0, rows] = 0.0
            inner[j, rows] = np.trapezoid(integrand, times, axis=1)
    seminorms = np.trapezoid(inner, times, axis=1)
    return seminorms if np.ndim(path) == 3 else float(seminorms[0])


@dataclass(frozen=True)
class SeminormReport:
    sup_norm: float
    holder_alpha: float
    holder_seminorm: float
    sobolev_alpha: float
    sobolev_p: float
    sobolev_seminorm: float


def seminorm_report(path, times):
    """The seminorms of an (n,) or (n, d) path; for an (n, k, d) stack, the
    list of its k paths' reports, their Sobolev seminorms one batch."""
    sobolev = np.atleast_1d(sobolev_seminorm(path, times, SOBOLEV_ALPHA, SOBOLEV_P))
    paths = [path] if np.ndim(path) < 3 else [np.asarray(path)[:, j] for j in range(sobolev.size)]
    reports = [SeminormReport(
        sup_norm=sup_norm(x),
        holder_alpha=HOLDER_ALPHA,
        holder_seminorm=holder_seminorm(x, times, HOLDER_ALPHA),
        sobolev_alpha=SOBOLEV_ALPHA,
        sobolev_p=SOBOLEV_P,
        sobolev_seminorm=float(value),
    ) for x, value in zip(paths, sobolev)]
    return reports if np.ndim(path) == 3 else reports[0]


@dataclass(frozen=True)
class StabilityReport:
    perturbation_sizes: tuple[float, ...]  # E|X0^k - X0|^2 per offset
    errors: tuple[float, ...]              # E max_t |X^k(t) - X(t)|^2
    fitted_slope: float
    n_paths: int


def _log_slope(xs, ys) -> float:
    """Least-squares slope of log y against log x over the points where
    both are positive and finite; NaN with fewer than two such points."""
    points = [(x, y) for x, y in zip(xs, ys) if 0 < x < np.inf and 0 < y < np.inf]
    if len(points) < 2:
        return float("nan")
    lx = np.log([x for x, _ in points])
    ly = np.log([y for _, y in points])
    return float(np.polyfit(lx, ly, 1)[0])


def stability_experiment(model: ReflectedJumpSDE, grid: SimulationGrid,
                         perturbations, n_paths: int, master_seed: int):
    """Initial-condition sensitivity under common random numbers.

    The inputs are drawn once, and the reference ensemble and every perturbed
    one are the row blocks of one batch on them, tiled: each perturbed
    ensemble shares every noise stream with the reference; only the initial
    state is offset by ``offset`` in each coordinate, a start that must lie
    in the domain (:meth:`ReflectedJumpSDE.with_x0`).  Errors use the 1-norm
    squared.
    """
    offsets = [float(p) for p in perturbations]
    starts = [model.x0] + [model.with_x0(model.x0 + offset).x0 for offset in offsets]
    inputs = sample_path_inputs(model, grid, master_seed, range(n_paths)).tiled(len(starts))
    try:
        states = integrate_batch(model, grid.times, inputs,
                                 np.repeat(starts, n_paths, axis=0)).states
    except SimulationAbort as exc:  # name the stream and its ensemble, not the batch row
        block, stream = divmod(exc.row, n_paths)
        ensemble = f"x0 offset {offsets[block - 1]!r}" if block else "reference"
        raise SimulationAbort(exc.step_index, exc.what, stream, exc.time, exc.state,
                              f"stream {stream} of the {ensemble} ensemble") from None
    ref_states = states[:, :n_paths]
    sizes, errors = [], []
    d = model.dimension
    for block, offset in enumerate(offsets, start=1):
        diff = _l1(states[:, block * n_paths:(block + 1) * n_paths], ref_states)  # (n_points, m)
        errors.append(float((diff.max(axis=0) ** 2).mean()))
        sizes.append((d * offset) * (d * offset))  # inf on overflow, not an error
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
        times = build_dyadic_partition(level, horizon).times
        coarse = inputs.coarsened(2 ** (ref_level - level))
        return integrate_batch(model, times, coarse, model.x0, keep=0).terminal

    terminal_ref = terminal(ref_level)
    dts, errs = [], []
    for level in levels:
        diff = _l1(terminal(level), terminal_ref)
        errs.append(float(np.sqrt(np.mean(diff**2))))
        dts.append(horizon * 2.0**-level)
    return ConvergenceReport(tuple(levels), tuple(dts), tuple(errs),
                             _log_slope(dts, errs), ref_level, n_paths)
