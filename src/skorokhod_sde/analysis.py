"""Path diagnostics and verification experiments: seminorms of sampled
paths, initial-condition stability under common random numbers, and strong
convergence of the dyadic scheme against a fine-grid reference.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import (
    MAX_DYADIC_LEVEL,
    ReflectedJumpSDE,
    SimulationAbort,
    SimulationGrid,
    _step_streams,
    build_dyadic_partition,
    dyadic_steps,
    integrate_batch,
)

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
_PAIR_BLOCK = 2**15  # pairs of all paths per row block of the Sobolev seminorm
_PAIRWISE_FROM = 8  # numpy sums a trailing axis this long pairwise, not in order
_BOUND_SLACK = 1e-12  # relative rounding allowance of the Hölder stopping bound


def _as_2d(path) -> np.ndarray:
    path = np.asarray(path, dtype=float)
    if not 1 <= path.ndim <= 3:
        raise ValueError(f"need an (n,) or (n, d) path or an (n, k, d) stack, "
                         f"got shape {path.shape}")
    if path.size == 0:
        raise ValueError("empty path")
    if not np.isfinite(path).all():
        raise ValueError("path values must be finite")
    return path[:, None] if path.ndim == 1 else path


def _one_path(path) -> np.ndarray:
    """:func:`_as_2d` of one (n,) or (n, d) path, not a stack."""
    if np.ndim(path) not in (1, 2):
        raise ValueError(f"need an (n,) or (n, d) path, got shape {np.shape(path)}")
    return _as_2d(path)


def sup_norm(path) -> float:
    """Grid maximum of |h(t)| with the componentwise 1-norm."""
    return float(np.abs(_one_path(path)).sum(axis=1).max())


def _l1(a, b, out=None, work=None):
    """``np.abs(a - b).sum(axis=-1)``, bit for bit, at a fraction of its cost.

    Below ``_PAIRWISE_FROM`` trailing entries numpy adds them in order, so
    accumulating the columns in order gives the same floats; from there on
    it sums pairwise (in an order that depends on the memory layout), and
    the plain reduction is kept.  ``out`` takes the sum, ``work`` the differences."""
    d = np.shape(a)[-1]
    if d >= _PAIRWISE_FROM:
        return np.abs(a - b).sum(axis=-1, out=out)
    total = np.abs(np.subtract(a[..., 0], b[..., 0], out=out), out=out)
    for c in range(1, d):
        total += np.abs(np.subtract(a[..., c], b[..., c], out=work), out=work)
    return total


def _pair_inputs(path, times):
    """The paths of an (n,) or (n, d) path or an (n, k, d) stack as (k, n, d),
    with contiguous (k, n) columns for _l1's loop or, from _PAIRWISE_FROM on,
    where numpy's pairwise sums depend on the layout, contiguous rows; and the times."""
    values = _as_2d(path)
    times = np.asarray(times, dtype=float)
    if values.shape[0] != times.size or times.size < 2:
        raise ValueError("need >= 2 grid points with matching times")
    if not (np.isfinite(times).all() and (np.diff(times) > 0).all()):
        raise ValueError("times must be finite and strictly increasing")
    layout = np.asfortranarray if values.shape[-1] < _PAIRWISE_FROM else np.ascontiguousarray
    return layout(values if values.ndim == 3 else values[:, None]).transpose(1, 0, 2), times


def holder_seminorm(path, times, alpha: float) -> float:
    """max over grid pairs of |h(t) - h(s)| / |t - s|^alpha, one lag at a time.

    The sweep stops after lag L once osc / min(lag-L gaps)^alpha * (1 + 1e-12)
    is at most the best quotient so far, where osc = sum over components of
    (max - min) bounds every pair's 1-norm.  Exact on the grid; a lower
    bound for the continuum seminorm.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    (values,), times = _pair_inputs(_one_path(path), times)
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
    trapezoid quadrature with the diagonal excluded; for an (n, k, d) stack,
    its k paths' values.  Row blocks of about ``_PAIR_BLOCK`` pairs of up to
    ``_PAIR_BLOCK // n`` paths share buffers made once: memory is linear in n."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not 1.0 < p < np.inf:
        raise ValueError("p must lie in (1, inf)")
    paths, times = _pair_inputs(path, times)
    k, n, _ = paths.shape
    group = min(k, max(1, _PAIR_BLOCK // n))  # paths per sweep: buffers do not grow with k
    step = min(n, max(1, _PAIR_BLOCK // (group * n)))
    gaps, inner = np.diff(times), np.empty((k, n))
    integrand, work = np.empty(group * step * n), np.empty(group * step * n)  # flat, for views
    for j0 in range(0, k, group):
        x = paths[j0:j0 + group]
        for i0 in range(0, n, step):
            g, r = len(x), min(step, n - i0)
            y, diff = integrand[:g * r * n].reshape(g, r, n), work[:g * r * n].reshape(g, r, n)
            w, trap = work[:r * n].reshape(r, n), work[:g * r * (n - 1)].reshape(g, r, n - 1)
            _l1(x[:, None], x[:, i0:i0 + r, None], y, diff)
            y **= p
            np.abs(np.subtract(times, times[i0:i0 + r, None], out=w), out=w)  # into spent diff
            w **= 1.0 + alpha * p
            w[range(r), range(i0, i0 + r)] = 1.0  # so each excluded diagonal pair adds 0 / 1
            y /= w
            # np.trapezoid's (d * (y[1:] + y[:-1]) / 2.0).sum(-1); * 0.5 rounds as / 2.0 does
            np.multiply(np.add(y[..., 1:], y[..., :-1], out=trap), gaps, out=trap)
            inner[j0:j0 + g, i0:i0 + r] = np.multiply(trap, 0.5, out=trap).sum(axis=-1)
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
    if not offsets:
        raise ValueError("need at least one x0 offset")
    starts = [model.x0] + [model.with_x0(model.x0 + offset).x0 for offset in offsets]
    try:
        states = _step_streams(model, grid, master_seed, range(n_paths), "end_of_step",
                               starts=starts)[0].states
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


def _fit_levels(levels, horizon: float) -> list[int]:
    """``levels`` sorted, ValueError at the first rule they break: the reference
    level within ``MAX_DYADIC_LEVEL``, the coarsest a :func:`dyadic_steps` grid
    on [0, ``horizon``], and two distinct levels to fit an order through."""
    levels = sorted(int(n) for n in levels)
    if levels:
        if levels[-1] + REFERENCE_OFFSET > MAX_DYADIC_LEVEL:
            raise ValueError(f"converge levels capped at {MAX_DYADIC_LEVEL - REFERENCE_OFFSET}, "
                             f"because the reference is {REFERENCE_OFFSET} levels finer")
        dyadic_steps(levels[0], horizon)
    if len(set(levels)) < 2:
        raise ValueError("levels need two distinct values to fit an order")
    return levels


def strong_convergence_experiment(model: ReflectedJumpSDE, levels, n_paths: int,
                                  master_seed: int, horizon: float):
    """RMS terminal error of the dyadic scheme against a fine reference.

    All levels share one noise realization: Brownian increments (and the
    input-current driving noise) are generated at the reference level and
    aggregated down to each coarser grid.
    """
    levels = _fit_levels(levels, horizon)
    level = ref_level = levels[-1] + REFERENCE_OFFSET  # the level stepped first
    dts, errs = [], []
    try:
        record, inputs = _step_streams(model, build_dyadic_partition(ref_level, horizon),
                                       master_seed, range(n_paths), "end_of_step", keep=0)
        for level in levels:
            times = build_dyadic_partition(level, horizon).times
            terminal = integrate_batch(model, times, inputs.coarsened(2 ** (ref_level - level)),
                                       model.x0, keep=0).terminal
            errs.append(float(np.sqrt(np.mean(_l1(terminal, record.terminal) ** 2))))
            dts.append(horizon * 2.0**-level)
    except SimulationAbort as exc:  # name the stream and its level, as stability does
        where = f"the reference level {level}" if level == ref_level else f"level {level}"
        raise SimulationAbort(exc.step_index, exc.what, exc.row, exc.time, exc.state,
                              f"stream {exc.row} on {where}") from None
    return ConvergenceReport(tuple(levels), tuple(dts), tuple(errs),
                             _log_slope(dts, errs), ref_level, n_paths)
