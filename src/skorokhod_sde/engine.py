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
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .skorokhod import ReflectionDomain, reflect_box, total_variation
from .sources import (
    CompoundPoissonSpec,
    JUMP_LOG,
    OUParams,
    PathInputs,
    _DRAW_BLOCK,
    _cells,
    sample_path_inputs,
    stream_layout,
    stream_rngs,
)

__all__ = [
    "SimulationGrid",
    "MEMORY_BUDGET",
    "check_budget",
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
    "simulate_rows",
    "simulate_paths",
    "simulate_ensemble",
]

MAX_DYADIC_LEVEL = 30  # grids have at most 2**MAX_DYADIC_LEVEL steps
MEMORY_BUDGET = 2**30  # bytes of arrays one command may hold; see check_budget
COLD_START_BYTES = 2**14  # numpy's small-buffer cache, Python's free lists; see check_budget
_JUMP_BLOCK = 2**15  # jump sums per block of steps binned at once; see integrate_batch
JUMP_TIMINGS = ("end_of_step", "exact")


class SimulationAbort(RuntimeError):
    """Raised when a coefficient evaluation or a state proposal produced a
    non-finite value, ``what``: in step ``step_index`` of batch row ``row``
    (the stream index, for the batches the commands step), which started at
    time ``time`` from ``state``.  ``where``, if given, stands for "row
    {row}" in the message, for a caller that knows what the row is."""

    def __init__(self, step_index: int, what: str, row: int, time: float, state: np.ndarray,
                 where: Optional[str] = None):
        super().__init__(f"non-finite {what} at step {step_index}, {where or f'row {row}'}, "
                         f"t = {time!r}, state {state.tolist()}")
        self.step_index, self.what, self.row, self.time, self.state = (
            step_index, what, row, time, state)


@dataclass(frozen=True, eq=False)
class SimulationGrid:
    """Time grid 0 = t_0 < t_1 < ... < t_n, checked once here: ``times`` is
    1-d, finite and strictly increasing from 0; ``widths`` are its steps and
    ``sqrt_widths`` their square roots, the scale of a Wiener increment."""

    times: np.ndarray
    widths: np.ndarray = field(init=False, repr=False)
    sqrt_widths: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or times.size < 2 or times[0] != 0.0:
            raise ValueError("grid times must be 1-d, start at 0 and have >= 2 points")
        widths = np.diff(times)
        if not (np.isfinite(times).all() and (widths > 0).all()):
            raise ValueError("grid times must be finite and strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "widths", widths)
        object.__setattr__(self, "sqrt_widths", np.sqrt(widths))

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def n_steps(self) -> int:
        return self.widths.size


def dyadic_steps(level: int, horizon: float) -> int:
    """Step count of the dyadic grid of ``level`` on [0, horizon], after the
    checks :func:`build_dyadic_partition` makes."""
    if level < 1:
        raise ValueError("dyadic level must be >= 1")
    if level > MAX_DYADIC_LEVEL:
        raise ValueError(f"dyadic level capped at {MAX_DYADIC_LEVEL}")
    if not 0 < horizon < math.inf:
        raise ValueError("horizon must be positive and finite")
    if horizon / 2**level < np.finfo(float).smallest_normal:  # linspace rounds it
        raise ValueError(f"horizon / 2**{level} is below the smallest normal float")
    return 2**level


def check_budget(command: str, model: ReflectedJumpSDE, horizon: float, n_steps: int,
                 n_paths: int, keep: int, exact: bool = False, summarized: bool = False,
                 coarse_steps: int = 0) -> float:
    """Peak bytes of arrays of ``n_paths`` paths of ``model`` on ``n_steps``
    steps up to ``horizon``, ValueError over ``MEMORY_BUDGET``: the grid, 3
    arrays of n_points, the block of paths :func:`sample_path_inputs` draws
    at once, about ``_DRAW_BLOCK`` values or one path's n_steps * d (more
    than the input current's draw vector, made after it), the Wiener
    increments, (n_steps, n_paths, d), and their sums over ``coarse_steps``
    steps (:meth:`PathInputs.coarsened`), the input current, (n_points,
    n_paths), whose increments are drawn into it, the states and the two
    reflection terms of ``keep`` kept paths,
    (n_points, keep, d) each, the seed words of the 2d + 2 streams of every
    path, 32 bytes per stream (:func:`stream_rngs`), every path's
    input-current generator, 800 bytes, held until the current is drawn, 11
    d-vectors per path, the parameters and bounds spread to the batch width
    (the 9 Wilson-Cowan parameter rows of :func:`models._rows` and the lower
    and upper bounds of :func:`integrate_batch`), the two small arrays of
    each path's draw of each jump component, 256 bytes, held in
    :func:`sample_path_inputs`' lists until it joins them, and per expected
    jump event 64 bytes (:class:`PathInputs` and its copies while drawn or
    grouped by block of steps, the block keys among them), or under
    ``exact`` timing the more of 8 * (23 + 2d), the peak of
    :func:`_exact_substeps`, and 8 * (26 + d), the sub-steps it returns with
    a group's span as the Python list, 144 bytes, that
    :func:`integrate_batch` holds, which adds 40 bytes per grid point for
    the list of each step's first group and 8 per path for the row offsets.
    End-of-step jumps add the sums of one block of steps, about
    ``_JUMP_BLOCK`` values or one step's rows * d (the batch has the more of
    n_paths and ``keep`` rows: :func:`simulate_rows` steps one path on each
    kept row), and a flag per step, 9 bytes.  ``summarized`` kept paths add
    what :func:`cli.summarize` holds: their jump logs, ``JUMP_LOG.itemsize``
    (24) bytes per event, the stack of their states and its layout copy,
    (n_points, keep, d) each, the Sobolev
    seminorm's (keep, n_points) inner integrals with ``np.trapezoid``'s two
    temporaries, and its two block buffers of about ``_PAIR_BLOCK`` values
    or n_points.  And ``COLD_START_BYTES`` for the caches a process's first
    ensemble fills: under tracemalloc, a fresh interpreter's 1-path ensemble
    on 2000 steps peaked 9.6-9.9 kB over the same call repeated."""
    d, n_points, specs = model.dimension, n_steps + 1, model.jump_specs or ()
    events = sum(s.intensity_alpha for s in specs) * horizon * n_paths
    need = (8 * (3 * n_points + max(n_steps * d, min(n_steps * n_paths * d, _DRAW_BLOCK))
                 + (n_steps + coarse_steps) * n_paths * d + n_points * n_paths
                 + 3 * n_points * keep * d
                 + (4 * (2 * d + 2) + 100 + 32 * len(specs) + 11 * d + exact) * n_paths)
            + (events * 8 * max(23 + 2 * d, 26 + d) + 40 * n_points if exact else events * 64)
            + COLD_START_BYTES)
    if specs and not exact:  # one block of jump sums, a flag per step
        rows = max(n_paths, keep)
        need += 8 * max(rows * d, min(n_steps * rows * d, _JUMP_BLOCK)) + 9 * n_steps
    if summarized:
        from .analysis import _PAIR_BLOCK  # not at the top: analysis imports this module
        need += (8 * ((2 * d + 3) * n_points * keep + 2 * max(n_points, _PAIR_BLOCK))
                 + JUMP_LOG.itemsize * events / n_paths * keep)
    if need > MEMORY_BUDGET:
        raise ValueError(f"{command} needs {need / 2**30:.3g} GiB of arrays, over the "
                         f"{MEMORY_BUDGET / 2**30:g} GiB memory budget")
    return need


def build_dyadic_partition(level: int, horizon: float) -> SimulationGrid:
    """Dyadic grid with 2^level steps: points k * 2^-level * horizon."""
    return SimulationGrid(np.linspace(0.0, horizon, dyadic_steps(level, horizon) + 1))


def uniform_steps(dt: float, horizon: float) -> int:
    """Step count of the uniform grid of step ``dt`` on [0, horizon], after
    the checks :func:`uniform_grid` makes."""
    if dt <= 0 or horizon <= 0:
        raise ValueError("dt and horizon must be positive")
    ratio = horizon / dt
    n = round(ratio) if math.isfinite(ratio) else 0
    if n > 2**MAX_DYADIC_LEVEL:
        raise ValueError(f"grid capped at 2**{MAX_DYADIC_LEVEL} steps")
    if n < 1 or abs(n * dt - horizon) > 1e-9 * horizon:
        raise ValueError("horizon must be an integer multiple of dt")
    return n


def uniform_grid(dt: float, horizon: float) -> SimulationGrid:
    return SimulationGrid(np.linspace(0.0, horizon, uniform_steps(dt, horizon) + 1))


@dataclass(frozen=True, eq=False)
class ReflectedJumpSDE:
    """Coupled reflected jump-diffusion with diagonal noise.

    ``drift(state, u)`` maps a batch of states (m, d) to (m, d); ``u`` is
    the exogenous input-current value per path (zeros when there is no input
    process).  ``diffusion(state)`` and ``jump_coeff(state)``, which scales
    the drawn jump sizes per coordinate, return (m, d) values, or one float
    that applies to every row and coordinate, such as a constant rho or the
    0.0 of a model without white noise.  The states they get are (m, d)
    views that may be F-ordered (:func:`integrate_batch` steps (d, m) memory).

    ``row_jumps`` marks a model whose batch rows are scenarios of their own,
    all driven by the inputs of one stream (:func:`simulate_rows`): one flag
    per row, set where the row takes that stream's jumps.  Its coefficients
    and domain bounds may then differ by row.
    """

    dimension: int
    drift: Callable[[np.ndarray, np.ndarray], np.ndarray]
    diffusion: Callable[[np.ndarray], np.ndarray]
    domain: ReflectionDomain
    x0: np.ndarray
    jump_coeff: Optional[Callable[[np.ndarray], np.ndarray]] = None
    jump_specs: Optional[tuple[CompoundPoissonSpec, ...]] = None
    input_current: Optional[OUParams] = None
    row_jumps: Optional[tuple[bool, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        if self.x0.shape != (self.dimension,):
            raise ValueError("x0 must have shape (dimension,)")
        if not np.isfinite(self.x0).all():
            raise ValueError("x0 must be finite")
        if self.domain.dim != self.dimension:
            raise ValueError("domain dimension mismatch")
        if not self.domain.contains(self.x0):
            raise ValueError(f"x0={self.x0} outside the domain")
        if (self.jump_specs is None) != (self.jump_coeff is None):
            raise ValueError("jump_specs and jump_coeff must be given together")
        if self.jump_specs is not None and len(self.jump_specs) != self.dimension:
            raise ValueError("need one CompoundPoissonSpec per coordinate")
        if self.domain.lower.ndim == 2 and (self.row_jumps is None or
                                            len(self.row_jumps) != len(self.domain.lower)):
            raise ValueError("a domain per batch row needs row_jumps, one flag per row")

    def with_x0(self, x0) -> "ReflectedJumpSDE":
        return replace(self, x0=np.asarray(x0, dtype=float))


@dataclass(frozen=True, eq=False)
class TrajectoryBundle:
    """One recorded trajectory: states, reflection terms and the jump log."""

    grid: SimulationGrid
    states: np.ndarray           # (n_points, d)
    phi_lower: np.ndarray        # (n_points, d)
    phi_upper: np.ndarray        # (n_points, d)
    jumps: np.ndarray            # a JUMP_LOG array
    master_seed: int
    stream_index: int

    @property
    def phi(self) -> np.ndarray:  # the net reflection term
        return self.phi_lower - self.phi_upper

    @property
    def phi_tv(self) -> np.ndarray:
        return total_variation(self.phi_lower) + total_variation(self.phi_upper)

    def cumulative_jump_counts(self) -> np.ndarray:
        """Applied-jump counts per coordinate at each grid point."""
        counts = np.zeros(self.states.shape, dtype=int)
        k = _cells(self.grid.times, self.jumps["time"])
        np.add.at(counts, (k + 1, self.jumps["coord"]), 1)
        return np.cumsum(counts, axis=0)


@dataclass(frozen=True, eq=False)
class EnsembleResult:
    terminal_mean: np.ndarray       # (d,)
    terminal_variance: np.ndarray   # unbiased, (d,); zeros for one path
    bundles: tuple[TrajectoryBundle, ...] = ()


class BatchRecord(NamedTuple):
    """What :func:`integrate_batch` recorded of a batch of m paths."""

    states: np.ndarray               # (n_points, keep, d): leading ``keep`` rows
    phi_lower: np.ndarray            # (n_points, keep, d)
    phi_upper: np.ndarray            # (n_points, keep, d)
    terminal: np.ndarray             # (m, d): every row's state at the last point


def _check_finite(k, times, x, f, g, rho, prop=None, rows=None):
    """Raise :class:`SimulationAbort` for the first of drift, diffusion, jump
    coefficient and state proposal that is non-finite in any row, naming its
    first such row and that row's state ``x`` at the start of step ``k``.
    ``rows`` are the batch rows of the proposal's rows, all by default; a
    float coefficient is every row's, so it names row 0."""
    for what, value in (("drift", f), ("diffusion", g), ("jump coefficient", rho),
                        ("state proposal", prop)):
        if value is not None and not np.isfinite(value).all():
            row = np.argwhere(~np.isfinite(np.atleast_2d(value)))[0, 0]
            row = int(row if rows is None or value is not prop else rows[row])
            raise SimulationAbort(k, what, row, float(times[k]), x[row].copy())


def _on_rows(value, rows):
    """The rows ``rows`` of a coefficient's value; a float is every row's."""
    return value if isinstance(value, float) else value[rows]


# A non-finite f, g or rho makes the step's whole proposal non-finite (inf * 0
# is NaN), so the proposal's check catches it; that NaN is not worth a warning.
@np.errstate(invalid="ignore")
def integrate_batch(model: ReflectedJumpSDE, times: np.ndarray, inputs: PathInputs,
                    x0, substeps=None, keep: Optional[int] = None) -> BatchRecord:
    """Step every path of ``inputs`` through the grid ``times``, the grid the
    inputs are on (see :meth:`PathInputs.coarsened`), from ``x0``: one start
    for every row, such as ``model.x0``, or a start per row, (m, d).

    The jumps of each step are summed and added at its end, or, given
    ``substeps`` from :func:`_exact_substeps`, applied at their own times.
    Only the first ``keep`` rows (all by default) have their states and
    reflection terms recorded at every grid point; every row's terminal
    state is returned, C-ordered.

    The state and the reflection terms are (m, d) views of (d, m) memory,
    the per-step layout of :func:`sample_path_inputs`'s ``dW``: the
    coefficients and :func:`reflect_box` get F-ordered (m, d) views, and the
    Wilson-Cowan drift's (2, m) arithmetic needs no copy of them.  The
    reflection at each step's end meets same-shape bounds: the domain's,
    broadcast once per batch to F-ordered (m, d).  A jump group's few rows
    meet the domain's (d,) bounds, or their own rows of bounds per row.

    Each step does only the arithmetic its model needs.  A float diffusion
    or jump coefficient multiplies as a scalar; a diffusion of 0.0 adds no
    noise term; with a float jump coefficient, a step without jumps adds no
    jump sum, though a non-finite one still aborts.  A skipped term is a
    zero, which can change only the sign of a zero proposal, and
    :func:`reflect_box` adds +0.0 or more to every coordinate, which clears
    that sign: the record is bit for bit that of the full arithmetic.
    """
    n_steps = times.size - 1
    m, d = len(inputs), model.dimension
    keep = m if keep is None else keep
    states = np.empty((n_steps + 1, keep, d))
    phi_lower = np.zeros((n_steps + 1, keep, d))
    phi_upper = np.zeros((n_steps + 1, keep, d))
    x = np.empty((d, m)).T
    x[...] = x0
    states[0] = x[:keep]
    prop = np.empty((d, m)).T  # each step's proposal, built in place
    gw = np.empty((d, m)).T  # each step's g * dW
    acc_lo = np.zeros((d, m)).T
    acc_hi = np.zeros((d, m)).T
    lower, upper = model.domain.lower, model.domain.upper  # (d,), or (m, d) per row
    wide = [np.broadcast_to(b, (m, d)).copy(order="F") for b in (lower, upper)]
    if substeps:  # the spans as lists and the row offsets once per batch
        (rows_at, coord_at, size_at, sub_at, frac_at, noise_at, rest_at), spans, first = substeps
        spans, first, cols = spans.tolist(), first.tolist(), np.arange(m)
    binned = substeps is None and model.jump_specs
    if binned:
        # the jump sums of a block of steps are one bincount over (step in
        # block, coord, path) keys; the events are grouped by block in a
        # stable sort, so each sum still adds its jumps in time order
        block_steps = max(1, min(n_steps, _JUMP_BLOCK // (m * d)))
        step = _cells(times, inputs.time)
        jumpy = np.zeros(n_steps, dtype=bool)
        jumpy[step] = True
        jumpy = jumpy.tolist()
        block, key = np.divmod(step, block_steps)
        del step
        n_blocks = -(-n_steps // block_steps)
        edges = np.r_[0, np.cumsum(np.bincount(block, minlength=n_blocks))]
        order = np.argsort(block.astype(np.min_scalar_type(n_blocks - 1)), kind="stable")
        del block  # before the sorted copies: check_budget counts that peak
        key *= d
        key += inputs.coord
        key *= m
        key += inputs.path
        key = key[order]
        sizes = inputs.size[order]
        del order
    for k, dt in enumerate(np.diff(times)):
        start = x  # stepping makes a new x; a group step copies it first
        groups = spans[first[k]:first[k + 1]] if substeps else ()
        f = model.drift(x, inputs.u[k])
        g = model.diffusion(x)
        rho = model.jump_coeff(x) if binned or groups else None
        noisy = not (isinstance(g, float) and g == 0.0)
        w = inputs.dW[k]
        if groups:
            # rho of a row without a jump never reaches a proposal, so it is
            # checked here; drift and diffusion reach a group's or the step's
            # proposal check.  Coefficients stay frozen at the step's left
            # endpoint (copy x, they may alias it); each group's distinct rows
            # move to their next jump, take it and reflect, added by np.add.at.
            if not (math.isfinite(rho) if isinstance(rho, float) else np.isfinite(rho).all()):
                _check_finite(k, times, x, f, g, rho)
            x, dt = x.copy(order="K"), np.full((m, 1), dt)
            if noisy:  # else the Wiener increments are never read
                w = w.copy(order="K")
            for lo, hi in groups:
                rows, coord = rows_at[lo:hi], coord_at[lo:hi]
                jump = x[rows] + f[rows] * sub_at[lo:hi]
                if noisy:
                    dw = w[rows] * frac_at[lo:hi] + noise_at[lo:hi]
                    jump += _on_rows(g, rows) * dw
                    np.subtract.at(w, rows, dw)
                size = size_at[lo:hi] * _on_rows(rho, (rows, coord))
                np.add.at(jump, (cols[:hi - lo], coord), size)
                if not np.isfinite(jump).all():
                    _check_finite(k, times, start, f, g, rho, jump, rows)
                bounds = (lower[rows], upper[rows]) if lower.ndim == 2 else (lower, upper)
                x[rows], linc, uinc = reflect_box(jump, *bounds)
                np.add.at(acc_lo, rows, linc)
                np.add.at(acc_hi, rows, uinc)
                dt[rows] = rest_at[lo:hi]
        np.multiply(f, dt, out=prop)
        prop += x
        if noisy:
            prop += np.multiply(g, w, out=gw)
        if binned:
            b, i = divmod(k, block_steps)
            if i == 0:
                lo, hi = edges[b], edges[b + 1]
                sums = js = None  # the last block goes before the next is made
                sums = (np.bincount(key[lo:hi], sizes[lo:hi], block_steps * d * m) if hi > lo
                        else np.zeros(block_steps * d * m)).reshape(block_steps, d, m)
            if jumpy[k] or not isinstance(rho, float):
                js = sums[i].T
                prop += np.multiply(rho, js, out=js)
            elif not math.isfinite(rho):
                _check_finite(k, times, start, f, g, rho)
        if not np.isfinite(prop.T).all():  # on few rows, an F-ordered check costs more
            _check_finite(k, times, start, f, g, rho, prop)
        x, linc, uinc = reflect_box(prop, *wide)
        acc_lo += linc
        acc_hi += uinc
        if keep:
            states[k + 1] = x[:keep]
            phi_lower[k + 1] = acc_lo[:keep]
            phi_upper[k + 1] = acc_hi[:keep]
    # C-ordered: numpy sums an F-ordered (m, d) array along axis 0 pairwise,
    # which would move the last bits of the ensemble moments
    return BatchRecord(states, phi_lower, phi_upper, np.ascontiguousarray(x))


def _exact_substeps(model, times, inputs: PathInputs, master_seed, stream_indices):
    """The jumps of ``inputs`` as sub-steps of the grid ``times``: (fields,
    spans, first).  ``fields`` are flat arrays (rows, coord, size, sub, frac,
    noise, rest) in (step, rank) order.  Group g, entries ``spans[g, 0]`` to
    ``spans[g, 1]``, holds the r-th jump in step k of every path that has one;
    step k's groups are ``spans[first[k]:first[k + 1]]``.  ``sub`` is the time
    since the row's previous jump (or the step's left endpoint), ``rest`` the
    time left to the step's right endpoint.  The sub-step's Brownian increment
    is ``frac`` times what is left of the step's increment plus ``noise``, a
    conditional Brownian-bridge draw from the path's bridge stream, one per
    sub-step of positive length."""
    # stable, so simultaneous jumps keep their coordinate order
    order = np.lexsort((inputs.time, inputs.path))
    time, size, path, coord = (a[order] for a in (inputs.time, inputs.size, inputs.path,
                                                  inputs.coord))
    step = _cells(times, time)
    opens = np.ones(time.size, dtype=bool)  # the jump opens its (path, step) run
    opens[1:] = (path[1:] != path[:-1]) | (step[1:] != step[:-1])
    rank = np.arange(time.size) - np.flatnonzero(opens)[np.cumsum(opens) - 1]
    end = np.maximum(time, times[step])
    start = np.where(opens, times[step], np.roll(end, 1))
    sub = end - start
    draw = sub > 0  # then the time left, total, is positive too
    total = np.where(draw, times[step + 1] - start, 1.0)
    d = model.dimension
    bridge = stream_layout(d)[3]
    counts = np.bincount(path[draw], minlength=len(inputs))
    z = np.zeros((sub.size, d))
    z[draw] = np.concatenate([np.empty((0, d))] + [
        rng.standard_normal((n, d))
        for (rng,), n in zip(stream_rngs(master_seed, stream_indices, [bridge]), counts) if n
    ])
    frac = np.where(draw, sub / total, 0.0)
    noise = np.where(draw[:, None], np.sqrt(sub * (total - sub) / total)[:, None] * z, 0.0)
    del time, start, z, total  # before the fields are gathered: check_budget counts that peak
    rest = times[step + 1] - end
    order = np.lexsort((rank, step))
    fields = tuple(a[order] for a in (path, coord, size, sub[:, None], frac[:, None],
                                      noise, rest[:, None]))
    step, rank = step[order], rank[order]
    opens = np.ones(step.size, dtype=bool)  # the jump opens its (step, rank) group
    opens[1:] = (step[1:] != step[:-1]) | (rank[1:] != rank[:-1])
    edges = np.r_[np.flatnonzero(opens), step.size]
    spans = np.c_[edges[:-1], edges[1:]]
    return fields, spans, np.searchsorted(step[edges[:-1]], np.arange(times.size))


def _step_streams(model: ReflectedJumpSDE, grid: SimulationGrid, master_seed: int,
                  stream_indices: Sequence[int], jump_timing: str,
                  keep: Optional[int] = None, per_row: bool = False):
    """Draw the inputs of the given trajectory streams and step them; returns
    the :func:`integrate_batch` record and the :class:`PathInputs`.  With
    ``per_row``, a model with ``row_jumps`` steps its one stream on every
    row; a path per stream is the only way to step any other model."""
    if jump_timing not in JUMP_TIMINGS:
        raise ValueError(f"unknown jump_timing {jump_timing!r}")
    if per_row != (model.row_jumps is not None):
        raise ValueError("a model with row_jumps has a scenario per batch row and is "
                         "stepped by simulate_rows, which steps no other model")
    inputs = sample_path_inputs(model, grid, master_seed, stream_indices)
    if per_row:
        inputs = inputs.tiled(len(model.row_jumps), model.row_jumps)
        stream_indices = list(stream_indices) * len(inputs)
    substeps = (_exact_substeps(model, grid.times, inputs, master_seed, stream_indices)
                if jump_timing == "exact" else None)
    return integrate_batch(model, grid.times, inputs, model.x0, substeps, keep), inputs


def simulate_paths(model: ReflectedJumpSDE, grid: SimulationGrid,
                   master_seed: int, stream_indices: Sequence[int],
                   jump_timing: str = "end_of_step"):
    """Simulate the given trajectory streams; returns (states, phi_lower,
    phi_upper, inputs) with array shapes (n_points, m, d).  ``inputs`` is the
    :class:`PathInputs` drawn for them; ``inputs[j]`` is path j's jump log.

    ``jump_timing`` is ``"end_of_step"`` (each step's jumps are summed and
    added at its end) or ``"exact"`` (each step is split at its jump times).
    """
    record, inputs = _step_streams(model, grid, master_seed, stream_indices, jump_timing)
    return record.states, record.phi_lower, record.phi_upper, inputs


def _bundles(grid, record: BatchRecord, inputs: PathInputs, master_seed, stream_indices):
    """The bundles of the kept rows of ``record``, row j on stream
    ``stream_indices[j]``; their arrays are views of the record's."""
    return tuple(TrajectoryBundle(grid, record.states[:, j], record.phi_lower[:, j],
                                  record.phi_upper[:, j], inputs[j], master_seed, stream_index)
                 for j, stream_index in enumerate(stream_indices))


def simulate_trajectory(model: ReflectedJumpSDE, grid: SimulationGrid,
                        master_seed: int, stream_index: int = 0,
                        jump_timing: str = "end_of_step") -> TrajectoryBundle:
    """Full trajectory on the grid, deterministic in the seed triple."""
    record, inputs = _step_streams(model, grid, master_seed, [stream_index], jump_timing)
    return _bundles(grid, record, inputs, master_seed, [stream_index])[0]


def simulate_rows(model: ReflectedJumpSDE, grid: SimulationGrid, master_seed: int,
                  jump_timing: str = "end_of_step") -> tuple[TrajectoryBundle, ...]:
    """The trajectory of stream 0 in every row of a model with ``row_jumps``,
    such as :func:`models.make_scenario` builds from a tuple of input modes,
    stepped as one batch.  The rows share the stream's Wiener increments and
    input current, the flagged rows take its jumps, and, under exact timing,
    their Brownian-bridge draws; row j's bundle is then bitwise the
    :func:`simulate_trajectory` of row j's scenario."""
    record, inputs = _step_streams(model, grid, master_seed, [0], jump_timing, per_row=True)
    return _bundles(grid, record, inputs, master_seed, [0] * len(inputs))


def simulate_ensemble(model: ReflectedJumpSDE, grid: SimulationGrid,
                      n_paths: int, master_seed: int, retain: int = 0,
                      jump_timing: str = "end_of_step") -> EnsembleResult:
    """Independent trajectories via disjoint stream indices 0..n_paths-1;
    returns the mean and unbiased variance of the terminal states plus the
    first ``retain`` bundles.  Only the retained paths' histories are held."""
    if n_paths < 1 or retain < 0:
        raise ValueError("need n_paths >= 1 and retain >= 0")
    keep = min(retain, n_paths)
    record, inputs = _step_streams(model, grid, master_seed, range(n_paths), jump_timing, keep)
    kept = _bundles(grid, record, inputs, master_seed, range(keep))
    terminal = record.terminal
    variance = terminal.var(axis=0, ddof=1) if n_paths > 1 else np.zeros(model.dimension)
    return EnsembleResult(terminal.mean(axis=0), variance, kept)
