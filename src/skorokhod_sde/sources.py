"""Deterministic, seeded generation of every random input the solver consumes:
Wiener increments, compound-Poisson jump streams and Ornstein-Uhlenbeck input
currents.

Each trajectory owns a family of independent streams addressed by
``(master_seed, stream_index, component_index)``.  Identical triples always
reproduce identical samples; distinct triples give statistically independent
streams (numpy ``SeedSequence`` spawning).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SeedSpec",
    "JumpSizeDist",
    "CompoundPoissonSpec",
    "JumpEvent",
    "OUParams",
    "sample_wiener_increments",
    "sample_compound_poisson",
    "sample_compound_poisson_arrays",
    "sample_ou_path",
    "sample_ou_paths",
    "PathInputs",
    "sample_path_inputs",
]

# component_index conventions for a d-dimensional model:
#   0 .. d-1      Wiener stream of coordinate i
#   d .. 2d-1     jump stream of coordinate i
#   2d            shared input-current stream
#   2d + 1        auxiliary bridge stream (exact jump-time splitting)


@dataclass(frozen=True)
class SeedSpec:
    """Address of one random stream."""

    master_seed: int
    stream_index: int = 0
    component_index: int = 0

    def __post_init__(self):
        if self.master_seed < 0 or self.master_seed > 2**64 - 1:
            raise ValueError("master_seed must fit in 64 unsigned bits")
        if self.stream_index < 0 or self.component_index < 0:
            raise ValueError("stream and component indices must be nonnegative")

    def rng(self) -> np.random.Generator:
        seq = np.random.SeedSequence(
            [self.master_seed, self.stream_index, self.component_index]
        )
        return np.random.default_rng(seq)


@dataclass(frozen=True)
class JumpSizeDist:
    """Jump-size family: constant(c), exponential(mean) or uniform(lo, hi).

    All three have a finite second moment, which the moment bound on the jump
    coefficient requires.
    """

    kind: str
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "exponential", "uniform"):
            raise ValueError(f"unknown jump distribution {self.kind!r}")
        if self.kind == "exponential" and self.a <= 0:
            raise ValueError("exponential jump mean must be positive")
        if self.kind == "uniform" and not self.a < self.b:
            raise ValueError("uniform jump bounds need lo < hi")

    @classmethod
    def constant(cls, value: float) -> "JumpSizeDist":
        return cls("constant", float(value))

    @classmethod
    def exponential(cls, mean: float) -> "JumpSizeDist":
        return cls("exponential", float(mean))

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "JumpSizeDist":
        return cls("uniform", float(lo), float(hi))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "constant":
            return np.full(n, self.a)
        if self.kind == "exponential":
            return rng.exponential(self.a, size=n)
        return rng.uniform(self.a, self.b, size=n)

    def mean(self) -> float:
        if self.kind == "constant":
            return self.a
        if self.kind == "exponential":
            return self.a
        return 0.5 * (self.a + self.b)

    def second_moment(self) -> float:
        if self.kind == "constant":
            return self.a**2
        if self.kind == "exponential":
            return 2.0 * self.a**2
        return (self.b**3 - self.a**3) / (3.0 * (self.b - self.a))


@dataclass(frozen=True)
class CompoundPoissonSpec:
    """Intensity and jump-size law of one compound-Poisson source."""

    intensity_alpha: float
    jump_dist: JumpSizeDist

    def __post_init__(self):
        if self.intensity_alpha < 0:
            raise ValueError("jump intensity must be >= 0")


@dataclass(frozen=True)
class JumpEvent:
    """One applied jump: time, drawn size and coordinate (0=active, 1=passive)."""

    time: float
    size: float
    component: int


@dataclass(frozen=True)
class OUParams:
    """Ornstein-Uhlenbeck input current: dV = (mu - V/gamma) dt + sigma dW."""

    mu: float = 0.0
    gamma: float = 1.0
    sigma: float = 0.1
    v0: float = 0.0

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")


def sample_wiener_increments(seed: SeedSpec, grid) -> np.ndarray:
    """Gaussian increments N(0, dt_i), one per grid step."""
    widths = np.diff(np.asarray(grid.times, dtype=float))
    if widths.size == 0:
        raise ValueError("grid needs at least one step")
    if np.any(widths <= 0):
        raise ValueError("grid step widths must be positive")
    rng = seed.rng()
    return rng.standard_normal(widths.size) * np.sqrt(widths)


def _sample_jump_arrays(rng, spec: CompoundPoissonSpec, horizon: float):
    count = rng.poisson(spec.intensity_alpha * horizon)
    if count == 0:
        return np.empty(0), np.empty(0)
    # Conditional-uniform order statistics: exact count law on the fixed
    # horizon and cheaper to reproduce than inter-arrival chaining.
    times = np.sort(rng.uniform(0.0, horizon, size=count))
    sizes = spec.jump_dist.sample(rng, count)
    return times, sizes


def sample_compound_poisson(
    seed: SeedSpec, spec: CompoundPoissonSpec, horizon: float, component: int = 0
) -> list[JumpEvent]:
    """Ordered jump events on [0, horizon]; count is Poisson(alpha * horizon)."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    times, sizes = _sample_jump_arrays(seed.rng(), spec, horizon)
    return [JumpEvent(float(t), float(s), component) for t, s in zip(times, sizes)]


def sample_compound_poisson_arrays(
    seed: SeedSpec, spec: CompoundPoissonSpec, horizon: float
) -> tuple[np.ndarray, np.ndarray]:
    """Array form of :func:`sample_compound_poisson`: (times, sizes).

    Identical stream and law; cheaper for bulk replication studies.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    return _sample_jump_arrays(seed.rng(), spec, horizon)


def sample_ou_path(seed: SeedSpec, params: OUParams, grid) -> np.ndarray:
    """Euler path of the OU current on the grid (length = number of grid points)."""
    return sample_ou_paths(
        seed.master_seed, params, grid, [seed.stream_index], seed.component_index
    )[:, 0]


def sample_ou_paths(
    master_seed: int,
    params: OUParams,
    grid,
    stream_indices,
    component_index: int,
) -> np.ndarray:
    """Batch of OU paths, one per stream index, shape (n_points, n_paths).

    Column ``j`` is driven by the Wiener stream
    ``SeedSpec(master_seed, stream_indices[j], component_index)``.
    """
    stream_indices = list(stream_indices)
    widths = np.diff(np.asarray(grid.times, dtype=float))
    if widths.size == 0 or np.any(widths <= 0):
        raise ValueError("grid step widths must be positive")
    dW = np.empty((widths.size, len(stream_indices)))
    for j, idx in enumerate(stream_indices):
        dW[:, j] = sample_wiener_increments(
            SeedSpec(master_seed, idx, component_index), grid
        )
    v = np.empty((widths.size + 1, len(stream_indices)))
    v[0] = params.v0
    for k in range(widths.size):
        v[k + 1] = (
            v[k] + (params.mu - v[k] / params.gamma) * widths[k] + params.sigma * dW[k]
        )
    return v


def _cells(times: np.ndarray, t) -> np.ndarray:
    """Index k of the cell (t_k, t_{k+1}] containing each t (t=0 goes to cell 0)."""
    k = np.searchsorted(times, t, side="left") - 1
    return np.clip(k, 0, times.size - 2)


@dataclass(frozen=True, eq=False)
class PathInputs:
    """Every random input of ``m`` trajectories on one grid.

    ``dW`` holds the Wiener increments, (n_steps, m, d); ``u`` the input
    current at the grid points, (n_points, m), zeros without one.  Jumps are
    flat arrays ordered by (path, coord, time): ``path`` is the column
    0..m-1 and ``coord`` the coordinate each drawn ``size`` applies to.

    ``inputs[j]`` is the jump log of column ``j`` as :class:`JumpEvent`
    tuples, built on demand.
    """

    dW: np.ndarray
    u: np.ndarray
    time: np.ndarray
    size: np.ndarray
    path: np.ndarray
    coord: np.ndarray

    def __len__(self) -> int:
        return self.dW.shape[1]

    def __getitem__(self, j: int) -> tuple[JumpEvent, ...]:
        if not 0 <= j < len(self):
            raise IndexError(j)
        lo, hi = np.searchsorted(self.path, [j, j + 1])
        return tuple(
            JumpEvent(t, s, c)
            for t, s, c in zip(self.time[lo:hi].tolist(),
                               self.size[lo:hi].tolist(),
                               self.coord[lo:hi].tolist())
        )

    def jump_sums(self, times: np.ndarray) -> np.ndarray:
        """Jump sizes summed per cell of the grid ``times``, (n_steps, m, d)."""
        _, m, d = self.dW.shape
        sums = np.zeros((times.size - 1, m, d))
        np.add.at(sums, (_cells(times, self.time), self.path, self.coord), self.size)
        return sums


def sample_path_inputs(model, grid, master_seed: int, stream_indices) -> PathInputs:
    """Draw the inputs of the trajectories ``stream_indices`` on ``grid``.

    ``model`` supplies ``dimension``, ``jump_specs`` and ``input_current``
    and the component layout (``wiener_component``, ``jump_component``,
    ``input_component``).  Column ``j`` holds exactly the draws of the
    single streams ``SeedSpec(master_seed, stream_indices[j], component)``.
    """
    stream_indices = list(stream_indices)
    m, d = len(stream_indices), model.dimension
    specs = model.jump_specs or ()
    dW = np.empty((grid.n_steps, m, d))
    times, sizes, counts = [np.empty(0)], [np.empty(0)], []
    for j, idx in enumerate(stream_indices):
        for c in range(d):
            dW[:, j, c] = sample_wiener_increments(
                SeedSpec(master_seed, idx, model.wiener_component(c)), grid
            )
        for c, spec in enumerate(specs):
            t, s = sample_compound_poisson_arrays(
                SeedSpec(master_seed, idx, model.jump_component(c)),
                spec, grid.horizon,
            )
            times.append(t)
            sizes.append(s)
            counts.append(t.size)
    if model.input_current is not None:
        u = sample_ou_paths(master_seed, model.input_current, grid,
                            stream_indices, model.input_component)
    else:
        u = np.zeros((grid.n_steps + 1, m))
    # index of each jump's (path, coord) stream, path-major
    stream = np.repeat(np.arange(m * len(specs)), np.array(counts, dtype=np.intp))
    path, coord = np.divmod(stream, max(len(specs), 1))
    return PathInputs(dW, u, np.concatenate(times), np.concatenate(sizes), path, coord)
