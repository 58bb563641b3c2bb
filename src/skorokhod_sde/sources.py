"""Deterministic, seeded generation of every random input the solver consumes:
Wiener increments, compound-Poisson jump streams and Ornstein-Uhlenbeck input
currents.

Each trajectory owns a family of independent streams addressed by
``(master_seed, stream_index, component_index)``.  Identical triples always
reproduce identical samples; distinct triples give statistically independent
streams (numpy ``SeedSequence`` spawning).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

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
    "stream_layout",
]

MAX_SEED = 2**64 - 1  # master seeds are 64-bit unsigned
JUMP_DISTS = ("constant", "exponential", "uniform")


def stream_layout(d: int) -> tuple[range, range, int, int]:
    """Component indices of a d-dimensional model's streams: (Wiener, jump,
    input current, bridge).  Coordinate c draws its Wiener increments from
    component ``wiener[c]`` and its jumps from ``jump[c]``; the input current
    is shared by all coordinates, and the bridge stream feeds exact
    jump-time splitting."""
    return range(d), range(d, 2 * d), 2 * d, 2 * d + 1


@dataclass(frozen=True)
class SeedSpec:
    """Address of one random stream."""

    master_seed: int
    stream_index: int = 0
    component_index: int = 0

    def __post_init__(self):
        if not 0 <= self.master_seed <= MAX_SEED:
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

    Each has a finite second moment (checked here, as is its range), which
    the moment bound on the jump coefficient requires.
    """

    kind: str
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        if self.kind not in JUMP_DISTS:
            raise ValueError(f"unknown jump distribution {self.kind!r}")
        if not np.isfinite((self.a, self.b)).all():
            raise ValueError("jump size parameters must be finite")
        if self.kind == "exponential" and self.a <= 0:
            raise ValueError("exponential jump mean must be positive")
        if self.kind == "uniform" and not self.a < self.b:
            raise ValueError("uniform jump bounds need lo < hi")
        if not np.isfinite((self.b - self.a, self.second_moment())).all():
            raise ValueError("jump size range and second moment must be finite")

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

    def second_moment(self) -> float:
        # products, not **, so that an overflow is inf rather than an error
        if self.kind == "constant":
            return self.a * self.a
        if self.kind == "exponential":
            return 2.0 * self.a * self.a
        return (self.a * self.a + self.a * self.b + self.b * self.b) / 3.0


@dataclass(frozen=True)
class CompoundPoissonSpec:
    """Intensity and jump-size law of one compound-Poisson source."""

    intensity_alpha: float
    jump_dist: JumpSizeDist

    def __post_init__(self):
        if not 0 <= self.intensity_alpha < np.inf:
            raise ValueError("jump intensity must be finite and >= 0")


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
        if not np.isfinite((self.mu, self.gamma, self.sigma, self.v0)).all():
            raise ValueError("OU parameters must be finite")
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if not self.sigma >= 0:
            raise ValueError("sigma must be nonnegative")


def sample_wiener_increments(seed: SeedSpec, grid) -> np.ndarray:
    """Gaussian increments N(0, dt_i), one per grid step."""
    return seed.rng().standard_normal(grid.n_steps) * np.sqrt(grid.widths)


def _sample_jump_arrays(rng, spec: CompoundPoissonSpec, horizon: float):
    if not 0 < horizon < np.inf:
        raise ValueError("horizon must be positive and finite")
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
    times, sizes = _sample_jump_arrays(seed.rng(), spec, horizon)
    return [JumpEvent(float(t), float(s), component) for t, s in zip(times, sizes)]


def sample_compound_poisson_arrays(
    seed: SeedSpec, spec: CompoundPoissonSpec, horizon: float
) -> tuple[np.ndarray, np.ndarray]:
    """Array form of :func:`sample_compound_poisson`: (times, sizes).

    Identical stream and law; cheaper for bulk replication studies.
    """
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
    dW = np.empty((grid.n_steps, len(stream_indices)))
    for j, idx in enumerate(stream_indices):
        dW[:, j] = sample_wiener_increments(
            SeedSpec(master_seed, idx, component_index), grid
        )
    v = np.empty((grid.n_steps + 1, len(stream_indices)))
    v[0] = params.v0
    for k, width in enumerate(grid.widths):
        v[k + 1] = v[k] + (params.mu - v[k] / params.gamma) * width + params.sigma * dW[k]
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

    def coarsened(self, stride: int) -> PathInputs:
        """These inputs on every ``stride``-th point of their grid: Wiener
        increments summed over each coarse step, the input current taken at
        its points, the jumps as they are.  At stride 1, ``self``."""
        if stride == 1:
            return self
        dW = self.dW.reshape(-1, stride, *self.dW.shape[1:]).sum(axis=1)
        return replace(self, dW=dW, u=self.u[::stride])


def sample_path_inputs(model, grid, master_seed: int, stream_indices) -> PathInputs:
    """Draw the inputs of the trajectories ``stream_indices`` on ``grid``.

    ``model`` supplies ``dimension``, ``jump_specs`` and ``input_current``.
    Column ``j`` holds exactly the draws of the single streams
    ``SeedSpec(master_seed, stream_indices[j], component)``, with the
    components of :func:`stream_layout`.
    """
    stream_indices = list(stream_indices)
    m, d = len(stream_indices), model.dimension
    wiener, jump, current, _ = stream_layout(d)
    specs = model.jump_specs or ()
    dW = np.empty((grid.n_steps, m, d))
    times, sizes, counts = [np.empty(0)], [np.empty(0)], []
    for j, idx in enumerate(stream_indices):
        for c, component in enumerate(wiener):
            dW[:, j, c] = sample_wiener_increments(
                SeedSpec(master_seed, idx, component), grid
            )
        for spec, component in zip(specs, jump):
            t, s = sample_compound_poisson_arrays(
                SeedSpec(master_seed, idx, component), spec, grid.horizon
            )
            times.append(t)
            sizes.append(s)
            counts.append(t.size)
    if model.input_current is not None:
        u = sample_ou_paths(master_seed, model.input_current, grid,
                            stream_indices, current)
    else:
        u = np.zeros((grid.n_steps + 1, m))
    # index of each jump's (path, coord) stream, path-major
    stream = np.repeat(np.arange(m * len(specs)), np.array(counts, dtype=np.intp))
    path, coord = np.divmod(stream, max(len(specs), 1))
    return PathInputs(dW, u, np.concatenate(times), np.concatenate(sizes), path, coord)
