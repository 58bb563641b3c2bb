"""Deterministic, seeded generation of every random input the solver consumes:
Wiener increments, compound-Poisson jump streams and Ornstein-Uhlenbeck input
currents.

Each trajectory owns a family of independent streams addressed by
``(master_seed, stream_index, component_index)``, the entropy of the numpy
``SeedSequence`` (no spawn keys) that seeds its PCG64 generator; a batch is
hashed in one pass, :func:`stream_rngs`.  Identical triples always reproduce
identical samples; distinct triples give statistically independent streams.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = [
    "SeedSpec",
    "JumpSizeDist",
    "CompoundPoissonSpec",
    "JUMP_LOG",
    "OUParams",
    "sample_wiener_increments",
    "sample_compound_poisson_arrays",
    "sample_ou_paths",
    "PathInputs",
    "sample_path_inputs",
    "stream_layout",
    "stream_rngs",
]

MAX_SEED = 2**64 - 1  # master seeds are 64-bit unsigned
_DRAW_BLOCK = 2**15  # Wiener values per block of paths drawn at once; see sample_path_inputs
JUMP_DISTS = ("constant", "exponential", "uniform")
JUMP_LOG = np.dtype([("time", float), ("size", float), ("coord", np.intp)])  # 24 B per event


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

    def rng(self) -> np.random.Generator:  # PCG64, seeded by the SeedSequence of the triple
        return np.random.default_rng([self.master_seed, self.stream_index, self.component_index])


# numpy SeedSequence's hash (numpy/random/bit_generator.pyx, after O'Neill's
# seed_seq_fe): entropy words are mixed into a pool of 4 uint32 words
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _state_words(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)`` of every column ``e``
    of ``entropy``, (n_words, rows) uint32: (rows, 4) uint64.  The mixes of
    one source word into the other pool words are independent, so each
    source is one round over the rows of its destinations."""
    const = _INIT_A

    def hashmix(value, n, mult=_MULT_A):
        """hashmix of ``value`` with each of the next ``n`` constants, (n, rows)."""
        nonlocal const
        consts = [const]
        for _ in range(n):
            consts.append(consts[-1] * mult & _MASK32)
        const = consts[-1]
        consts = np.array(consts, dtype=np.uint32)[:, None]
        value = (value ^ consts[:-1]) * consts[1:]
        return value ^ value >> 16

    def mix(pool, value):
        z = pool * _MIX_L - value * _MIX_R
        return z ^ z >> 16

    words = np.zeros((max(4, len(entropy)), entropy.shape[1]), dtype=np.uint32)
    words[:len(entropy)] = entropy
    pool = hashmix(words[:4], 4)
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], 3))
    for src in range(4, len(entropy)):
        pool = mix(pool, hashmix(entropy[src], 4))
    const = _INIT_B
    state = hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], 8, _MULT_B)
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8")  # word pairs, low word first


@dataclass(frozen=True)
class _SeedWords(ISeedSequence):
    """Hands a bit generator its precomputed state words."""

    words: np.ndarray

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def stream_rngs(master_seed: int, stream_indices, components):
    """Generators of the streams ``(master_seed, stream, component)``, for
    two sequences of indices: a tuple per stream index, in ``components``
    order, each in the state of its ``SeedSpec.rng()``.  The batch's seed words
    are hashed at once, 32 bytes per stream; a path's generators are built
    when its tuple is taken."""
    SeedSpec(master_seed, min(stream_indices, default=0), min(components, default=0))  # its checks
    if max(stream_indices, default=0) > MAX_SEED or max(components, default=0) > MAX_SEED:
        raise ValueError("stream and component indices must fit in 64 unsigned bits")
    triples = np.full((len(stream_indices), len(components), 3), master_seed, dtype=np.uint64)
    triples[..., 1] = np.array(stream_indices, dtype=np.uint64)[:, None]
    triples[..., 2] = np.array(components, dtype=np.uint64)
    triples = triples.reshape(-1, 3)
    wide = triples > _MASK32  # then two entropy words, the low one first
    group = wide @ np.array([4, 2, 1])  # the three flags, packed
    words = np.empty((len(stream_indices), len(components), 4), dtype=np.uint64)
    for key in set(group.tolist()):
        rows = group == key
        halves = triples[rows].astype("<u8", copy=False).view("<u4").reshape(-1, 3, 2)
        entropy = [halves[:, i, k] for i in range(3) for k in range(1 + (key >> (2 - i) & 1))]
        words.reshape(-1, 4)[rows] = _state_words(np.array(entropy))
    # a list, not a generator: tuple() resizes a generator's tuples into a free list
    return (tuple([np.random.Generator(np.random.PCG64(_SeedWords(w))) for w in row])
            for row in words)


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


def sample_wiener_increments(rng: np.random.Generator, grid, out=None) -> np.ndarray:
    """Gaussian increments N(0, dt_i), one per grid step, from the stream
    ``rng``: drawn and scaled in ``out``, a contiguous (n_steps,) array, if given."""
    out = rng.standard_normal(grid.n_steps, out=out)
    return np.multiply(out, grid.sqrt_widths, out=out)


def _jump_log(time, size, coord) -> np.ndarray:
    log = np.empty(np.size(time), JUMP_LOG)
    log["time"], log["size"], log["coord"] = time, size, coord
    return log


def sample_compound_poisson(rng: np.random.Generator, spec: CompoundPoissonSpec,
                            horizon: float, component: int = 0) -> np.ndarray:
    """The jump log of one stream's draw, all at ``component``; perfbench is its last reader."""
    return _jump_log(*sample_compound_poisson_arrays(rng, spec, horizon), component)


def sample_compound_poisson_arrays(
    rng: np.random.Generator, spec: CompoundPoissonSpec, horizon: float
) -> tuple[np.ndarray, np.ndarray]:
    """Ordered jump times and sizes of the stream ``rng`` on [0, horizon],
    Poisson(alpha T) many."""
    if not 0 < horizon < np.inf:
        raise ValueError("horizon must be positive and finite")
    count = rng.poisson(spec.intensity_alpha * horizon)
    # Conditional-uniform order statistics: exact count law on the fixed
    # horizon and cheaper to reproduce than inter-arrival chaining.
    times = rng.uniform(0.0, horizon, size=count)
    times.sort()
    sizes = spec.jump_dist.sample(rng, count)
    return times, sizes


def sample_ou_path(seed: SeedSpec, params: OUParams, grid) -> np.ndarray:
    """:func:`sample_ou_paths` of the one stream ``seed``; perfbench is its last reader."""
    return sample_ou_paths([seed.rng()], params, grid)[:, 0]


def sample_ou_paths(rngs, params: OUParams, grid) -> np.ndarray:
    """Batch of OU paths, one per generator, shape (n_points, n_paths):
    column ``j`` is driven by the Wiener increments of ``rngs[j]``.

    Each path's increments are drawn into one reused (n_steps,) vector and
    copied into the path itself, each at the point it leads to, and scaled
    there by sigma; the Euler recurrence overwrites ``v[k + 1]`` once it has
    read it, through two (n_paths,) scratch rows:
    v[k + 1] = (v[k] + (mu - v[k] / gamma) * width) + sigma * dW[k]."""
    rngs = list(rngs)
    v, draw = np.empty((grid.n_steps + 1, len(rngs))), np.empty(grid.n_steps)
    for j, rng in enumerate(rngs):
        v[1:, j] = sample_wiener_increments(rng, grid, draw)
    np.multiply(params.sigma, v[1:], out=v[1:])
    v[0] = params.v0
    # two scratch rows: an in-place ufunc costs a 1-path batch 0.4 us more a call
    mu, gamma, (s, t) = params.mu, params.gamma, np.empty((2, len(rngs)))
    for width, now, nxt in zip(grid.widths, v[:-1], v[1:]):
        np.subtract(mu, np.divide(now, gamma, s), t)
        np.add(now, np.multiply(t, width, s), t)
        np.add(t, nxt, nxt)
    return v


def _cells(times: np.ndarray, t) -> np.ndarray:
    """Index k of the cell (t_k, t_{k+1}] containing each t (t=0 goes to cell 0)."""
    k = np.searchsorted(times, t, side="left") - 1
    return np.clip(k, 0, times.size - 2)


@dataclass(frozen=True, eq=False)
class PathInputs:
    """Every random input of ``m`` trajectories on one grid.

    ``dW`` holds the Wiener increments, (n_steps, m, d), copied in a block
    of paths at a time as :func:`sample_path_inputs` draws it; its memory is
    d-major per step, so ``dW[k]`` is an F-ordered (m, d) view, the layout of
    :func:`engine.integrate_batch`'s state.  ``u`` holds the input current
    at the grid points, (n_points, m), zeros without one.  Jumps are
    flat arrays ordered by (path, coord, time): ``path`` is the column
    0..m-1 and ``coord`` the coordinate each drawn ``size`` applies to.

    ``inputs[j]`` is the jump log of column ``j``, a :data:`JUMP_LOG`
    array of its events, built on demand.
    """

    dW: np.ndarray
    u: np.ndarray
    time: np.ndarray
    size: np.ndarray
    path: np.ndarray
    coord: np.ndarray

    def __len__(self) -> int:
        return self.dW.shape[1]

    def __getitem__(self, j: int) -> np.ndarray:
        if not 0 <= j < len(self):
            raise IndexError(j)
        lo, hi = np.searchsorted(self.path, [j, j + 1])
        return _jump_log(self.time[lo:hi], self.size[lo:hi], self.coord[lo:hi])

    def coarsened(self, stride: int) -> PathInputs:
        """These inputs on every ``stride``-th point of their grid: Wiener
        increments summed over each coarse step, the input current taken at
        its points, the jumps as they are.  At stride 1, ``self``."""
        if stride == 1:
            return self
        dW = self.dW.reshape(-1, stride, *self.dW.shape[1:]).sum(axis=1)
        return replace(self, dW=dW, u=self.u[::stride])

    def tiled(self, reps: int, jumps=None) -> PathInputs:
        """These inputs ``reps`` times over: path ``j + r * m`` of the result
        is path ``j``, for r < ``reps``, with its jumps only in the blocks r
        where ``jumps`` is set (every block by default).  One path's ``dW``
        and ``u`` spread as read-only views; several paths' as copies, with
        ``dW`` d-major per step."""
        m = len(self)
        dW, u = self.dW.transpose(0, 2, 1), self.u
        dW = np.broadcast_to(dW[:, :, None], (*dW.shape[:2], reps, m))
        u = np.broadcast_to(u[:, None], (u.shape[0], reps, m))
        blocks = np.arange(reps) if jumps is None else np.flatnonzero(jumps)
        return PathInputs(dW.reshape(*dW.shape[:2], -1).transpose(0, 2, 1),
                          u.reshape(u.shape[0], -1), np.tile(self.time, blocks.size),
                          np.tile(self.size, blocks.size),
                          (self.path + m * blocks[:, None]).ravel(),
                          np.tile(self.coord, blocks.size))


def sample_path_inputs(model, grid, master_seed: int, stream_indices) -> PathInputs:
    """Draw the inputs of the trajectories ``stream_indices`` on ``grid``.

    ``model`` supplies ``dimension``, ``jump_specs`` and ``input_current``.
    Column ``j`` holds exactly the draws of the single streams
    ``SeedSpec(master_seed, stream_indices[j], component)``, with the
    components of :func:`stream_layout`; every stream drawn here is seeded
    in one :func:`stream_rngs` call.  The Wiener streams of a block of paths,
    about ``_DRAW_BLOCK`` values or one path's, are drawn into the rows of
    one reused (paths, d, n_steps) array and copied into ``dW`` at once.
    """
    stream_indices = list(stream_indices)
    m, d, n = len(stream_indices), model.dimension, grid.n_steps
    wiener, jump, current, _ = stream_layout(d)
    specs = model.jump_specs or ()
    ou = model.input_current
    dW = np.empty((n, d, m)).transpose(0, 2, 1)  # d-major per step
    block = np.empty((min(m, max(1, _DRAW_BLOCK // (d * n))), d, n))
    times, sizes, counts, currents = [np.empty(0)], [np.empty(0)], [], []
    components = [*wiener, *jump[:len(specs)]] + ([current] if ou is not None else [])
    for j, rngs in enumerate(stream_rngs(master_seed, stream_indices, components)):
        i = j % len(block)
        for c, rng in enumerate(rngs[:d]):
            sample_wiener_increments(rng, grid, block[i, c])
        if i == len(block) - 1 or j == m - 1:
            dW[:, j - i:j + 1] = block[:i + 1].transpose(2, 0, 1)
        for spec, rng in zip(specs, rngs[d:]):
            t, s = sample_compound_poisson_arrays(rng, spec, grid.horizon)
            times.append(t)
            sizes.append(s)
            counts.append(t.size)
        currents += rngs[d + len(specs):]
    del block  # before the current is drawn: one draw buffer at a time, not two
    u = sample_ou_paths(currents, ou, grid) if ou is not None else np.zeros((n + 1, m))
    # index of each jump's (path, coord) stream, path-major
    stream = np.repeat(np.arange(m * len(specs)), np.array(counts, dtype=np.intp))
    path, coord = np.divmod(stream, max(len(specs), 1))
    return PathInputs(dW, u, np.concatenate(times), np.concatenate(sizes), path, coord)
