"""Tests for the seeded noise generators: Wiener increments, compound
Poisson jump streams, OU input currents and the stream addressing."""
import tracemalloc

import numpy as np
import pytest

from skorokhod_sde import (
    CompoundPoissonSpec,
    JumpSizeDist,
    OUParams,
    PathInputs,
    ReflectedJumpSDE,
    ReflectionDomain,
    SeedSpec,
    sample_compound_poisson_arrays,
    sample_ou_paths,
    sample_path_inputs,
    sample_wiener_increments,
    uniform_grid,
)
from skorokhod_sde import sources
from skorokhod_sde.engine import SimulationGrid, integrate_batch
from skorokhod_sde.sources import stream_layout, stream_rngs


class TestSeedSpec:
    def test_determinism(self):
        a = SeedSpec(7, 3, 1).rng().standard_normal(100)
        b = SeedSpec(7, 3, 1).rng().standard_normal(100)
        assert np.array_equal(a, b)

    def test_distinct_components_distinct_streams(self):
        a = SeedSpec(0, 0, 0).rng().standard_normal(100)
        b = SeedSpec(0, 0, 1).rng().standard_normal(100)
        assert not np.array_equal(a, b)

    def test_equal_triples_equal_specs(self):
        assert SeedSpec(0, 0, 0) == SeedSpec(0, 0, 0)
        assert SeedSpec(0, 0, 0) != SeedSpec(0, 0, 1)

    def test_collision_scan(self):
        # 10^5 distinct triples must map to 10^5 distinct generator states.
        states = set()
        for master in range(10):
            for stream in range(100):
                for component in range(100):
                    seq = np.random.SeedSequence([master, stream, component])
                    states.add(tuple(seq.generate_state(2)))
        assert len(states) == 10 * 100 * 100

    def test_independence_cross_correlation(self):
        n = 10**6
        a = SeedSpec(5, 0, 0).rng().standard_normal(n)
        b = SeedSpec(5, 0, 1).rng().standard_normal(n)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            SeedSpec(-1)
        with pytest.raises(ValueError):
            SeedSpec(2**64)
        with pytest.raises(ValueError):
            SeedSpec(0, -1, 0)


class TestStreamRngs:
    """The batch seeding against numpy itself: every generator equals
    ``default_rng(SeedSequence([master, stream, component]))``."""

    STREAMS = [*range(750), 2**32, *range(750, 1500), 2**40 + 3, 2**64 - 1]

    @pytest.mark.parametrize("master", [0, 1, 42, 2**32 - 1, 2**32, 2**40 + 5, 2**64 - 1])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_generators_equal_numpys(self, master, d):
        components = range(2 * d + 2)
        rows = stream_rngs(master, self.STREAMS, components)
        for stream, rngs in zip(self.STREAMS, rows, strict=True):
            assert len(rngs) == len(components)
            for component, rng in zip(components, rngs):
                ref = np.random.default_rng(np.random.SeedSequence([master, stream, component]))
                assert rng.bit_generator.state == ref.bit_generator.state
                assert rng.standard_normal(2).tolist() == ref.standard_normal(2).tolist()

    def test_wide_components_and_empty_batches(self):
        components = [0, 2**32, 7, 2**33 + 1]
        for stream, rngs in zip([3, 2**35], stream_rngs(9, [3, 2**35], components)):
            for component, rng in zip(components, rngs):
                ref = np.random.default_rng(np.random.SeedSequence([9, stream, component]))
                assert rng.bit_generator.state == ref.bit_generator.state
        assert list(stream_rngs(9, [], [0, 1])) == []
        assert list(stream_rngs(9, [0, 1], [])) == [(), ()]

    @pytest.mark.parametrize("master, streams, component, match", [
        (-1, [0], 0, "master_seed"),
        (2**64, [0], 0, "master_seed"),
        (0, [0, -1], 0, "nonnegative"),
        (0, [0], -1, "nonnegative"),
        (0, [2**64], 0, "64 unsigned bits"),
    ])
    def test_bad_addresses_rejected(self, master, streams, component, match):
        with pytest.raises(ValueError, match=match):
            stream_rngs(master, streams, [component])

    @pytest.mark.parametrize("master, streams, match", [
        (-1, [0], "master_seed"), (2**64, [0], "master_seed"), (0, [0, -1], "nonnegative"),
    ])
    def test_batch_draws_keep_the_seed_checks(self, master, streams, match):
        with pytest.raises(ValueError, match=match):
            sample_path_inputs(_two_coord_model(), uniform_grid(0.5, 1.0), master, streams)


class TestWienerIncrements:
    def test_degenerate_grid_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SimulationGrid(np.array([0.0, 0.0, 1.0]))

    def test_nan_step_width_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            SimulationGrid(np.array([0.0, np.nan, 1.0]))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="2 points"):
            SimulationGrid(np.array([0.0]))

    def test_determinism(self):
        grid = uniform_grid(0.1, 10.0)
        a = sample_wiener_increments(SeedSpec(1, 2, 3).rng(), grid)
        b = sample_wiener_increments(SeedSpec(1, 2, 3).rng(), grid)
        assert np.array_equal(a, b)

    def test_scale_is_the_grids_square_root_of_its_widths(self):
        grid = SimulationGrid(np.array([0.0, 0.1, 0.3, 0.35, 1.7]))
        assert grid.sqrt_widths.tobytes() == np.sqrt(grid.widths).tobytes()
        got = sample_wiener_increments(SeedSpec(4).rng(), grid)
        want = SeedSpec(4).rng().standard_normal(grid.n_steps) * np.sqrt(np.diff(grid.times))
        assert got.tobytes() == want.tobytes()

    def test_out_is_filled_and_returned(self):
        grid = SimulationGrid(np.array([0.0, 0.1, 0.3, 0.35, 1.7]))
        buf = np.full(grid.n_steps, np.nan)
        got = sample_wiener_increments(SeedSpec(4, 1, 2).rng(), grid, out=buf)
        assert got is buf
        assert buf.tobytes() == sample_wiener_increments(SeedSpec(4, 1, 2).rng(), grid).tobytes()

    def test_moments_large_sample(self):
        grid = uniform_grid(0.1, 100_000.0)
        inc = sample_wiener_increments(SeedSpec(0).rng(), grid)
        assert inc.size == 10**6
        assert abs(inc.mean()) < 4.0 * np.sqrt(0.1 / 10**6)
        assert abs(inc.var() - 0.1) < 0.01 * 0.1


class TestJumpSizeDist:
    def test_families_and_moments(self):
        assert JumpSizeDist.constant(2.0).second_moment() == 4.0
        assert JumpSizeDist.exponential(1.0).second_moment() == 2.0
        assert JumpSizeDist.uniform(0.0, 1.0).second_moment() == pytest.approx(1.0 / 3.0)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            JumpSizeDist.exponential(0.0)
        with pytest.raises(ValueError):
            JumpSizeDist.uniform(1.0, 1.0)
        with pytest.raises(ValueError):
            JumpSizeDist("gamma", 1.0)
        for overflowing in (JumpSizeDist.exponential, JumpSizeDist.constant):
            with pytest.raises(ValueError, match="second moment"):
                overflowing(1e200)
        with pytest.raises(ValueError, match="range"):
            JumpSizeDist.uniform(-1e308, 1e308)

    def test_sample_moments(self):
        rng = np.random.default_rng(0)
        draws = JumpSizeDist.exponential(2.0).sample(rng, 10**5)
        assert draws.mean() == pytest.approx(2.0, rel=0.02)


class TestCompoundPoisson:
    def test_zero_intensity_empty(self):
        spec = CompoundPoissonSpec(0.0, JumpSizeDist.constant(1.0))
        times, sizes = sample_compound_poisson_arrays(SeedSpec(0).rng(), spec, 10.0)
        assert times.size == sizes.size == 0
        events = sample_path_inputs(_two_coord_model(intensity=0.0), uniform_grid(1.0, 10.0),
                                    0, [0])[0]
        assert events.dtype == sources.JUMP_LOG and len(events) == 0

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            CompoundPoissonSpec(-1.0, JumpSizeDist.constant(1.0))

    @pytest.mark.parametrize("horizon", [0.0, -1.0, np.nan, np.inf])
    def test_horizon_must_be_positive_and_finite(self, horizon):
        spec = CompoundPoissonSpec(1.0, JumpSizeDist.constant(1.0))
        with pytest.raises(ValueError, match="horizon"):
            sample_compound_poisson_arrays(SeedSpec(0).rng(), spec, horizon)

    def test_determinism_and_ordering(self):
        spec = CompoundPoissonSpec(3.0, JumpSizeDist.exponential(1.0))
        a = sample_compound_poisson_arrays(SeedSpec(11, 4).rng(), spec, 5.0)
        b = sample_compound_poisson_arrays(SeedSpec(11, 4).rng(), spec, 5.0)
        assert [x.tobytes() for x in a] == [x.tobytes() for x in b]
        times = a[0].tolist()
        assert times == sorted(times)
        assert all(0.0 <= t <= 5.0 for t in times)

    def test_path_logs_hold_the_array_draws(self):
        spec = CompoundPoissonSpec(2.5, JumpSizeDist.uniform(0.0, 1.0))
        model = ReflectedJumpSDE(1, lambda x, u: np.zeros_like(x), lambda x: 0.0,
                                 ReflectionDomain.unreflected(1), np.zeros(1),
                                 jump_coeff=lambda x: 1.0, jump_specs=(spec,))
        inputs = sample_path_inputs(model, uniform_grid(0.5, 3.0), 4, range(20))
        jump = stream_layout(1)[1][0]
        for idx in range(20):
            events = inputs[idx]
            times, sizes = sample_compound_poisson_arrays(SeedSpec(4, idx, jump).rng(), spec, 3.0)
            assert events["time"].tobytes() == times.tobytes()
            assert events["size"].tobytes() == sizes.tobytes()
            assert not events["coord"].any()  # the one coordinate

    def test_mean_count(self):
        # E N = alpha T = 10 for alpha=2, T=5.
        spec = CompoundPoissonSpec(2.0, JumpSizeDist.constant(1.0))
        reps = 10**4
        counts = [sample_compound_poisson_arrays(SeedSpec(0, i).rng(), spec, 5.0)[0].size
                  for i in range(reps)]
        se = np.sqrt(10.0 / reps)
        assert abs(np.mean(counts) - 10.0) < 3.0 * se

    def test_mean_total_jump(self):
        # E J(1) = alpha * T * E xi = 0.5 for alpha=1, T=1, exp mean 0.5.
        spec = CompoundPoissonSpec(1.0, JumpSizeDist.exponential(0.5))
        reps = 10**4
        totals = np.array([
            sum(sample_compound_poisson_arrays(SeedSpec(1, i).rng(), spec, 1.0)[1].tolist())
            for i in range(reps)
        ])
        se = totals.std(ddof=1) / np.sqrt(reps)
        assert abs(totals.mean() - 0.5) < 3.0 * se


class TestOUPath:
    def test_param_validation(self):
        with pytest.raises(ValueError):
            OUParams(gamma=0.0)
        with pytest.raises(ValueError):
            OUParams(sigma=-0.1)

    def test_deterministic_decay(self):
        grid = uniform_grid(0.01, 3.0)
        v = _ou_path(SeedSpec(0), OUParams(mu=0.0, gamma=1.0, sigma=0.0, v0=1.0), grid)
        assert np.max(np.abs(v - np.exp(-grid.times))) < 0.01

    def test_fixed_point(self):
        grid = uniform_grid(0.1, 10.0)
        v = _ou_path(SeedSpec(0), OUParams(mu=0.0, sigma=0.0, v0=0.0), grid)
        assert np.array_equal(v, np.zeros_like(v))

    def test_mean_reversion(self):
        grid = uniform_grid(0.1, 20.0)
        params = OUParams(mu=2.0, gamma=1.0, sigma=0.2, v0=0.0)
        v = sample_ou_paths(_ou_rngs(3, range(2000), 0), params, grid)
        terminal = v[-1]
        se = terminal.std(ddof=1) / np.sqrt(terminal.size)
        assert abs(terminal.mean() - 2.0) < 3.0 * se

    def test_stationary_variance(self):
        grid = uniform_grid(0.1, 100.0)
        params = OUParams(mu=0.0, gamma=1.0, sigma=0.1, v0=0.0)
        v = sample_ou_paths(_ou_rngs(42, range(10**4), 0), params, grid)
        late = v[grid.times >= 50.0]
        assert abs(late.var() - 0.005) < 0.1 * 0.005

    def test_batch_matches_single(self):
        grid = uniform_grid(0.1, 5.0)
        params = OUParams(mu=0.3, gamma=2.0, sigma=0.4, v0=0.1)
        batch = sample_ou_paths(_ou_rngs(9, [0, 5, 17], 4), params, grid)
        for j, idx in enumerate([0, 5, 17]):
            single = _ou_path(SeedSpec(9, idx, 4), params, grid)
            assert np.array_equal(batch[:, j], single)


def two_buffer_ou_oracle(rngs, params: OUParams, grid) -> np.ndarray:
    """:func:`sample_ou_paths` with its increments in a buffer of their
    own and each step's sum made fresh: the bitwise reference for drawing
    in place."""
    rngs = list(rngs)
    dW = np.empty((grid.n_steps, len(rngs)))
    for j, rng in enumerate(rngs):
        dW[:, j] = sample_wiener_increments(rng, grid)
    v = np.empty((grid.n_steps + 1, len(rngs)))
    v[0] = params.v0
    for k, width in enumerate(grid.widths):
        v[k + 1] = v[k] + (params.mu - v[k] / params.gamma) * width + params.sigma * dW[k]
    return v


class TestOUInPlace:
    GRIDS = {
        "uniform": uniform_grid(0.1, 20.0),
        "uneven": SimulationGrid(np.cumsum(np.r_[0.0, np.random.default_rng(2).uniform(
            1e-3, 0.5, 300)])),
    }

    @pytest.mark.parametrize("grid", GRIDS)
    @pytest.mark.parametrize("m", [1, 4, 200])
    @pytest.mark.parametrize("params", [
        OUParams(mu=0.3, gamma=2.0, sigma=0.4, v0=0.1),
        OUParams(mu=-0.0, gamma=0.05, sigma=3.0, v0=-0.0),
        OUParams(mu=1e-300, gamma=7.0, sigma=0.0, v0=-2.5),
    ])
    def test_matches_the_two_buffer_oracle(self, params, m, grid):
        got = sample_ou_paths(_ou_rngs(4, range(m), 6), params, self.GRIDS[grid])
        want = two_buffer_ou_oracle(_ou_rngs(4, range(m), 6), params, self.GRIDS[grid])
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_peak_is_the_path(self):
        """The draw holds no second (n_points, m) array: its tracemalloc peak
        stays within the path plus 128 KiB, where the increments of a second
        buffer would add 6.3 MiB at m = 200 on 4096 steps."""
        grid, m = SimulationGrid(np.linspace(0.0, 100.0, 4097)), 200
        rngs = _ou_rngs(1, range(m), 4)
        tracemalloc.start()
        try:
            v = sample_ou_paths(rngs, OUParams(), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v.shape == (4097, m)
        assert peak <= v.nbytes + 2**17


def _ou_path(seed, params, grid):
    """The OU path of the one stream ``seed``, (n_points,)."""
    return sample_ou_paths([seed.rng()], params, grid)[:, 0]


def _ou_rngs(master, streams, component):
    """One generator per stream, of the streams ``(master, stream, component)``."""
    return [rng for (rng,) in stream_rngs(master, streams, [component])]


def _two_coord_model(intensity=1.5, ou=OUParams(mu=0.3, gamma=2.0, sigma=0.4, v0=0.1),
                     jumps=True):
    spec = CompoundPoissonSpec(intensity, JumpSizeDist.exponential(1.0))
    return ReflectedJumpSDE(
        dimension=2,
        drift=lambda x, u: np.zeros_like(x),
        diffusion=lambda x: np.zeros_like(x),
        domain=ReflectionDomain.half_line(0.0, dim=2),
        x0=np.zeros(2),
        jump_coeff=(lambda x: np.ones_like(x)) if jumps else None,
        jump_specs=(spec, spec) if jumps else None,
        input_current=ou,
    )


def _ou_oracle(seed, params, grid):
    """Euler recursion on Python floats, driven by the single stream."""
    widths = np.diff(grid.times)
    dW = seed.rng().standard_normal(widths.size) * np.sqrt(widths)
    v = [float(params.v0)]
    for w, dw in zip(widths.tolist(), dW.tolist()):
        x = v[-1]
        v.append(x + (params.mu - x / params.gamma) * w + params.sigma * dw)
    return np.array(v)


def _log(times, sizes, coord):
    """A :data:`sources.JUMP_LOG` of the events at ``times`` of ``sizes``, all at ``coord``."""
    log = np.zeros(times.size, sources.JUMP_LOG)
    log["time"], log["size"], log["coord"] = times, sizes, coord
    return log


def _binned(events, times, d):
    """Per-event binning into the cells (t_k, t_{k+1}], t = 0 in cell 0."""
    sums = np.zeros((times.size - 1, d))
    for time, size, coord in events.tolist():
        k = int(np.searchsorted(times, time, side="left")) - 1
        sums[min(max(k, 0), times.size - 2), coord] += size
    return sums


def _summed_jumps(inputs, times):
    """Running jump sums of ``inputs`` on the grid ``times``, (n_points, m, d),
    as the states of a model that only jumps: zero drift and noise, unit jump
    coefficient, no reflection, started at 0."""
    d = inputs.dW.shape[2]
    model = ReflectedJumpSDE(
        dimension=d,
        drift=lambda x, u: np.zeros_like(x),
        diffusion=np.zeros_like,
        domain=ReflectionDomain.unreflected(d),
        x0=np.zeros(d),
        jump_coeff=np.ones_like,
        jump_specs=(CompoundPoissonSpec(0.0, JumpSizeDist.constant(0.0)),) * d,
    )
    return integrate_batch(model, times, inputs, model.x0).states


def _running(sums):
    """Running sums of per-cell sums, with the 0 of the first point."""
    return np.concatenate([np.zeros((1, *sums.shape[1:])), np.cumsum(sums, axis=0)])


class TestPathInputs:
    def test_stream_layout(self):
        assert stream_layout(2) == (range(0, 2), range(2, 4), 4, 5)

    @pytest.mark.parametrize("master, streams", [
        (17, [1]),
        (17, [3 * j + 1 for j in range(200)]),
        (2**40 + 5, [2**32 + 7, 0, 2**40 + 3]),  # two-word master and streams
    ], ids=["one_path", "200_paths", "wide_seeds"])
    @pytest.mark.parametrize("jumps", [True, False], ids=["jumps", "no_jumps"])
    @pytest.mark.parametrize("current", [True, False], ids=["current", "no_current"])
    def test_columns_equal_single_stream_draws(self, master, streams, jumps, current):
        ou = OUParams(mu=0.3, gamma=2.0, sigma=0.4, v0=0.1) if current else None
        model = _two_coord_model(ou=ou, jumps=jumps)
        grid = uniform_grid(0.1, 4.0)
        width = len(streams)
        inputs = sample_path_inputs(model, grid, master, streams)
        assert len(inputs) == width
        assert inputs.dW.shape == (grid.n_steps, width, 2)
        assert inputs.u.shape == (grid.times.size, width)
        summed = _summed_jumps(inputs, grid.times)
        sqrt_dt = np.sqrt(np.diff(grid.times))
        for j, idx in enumerate(streams):
            events = [np.empty(0, sources.JUMP_LOG)]
            for c in range(2):
                draw = SeedSpec(master, idx, c).rng().standard_normal(grid.n_steps)
                assert np.array_equal(inputs.dW[:, j, c], draw * sqrt_dt)
                if jumps:
                    times, sizes = sample_compound_poisson_arrays(
                        SeedSpec(master, idx, 2 + c).rng(), model.jump_specs[c], 4.0)
                    events.append(_log(times, sizes, c))
            events = np.concatenate(events)
            want = _ou_oracle(SeedSpec(master, idx, 4), ou, grid) if current else 0.0
            assert np.array_equal(inputs.u[:, j], np.broadcast_to(want, grid.times.shape))
            assert inputs[j].tobytes() == events.tobytes()
            assert np.array_equal(summed[:, j, :], _running(_binned(events, grid.times, 2)))

    # 409 paths of 2 x 40 steps fill a draw block; 2 x 20 000 steps overfill one
    BLOCK_GRIDS = {"short": uniform_grid(0.1, 4.0), "long": uniform_grid(0.1, 2000.0)}

    @pytest.mark.parametrize("grid, edge", [
        ("short", edge) for edge in ("one", "below", "at", "above", "two_and_three")
    ] + [("long", edge) for edge in ("one", "at", "above", "two_and_three")])
    def test_draw_blocks_keep_every_stream(self, grid, edge):
        """``dW`` column j is bitwise stream j's draws scaled by the grid's
        roots, for batches that end below, at and past the edge of a block
        of paths drawn at once, and on a grid where a block is one path."""
        grid = self.BLOCK_GRIDS[grid]
        block = max(1, sources._DRAW_BLOCK // (2 * grid.n_steps))
        m = {"one": 1, "below": block - 1, "at": block, "above": block + 1,
             "two_and_three": 2 * block + 3}[edge]
        streams = [3 * j + 1 for j in range(m)]
        inputs = sample_path_inputs(_two_coord_model(), grid, 11, streams)
        assert inputs.dW.transpose(0, 2, 1).flags.c_contiguous  # d-major per step
        for j, idx in enumerate(streams):
            for c in range(2):
                want = SeedSpec(11, idx, c).rng().standard_normal(grid.n_steps) * grid.sqrt_widths
                assert inputs.dW[:, j, c].tobytes() == want.tobytes()

    @pytest.mark.parametrize("m, n_steps", [(1, 50_000), (3, 20_000), (1000, 100), (5000, 2)])
    def test_draw_holds_one_block(self, m, n_steps):
        """Beyond its outputs and the seeding of its streams, the draw holds
        at most one block of paths, about ``_DRAW_BLOCK`` values or one
        path's, whatever the batch: a (paths, d, n_steps) array drawn whole
        would add 1 MB at 3 paths of 20 000 steps or 1.6 MB at 1000 of 100."""
        model, grid = _two_coord_model(jumps=False, ou=None), uniform_grid(1.0, float(n_steps))
        block = 8 * max(2 * n_steps, min(2 * n_steps * m, sources._DRAW_BLOCK))
        tracemalloc.start()
        try:
            for _ in stream_rngs(7, list(range(m)), [0, 1]):  # the indices listed, as drawn
                pass
            base, seeding = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            inputs = sample_path_inputs(model, grid, 7, range(m))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= inputs.dW.nbytes + inputs.u.nbytes + seeding + block + 2**13

    @pytest.mark.parametrize("jumps, current, components", [
        (True, True, [0, 1, 2, 3, 4]),
        (True, False, [0, 1, 2, 3]),
        (False, True, [0, 1, 4]),
        (False, False, [0, 1]),
    ])
    def test_one_seeding_pass_per_batch(self, monkeypatch, jumps, current, components):
        calls = []

        def spy(master_seed, stream_indices, comps):
            calls.append((master_seed, list(stream_indices), list(comps)))
            return stream_rngs(master_seed, stream_indices, comps)

        monkeypatch.setattr(sources, "stream_rngs", spy)
        model = _two_coord_model(ou=OUParams() if current else None, jumps=jumps)
        sample_path_inputs(model, uniform_grid(0.5, 2.0), 5, range(3))
        assert calls == [(5, [0, 1, 2], components)]

    def test_without_jumps_or_current(self):
        model = ReflectedJumpSDE(
            dimension=1,
            drift=lambda x, u: np.zeros_like(x),
            diffusion=lambda x: np.ones_like(x),
            domain=ReflectionDomain.unreflected(1),
            x0=np.zeros(1),
        )
        grid = uniform_grid(0.5, 2.0)
        inputs = sample_path_inputs(model, grid, 5, range(3))
        assert np.array_equal(inputs.u, np.zeros((5, 3)))
        assert inputs.time.size == 0 and len(inputs[2]) == 0
        assert np.array_equal(_summed_jumps(inputs, grid.times), np.zeros((5, 3, 1)))
        with pytest.raises(IndexError):
            inputs[3]

    @pytest.mark.parametrize("m", [1, 7])
    def test_log_is_the_path_slice_of_the_flat_arrays(self, m):
        """``inputs[j]`` holds exactly path j's entries of the flat jump
        arrays, in their order, also for the paths of tiled inputs that
        take no jumps."""
        inputs = sample_path_inputs(_two_coord_model(intensity=4.0), uniform_grid(0.1, 4.0),
                                    8, range(m))
        for batch in (inputs, inputs.tiled(2, (False, True))):
            for j in range(len(batch)):
                log, mine = batch[j], batch.path == j
                assert log.dtype == sources.JUMP_LOG and len(log) == mine.sum()
                for name in ("time", "size", "coord"):
                    assert log[name].tobytes() == getattr(batch, name)[mine].tobytes(), name
        assert all(len(inputs[j]) for j in range(m))

    def test_cell_boundaries(self):
        # cells are (t_k, t_{k+1}]: t = k dt lands in cell k-1, t = 0 in cell 0
        grid = uniform_grid(0.25, 1.0)
        inputs = PathInputs(
            dW=np.zeros((4, 2, 2)),
            u=np.zeros((5, 2)),
            time=np.array([0.0, 0.25, 0.5, 0.3, 1.0]),
            size=np.array([1.0, 2.0, 4.0, 8.0, 16.0]),
            path=np.array([0, 0, 0, 1, 1]),
            coord=np.array([0, 0, 1, 0, 1]),
        )
        expected = np.zeros((4, 2, 2))
        expected[0, 0, 0] = 1.0 + 2.0
        expected[1, 0, 1] = 4.0
        expected[1, 1, 0] = 8.0
        expected[3, 1, 1] = 16.0
        assert np.array_equal(_summed_jumps(inputs, grid.times), _running(expected))

    def test_coarse_grid_sums_equal_per_event_binning(self):
        # the convergence experiment bins one fine-grid draw on every level
        model = _two_coord_model(intensity=4.0)
        fine = uniform_grid(2.0**-7, 2.0)
        inputs = sample_path_inputs(model, fine, 8, range(6))
        for n_steps in (2, 8, 32, 256):
            grid = uniform_grid(2.0 / n_steps, 2.0)
            summed = _summed_jumps(inputs.coarsened(256 // n_steps), grid.times)
            for j in range(6):
                expected = _running(_binned(inputs[j], grid.times, 2))
                assert np.array_equal(summed[:, j, :], expected)

    def test_coarsened_inputs(self):
        model = _two_coord_model(intensity=4.0)
        inputs = sample_path_inputs(model, uniform_grid(2.0**-5, 2.0), 8, range(3))
        assert inputs.coarsened(1) is inputs  # no copy at stride 1
        for stride in (2, 8, 64):
            coarse = inputs.coarsened(stride)
            summed = inputs.dW.reshape(64 // stride, stride, 3, 2).sum(axis=1)
            assert np.array_equal(coarse.dW, summed)
            assert np.array_equal(coarse.u, inputs.u[::stride])
            assert coarse.u.shape == (64 // stride + 1, 3)
            for name in ("time", "size", "path", "coord"):
                assert getattr(coarse, name) is getattr(inputs, name)
