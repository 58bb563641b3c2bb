"""Tests for the seeded noise generators: Wiener increments, compound
Poisson jump streams, OU input currents and the stream addressing."""
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
    sample_compound_poisson,
    sample_compound_poisson_arrays,
    sample_ou_path,
    sample_ou_paths,
    sample_path_inputs,
    sample_wiener_increments,
    uniform_grid,
)
from skorokhod_sde.engine import SimulationGrid


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


class TestWienerIncrements:
    def test_degenerate_grid_rejected(self):
        grid = SimulationGrid(np.array([0.0, 0.0, 1.0]), 1.0, 0.5)
        with pytest.raises(ValueError):
            sample_wiener_increments(SeedSpec(0), grid)

    def test_empty_grid_rejected(self):
        grid = SimulationGrid(np.array([0.0]), 0.0, 0.0)
        with pytest.raises(ValueError):
            sample_wiener_increments(SeedSpec(0), grid)

    def test_determinism(self):
        grid = uniform_grid(0.1, 10.0)
        a = sample_wiener_increments(SeedSpec(1, 2, 3), grid)
        b = sample_wiener_increments(SeedSpec(1, 2, 3), grid)
        assert np.array_equal(a, b)

    def test_moments_large_sample(self):
        grid = uniform_grid(0.1, 100_000.0)
        inc = sample_wiener_increments(SeedSpec(0), grid)
        assert inc.size == 10**6
        assert abs(inc.mean()) < 4.0 * np.sqrt(0.1 / 10**6)
        assert abs(inc.var() - 0.1) < 0.01 * 0.1


class TestJumpSizeDist:
    def test_families_and_moments(self):
        assert JumpSizeDist.constant(2.0).mean() == 2.0
        assert JumpSizeDist.constant(2.0).second_moment() == 4.0
        assert JumpSizeDist.exponential(1.5).mean() == 1.5
        assert JumpSizeDist.exponential(1.0).second_moment() == 2.0
        u = JumpSizeDist.uniform(0.0, 1.0)
        assert u.mean() == 0.5
        assert u.second_moment() == pytest.approx(1.0 / 3.0)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            JumpSizeDist.exponential(0.0)
        with pytest.raises(ValueError):
            JumpSizeDist.uniform(1.0, 1.0)
        with pytest.raises(ValueError):
            JumpSizeDist("gamma", 1.0)

    def test_sample_moments(self):
        rng = np.random.default_rng(0)
        draws = JumpSizeDist.exponential(2.0).sample(rng, 10**5)
        assert draws.mean() == pytest.approx(2.0, rel=0.02)


class TestCompoundPoisson:
    def test_zero_intensity_empty(self):
        spec = CompoundPoissonSpec(0.0, JumpSizeDist.constant(1.0))
        assert sample_compound_poisson(SeedSpec(0), spec, 10.0) == []

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            CompoundPoissonSpec(-1.0, JumpSizeDist.constant(1.0))

    def test_nonpositive_horizon_rejected(self):
        spec = CompoundPoissonSpec(1.0, JumpSizeDist.constant(1.0))
        with pytest.raises(ValueError):
            sample_compound_poisson(SeedSpec(0), spec, 0.0)

    def test_determinism_and_ordering(self):
        spec = CompoundPoissonSpec(3.0, JumpSizeDist.exponential(1.0))
        a = sample_compound_poisson(SeedSpec(11, 4), spec, 5.0)
        b = sample_compound_poisson(SeedSpec(11, 4), spec, 5.0)
        assert a == b
        times = [ev.time for ev in a]
        assert times == sorted(times)
        assert all(0.0 <= t <= 5.0 for t in times)

    def test_array_variant_matches_events(self):
        spec = CompoundPoissonSpec(2.5, JumpSizeDist.uniform(0.0, 1.0))
        for idx in range(20):
            events = sample_compound_poisson(SeedSpec(4, idx), spec, 3.0)
            times, sizes = sample_compound_poisson_arrays(SeedSpec(4, idx), spec, 3.0)
            assert [ev.time for ev in events] == list(times)
            assert [ev.size for ev in events] == list(sizes)

    def test_mean_count(self):
        # E N = alpha T = 10 for alpha=2, T=5.
        spec = CompoundPoissonSpec(2.0, JumpSizeDist.constant(1.0))
        reps = 10**4
        counts = [len(sample_compound_poisson(SeedSpec(0, i), spec, 5.0))
                  for i in range(reps)]
        se = np.sqrt(10.0 / reps)
        assert abs(np.mean(counts) - 10.0) < 3.0 * se

    def test_mean_total_jump(self):
        # E J(1) = alpha * T * E xi = 0.5 for alpha=1, T=1, exp mean 0.5.
        spec = CompoundPoissonSpec(1.0, JumpSizeDist.exponential(0.5))
        reps = 10**4
        totals = np.array([
            sum(ev.size for ev in sample_compound_poisson(SeedSpec(1, i), spec, 1.0))
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
        v = sample_ou_path(SeedSpec(0), OUParams(mu=0.0, gamma=1.0, sigma=0.0, v0=1.0), grid)
        assert np.max(np.abs(v - np.exp(-grid.times))) < 0.01

    def test_fixed_point(self):
        grid = uniform_grid(0.1, 10.0)
        v = sample_ou_path(SeedSpec(0), OUParams(mu=0.0, sigma=0.0, v0=0.0), grid)
        assert np.array_equal(v, np.zeros_like(v))

    def test_mean_reversion(self):
        grid = uniform_grid(0.1, 20.0)
        params = OUParams(mu=2.0, gamma=1.0, sigma=0.2, v0=0.0)
        v = sample_ou_paths(3, params, grid, range(2000), component_index=0)
        terminal = v[-1]
        se = terminal.std(ddof=1) / np.sqrt(terminal.size)
        assert abs(terminal.mean() - 2.0) < 3.0 * se

    def test_stationary_variance(self):
        grid = uniform_grid(0.1, 100.0)
        params = OUParams(mu=0.0, gamma=1.0, sigma=0.1, v0=0.0)
        v = sample_ou_paths(42, params, grid, range(10**4), component_index=0)
        late = v[grid.times >= 50.0]
        assert abs(late.var() - 0.005) < 0.1 * 0.005

    def test_batch_matches_single(self):
        grid = uniform_grid(0.1, 5.0)
        params = OUParams(mu=0.3, gamma=2.0, sigma=0.4, v0=0.1)
        batch = sample_ou_paths(9, params, grid, [0, 5, 17], component_index=4)
        for j, idx in enumerate([0, 5, 17]):
            single = sample_ou_path(SeedSpec(9, idx, 4), params, grid)
            assert np.array_equal(batch[:, j], single)


def _two_coord_model(intensity=1.5, ou=OUParams(mu=0.3, gamma=2.0, sigma=0.4, v0=0.1)):
    jumps = CompoundPoissonSpec(intensity, JumpSizeDist.exponential(1.0))
    return ReflectedJumpSDE(
        dimension=2,
        drift=lambda x, u: np.zeros_like(x),
        diffusion=lambda x: np.zeros_like(x),
        domain=ReflectionDomain.half_line(0.0, dim=2),
        x0=np.zeros(2),
        jump_coeff=lambda x: np.ones_like(x),
        jump_specs=(jumps, jumps),
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


def _binned(events, times, d):
    """Per-event binning into the cells (t_k, t_{k+1}], t = 0 in cell 0."""
    sums = np.zeros((times.size - 1, d))
    for ev in events:
        k = int(np.searchsorted(times, ev.time, side="left")) - 1
        sums[min(max(k, 0), times.size - 2), ev.component] += ev.size
    return sums


class TestPathInputs:
    @pytest.mark.parametrize("width", [1, 200])
    def test_columns_equal_single_stream_draws(self, width):
        model = _two_coord_model()
        grid = uniform_grid(0.1, 4.0)
        streams = [3 * j + 1 for j in range(width)]
        inputs = sample_path_inputs(model, grid, 17, streams)
        assert len(inputs) == width
        assert inputs.dW.shape == (grid.n_steps, width, 2)
        assert inputs.u.shape == (grid.times.size, width)
        sums = inputs.jump_sums(grid.times)
        sqrt_dt = np.sqrt(np.diff(grid.times))
        for j, idx in enumerate(streams):
            events = []
            for c in range(2):
                draw = SeedSpec(17, idx, c).rng().standard_normal(grid.n_steps)
                assert np.array_equal(inputs.dW[:, j, c], draw * sqrt_dt)
                events += sample_compound_poisson(
                    SeedSpec(17, idx, 2 + c), model.jump_specs[c], 4.0, component=c
                )
            ou = _ou_oracle(SeedSpec(17, idx, 4), model.input_current, grid)
            assert np.array_equal(inputs.u[:, j], ou)
            assert inputs[j] == tuple(events)
            assert np.array_equal(sums[:, j, :], _binned(events, grid.times, 2))

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
        assert inputs.time.size == 0 and inputs[2] == ()
        assert np.array_equal(inputs.jump_sums(grid.times), np.zeros((4, 3, 1)))
        with pytest.raises(IndexError):
            inputs[3]

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
        sums = inputs.jump_sums(grid.times)
        expected = np.zeros((4, 2, 2))
        expected[0, 0, 0] = 1.0 + 2.0
        expected[1, 0, 1] = 4.0
        expected[1, 1, 0] = 8.0
        expected[3, 1, 1] = 16.0
        assert np.array_equal(sums, expected)

    def test_coarse_grid_sums_equal_per_event_binning(self):
        # the convergence experiment bins one fine-grid draw on every level
        model = _two_coord_model(intensity=4.0)
        fine = uniform_grid(2.0**-7, 2.0)
        inputs = sample_path_inputs(model, fine, 8, range(6))
        for n_steps in (2, 8, 32, 256):
            grid = uniform_grid(2.0 / n_steps, 2.0)
            sums = inputs.jump_sums(grid.times)
            for j in range(6):
                assert np.array_equal(sums[:, j, :], _binned(inputs[j], grid.times, 2))
