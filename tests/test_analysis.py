"""Tests for the path seminorms and the stability and strong-convergence
experiments."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from skorokhod_sde import (
    CompoundPoissonSpec,
    JumpSizeDist,
    OUParams,
    ReflectedJumpSDE,
    ReflectionDomain,
    build_dyadic_partition,
    holder_seminorm,
    seminorm_report,
    sobolev_seminorm,
    stability_experiment,
    strong_convergence_experiment,
    sup_norm,
    uniform_grid,
)
from skorokhod_sde import analysis, config, make_scenario, parse_config
from skorokhod_sde.engine import simulate_trajectory
from skorokhod_sde.models import INPUT_MODES
from test_engine import all_states


def linear_model(drift_rate=-1.0, sigma=0.0, x0=(0.0,), domain=None, **kw):
    x0 = np.asarray(x0, dtype=float)
    return ReflectedJumpSDE(
        dimension=x0.size,
        drift=lambda state, u: drift_rate * state,
        diffusion=lambda state: np.full_like(state, sigma),
        domain=domain or ReflectionDomain.unreflected(x0.size),
        x0=x0,
        **kw,
    )


class TestSupNorm:
    def test_zero_path(self):
        assert sup_norm(np.zeros((10, 2))) == 0.0

    def test_two_component_linear(self):
        t = np.linspace(0.0, 1.0, 11)
        path = np.stack([t, -t], axis=1)
        assert sup_norm(path) == pytest.approx(2.0)

    def test_constant_vector(self):
        assert sup_norm(np.tile([3.0, 4.0], (5, 1))) == pytest.approx(7.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sup_norm(np.empty(0))


def holder_pair_oracle(path, t, alpha):
    """Maximum over all pairs of the full n x n difference matrix."""
    path = np.asarray(path, dtype=float).reshape(len(t), -1)
    diff = np.abs(path[:, None, :] - path[None, :, :]).sum(axis=2)
    gap = np.abs(t[:, None] - t[None, :])
    mask = gap > 0
    return float((diff[mask] / gap[mask] ** alpha).max())


def sobolev_full_matrix_oracle(path, t, alpha, p):
    """The seminorm on full n x n matrices, inner trapezoid per row."""
    values = np.asarray(path, dtype=float).reshape(len(t), -1)
    diff = np.abs(values[:, None, :] - values[None, :, :]).sum(axis=2)
    gap = np.abs(t[:, None] - t[None, :])
    integrand = np.zeros_like(gap)
    off = gap > 0
    integrand[off] = diff[off] ** p / gap[off] ** (1.0 + alpha * p)
    inner = np.trapezoid(integrand, t, axis=1)
    return float(np.trapezoid(inner, t))


def random_path(n, d, seed):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.0, 2.0, size=n))
    t[0], t[-1] = 0.0, 2.0
    path = rng.standard_normal((n, d)).cumsum(axis=0)
    return (path[:, 0] if d == 1 else path), t


def lag_one_step(n=40):
    """Unit step between two neighbours on a random grid: the maximum sits at
    lag 1, across the step."""
    _, t = random_path(n, 1, seed=5)
    return np.where(np.arange(n) >= n // 2, 1.0, 0.0), t


def last_lag_wiggle(n=101):
    """Trend plus a wiggle that vanishes at both ends: not monotone, maximum
    at the last lag."""
    t = np.linspace(0.0, 1.0, n)
    return t + 0.1 * np.sin(20.0 * np.pi * t) * t * (1.0 - t), t


def ramp(n=120):
    """Monotone ramp, the case where every lag must be visited."""
    _, t = random_path(n, 1, seed=6)
    return np.stack([t, -2.0 * t], axis=1), t


SHAPED = {"lag_one": lag_one_step, "last_lag": last_lag_wiggle, "ramp": ramp}


def grid_of(kind, n=65):
    if kind == "uniform":
        return np.linspace(0.0, 2.0, n)
    if kind == "dyadic":
        return build_dyadic_partition(6, 2.0).times  # 65 points
    return random_path(n, 1, seed=n)[1]


def shaped_path(shape, t, d):
    """(n, d) path of ``shape`` on ``t``: every component a signed multiple
    of one profile, or, for ``overflow``, a first component whose lag-1
    differences overflow to inf next to random ones."""
    n = t.size
    if shape == "overflow":
        path = np.random.default_rng(d).standard_normal((n, d))
        path[:, 0] = 1e308 * (-1.0) ** np.arange(n)
        return path
    s = (t - t[0]) / (t[-1] - t[0])
    profile = {
        "constant": np.full(n, 3.0),
        "ramp": t,
        "last_lag": s + 0.1 * np.sin(20.0 * np.pi * s) * s * (1.0 - s),
        "jump": np.where(np.arange(n) >= n // 2, 1.0, 0.0),
    }[shape]
    return profile[:, None] * ((1.0 + np.arange(d)) * (-1.0) ** np.arange(d))


class TestL1:
    """``_l1`` is ``np.abs(a - b).sum(axis=-1)`` bit for bit on both sides of
    numpy's switch to pairwise summation."""

    @staticmethod
    def values(shape, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 12, size=shape)
        special = rng.random(shape) < 0.3
        x[special] = rng.choice([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308], special.sum())
        return x

    @pytest.mark.parametrize("d", range(1, 11))
    def test_matches_the_axis_sum(self, d):
        a, b = self.values((50, 3, d), d), self.values((50, 3, d), 100 + d)
        for x, y in [(a[:, 0], b[:, 0]),              # (n,)
                     (a, b),                          # (n, m)
                     (a[:, 0], a[:4, 0][:, None])]:   # (rows, n)
            with np.errstate(over="ignore"):  # 1e308 - -1e308
                got, want = analysis._l1(x, y), np.abs(x - y).sum(axis=-1)
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_column_order_breaks_from_the_pairwise_threshold(self):
        rng = np.random.default_rng(0)

        def columnwise_mismatches(d):
            a, b = rng.standard_normal((2, 2000, d))
            total = np.abs(a[:, 0] - b[:, 0])
            for c in range(1, d):
                total += np.abs(a[:, c] - b[:, c])
            return int((total != np.abs(a - b).sum(axis=-1)).sum())

        assert columnwise_mismatches(analysis._PAIRWISE_FROM - 1) == 0
        assert columnwise_mismatches(analysis._PAIRWISE_FROM) > 0


class TestOracles:
    """Both seminorms equal their full-matrix oracles exactly."""

    @pytest.mark.parametrize("n", [2, 8, 9, 65, 130])
    @pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9])
    def test_holder_matches_pair_oracle(self, n, d):
        path, t = random_path(n, d, seed=n * 10 + d)
        assert holder_seminorm(path, t, 0.3) == holder_pair_oracle(path, t, 0.3)

    @pytest.mark.parametrize("block", [1, 7, 64, 2**16])
    @pytest.mark.parametrize("n", [2, 8, 9, 65, 130])
    @pytest.mark.parametrize("d", [1, 2])
    def test_sobolev_blocks_match_full_matrix(self, monkeypatch, block, n, d):
        monkeypatch.setattr(analysis, "_PAIR_BLOCK", block)
        path, t = random_path(n, d, seed=n * 10 + d)
        for p in (2.0, 2.5):
            assert sobolev_seminorm(path, t, 0.25, p) == sobolev_full_matrix_oracle(
                path, t, 0.25, p
            )

    @pytest.mark.parametrize("shape", SHAPED)
    def test_shaped_paths_match_oracles(self, shape):
        path, t = SHAPED[shape]()
        assert holder_seminorm(path, t, 0.25) == holder_pair_oracle(path, t, 0.25)
        assert sobolev_seminorm(path, t, 0.25, 2.0) == sobolev_full_matrix_oracle(
            path, t, 0.25, 2.0
        )

    @pytest.mark.parametrize("shape", ["constant", "ramp", "last_lag", "jump", "overflow"])
    @pytest.mark.parametrize("grid", ["uniform", "dyadic", "random"])
    @pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9])
    def test_pruned_sweep_matches_pair_oracle(self, shape, grid, d):
        t = grid_of(grid)
        path = shaped_path(shape, t, d)
        with np.errstate(over="ignore"):
            expected = holder_pair_oracle(path, t, 0.25)
            assert holder_seminorm(path, t, 0.25) == expected
        assert (expected == math.inf) == (shape == "overflow")

    def test_maximum_past_a_long_first_lag(self):
        # lag 1 holds the longest gap of the grid; only the smallest lag-1
        # gap bounds the lag-2 quotient across the cluster
        t = np.array([0.0, 100.0, 100.01, 100.02, 200.0])
        path = np.array([0.0, 0.0, 0.5, 1.0, 1.0])
        assert holder_seminorm(path, t, 0.25) == 1.0 / (t[3] - t[1]) ** 0.25

    def test_constant_path_stops_after_lag_one(self, monkeypatch):
        calls = []
        l1 = analysis._l1
        monkeypatch.setattr(analysis, "_l1", lambda a, b: calls.append(1) or l1(a, b))
        t = grid_of("uniform")
        assert holder_seminorm(shaped_path("constant", t, 2), t, 0.25) == 0.0
        assert len(calls) == 2  # the oscillation, then lag 1

    def test_default_panels_match_oracles(self):
        doc = parse_config("")
        grid = doc.build_grid()
        assert (doc.seed, grid.times.size) == (42, 1001)
        for mode in INPUT_MODES:
            path = simulate_trajectory(make_scenario(doc.scenario_config(mode)),
                                       grid, doc.seed).states
            t = grid.times
            assert holder_seminorm(path, t, 0.25) == holder_pair_oracle(path, t, 0.25)
            assert sobolev_seminorm(path, t, 0.25, 2.0) == sobolev_full_matrix_oracle(
                path, t, 0.25, 2.0
            )

    @pytest.mark.parametrize("d", [8, 9])
    def test_value_does_not_depend_on_the_layout(self, d):
        # from d = 8 numpy's pairwise sums add in a layout-dependent order
        rng = np.random.default_rng(d)
        t = np.linspace(0.0, 1.0, 65)
        for _ in range(40):
            x = rng.standard_normal((65, d))
            for other in (np.asfortranarray(x), np.stack([x, x], axis=1)[:, 1, :]):
                assert holder_seminorm(other, t, 0.3) == holder_seminorm(x, t, 0.3)
                assert sobolev_seminorm(other, t, 0.25, 2.0) == sobolev_seminorm(
                    x, t, 0.25, 2.0
                )

    def test_lag_one_maximum(self):
        path, t = lag_one_step()
        k = path.size // 2
        assert holder_seminorm(path, t, 0.25) == 1.0 / (t[k] - t[k - 1]) ** 0.25

    @pytest.mark.parametrize("shape", ["last_lag", "ramp"])
    def test_last_lag_maximum(self, shape):
        path, t = SHAPED[shape]()
        if shape == "last_lag":
            assert (np.diff(path) < 0).any()
        values = np.asarray(path).reshape(t.size, -1)
        end = np.abs(values[-1] - values[0]).sum() / (t[-1] - t[0]) ** 0.25
        assert holder_seminorm(path, t, 0.25) == end

    @pytest.mark.parametrize("seminorm, n, budget", [
        # the full-matrix forms peak near 784 MB at 4001 points and 2.4 GB
        # at 10 001 points; the lag sweep holds a few arrays of n x d
        (lambda h, t: sobolev_seminorm(h, t, 0.25, 2.0), 4001, 16 * 2**20),
        (lambda h, t: holder_seminorm(h, t, 0.25), 10001, 2**20),
    ], ids=["sobolev", "holder"])
    def test_memory_linear_in_path_length(self, seminorm, n, budget):
        t = np.linspace(0.0, 40.0, n)
        path = np.random.default_rng(3).standard_normal((n, 2)).cumsum(axis=0)
        tracemalloc.start()
        try:
            seminorm(path, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < budget


def stack_of(paths):
    """(n, k, d) stack of k (n, d) paths."""
    return np.stack([np.asarray(x, dtype=float).reshape(len(x), -1) for x in paths], axis=1)


class TestSobolevBatch:
    """Each path of an (n, k, d) stack gets its own seminorm, bit for bit."""

    @staticmethod
    def assert_per_path(stack, t, p=2.0):
        got = sobolev_seminorm(stack, t, 0.25, p)
        assert got.shape == (stack.shape[1],)
        for j in range(stack.shape[1]):
            path = stack[:, j]
            assert got[j] == sobolev_full_matrix_oracle(path, t, 0.25, p)
            single = sobolev_seminorm(path, t, 0.25, p)
            assert type(single) is float and got[j] == single

    @pytest.mark.parametrize("block", [1, 7, 64, None])
    @pytest.mark.parametrize("d", [1, 2, 7, 8, 9])
    @pytest.mark.parametrize("k", [1, 3, 4])
    def test_paths_match_the_oracle(self, monkeypatch, block, d, k):
        if block is not None:
            monkeypatch.setattr(analysis, "_PAIR_BLOCK", block)
        t = grid_of("random", 33)
        rng = np.random.default_rng(100 * k + d)
        stack = rng.standard_normal((t.size, k, d)).cumsum(axis=0)
        for p in (2.0, 2.5):
            self.assert_per_path(stack, t, p)

    @pytest.mark.parametrize("d", [1, 2, 9])
    @pytest.mark.parametrize("grid", ["uniform", "random"])
    def test_mixed_shapes(self, grid, d):
        t = grid_of(grid)
        stack = stack_of(shaped_path(shape, t, d) for shape in ("constant", "jump", "ramp"))
        self.assert_per_path(stack, t)
        assert sobolev_seminorm(stack, t, 0.25, 2.0)[0] == 0.0

    @pytest.mark.parametrize("d", [8, 9])
    def test_layout_free_from_the_pairwise_threshold(self, d):
        rng = np.random.default_rng(d)
        t = np.linspace(0.0, 1.0, 65)
        for _ in range(10):
            x = rng.standard_normal((65, 3, d))
            spaced = np.zeros((65, 6, d))
            spaced[:, ::2] = x
            want = [sobolev_seminorm(np.ascontiguousarray(x[:, j]), t, 0.25, 2.0)
                    for j in range(3)]
            for other in (np.asfortranarray(x), spaced[:, ::2],
                          stack_of([np.asfortranarray(x[:, j]) for j in range(3)])):
                assert sobolev_seminorm(other, t, 0.25, 2.0).tolist() == want

    def test_memory_linear_in_path_length(self):
        # the budget of a single path (TestOracles), for four
        n = 4001
        t = np.linspace(0.0, 40.0, n)
        stack = np.random.default_rng(3).standard_normal((n, 4, 2)).cumsum(axis=0)
        tracemalloc.start()
        try:
            sobolev_seminorm(stack, t, 0.25, 2.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_workload_shape(self):
        # four 2-d paths of 1001 points on the default grid's times, as the
        # panels command passes them: the last row block is ragged
        t = np.linspace(0.0, 100.0, 1001)
        rows = analysis._PAIR_BLOCK // (4 * t.size)
        assert 1 < rows < t.size and t.size % rows != 0
        stack = np.random.default_rng(29).standard_normal((t.size, 4, 2)).cumsum(axis=0)
        self.assert_per_path(stack, t)

    def test_buffers_do_not_grow_with_the_paths(self):
        # past _PAIR_BLOCK // n paths the stack is swept in groups, so the
        # peak holds the buffers of one group beside what grows with k: the
        # (k, n, d) copy, the (k, n) inner integrals and np.trapezoid's two
        # temporaries over them, 8 k n (d + 3) bytes
        t = np.linspace(0.0, 1.0, 129)
        stack = np.random.default_rng(5).standard_normal((t.size, 1024, 2)).cumsum(axis=0)
        assert 1024 * t.size > 4 * analysis._PAIR_BLOCK
        tracemalloc.start()
        try:
            sobolev_seminorm(stack, t, 0.25, 2.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * t.size * 1024 * (2 + 3) + 2**20

    def test_report_per_path(self):
        t = grid_of("uniform")
        stack = stack_of(shaped_path(shape, t, 2) for shape in ("jump", "last_lag"))
        reports = seminorm_report(stack, t)
        assert reports == [seminorm_report(stack[:, j], t) for j in range(2)]


class TestBadInputRejected:
    @pytest.mark.parametrize("seminorm", [
        lambda h, t: sup_norm(h),
        lambda h, t: holder_seminorm(h, t, 0.25),
        lambda h, t: sobolev_seminorm(h, t, 0.25, 2.0),
    ], ids=["sup", "holder", "sobolev"])
    @pytest.mark.parametrize("path", [
        [0.0, 1.0, math.nan, 0.5, 0.2, 0.1],
        [0.0, 1.0, math.inf, 0.5, 0.2, 0.1],
        [0.0, 1.0, -math.inf, 0.5, 0.2, 0.1],
        np.where(np.arange(12).reshape(6, 2) == 7, math.nan, 0.0),
    ], ids=["nan", "inf", "-inf", "nan_in_2d"])
    def test_nonfinite_values(self, seminorm, path):
        # Python's max(0.0, nan) is 0.0, so a NaN must not reach a reduction
        with pytest.raises(ValueError, match="finite"):
            seminorm(path, np.linspace(0.0, 1.0, 6))

    @pytest.mark.parametrize("alpha, p", [
        (math.nan, 2.0), (-1.0, 2.0), (0.0, 2.0), (1.0, 2.0), (math.inf, 2.0),
        (0.25, math.nan), (0.25, math.inf), (0.25, 1.0), (0.25, -2.0),
    ], ids=["alpha_nan", "alpha_-1", "alpha_0", "alpha_1", "alpha_inf",
            "p_nan", "p_inf", "p_1", "p_-2"])
    def test_bad_exponents(self, alpha, p):
        # these returned nan, or warned of 0 ** -1 on the diagonal
        t = np.linspace(0.0, 1.0, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must lie in"):
                sobolev_seminorm(t, t, alpha, p)
            if not 0.0 < alpha < 1.0:
                with pytest.raises(ValueError, match="must lie in"):
                    holder_seminorm(t, t, alpha)


class TestBadShapesRejected:
    """Only the Sobolev seminorm and the report take (n, k, d) stacks; each
    function names the shapes it takes, rather than summing across paths
    or failing inside numpy."""

    T = np.linspace(0.0, 1.0, 6)
    ONE_PATH = [
        lambda h, t: sup_norm(h),
        lambda h, t: holder_seminorm(h, t, 0.25),
    ]
    STACKS = [
        lambda h, t: sobolev_seminorm(h, t, 0.25, 2.0),
        lambda h, t: seminorm_report(h, t),
    ]

    @pytest.mark.parametrize("seminorm", ONE_PATH, ids=["sup", "holder"])
    @pytest.mark.parametrize("shape", [(6, 2, 2), (6, 1, 1), ()],
                             ids=["stack", "1-path stack", "0-d"])
    def test_one_path_only(self, seminorm, shape):
        with pytest.raises(ValueError, match=r"need an \(n,\) or \(n, d\) path, got shape"):
            seminorm(np.zeros(shape), self.T)

    @pytest.mark.parametrize("seminorm", STACKS, ids=["sobolev", "report"])
    @pytest.mark.parametrize("shape", [(6, 2, 2, 1), (6, 1, 1, 1), ()],
                             ids=["4-d", "4-d one", "0-d"])
    def test_path_or_stack_only(self, seminorm, shape):
        with pytest.raises(ValueError, match=r"or an \(n, k, d\) stack, got shape"):
            seminorm(np.zeros(shape), self.T)

    def test_stack_of_two_paths_is_not_summed(self):
        stack = np.zeros((6, 2, 2))
        stack[3, 1] = 1.0
        assert [r.sup_norm for r in seminorm_report(stack, self.T)] == [0.0, 2.0]
        assert sup_norm(stack[:, 1]) == 2.0


@pytest.mark.parametrize("seminorm", [
    lambda h, t: holder_seminorm(h, t, 0.25),
    lambda h, t: sobolev_seminorm(h, t, 0.25, 2.0),
], ids=["holder", "sobolev"])
class TestBadTimesRejected:
    @pytest.mark.parametrize("times", [
        [0.0, 0.2, math.nan, 0.6],
        [0.0, 0.2, 0.4, math.inf],
        [0.0, 0.2, 0.2, 0.6],
        [0.0, 0.4, 0.2, 0.6],
    ], ids=["nan", "inf", "repeated", "decreasing"])
    def test_times_must_increase(self, seminorm, times):
        with pytest.raises(ValueError, match="strictly increasing"):
            seminorm([0.0, 1.0, 0.5, 0.2], times)

    def test_mismatched_times(self, seminorm):
        with pytest.raises(ValueError, match="matching times"):
            seminorm([0.0, 1.0, 2.0], [0.0, 1.0])


class TestHolderSeminorm:
    def test_constant_path(self):
        t = np.linspace(0.0, 1.0, 20)
        assert holder_seminorm(np.full(20, 3.0), t, 0.5) == 0.0

    def test_linear_path_half_exponent(self):
        t = np.linspace(0.0, 1.0, 51)
        # |t - s| / |t - s|^{1/2} is maximized by the full interval
        assert holder_seminorm(t, t, 0.5) == pytest.approx(1.0)

    def test_two_point_grid(self):
        assert holder_seminorm([0.0, 1.0], [0.0, 1.0], 0.25) == pytest.approx(1.0)

    def test_invalid_alpha(self):
        t = np.array([0.0, 1.0])
        for alpha in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                holder_seminorm(t, t, alpha)

    def test_exhaustive_pair_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = rng.integers(3, 30)
            t = np.sort(rng.uniform(0.0, 2.0, size=n))
            t[0], t[-1] = 0.0, 2.0
            path = rng.standard_normal((n, 2))
            expected = holder_pair_oracle(path, t, 0.3)
            assert holder_seminorm(path, t, 0.3) == pytest.approx(expected, rel=1e-12)

    def test_grid_refinement_monotone(self):
        f = lambda t: np.sin(5.0 * t)
        coarse = np.linspace(0.0, 1.0, 11)
        fine = np.linspace(0.0, 1.0, 101)
        assert holder_seminorm(f(fine), fine, 0.4) >= holder_seminorm(f(coarse), coarse, 0.4)

    def test_homogeneity(self):
        t = np.linspace(0.0, 1.0, 30)
        path = np.cos(3.0 * t)
        a = holder_seminorm(path, t, 0.25)
        b = holder_seminorm(2.5 * path, t, 0.25)
        assert b == pytest.approx(2.5 * a, rel=1e-12)


class TestSobolevSeminorm:
    def test_constant_path(self):
        t = np.linspace(0.0, 1.0, 20)
        assert sobolev_seminorm(np.full(20, 1.3), t, 0.25, 2.0) == 0.0

    def test_linear_path_reference_value(self):
        # int_0^1 int_0^1 |t-s|^2 / |t-s|^{1.5} dt ds = 8/15
        t = np.linspace(0.0, 1.0, 2001)
        value = sobolev_seminorm(t, t, 0.25, 2.0)
        assert value == pytest.approx(8.0 / 15.0, rel=0.01)

    def test_homogeneity(self):
        t = np.linspace(0.0, 1.0, 40)
        path = np.sin(2.0 * t)
        p = 2.0
        a = sobolev_seminorm(path, t, 0.25, p)
        b = sobolev_seminorm(3.0 * path, t, 0.25, p)
        assert b == pytest.approx(3.0**p * a, rel=1e-12)

    def test_invalid_p(self):
        t = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            sobolev_seminorm(t, t, 0.25, 1.0)

    def test_report_bundles_all_three(self):
        t = np.linspace(0.0, 1.0, 30)
        path = np.stack([t, t**2], axis=1)
        report = seminorm_report(path, t)
        assert report.sup_norm == pytest.approx(2.0)
        assert report.holder_seminorm > 0
        assert report.sobolev_seminorm > 0


def box_jump_model():
    """2d box-reflected model with jumps and an input current."""
    return ReflectedJumpSDE(
        dimension=2,
        drift=lambda state, u: u[..., None] - state,
        diffusion=lambda state: 0.3 * np.ones_like(state),
        domain=ReflectionDomain(((0.0, 1.0), (0.0, 1.0))),
        x0=np.array([0.4, 0.5]),
        jump_coeff=lambda state: 0.5 - state,
        jump_specs=(CompoundPoissonSpec(3.0, JumpSizeDist.exponential(0.2)),
                    CompoundPoissonSpec(2.0, JumpSizeDist.constant(0.1))),
        input_current=OUParams(mu=0.3, gamma=0.5, sigma=0.4),
    )


class TestStabilityExperiment:
    def test_zero_perturbation_zero_error(self):
        model = linear_model(sigma=0.3, x0=(0.5,))
        report = stability_experiment(model, uniform_grid(0.1, 2.0), [0.0], 8, 0)
        assert report.errors == (0.0,)

    def test_linear_model_exact_slope(self):
        # common random numbers cancel the noise, so the difference decays
        # deterministically from the initial offset and the slope is exactly 1
        model = linear_model(drift_rate=-1.0, sigma=0.2, x0=(1.0,))
        report = stability_experiment(
            model, uniform_grid(0.01, 1.0), [0.1, 0.01, 0.001], 16, 3
        )
        assert report.fitted_slope == pytest.approx(1.0, abs=1e-10)
        for size, err in zip(report.perturbation_sizes, report.errors):
            assert err == pytest.approx(size, rel=1e-10)

    def test_errors_monotone_in_perturbation(self):
        model = linear_model(drift_rate=-0.5, sigma=0.3, x0=(0.2,),
                             domain=ReflectionDomain.half_line(0.0, dim=1))
        report = stability_experiment(
            model, uniform_grid(0.05, 2.0), [0.2, 0.02, 0.002], 64, 5
        )
        assert report.errors[0] > report.errors[1] > report.errors[2]

    def test_one_input_draw_matches_separate_ensembles(self, monkeypatch):
        model = box_jump_model()
        grid = uniform_grid(0.05, 2.0)
        offsets = [0.2, 0.02, -0.1]
        draws = []
        sample = analysis.sample_path_inputs

        def counted(*args, **kwargs):
            draws.append(args)
            return sample(*args, **kwargs)

        monkeypatch.setattr(analysis, "sample_path_inputs", counted)
        report = stability_experiment(model, grid, offsets, 6, 11)
        assert len(draws) == 1
        ref = all_states(model, grid, 11, 6)
        expected = []
        for offset in offsets:
            states = all_states(model.with_x0(model.x0 + offset), grid, 11, 6)
            diff = np.abs(states - ref).sum(axis=2)
            expected.append(float((diff.max(axis=0) ** 2).mean()))
        assert report.errors == tuple(expected)
        assert all(e > 0 for e in expected)


class TestLogSlope:
    def test_fits_only_positive_finite_points(self):
        xs, ys = [np.inf, 1e-4, 1e-2, 0.0, 1.0], [1.0, 1e-8, 1e-4, 1.0, np.inf]
        assert analysis._log_slope(xs, ys) == pytest.approx(2.0, rel=1e-12)

    def test_nan_below_two_points(self):
        assert math.isnan(analysis._log_slope([np.inf, 1e-2], [1.0, 1e-4]))


def stability_oracle(model, grid, offsets, n_paths, master_seed):
    """The per-offset loop: the reference ensemble and each perturbed one
    stepped by a call of their own, on the one draw, the perturbed start
    built by ``with_x0``."""
    inputs = analysis.sample_path_inputs(model, grid, master_seed, range(n_paths))
    ref = analysis.integrate_batch(model, grid.times, inputs, model.x0).states
    sizes, errors = [], []
    for offset in offsets:
        perturbed = model.with_x0(model.x0 + offset)
        states = analysis.integrate_batch(perturbed, grid.times, inputs, perturbed.x0).states
        errors.append(float((analysis._l1(states, ref).max(axis=0) ** 2).mean()))
        sizes.append((model.dimension * offset) ** 2)
    return analysis.StabilityReport(tuple(sizes), tuple(errors),
                                    analysis._log_slope(sizes, errors), n_paths)


class TestStabilityBatch:
    """``stability_experiment`` steps the reference and every perturbed
    ensemble as the row blocks of one batch on its tiled draw."""

    @pytest.mark.parametrize("seed", [1, 42])
    @pytest.mark.parametrize("mode, offsets", [
        ("white_noise", (0.1, 0.0, -0.05, 0.01)),
        ("ou_current", (-0.2, 0.1, 0.0, 0.001)),
        ("ou_reflected", (0.1, 0.01, 0.0)),
        ("ou_reflected_jumps", (0.1, 0.0, 0.01, 0.3)),
        (None, (0.2, 0.02, -0.1, 0.0)),  # a box with jumps on both coordinates
    ])
    def test_one_batch_equals_the_per_offset_loop(self, mode, offsets, seed):
        model = box_jump_model() if mode is None else make_scenario(parse_config(
            f"[scenario]\ninput_mode = {mode}\nx0_e = 0.05\nx0_i = 0.2\n").scenario_config())
        grid = uniform_grid(0.1, 5.0)
        got = stability_experiment(model, grid, offsets, 7, seed)
        want = stability_oracle(model, grid, offsets, 7, seed)
        assert math.isfinite(want.fitted_slope)
        assert got == want
        assert got.errors[list(offsets).index(0.0)] == 0.0

    def test_start_outside_the_domain(self):
        model = make_scenario(parse_config("").scenario_config())  # [0, inf)^2 from the origin
        with pytest.raises(ValueError, match="outside the domain"):
            stability_experiment(model, uniform_grid(0.1, 1.0), [0.1, -0.01], 3, 1)

    def test_abort_names_the_stream_and_its_ensemble(self):
        # the drift blows up above 1.5, where only the 1.0 offset starts
        model = ReflectedJumpSDE(1, lambda x, u: np.where(x > 1.5, np.inf, -x),
                                 lambda x: np.full_like(x, 0.1), ReflectionDomain.unreflected(1),
                                 np.array([1.0]))
        with pytest.raises(analysis.SimulationAbort) as exc:
            stability_experiment(model, uniform_grid(0.1, 1.0), [0.1, 1.0], 3, 1)
        assert (exc.value.step_index, exc.value.row) == (0, 0)
        assert "non-finite drift at step 0, stream 0 of the x0 offset 1.0 ensemble," in str(exc.value)

    @pytest.mark.parametrize("text", [
        "",  # the default experiment: 200 paths, 3 offsets
        "[jumps]\nintensity = 5\n[experiment]\noffsets = 0.1,0.2,0.3,0.4,0.5,0.6\nn_paths = 50\n",
        "[scenario]\ninput_mode = white_noise\n[experiment]\nhorizon = 100\nn_paths = 20\n",
    ])
    def test_peak_within_the_counted_bytes(self, text, monkeypatch):
        """What the config counts for ``stability`` covers the one batch's
        peak: the tiled inputs and every row's history."""
        counted = {}
        check_budget = config.check_budget

        def spy(command, *args, **kwargs):
            counted[command] = check_budget(command, *args, **kwargs)
            return counted[command]

        monkeypatch.setattr(config, "check_budget", spy)
        doc = parse_config("[experiment]\nkind = stability\n" + text)
        exp = doc.experiment
        model = make_scenario(doc.scenario_config())
        tracemalloc.start()  # the grid counts too
        try:
            grid = uniform_grid(doc.dt, exp.horizon)
            stability_experiment(model, grid, exp.offsets, exp.n_paths, doc.seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= counted["stability"]


class TestScenarioRowsRejected:
    """A model with ``row_jumps`` holds a scenario per batch row, not paths
    of one scenario: both experiments refuse it before any draw."""

    @pytest.fixture
    def draws(self, monkeypatch):
        calls = []
        monkeypatch.setattr(analysis, "sample_path_inputs",
                            lambda *args: calls.append(args))
        return calls

    def rows_model(self):
        model = make_scenario(parse_config("").scenario_config(INPUT_MODES))
        assert model.row_jumps is not None
        return model

    def test_stability(self, draws):
        with pytest.raises(ValueError, match="stability_experiment .*row_jumps"):
            stability_experiment(self.rows_model(), uniform_grid(0.1, 1.0), [0.1, 0.01], 3, 1)
        assert draws == []

    def test_convergence(self, draws):
        with pytest.raises(ValueError, match="strong_convergence_experiment .*row_jumps"):
            strong_convergence_experiment(self.rows_model(), [2, 3], 4, 1, 1.0)
        assert draws == []


class TestStrongConvergence:
    @pytest.mark.parametrize("n_paths", [1, 6])
    def test_terminal_states_are_the_full_histories_last_points(self, n_paths):
        # what converge compares: the terminal states, with no history kept
        model, fine = box_jump_model(), 6
        inputs = analysis.sample_path_inputs(
            model, build_dyadic_partition(fine, 2.0), 9, range(n_paths))
        for level in (2, 4, fine):
            times, stride = build_dyadic_partition(level, 2.0).times, 2 ** (fine - level)
            coarse = inputs.coarsened(stride)
            full = analysis.integrate_batch(model, times, coarse, model.x0)
            terminal = analysis.integrate_batch(model, times, coarse, model.x0, keep=0)
            assert terminal.states.size == 0
            assert np.array_equal(terminal.terminal, full.states[-1])
        assert full.phi_lower.any()  # the paths reflect

    def test_zero_dynamics_zero_error(self):
        model = linear_model(drift_rate=0.0, sigma=0.0, x0=(0.4,))
        report = strong_convergence_experiment(model, [3, 4, 5], 4, 0, 1.0)
        assert report.rms_errors == (0.0, 0.0, 0.0)
        assert np.isnan(report.empirical_order)

    def test_deterministic_model_first_order(self):
        model = ReflectedJumpSDE(
            dimension=1,
            drift=lambda state, u: np.cos(state),
            diffusion=lambda state: np.zeros_like(state),
            domain=ReflectionDomain.unreflected(1),
            x0=np.array([0.2]),
        )
        report = strong_convergence_experiment(model, [4, 5, 6, 7, 8], 1, 0, 2.0)
        assert report.empirical_order == pytest.approx(1.0, abs=0.15)

    def test_additive_noise_monotone(self):
        model = linear_model(drift_rate=-1.0, sigma=0.5, x0=(1.0,))
        report = strong_convergence_experiment(model, [4, 5, 6, 7], 64, 1, 2.0)
        errs = report.rms_errors
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert errs[-1] < errs[0]

    def test_reference_level_and_dts(self):
        model = linear_model(drift_rate=-1.0, sigma=0.1, x0=(1.0,))
        report = strong_convergence_experiment(model, [3, 5], 2, 0, 4.0)
        assert report.reference_level == 8
        assert report.dts == (4.0 * 2.0**-3, 4.0 * 2.0**-5)

    def test_nonfinite_horizon_rejected(self):
        model = linear_model(drift_rate=-1.0, sigma=0.1, x0=(1.0,))
        with pytest.raises(ValueError, match="horizon"):
            strong_convergence_experiment(model, [3, 5], 2, 0, math.inf)

    @pytest.mark.parametrize("levels, horizon, where, t, state", [
        # the reference (level 8) is stable; on level 3, dt = 1/8 and the
        # first step goes to 1 - 40 / 8 = -4, where the drift is infinite
        ([3, 4, 5], 1.0, "level 3", 0.125, [-4.0]),
        # the reference (level 5) steps first: dt = 1/4, to 1 - 40 / 4 = -9
        ([1, 2], 8.0, "the reference level 5", 0.25, [-9.0]),
    ])
    def test_abort_names_the_stream_and_its_level(self, levels, horizon, where, t, state):
        """A step index belongs to one level's grid, and the abort names it:
        a drift of -40 x, infinite where |x| > 1.5, from 1 with no noise."""
        model = ReflectedJumpSDE(1, lambda x, u: np.where(np.abs(x) > 1.5, np.inf, -40.0 * x),
                                 lambda x: 0.0, ReflectionDomain.unreflected(1), np.array([1.0]))
        with pytest.raises(analysis.SimulationAbort) as exc:
            strong_convergence_experiment(model, levels, 2, 0, horizon)
        assert str(exc.value) == (f"non-finite drift at step 1, stream 0 on {where}, "
                                  f"t = {t!r}, state {state}")
        assert (exc.value.step_index, exc.value.row, exc.value.time) == (1, 0, t)

    def test_shared_noise_with_input_current(self):
        model = ReflectedJumpSDE(
            dimension=1,
            drift=lambda state, u: u[..., None] - state,
            diffusion=lambda state: np.zeros_like(state),
            domain=ReflectionDomain.half_line(0.0, dim=1),
            x0=np.array([0.1]),
            input_current=OUParams(mu=0.2, gamma=1.0, sigma=0.3),
        )
        report = strong_convergence_experiment(model, [4, 5, 6, 7], 32, 2, 2.0)
        errs = report.rms_errors
        assert errs[-1] < errs[0]
        assert report.empirical_order > 0.5
