"""Tests for the path seminorms and the stability and strong-convergence
experiments."""
import math
import tracemalloc

import numpy as np
import pytest

from skorokhod_sde import (
    CompoundPoissonSpec,
    JumpSizeDist,
    OUParams,
    ReflectedJumpSDE,
    ReflectionDomain,
    holder_seminorm,
    seminorm_report,
    sobolev_seminorm,
    stability_experiment,
    strong_convergence_experiment,
    sup_norm,
    uniform_grid,
)
from skorokhod_sde import analysis
from skorokhod_sde.engine import simulate_paths


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


class TestOracles:
    """Both seminorms equal their full-matrix oracles exactly."""

    @pytest.mark.parametrize("n", [2, 8, 9, 65, 130])
    @pytest.mark.parametrize("d", [1, 2])
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


@pytest.mark.parametrize("seminorm", [
    lambda h, t: sup_norm(h),
    lambda h, t: holder_seminorm(h, t, 0.25),
    lambda h, t: sobolev_seminorm(h, t, 0.25, 2.0),
], ids=["sup", "holder", "sobolev"])
class TestBadInputRejected:
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
        model = ReflectedJumpSDE(
            dimension=2,
            drift=lambda state, u: u[..., None] - state,
            diffusion=lambda state: 0.3 * np.ones_like(state),
            domain=ReflectionDomain.box([(0.0, 1.0), (0.0, 1.0)]),
            x0=np.array([0.4, 0.5]),
            jump_coeff=lambda state: 0.5 - state,
            jump_specs=(CompoundPoissonSpec(3.0, JumpSizeDist.exponential(0.2)),
                        CompoundPoissonSpec(2.0, JumpSizeDist.constant(0.1))),
            input_current=OUParams(mu=0.3, gamma=0.5, sigma=0.4),
        )
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
        ref = simulate_paths(model, grid, 11, range(6))[0]
        expected = []
        for offset in offsets:
            states = simulate_paths(model.with_x0(model.x0 + offset), grid, 11, range(6))[0]
            diff = np.abs(states - ref).sum(axis=2)
            expected.append(float((diff.max(axis=0) ** 2).mean()))
        assert report.errors == tuple(expected)
        assert all(e > 0 for e in expected)


class TestStrongConvergence:
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
