"""Tests for grids and the reflected Euler stepper: freezing of coefficients
at left endpoints, jump insertion, reflection bookkeeping, ensembles."""
import bisect
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from skorokhod_sde import (
    CompoundPoissonSpec,
    JumpSizeDist,
    OUParams,
    PathInputs,
    ReflectedJumpSDE,
    ReflectionDomain,
    ScenarioConfig,
    SimulationAbort,
    SimulationGrid,
    SeedSpec,
    build_dyadic_partition,
    make_scenario,
    parse_config,
    sample_path_inputs,
    simulate_ensemble,
    simulate_rows,
    simulate_trajectory,
    uniform_grid,
)
from skorokhod_sde import cli, config, engine
from skorokhod_sde.analysis import REFERENCE_OFFSET, strong_convergence_experiment
from skorokhod_sde.engine import (
    JUMP_TIMINGS,
    BatchRecord,
    _exact_substeps,
    check_budget,
    dyadic_steps,
    integrate_batch,
    simulate_paths,
    uniform_steps,
)
from skorokhod_sde.models import INPUT_MODES
from skorokhod_sde.skorokhod import reflect_box
from skorokhod_sde.sources import _cells
from test_skorokhod import reflect_box_oracle


def linear_model_1d(x0=1.0, drift_rate=-1.0, sigma=0.0, domain=None, **kw):
    return ReflectedJumpSDE(
        dimension=1,
        drift=lambda state, u: np.full_like(state, drift_rate),
        diffusion=lambda state: np.full_like(state, sigma),
        domain=domain or ReflectionDomain.half_line(0.0, dim=1),
        x0=np.array([x0]),
        **kw,
    )


class TestGrids:
    def test_dyadic_level_one(self):
        grid = build_dyadic_partition(1, 1.0)
        assert np.array_equal(grid.times, [0.0, 0.5, 1.0])
        assert _cells(grid.times, 0.7) == 1

    def test_cell_of_zero(self):
        for level in (1, 3, 7):
            assert _cells(build_dyadic_partition(level, 1.0).times, 0.0) == 0

    def test_cells_level_three(self):
        grid = build_dyadic_partition(3, 1.0)
        # cells are half-open on the left, so grid points map to the cell below
        assert _cells(grid.times, [0.2, 0.25, 1.0]).tolist() == [1, 1, 7]

    def test_cell_just_past_a_grid_point(self):
        grid = uniform_grid(0.1, 1.0)
        assert _cells(grid.times, 0.1 * (1 + 1e-11)) == 1

    def test_level_bounds(self):
        with pytest.raises(ValueError):
            build_dyadic_partition(0, 1.0)
        with pytest.raises(ValueError):
            build_dyadic_partition(31, 1.0)

    # 5e-324 / 8 rounds to a step of 0: a horizon must keep the dyadic step normal
    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan, math.inf, 5e-324])
    def test_dyadic_horizon_must_be_positive_and_finite(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            build_dyadic_partition(3, horizon)

    @pytest.mark.parametrize("times", [
        [[0.0, 1.0], [2.0, 3.0]],
        [0.5, 1.0],
        [0.0, 1.0, np.inf],
        [0.0, 2.0, 1.0],
    ])
    def test_invalid_times_rejected(self, times):
        with pytest.raises(ValueError, match="grid times"):
            SimulationGrid(np.array(times))

    def test_uniform_grid(self):
        grid = uniform_grid(0.1, 1.0)
        assert grid.n_steps == 10
        assert grid.horizon == 1.0
        assert np.allclose(grid.widths, 0.1)
        with pytest.raises(ValueError):
            uniform_grid(0.3, 1.0)
        with pytest.raises(ValueError):
            uniform_grid(-0.1, 1.0)

    def test_uniform_steps_allow_a_residual_relative_to_the_horizon(self):
        for dt, horizon, n in ((0.1, 100.0, 1000), (0.1, 5.0, 50), (0.01, 10.0, 1000),
                               (0.1, 0.5, 5), (0.1 * (1 + 1e-10), 100.0, 1000)):
            assert uniform_steps(dt, horizon) == n
        for dt, horizon in ((7e-11, 1e-10), (0.1 * (1 + 5e-9), 0.1)):
            with pytest.raises(ValueError, match="integer multiple"):
                uniform_steps(dt, horizon)

    def test_uniform_grid_shares_the_dyadic_step_cap(self):
        assert uniform_steps(1.0, 2.0**30) == 2**30
        for dt, horizon in ((1.0, 2.0**30 + 1), (1e-13, 100.0)):
            with pytest.raises(ValueError, match="capped"):
                uniform_steps(dt, horizon)


def path_inputs(dW, u, sizes=()):
    """PathInputs of one path with increments ``dW``, (n_steps, 1, d), and
    current ``u``, (n_points, 1); ``sizes[c]`` jumps coordinate c at the end
    of the first step."""
    sizes = np.array(sizes, dtype=float)
    n = sizes.size
    return PathInputs(np.asarray(dW, dtype=float), u, np.zeros(n), sizes,
                      np.zeros(n, dtype=np.intp), np.arange(n))


def one_step(model, dW, dt, jump_sum=()):
    """One reflected Euler step of ``integrate_batch`` from ``model.x0``;
    returns (state, lower phi increment, upper phi increment)."""
    inputs = path_inputs([[dW]], np.zeros((2, 1)), jump_sum)
    record = integrate_batch(model, np.array([0.0, dt]), inputs, model.x0)
    return record.states[1, 0], record.phi_lower[1, 0], record.phi_upper[1, 0]


class TestEulerStep:
    def test_identity_dynamics(self):
        model = linear_model_1d(x0=0.5, drift_rate=0.0)
        state, lo_inc, hi_inc = one_step(model, [0.3], 0.1)
        assert state[0] == 0.5
        assert lo_inc[0] == 0.0 and hi_inc[0] == 0.0

    def test_reflected_drift_step(self):
        model = linear_model_1d(x0=0.0, drift_rate=-1.0)
        state, lo_inc, _ = one_step(model, [0.0], 0.1)
        assert state[0] == 0.0
        assert lo_inc[0] == pytest.approx(0.1)

    def test_jump_application(self):
        model = linear_model_1d(
            x0=0.5,
            drift_rate=0.0,
            jump_coeff=lambda state: np.ones_like(state),
            jump_specs=(CompoundPoissonSpec(1.0, JumpSizeDist.constant(2.0)),),
        )
        state, _, _ = one_step(model, [0.0], 0.1, jump_sum=[2.0])
        assert state[0] == pytest.approx(2.5)

    def test_abort_on_nonfinite_drift(self):
        # the input current makes the drift non-finite in step 7 only
        model = ReflectedJumpSDE(
            dimension=1,
            drift=lambda state, u: np.where(u[:, None] > 0, np.nan, 0.0),
            diffusion=lambda state: np.zeros_like(state),
            domain=ReflectionDomain.unreflected(1),
            x0=np.array([0.0]),
        )
        u = np.zeros((11, 1))
        u[7] = 1.0
        with pytest.raises(SimulationAbort) as exc:
            integrate_batch(model, np.linspace(0.0, 1.0, 11), path_inputs(np.zeros((10, 1, 1)), u),
                            model.x0)
        assert exc.value.step_index == 7


class TestModelValidation:
    def test_x0_outside_domain(self):
        with pytest.raises(ValueError):
            linear_model_1d(x0=-1.0)

    @pytest.mark.parametrize("x0", [math.inf, math.nan])
    def test_nonfinite_x0_rejected(self, x0):
        # an infinite face would otherwise "contain" an infinite state
        with pytest.raises(ValueError, match="x0 must be finite"):
            linear_model_1d(x0=x0)
        with pytest.raises(ValueError, match="x0 must be finite"):
            linear_model_1d().with_x0([x0])

    def test_jump_spec_pairing(self):
        with pytest.raises(ValueError):
            linear_model_1d(jump_coeff=lambda s: s)
        with pytest.raises(ValueError):
            linear_model_1d(
                jump_coeff=lambda s: s,
                jump_specs=(
                    CompoundPoissonSpec(1.0, JumpSizeDist.constant(1.0)),
                    CompoundPoissonSpec(1.0, JumpSizeDist.constant(1.0)),
                ),
            )


class TestSimulateTrajectory:
    def test_zero_dynamics_constant_path(self):
        model = linear_model_1d(x0=0.7, drift_rate=0.0)
        bundle = simulate_trajectory(model, uniform_grid(0.1, 5.0), master_seed=0)
        assert np.all(bundle.states == 0.7)
        assert not bundle.phi.any()

    def test_reflected_ode(self):
        # dX = -dt from (1,1): X(t) = max(1 - t, 0), then phi grows at rate 1
        model = ReflectedJumpSDE(
            dimension=2,
            drift=lambda state, u: np.full_like(state, -1.0),
            diffusion=lambda state: np.zeros_like(state),
            domain=ReflectionDomain.half_line(0.0, dim=2),
            x0=np.array([1.0, 1.0]),
        )
        grid = uniform_grid(0.01, 2.0)
        bundle = simulate_trajectory(model, grid, master_seed=0)
        expected = np.maximum(1.0 - grid.times, 0.0)
        for c in range(2):
            assert np.max(np.abs(bundle.states[:, c] - expected)) < 1e-9
            assert np.max(np.abs(bundle.phi[:, c] - np.maximum(grid.times - 1.0, 0.0))) < 1e-9

    def test_determinism(self):
        model = linear_model_1d(x0=1.0, sigma=0.5)
        grid = uniform_grid(0.1, 5.0)
        a = simulate_trajectory(model, grid, master_seed=42, stream_index=3)
        b = simulate_trajectory(model, grid, master_seed=42, stream_index=3)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.phi, b.phi)
        assert a.jumps.tobytes() == b.jumps.tobytes()

    def test_containment_and_complementarity(self):
        model = linear_model_1d(x0=0.2, drift_rate=-0.5, sigma=1.0)
        bundle = simulate_trajectory(model, uniform_grid(0.01, 10.0), master_seed=7)
        assert bundle.states.min() >= 0.0
        inc = np.diff(bundle.phi_lower[:, 0])
        interior = bundle.states[1:, 0] > 1e-8
        assert np.max(inc * interior, initial=0.0) <= 1e-8

    def test_coefficients_frozen_at_left_endpoints(self):
        seen = []

        def recording_drift(state, u):
            seen.append(state.copy())
            return np.full_like(state, -0.3)

        model = ReflectedJumpSDE(
            dimension=1,
            drift=recording_drift,
            diffusion=lambda state: np.full_like(state, 0.2),
            domain=ReflectionDomain.half_line(0.0, dim=1),
            x0=np.array([1.0]),
        )
        grid = uniform_grid(0.1, 2.0)
        bundle = simulate_trajectory(model, grid, master_seed=1)
        assert len(seen) == grid.n_steps
        for k, state in enumerate(seen):
            assert np.array_equal(state[0], bundle.states[k])

    def test_jump_bookkeeping(self):
        # with f = g = 0, rho = 1, unreflected: terminal = x0 + sum of sizes
        model = ReflectedJumpSDE(
            dimension=1,
            drift=lambda state, u: np.zeros_like(state),
            diffusion=lambda state: np.zeros_like(state),
            domain=ReflectionDomain.unreflected(1),
            x0=np.array([0.5]),
            jump_coeff=lambda state: np.ones_like(state),
            jump_specs=(CompoundPoissonSpec(2.0, JumpSizeDist.exponential(1.0)),),
        )
        bundle = simulate_trajectory(model, uniform_grid(0.1, 5.0), master_seed=3)
        assert len(bundle.jumps) > 0
        total = sum(bundle.jumps["size"].tolist())
        assert bundle.states[-1, 0] == pytest.approx(0.5 + total, abs=1e-12)
        counts = bundle.cumulative_jump_counts()
        assert counts[-1, 0] == len(bundle.jumps)
        assert np.all(np.diff(counts[:, 0]) >= 0)

    def test_unknown_jump_timing_rejected(self):
        model = linear_model_1d()
        with pytest.raises(ValueError):
            simulate_trajectory(model, uniform_grid(0.1, 1.0), 0, jump_timing="midpoint")


class TestExactJumpTiming:
    def _jump_model(self, sigma=0.0):
        return ReflectedJumpSDE(
            dimension=1,
            drift=lambda state, u: np.zeros_like(state),
            diffusion=lambda state: np.full_like(state, sigma),
            domain=ReflectionDomain.unreflected(1),
            x0=np.array([0.0]),
            jump_coeff=lambda state: np.ones_like(state),
            jump_specs=(CompoundPoissonSpec(1.5, JumpSizeDist.exponential(1.0)),),
        )

    def test_deterministic(self):
        grid = uniform_grid(0.1, 5.0)
        a = simulate_trajectory(self._jump_model(0.3), grid, 5, jump_timing="exact")
        b = simulate_trajectory(self._jump_model(0.3), grid, 5, jump_timing="exact")
        assert np.array_equal(a.states, b.states)

    def test_agrees_without_diffusion(self):
        # with zero diffusion the sub-step splitting changes nothing here
        grid = uniform_grid(0.1, 5.0)
        exact = simulate_trajectory(self._jump_model(0.0), grid, 8, jump_timing="exact")
        end = simulate_trajectory(self._jump_model(0.0), grid, 8, jump_timing="end_of_step")
        assert np.allclose(exact.states, end.states, atol=1e-12)
        assert exact.jumps.tobytes() == end.jumps.tobytes()

    def test_same_jump_events_with_diffusion(self):
        grid = uniform_grid(0.1, 5.0)
        exact = simulate_trajectory(self._jump_model(0.4), grid, 8, jump_timing="exact")
        end = simulate_trajectory(self._jump_model(0.4), grid, 8, jump_timing="end_of_step")
        assert exact.jumps.tobytes() == end.jumps.tobytes()
        # terminal value differs only through the bridge redistribution of
        # Brownian mass, which sums back to the same step increment
        assert exact.states[-1, 0] == pytest.approx(end.states[-1, 0], abs=1e-9)


def exact_oracle(model, grid, master_seed, stream_index):
    """Exact jump timing for one path, one jump at a time in plain Python.

    Each step is split at its jump times; coefficients stay frozen at the
    step's left endpoint, the step's Brownian increment is shared out by
    conditional Brownian-bridge draws taken one at a time from the path's
    bridge stream, and every sub-step is reflected.  A float coefficient is
    every row's value.
    """
    inputs = sample_path_inputs(model, grid, master_seed, [stream_index])
    bridge_rng = SeedSpec(master_seed, stream_index, 2 * model.dimension + 1).rng()
    times = grid.times
    dW, u = inputs.dW[:, 0], inputs.u[:, 0]
    # stable in time, so simultaneous jumps keep coordinate order
    events = sorted(inputs[0].tolist(), key=lambda e: e[0])  # (time, size, coord)
    events_by_step = {}
    points = times.tolist()
    for ev in events:
        k = min(max(bisect.bisect_left(points, ev[0]) - 1, 0), grid.n_steps - 1)
        events_by_step.setdefault(k, []).append(ev)
    d = model.dimension
    states = np.empty((times.size, d))
    phi_lower = np.zeros((times.size, d))
    phi_upper = np.zeros((times.size, d))
    x = model.x0.copy()
    states[0] = x
    acc_lo = np.zeros(d)
    acc_hi = np.zeros(d)
    for k in range(times.size - 1):
        t0, t1 = times[k], times[k + 1]
        f = model.drift(x[None, :], u[k : k + 1])[0]
        g = np.broadcast_to(model.diffusion(x[None, :]), (1, d))[0]
        rho = (np.broadcast_to(model.jump_coeff(x[None, :]), (1, d))[0]
               if model.jump_coeff is not None else None)
        s = t0
        remaining = dW[k].copy()
        for time, size, coord in events_by_step.get(k, ()):
            sub = max(time, s) - s
            total = t1 - s
            if total > 0 and sub > 0:
                mean = remaining * (sub / total)
                std = math.sqrt(sub * (total - sub) / total)
                dw_sub = mean + std * bridge_rng.standard_normal(d)
            else:
                dw_sub = np.zeros(d)
            prop = x + f * sub + g * dw_sub
            prop[coord] += size * rho[coord]
            x, linc, uinc = reflect_box(prop, model.domain.lower, model.domain.upper)
            acc_lo += linc
            acc_hi += uinc
            remaining = remaining - dw_sub
            s = max(time, s)
        prop = x + f * (t1 - s) + g * remaining
        x, linc, uinc = reflect_box(prop, model.domain.lower, model.domain.upper)
        acc_lo += linc
        acc_hi += uinc
        states[k + 1] = x
        phi_lower[k + 1] = acc_lo
        phi_upper[k + 1] = acc_hi
    return states, phi_lower, phi_upper


def busy_jump_model(jump_coeff=lambda state: 0.5 + 0.2 * state):
    """2d box-reflected model with an input current and several jumps per
    step on a dt = 0.5 grid."""
    size = JumpSizeDist.uniform(-1.0, 1.0)
    return ReflectedJumpSDE(
        dimension=2,
        drift=lambda state, u: u[..., None] - state,
        diffusion=lambda state: 0.3 + 0.1 * state,
        domain=ReflectionDomain(((0.0, 1.0), (-0.5, 0.5))),
        x0=np.array([0.5, 0.0]),
        jump_coeff=jump_coeff,
        jump_specs=(CompoundPoissonSpec(6.0, size), CompoundPoissonSpec(3.0, size)),
        input_current=OUParams(mu=0.2, gamma=1.0, sigma=0.5),
    )


def per_step_bincount_oracle(model, times, inputs, x0):
    """The end-of-step scheme with each step's jumps summed by a bincount of
    its own over the events in a stable sort by step, each proposal made
    fresh and reflected by :func:`reflect_box_oracle`: the bitwise
    reference for binning a block of steps at once.  Returns the states and
    both reflection terms, (n_points, m, d) each."""
    n_steps, m, d = times.size - 1, len(inputs), model.dimension
    step = _cells(times, inputs.time)
    bounds = np.r_[0, np.cumsum(np.bincount(step, minlength=n_steps))]
    order = np.argsort(step, kind="stable")
    cells, sizes = (inputs.coord * m + inputs.path)[order], inputs.size[order]
    x = np.empty((d, m)).T
    x[...] = x0
    states, lower, upper = [x], [np.zeros((m, d))], [np.zeros((m, d))]
    for k, dt in enumerate(np.diff(times)):
        f, g, rho = model.drift(x, inputs.u[k]), model.diffusion(x), model.jump_coeff(x)
        prop = f * dt + x
        if not (isinstance(g, float) and g == 0.0):
            prop = prop + g * inputs.dW[k]
        lo, hi = bounds[k], bounds[k + 1]
        if hi > lo or not isinstance(rho, float):
            prop = prop + rho * np.bincount(cells[lo:hi], sizes[lo:hi], m * d).reshape(d, m).T
        x, linc, uinc = reflect_box_oracle(prop, model.domain.lower, model.domain.upper)
        states.append(x)
        lower.append(lower[-1] + linc)
        upper.append(upper[-1] + uinc)
    return [np.array(a) for a in (states, lower, upper)]


def order_sensitive_jumps(model, grid, m, seed):
    """Inputs drawn for ``m`` paths with their jumps in the first half of
    the grid only, so that later steps have none, and three more jumps in
    step 4 of the last path's first coordinate, of sizes 1e16, -1e16 and 1:
    summed in time order they give 1, in any order that does not add the
    first two first 0."""
    inputs = sample_path_inputs(model, grid, seed, range(m))
    early = inputs.time <= grid.horizon / 2
    t4 = grid.times[4] + grid.widths[4] * np.array([0.2, 0.5, 0.8])
    time = np.r_[inputs.time[early], t4]
    size = np.r_[inputs.size[early], 1e16, -1e16, 1.0]
    path = np.r_[inputs.path[early], [m - 1] * 3]
    coord = np.r_[inputs.coord[early], [0] * 3]
    order = np.lexsort((time, coord, path))
    return replace(inputs, time=time[order], size=size[order], path=path[order],
                   coord=coord[order])


class TestBlockJumpSums:
    """Binning the jumps of a block of steps at once moves no bit of the
    record, whatever the block: 37 steps are no multiple of 3 or 8."""

    @pytest.mark.parametrize("block", [1, 3, 8, None])
    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("name", ["array coefficients", "float coefficients"])
    def test_record_matches_the_per_step_oracle(self, monkeypatch, name, m, block):
        model = (busy_jump_model() if name == "array coefficients"
                 else make_scenario(ScenarioConfig(x0=(0.1, 0.05))))
        grid = SimulationGrid(np.linspace(0.0, 3.7, 38))
        if block is not None:
            monkeypatch.setattr(engine, "_JUMP_BLOCK", block * m * model.dimension)
        inputs = order_sensitive_jumps(model, grid, m, 4)
        steps = _cells(grid.times, inputs.time)
        assert not np.isin(np.arange(20, 37), steps).any()
        assert np.bincount(steps + 37 * (inputs.coord + 2 * inputs.path)).max() >= 3
        x = np.zeros((2, m)).T
        arrays = name == "array coefficients"
        assert isinstance(model.jump_coeff(x), float) != arrays
        record = integrate_batch(model, grid.times, inputs, model.x0)
        want = per_step_bincount_oracle(model, grid.times, inputs, model.x0)
        for got, ref in zip(record, want):
            assert got.tobytes() == ref.tobytes()
            assert np.array_equal(np.signbit(got), np.signbit(ref))
        assert record.terminal.tobytes() == want[0][-1].tobytes()


def assert_same_bits(got, want):
    """Same shape, bytes and sign bits, whatever the memory layout."""
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(np.signbit(got), np.signbit(want))


def assert_matches_oracle(bundle, model, grid, seed, stream_index):
    states, lower, upper = exact_oracle(model, grid, seed, stream_index)
    assert_same_bits(bundle.states, states)
    assert_same_bits(bundle.phi_lower, lower)
    assert_same_bits(bundle.phi_upper, upper)


def groups_per_step(model, grid, inputs, seed, streams):
    first = _exact_substeps(model, grid.times, inputs, seed, streams)[2]
    return np.diff(first)


class TestExactAgainstOracle:
    @pytest.mark.parametrize("n_paths", [1, 9])
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("diffusion", ["array", "float"])
    def test_columns_match_oracle_bitwise(self, n_paths, seed, diffusion):
        model, grid = busy_jump_model(), uniform_grid(0.5, 5.0)
        if diffusion == "float":  # the noisy path with a scalar g
            model = replace(model, diffusion=lambda state: 0.3)
        result = simulate_ensemble(model, grid, n_paths, seed, retain=n_paths,
                                   jump_timing="exact")
        for j, bundle in enumerate(result.bundles):
            assert_matches_oracle(bundle, model, grid, seed, j)
        jump_steps = _cells(grid.times, result.bundles[0].jumps["time"])
        assert np.bincount(jump_steps).max() >= 3  # several jumps share a step
        assert result.bundles[-1].phi_lower.any() and result.bundles[-1].phi_upper.any()

    def test_default_scenario_matches_oracle_bitwise(self):
        """Diffusion 0.0, a float rho and the half-line domain, whose group
        steps reflect against (d,) bounds, on 20 paths; some steps hold
        two or more groups, some paths two jumps in a step."""
        model, grid, seed, m = make_scenario(ScenarioConfig()), uniform_grid(0.1, 30.0), 5, 20
        x = np.zeros((2, m)).T
        assert model.diffusion(x) == 0.0 and isinstance(model.jump_coeff(x), float)
        assert model.domain.lower.ndim == 1
        inputs = sample_path_inputs(model, grid, seed, range(m))
        assert groups_per_step(model, grid, inputs, seed, range(m)).max() >= 2
        result = simulate_ensemble(model, grid, m, seed, retain=m, jump_timing="exact")
        for j, bundle in enumerate(result.bundles):
            assert_matches_oracle(bundle, model, grid, seed, j)
        assert any(b.phi_lower.any() for b in result.bundles)

    @pytest.mark.parametrize("seed", [1, 42])
    def test_panel_rows_match_their_oracles_bitwise(self, seed):
        """The four-panel batch reflects each group against the bounds of
        its own rows: a jumping row is bitwise the oracle of its scenario.
        A negative rho pushes that row onto its boundary inside the groups."""
        doc = parse_config("[jumps]\nintensity = 6\nrho = -0.05\n[grid]\nhorizon = 10.0\n")
        grid, model = doc.build_grid(), make_scenario(doc.scenario_config(INPUT_MODES))
        assert model.domain.lower.ndim == 2 and not model.row_jumps[0]
        rows = simulate_rows(model, grid, seed, jump_timing="exact")
        for mode, jumps, bundle in zip(INPUT_MODES, model.row_jumps, rows):
            if jumps:
                scenario = make_scenario(doc.scenario_config(mode))
                assert_matches_oracle(bundle, scenario, grid, seed, 0)
                assert bundle.phi_lower.any()
        assert any(model.row_jumps)

    def test_nonfinite_jump_coefficient_aborts(self):
        model = busy_jump_model(jump_coeff=lambda state: np.full_like(state, np.nan))
        with pytest.raises(SimulationAbort, match="jump coefficient"):
            simulate_ensemble(model, uniform_grid(0.5, 5.0), 4, 0, jump_timing="exact")


class TestAbortOnPoisonedRows:
    """A coefficient that turns non-finite on the rows past a threshold aborts
    at the first step that evaluates it there, naming it.  Under exact timing
    the jump coefficient is evaluated only in steps with a jump and checked
    on every row, whether or not that row jumps; with this seed and threshold
    the poisoned rows do not jump in the step that aborts."""

    THRESHOLD = 0.8

    def poison(self, coeff, bad):
        def poisoned(state, *args):
            out = np.array(coeff(state, *args), dtype=float)
            out[state[:, 0] > self.THRESHOLD] = bad
            return out
        return poisoned

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("timing", JUMP_TIMINGS)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("what, field", [
        ("drift", "drift"), ("diffusion", "diffusion"), ("jump coefficient", "jump_coeff"),
    ])
    def test_first_poisoned_step_aborts(self, what, field, bad, timing):
        size = JumpSizeDist.uniform(-1.0, 1.0)
        clean = replace(busy_jump_model(), jump_specs=(
            CompoundPoissonSpec(0.3, size), CompoundPoissonSpec(0.2, size)))
        grid, m, seed = uniform_grid(0.5, 20.0), 6, 2
        states = simulate_paths(clean, grid, seed, range(m), timing)[0]
        over = states[:-1, :, 0] > self.THRESHOLD  # (n_steps, m)
        hit = over.any(axis=1)
        cells = None
        if (field, timing) == ("jump_coeff", "exact"):
            inputs = sample_path_inputs(clean, grid, seed, range(m))
            cells = _cells(grid.times, inputs.time)
            hit &= np.isin(np.arange(grid.n_steps), cells)
        step = int(np.argmax(hit))
        assert hit[step]
        if cells is not None:
            assert not over[step, inputs.path[cells == step]].any()
        row = int(np.argmax(over[step]))  # the first poisoned row
        t, state = float(grid.times[step]), states[step, row]
        model = replace(clean, **{field: self.poison(getattr(clean, field), bad)})
        message = (f"non-finite {what} at step {step}, row {row}, t = {t!r}, "
                   f"state {state.tolist()}")
        with pytest.raises(SimulationAbort, match=f"^{re.escape(message)}$") as exc:
            simulate_paths(model, grid, seed, range(m), timing)
        assert exc.value.step_index == step
        assert exc.value.row == row and exc.value.time == t
        assert np.array_equal(exc.value.state, state)

    @pytest.mark.parametrize("timing", JUMP_TIMINGS)
    def test_overflowing_jump_names_its_batch_row(self, timing):
        """A jump that overflows the proposal aborts in the first step with a
        jump, naming the first path that jumps there; under exact timing that
        path is found through the rows of the step's first jump group."""
        grid, m, seed = uniform_grid(0.5, 20.0), 6, 3
        clean = replace(busy_jump_model(), jump_specs=(
            CompoundPoissonSpec(0.1, JumpSizeDist.constant(2.0)),
            CompoundPoissonSpec(0.1, JumpSizeDist.constant(2.0))))
        inputs = sample_path_inputs(clean, grid, seed, range(m))
        cells = _cells(grid.times, inputs.time)
        step = int(cells.min())
        row = int(inputs.path[cells == step].min())
        assert row > 0  # so a row of the group is not taken for a batch row
        states = simulate_paths(replace(clean, jump_coeff=np.zeros_like), grid, seed,
                                range(m), timing)[0]
        model = replace(clean, jump_coeff=lambda state: np.full_like(state, 1e308))
        with pytest.raises(SimulationAbort, match="^non-finite state proposal") as exc, \
                np.errstate(over="ignore"):
            simulate_paths(model, grid, seed, range(m), timing)
        assert (exc.value.step_index, exc.value.row) == (step, row)
        assert exc.value.time == grid.times[step]
        assert np.array_equal(exc.value.state, states[step, row])


def test_clean_exact_steps_scan_no_coefficients(monkeypatch):
    """Exact timing scans the coefficients before a step's groups only for
    a non-finite rho: a clean run of the default scenario on the default
    grid, 20 paths with jumps in most steps, never calls the scan."""
    calls = []
    scan = engine._check_finite

    def spy(*args):
        calls.append(args[0])
        return scan(*args)

    monkeypatch.setattr(engine, "_check_finite", spy)
    model, grid = make_scenario(ScenarioConfig()), uniform_grid(0.1, 100.0)
    inputs = sample_path_inputs(model, grid, 42, range(20))
    assert (groups_per_step(model, grid, inputs, 42, range(20)) > 0).mean() > 0.5
    simulate_ensemble(model, grid, 20, 42, jump_timing="exact")
    assert calls == []
    with pytest.raises(SimulationAbort, match="jump coefficient"):  # the spy sees a scan
        simulate_ensemble(replace(model, jump_coeff=lambda state: math.nan), grid, 20, 42,
                          jump_timing="exact")
    assert calls == [int(_cells(grid.times, inputs.time).min())]


class TestEnsemble:
    def test_zero_dynamics_zero_variance(self):
        model = linear_model_1d(x0=0.3, drift_rate=0.0)
        result = simulate_ensemble(model, uniform_grid(0.1, 2.0), 16, master_seed=0)
        assert not result.terminal_variance.any()
        assert np.all(result.terminal_mean == 0.3)

    def test_ou_driven_linear_mean_matches_moment_recursion(self):
        # dX = (V - X) dt with V the OU input; the ensemble mean must track
        # the deterministic recursion for (E V_k, E X_k)
        ou = OUParams(mu=0.5, gamma=1.0, sigma=0.3, v0=0.0)
        model = ReflectedJumpSDE(
            dimension=1,
            drift=lambda state, u: u[..., None] - state,
            diffusion=lambda state: np.zeros_like(state),
            domain=ReflectionDomain.unreflected(1),
            x0=np.array([0.0]),
            input_current=ou,
        )
        dt = 0.05
        grid = uniform_grid(dt, 5.0)
        n_paths = 2000
        result = simulate_ensemble(model, grid, n_paths, master_seed=13)
        ev, ex = ou.v0, 0.0
        expected = [ex]
        for _ in range(grid.n_steps):
            ex = ex + (ev - ex) * dt
            ev = ev + (ou.mu - ev / ou.gamma) * dt
            expected.append(ex)
        se = np.sqrt(result.terminal_variance[0] / n_paths)
        assert abs(result.terminal_mean[0] - expected[-1]) < 3.0 * se

    def test_invalid_path_count(self):
        model = linear_model_1d()
        with pytest.raises(ValueError):
            simulate_ensemble(model, uniform_grid(0.1, 1.0), 0, master_seed=0)
        with pytest.raises(ValueError):
            simulate_ensemble(model, uniform_grid(0.1, 1.0), 2, master_seed=0, retain=-1)


class TestReducers:
    """``simulate_ensemble`` holds only the retained paths' histories and
    reduces every path to the moments of its terminal state; what it returns
    is bitwise what the full-history run of the same streams gives."""

    @pytest.mark.parametrize("timing", JUMP_TIMINGS)
    @pytest.mark.parametrize("n_paths, retain", [
        (1, 0), (1, 1), (1, 4), (5, 0), (5, 2), (5, 5), (5, 8),
    ])
    def test_matches_full_history(self, timing, n_paths, retain):
        model, grid, seed = busy_jump_model(), uniform_grid(0.5, 5.0), 3
        result = simulate_ensemble(model, grid, n_paths, seed, retain, timing)
        terminal = simulate_paths(model, grid, seed, range(n_paths), timing)[0][-1]
        assert np.array_equal(result.terminal_mean, terminal.mean(axis=0))
        if n_paths > 1:
            assert result.terminal_variance.all()  # the paths differ
            assert np.array_equal(result.terminal_variance, terminal.var(axis=0, ddof=1))
        else:
            assert result.terminal_variance.shape == (2,)
            assert not result.terminal_variance.any()
        assert len(result.bundles) == min(retain, n_paths)
        for j, bundle in enumerate(result.bundles):
            single = simulate_trajectory(model, grid, seed, j, timing)
            assert bundle.stream_index == j
            assert bundle.jumps.tobytes() == single.jumps.tobytes()
            for name in ("states", "phi", "phi_lower", "phi_upper"):
                assert np.array_equal(getattr(bundle, name), getattr(single, name)), name

    @pytest.mark.parametrize("mode", ["white_noise", "ou_reflected_jumps"])
    @pytest.mark.parametrize("timing", JUMP_TIMINGS)
    @pytest.mark.parametrize("n_paths", [1, 2, 7, 20, 333, 1000])
    def test_equals_last_row_of_per_point_moments(self, mode, timing, n_paths):
        # the moments over all paths at every grid point, (n_points, m, d)
        # reduced over axis 1, give the same floats at the last point
        config = parse_config(f"[scenario]\ninput_mode = {mode}\n").scenario_config()
        model, grid = make_scenario(config), uniform_grid(0.1, 2.0)
        result = simulate_ensemble(model, grid, n_paths, 6, 1, timing)
        states = simulate_paths(model, grid, 6, range(n_paths), timing)[0]
        assert np.array_equal(result.terminal_mean, states.mean(axis=1)[-1])
        if n_paths > 1:
            assert np.array_equal(result.terminal_variance, states.var(axis=1, ddof=1)[-1])

    @pytest.mark.parametrize("keep", [None, 0, 2])
    def test_terminal_is_the_last_point(self, keep):
        model, grid = busy_jump_model(), uniform_grid(0.5, 5.0)
        inputs = sample_path_inputs(model, grid, 4, range(5))
        full = integrate_batch(model, grid.times, inputs, model.x0)
        record = integrate_batch(model, grid.times, inputs, model.x0, keep=keep)
        assert np.array_equal(record.terminal, full.states[-1])
        kept = 5 if keep is None else keep
        assert record.states.shape == (grid.n_steps + 1, kept, 2)
        assert np.array_equal(record.states, full.states[:, :kept])

    def test_memory_does_not_grow_by_histories(self):
        """Doubling the paths at a fixed ``retain`` adds the inputs of the new
        paths, and the increments their input current is drawn from, not
        their (n_points, m, d) histories."""
        model = make_scenario(ScenarioConfig())
        grid = uniform_grid(0.1, 100.0)

        def peak(n_paths):
            tracemalloc.start()
            try:
                simulate_ensemble(model, grid, n_paths, 5, retain=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def input_bytes(n_paths):
            inputs = sample_path_inputs(model, grid, 5, range(n_paths))
            arrays = (inputs.dW, inputs.u, inputs.u, inputs.time, inputs.size, inputs.path,
                      inputs.coord)
            return sum(a.nbytes for a in arrays)

        m = 100
        added = input_bytes(2 * m) - input_bytes(m)
        histories = 3 * (grid.n_steps + 1) * m * model.dimension * 8
        slack = 2**19
        assert slack < histories / 8
        assert peak(2 * m) - peak(m) < added + slack


def _peak_bytes(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryBudget:
    @pytest.mark.parametrize("jump_timing", JUMP_TIMINGS)
    @pytest.mark.parametrize("horizon, dt, n_paths, intensity", [
        (100.0, 0.1, 20, 0.5), (100.0, 0.1, 1000, 0.5), (100.0, 1.0, 20, 5.0),
        (100.0, 0.05, 1, 0.5), (1.0, 0.5, 5000, 0.5),
    ])
    def test_peak_within_the_counted_bytes(self, jump_timing, horizon, dt, n_paths, intensity):
        """What :func:`check_budget` counts covers the peak of the ensemble it
        bounds: on the default grid, with 10 jumps per step and path, where
        the jumps dominate, for one path, where the grid does, and for many
        paths on 2 steps, where each path's own small arrays do."""
        jumps = CompoundPoissonSpec(intensity, JumpSizeDist.exponential(1.0))
        model = make_scenario(ScenarioConfig(jumps=jumps))
        counted = check_budget("simulate", model, horizon, uniform_steps(dt, horizon), n_paths,
                               1, jump_timing == "exact")
        peak = _peak_bytes(lambda: simulate_ensemble(  # the grid counts too
            model, uniform_grid(dt, horizon), n_paths, 5, retain=1, jump_timing=jump_timing))
        assert peak <= counted

    def test_converge_peak_within_the_counted_bytes(self):
        """The count that config validation makes for ``converge`` covers
        the experiment's peak, here on many paths and few steps."""
        model, levels, n_paths = make_scenario(ScenarioConfig()), (1, 2), 5000
        counted = check_budget("converge", model, 1.0,
                               dyadic_steps(max(levels) + REFERENCE_OFFSET, 1.0), n_paths, 0)
        peak = _peak_bytes(lambda: strong_convergence_experiment(model, levels, n_paths, 5, 1.0))
        assert peak <= counted

    @pytest.mark.parametrize("jump_timing", JUMP_TIMINGS)
    def test_summarized_simulate_within_the_counted_bytes(self, jump_timing, monkeypatch):
        """With every path retained, what the config counts for ``simulate``
        covers the ensemble and then :func:`cli.summarize` of its bundles:
        the kept jump logs, the stack of the kept states, its layout copy and
        the Sobolev seminorm's arrays."""
        counted = []
        monkeypatch.setattr(config, "check_budget",
                            lambda *args, **kwargs: counted.append(check_budget(*args, **kwargs)))
        doc = parse_config(f"[engine]\nn_paths = 50\njump_timing = {jump_timing}\n"
                           "[outputs]\nretain = 50\n")
        model = make_scenario(doc.scenario_config())
        peak = _peak_bytes(lambda: cli.summarize(simulate_ensemble(
            model, doc.build_grid(), doc.n_paths, doc.seed, doc.retain, jump_timing).bundles))
        assert peak <= counted[0]

    @pytest.mark.parametrize("jump_timing", JUMP_TIMINGS)
    def test_summarized_panels_within_the_counted_bytes(self, jump_timing, monkeypatch,
                                                        tmp_path):
        """What ``panels`` counts covers its batch and then :func:`cli.summarize`
        of the four rows."""
        counted = []
        monkeypatch.setattr(cli, "check_budget",
                            lambda *args, **kwargs: counted.append(check_budget(*args, **kwargs)))
        config_path = tmp_path / "panels.cfg"
        config_path.write_text(f"[engine]\njump_timing = {jump_timing}\n")
        assert cli.main(["--config", str(config_path), "--out", str(tmp_path), "panels"]) == 0
        model = make_scenario(ScenarioConfig(input_mode=INPUT_MODES))
        peak = _peak_bytes(lambda: cli.summarize(simulate_rows(
            model, uniform_grid(0.1, 100.0), 42, jump_timing=jump_timing)))
        assert len(counted) == 1 and peak <= counted[0]

    def test_kept_logs_within_the_counted_bytes(self):
        """The jump logs of kept paths hold what :func:`check_budget` counts
        for them per expected event, and an array header per path: 24
        bytes per event, where one ``JumpEvent`` object per event held 153."""
        grid, n_paths, intensity = uniform_grid(1.0, 100.0), 4, 500.0

        def model(alpha):
            jumps = CompoundPoissonSpec(alpha, JumpSizeDist.exponential(1.0))
            return make_scenario(ScenarioConfig(jumps=jumps))

        def summarized(alpha):  # what summarizing the kept paths adds
            args = ("simulate", model(alpha), grid.horizon, grid.n_steps, n_paths, n_paths)
            return check_budget(*args, summarized=True) - check_budget(*args)

        expected = 2 * intensity * grid.horizon * n_paths  # kept events, both coordinates
        per_event = (summarized(intensity) - summarized(0.0)) / expected
        inputs = sample_path_inputs(model(intensity), grid, 5, range(n_paths))
        tracemalloc.start()
        try:
            logs = [inputs[j] for j in range(n_paths)]
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        events = sum(map(len, logs))
        assert events > expected / 2
        assert held <= per_event * events + 2**9 * n_paths

    def test_exact_substeps_are_flat(self):
        """The sub-steps hold 8 * (6 + d) bytes per jump, two offsets per
        group and one per grid point: about 77 bytes per jump at 20 paths,
        where one small array per field and group held 581."""
        model, grid = make_scenario(ScenarioConfig()), uniform_grid(0.1, 100.0)
        inputs = sample_path_inputs(model, grid, 5, range(20))
        tracemalloc.start()
        try:
            substeps = _exact_substeps(model, grid.times, inputs, 5, range(20))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        fields, spans, first = substeps
        n, d = inputs.time.size, model.dimension
        assert len(fields) == 7 and first.size == grid.times.size
        assert held <= 8 * (6 + d) * n + spans.nbytes + first.nbytes + 2**12
        assert held <= 100 * n


class TestRowBatch:
    """``panels`` steps the four input modes as the rows of one batch on the
    inputs of stream 0; each row is bitwise the mode's own trajectory."""

    @pytest.mark.parametrize("timing", JUMP_TIMINGS)
    @pytest.mark.parametrize("seed", [1, 7, 42])
    @pytest.mark.parametrize("text", [
        "",  # x0 = (0, 0), on the reflecting boundary
        "[jumps]\nintensity = 0\n",
        "[jumps]\nintensity = 6\n",  # several jumps in a step
        "[scenario]\ni_ext_e = 0.8\ni_ext_i = -0.5\nx0_i = 0.25\n",
    ])
    def test_rows_match_single_runs_bitwise(self, text, seed, timing):
        doc = parse_config(text + "[grid]\nhorizon = 30.0\n")
        grid = doc.build_grid()
        rows = simulate_rows(make_scenario(doc.scenario_config(INPUT_MODES)), grid, seed,
                             jump_timing=timing)
        assert len(rows) == len(INPUT_MODES)
        for mode, got in zip(INPUT_MODES, rows):
            want = simulate_trajectory(make_scenario(doc.scenario_config(mode)), grid, seed,
                                       jump_timing=timing)
            for name in ("states", "phi_lower", "phi_upper", "phi"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (mode, name)
            assert got.jumps.tobytes() == want.jumps.tobytes(), mode
            assert (got.master_seed, got.stream_index) == (seed, 0)
        assert len(rows[-1].jumps) or "intensity = 0" in text

    def test_inputs_spread_to_rows(self):
        model = make_scenario(ScenarioConfig())
        one = sample_path_inputs(model, uniform_grid(0.1, 20.0), 3, [0])
        spread = one.tiled(4, (False, True, False, True))
        assert len(spread) == 4 and not spread.dW.flags.writeable
        assert not spread.u.flags.writeable
        assert np.shares_memory(spread.dW, one.dW) and np.shares_memory(spread.u, one.u)
        for j in range(4):
            assert np.array_equal(spread.dW[:, j], one.dW[:, 0])
            assert np.array_equal(spread.u[:, j], one.u[:, 0])
        assert len(spread[0]) == len(spread[2]) == 0
        assert spread[1].tobytes() == spread[3].tobytes() == one[0].tobytes() and len(one[0])

    @pytest.mark.parametrize("flags", [None, (False, True, False, True)])
    @pytest.mark.parametrize("m", [3, 200])
    def test_inputs_tiled_over_blocks(self, m, flags):
        """Path j + r * m is path j, with its jumps in the flagged blocks r:
        the arrays of ``np.tile``, with ``dW[k]`` F-ordered."""
        model = make_scenario(ScenarioConfig())
        inputs = sample_path_inputs(model, uniform_grid(0.1, 20.0), 3, range(m))
        spread = inputs.tiled(4, flags)
        blocks = np.arange(4) if flags is None else np.flatnonzero(flags)
        want = PathInputs(np.tile(inputs.dW, (1, 4, 1)), np.tile(inputs.u, (1, 4)),
                          np.tile(inputs.time, blocks.size), np.tile(inputs.size, blocks.size),
                          np.concatenate([inputs.path + r * m for r in blocks]),
                          np.tile(inputs.coord, blocks.size))
        for name in ("dW", "u", "time", "size", "path", "coord"):
            got, ref = getattr(spread, name), getattr(want, name)
            assert got.dtype == ref.dtype and np.array_equal(got, ref), name
        assert all(spread.dW[k].flags.f_contiguous for k in range(spread.dW.shape[0]))
        assert inputs.time.size
        for j in range(4 * m):
            assert spread[j].tobytes() == (inputs[j % m].tobytes() if j // m in blocks
                                           else b""), j

    def test_domain_per_row_needs_row_flags(self):
        domain = ReflectionDomain((((0.0, math.inf),),) * 2)
        with pytest.raises(ValueError, match="row_jumps"):
            linear_model_1d(domain=domain)
        with pytest.raises(ValueError, match="row_jumps"):
            linear_model_1d(domain=domain, row_jumps=(False,) * 3)
        assert linear_model_1d(domain=domain, row_jumps=(False, False)).domain.dim == 1

    @pytest.mark.parametrize("jump_timing", JUMP_TIMINGS)
    def test_only_simulate_rows_steps_a_row_model(self, jump_timing):
        """A model with ``row_jumps`` holds a scenario per row, not paths of
        one scenario, and a model without it has no rows to spread over."""
        rows = make_scenario(ScenarioConfig(input_mode=INPUT_MODES))
        grid = uniform_grid(0.1, 2.0)
        for step in (lambda: simulate_trajectory(rows, grid, 1, jump_timing=jump_timing),
                     lambda: simulate_paths(rows, grid, 1, [0], jump_timing),
                     lambda: simulate_ensemble(rows, grid, 1, 1, 1, jump_timing),
                     lambda: simulate_rows(make_scenario(ScenarioConfig()), grid, 1,
                                           jump_timing)):
            with pytest.raises(ValueError, match="simulate_rows"):
                step()
        one = make_scenario(ScenarioConfig(input_mode=("ou_reflected_jumps",)))
        (row,) = simulate_rows(one, grid, 1, jump_timing)
        want = simulate_trajectory(make_scenario(ScenarioConfig()), grid, 1,
                                   jump_timing=jump_timing)
        assert row.states.tobytes() == want.states.tobytes()

    @pytest.mark.parametrize("jump_timing", JUMP_TIMINGS)
    def test_peak_within_the_counted_bytes(self, jump_timing):
        """What ``panels`` asks :func:`check_budget` for, one stream's inputs
        and four kept rows, covers the batch's peak."""
        model = make_scenario(ScenarioConfig(input_mode=INPUT_MODES))
        counted = check_budget("panels", model, 100.0, 2000, 1, len(INPUT_MODES),
                               jump_timing == "exact")
        tracemalloc.start()
        try:
            simulate_rows(model, uniform_grid(0.05, 100.0), 5, jump_timing=jump_timing)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= counted


def _step_inputs(model, grid, inputs, jump_timing, seed, streams):
    substeps = (_exact_substeps(model, grid.times, inputs, seed, streams)
                if jump_timing == "exact" else None)
    return integrate_batch(model, grid.times, inputs, model.x0, substeps)


class TestCoordinateMajorLayout:
    """``integrate_batch`` steps (d, m) memory, the per-step layout of the
    ``dW`` that :func:`sample_path_inputs` draws; the memory layout of the
    inputs moves no bit of the result."""

    @pytest.mark.parametrize("jump_timing", JUMP_TIMINGS)
    @pytest.mark.parametrize("mode, m", [
        *((mode, m) for mode in INPUT_MODES for m in (1, 4, 200)),
        (INPUT_MODES, 4),  # the four panels: one stream on four rows
    ])
    def test_record_independent_of_the_input_layout(self, mode, m, jump_timing):
        # intensity 2: several jumps in some steps of a row with jumps
        intensity = 2.0 if "ou_reflected_jumps" in ScenarioConfig(input_mode=mode).modes else 0.0
        model = make_scenario(ScenarioConfig(
            input_mode=mode, x0=(0.2, 0.1),
            jumps=CompoundPoissonSpec(intensity, JumpSizeDist.exponential(1.0))))
        grid = uniform_grid(0.1, 10.0)
        if mode == INPUT_MODES:
            streams = [0] * 4
            d_major = sample_path_inputs(model, grid, 3, [0]).tiled(
                len(model.row_jumps), model.row_jumps)
        else:
            streams = list(range(m))
            d_major = sample_path_inputs(model, grid, 3, streams)
        c_order = replace(d_major, dW=np.ascontiguousarray(d_major.dW))
        assert c_order.dW.flags.c_contiguous
        got = _step_inputs(model, grid, d_major, jump_timing, 3, streams)
        want = _step_inputs(model, grid, c_order, jump_timing, 3, streams)
        for name in BatchRecord._fields:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got.terminal.flags.c_contiguous and want.terminal.flags.c_contiguous

    @pytest.mark.parametrize("m", [4, 200])
    def test_coarsened_inputs_keep_the_layout(self, m):
        model = make_scenario(ScenarioConfig())
        inputs = sample_path_inputs(model, build_dyadic_partition(6, 2.0), 3, range(m))
        c_order = replace(inputs, dW=np.ascontiguousarray(inputs.dW))
        times = build_dyadic_partition(3, 2.0).times
        got = integrate_batch(model, times, inputs.coarsened(8), model.x0)
        want = integrate_batch(model, times, c_order.coarsened(8), model.x0)
        assert inputs.coarsened(8).dW[0].flags.f_contiguous
        for name in BatchRecord._fields:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    @pytest.mark.parametrize("jump_timing", JUMP_TIMINGS)
    @pytest.mark.parametrize("mode, intensity, floats", [
        pytest.param("ou_reflected_jumps", 0.5, {"diffusion", "jump_coeff"}, id="floats"),
        pytest.param("white_noise", 0.0, set(), id="arrays"),
    ])
    def test_coefficients_get_f_ordered_views(self, mode, intensity, floats, jump_timing):
        """Guards the layout: on drawn inputs, the drift, the diffusion and
        the jump coefficient see F-ordered (m, d) states, and a coefficient
        hands back an F-ordered result or one float, so no step converts
        between layouts.  The Wilson-Cowan drift and white-noise diffusion
        are arrays; the noiseless diffusion and the jump coefficient are
        floats."""
        model = make_scenario(ScenarioConfig(
            input_mode=mode, jumps=CompoundPoissonSpec(intensity, JumpSizeDist.exponential(1.0))))
        names = ("drift", "diffusion", "jump_coeff") if model.jump_specs else ("drift", "diffusion")
        seen = []

        def spy(name):
            coefficient = getattr(model, name)

            def call(state, *args):
                value = coefficient(state, *args)
                if isinstance(value, float):
                    assert np.ndim(value) == 0, name
                else:
                    assert value.shape == state.shape and value.flags.f_contiguous, name
                seen.append((name, state.shape, state.flags.f_contiguous,
                             state.flags.c_contiguous, isinstance(value, float)))
                return value
            return call

        spied = replace(model, **{name: spy(name) for name in names})
        simulate_ensemble(spied, uniform_grid(0.1, 5.0), 5, 3, retain=1, jump_timing=jump_timing)
        assert set(seen) == {(name, (5, 2), True, False, name in floats) for name in names}


def array_coefficient(coefficient):
    """A coefficient in its array form: a float is spread over the state,
    in its layout, as ``np.full_like(state, rho)`` or
    ``np.zeros_like(state)``."""
    def spread(state):
        value = coefficient(state)
        return np.full_like(state, value) if isinstance(value, float) else value
    return spread


def oracle_model(model):
    """``model`` with array coefficients, so every step does the full
    arithmetic that float coefficients skip."""
    return replace(model, diffusion=array_coefficient(model.diffusion),
                   jump_coeff=model.jump_coeff and array_coefficient(model.jump_coeff))


class TestConstantCoefficients:
    """A float diffusion or jump coefficient takes arithmetic out of the
    step, and no bit of the record changes."""

    @pytest.mark.parametrize("jump_timing", JUMP_TIMINGS)
    @pytest.mark.parametrize("mode, m", [
        *((mode, m) for mode in (*INPUT_MODES, "box") for m in (1, 4, 200)),
        (INPUT_MODES, 4),  # the four panels: one stream on four rows
    ])
    def test_record_matches_the_array_oracle(self, mode, m, jump_timing):
        box = mode == "box"
        config = ScenarioConfig(input_mode="ou_reflected_jumps" if box else mode)
        jumps = "ou_reflected_jumps" in config.modes
        # intensity 2: steps with several jumps and, on one row, steps without
        model = make_scenario(replace(config, x0=(0.1, 0.05) if box else (0.0, 0.0), jumps=(
            CompoundPoissonSpec(2.0 if jumps else 0.0, JumpSizeDist.exponential(1.0)))))
        if box:  # a finite upper face, met often
            model = replace(model, domain=ReflectionDomain(((0.0, 0.3), (0.0, 0.2))))
        grid = uniform_grid(0.1, 10.0)
        if model.row_jumps:
            streams = [0] * m
            inputs = sample_path_inputs(model, grid, 3, [0]).tiled(
                len(model.row_jumps), model.row_jumps)
        else:
            streams = list(range(m))
            inputs = sample_path_inputs(model, grid, 3, streams)
        x = np.zeros((2, m)).T
        assert isinstance(model.diffusion(x), float) == (mode not in ("white_noise", INPUT_MODES))
        assert not jumps or isinstance(model.jump_coeff(x), float)
        got = _step_inputs(model, grid, inputs, jump_timing, 3, streams)
        want = _step_inputs(oracle_model(model), grid, inputs, jump_timing, 3, streams)
        for name in BatchRecord._fields:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert want.phi_upper.any() == box

    @staticmethod
    def abort(model, grid, seed, m, timing):
        with pytest.raises(SimulationAbort) as exc:
            simulate_paths(model, grid, seed, range(m), timing)
        e = exc.value
        return str(e), e.step_index, e.what, e.row, e.time, e.state.tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("timing", JUMP_TIMINGS)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_diffusion_aborts_as_the_array(self, bad, timing):
        model = make_scenario(ScenarioConfig(x0=(0.2, 0.1)))
        model = replace(model, diffusion=lambda state: bad)
        grid = uniform_grid(0.1, 5.0)
        got = self.abort(model, grid, 2, 3, timing)
        assert got == self.abort(oracle_model(model), grid, 2, 3, timing)
        assert got[1:4] == (0, "diffusion", 0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("timing", JUMP_TIMINGS)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("intensity", [0.5, 50.0])
    def test_non_finite_float_rho_aborts_as_the_array(self, intensity, bad, timing):
        """At intensity 0.5 the seed is picked so that step 0 has no jump,
        and end-of-step timing skips its jump sum; at 50 every step has
        jumps.  Exact timing evaluates rho in steps with a jump only."""
        model = make_scenario(ScenarioConfig(x0=(0.2, 0.1), rho=bad, jumps=CompoundPoissonSpec(
            intensity, JumpSizeDist.exponential(1.0))))
        grid, m = uniform_grid(0.1, 5.0), 3

        def first_jump_step(seed):
            return int(_cells(grid.times, sample_path_inputs(model, grid, seed, range(m)).time).min())

        seed = next(s for s in range(100) if (first_jump_step(s) > 0) == (intensity < 1))
        got = self.abort(model, grid, seed, m, timing)
        assert got == self.abort(oracle_model(model), grid, seed, m, timing)
        step = first_jump_step(seed) if timing == "exact" else 0
        assert got[1:4] == (step, "jump coefficient", 0)
