"""Tests for the Wilson-Cowan coefficients, the four input scenarios and the
numeric assumption validators."""
import itertools
import math

import numpy as np
import pytest
from scipy.special import expit

from skorokhod_sde import (
    CompoundPoissonSpec,
    JumpSizeDist,
    OUParams,
    ScenarioConfig,
    ScenarioError,
    WilsonCowanParams,
    check_jump_coefficient_bound,
    estimate_lipschitz_constant,
    make_scenario,
    sigmoid_F,
    wilson_cowan_diffusion,
    wilson_cowan_drift,
)
from skorokhod_sde.models import INPUT_MODES, SCENARIOS
from test_skorokhod import STATE_CASES, assert_bitwise, states_case


def reference_F(x, theta, a):
    return 1.0 / (1.0 + math.exp(-a * (x - theta))) - 1.0 / (1.0 + math.exp(a * theta))


def reference_drift(state, p: WilsonCowanParams):
    """Independent scalar re-implementation of the drift, for cross-checking."""
    r_e, r_i = state
    x_e = p.w_EE * r_e - p.w_EI * r_i + p.I_ext_E
    x_i = p.w_IE * r_e - p.w_II * r_i + p.I_ext_I
    d_e = (-r_e + (1 - p.delta_E * r_e) * reference_F(x_e, p.theta_E, p.a_E)) / p.tau_E
    d_i = (-r_i + (1 - p.delta_I * r_i) * reference_F(x_i, p.theta_I, p.a_I)) / p.tau_I
    return d_e, d_i


def oracle_F(x, theta, a):
    return expit(a * (x - theta)) - expit(-a * theta)


def oracle_drift(state, p: WilsonCowanParams, i_ext_e, i_ext_i):
    """The drift written once per population, with the package's ``expit``
    arithmetic: the bitwise reference for the one formula on parameter
    columns."""
    state = np.asarray(state, dtype=float)
    r_e = state[..., 0]
    r_i = state[..., 1]
    x_e = p.w_EE * r_e - p.w_EI * r_i + i_ext_e
    x_i = p.w_IE * r_e - p.w_II * r_i + i_ext_i
    d_e = (-r_e + (1.0 - p.delta_E * r_e) * oracle_F(x_e, p.theta_E, p.a_E)) / p.tau_E
    d_i = (-r_i + (1.0 - p.delta_I * r_i) * oracle_F(x_i, p.theta_I, p.a_I)) / p.tau_I
    return np.stack([d_e, d_i], axis=-1)


def fresh_drift_oracle(state, params: WilsonCowanParams, u=0.0):
    """:func:`wilson_cowan_drift` as a fresh array per operation, in the
    same order: the bitwise reference for its in-place form."""
    r = np.ascontiguousarray(np.atleast_2d(state).T, dtype=float)
    x = params.w_from_E * r[0] - params.w_from_I * r[1] + (params.I_ext + u)
    gain = expit(params.a * (x - params.theta)) - params.F_shift
    d = (-r + (1.0 - params.delta * r) * gain) / params.tau
    return d.T.reshape(np.shape(state))


def oracle_diffusion(state, p: WilsonCowanParams):
    state = np.asarray(state, dtype=float)
    g_e = p.sigma_ext_E * (1.0 - p.delta_E * state[..., 0]) / p.tau_E
    g_i = p.sigma_ext_I * (1.0 - p.delta_I * state[..., 1]) / p.tau_I
    return np.stack([g_e, g_i], axis=-1)


def assert_same_bits(got, want):
    """``tobytes`` equality, signed zeros included; a NaN only has to sit
    where the reference has one."""
    assert got.shape == want.shape
    canonical = [np.where(np.isnan(a), np.nan, a).tobytes() for a in (got, want)]
    assert canonical[0] == canonical[1]


class TestSigmoid:
    def test_zero_point(self):
        for theta, a in [(2.8, 1.2), (4.0, 1.0), (0.5, 7.0)]:
            assert sigmoid_F(0.0, theta, a) == pytest.approx(0.0, abs=1e-15)

    def test_value_at_threshold(self):
        theta, a = 3.0, 2.0
        expected = 0.5 - 1.0 / (1.0 + math.exp(a * theta))
        assert sigmoid_F(theta, theta, a) == pytest.approx(expected, abs=1e-14)

    def test_default_threshold_value(self):
        assert sigmoid_F(2.8, 2.8, 1.2) == pytest.approx(0.46643077671851746, abs=1e-12)

    def test_monotone_and_limit(self):
        # away from the saturated tails, where the float gradient is nonzero
        xs = np.linspace(-5.0, 10.0, 500)
        vals = sigmoid_F(xs, 2.8, 1.2)
        assert np.all(np.diff(vals) > 0)
        limit = 1.0 - 1.0 / (1.0 + math.exp(1.2 * 2.8))
        assert sigmoid_F(1e4, 2.8, 1.2) == pytest.approx(limit, abs=1e-12)

    def test_overflow_safe(self):
        assert np.isfinite(sigmoid_F(-1e6, 2.8, 1.2))
        assert np.isfinite(sigmoid_F(1e6, 2.8, 1.2))


class TestParams:
    def test_defaults_valid(self):
        p = WilsonCowanParams()
        assert p.tau_E == 1.0 and p.tau_I == 2.0
        assert p.delta_E == 0.2

    def test_invariants(self):
        with pytest.raises(ValueError):
            WilsonCowanParams(tau_E=-1.0)
        with pytest.raises(ValueError):
            WilsonCowanParams(a_I=0.0)
        with pytest.raises(ValueError):
            WilsonCowanParams(delta_E=1.5)
        with pytest.raises(ValueError):
            WilsonCowanParams(w_EI=-2.0)
        with pytest.raises(ValueError):
            WilsonCowanParams(sigma_ext_I=-0.1)

    @pytest.mark.parametrize("build", [
        lambda: OUParams(gamma=math.nan),
        lambda: OUParams(sigma=math.nan),
        lambda: CompoundPoissonSpec(math.nan, JumpSizeDist.constant(1.0)),
        lambda: JumpSizeDist.constant(math.nan),
        lambda: JumpSizeDist.constant(math.inf),
        lambda: JumpSizeDist.exponential(math.nan),
        lambda: JumpSizeDist.exponential(math.inf),
        lambda: JumpSizeDist.uniform(0.0, math.inf),
        lambda: JumpSizeDist.uniform(-math.inf, 0.0),
        lambda: WilsonCowanParams(tau_E=math.nan),
        lambda: WilsonCowanParams(a_E=math.nan),
        lambda: WilsonCowanParams(w_EE=math.nan),
        lambda: WilsonCowanParams(sigma_ext_E=math.nan),
        lambda: OUParams(mu=math.nan),
        lambda: OUParams(v0=math.inf),
        lambda: OUParams(sigma=math.inf),
        lambda: WilsonCowanParams(theta_E=math.nan),
        lambda: WilsonCowanParams(I_ext_E=math.inf),
        lambda: WilsonCowanParams(w_EE=math.inf),
        lambda: WilsonCowanParams(tau_E=math.inf),
        lambda: CompoundPoissonSpec(math.inf, JumpSizeDist.constant(1.0)),
    ])
    def test_nonfinite_parameters_rejected(self, build):
        with pytest.raises(ValueError):
            build()


class TestDrift:
    def test_resting_state_fixed_point(self):
        p = WilsonCowanParams()
        d = wilson_cowan_drift(np.array([[0.0, 0.0]]), p)
        assert np.max(np.abs(d)) == pytest.approx(0.0, abs=1e-15)

    def test_balance_case(self):
        # delta = 0 and a gain saturated near 1 balances the decay at r = 1
        p = WilsonCowanParams(delta_E=0.0, theta_E=5.0, a_E=20.0, tau_E=1.0)
        d = wilson_cowan_drift(np.array([[1.0, 0.0]]), p)
        gain = sigmoid_F(p.w_EE * 1.0, p.theta_E, p.a_E)
        assert gain == pytest.approx(1.0, abs=1e-6)
        assert d[0, 0] == pytest.approx(-1.0 + gain, abs=1e-12)
        assert d[0, 0] == pytest.approx(0.0, abs=1e-6)

    def test_dual_implementation(self):
        p = WilsonCowanParams()
        rng = np.random.default_rng(0)
        states = rng.uniform(0.0, 1.0, size=(50, 2))
        batch = wilson_cowan_drift(states, p)
        for state, d in zip(states, batch):
            ref = reference_drift(state, p)
            assert d[0] == pytest.approx(ref[0], abs=1e-12)
            assert d[1] == pytest.approx(ref[1], abs=1e-12)

    def test_specific_state(self):
        p = WilsonCowanParams()
        d = wilson_cowan_drift(np.array([0.1, 0.05]), p)
        ref = reference_drift((0.1, 0.05), p)
        assert np.allclose(d, ref, atol=1e-12)

    def test_negative_beyond_saturation(self):
        # above r = 1/delta the decay dominates the bounded gain term
        p = WilsonCowanParams()
        for r_e in (5.0 + 1e-6, 6.0, 10.0):
            d = wilson_cowan_drift(np.array([r_e, 0.3]), p)
            assert d[0] < 0.0


class TestDiffusion:
    def test_zero_amplitude(self):
        p = WilsonCowanParams(sigma_ext_E=0.0, sigma_ext_I=0.0)
        g = wilson_cowan_diffusion(np.array([0.4, 0.2]), p)
        assert not g.any()

    def test_vanishes_at_saturation(self):
        p = WilsonCowanParams()
        g = wilson_cowan_diffusion(np.array([1.0 / p.delta_E, 0.0]), p)
        assert g[0] == pytest.approx(0.0, abs=1e-15)

    def test_default_amplitude_arithmetic(self):
        p = WilsonCowanParams()
        g = wilson_cowan_diffusion(np.array([0.5, 0.0]), p)
        assert g[0] == pytest.approx(0.1 * 0.9, abs=1e-15)


class TestScenarios:
    def _config(self, mode, intensity=0.0):
        spec = CompoundPoissonSpec(intensity, JumpSizeDist.exponential(1.0))
        return ScenarioConfig(input_mode=mode, jumps=spec)

    def test_white_noise_mode(self):
        model = make_scenario(self._config("white_noise"))
        assert model.jump_specs is None
        assert not np.isfinite(model.domain.lower).any()
        g = model.diffusion(np.array([[0.0, 0.0]]))
        assert g[0, 0] == pytest.approx(0.1)

    def test_ou_current_mode(self):
        model = make_scenario(self._config("ou_current"))
        assert model.input_current is not None
        g = model.diffusion(np.array([[0.2, 0.1]]))  # one float, every row's
        assert type(g) is float and g == 0.0 and math.copysign(1.0, g) == 1.0
        assert not np.isfinite(model.domain.lower).any()

    def test_ou_reflected_mode(self):
        model = make_scenario(self._config("ou_reflected"))
        assert np.array_equal(model.domain.lower, [0.0, 0.0])
        assert model.jump_specs is None

    def test_ou_reflected_jumps_mode(self):
        model = make_scenario(self._config("ou_reflected_jumps", intensity=0.5))
        assert model.jump_specs is not None
        assert len(model.jump_specs) == 2
        rho = model.jump_coeff(np.array([[0.1, 0.2]]))
        assert np.allclose(rho, 0.01)

    def test_jumps_without_reflection_rejected(self):
        with pytest.raises(ScenarioError):
            make_scenario(self._config("white_noise", intensity=0.5))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(input_mode="pink_noise")

    def test_shared_input_current(self):
        # the OU current enters both external inputs with equal weight
        model = make_scenario(self._config("ou_current"))
        state = np.array([[0.1, 0.1]])
        d0 = model.drift(state, np.array([0.0]))
        d1 = model.drift(state, np.array([0.5]))
        assert d1[0, 0] != d0[0, 0]
        assert d1[0, 1] != d0[0, 1]


class TestScenarioTable:
    def test_modes_as_rows(self):
        """A tuple of modes gives one batch row per mode: the switches that
        differ are (rows, 1) columns and every row computes its own mode's
        coefficients, bit for bit."""
        spec = CompoundPoissonSpec(0.5, JumpSizeDist.exponential(1.0))
        params = WilsonCowanParams(I_ext_E=0.3, I_ext_I=-1.5)
        model = make_scenario(ScenarioConfig(input_mode=INPUT_MODES, params=params, jumps=spec))
        assert model.row_jumps == tuple(SCENARIOS[mode][2] for mode in INPUT_MODES)
        assert model.jump_specs == (spec, spec) and model.input_current is not None
        state = np.array([[0.2, 0.1], [0.0, 0.7], [1.5, 0.3], [0.4, 0.0]])
        u = np.array([0.4, -0.2, 0.9, 0.1])
        for j, mode in enumerate(INPUT_MODES):
            jumps = spec if SCENARIOS[mode][2] else CompoundPoissonSpec(0.0, spec.jump_dist)
            alone = make_scenario(ScenarioConfig(input_mode=mode, params=params, jumps=jumps))
            own_u = np.zeros(1) if alone.input_current is None else u[j:j + 1]
            assert_same_bits(model.drift(state, u)[j], alone.drift(state[j:j + 1], own_u)[0])
            own_g = np.broadcast_to(alone.diffusion(state[j:j + 1]), (1, 2))
            assert_same_bits(model.diffusion(state)[j], own_g[0])
            assert np.array_equal(model.domain.lower[j], alone.domain.lower)
            assert np.array_equal(model.domain.upper[j], alone.domain.upper)

    def test_equal_switches_stay_scalar(self):
        # both rows reflected, neither has white noise: one domain for both
        model = make_scenario(ScenarioConfig(input_mode=("ou_reflected", "ou_reflected_jumps")))
        alone = ScenarioConfig(input_mode="ou_reflected",
                               jumps=CompoundPoissonSpec(0.0, JumpSizeDist.constant(1.0)))
        assert model.domain == make_scenario(alone).domain
        assert model.row_jumps == (False, True)
        assert make_scenario(ScenarioConfig()).row_jumps is None

    def test_rows_without_jumps_reject_an_intensity(self):
        with pytest.raises(ScenarioError):
            make_scenario(ScenarioConfig(input_mode=("white_noise", "ou_current")))
        with pytest.raises(ValueError, match="input_mode"):
            ScenarioConfig(input_mode=())

    @pytest.mark.parametrize("mode", INPUT_MODES)
    def test_model_matches_its_row(self, mode):
        white_noise, reflected, jumps = SCENARIOS[mode]
        spec = CompoundPoissonSpec(0.5 if jumps else 0.0, JumpSizeDist.exponential(1.0))
        model = make_scenario(ScenarioConfig(input_mode=mode, jumps=spec))
        state = np.array([[0.2, 0.1], [0.0, 0.7]])
        g = model.diffusion(state)  # a float 0.0 without white noise
        assert np.any(g) == white_noise and isinstance(g, float) != white_noise
        assert isinstance(model.jump_coeff(state), float) if jumps else model.jump_coeff is None
        assert np.array_equal(model.domain.lower, [0.0, 0.0]) == reflected
        assert (model.jump_specs == (spec, spec)) if jumps else model.jump_specs is None
        assert (model.input_current is None) == white_noise

    @pytest.mark.parametrize("case", [1, 4, 200, 1000, "(2,)", "signed zeros", "extremes"])
    @pytest.mark.parametrize("params", [
        WilsonCowanParams(),
        WilsonCowanParams(I_ext_E=0.3, I_ext_I=-1.5),
        WilsonCowanParams(I_ext_E=-0.0, I_ext_I=-0.0, w_EE=-0.0, theta_E=0.0, theta_I=0.0),
        WilsonCowanParams(tau_E=0.7, tau_I=3.1, a_E=1.3, a_I=0.9, delta_E=0.15, delta_I=0.35,
                          sigma_ext_E=0.07, sigma_ext_I=0.13),
    ])
    @np.errstate(over="ignore", invalid="ignore")
    def test_white_noise_drift_adds_a_zero_current(self, params, case):
        # rows with r_E = -0.0 make w_EE * r_E - w_EI * r_I a signed zero;
        # finite extremes overflow to inf and NaN inside the formula
        no_jumps = CompoundPoissonSpec(0.0, JumpSizeDist.constant(1.0))
        model = make_scenario(ScenarioConfig("white_noise", params, jumps=no_jumps))
        rng = np.random.default_rng(3)
        if case == "signed zeros":
            state = np.array([[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [0.0, 0.0]])
        elif case == "extremes":
            state = np.array(list(itertools.product([1e308, -1e308, 5e-324, -0.0, 1.0], repeat=2)))
        else:
            state = rng.uniform(-3.0, 3.0, 2 if case == "(2,)" else (case, 2))
        u = rng.normal(0.0, 3.0, state.shape[:-1])
        zero = np.zeros(state.shape[:-1])
        assert_same_bits(model.drift(state, zero),
                         oracle_drift(state, params, params.I_ext_E, params.I_ext_I))
        assert_same_bits(wilson_cowan_drift(state, params, u),
                         oracle_drift(state, params, params.I_ext_E + u, params.I_ext_I + u))
        assert_same_bits(model.diffusion(state), oracle_diffusion(state, params))


class TestInPlaceDrift:
    @pytest.mark.parametrize("current", ["none", "per row"])
    @pytest.mark.parametrize("case", STATE_CASES)
    @pytest.mark.parametrize("params", [
        WilsonCowanParams(),
        WilsonCowanParams(I_ext_E=-0.0, I_ext_I=-0.0, w_EE=-0.0, theta_E=0.0, theta_I=0.0),
        WilsonCowanParams(tau_E=0.7, tau_I=3.1, a_E=1.3, a_I=0.9, delta_E=0.15, delta_I=0.35),
    ])
    def test_matches_the_fresh_oracle(self, params, case, current):
        rng = np.random.default_rng(11)
        state = states_case(rng, case, -3.0, 3.0)
        u = 0.0 if current == "none" else rng.normal(0.0, 3.0, state.shape[:-1])
        before = state.copy(order="K")
        got = wilson_cowan_drift(state, params, u)
        assert_bitwise(got, fresh_drift_oracle(state, params, u))
        assert not np.shares_memory(got, state)
        assert_bitwise(state, before)


class TestParameterRows:
    """A scenario model's coefficients take the parameters as (2, m) rows
    kept per batch width; at every width, and back at one seen before,
    they give the oracles' bits."""

    PARAMS = [
        WilsonCowanParams(),
        WilsonCowanParams(I_ext_E=-0.0, I_ext_I=-0.0, w_EE=-0.0, theta_E=0.0, theta_I=0.0),
        WilsonCowanParams(tau_E=0.7, tau_I=3.1, a_E=1.3, a_I=0.9, delta_E=0.15, delta_I=0.35,
                          sigma_ext_E=0.07, sigma_ext_I=0.13),
    ]
    WIDTHS = (1, 4, 200, 1000, 4)

    @pytest.mark.parametrize("order", "CF")
    @pytest.mark.parametrize("params", PARAMS)
    def test_drift_at_every_width(self, params, order):
        model = make_scenario(ScenarioConfig(params=params))
        rng = np.random.default_rng(12)
        for m in self.WIDTHS:
            state = states_case(rng, (m, order), -3.0, 3.0)
            u = rng.normal(0.0, 3.0, m)
            assert_bitwise(model.drift(state, u), fresh_drift_oracle(state, params, u))

    @pytest.mark.parametrize("order", "CF")
    @pytest.mark.parametrize("params", PARAMS)
    def test_white_noise_diffusion_at_every_width(self, params, order):
        no_jumps = CompoundPoissonSpec(0.0, JumpSizeDist.constant(1.0))
        model = make_scenario(ScenarioConfig("white_noise", params, jumps=no_jumps))
        rng = np.random.default_rng(13)
        for m in self.WIDTHS:
            state = states_case(rng, (m, order), -3.0, 3.0)
            assert_same_bits(model.diffusion(state), oracle_diffusion(state, params))
            zero = np.zeros(m)
            assert_bitwise(model.drift(state, zero), fresh_drift_oracle(state, params, zero))

    @pytest.mark.parametrize("params", PARAMS)
    def test_panels_rows(self, params):
        """The 4-row batch of the four input modes has one width, 4."""
        model = make_scenario(ScenarioConfig(input_mode=INPUT_MODES, params=params))
        white_noise = np.array([SCENARIOS[mode][0] for mode in INPUT_MODES])
        rng = np.random.default_rng(14)
        for order in "CFC":
            state = states_case(rng, (4, order), -3.0, 3.0)
            u = rng.normal(0.0, 3.0, 4)
            assert_bitwise(model.drift(state, u),
                           fresh_drift_oracle(state, params, np.where(white_noise, 0.0, u)))
            assert_same_bits(model.diffusion(state), np.where(
                white_noise[:, None], oracle_diffusion(state, params), 0.0))


class TestLipschitzEstimate:
    BOX = (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))

    def test_constant_function(self):
        est = estimate_lipschitz_constant(
            lambda x: np.ones(x.shape[0]), self.BOX, n_samples=1000
        )
        assert est == 0.0

    def test_identity_map(self):
        est = estimate_lipschitz_constant(lambda x: x, self.BOX, n_samples=10**5)
        assert est == pytest.approx(1.0, abs=1e-6)

    def test_sigmoid_bound(self):
        a = 1.2
        est = estimate_lipschitz_constant(
            lambda x: sigmoid_F(x[:, 0], 2.8, a),
            (np.array([-5.0]), np.array([10.0])),
            n_samples=10**5,
        )
        assert est <= a / 4.0 * (1.0 + 1e-6)


class TestJumpCoefficientBound:
    BOX = (np.zeros(2), np.ones(2))

    def test_zero_coefficient(self):
        spec = CompoundPoissonSpec(1.0, JumpSizeDist.exponential(1.0))
        report = check_jump_coefficient_bound(
            lambda x, xi: np.zeros_like(xi), spec, self.BOX, n_samples=1000
        )
        assert report.c_rho == 0.0
        assert report.passed

    def test_state_independent_coefficient(self):
        spec = CompoundPoissonSpec(1.0, JumpSizeDist.constant(1.0))
        report = check_jump_coefficient_bound(
            lambda x, xi: xi, spec, self.BOX, n_samples=10**4
        )
        assert report.lipschitz_ratio == 0.0
        assert report.growth_ratio <= 1.0 + 1e-12
        assert report.growth_ratio >= 0.95

    def test_linear_coefficient_second_moment(self):
        spec = CompoundPoissonSpec(1.0, JumpSizeDist.exponential(1.0))
        report = check_jump_coefficient_bound(
            lambda x, xi: xi[:, None] * x[None, :], spec, self.BOX, n_samples=10**5
        )
        assert report.lipschitz_ratio == pytest.approx(2.0, rel=0.05)

    def test_infinite_second_moment_impossible(self):
        # every shipped jump-size family has a finite second moment
        for dist in (JumpSizeDist.constant(3.0), JumpSizeDist.exponential(2.0),
                     JumpSizeDist.uniform(-1.0, 4.0)):
            assert np.isfinite(dist.second_moment())
