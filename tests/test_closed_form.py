"""The law of the scheme's output against closed forms: moments that hold
exactly at any step size for an unreflected jump-diffusion with constant
coefficients, the known discretization bias of reflected Brownian motion,
with and without drift, and the exact answer of the stability experiment on
monotone one-dimensional models, the strong order of the scheme for
reflected Brownian motion, and the exact moments of the OU input current.
Tolerances are 4 standard errors or more, or rounding; the seeds are fixed."""
import math

import numpy as np
import pytest

from skorokhod_sde import (
    CompoundPoissonSpec,
    JumpSizeDist,
    OUParams,
    ReflectedJumpSDE,
    ReflectionDomain,
    sample_ou_paths,
    simulate_ensemble,
    stability_experiment,
    strong_convergence_experiment,
    uniform_grid,
)
from skorokhod_sde.engine import JUMP_TIMINGS, _step_streams
from skorokhod_sde.sources import stream_rngs


@pytest.mark.parametrize("timing", JUMP_TIMINGS)
def test_jump_diffusion_moments(timing):
    """dX = mu dt + sigma dW + rho dN, N compound Poisson at rate alpha with
    Exp(1) sizes, unreflected: X_T has mean x0 + (mu + rho alpha) T and
    cumulants k2 = (sigma^2 + 2 rho^2 alpha) T, k4 = 24 rho^4 alpha T, at
    any dt and under either jump timing."""
    mu, sigma, alpha, rho, x0, horizon, n = 0.3, 0.5, 2.0, 0.4, 0.1, 1.0, 10**4
    model = ReflectedJumpSDE(
        dimension=1,
        drift=lambda state, u: np.full_like(state, mu),
        diffusion=lambda state: sigma,
        domain=ReflectionDomain.unreflected(1),
        x0=np.array([x0]),
        jump_coeff=lambda state: rho,
        jump_specs=(CompoundPoissonSpec(alpha, JumpSizeDist.exponential(1.0)),),
    )
    result = simulate_ensemble(model, uniform_grid(0.05, horizon), n, 3, jump_timing=timing)
    k2 = (sigma**2 + 2 * rho**2 * alpha) * horizon
    k4 = 24 * rho**4 * alpha * horizon
    mean, var = result.terminal_mean[0], result.terminal_variance[0]
    assert abs(mean - (x0 + (mu + rho * alpha) * horizon)) <= 4 * math.sqrt(k2 / n)
    # the sample variance has variance (mu_4 - k2^2) / n = (k4 + 2 k2^2) / n
    assert abs(var - k2) <= 4 * math.sqrt((k4 + 2 * k2**2) / n)


@pytest.mark.parametrize("dt, n", [(0.01, 4 * 10**4), (0.0025, 2 * 10**4)])
def test_reflected_brownian_motion_bias(dt, n):
    """Projected Euler for Brownian motion reflected at 0 from 0, T = 1:
    phi_T is the running maximum of the Gaussian random walk -S, so by
    Spitzer's identity E[X_T] = E[phi_T] = sqrt(dt / 2 pi) sum_{k <= n}
    k^(-1/2), whose expansion is the Asmussen-Glynn-Pitman bias
    sqrt(2 / pi) + zeta(1/2) sqrt(dt / 2 pi) + O(dt), 0.5826 sqrt(dt)
    below the continuum value sqrt(2 / pi)."""
    model = ReflectedJumpSDE(
        dimension=1,
        drift=lambda state, u: np.zeros_like(state),
        diffusion=lambda state: 1.0,
        domain=ReflectionDomain.half_line(0.0, 1),
        x0=np.array([0.0]),
    )
    grid = uniform_grid(dt, 1.0)
    result = simulate_ensemble(model, grid, n, 7)
    mean, se = result.terminal_mean[0], math.sqrt(result.terminal_variance[0] / n)
    expected = math.sqrt(dt / (2 * math.pi)) * np.sum(np.arange(1, grid.n_steps + 1) ** -0.5)
    # the next term of the expansion is dt / (2 sqrt(2 pi)) = 0.1995 dt
    assert abs(expected - (math.sqrt(2 / math.pi) - 0.5826 * math.sqrt(dt))) <= 0.25 * dt
    assert abs(mean - expected) <= 4 * se
    if dt == 0.01:  # the bias is about 19 standard errors: a test that can see it
        assert math.sqrt(2 / math.pi) - mean > 10 * se


AGP = 0.5825971579390106  # -zeta(1/2) / sqrt(2 pi), the Asmussen-Glynn-Pitman constant


def normal_cdf(z):
    return 0.5 * math.erfc(-z / math.sqrt(2))


def spitzer_mean(mu, sigma, dt, horizon=1.0):
    """E[X_n] of projected Euler from 0 on [0, inf), drift mu, noise sigma:
    the Lindley recursion X_k = max(X_{k-1} + xi_k, 0), so X_n is the
    running maximum of the walk S_k, and by Spitzer's identity E[X_n] =
    sum_{k <= n} E[S_k^+] / k, S_k ~ N(k mu dt, k sigma^2 dt)."""
    total = 0.0
    for k in range(1, round(horizon / dt) + 1):
        m, s = k * mu * dt, sigma * math.sqrt(k * dt)
        density = math.exp(-(m / s) ** 2 / 2) / math.sqrt(2 * math.pi)
        total += (m * normal_cdf(m / s) + s * density) / k
    return total


def harrison_mean(mu, sigma, t=1.0):
    """E[Z_t] from 0 of Brownian motion with drift mu and noise sigma
    reflected at 0: the integral over y > 0 of P_0(Z_t > y), which by
    Harrison (1985, section 1.8) is Phi-bar((y - mu t) / (sigma sqrt t))
    + e^(2 mu y / sigma^2) Phi((-y - mu t) / (sigma sqrt t)), by 200-node
    Gauss-Legendre on a finite range, past which the integrand is below
    1e-80 and e^(2 mu y / sigma^2) stays far from overflow."""
    st = sigma * math.sqrt(t)
    upper = abs(mu) * t + 20 * st
    nodes, weights = np.polynomial.legendre.leggauss(200)
    total = 0.0
    for node, weight in zip(nodes.tolist(), weights.tolist()):
        y = upper * (node + 1) / 2
        tail = (normal_cdf((mu * t - y) / st)
                + math.exp(2 * mu * y / sigma**2) * normal_cdf((-y - mu * t) / st))
        total += weight * tail
    return total * upper / 2


@pytest.mark.parametrize("mu", [-0.5, 0.5])
def test_spitzer_means_approach_harrison_like_root_dt(mu):
    """No Monte Carlo: the scheme's exact mean falls short of the continuum
    mean by AGP sqrt(dt) - O(dt), the drift-free constant; by Spitzer's
    identity the means at mu and -mu differ by mu T exactly."""
    target = harrison_mean(mu, 1.0)
    assert target - harrison_mean(-mu, 1.0) == pytest.approx(mu, abs=1e-12)
    for dt in (0.01, 0.0025, 0.000625, 0.00015625):
        gap = target - spitzer_mean(mu, 1.0, dt)
        assert abs(gap / math.sqrt(dt) - AGP) <= 0.3 * math.sqrt(dt)


@pytest.mark.parametrize("mu", [-0.5, 0.5])
@pytest.mark.parametrize("dt, n", [(0.01, 2 * 10**4), (0.0025, 10**4)])
def test_reflected_drifted_brownian_motion_mean(dt, n, mu):
    """Projected Euler for Brownian motion with drift mu reflected at 0
    from 0, T = 1: the terminal mean is the Spitzer sum.  At dt = 0.01 the
    sum is over 8 standard errors short of Harrison's continuum mean, so
    the 4-error tolerance cannot take the continuum mean for the scheme's."""
    model = ReflectedJumpSDE(
        dimension=1,
        drift=lambda state, u: np.full_like(state, mu),
        diffusion=lambda state: 1.0,
        domain=ReflectionDomain.half_line(0.0, 1),
        x0=np.array([0.0]),
    )
    result = simulate_ensemble(model, uniform_grid(dt, 1.0), n, 11)
    mean, se = result.terminal_mean[0], math.sqrt(result.terminal_variance[0] / n)
    expected = spitzer_mean(mu, 1.0, dt)
    assert abs(mean - expected) <= 4 * se
    if dt == 0.01:
        assert harrison_mean(mu, 1.0) - expected > 8 * se


def harrison_cdf(y, mu, sigma, t=1.0):
    """P_0(Z_t <= y) of Brownian motion with drift mu and noise sigma
    reflected at 0, by Harrison (1985, section 1.8)."""
    st = sigma * math.sqrt(t)
    return (normal_cdf((y - mu * t) / st)
            - math.exp(2 * mu * y / sigma**2) * normal_cdf((-y - mu * t) / st))


@pytest.mark.parametrize("mu", [-0.5, 0.5])
def test_reflected_drifted_brownian_motion_quartiles(mu):
    """Projected Euler for Brownian motion with drift mu reflected at 0
    from 0, T = 1, dt = 1/256: X_n has the law of the running maximum of
    the walk S_k, which falls short of the continuum maximum by AGP sigma
    sqrt(dt) in the Asmussen-Glynn-Pitman limit.  So the empirical CDF at
    each quartile y of Harrison's law matches that law at y + AGP sigma
    sqrt(dt), within 4 standard errors; unshifted, some quartile is 5 or
    more standard errors off."""
    sigma, dt, n = 1.0, 1 / 256, 2 * 10**4
    model = ReflectedJumpSDE(
        dimension=1,
        drift=lambda state, u: np.full_like(state, mu),
        diffusion=lambda state: sigma,
        domain=ReflectionDomain.half_line(0.0, 1),
        x0=np.array([0.0]),
    )
    record, _ = _step_streams(model, uniform_grid(dt, 1.0), 12, range(n), "end_of_step", keep=0)
    terminal = record.terminal[:, 0]
    for p in (0.25, 0.5, 0.75):
        lo, hi = 0.0, abs(mu) + 10 * sigma  # bisect for Harrison's p-quantile
        for _ in range(60):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if harrison_cdf(mid, mu, sigma) < p else (lo, mid)
        expected = harrison_cdf(lo + AGP * sigma * math.sqrt(dt), mu, sigma)
        se = math.sqrt(expected * (1 - expected) / n)
        assert abs(np.mean(terminal <= lo) - expected) <= 4 * se, p


def _ou(state, u):
    return -state


MONOTONE_MODELS = {  # name: (drift, domain, x0, jump law or None)
    "ou_unreflected": (_ou, ReflectionDomain.unreflected(1), 0.3, None),
    "brownian_half_line": (lambda state, u: np.zeros_like(state),
                           ReflectionDomain.half_line(0.0, 1), 0.0, None),
    "ou_half_line_jumps": (_ou, ReflectionDomain.half_line(0.0, 1), 0.2,
                           CompoundPoissonSpec(3.0, JumpSizeDist.exponential(0.5))),
    "ou_unit_interval": (_ou, ReflectionDomain(((0.0, 1.0),)), 0.5, None),
}


@pytest.mark.parametrize("name", MONOTONE_MODELS)
def test_stability_exact_on_monotone_1d_models(name):
    """d = 1 under common noise: the Euler map x -> x + f(x) dt is increasing
    and non-expanding here (f = -x or 0, dt < 1), the noise and the jumps
    shift the reference and the perturbed path alike, and a 1-d reflection is
    monotone and 1-Lipschitz.  So the gap between the two paths never grows,
    its maximum is the initial offset, and the experiment reports errors
    equal to the perturbation sizes, up to rounding, and a slope of 1."""
    drift, domain, x0, jumps = MONOTONE_MODELS[name]
    model = ReflectedJumpSDE(
        dimension=1,
        drift=drift,
        diffusion=lambda state: 0.7,
        domain=domain,
        x0=np.array([x0]),
        jump_coeff=None if jumps is None else (lambda state: 1.0),
        jump_specs=None if jumps is None else (jumps,),
    )
    report = stability_experiment(model, uniform_grid(0.01, 1.0), (0.1, 0.01, 0.001), 500, 17)
    assert report.perturbation_sizes == pytest.approx((0.1**2, 0.01**2, 0.001**2), rel=1e-15)
    np.testing.assert_allclose(report.errors, report.perturbation_sizes, rtol=1e-12, atol=0)
    assert abs(report.fitted_slope - 1.0) <= 1e-12


def test_convergence_order_half_on_reflected_brownian_motion():
    """Brownian motion reflected at 0 from 0, no drift: the projected scheme
    is the Lindley recursion X_n = W_n - min_{k <= n} W_k, so a level's
    terminal error against the reference is the gap between the minima of
    W on two nested grids, Theta(sqrt(dt)) by Asmussen, Glynn and Pitman.
    The reference, 2**3 finer than the finest level, pulls the fitted order
    a little above 1/2."""
    model = ReflectedJumpSDE(
        dimension=1,
        drift=lambda state, u: np.zeros_like(state),
        diffusion=lambda state: 1.0,
        domain=ReflectionDomain.half_line(0.0, 1),
        x0=np.array([0.0]),
    )
    report = strong_convergence_experiment(model, range(4, 10), 2000, 5, 1.0)
    assert 0.45 <= report.empirical_order <= 0.65


def test_ou_current_moments():
    """The Euler recursion of the OU current on a uniform grid of step h,
    v_{k+1} = a v_k + mu h + sigma dW_k with a = 1 - h / gamma, is linear
    and Gaussian: E v_n = v0 a^n + mu h (1 - a^n) / (1 - a) and
    Var v_n = sigma^2 h (1 - a^{2n}) / (1 - a^2), exactly, at every point."""
    params, h, n = OUParams(mu=0.5, gamma=0.5, sigma=0.3, v0=1.0), 0.1, 2 * 10**4
    grid = uniform_grid(h, 40 * h)
    v = sample_ou_paths([rng for (rng,) in stream_rngs(9, range(n), [4])], params, grid)
    a, k = 1.0 - h / params.gamma, np.arange(grid.times.size)
    mean = params.v0 * a**k + params.mu * h * (1.0 - a**k) / (1.0 - a)
    var = params.sigma**2 * h * (1.0 - a ** (2 * k)) / (1.0 - a**2)
    assert np.all(v[0] == params.v0)
    assert np.all(np.abs(v[1:].mean(axis=1) - mean[1:]) <= 4 * np.sqrt(var[1:] / n))
    # the sample variance of a Gaussian has standard error Var sqrt(2 / (n - 1))
    assert np.all(np.abs(v[1:].var(axis=1, ddof=1) - var[1:])
                  <= 4 * var[1:] * math.sqrt(2 / (n - 1)))
