"""End-to-end acceptance checks, one per criterion, each with an explicit
pass/fail line and a runtime budget where one applies."""
import time

import numpy as np
import pytest
from scipy import stats

from skorokhod_sde import (
    CompoundPoissonSpec,
    JumpSizeDist,
    ScenarioConfig,
    SeedSpec,
    WilsonCowanParams,
    check_jump_coefficient_bound,
    estimate_lipschitz_constant,
    make_scenario,
    reflect_stream_1d,
    sample_compound_poisson_arrays,
    sigmoid_F,
    simulate_trajectory,
    stability_experiment,
    strong_convergence_experiment,
    uniform_grid,
)
from skorokhod_sde.cli import main
from test_engine import all_states
from test_skorokhod import minimal_push_oracle


def report(num, desc, ok):
    print(f"criterion {num} ({desc}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {desc}"


def scenario_model(mode, horizon=100.0, **kw):
    config = ScenarioConfig(
        input_mode=mode,
        jumps=CompoundPoissonSpec(
            0.5 if mode == "ou_reflected_jumps" else 0.0,
            JumpSizeDist.exponential(1.0),
        ),
        **kw,
    )
    return make_scenario(config), uniform_grid(0.1, horizon)


def test_criterion_1_skorokhod_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    n_paths, length = 1000, 10**4
    w = np.cumsum(rng.standard_normal((n_paths, length)) * 0.4, axis=1)
    w -= np.minimum(w[:, :1], 0.0)

    phi_batch = np.maximum(-np.minimum.accumulate(w, axis=1), 0.0)
    xi_batch = w + phi_batch

    containment_violations = int(np.sum(xi_batch < 0.0))
    dphi = np.diff(phi_batch, axis=1)
    complementarity = float(
        np.max(dphi * (xi_batch[:, 1:] > 1e-12), initial=0.0)
    )

    scans_agree = True
    for row in range(n_paths):
        xi_s, phi_s = reflect_stream_1d(w[row], 0.0)
        if not (np.array_equal(xi_s, xi_batch[row])
                and np.array_equal(phi_s, phi_batch[row])
                and np.array_equal(minimal_push_oracle(w[row]), phi_batch[row])):
            scans_agree = False
            break

    # non-anticipation on a handful of paths: a prefix's map is the map's prefix
    prefixes_agree = True
    for row in range(5):
        for k in (1, 2, 10, 1000, length - 1):
            xi_k, phi_k = reflect_stream_1d(w[row, :k], 0.0)
            if not (np.array_equal(xi_k, xi_batch[row, :k])
                    and np.array_equal(phi_k, phi_batch[row, :k])):
                prefixes_agree = False

    # minimality: every admissible nondecreasing candidate dominates phi
    minimal = True
    for row in range(0, n_paths, 20):
        for _ in range(10):
            extra = np.cumsum(rng.uniform(0.0, 0.05, size=length))
            candidate = phi_batch[row] + extra - extra[0]
            if not np.all(phi_batch[row] <= candidate + 1e-15):
                minimal = False

    elapsed = time.perf_counter() - start
    report(
        1, "Skorokhod map exactness",
        scans_agree and prefixes_agree and minimal
        and containment_violations == 0 and complementarity <= 1e-12
        and elapsed < 10.0,
    )


def test_criterion_2_compound_poisson_law():
    start = time.perf_counter()
    reps = 10**5
    ok = True
    for combo_idx, (alpha, horizon) in enumerate([(1.0, 1.0), (2.0, 5.0), (10.0, 0.5)]):
        spec = CompoundPoissonSpec(alpha, JumpSizeDist.exponential(1.0))
        lam = alpha * horizon
        counts = np.empty(reps, dtype=int)
        totals = np.empty(reps)
        for i in range(reps):
            times, sizes = sample_compound_poisson_arrays(
                SeedSpec(combo_idx, i).rng(), spec, horizon
            )
            counts[i] = times.size
            totals[i] = sizes.sum()

        kmax = int(stats.poisson.ppf(1.0 - 1e-9, lam)) + 1
        pmf = stats.poisson.pmf(np.arange(kmax), lam)
        expected = pmf * reps
        keep = expected >= 5.0
        observed = np.bincount(counts, minlength=kmax)[:kmax].astype(float)
        obs = np.append(observed[keep], reps - observed[keep].sum())
        exp = np.append(expected[keep], reps - expected[keep].sum())
        p_value = stats.chisquare(obs, exp).pvalue
        ok = ok and p_value > 0.001

        se = totals.std(ddof=1) / np.sqrt(reps)
        ok = ok and abs(totals.mean() - lam * 1.0) < 3.0 * se

    elapsed = time.perf_counter() - start
    report(2, "compound Poisson count law and mean", ok and elapsed < 30.0)


def test_criterion_3_stability():
    start = time.perf_counter()
    model, _ = scenario_model("ou_reflected_jumps")
    grid = uniform_grid(0.1, 20.0)
    rep = stability_experiment(model, grid, [1e-1, 1e-2, 1e-3], 1000, 42)
    elapsed = time.perf_counter() - start
    decreasing = all(a > b for a, b in zip(rep.errors, rep.errors[1:]))
    report(
        3, "initial-condition stability slope",
        decreasing and rep.fitted_slope >= 0.9 and elapsed < 120.0,
    )


def test_criterion_4_dyadic_convergence():
    start = time.perf_counter()
    model, _ = scenario_model("ou_reflected", horizon=20.0)
    rep = strong_convergence_experiment(model, range(4, 10), 200, 42, 20.0)
    elapsed = time.perf_counter() - start
    errs = rep.rms_errors
    monotone = all(a > b for a, b in zip(errs, errs[1:]))
    report(
        4, "dyadic scheme strong convergence",
        monotone and errs[-1] < 0.25 * errs[0] and elapsed < 120.0,
    )


def test_criterion_5_resting_state():
    params = WilsonCowanParams(sigma_ext_E=0.0, sigma_ext_I=0.0)
    model, grid = scenario_model("white_noise", params=params)
    bundle = simulate_trajectory(model, grid, master_seed=0)
    report(
        5, "deterministic resting state stays at the origin",
        float(np.max(np.abs(bundle.states))) <= 1e-14
        and not bundle.phi.any(),
    )


def test_criterion_6_reflection_effect():
    n_seeds = 100
    unref_model, grid = scenario_model("ou_current")
    refl_model, _ = scenario_model("ou_reflected")
    unref_states = all_states(unref_model, grid, 0, n_seeds)
    refl_states = all_states(refl_model, grid, 0, n_seeds)
    unref_mins = unref_states.min(axis=(0, 2))
    refl_mins = refl_states.min(axis=(0, 2))
    frac_negative = float(np.mean(unref_mins < 0.0))
    report(
        6, "reflection keeps rates nonnegative, free dynamics go negative",
        frac_negative >= 0.9 and float(np.min(refl_mins)) >= 0.0,
    )


def test_criterion_7_jump_effect_direction():
    n_seeds = 100
    jump_model, grid = scenario_model("ou_reflected_jumps")
    plain_model, _ = scenario_model("ou_reflected")
    jump_states = all_states(jump_model, grid, 0, n_seeds)
    plain_states = all_states(plain_model, grid, 0, n_seeds)
    jump_peak = jump_states[:, :, 0].max(axis=0).mean()
    plain_peak = plain_states[:, :, 0].max(axis=0).mean()
    report(
        7, "jumps raise the mean peak excitatory rate",
        jump_peak > plain_peak,
    )


def test_criterion_8_assumption_validators():
    a = 1.2
    sig_est = estimate_lipschitz_constant(
        lambda x: sigmoid_F(x[:, 0], 2.8, a),
        (np.array([-10.0]), np.array([15.0])),
        n_samples=10**5,
    )
    ok = sig_est <= a / 4.0 + 1e-3

    box = (np.zeros(2), np.ones(2))
    spec_exp = CompoundPoissonSpec(1.0, JumpSizeDist.exponential(1.0))
    spec_const = CompoundPoissonSpec(1.0, JumpSizeDist.constant(1.0))

    zero = check_jump_coefficient_bound(
        lambda x, xi: np.zeros_like(xi), spec_exp, box, n_samples=10**5
    )
    ok = ok and zero.c_rho == 0.0 and zero.passed

    const = check_jump_coefficient_bound(
        lambda x, xi: xi, spec_const, box, n_samples=10**5
    )
    ok = ok and const.lipschitz_ratio == 0.0
    ok = ok and 0.95 <= const.growth_ratio <= 1.0 + 1e-12

    linear = check_jump_coefficient_bound(
        lambda x, xi: xi[:, None] * x[None, :], spec_exp, box, n_samples=10**5
    )
    ok = ok and abs(linear.lipschitz_ratio - 2.0) <= 0.05 * 2.0

    report(8, "Lipschitz and jump-coefficient validators", ok)


def test_criterion_9_end_to_end_determinism(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["--seed", "42", "--out", str(out_a), "panels"]) == 0
    assert main(["--seed", "42", "--out", str(out_b), "panels"]) == 0
    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    identical = names_a == names_b and len(names_a) > 0 and all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in names_a
    )
    report(9, "panels runs are byte-identical under a fixed seed", identical)
