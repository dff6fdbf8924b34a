"""Shared test oracles, generators and the environment of fresh processes.

The GP oracles here are intentionally naive: a scalar kernel, and the
explicit inverse of the regularized Gram matrix with dense linear algebra,
exercising none of the production code paths beyond the kernel definition
itself. The plant oracles are the per-step plant and run loop as they were
written before ``simulator.step`` advanced a whole replan interval.
"""

import importlib.util
import math
import os
from pathlib import Path

import numpy as np

import frictionfusion
from frictionfusion import simulator
from frictionfusion.estimators import FrictionProfile, LocalEstimator, classify, emulate
from frictionfusion.fusion import SGrid
from frictionfusion.planner import GRAVITY, PlannerMemory, plan

ORACLE_JITTER = 1e-10


def kernel_eval(kernel, x_i, x_j):
    """Covariance between two arc-length positions, one pair at a time."""
    d = float(x_i) - float(x_j)
    s2 = kernel.sigma_f * kernel.sigma_f
    return s2 * float(np.exp(-0.5 * d * d / (kernel.length_scale * kernel.length_scale)))


def naive_gram(xs_a, xs_b, sigma_f, length_scale):
    diff = np.subtract.outer(np.asarray(xs_a, float), np.asarray(xs_b, float))
    return sigma_f**2 * np.exp(-0.5 * (diff / length_scale) ** 2)


def naive_posterior(prior, locations, values, noise_std, test_locations):
    """Explicit-inverse posterior mean and covariance."""
    xs = np.asarray(locations, float)
    ys = np.asarray(values, float)
    sy = np.asarray(noise_std, float)
    x_star = np.asarray(test_locations, float)
    sf = prior.kernel.sigma_f
    ls = prior.kernel.length_scale
    k_star = naive_gram(x_star, x_star, sf, ls)
    if len(xs) == 0:
        return np.full(len(x_star), prior.mean), k_star
    gram = naive_gram(xs, xs, sf, ls) + np.diag(sy**2) + ORACLE_JITTER * np.eye(len(xs))
    inv = np.linalg.inv(gram)
    cross = naive_gram(x_star, xs, sf, ls)
    mean = prior.mean + cross @ inv @ (ys - prior.mean)
    cov = k_star - cross @ inv @ cross.T
    return mean, cov


def naive_lcb(prior, locations, values, noise_std, test_locations):
    mean, cov = naive_posterior(prior, locations, values, noise_std, test_locations)
    return mean - 1.96 * np.sqrt(np.clip(np.diag(cov), 0.0, None))


def random_gp_case(rng, max_obs=30, max_test=60):
    """Random kernel/observations/test-grid tuple for oracle comparisons."""
    sigma_f = rng.uniform(0.05, 1.0)
    length_scale = rng.uniform(1.0, 50.0)
    mean = rng.uniform(0.2, 1.0)
    n = rng.randint(0, max_obs + 1)
    locations = rng.uniform(0.0, 50.0, n)
    values = rng.uniform(0.1, 1.2, n)
    noise = rng.uniform(0.0, 0.3, n)
    n_test = rng.randint(1, max_test + 1)
    test = rng.uniform(0.0, 50.0, n_test)
    return mean, sigma_f, length_scale, locations, values, noise, test


def random_profile(rng, first_transition_at_least=18.0, min_segment=15.0):
    """Random piecewise friction profile with classifiable levels.

    Segments are long relative to the fusion correlation length and the
    first transition clears the local-influence zone, so class-interior
    points exist on every draw; GP smoothing makes any conservatism bound
    vacuous inside a transition's blending zone.
    """
    n_transitions = rng.randint(0, 4)
    points = np.sort(rng.uniform(first_transition_at_least, 50.0, n_transitions))
    segments = [(-1e6, rng.uniform(0.1, 1.2))]
    last = -1e6
    for p in points:
        if p - last < min_segment:
            continue
        segments.append((float(p), rng.uniform(0.1, 1.2)))
        last = p
    return FrictionProfile(tuple(segments))


def fresh_process_env(drop=(), **variables):
    """``os.environ`` without ``drop``, plus ``variables``, for a new
    interpreter that imports the package these tests import."""
    src = str(Path(frictionfusion.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env.update(variables)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def load_workloads():
    """``perfbench/workloads.py``, loaded by file path (perfbench is no package)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reference_index_at(trajectory, s):
    """Grid index of the plan nearest ``s``, clamped to the plan."""
    idx, last = round((s - trajectory.s_anchor) / trajectory.ds), len(trajectory.positions) - 1
    return 0 if idx < 0 else last if idx > last else idx


def reference_demand_at(trajectory, i, v):
    """Planar acceleration demand at grid index i at speed v: ``a_long`` and
    the effective-curvature tracking term, clipped to ``lat_bound``."""
    lat = v * v * trajectory.kappa_eff.item(i)
    bound = trajectory.lat_bound.item(i)
    if lat > bound:
        lat = bound
    elif lat < -bound:
        lat = -bound
    return trajectory.a_long.item(i), lat


def reference_step(state, trajectory, profile, dt):
    """One Euler step of the plant, building a ``VehicleState``."""
    if not 0.0 < dt <= simulator.MAX_SIM_DT:
        raise ValueError(f"sim_dt must lie in (0, {simulator.MAX_SIM_DT}], got {dt}")
    i = reference_index_at(trajectory, state.s)
    a_long_dem, a_lat_dem = reference_demand_at(trajectory, i, state.v)
    mu_gt = profile.mu_at(state.s)
    limit = mu_gt * GRAVITY
    demand = math.hypot(a_long_dem, a_lat_dem)
    lam = min(1.0, demand / limit) if limit > 0.0 else 1.0
    scale = 1.0 if demand <= limit else limit / demand
    a_long = a_long_dem * scale
    a_lat = a_lat_dem * scale
    drift_accel = a_lat - state.v**2 * trajectory.kappa_path.item(i)
    new_state = simulator.VehicleState(
        s=state.s + state.v * dt,
        d=state.d + state.d_rate * dt,
        v=max(0.0, state.v + a_long * dt),
        t=state.t + dt,
        d_rate=state.d_rate + drift_accel * dt,
    )
    return new_state, lam


def reference_run(scenario, config, local_error=0.0, replan_dt=simulator.REPLAN_DT,
                  sim_dt=simulator.SIM_DT, grid=None):
    """``simulator.run`` stepping the plant one ``reference_step`` at a time and
    checking the obstacle and the end of the run after every step."""
    substeps = simulator.replan_substeps(replan_dt, sim_dt)
    grid = grid if grid is not None else SGrid()
    approach = classify(scenario.profile.mu_at(scenario.initial.s - 1e-6))
    estimator = LocalEstimator(e_l=local_error, initial_estimate=approach.mean)
    memory = PlannerMemory()
    fused_memo = {}
    profile, end_s, obstacle = scenario.profile, scenario.end_s, scenario.obstacle
    state = scenario.initial
    lam = 0.0
    replans = []
    rows = []
    clearance = math.nan
    impact_velocity = 0.0
    running = True
    while running:
        report = emulate(config, profile.shifted(-state.s), grid, lam, estimator,
                         memo=fused_memo)
        trajectory = plan(state, scenario, report.mu_hat, grid, memory=memory)
        replans.append(simulator.ReplanRecord(
            t=len(replans) * replan_dt, s=state.s, lambda_t=lam,
            local_available=report.local_available, feasible=trajectory.feasible,
            utilization=report.mu_hat[0] / profile.mu_at(state.s), mu_hat=report.mu_hat,
            series=report.series, fused=report.fused))
        d_ref = trajectory.d_ref.tolist()
        for _ in range(substeps):
            prev = state
            state, lam = reference_step(state, trajectory, profile, sim_dt)
            rows.append((state.t, state.s, state.d, state.v, lam,
                         d_ref[reference_index_at(trajectory, state.s)]))
            if obstacle is not None and prev.s < obstacle[0] <= state.s:
                s_obs, half_width = obstacle
                frac = (s_obs - prev.s) / (state.s - prev.s)
                clearance = abs(prev.d + frac * (state.d - prev.d)) - half_width
                if clearance <= 0.0:
                    impact_velocity = prev.v + frac * (state.v - prev.v)
            if clearance <= 0.0 or state.s >= end_s or state.t >= simulator.TIME_LIMIT:
                running = False
                break
    trace = dict(zip(simulator.TRACE_COLUMNS, np.array(rows).T.copy()))
    trace["outcome"], metrics = simulator._score(scenario, trace, replans, clearance,
                                                 impact_velocity)
    return simulator.ScenarioResult(
        scenario=scenario, grid=grid, config_kind=config.kind, local_error=local_error,
        trace=trace, replans=replans, metrics=metrics)
