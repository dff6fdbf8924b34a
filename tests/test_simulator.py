import dataclasses
import math

import numpy as np
import pytest

from frictionfusion import fusion
from frictionfusion.estimators import Configuration, FrictionProfile
from frictionfusion.planner import GRAVITY, PlannedTrajectory
from frictionfusion.simulator import (
    TIME_LIMIT,
    Scenario,
    VehicleState,
    collision_scenario,
    replan_substeps,
    run,
    step,
    turn_scenario,
)


def flat_plan(n=51, ds=1.0, v=10.0, a_long=0.0, kappa_eff=0.0, kappa_path=0.0,
              lat_bound=20.0):
    arr = np.full(n, float(v))
    return PlannedTrajectory(
        s_anchor=0.0,
        ds=ds,
        positions=np.arange(n) * ds,
        d_ref=np.zeros(n),
        v=arr,
        a_long=np.full(n, float(a_long)),
        kappa_eff=np.full(n, float(kappa_eff)),
        lat_bound=np.full(n, float(lat_bound)),
        kappa_path=np.full(n, float(kappa_path)),
        feasible=True,
    )


class TestStep:
    def test_zero_demand_advances_along_path_only(self):
        state = VehicleState(s=3.0, d=0.2, v=10.0, t=1.0)
        plan_ = flat_plan(v=10.0)
        new, lam = step(state, plan_, FrictionProfile(((-1e6, 0.8),)), 0.01)
        assert new.s == pytest.approx(3.0 + 10.0 * 0.01)
        assert new.d == pytest.approx(0.2)
        assert new.v == pytest.approx(10.0)
        assert lam == 0.0

    def test_half_utilization_follows_plan_exactly(self):
        mu_gt = 0.8
        kappa = 0.5 * mu_gt * GRAVITY / 100.0
        state = VehicleState(s=0.0, d=0.0, v=10.0, t=0.0)
        plan_ = flat_plan(v=10.0, kappa_eff=kappa, kappa_path=kappa)
        new, lam = step(state, plan_, FrictionProfile(((-1e6, mu_gt),)), 0.01)
        assert lam == pytest.approx(0.5, abs=1e-12)
        assert new.d_rate == pytest.approx(0.0, abs=1e-12)
        assert new.v == pytest.approx(10.0)

    def test_saturation_preserves_direction_and_drifts(self):
        mu_gt = 0.4
        kappa = 2.0 * mu_gt * GRAVITY / 100.0
        state = VehicleState(s=0.0, d=0.0, v=10.0, t=0.0)
        plan_ = flat_plan(v=10.0, kappa_eff=kappa, kappa_path=kappa)
        new, lam = step(state, plan_, FrictionProfile(((-1e6, mu_gt),)), 0.01)
        assert lam == 1.0
        # applied lateral is half the centripetal need, the rest is drift
        assert new.d_rate == pytest.approx(-mu_gt * GRAVITY * 0.01, abs=1e-12)

    def test_dt_bounds(self):
        state = VehicleState(s=0.0, d=0.0, v=10.0, t=0.0)
        with pytest.raises(ValueError):
            step(state, flat_plan(), FrictionProfile(((-1e6, 0.8),)), 0.06)

    def test_speed_never_negative(self):
        state = VehicleState(s=0.0, d=0.0, v=0.01, t=0.0)
        plan_ = flat_plan(v=0.0, a_long=-5.0)
        new, _ = step(state, plan_, FrictionProfile(((-1e6, 0.8),)), 0.01)
        assert new.v >= 0.0


class TestVehicleState:
    def test_speed_validated(self):
        with pytest.raises(ValueError):
            VehicleState(s=0.0, d=0.0, v=-1.0, t=0.0)


class TestScenarioDefinitions:
    def test_turn_geometry(self):
        scen = turn_scenario()
        assert scen.initial.v == 12.0
        assert scen.profile.mu_at(-1.0) == 0.8
        assert scen.profile.mu_at(0.0) == 0.4
        assert scen.curvature_at(10.0) == 0.0
        assert abs(scen.curvature_at(20.0)) == pytest.approx(1.0 / 20.0)
        arc = 0.5 * np.pi * 20.0
        assert scen.curvature_at(15.0 + arc + 0.1) == 0.0

    def test_collision_geometry(self):
        scen = collision_scenario()
        assert scen.initial.v == 20.0
        assert scen.profile.mu_at(10.0) == 1.0
        assert scen.obstacle == (20.0, 1.0)
        assert scen.curvature_at(5.0) == 0.0

    def test_nonpositive_lane_half_width_rejected(self):
        with pytest.raises(ValueError, match="lane_half_width"):
            collision_scenario(lane_half_width=0.0)

    def test_nonpositive_turn_radius_rejected(self):
        with pytest.raises(ValueError, match="turn_radius"):
            turn_scenario(turn_radius=0.0)

    @pytest.mark.parametrize("build, name, value", [
        (turn_scenario, "turn_radius", np.inf),
        (turn_scenario, "lane_half_width", np.inf),
        (collision_scenario, "lane_half_width", np.inf),
        (collision_scenario, "lane_half_width", np.nan),
    ])
    def test_non_finite_geometry_rejected(self, build, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite and > 0, got {value}"):
            build(**{name: value})

    def test_curvature_on_matches_curvature_at(self):
        scenario = Scenario(
            name="s-bend", path=((0.0, 0.0), (10.0, 0.05), (12.5, -0.1), (30.0, 0.0)),
            profile=FrictionProfile(((-1e6, 0.8),)),
            initial=VehicleState(s=0.0, d=0.0, v=10.0, t=0.0), lane_half_width=1.75,
            target_speed=10.0, end_s=50.0,
            maneuver_window=(10.0, 30.0))
        starts = np.array([s for s, _ in scenario.path])
        pts = np.concatenate([np.linspace(-20.0, 60.0, 801), starts,
                              np.nextafter(starts, -np.inf), np.nextafter(starts, np.inf)])
        np.testing.assert_array_equal(scenario.curvature_on(pts),
                                      [scenario.curvature_at(s) for s in pts])


class TestFusedMemo:
    def test_posterior_once_per_distinct_series_and_per_run(self, monkeypatch):
        calls = []
        real = fusion.posterior

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(fusion, "posterior", counting)
        first = run(turn_scenario(), Configuration("f"), local_error=0.025)
        distinct = {(r.series.mu_prime.tobytes(), r.series.margin.tobytes())
                    for r in first.replans}
        assert len(first.replans) > len(distinct) == 2
        assert len(calls) == 2
        run(turn_scenario(), Configuration("f"), local_error=0.025)
        assert len(calls) == 4


def _reachable_arrays(obj, seen):
    """Every array reachable from ``obj`` through instance attributes,
    containers and array bases."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
        children = [obj.base]
    elif isinstance(obj, (list, tuple)):
        children = obj
    elif isinstance(obj, dict):
        children = obj.values()
    elif hasattr(obj, "__dict__") and not isinstance(obj, type):
        children = vars(obj).values()
    else:
        return
    for child in children:
        yield from _reachable_arrays(child, seen)


class TestRetainedMemory:
    @pytest.mark.parametrize("kind", ["gt", "l", "p", "f"])
    def test_replans_keep_no_matrix(self, kind):
        result = run(turn_scenario(), Configuration(kind), local_error=0.025)
        arrays = list(_reachable_arrays(result.replans, set()))
        assert len(arrays) >= len(result.replans)
        assert [a.shape for a in arrays if a.ndim != 1] == []


class TestRunValidation:
    def test_replan_must_be_multiple_of_sim_dt(self):
        with pytest.raises(ValueError):
            run(turn_scenario(), Configuration("gt"), replan_dt=0.1, sim_dt=0.03)

    def test_sim_dt_checked_before_running(self):
        with pytest.raises(ValueError, match="sim_dt"):
            run(turn_scenario(), Configuration("gt"), replan_dt=0.06, sim_dt=0.06)

    def test_replan_shorter_than_one_step_rejected(self):
        with pytest.raises(ValueError, match="replan_dt"):
            run(turn_scenario(), Configuration("gt"), replan_dt=1e-10, sim_dt=0.01)


    @pytest.mark.parametrize("replan_dt", [np.inf, np.nan])
    def test_non_finite_replan_interval_rejected(self, replan_dt):
        with pytest.raises(ValueError, match=f"replan_dt must be finite and > 0, got {replan_dt}"):
            replan_substeps(replan_dt, 0.01)


class TestTurnRuns:
    def test_ground_truth_stays_in_lane(self):
        result = run(turn_scenario(), Configuration("gt"), local_error=0.025)
        assert result.metrics.outcome == "ok"
        assert result.metrics.max_abs_d <= 1.75

    def test_local_only_departs_then_recovers(self):
        result = run(turn_scenario(), Configuration("l"), local_error=0.025)
        assert result.metrics.outcome == "lane_departure"
        assert result.metrics.max_abs_d > 1.75
        d = result.trace["d"]
        assert abs(d[-1]) < result.metrics.max_abs_d - 2.0

    def test_local_becomes_available_when_cornering_starts(self):
        result = run(turn_scenario(), Configuration("l"), local_error=0.025)
        first = next(r for r in result.replans if r.local_available)
        assert 14.0 <= first.s <= 18.0

    def test_vehicle_that_stops_short_times_out(self):
        stopping = dataclasses.replace(turn_scenario(), target_speed=0.0)
        result = run(stopping, Configuration("gt"))
        assert result.metrics.outcome == "timeout"
        assert result.trace["outcome"][-1] == "timeout"
        assert "timeout" not in result.trace["outcome"][:-1]
        assert result.metrics.duration >= TIME_LIMIT
        assert result.trace["s"][-1] < stopping.end_s


class TestCollisionRuns:
    def test_predictive_only_collides_in_band(self):
        result = run(collision_scenario(), Configuration("p"), local_error=-0.025)
        assert result.metrics.outcome == "collision"
        assert 15.0 <= result.metrics.impact_velocity <= 19.0

    def test_fused_clears_with_positive_margin(self):
        result = run(collision_scenario(), Configuration("f"), local_error=-0.025)
        assert result.metrics.outcome == "ok"
        assert result.metrics.min_clearance > 0.0

    def test_collision_outranks_an_earlier_lane_departure(self):
        # On a narrow lane the predictive-only dodge leaves the lane before it
        # reaches the obstacle: the column reads lane_departure from there on,
        # and the collision, which ends the run, takes the last step.
        result = run(collision_scenario(lane_half_width=0.8), Configuration("p"))
        outcomes = result.trace["outcome"]
        assert len(outcomes) == 111
        assert outcomes[:86] == ["ok"] * 86
        assert outcomes[86:110] == ["lane_departure"] * 24
        assert outcomes[110] == "collision"
        assert result.metrics.outcome == "collision"
        assert result.metrics.max_abs_d > 0.8
        assert result.metrics.min_clearance <= 0.0

    def test_predictive_never_saturates_the_plant(self):
        result = run(collision_scenario(), Configuration("p"), local_error=-0.025)
        assert result.trace["lambda"].max() <= 0.6 + 1e-9


def per_step_score(scenario, trace, collided):
    """Reference scorer: the outcome and metrics kept step by step in a loop.

    ``collided`` says whether the run ended at the obstacle, which can only
    happen on its last step.
    """
    max_abs_d, v_entry, current, outcomes = abs(scenario.initial.d), math.nan, "ok", []
    last = len(trace["t"]) - 1
    for i, (t, s, d, v) in enumerate(zip(*(trace[k].tolist() for k in ("t", "s", "d", "v")))):
        max_abs_d = max(max_abs_d, abs(d))
        if math.isnan(v_entry) and s >= scenario.maneuver_window[0]:
            v_entry = v
        if collided and i == last:
            current = "collision"
        elif max_abs_d > scenario.lane_half_width:
            current = "lane_departure"
        elif t >= TIME_LIMIT and s < scenario.end_s:
            current = "timeout"
        outcomes.append(current)
    return outcomes, max_abs_d, v_entry


class TestScore:
    @pytest.mark.parametrize("scenario, kind, error", [
        (turn_scenario(), "l", 0.025),
        (turn_scenario(), "f", -0.025),
        (collision_scenario(), "p", -0.025),
        (collision_scenario(lane_half_width=0.8), "p", 0.0),
        (collision_scenario(), "f", 0.025),
        (dataclasses.replace(turn_scenario(), target_speed=0.0), "gt", 0.0),
    ])
    def test_matches_the_per_step_reference(self, scenario, kind, error):
        result = run(scenario, Configuration(kind), local_error=error)
        m = result.metrics
        outcomes, max_abs_d, v_entry = per_step_score(
            scenario, result.trace, collided=m.min_clearance <= 0.0)
        assert result.trace["outcome"] == outcomes
        assert m.outcome == outcomes[-1]
        assert m.max_abs_d == max_abs_d
        assert m.v_at_window_entry == v_entry
        assert (m.duration, m.final_speed) == (result.trace["t"][-1], result.trace["v"][-1])


class TestPlantConsistency:
    @pytest.mark.parametrize("scenario_factory,error", [
        (turn_scenario, 0.025),
        (collision_scenario, -0.025),
    ])
    def test_feasible_configs_track_their_plans(self, scenario_factory, error):
        for kind in ("gt", "p"):
            result = run(scenario_factory(), Configuration(kind), local_error=error)
            deviation = np.abs(result.trace["d"] - result.trace["d_ref"])
            assert deviation.max() <= 0.1


class TestDeterminism:
    def test_repeated_runs_are_identical(self):
        a = run(collision_scenario(), Configuration("f"), local_error=-0.025)
        b = run(collision_scenario(), Configuration("f"), local_error=-0.025)
        np.testing.assert_array_equal(a.trace["d"], b.trace["d"])
        np.testing.assert_array_equal(a.trace["v"], b.trace["v"])
        assert a.metrics == b.metrics


class TestUtilization:
    def test_scenario2_ordering_once_local_available(self):
        results = {
            kind: run(collision_scenario(), Configuration(kind), local_error=-0.025)
            for kind in ("gt", "l", "p", "f")
        }
        for rec in results["gt"].replans:
            assert rec.utilization == pytest.approx(1.0, abs=1e-12)
        for rec in results["p"].replans:
            assert rec.utilization == pytest.approx(0.6, abs=1e-12)
        window = collision_scenario().maneuver_window
        l_by_t = {r.t: r for r in results["l"].replans}
        for rec in results["f"].replans:
            mate = l_by_t.get(rec.t)
            if mate is None or not (window[0] <= rec.s <= window[1]):
                continue
            if rec.local_available and mate.local_available:
                assert 1.0 + 1e-9 >= rec.utilization >= mate.utilization - 1e-9
