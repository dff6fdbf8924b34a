import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frictionfusion import fusion, simulator
from frictionfusion.estimators import Configuration, FrictionProfile
from frictionfusion.planner import GRAVITY, PlannedTrajectory
from frictionfusion.simulator import (
    TIME_LIMIT,
    TRACE_COLUMNS,
    Scenario,
    VehicleState,
    collision_scenario,
    replan_substeps,
    run,
    step,
    turn_scenario,
)
from helpers import load_workloads, reference_index_at, reference_run, reference_step


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


def _state_bits(state):
    return [np.float64(getattr(state, k)).tobytes() for k in ("s", "d", "v", "t", "d_rate")]


class TestIntervalMatchesPerStepReference:
    def _plan(self):
        scenario = turn_scenario()
        state = VehicleState(s=14.3, d=0.1, v=11.0, t=1.2, d_rate=0.05)
        return scenario, state, simulator.plan(state, scenario, np.full(51, 0.4),
                                               fusion.SGrid())

    @pytest.mark.parametrize("substeps", [1, 2, 10, 40])
    def test_rows_and_state_match_repeated_steps(self, substeps):
        scenario, state, traj = self._plan()
        rows = ["kept"]
        got, got_lam = step(state, traj, scenario.profile, 0.01, substeps, rows)
        want, want_rows = state, ["kept"]
        for _ in range(substeps):
            want, want_lam = reference_step(want, traj, scenario.profile, 0.01)
            want_rows += (want.t, want.s, want.d, want.v, want_lam,
                          traj.d_ref.item(reference_index_at(traj, want.s)))
        assert _state_bits(got) == _state_bits(want) and got_lam == want_lam
        assert type(got) is VehicleState and all(type(x) is float for x in rows[1:])
        assert np.array(rows[1:]).tobytes() == np.array(want_rows[1:]).tobytes()
        assert len(rows) == 1 + substeps * len(TRACE_COLUMNS)

    def test_no_rows_without_a_list(self):
        scenario, state, traj = self._plan()
        rows = []
        assert step(state, traj, scenario.profile, 0.01, 3) == \
            step(state, traj, scenario.profile, 0.01, 3, rows)
        assert len(rows) == 3 * len(TRACE_COLUMNS)

    def test_fewer_than_one_substep_rejected(self):
        scenario, state, traj = self._plan()
        with pytest.raises(ValueError, match="substeps"):
            step(state, traj, scenario.profile, 0.01, 0)

    def test_nan_demand_fails_at_the_first_step(self):
        scenario, state, _ = self._plan()
        traj = flat_plan(a_long=math.nan)
        # The message names the first bad step (t = 1.2 + 0.01), not the last.
        with pytest.raises(ValueError, match="state must be finite with speed >= 0, got .*t=1.21,"):
            step(state, traj, scenario.profile, 0.01, 10)

    def test_run_on_a_plan_with_a_nan_acceleration_raises(self, monkeypatch):
        real = simulator.plan

        def nan_plan(*args, **kwargs):
            traj = real(*args, **kwargs)
            a_long = traj.a_long.copy()
            a_long[:] = math.nan
            return dataclasses.replace(traj, a_long=a_long)

        monkeypatch.setattr(simulator, "plan", nan_plan)
        with pytest.raises(ValueError, match="state must be finite with speed >= 0"):
            run(turn_scenario(), Configuration("gt"))


def _assert_same_run(got, want):
    for name in TRACE_COLUMNS:
        assert _same(got.trace[name], want.trace[name]), name
    assert got.trace["outcome"] == want.trace["outcome"]
    assert [_bits(x) for x in dataclasses.astuple(got.metrics)] == \
        [_bits(x) for x in dataclasses.astuple(want.metrics)]
    assert [(r.t, r.s, r.lambda_t, r.feasible, r.utilization) for r in got.replans] == \
        [(r.t, r.s, r.lambda_t, r.feasible, r.utilization) for r in want.replans]


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _bits(x):
    return np.float64(x).tobytes() if isinstance(x, float) else x


ERROR_MODES = {"worst-over": 0.025, "worst-under": -0.025}


class TestRunMatchesPerStepReference:
    @pytest.mark.parametrize("scenario, kind, error, sim_dt, outcome", [
        (collision_scenario(), "p", -0.025, 0.01, "collision"),
        (collision_scenario(), "p", -0.025, 0.05, "collision"),
        (collision_scenario(lane_half_width=0.8), "p", 0.0, 0.005, "collision"),
        (turn_scenario(), "l", 0.025, 0.01, "lane_departure"),
        (turn_scenario(), "l", 0.025, 0.005, "lane_departure"),
        (collision_scenario(), "f", -0.025, 0.01, "ok"),
        (dataclasses.replace(turn_scenario(), target_speed=0.0), "gt", 0.0, 0.05, "timeout"),
        (dataclasses.replace(turn_scenario(), target_speed=0.0), "gt", 0.0, 0.01, "timeout"),
    ])
    def test_stock_outcomes(self, scenario, kind, error, sim_dt, outcome):
        got = run(scenario, Configuration(kind), local_error=error, sim_dt=sim_dt)
        assert got.metrics.outcome == outcome
        # Each run ends partway through a replan interval, so the interval's rows are cut.
        assert len(got.trace["t"]) % replan_substeps(simulator.REPLAN_DT, sim_dt) != 0
        _assert_same_run(got, reference_run(scenario, Configuration(kind), local_error=error,
                                            sim_dt=sim_dt))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), name=st.sampled_from(["turn", "collision"]),
           kind=st.sampled_from(["gt", "l", "p", "f"]), error=st.sampled_from(list(ERROR_MODES)),
           sim_dt=st.sampled_from([0.005, 0.01, 0.05]))
    def test_patchy_roads(self, seed, name, kind, error, sim_dt):
        stock = simulator.SCENARIOS[name]()
        profile = load_workloads().patchy_profile(random.Random(seed), stock.end_s + 50.0)
        scenario = dataclasses.replace(stock, profile=profile)
        args = (scenario, Configuration(kind), ERROR_MODES[error], simulator.REPLAN_DT, sim_dt)
        _assert_same_run(run(*args), reference_run(*args))


class TestVehicleState:
    def test_speed_validated(self):
        with pytest.raises(ValueError):
            VehicleState(s=0.0, d=0.0, v=-1.0, t=0.0)

    @pytest.mark.parametrize("field", ["s", "d", "t", "d_rate"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_position_time_and_rate_rejected(self, field, bad):
        with pytest.raises(ValueError, match="state must be finite with speed >= 0"):
            VehicleState(**{**dict(s=0.0, d=0.0, v=10.0, t=0.0, d_rate=0.0), field: bad})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_speed_rejected(self, bad):
        with pytest.raises(ValueError, match="state must be finite with speed >= 0"):
            VehicleState(s=0.0, d=0.0, v=bad, t=0.0)

    def test_zero_speed_and_negative_offsets_accepted(self):
        state = VehicleState(s=-5.0, d=-1.0, v=0.0, t=0.0, d_rate=-0.5)
        assert (state.s, state.d, state.v, state.d_rate) == (-5.0, -1.0, 0.0, -0.5)

    def test_infinite_initial_offset_fails_before_the_run(self):
        # It used to run 6001 steps and end with max_abs_d = inf.
        with pytest.raises(ValueError, match="state must be finite"):
            dataclasses.replace(turn_scenario().initial, d=math.inf)


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

    @pytest.mark.parametrize("build, name, message", [
        (dict(turn_start=math.nan), "path starts", "finite and strictly increasing"),
        (dict(turn_start=math.inf), "path starts", "finite and strictly increasing"),
        (dict(path=((0.0, 0.0), (0.0, 0.1))), "path starts", "finite and strictly increasing"),
        (dict(path=((0.0, 0.0), (10.0, math.nan))), "path curvatures", "finite"),
        (dict(path=((0.0, math.inf),)), "path curvatures", "finite"),
        (dict(end_s=math.nan), "end_s", "finite"),
        (dict(end_s=math.inf), "end_s", "finite"),
        (dict(maneuver_window=(math.nan, 10.0)), "maneuver_window", "finite with start <= end"),
        (dict(maneuver_window=(0.0, math.inf)), "maneuver_window", "finite with start <= end"),
        (dict(maneuver_window=(10.0, 5.0)), "maneuver_window", "finite with start <= end"),
        (dict(target_speed=math.nan), "target_speed", "finite and >= 0"),
        (dict(target_speed=-1.0), "target_speed", "finite and >= 0"),
        (dict(obstacle_s=math.nan), "obstacle position", "finite"),
        (dict(obstacle=(math.nan, 1.0)), "obstacle position", "finite"),
        (dict(obstacle=(math.inf, 1.0)), "obstacle position", "finite"),
        (dict(obstacle_half_width=math.nan), "obstacle half width", "finite and > 0"),
        (dict(obstacle=(20.0, 0.0)), "obstacle half width", "finite and > 0"),
        (dict(obstacle=(20.0, math.inf)), "obstacle half width", "finite and > 0"),
    ])
    def test_non_finite_or_unordered_fields_rejected(self, build, name, message):
        # ``turn_start`` and ``obstacle_s`` go through the factories; the rest
        # replace one field of a stock scenario.
        (key, value), = build.items()
        with pytest.raises(ValueError, match=f"{name} must be {message}, got"):
            if key == "turn_start":
                turn_scenario(turn_start=value)
            elif key in ("obstacle_s", "obstacle_half_width"):
                collision_scenario(**build)
            else:
                dataclasses.replace(collision_scenario(), **build)

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
