import dataclasses
import hashlib
import math
import random

import numpy as np
import pytest

from frictionfusion import estimators, fusion, gp, simulator
from frictionfusion.estimators import Configuration, FrictionProfile
from frictionfusion.planner import GRAVITY, MIN_DODGE_RUN, REBASE_DEVIATION, PlannedTrajectory
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
from helpers import load_workloads, reference_curvature_at, repin_message


def flat_plan(n=51, ds=1.0, v=10.0, a_long=0.0, kappa_eff=0.0, kappa_path=0.0,
              mu_g=20.0, speeds=None):
    """A plan on grid points from s = 0, built from complete speeds and the
    grip ``mu_g`` (mu * g) at every point.

    By default ``v**2`` is linear in s from ``v`` at ``a_long`` (down to a
    stop), so the plan's ``a_long`` is ``a_long`` to rounding while
    ``|a_long| < mu_g``; a NaN ``a_long`` gives NaN speeds.
    """
    if speeds is None:
        squares = [v * v + 2.0 * a_long * ds * j for j in range(n)]
        speeds = [math.sqrt(sq) if not sq <= 0.0 else 0.0 for sq in squares]
    return PlannedTrajectory(
        s_anchor=0.0,
        ds=ds,
        positions=np.arange(n) * ds,
        d_ref=np.zeros(n),
        kappa_eff=np.full(n, float(kappa_eff)),
        kappa_path=np.full(n, float(kappa_path)),
        v_bw=list(speeds),
        v_cap=list(speeds),
        kappa_abs=[abs(kappa_eff)] * n,
        mu_g=[float(mu_g)] * n,
        shares=(0.0, 0.0),
        brake_until=0,
        speeds=list(speeds),
        feasible=True,
    )


class TestFlatPlan:
    @pytest.mark.parametrize("v, a_long", [(10.0, 0.0), (10.0, -4.0), (12.5, 1.5)])
    def test_demands_are_the_ones_asked_for(self, v, a_long):
        traj = flat_plan(v=v, a_long=a_long)
        assert traj.v[0] == v
        np.testing.assert_allclose(traj.a_long[:10], a_long, rtol=0.0, atol=1e-12)

    def test_speeds_down_to_a_stop_and_nan(self):
        stopping = flat_plan(speeds=[math.sqrt(10.0)] + [0.0] * 50)
        assert stopping.a_long[0] == pytest.approx(-5.0, abs=1e-12)
        assert (stopping.a_long[1:] == 0.0).all()
        assert np.isnan(flat_plan(a_long=math.nan).a_long).all()


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

    def test_grip_left_to_the_tires_is_used(self):
        # The estimate's grip leaves sqrt(4**2 - 3**2) = 2.65 m/s^2 for
        # cornering after a_long = -3, below the 5 m/s^2 the path needs; the
        # true grip holds the combined demand, so the plant follows the path.
        mu_gt = 0.8
        kappa = 5.0 / 100.0
        state = VehicleState(s=0.0, d=0.0, v=10.0, t=0.0)
        plan_ = flat_plan(v=10.0, a_long=-3.0, kappa_eff=kappa, kappa_path=kappa, mu_g=4.0)
        a_long = plan_.a_long[0]
        assert math.sqrt(4.0**2 - a_long**2) < 10.0**2 * kappa
        demand = math.hypot(a_long, 10.0**2 * kappa)
        assert demand <= mu_gt * GRAVITY
        new, lam = step(state, plan_, FrictionProfile(((-1e6, mu_gt),)), 0.01)
        assert new.d_rate == 0.0
        assert lam == pytest.approx(demand / (mu_gt * GRAVITY), rel=1e-12)

    def test_dt_bounds(self):
        state = VehicleState(s=0.0, d=0.0, v=10.0, t=0.0)
        with pytest.raises(ValueError):
            step(state, flat_plan(), FrictionProfile(((-1e6, 0.8),)), 0.06)

    def test_speed_never_negative(self):
        state = VehicleState(s=0.0, d=0.0, v=0.01, t=0.0)
        plan_ = flat_plan(speeds=[math.sqrt(10.0)] + [0.0] * 50)  # a_long[0] = -5
        new, _ = step(state, plan_, FrictionProfile(((-1e6, 0.8),)), 0.01)
        assert new.v >= 0.0


def _interval_bits(state, lam, rows):
    return np.array([state.s, state.d, state.v, state.t, state.d_rate, lam, *rows]).tobytes()


def _one_step_at_a_time(state, traj, profile, dt, substeps):
    """``substeps`` calls of ``step`` of one step each: the final state, the last
    utilization and the rows of every step."""
    rows = []
    for _ in range(substeps):
        state, lam = step(state, traj, profile, dt, 1, rows)
    return state, lam, rows


class TestInterval:
    def _plan(self):
        scenario = turn_scenario()
        state = VehicleState(s=14.3, d=0.1, v=11.0, t=1.2, d_rate=0.05)
        return scenario, state, simulator.plan(state, scenario, np.full(51, 0.4),
                                               fusion.SGrid())

    def test_no_rows_without_a_list(self):
        scenario, state, traj = self._plan()
        rows = ["kept"]
        assert step(state, traj, scenario.profile, 0.01, 3) == \
            step(state, traj, scenario.profile, 0.01, 3, rows)
        assert rows[0] == "kept" and len(rows) == 1 + 3 * len(TRACE_COLUMNS)
        assert all(type(x) is float for x in rows[1:])

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
            traj = real(*args, **kwargs)  # NaN speeds give a NaN a_long everywhere
            return dataclasses.replace(traj, speeds=[math.nan] * len(traj.mu_g))

        monkeypatch.setattr(simulator, "plan", nan_plan)
        with pytest.raises(ValueError, match="state must be finite with speed >= 0"):
            run(turn_scenario(), Configuration("gt"))


class TestPlantFrictionLookup:
    """The plant looks a friction segment up once and again only when it leaves it."""

    def _interval(self, profile, substeps=10):
        state = VehicleState(s=0.0, d=0.0, v=10.0, t=0.0)
        traj = flat_plan(v=10.0, a_long=-4.0, kappa_eff=0.02, kappa_path=0.02)
        rows = []
        got = step(state, traj, profile, 0.01, substeps, rows)
        # One step per call looks the segment up at every step.
        assert _interval_bits(*got, rows) == \
            _interval_bits(*_one_step_at_a_time(state, traj, profile, 0.01, substeps))
        return rows

    def test_interval_crossing_several_boundaries(self):
        # About 0.1 m per step over 0.045 m segments of alternating classes.
        segments = [(-1e6, 0.9)] + [(0.045 * k, (0.3, 0.9)[k % 2]) for k in range(1, 40)]
        rows = self._interval(FrictionProfile(segments))
        lams = rows[4::len(TRACE_COLUMNS)]
        assert lams.count(1.0) not in (0, len(lams))  # saturated on the 0.3 segments only

    def test_steps_landing_exactly_on_a_boundary(self):
        free = FrictionProfile(((-1e6, 0.9),))
        positions = self._interval(free)[1::len(TRACE_COLUMNS)]
        # Rows 3 and 4 are computed at exactly positions[2] and positions[3],
        # which stay the same here: those steps start on a segment start.
        segments = [(-1e6, 0.9), (positions[2], 0.3), (positions[3], 0.9)]
        lams = self._interval(FrictionProfile(segments))[4::len(TRACE_COLUMNS)]
        assert lams[3] == 1.0 and lams[2] < 1.0 and lams[4] < 1.0

    def test_position_below_the_profile_raises(self):
        traj = flat_plan()
        state = VehicleState(s=-5.0, d=0.0, v=10.0, t=0.0)
        with pytest.raises(ValueError, match="undefined below"):
            step(state, traj, FrictionProfile(((-4.0, 0.8),)), 0.01, 10)


def _run_bits(result):
    """The raw bits of one run: every trace column, the outcome column, the
    metrics, and each replan's estimate, feasibility and utilization."""
    for name in TRACE_COLUMNS:
        yield result.trace[name].tobytes()
    yield ",".join(result.trace["outcome"]).encode()
    for value in dataclasses.astuple(result.metrics):
        yield (float.hex(value) if isinstance(value, float) else value).encode()
    for rec in result.replans:
        yield rec.mu_hat.tobytes() + (b"T" if rec.feasible else b"F")
        yield float.hex(rec.utilization).encode()


def _digest(results):
    return hashlib.sha256(b"".join(b for r in results for b in _run_bits(r))).hexdigest()


# (scenario, config, local error, sim_dt, outcome) of runs on the stock roads.
STOCK_RUNS = {
    "collision-p-under-0.01": (collision_scenario(), "p", -0.025, 0.01, "collision"),
    "collision-p-under-0.05": (collision_scenario(), "p", -0.025, 0.05, "collision"),
    "narrow-collision-p-0-0.005": (collision_scenario(lane_half_width=0.8), "p", 0.0, 0.005,
                                   "collision"),
    "turn-l-over-0.01": (turn_scenario(), "l", 0.025, 0.01, "lane_departure"),
    "turn-l-over-0.005": (turn_scenario(), "l", 0.025, 0.005, "lane_departure"),
    "collision-f-under-0.01": (collision_scenario(), "f", -0.025, 0.01, "ok"),
    "stopping-gt-0-0.05": (dataclasses.replace(turn_scenario(), target_speed=0.0), "gt", 0.0,
                           0.05, "timeout"),
    "stopping-gt-0-0.01": (dataclasses.replace(turn_scenario(), target_speed=0.0), "gt", 0.0,
                           0.01, "timeout"),
}

# sha256 of the bits (``_run_bits``) of each seed's 16 patchy-road runs and of
# the stock runs, in corpus order. Measured while the per-step plant, planner
# and run loop that ``step``, ``plan`` and ``run`` replaced still gave the same
# bits; re-pinned when the GP std came to be taken from column sums on scipy's
# LAPACK factor (the ``f`` runs' bits moved, no outcome did), and when the
# return blend came to be evaluated from a per-run basis on the planning grid
# (bits moved in the last places, no outcome, replan count or duration did),
# and when the plant stopped clipping the lateral demand at the estimate's
# circle leftover (the true grip is its one limit).
CORPUS_DIGESTS = {
    0: "99767a8eef2662358e53457e80b6b7cadb8dccda54c758313c6a873c0ce559dd",
    1: "92320c6d0522add2457de8d16787f2d014fe3f7f1b48aee1e2f0834f877044c4",
    2: "e469132c2a767626fea8233e4cf4a398ad25bc4af64eede2af02c919f6badc9d",
    3: "16982bab545911ae93f6a4bf8fa657b1559e4702f28e62853ad9d8466666356a",
    4: "481f1ea1af043a62e185022391e5a2ed997ebea8ba5765a3f0c02fcd9ba0d559",
    5: "4647f3564f61cce4b85bc51be4decd39e6b5f863bb081342f841e3585c991078",
    6: "0c66655e3e90b47459c5dfae4d05521ce7428250815396a8c88b829087d6f1fc",
    7: "b4fa8e7225223e3a2344243577a6009aaab9d95936fc239abe44578bd35c3b1c",
    "stock": "9ca36eef34ab53b1d602d8d8d45bd801e78f597e5e94aced48f73a3b777b78f1",
}


@pytest.fixture(scope="module")
def corpus():
    """The corpus runs and what their calls of ``plan`` and ``step`` took and
    gave. ``runs`` maps (seed or "stock", road, config, sim_dt) to a run;
    ``plans`` holds (state, scenario, feasible, the memory's full blend after
    planning), ``intervals`` (state, trajectory, profile, dt, substeps, the
    returned state and utilization, the appended rows)."""
    jobs, patchy_profile = [], load_workloads().patchy_profile
    for seed in range(8):
        error = 0.025 if seed % 2 else -0.025  # worst-over on odd seeds, worst-under on even
        for name in ("turn", "collision"):
            stock = simulator.SCENARIOS[name]()
            rng = random.Random(f"corpus:{seed}:{name}")
            scenario = dataclasses.replace(stock, profile=patchy_profile(rng, stock.end_s + 50.0))
            jobs += [((seed, name, kind, sim_dt), scenario, kind, error, sim_dt)
                     for kind in ("gt", "l", "p", "f") for sim_dt in (0.005, 0.01)]
    jobs += [(("stock", case, kind, sim_dt), scenario, kind, error, sim_dt)
             for case, (scenario, kind, error, sim_dt, _) in STOCK_RUNS.items()]
    plans, intervals = [], []
    real_plan, real_step = simulator.plan, simulator.step

    def recording_plan(state, scenario, mu_hat, grid, memory):
        traj = real_plan(state, scenario, mu_hat, grid, memory=memory)
        plans.append((state, scenario, traj.feasible, memory.full_blend))
        return traj

    def recording_step(state, traj, profile, dt, substeps, rows):
        first = len(rows)
        end, lam = real_step(state, traj, profile, dt, substeps, rows)
        intervals.append((state, traj, profile, dt, substeps, end, lam, rows[first:]))
        return end, lam

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulator, "plan", recording_plan)
        mp.setattr(simulator, "step", recording_step)
        runs = {key: run(scenario, Configuration(kind), local_error=error, sim_dt=sim_dt)
                for key, scenario, kind, error, sim_dt in jobs}
    # A dict, not a namespace: pytest's failure report shows a dict's repr cut short.
    return {"runs": runs, "plans": plans, "intervals": intervals}


class TestPinnedCorpus:
    """128 runs on seeded patchy roads (both stock geometries, every
    configuration, two plant step sizes) and the stock runs. Their bits are
    pinned; the other tests are invariants of the model, whatever the
    estimators, planner and plant compute. A change meant to alter the bits
    re-pins the digests and keeps the invariants."""

    def test_bits_are_pinned(self, corpus):
        runs = corpus["runs"]
        got = {group: _digest(r for key, r in runs.items() if key[0] == group)
               for group in dict.fromkeys(key[0] for key in runs)}
        assert got == CORPUS_DIGESTS, repin_message("CORPUS_DIGESTS", got, CORPUS_DIGESTS)

    @pytest.mark.parametrize("case", list(STOCK_RUNS))
    def test_stock_outcomes(self, corpus, case):
        _, kind, _, sim_dt, outcome = STOCK_RUNS[case]
        result = corpus["runs"]["stock", case, kind, sim_dt]
        assert result.metrics.outcome == outcome
        # Each run ends partway through a replan interval, so the interval's rows are cut.
        assert len(result.trace["t"]) % replan_substeps(simulator.REPLAN_DT, sim_dt) != 0

    def test_an_interval_equals_its_steps_one_at_a_time(self, corpus):
        for state, traj, profile, dt, substeps, end, lam, rows in corpus["intervals"]:
            assert _interval_bits(end, lam, rows) == \
                _interval_bits(*_one_step_at_a_time(state, traj, profile, dt, substeps))

    def test_position_never_falls_and_time_always_rises(self, corpus):
        for result in corpus["runs"].values():
            start = result.scenario.initial
            assert (np.diff(result.trace["s"], prepend=start.s) >= 0.0).all()
            assert (np.diff(result.trace["t"], prepend=start.t) > 0.0).all()

    def test_utilization_lies_in_the_unit_interval(self, corpus):
        for result in corpus["runs"].values():
            lam = result.trace["lambda"]
            assert 0.0 <= lam.min() and lam.max() <= 1.0

    def test_speed_changes_within_the_true_grip(self, corpus):
        # |dv| <= mu_gt(s)*g*dt over each step from s; the 1e-12 m/s allows
        # for the rounding of v + a*dt, a few ulp at these speeds.
        for (_, _, _, sim_dt), result in corpus["runs"].items():
            start, trace = result.scenario.initial, result.trace
            s_before = np.concatenate([[start.s], trace["s"][:-1]])
            grip = result.scenario.profile.mu_on(s_before) * GRAVITY * sim_dt
            assert (np.abs(np.diff(trace["v"], prepend=start.v)) <= grip + 1e-12).all()

    def test_ground_truth_estimate_is_the_truth_on_the_grid(self, corpus):
        points = fusion.SGrid().points
        for (_, _, kind, _), result in corpus["runs"].items():
            if kind == "gt":
                for rec in result.replans:
                    np.testing.assert_array_equal(
                        rec.mu_hat, result.scenario.profile.shifted(-rec.s).mu_on(points))

    def test_least_violating_dodges_on_and_off_the_full_blend(self, corpus):
        on_full = {abs(state.d - full_blend.offset_at(state.s)) <= REBASE_DEVIATION
                   for state, scenario, feasible, full_blend in corpus["plans"]
                   if scenario.obstacle is not None and not feasible
                   and state.s < scenario.obstacle[0] - MIN_DODGE_RUN}
        assert on_full == {True, False}


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
        arc = 0.5 * np.pi * 20.0
        np.testing.assert_array_equal(scen.curvature_on([10.0, 20.0, 15.0 + arc + 0.1]),
                                      [0.0, -1.0 / 20.0, 0.0])

    def test_collision_geometry(self):
        scen = collision_scenario()
        assert scen.initial.v == 20.0
        assert scen.profile.mu_at(10.0) == 1.0
        assert scen.obstacle == (20.0, 1.0)
        assert scen.curvature_on([5.0]).tolist() == [0.0]

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
                                      [reference_curvature_at(scenario, s) for s in pts])


    def test_curvature_on_rejects_nan(self):
        # It used to read the last path segment's 0.0.
        scenario = turn_scenario()
        for positions in ([math.nan], [3.0, math.nan, 20.0]):
            with pytest.raises(ValueError, match="NaN"):
                scenario.curvature_on(positions)
        np.testing.assert_array_equal(scenario.curvature_on([-math.inf, math.inf]), [0.0, 0.0])


class TestFusedMemo:
    @pytest.mark.parametrize("ds", [1.0, 0.5])
    def test_gram_once_per_run(self, monkeypatch, ds):
        blocks, posteriors = [], []
        real_gram, real_posterior = gp.gram_matrix, fusion.posterior
        monkeypatch.setattr(gp, "gram_matrix", lambda kernel, a, b:
                            blocks.append((len(a), len(b))) or real_gram(kernel, a, b))
        monkeypatch.setattr(fusion, "posterior",
                            lambda *args: posteriors.append(args) or real_posterior(*args))
        stock = collision_scenario()
        profile = load_workloads().patchy_profile(random.Random(3), stock.end_s + 50.0)
        scenario = dataclasses.replace(stock, profile=profile)
        grid = fusion.SGrid(ds=ds)
        for runs in (1, 2):
            run(scenario, Configuration("f"), local_error=-0.025, grid=grid)
            # K(x, x) of the 51 observations and K(x*, x) of the n planning
            # points, each once per run however many posteriors it conditions.
            assert blocks == [(51, 51), (grid.n_points, 51)] * runs
            assert len(posteriors) > 10 * runs

    # (scenario, local error, ds) -> (replans, posteriors) of each stock fused
    # run: every one fuses two distinct series, so the two-entry memo computes
    # each once and hits on every other replan. The turns' replan counts fell
    # when the plant stopped clipping the lateral demand at the estimate's
    # circle leftover: those runs reach the end sooner.
    STOCK_POSTERIORS = {
        ("turn", 0.025, 1.0): (67, 2), ("turn", -0.025, 1.0): (70, 2),
        ("collision", 0.025, 1.0): (21, 2), ("collision", -0.025, 1.0): (21, 2),
        ("turn", 0.025, 0.5): (67, 2), ("turn", -0.025, 0.5): (71, 2),
        ("collision", 0.025, 0.5): (21, 2), ("collision", -0.025, 0.5): (21, 2),
    }

    @staticmethod
    def _count(monkeypatch, name, error, ds):
        """(replans, posteriors, most estimates the memo held) of one stock fused run."""
        posteriors, held = [], []
        real_emulate, real_posterior = simulator.emulate, fusion.posterior

        def emulate(*args, memo):
            report = real_emulate(*args, memo=memo)
            held.append(len(memo.reports))
            return report

        monkeypatch.setattr(simulator, "emulate", emulate)
        monkeypatch.setattr(fusion, "posterior",
                            lambda *args: posteriors.append(args) or real_posterior(*args))
        result = run(simulator.SCENARIOS[name](), Configuration("f"), local_error=error,
                     grid=fusion.SGrid(ds=ds))
        return len(result.replans), len(posteriors), max(held)

    @pytest.mark.parametrize("key", list(STOCK_POSTERIORS))
    def test_stock_runs_hit_as_pinned(self, monkeypatch, key):
        replans, posteriors, held = self._count(monkeypatch, *key)
        assert (replans, posteriors) == self.STOCK_POSTERIORS[key]
        assert held == estimators.FUSE_MEMO_SIZE == 2

    def test_one_entry_memo_misses_on_the_collision(self, monkeypatch):
        # The two series alternate there, so a memo of one recomputes them.
        monkeypatch.setattr(estimators, "FUSE_MEMO_SIZE", 1)
        assert self._count(monkeypatch, "collision", 0.025, 1.0) == (21, 7, 1)

    @pytest.mark.parametrize("ds", [1.0, 0.5])
    def test_no_hit_is_lost_against_a_memo_of_series_bytes(self, monkeypatch, ds):
        # Replayed over each run's series, a two-entry memo keyed on their
        # bytes computes as many posteriors as the run did.
        posteriors = []
        real_posterior = fusion.posterior
        monkeypatch.setattr(fusion, "posterior",
                            lambda *args: posteriors.append(args) or real_posterior(*args))
        patchy_profile = load_workloads().patchy_profile
        scenarios = []
        for name, build in simulator.SCENARIOS.items():
            stock = build()
            scenarios.append(stock)
            scenarios += [dataclasses.replace(stock, profile=patchy_profile(
                random.Random(f"memo:{seed}:{name}"), stock.end_s + 50.0)) for seed in range(10)]
        replans = hits = 0
        for scenario in scenarios:
            for error in (0.025, -0.025):
                posteriors.clear()
                result = run(scenario, Configuration("f"), local_error=error,
                             grid=fusion.SGrid(ds=ds))
                held, misses = [], 0
                for rec in result.replans:
                    key = (rec.series.mu_prime.tobytes(), rec.series.margin.tobytes())
                    if key in held:
                        held.remove(key)
                    else:
                        misses += 1
                    held = (held + [key])[-2:]
                assert len(posteriors) == misses, scenario.name
                replans += len(result.replans)
                hits += len(result.replans) - misses
        assert 0 < hits < replans  # the stock runs hit on all but 2 replans each

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
        # The walk reaches every record (memo hits share their arrays).
        assert {id(r.mu_hat) for r in result.replans} <= {id(a) for a in arrays}
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

    def test_replan_interval_up_to_the_time_limit(self):
        # Checked before any step: a longer last interval is stepped whole.
        assert replan_substeps(TIME_LIMIT, 0.05) == round(TIME_LIMIT / 0.05)
        with pytest.raises(ValueError, match=f"replan_dt must be at most the time limit "
                                             f"{TIME_LIMIT}, got 60.05"):
            replan_substeps(60.05, 0.05)


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
