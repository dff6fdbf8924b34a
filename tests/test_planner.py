import dataclasses
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from frictionfusion import _kernels, planner, simulator
from frictionfusion.estimators import Configuration
from frictionfusion.fusion import SGrid
from frictionfusion.planner import (
    CURVE_BRAKE_SHARE,
    CURVE_LATERAL_SHARE,
    DODGE_BRAKE_SHARE,
    DODGE_LATERAL_SHARE,
    GRAVITY,
    MIN_DODGE_RUN,
    PASS_HOLD,
    REBASE_DEVIATION,
    RETURN_BACKSET,
    RETURN_LENGTH,
    PlannedTrajectory,
    PlannerMemory,
    QuinticBlend,
    _dodge_shape,
    _quintic_basis,
    _quintic_shape,
    _return_shape,
    plan,
)
from frictionfusion.simulator import (
    Scenario,
    VehicleState,
    collision_scenario,
    run,
    step,
    turn_scenario,
)
from helpers import load_workloads


def straight_scenario(v0=12.0):
    from frictionfusion.estimators import FrictionProfile
    return Scenario(
        name="straight",
        path=((-1e6, 0.0),),
        profile=FrictionProfile(((-1e6, 0.4),)),
        initial=VehicleState(s=0.0, d=0.0, v=v0, t=0.0),
        lane_half_width=1.75,
        target_speed=v0,
        end_s=100.0,
        maneuver_window=(0.0, 100.0),
    )


def demand_on(traj):
    """(a_long, a_lat) arrays of the plant's demand at every grid index, at the
    planned speed: ``a_long`` and the effective-curvature tracking term."""
    return traj.a_long, traj.v * traj.v * traj.kappa_eff


def fine_step_corner_speed(mu, radius, ds=0.01):
    """Independent dense-grid check of the curvature-limited corner speed."""
    v_limit = math.sqrt(mu * GRAVITY * radius)
    return v_limit


class TestQuinticBlend:
    def test_boundary_conditions(self):
        # The blend holds its end values outside [s0, s1], so the slopes at its
        # ends are one-sided differences from inside.
        blend = QuinticBlend(s0=0.0, s1=20.0, d0=0.3, slope0=0.05, d1=1.5)
        h = 1e-6
        d, curv = blend.eval(np.array([0.0, h, 20.0 - h, 20.0]))
        assert d[0] == pytest.approx(0.3, abs=1e-12)
        assert (d[1] - d[0]) / h == pytest.approx(0.05, abs=1e-8)
        assert curv[0] == pytest.approx(0.0, abs=1e-12)
        assert d[3] == pytest.approx(1.5, abs=1e-12)
        assert (d[3] - d[2]) / h == pytest.approx(0.0, abs=1e-8)
        assert curv[3] == pytest.approx(0.0, abs=1e-12)

    def test_derivatives_match_finite_differences(self):
        blend = QuinticBlend(s0=5.0, s1=25.0, d0=0.0, slope0=0.02, d1=1.2)
        positions = np.linspace(6.0, 24.0, 19)
        h = 2e-5
        d, curv = blend.eval(positions)
        d_plus, _ = blend.eval(positions + h)
        d_minus, _ = blend.eval(positions - h)
        fd_curv = (d_plus - 2 * d + d_minus) / h**2
        np.testing.assert_allclose(curv, fd_curv, atol=1e-3)

    def test_holds_its_end_values_outside_the_blend(self):
        blend = QuinticBlend(s0=5.0, s1=25.0, d0=-0.4, slope0=0.02, d1=1.2)
        d, curv = blend.eval(np.array([-10.0, 4.0, 5.0, 25.0, 26.0, 1e6]))
        assert d.tolist() == [-0.4] * 3 + [1.2] * 3
        assert (curv == 0.0).all()


class TestPlanCruise:
    def test_unconstrained_cruise_holds_speed_and_center(self):
        scenario = straight_scenario(v0=12.0)
        grid = SGrid()
        traj = plan(VehicleState(s=0.0, d=0.0, v=12.0, t=0.0), scenario,
                    np.full(51, 0.4), grid)
        assert traj.feasible
        np.testing.assert_allclose(traj.v, 12.0, atol=1e-9)
        np.testing.assert_allclose(traj.a_long, 0.0, atol=1e-9)
        np.testing.assert_allclose(demand_on(traj)[1], 0.0, atol=1e-12)
        np.testing.assert_allclose(traj.d_ref, 0.0, atol=1e-12)


class TestPlanTurn:
    def test_corner_speed_respects_curvature_limit(self):
        scenario = turn_scenario()
        grid = SGrid()
        traj = plan(VehicleState(s=0.0, d=0.0, v=12.0, t=0.0), scenario,
                    np.full(51, 0.4), grid)
        corner = math.sqrt(0.4 * GRAVITY * 20.0)
        positions = traj.s_anchor + grid.points
        in_turn = (positions >= 15.0) & (positions <= 15.0 + 10 * math.pi)
        assert (traj.v[in_turn] ** 2 * 0.05 <= 0.4 * GRAVITY + 1e-9).all()
        assert traj.v[in_turn].max() == pytest.approx(corner, abs=1e-6)
        assert traj.feasible

    def test_speed_reduction_before_turn(self):
        scenario = turn_scenario()
        grid = SGrid()
        traj = plan(VehicleState(s=0.0, d=0.0, v=12.0, t=0.0), scenario,
                    np.full(51, 0.4), grid)
        entry = int(np.searchsorted(traj.s_anchor + grid.points, 15.0))
        assert traj.v[entry] < 12.0
        assert traj.v[0] == 12.0
        assert (traj.a_long[:entry] <= 1e-9).all()

    def test_corner_speed_matches_fine_step_oracle(self):
        scenario = turn_scenario()
        grid = SGrid()
        traj = plan(VehicleState(s=0.0, d=0.0, v=12.0, t=0.0), scenario,
                    np.full(51, 0.4), grid)
        oracle = fine_step_corner_speed(0.4, 20.0)
        positions = traj.s_anchor + grid.points
        mid_turn = (positions >= 20.0) & (positions <= 40.0)
        np.testing.assert_allclose(traj.v[mid_turn], oracle, rtol=2e-2)


class TestPlanDodge:
    def test_infeasible_dodge_flagged_with_bounded_braking(self):
        scenario = collision_scenario()
        grid = SGrid()
        traj = plan(VehicleState(s=0.0, d=0.0, v=20.0, t=0.0), scenario,
                    np.full(51, 0.6), grid)
        assert not traj.feasible
        assert traj.dodge_scale < 1.0
        approach = traj.s_anchor + grid.points < 20.0
        assert (traj.a_long[approach] < 0.0).all()
        # The commanded braking stops at the obstacle: from its grid point on,
        # the plan speeds up or holds.
        assert (traj.a_long[~approach] >= 0.0).all()
        total = np.hypot(*demand_on(traj))
        assert total.max() <= 0.6 * GRAVITY * (1 + 1e-9)
        assert total.max() >= 0.6 * GRAVITY * 0.99

    def test_feasible_dodge_reaches_clearance_offset(self):
        scenario = collision_scenario()
        grid = SGrid()
        traj = plan(VehicleState(s=0.0, d=0.0, v=20.0, t=0.0), scenario,
                    np.full(51, 1.0), grid)
        assert traj.feasible
        at_obstacle = int(np.searchsorted(traj.s_anchor + grid.points, 20.0))
        assert traj.d_ref[at_obstacle] == pytest.approx(1.5, abs=1e-9)

    def test_memory_commits_dodge_geometry(self):
        scenario = collision_scenario()
        grid = SGrid()
        memory = PlannerMemory()
        plan(VehicleState(s=0.0, d=0.0, v=20.0, t=0.0), scenario,
             np.full(51, 1.0), grid, memory=memory)
        first = memory.full_blend
        plan(VehicleState(s=2.0, d=0.05, v=20.0, t=0.1), scenario,
             np.full(51, 1.0), grid, memory=memory)
        assert memory.full_blend is first

    def test_conceded_scale_never_reinflates(self):
        scenario = collision_scenario()
        grid = SGrid()
        memory = PlannerMemory()
        state = VehicleState(s=0.0, d=0.0, v=20.0, t=0.0)
        traj = plan(state, scenario, np.full(51, 0.6), grid, memory=memory)
        first_scale = traj.dodge_scale
        slower = VehicleState(s=2.0, d=0.02, v=18.0, t=0.1)
        traj2 = plan(slower, scenario, np.full(51, 0.6), grid, memory=memory)
        assert traj2.dodge_scale <= first_scale + 1e-12

    def test_one_forward_pass_per_plan(self, monkeypatch):
        calls = []
        real = _kernels.forward_pass
        monkeypatch.setattr(_kernels, "forward_pass",
                            lambda *args: calls.append(1) or real(*args))
        stock = collision_scenario()
        profile = load_workloads().patchy_profile(random.Random(2), stock.end_s + 50.0)
        result = run(dataclasses.replace(stock, profile=profile), Configuration("p"),
                     local_error=-0.025)
        assert not all(r.feasible for r in result.replans)
        assert len(calls) == len(result.replans)

    def test_pass_counts_of_each_kind_of_plan(self, monkeypatch):
        # Per replan cycle (a plan and its interval's step): lane keeping, a
        # feasible dodge and a least-violating dodge off the full blend build
        # one envelope; a least-violating dodge on the full blend first finds
        # the full blend's envelope infeasible, then builds its own. The step
        # integrates the plan forward once.
        counts = [0, 0]

        def counted(slot, real):
            def counting_pass(*args):
                counts[slot] += 1
                return real(*args)
            return counting_pass

        monkeypatch.setattr(_kernels, "backward_pass", counted(0, _kernels.backward_pass))
        monkeypatch.setattr(_kernels, "forward_pass", counted(1, _kernels.forward_pass))
        real_plan, real_step, kinds, cycle = simulator.plan, simulator.step, {}, []

        def counting_plan(state, scenario, mu_hat, grid, memory):
            counts[:] = [0, 0]
            traj = real_plan(state, scenario, mu_hat, grid, memory=memory)
            if state.s >= scenario.obstacle[0] - MIN_DODGE_RUN:
                kind = "lane keeping"
            elif traj.feasible:
                kind = "feasible dodge"
            elif abs(state.d - memory.full_blend.offset_at(state.s)) <= REBASE_DEVIATION:
                kind = "least-violating on the full blend"
            else:
                kind = "least-violating off the full blend"
            cycle[:] = [kind]
            return traj

        def counting_step(*args):
            result = real_step(*args)
            kinds.setdefault(cycle.pop(), set()).add(tuple(counts))
            return result

        monkeypatch.setattr(simulator, "plan", counting_plan)
        monkeypatch.setattr(simulator, "step", counting_step)
        stock = collision_scenario()
        profile = load_workloads().patchy_profile(random.Random("corpus:7:collision"),
                                                  stock.end_s + 50.0)
        run(dataclasses.replace(stock, profile=profile), Configuration("gt"))
        assert kinds == {"lane keeping": {(1, 1)}, "feasible dodge": {(1, 1)},
                         "least-violating off the full blend": {(1, 1)},
                         "least-violating on the full blend": {(2, 1)}}


class TestCircleInvariant:
    def test_every_plan_respects_friction_circle(self):
        # What the velocity passes establish at the planned speed, axis by
        # axis: |a_long| within the grip everywhere, and the cornering demand
        # within it wherever the speed keeps to its curvature cap. The combined
        # demand is not bounded by the grip: it reaches sqrt(2) times it at or
        # below the cap, and more on plans that start above their cap.
        rng = np.random.RandomState(12)
        grid = SGrid()
        scenarios = [turn_scenario(), collision_scenario(), straight_scenario()]
        for _ in range(60):
            scenario = scenarios[rng.randint(0, 3)]
            mu_hat = rng.uniform(0.05, 1.2, 51)
            state = VehicleState(
                s=rng.uniform(0.0, scenario.end_s * 0.8),
                d=rng.uniform(-1.5, 1.5),
                v=rng.uniform(0.0, 22.0),
                t=0.0,
                d_rate=rng.uniform(-1.0, 1.0),
            )
            traj = plan(state, scenario, mu_hat, grid)
            budget = np.maximum(mu_hat, 0.0) * GRAVITY
            a_long, a_lat = demand_on(traj)
            assert (np.abs(a_long) <= budget).all()
            capped = traj.v <= np.array(traj.v_cap)
            assert capped.any()
            assert (np.abs(a_lat[capped]) <= budget[capped] * (1 + 1e-12)).all()

    def test_mu_hat_length_checked(self):
        with pytest.raises(ValueError):
            plan(VehicleState(s=0.0, d=0.0, v=10.0, t=0.0), straight_scenario(),
                 np.full(10, 0.4), SGrid())


# The velocity passes as they were written on numpy scalars (every element
# read by indexing an array): the reference the float-list passes must match
# bit for bit.
def reference_backward_pass(v_cap, kappa_abs, mu_g, ds):
    n = v_cap.shape[0]
    v = np.empty(n)
    v[n - 1] = v_cap[n - 1]
    for i in range(n - 2, -1, -1):
        lat = v[i + 1] * v[i + 1] * kappa_abs[i + 1]
        avail2 = mu_g[i + 1] * mu_g[i + 1] - lat * lat
        avail = math.sqrt(avail2) if avail2 > 0.0 else 0.0
        v[i] = min(v_cap[i], math.sqrt(v[i + 1] * v[i + 1] + 2.0 * avail * ds))
    return v


def reference_forward_pass(v0, v_bound, v_cap, kappa_abs, mu_g, ds, brake_mask,
                           f_lat, f_brake):
    n = v_bound.shape[0]
    v = np.empty(n)
    v[0] = v0
    for i in range(n - 1):
        vi2 = v[i] * v[i]
        lat_demand = vi2 * kappa_abs[i]
        if brake_mask[i] or v[i] > v_cap[i] + _kernels.CAP_VIOLATION_TOL:
            lat = min(lat_demand, f_lat * mu_g[i])
            left2 = mu_g[i] * mu_g[i] - lat * lat
            left = math.sqrt(left2) if left2 > 0.0 else 0.0
            brake = min(f_brake * mu_g[i], left)
            vn2 = vi2 - 2.0 * brake * ds
            vn = math.sqrt(vn2) if vn2 > 0.0 else 0.0
            if not brake_mask[i] and vn < v_bound[i + 1]:
                vn = v_bound[i + 1]
            v[i + 1] = vn
        elif v[i] > v_bound[i + 1]:
            lat = min(lat_demand, _kernels.PREBRAKE_LATERAL_SHARE * mu_g[i])
            left2 = mu_g[i] * mu_g[i] - lat * lat
            brake = math.sqrt(left2) if left2 > 0.0 else 0.0
            vn2 = vi2 - 2.0 * brake * ds
            vn = math.sqrt(vn2) if vn2 > 0.0 else 0.0
            v[i + 1] = max(v_bound[i + 1], vn)
        else:
            lat = min(lat_demand, mu_g[i])
            left2 = mu_g[i] * mu_g[i] - lat * lat
            accel = math.sqrt(left2) if left2 > 0.0 else 0.0
            v[i + 1] = min(v_bound[i + 1], math.sqrt(vi2 + 2.0 * accel * ds))
    return v


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def pass_inputs(draw):
    """Inputs as the planner builds them, including zero curvature and grip."""
    n = draw(st.integers(2, 201))
    kappa_abs = draw(hnp.arrays(np.float64, n, elements=st.one_of(
        st.just(0.0), _floats(1e-6, 0.5))))
    mu_g = draw(hnp.arrays(np.float64, n, elements=st.one_of(
        st.just(0.0), _floats(1e-3, 1.2 * GRAVITY))))
    v_cap = draw(hnp.arrays(np.float64, n, elements=_floats(0.0, 30.0)))
    brake_until = draw(st.integers(0, n))
    ds = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]) | _floats(0.01, 5.0))
    # Start below, at or above the cap, and beyond the violation tolerance.
    v0 = draw(st.one_of(_floats(0.0, 40.0),
                        st.sampled_from([-1.0, -0.05, 0.0, 0.05, 0.1, 1.0]).map(
                            lambda dv: max(v_cap[0] + dv, 0.0))))
    shares = draw(st.sampled_from([(CURVE_LATERAL_SHARE, CURVE_BRAKE_SHARE),
                                   (DODGE_LATERAL_SHARE, DODGE_BRAKE_SHARE)]))
    return kappa_abs, mu_g, v_cap, brake_until, ds, v0, shares


class TestVelocityPassesMatchNumpyScalarReference:
    @settings(max_examples=200, deadline=None)
    @given(pass_inputs(), st.sampled_from([0.0, 12.0, 20.0]) | _floats(0.0, 40.0))
    def test_backward_pass_is_bit_identical(self, inputs, v_des):
        kappa_abs, mu_g, _, _, ds, _, _ = inputs
        envelope, caps = _kernels.backward_pass(kappa_abs.tolist(), mu_g.tolist(), v_des, ds)
        want_caps = reference_curvature_caps(mu_g, kappa_abs, v_des)
        want = reference_backward_pass(want_caps, kappa_abs, mu_g, ds)
        assert type(envelope) is list and type(caps) is list
        assert _same_bits(np.array(caps), want_caps)
        assert _same_bits(np.array(envelope), want)

    @settings(max_examples=200, deadline=None)
    @given(pass_inputs(), st.booleans())
    def test_forward_pass_is_bit_identical(self, inputs, bound_is_envelope):
        kappa_abs, mu_g, v_cap, brake_until, ds, v0, (f_lat, f_brake) = inputs
        if bound_is_envelope:  # as the planner calls it
            v_bound = reference_backward_pass(v_cap, kappa_abs, mu_g, ds)
        else:
            v_bound = v_cap[::-1].copy()
        speeds, a_long = _kernels.forward_pass(
            float(v0), len(v_cap), v_bound.tolist(), v_cap.tolist(), kappa_abs.tolist(),
            mu_g.tolist(), ds, f_lat, f_brake, brake_until)
        brake_mask = np.arange(len(v_cap)) < brake_until  # the prefix as a mask
        want = reference_forward_pass(v0, v_bound, v_cap, kappa_abs, mu_g, ds, brake_mask,
                                      f_lat, f_brake)
        assert type(speeds) is list and type(a_long) is list
        assert _same_bits(np.array(speeds), want)
        assert _same_bits(np.array(a_long), reference_acceleration_bounds(want, mu_g, ds))

    @settings(max_examples=200, deadline=None)
    @given(pass_inputs(), st.integers(0, 220))
    def test_a_read_of_any_count_is_the_start_of_the_full_read(self, inputs, count):
        kappa_abs, mu_g, v_cap, brake_until, ds, v0, shares = inputs
        n = len(v_cap)
        v_bound = reference_backward_pass(v_cap, kappa_abs, mu_g, ds)
        args = (v_bound.tolist(), v_cap.tolist(), kappa_abs.tolist(), mu_g.tolist(), ds,
                *shares, brake_until)
        speeds, a_long = _kernels.forward_pass(float(v0), n, *args)
        # Counts below, at and past the horizon.
        got_speeds, got_a_long = _kernels.forward_pass(float(v0), count, *args)
        assert _same_bits(np.array(got_speeds), np.array(speeds[:min(count + 1, n)]))
        assert _same_bits(np.array(got_a_long), np.array(a_long[:min(count, n)]))


def _plan_cases():
    """(state, scenario, mu_hat, grid) of a lane-keeping plan on the turn and
    of a least-violating dodge that brakes until the obstacle."""
    for ds in (1.0, 0.25):
        grid = SGrid(ds=ds)
        yield (VehicleState(s=14.3, d=0.1, v=11.0, t=1.2, d_rate=0.05), turn_scenario(),
               np.full(grid.n_points, 0.4), grid)
        yield (VehicleState(s=0.0, d=0.0, v=20.0, t=0.0), collision_scenario(),
               np.full(grid.n_points, 0.6), grid)


def _step_bits(state, traj, profile):
    rows = []
    end, lam = step(state, traj, profile, 0.01, 10, rows)
    return np.array([end.s, end.d, end.v, end.t, end.d_rate, lam, *rows]).tobytes()


def _counted_passes(monkeypatch):
    """The ``count`` each forward pass is asked for from here on, in call order."""
    counts, real = [], _kernels.forward_pass

    def counting_pass(v0, count, *args):
        counts.append(count)
        return real(v0, count, *args)

    monkeypatch.setattr(_kernels, "forward_pass", counting_pass)
    return counts


class TestPlanFinishedWhereRead:
    """A read integrates a plan only as far as it asks; what it gives does not
    depend on what was read before."""

    @pytest.mark.parametrize("case", list(_plan_cases()), ids=lambda case: str(case[3].ds))
    def test_reads_in_any_order_give_the_same_bits(self, case, monkeypatch):
        state, scenario, mu_hat, grid = case
        counts = _counted_passes(monkeypatch)
        want = None
        for order in itertools.permutations(("v", "a_long", "step")):
            traj = plan(state, scenario, mu_hat, grid)
            assert counts == []
            got = {name: _step_bits(state, traj, scenario.profile) if name == "step"
                   else getattr(traj, name).tobytes() for name in order}
            # One full-horizon pass for v and a_long, one short one for the step.
            assert len(counts) == 2 and counts.count(grid.n_points) == 1
            counts.clear()
            if want is None:
                want = got
                assert traj.brake_until > 0 or scenario.obstacle is None
            assert got == want, order

    def test_a_read_in_part_changes_no_later_read(self, monkeypatch):
        state, scenario, mu_hat, grid = next(_plan_cases())
        whole = plan(state, scenario, mu_hat, grid)
        want = _step_bits(state, whole, scenario.profile), whole.v.tobytes()
        traj = plan(state, scenario, mu_hat, grid)
        counts = _counted_passes(monkeypatch)
        assert len(traj.accelerations(1)) == 1 and counts == [1]
        assert (_step_bits(state, traj, scenario.profile), traj.v.tobytes()) == want

    def test_a_copy_with_another_envelope_leaves_the_plan_alone(self):
        # Read in part, then a copy with half the envelope read in full: each
        # gives what a fresh plan gives.
        args = (VehicleState(s=5.0, d=0.0, v=12.0, t=0.5), turn_scenario(),
                np.full(51, 0.4), SGrid())
        a = plan(*args)
        a.accelerations(3)
        b = dataclasses.replace(a, v_bw=[0.5 * x for x in a.v_bw])
        b_v = b.v.tobytes()
        assert a.v.tobytes() == plan(*args).v.tobytes()
        assert b_v == dataclasses.replace(plan(*args), v_bw=b.v_bw).v.tobytes()

    def test_the_guard_reads_past_a_prefix_that_falls_short(self, monkeypatch):
        # The bound always covers the interval, so cut the first prefix short.
        state, scenario, mu_hat, grid = next(_plan_cases())
        want = _step_bits(state, plan(state, scenario, mu_hat, grid), scenario.profile)
        real, asked = PlannedTrajectory.accelerations, []

        def short_first(self, count):
            asked.append(count)
            a_long = real(self, count)
            return a_long[:1] if len(asked) == 1 else a_long

        monkeypatch.setattr(PlannedTrajectory, "accelerations", short_first)
        assert _step_bits(state, plan(state, scenario, mu_hat, grid), scenario.profile) == want
        assert len(asked) == 2 and asked[1] == 2

    @pytest.mark.parametrize("ds", [1.0, 0.5, 0.25])
    def test_one_forward_pass_per_replan_within_the_bound(self, ds, monkeypatch):
        counts, intervals = _counted_passes(monkeypatch), []
        real_step = simulator.step

        def recording_step(state, traj, profile, dt, substeps, rows):
            counts.clear()
            result = real_step(state, traj, profile, dt, substeps, rows)
            intervals.append((state, traj, dt, substeps, list(counts)))
            return result

        monkeypatch.setattr(simulator, "step", recording_step)
        patchy_profile = load_workloads().patchy_profile
        for name, build in simulator.SCENARIOS.items():
            stock = build()
            patchy = dataclasses.replace(stock, profile=patchy_profile(
                random.Random(f"finish:{name}"), stock.end_s + 50.0))
            for scenario in (stock, patchy):
                for kind in ("gt", "l", "p", "f"):
                    replans = run(scenario, Configuration(kind), local_error=-0.025,
                                  grid=SGrid(ds=ds)).replans
                    assert len(intervals) == len(replans) > 9
                    for state, traj, dt, substeps, passes in intervals:
                        assert len(passes) == 1
                        # The speed rises by at most max(mu_g) * dt a step, so
                        # the demands lie at or before s + reach.
                        grip = max(traj.mu_g)
                        reach = dt * sum(state.v + k * grip * dt for k in range(substeps - 1))
                        bound = math.floor((state.s + reach - traj.s_anchor) / ds) + 3
                        # The pass integrates count + 1 speeds, at most the horizon.
                        assert 2 < min(passes[0] + 1, len(traj.mu_g)) <= bound
                    intervals.clear()


class TestStepOnPlan:
    def test_state_holds_python_floats(self):
        scenario = turn_scenario()
        state = VehicleState(s=14.3, d=0.1, v=11.0, t=1.2, d_rate=0.05)
        traj = plan(state, scenario, np.full(51, 0.4), SGrid())
        for _ in range(3):
            state, lam = step(state, traj, scenario.profile, 0.01)
            for name in ("s", "d", "v", "t", "d_rate"):
                assert type(getattr(state, name)) is float, name
            assert type(lam) is float


# The lateral reference and the plan's acceleration bounds as they were
# written before their per-call overhead was cut: the references the current
# code must match bit for bit.
def reference_quintic_eval(blend, tau):
    t2 = tau * tau
    t3 = t2 * tau
    t4 = t3 * tau
    t5 = t4 * tau
    h0 = 1.0 - 10.0 * t3 + 15.0 * t4 - 6.0 * t5
    h1 = tau - 6.0 * t3 + 8.0 * t4 - 3.0 * t5
    h3 = 10.0 * t3 - 15.0 * t4 + 6.0 * t5
    ddh0 = -60.0 * tau + 180.0 * t2 - 120.0 * t3
    ddh1 = -36.0 * tau + 96.0 * t2 - 60.0 * t3
    ddh3 = 60.0 * tau - 180.0 * t2 + 120.0 * t3
    span = blend.s1 - blend.s0
    rate = blend.slope0 * span
    d = blend.d0 * h0 + rate * h1 + blend.d1 * h3
    curv = (blend.d0 * ddh0 + rate * ddh1 + blend.d1 * ddh3) / (span * span)
    return d, curv


def reference_lateral_eval(blends, positions, base_level=0.0):
    """The piecewise lateral reference of ``blends`` (in order, ``s0 < s1 <= next
    s0``, joined by holds of each blend's end), with boolean masks per region."""
    s = np.asarray(positions, dtype=np.float64)
    d = np.full(s.shape, base_level)
    curv = np.zeros(s.shape)
    if not blends:
        return d, curv
    first = blends[0]
    before = s < first.s0
    d[before] = first.d0 + first.slope0 * (s[before] - first.s0)
    level = None
    for blend in blends:
        if level is not None:
            gap = (s >= level[0]) & (s < blend.s0)
            d[gap] = level[1]
        inside = (s >= blend.s0) & (s < blend.s1)
        if inside.any():
            tau = (s[inside] - blend.s0) / (blend.s1 - blend.s0)
            d[inside], curv[inside] = reference_quintic_eval(blend, tau)
        level = (blend.s1, blend.d1)
    after = s >= level[0]
    d[after] = level[1]
    return d, curv


def reference_acceleration_bounds(v, mu_g, ds):
    """``_finalize``'s a_long, clipped to the grip with ``np.clip``."""
    a_long = np.empty_like(v)
    a_long[:-1] = (v[1:] ** 2 - v[:-1] ** 2) / (2.0 * ds)
    a_long[-1] = a_long[-2]
    return np.clip(a_long, -mu_g, mu_g)


def reference_curvature_caps(mu_g, kappa_abs, v_des):
    """The planner's curvature caps on numpy arrays, with boolean masks."""
    caps = np.full(kappa_abs.shape, v_des)
    curved = kappa_abs > _kernels.KAPPA_EPS
    caps[curved] = np.minimum(v_des, np.sqrt(mu_g[curved] / kappa_abs[curved]))
    return caps


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and \
        got.tobytes() == want.tobytes()


@st.composite
def blends(draw, s0=None):
    s0 = draw(_floats(-60.0, 60.0)) if s0 is None else s0
    span = draw(st.sampled_from([30.0, 1.5]) | _floats(1e-3, 60.0))
    return QuinticBlend(s0=s0, s1=s0 + span, d0=draw(_floats(-3.0, 3.0)),
                        slope0=draw(_floats(-0.5, 0.5)), d1=draw(_floats(-3.0, 3.0)))


def return_blend(blend):
    """The blend a dodge returns to center on, from ``PASS_HOLD`` past its end."""
    s_back = blend.s1 + PASS_HOLD
    return QuinticBlend(s0=s_back, s1=s_back + RETURN_LENGTH, d0=blend.d1, slope0=0.0, d1=0.0)


@st.composite
def dodge_cases(draw):
    """A dodge blend and the ascending positions a plan samples it at: anchor +
    k * ds, with the blend starting at or behind the anchor. The blend's end, the
    hold's end and the return blend's end fall before, on, between and after the
    positions."""
    n = draw(st.integers(1, 101))
    ds = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    anchor = draw(_floats(-40.0, 40.0))
    positions = anchor + np.arange(n) * ds
    blend = draw(blends(s0=anchor - draw(st.just(0.0) | _floats(0.0, 30.0))))
    if draw(st.booleans()):  # put an edge on a position when one lies past the start
        back = draw(st.sampled_from([0.0, PASS_HOLD, PASS_HOLD + RETURN_LENGTH]))
        # blends() spans at least 1e-3, so the curvature's span**2 stays normal.
        ends = [p - back for p in positions.tolist() if p - back >= blend.s0 + 1e-3]
        if ends:
            blend = dataclasses.replace(blend, s1=draw(st.sampled_from(ends)))
    # A target of -0.0 is held as +0.0 (test_a_negative_zero_target_holds_positive_zero).
    return dataclasses.replace(blend, d1=blend.d1 + 0.0), positions


class TestDodgeShapeMatchesMaskReference:
    @settings(max_examples=300, deadline=None)
    @given(dodge_cases())
    def test_is_bit_identical(self, case):
        blend, positions = case
        got = _dodge_shape(blend, blend.s1, positions)
        want = reference_lateral_eval((blend, return_blend(blend)), positions)
        assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])

    def test_every_region_is_sampled(self):
        blend = QuinticBlend(s0=3.0, s1=10.0, d0=0.2, slope0=0.1, d1=-1.0)
        positions = 3.0 + np.arange(48) * 1.0  # blend, hold, return blend, after
        got = _dodge_shape(blend, 10.0, positions)
        want = reference_lateral_eval((blend, return_blend(blend)), positions)
        assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
        assert got[0][0] == 0.2 and got[0][8] == -1.0 and got[0][45] == 0.0

    def test_a_negative_zero_target_holds_positive_zero(self):
        # The one input on which the dodge and the mask reference differ: the
        # return blend holds -0.0 * 1.0 + 0.0 * h1 + 0.0 * h3, which is +0.0. A
        # plan's target is the obstacle offset plus the clearance, never -0.0,
        # or a concession d0 + scale * (target - d0), -0.0 only from d0 = -0.0.
        blend = QuinticBlend(s0=0.0, s1=10.0, d0=-0.3, slope0=-0.1, d1=-0.0)
        positions = np.arange(16.0)
        got = _dodge_shape(blend, 10.0, positions)
        want = reference_lateral_eval((blend, return_blend(blend)), positions)
        assert _same_bits(got[0][:10], want[0][:10]) and _same_bits(got[1], want[1])
        assert (got[0][10:] == 0.0).all() and not np.signbit(got[0][10:]).any()


class TestDodgeJoins:
    # Targets, start offsets and slopes of both signs: a product with a held
    # +0.0 basis value is -0.0 when the other factor is negative.
    BLENDS = [QuinticBlend(s0=0.0, s1=20.0, d0=0.0, slope0=0.0, d1=1.5),
              QuinticBlend(s0=-3.7, s1=18.2, d0=-0.4, slope0=-0.1, d1=-1.25),
              QuinticBlend(s0=5.0, s1=6.5, d0=0.7, slope0=0.3, d1=-0.2)]

    @pytest.mark.parametrize("blend", BLENDS)
    @pytest.mark.parametrize("join", ["obstacle", "hold end"])
    def test_offset_slope_and_curvature_are_continuous(self, blend, join):
        s = blend.s1 + (0.0 if join == "obstacle" else PASS_HOLD)
        h = 1e-5
        positions = np.concatenate(([blend.s0], s + h * np.arange(-2.0, 3.0)))
        d, curv = (col[1:] for col in _dodge_shape(blend, blend.s1, positions))
        assert abs(d[3] - d[1]) <= 1e-9  # the join at index 2
        left, right = (d[2] - d[0]) / (2 * h), (d[4] - d[2]) / (2 * h)
        assert left == pytest.approx(0.0, abs=1e-6) and right == pytest.approx(0.0, abs=1e-6)
        fd_curv = (d[:-2] - 2 * d[1:-1] + d[2:]) / h**2
        np.testing.assert_allclose(fd_curv, 0.0, atol=1e-3)
        np.testing.assert_allclose(curv, 0.0, atol=1e-3)

    @pytest.mark.parametrize("blend", BLENDS)
    def test_the_hold_is_exactly_the_target(self, blend):
        positions = np.linspace(blend.s1, blend.s1 + PASS_HOLD, 41)[:-1]
        d, curv = _dodge_shape(blend, blend.s1, np.concatenate(([blend.s0], positions)))
        assert (d[1:] == blend.d1).all()
        assert (curv[1:] == 0.0).all() and not np.signbit(curv[1:]).any()

    @pytest.mark.parametrize("blend", BLENDS)
    def test_past_the_return_blend_holds_exactly_positive_zero(self, blend):
        end = blend.s1 + PASS_HOLD + RETURN_LENGTH
        positions = np.concatenate(([blend.s0], end + np.arange(20.0) * 0.5))
        d, curv = _dodge_shape(blend, blend.s1, positions)
        assert (d[1:] == 0.0).all() and not np.signbit(d[1:]).any()
        assert (curv[1:] == 0.0).all() and not np.signbit(curv[1:]).any()


def clamped_tau(blend, positions):
    """The normalized positions ``QuinticBlend.eval`` evaluates, clamped to the blend."""
    return np.clip((positions - blend.s0) / (blend.s1 - blend.s0), 0.0, 1.0)


def blend_positions(blend, tau):
    return blend.s0 + tau * (blend.s1 - blend.s0)


class TestQuinticBlendMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(blends(), hnp.arrays(np.float64, st.integers(1, 101), elements=st.one_of(
        st.just(0.0), st.just(1.0), _floats(0.0, 1.0))))
    def test_basis_and_shape_are_bit_identical(self, blend, tau):
        span = blend.s1 - blend.s0
        got = _quintic_shape(_quintic_basis(tau), blend.d0, blend.slope0 * span, blend.d1, span)
        want = reference_quintic_eval(blend, tau)
        assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])

    @settings(max_examples=300, deadline=None)
    @given(blends(), hnp.arrays(np.float64, st.integers(1, 101), elements=st.one_of(
        st.just(0.0), st.just(1.0), _floats(-0.5, 1.5))))
    def test_eval_is_bit_identical(self, blend, tau):
        positions = blend_positions(blend, tau)
        got = blend.eval(positions)
        want = reference_quintic_eval(blend, clamped_tau(blend, positions))
        assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])

    @settings(max_examples=300, deadline=None)
    @given(blends(), st.sampled_from([-0.5, 0.0, 0.5, 1.0, 1.5]) | _floats(-2.0, 3.0))
    def test_offset_at_is_eval_at_one_position(self, blend, tau):
        s = float(blend_positions(blend, tau))
        got, want = blend.offset_at(s), float(blend.eval(np.array([s]))[0][0])
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("blend", [
        QuinticBlend(s0=3.7, s1=20.0, d0=0.3, slope0=0.04, d1=1.5),
        QuinticBlend(s0=-12.0, s1=-9.5, d0=-1.1, slope0=-0.2, d1=0.0),
    ])
    def test_offset_at_is_eval_on_a_dense_sweep(self, blend):
        # Sums that round differently disagree on a few percent of points,
        # which a dense sweep finds where sampled points may not.
        span = blend.s1 - blend.s0
        positions = np.linspace(blend.s0 - 0.5 * span, blend.s1 + 0.5 * span, 4001)
        got = np.array([blend.offset_at(s) for s in positions.tolist()])
        assert _same_bits(got, blend.eval(positions)[0])

    def test_zero_curvature_keeps_its_sign_at_both_ends(self):
        blend = QuinticBlend(s0=0.0, s1=10.0, d0=0.0, slope0=0.0, d1=1.0)
        for positions in (np.zeros(3), np.full(3, 10.0)):
            got = blend.eval(positions)[1]
            want = reference_quintic_eval(blend, clamped_tau(blend, positions))[1]
            assert _same_bits(got, want)


def _flat_pass(v0, v_bound, v_cap, mu_g, ds):
    """The whole forward pass on a straight, without commanded braking."""
    n = len(mu_g)
    return _kernels.forward_pass(v0, n, v_bound, v_cap, [0.0] * n, mu_g, ds,
                                 CURVE_LATERAL_SHARE, CURVE_BRAKE_SHARE, 0)


class TestAccelerationsMatchClipReference:
    """The pass's ``a_long`` is ``np.clip`` of the difference of its own speeds."""

    @settings(max_examples=300, deadline=None)
    @given(pass_inputs(), st.data())
    def test_prefix_and_full_arrays_are_bit_identical(self, inputs, data):
        kappa_abs, mu_g, v_cap, brake_until, ds, v0, shares = inputs
        n = len(v_cap)
        # A bound off the envelope lets the speed jump past the grip, where the clip binds.
        args = (v_cap[::-1].tolist(), v_cap.tolist(), kappa_abs.tolist(), mu_g.tolist(), ds,
                *shares, brake_until)
        speeds, a_long = _kernels.forward_pass(float(v0), n, *args)
        want = reference_acceleration_bounds(np.array(speeds), mu_g, ds)
        assert _same_bits(np.array(a_long), want)
        count = data.draw(st.integers(0, n - 1))
        prefix = _kernels.forward_pass(float(v0), count, *args)[1]
        assert _same_bits(np.array(prefix), want[:count])

    def test_no_grip_clips_to_positive_zero(self):
        # Over no grip the speed jumps up past a violated cap and holds; the last
        # point repeats the braking before it. Each of the three clips to +0.0.
        mu_g = [0.0, 0.0, 5.0, 5.0, 0.0]
        speeds, a_long = _flat_pass(10.0, [10.0, 12.0, 12.0, 8.0, 8.0],
                                    [0.0, 30.0, 30.0, 30.0, 30.0], mu_g, 1.0)
        assert speeds[:3] == [10.0, 12.0, 12.0] and a_long[3] < 0.0
        got = np.array(a_long)
        assert _same_bits(got, reference_acceleration_bounds(np.array(speeds),
                                                             np.array(mu_g), 1.0))
        no_grip = got[[0, 1, 4]]
        assert (no_grip == 0.0).all() and not np.signbit(no_grip).any()

    @pytest.mark.parametrize("where", ["speed", "grip"])
    def test_nan_from_either_operand(self, where):
        v0, mu_g = 10.0, [5.0] * 4
        if where == "speed":
            v0 = -math.nan
        else:
            mu_g[1], mu_g[3] = math.nan, -math.nan
        speeds, a_long = _flat_pass(v0, [10.0, 8.0, 8.0, 9.0], [30.0] * 4, mu_g, 0.5)
        want = reference_acceleration_bounds(np.array(speeds), np.array(mu_g), 0.5)
        assert _same_bits(np.array(a_long), want)
        assert np.isnan(want).sum() == (1 if where == "speed" else 2)


class TestCurvatureCapsMatchMaskReference:
    @settings(max_examples=200, deadline=None)
    @given(pass_inputs(), st.sampled_from([0.0, 12.0, 20.0]) | _floats(0.0, 40.0))
    def test_caps_are_bit_identical(self, inputs, v_des):
        kappa_abs, mu_g = inputs[0], inputs[1]
        kappa_abs = np.where(kappa_abs < 1e-4, kappa_abs * 1e-6, kappa_abs)  # around the eps
        _, got = _kernels.backward_pass(kappa_abs.tolist(), mu_g.tolist(), v_des, 1.0)
        assert _same_bits(np.array(got), reference_curvature_caps(mu_g, kappa_abs, v_des))


class TestQuinticBlendContract:
    @pytest.mark.parametrize("s0, s1", [
        (12.0, 12.0),  # empty
        (15.0, 12.0),  # reversed
        (math.nan, 20.0),
        (0.0, math.nan),
    ])
    def test_rejects_an_empty_reversed_or_nan_span(self, s0, s1):
        with pytest.raises(ValueError, match="s0 < s1"):
            QuinticBlend(s0=s0, s1=s1, d0=1.0, slope0=0.0, d1=0.0)


def blend_return_reference(s, d, slope, positions):
    """The return-to-center reference as a blend in the world frame, starting
    ``RETURN_BACKSET`` behind the vehicle at ``s``: what the per-run basis stands in for."""
    blend = QuinticBlend(s - RETURN_BACKSET, s + RETURN_LENGTH - RETURN_BACKSET,
                         d - slope * RETURN_BACKSET, slope, 0.0)
    return blend.eval(positions)


class TestReturnBasis:
    # Offsets and slopes of both signs, on and off the return threshold, and
    # equal signs, where a product with a held 0.0 would be -0.0.
    CASES = [(0.5, 0.0), (-0.5, 0.0), (0.0, 0.05), (0.3, -0.02), (-1.2, -0.3),
             (-0.005, 0.002), (2.5, 0.7), (-4.9, -0.99), (0.01, 1e-3)]

    @pytest.mark.parametrize("ds", [0.25, 0.5, 1.0, 2.0])
    def test_bit_identical_to_the_blend_at_the_start(self, ds):
        grid = SGrid(ds=ds)
        memory = PlannerMemory()
        for d, slope in self.CASES:
            got = _return_shape(memory, grid, d, slope)
            want = blend_return_reference(0.0, d, slope, grid.points)
            assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1]), (d, slope)

    @settings(max_examples=300, deadline=None)
    @given(_floats(0.0, 500.0), _floats(-5.0, 5.0), _floats(-1.0, 1.0),
           st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    def test_matches_the_blend_anywhere_on_the_road(self, s, d, slope, ds):
        grid = SGrid(ds=ds)
        got = _return_shape(PlannerMemory(), grid, d, slope)
        want = blend_return_reference(s, d, slope, s + grid.points)
        scale = 1.0 + abs(d - slope * RETURN_BACKSET) + abs(slope * RETURN_LENGTH)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=0.0, atol=1e-12 * scale)

    def test_past_the_blend_end_holds_exactly_zero(self):
        grid = SGrid(ds=0.5)
        d_ref, curv = _return_shape(PlannerMemory(), grid, -1.0, -0.2)
        end = grid.points >= RETURN_LENGTH - RETURN_BACKSET
        assert end.any()
        assert (d_ref[end] == 0.0).all() and not np.signbit(d_ref[end]).any()
        assert (curv[end] == 0.0).all() and not np.signbit(curv[end]).any()

    @staticmethod
    def _count_builds(monkeypatch):
        # Without an obstacle, the return path is the only one that builds a basis.
        grids = []
        real = planner._quintic_basis

        def counting(tau):
            grids.append(len(tau))
            return real(tau)

        monkeypatch.setattr(planner, "_quintic_basis", counting)
        return grids

    def test_a_run_builds_the_basis_once(self, monkeypatch):
        builds = self._count_builds(monkeypatch)
        shapes = []
        real_shape = planner._return_shape
        monkeypatch.setattr(planner, "_return_shape",
                            lambda *args: shapes.append(1) or real_shape(*args))
        run(turn_scenario(), Configuration("gt"))
        assert len(shapes) > 10 and builds == [51]

    def test_a_memory_reused_on_another_grid_rebuilds_it(self, monkeypatch):
        builds = self._count_builds(monkeypatch)
        scenario, memory = straight_scenario(), PlannerMemory()
        state = VehicleState(s=40.0, d=0.4, v=12.0, t=0.0, d_rate=-0.3)
        for ds in (1.0, 1.0, 0.5, 0.5, 1.0):
            grid = SGrid(ds=ds)
            mu_hat = np.full(grid.n_points, 0.4)
            got = plan(state, scenario, mu_hat, grid, memory=memory)
            want = plan(state, scenario, mu_hat, grid)  # a fresh memory
            assert _same_bits(got.d_ref, want.d_ref) and _same_bits(got.v, want.v)
            assert memory.return_basis[0] == grid
        # Each plan on a fresh memory builds it too: one build per plan there.
        assert builds == [51, 51, 51, 101, 101, 101, 51, 51]
