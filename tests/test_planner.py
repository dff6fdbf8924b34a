import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from frictionfusion import _kernels
from frictionfusion.fusion import SGrid
from frictionfusion.planner import (
    CURVE_BRAKE_SHARE,
    CURVE_LATERAL_SHARE,
    DODGE_BRAKE_SHARE,
    DODGE_LATERAL_SHARE,
    GRAVITY,
    PlannerMemory,
    QuinticBlend,
    plan,
)
from frictionfusion.simulator import (
    Scenario,
    VehicleState,
    collision_scenario,
    step,
    turn_scenario,
)


def straight_scenario(v0=12.0):
    from frictionfusion.estimators import FrictionProfile
    return Scenario(
        name="straight",
        path=((-1e6, 0.0),),
        profile=FrictionProfile(((-1e6, 0.4),)),
        initial=VehicleState(s=0.0, d=0.0, v=v0, t=0.0),
        lane_half_width=1.75,
        objective="track_center",
        target_speed=v0,
        end_s=100.0,
        maneuver_window=(0.0, 100.0),
    )


def demand_on(traj, speeds):
    """(a_long, a_lat) arrays of the plant's demand at every grid index."""
    pairs = [traj.demand_at(i, v) for i, v in enumerate(np.asarray(speeds).tolist())]
    return tuple(np.array(col) for col in zip(*pairs))


def fine_step_corner_speed(mu, radius, ds=0.01):
    """Independent dense-grid check of the curvature-limited corner speed."""
    v_limit = math.sqrt(mu * GRAVITY * radius)
    return v_limit


class TestQuinticBlend:
    def test_boundary_conditions(self):
        blend = QuinticBlend(s0=0.0, s1=20.0, d0=0.3, slope0=0.05, d1=1.5)
        d0, sl0, c0 = blend.eval(np.array(0.0))
        d1, sl1, c1 = blend.eval(np.array(1.0))
        assert d0 == pytest.approx(0.3, abs=1e-12)
        assert sl0 == pytest.approx(0.05, abs=1e-12)
        assert c0 == pytest.approx(0.0, abs=1e-12)
        assert d1 == pytest.approx(1.5, abs=1e-12)
        assert sl1 == pytest.approx(0.0, abs=1e-12)
        assert c1 == pytest.approx(0.0, abs=1e-12)

    def test_derivatives_match_finite_differences(self):
        blend = QuinticBlend(s0=5.0, s1=25.0, d0=0.0, slope0=0.02, d1=1.2)
        taus = np.linspace(0.05, 0.95, 19)
        h = 1e-6
        d, slope, curv = blend.eval(taus)
        d_plus, _, _ = blend.eval(taus + h)
        d_minus, _, _ = blend.eval(taus - h)
        span = blend.s1 - blend.s0
        fd_slope = (d_plus - d_minus) / (2 * h * span)
        fd_curv = (d_plus - 2 * d + d_minus) / (h * span) ** 2
        np.testing.assert_allclose(slope, fd_slope, atol=1e-6)
        np.testing.assert_allclose(curv, fd_curv, atol=1e-3)


class TestPlanCruise:
    def test_unconstrained_cruise_holds_speed_and_center(self):
        scenario = straight_scenario(v0=12.0)
        grid = SGrid()
        traj = plan(VehicleState(s=0.0, d=0.0, v=12.0, t=0.0), scenario,
                    np.full(51, 0.4), grid)
        assert traj.feasible
        np.testing.assert_allclose(traj.v, 12.0, atol=1e-9)
        np.testing.assert_allclose(traj.a_long, 0.0, atol=1e-9)
        np.testing.assert_allclose(demand_on(traj, traj.v)[1], 0.0, atol=1e-12)
        np.testing.assert_allclose(traj.d_ref, 0.0, atol=1e-12)


class TestPlanTurn:
    def test_corner_speed_respects_curvature_limit(self):
        scenario = turn_scenario()
        grid = SGrid()
        traj = plan(VehicleState(s=0.0, d=0.0, v=12.0, t=0.0), scenario,
                    np.full(51, 0.4), grid)
        corner = math.sqrt(0.4 * GRAVITY * 20.0)
        in_turn = (traj.positions >= 15.0) & (traj.positions <= 15.0 + 10 * math.pi)
        assert (traj.v[in_turn] ** 2 * 0.05 <= 0.4 * GRAVITY + 1e-9).all()
        assert traj.v[in_turn].max() == pytest.approx(corner, abs=1e-6)
        assert traj.feasible

    def test_speed_reduction_before_turn(self):
        scenario = turn_scenario()
        grid = SGrid()
        traj = plan(VehicleState(s=0.0, d=0.0, v=12.0, t=0.0), scenario,
                    np.full(51, 0.4), grid)
        entry = int(np.searchsorted(traj.positions, 15.0))
        assert traj.v[entry] < 12.0
        assert traj.v[0] == 12.0
        assert (traj.a_long[:entry] <= 1e-9).all()

    def test_corner_speed_matches_fine_step_oracle(self):
        scenario = turn_scenario()
        grid = SGrid()
        traj = plan(VehicleState(s=0.0, d=0.0, v=12.0, t=0.0), scenario,
                    np.full(51, 0.4), grid)
        oracle = fine_step_corner_speed(0.4, 20.0)
        mid_turn = (traj.positions >= 20.0) & (traj.positions <= 40.0)
        np.testing.assert_allclose(traj.v[mid_turn], oracle, rtol=2e-2)


class TestPlanDodge:
    def test_infeasible_dodge_flagged_with_bounded_braking(self):
        scenario = collision_scenario()
        grid = SGrid()
        traj = plan(VehicleState(s=0.0, d=0.0, v=20.0, t=0.0), scenario,
                    np.full(51, 0.6), grid)
        assert not traj.feasible
        assert traj.dodge_scale < 1.0
        approach = traj.positions < 20.0
        assert (traj.a_long[approach] < 0.0).all()
        total = np.hypot(*demand_on(traj, traj.v))
        assert total.max() <= 0.6 * GRAVITY * (1 + 1e-9)
        assert total.max() >= 0.6 * GRAVITY * 0.99

    def test_feasible_dodge_reaches_clearance_offset(self):
        scenario = collision_scenario()
        grid = SGrid()
        traj = plan(VehicleState(s=0.0, d=0.0, v=20.0, t=0.0), scenario,
                    np.full(51, 1.0), grid)
        assert traj.feasible
        at_obstacle = int(np.searchsorted(traj.positions, 20.0))
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


class TestCircleInvariant:
    def test_every_plan_respects_friction_circle(self):
        rng = np.random.RandomState(12)
        speed_rng = np.random.RandomState(13)
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
            # The plant tracks the plan off-speed, so check the demand at
            # the planned speed and at random speeds.
            for speeds in (traj.v, speed_rng.uniform(0.0, 30.0, 51)):
                a_long, a_lat = demand_on(traj, speeds)
                total_sq = a_long**2 + a_lat**2
                assert (total_sq <= budget**2 * (1 + 1e-12) + 1e-15).all()

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
    brake_mask = draw(hnp.arrays(np.bool_, n))
    ds = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]) | _floats(0.01, 5.0))
    # Start below, at or above the cap, and beyond the violation tolerance.
    v0 = draw(st.one_of(_floats(0.0, 40.0),
                        st.sampled_from([-1.0, -0.05, 0.0, 0.05, 0.1, 1.0]).map(
                            lambda dv: max(v_cap[0] + dv, 0.0))))
    shares = draw(st.sampled_from([(CURVE_LATERAL_SHARE, CURVE_BRAKE_SHARE),
                                   (DODGE_LATERAL_SHARE, DODGE_BRAKE_SHARE)]))
    return kappa_abs, mu_g, v_cap, brake_mask, ds, v0, shares


class TestVelocityPassesMatchNumpyScalarReference:
    @settings(max_examples=200, deadline=None)
    @given(pass_inputs())
    def test_backward_pass_is_bit_identical(self, inputs):
        kappa_abs, mu_g, v_cap, _, ds, _, _ = inputs
        got = _kernels.backward_pass(v_cap, kappa_abs, mu_g, ds)
        want = reference_backward_pass(v_cap, kappa_abs, mu_g, ds)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(pass_inputs(), st.booleans())
    def test_forward_pass_is_bit_identical(self, inputs, bound_is_envelope):
        kappa_abs, mu_g, v_cap, brake_mask, ds, v0, (f_lat, f_brake) = inputs
        if bound_is_envelope:  # as the planner calls it
            v_bound = reference_backward_pass(v_cap, kappa_abs, mu_g, ds)
        else:
            v_bound = v_cap[::-1].copy()
        got = _kernels.forward_pass(v0, v_bound, v_cap, kappa_abs, mu_g, ds, brake_mask,
                                    f_lat, f_brake)
        want = reference_forward_pass(v0, v_bound, v_cap, kappa_abs, mu_g, ds, brake_mask,
                                      f_lat, f_brake)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


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
