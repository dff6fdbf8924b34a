import dataclasses
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
    LateralReference,
    PlannerMemory,
    QuinticBlend,
    _finalize,
    plan,
)
from frictionfusion.simulator import (
    Scenario,
    VehicleState,
    collision_scenario,
    step,
    turn_scenario,
)
from helpers import reference_demand_at


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


def demand_on(traj, speeds):
    """(a_long, a_lat) arrays of the plant's demand at every grid index."""
    pairs = [reference_demand_at(traj, i, v) for i, v in enumerate(np.asarray(speeds).tolist())]
    return tuple(np.array(col) for col in zip(*pairs))


def fine_step_corner_speed(mu, radius, ds=0.01):
    """Independent dense-grid check of the curvature-limited corner speed."""
    v_limit = math.sqrt(mu * GRAVITY * radius)
    return v_limit


class TestQuinticBlend:
    @staticmethod
    def fd_slope(blend, tau, h=1e-6):
        """Central-difference slope dd/ds of the offset at normalized position tau."""
        d_plus, _ = blend.eval(np.array(tau + h))
        d_minus, _ = blend.eval(np.array(tau - h))
        return (d_plus - d_minus) / (2 * h * (blend.s1 - blend.s0))

    def test_boundary_conditions(self):
        blend = QuinticBlend(s0=0.0, s1=20.0, d0=0.3, slope0=0.05, d1=1.5)
        d0, c0 = blend.eval(np.array(0.0))
        d1, c1 = blend.eval(np.array(1.0))
        assert d0 == pytest.approx(0.3, abs=1e-12)
        assert self.fd_slope(blend, 0.0) == pytest.approx(0.05, abs=1e-8)
        assert c0 == pytest.approx(0.0, abs=1e-12)
        assert d1 == pytest.approx(1.5, abs=1e-12)
        assert self.fd_slope(blend, 1.0) == pytest.approx(0.0, abs=1e-8)
        assert c1 == pytest.approx(0.0, abs=1e-12)

    def test_derivatives_match_finite_differences(self):
        blend = QuinticBlend(s0=5.0, s1=25.0, d0=0.0, slope0=0.02, d1=1.2)
        taus = np.linspace(0.05, 0.95, 19)
        h = 1e-6
        d, curv = blend.eval(taus)
        d_plus, _ = blend.eval(taus + h)
        d_minus, _ = blend.eval(taus - h)
        span = blend.s1 - blend.s0
        fd_curv = (d_plus - 2 * d + d_minus) / (h * span) ** 2
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
    @given(pass_inputs(), st.sampled_from([0.0, 12.0, 20.0]) | _floats(0.0, 40.0))
    def test_backward_pass_is_bit_identical(self, inputs, v_des):
        kappa_abs, mu_g, _, _, ds, _, _ = inputs
        envelope, caps = _kernels.backward_pass(kappa_abs, mu_g, v_des, ds)
        want_caps = reference_curvature_caps(mu_g, kappa_abs, v_des)
        want = reference_backward_pass(want_caps, kappa_abs, mu_g, ds)
        assert type(envelope) is list and type(caps) is list
        assert _same_bits(np.array(caps), want_caps)
        assert _same_bits(np.array(envelope), want)

    @settings(max_examples=200, deadline=None)
    @given(pass_inputs(), st.booleans())
    def test_forward_pass_is_bit_identical(self, inputs, bound_is_envelope):
        kappa_abs, mu_g, v_cap, brake_mask, ds, v0, (f_lat, f_brake) = inputs
        if bound_is_envelope:  # as the planner calls it
            v_bound = reference_backward_pass(v_cap, kappa_abs, mu_g, ds)
        else:
            v_bound = v_cap[::-1].copy()
        got = _kernels.forward_pass(v0, v_bound.tolist(), v_cap.tolist(), kappa_abs, mu_g, ds,
                                    f_lat, f_brake, brake_mask)
        want = reference_forward_pass(v0, v_bound, v_cap, kappa_abs, mu_g, ds, brake_mask,
                                      f_lat, f_brake)
        assert _same_bits(got, want)

    @settings(max_examples=100, deadline=None)
    @given(pass_inputs())
    def test_forward_pass_without_a_mask_is_an_all_false_mask(self, inputs):
        kappa_abs, mu_g, v_cap, _, ds, v0, (f_lat, f_brake) = inputs
        args = (v0, v_cap[::-1].tolist(), v_cap.tolist(), kappa_abs, mu_g, ds, f_lat, f_brake)
        unmasked = _kernels.forward_pass(*args)
        assert _same_bits(unmasked, _kernels.forward_pass(*args, np.zeros(len(v_cap), bool)))


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


def reference_lateral_eval(ref, positions):
    """Boolean masks per region, in place of slices of ascending positions."""
    s = np.asarray(positions, dtype=np.float64)
    d = np.full(s.shape, ref.base_level)
    curv = np.zeros(s.shape)
    if not ref.blends:
        return d, curv
    first = ref.blends[0]
    before = s < first.s0
    d[before] = first.d0 + first.slope0 * (s[before] - first.s0)
    level = None
    for blend in ref.blends:
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
    """``_finalize``'s a_long and lat_bound, clipped with ``np.clip``."""
    a_long = np.empty_like(v)
    a_long[:-1] = (v[1:] ** 2 - v[:-1] ** 2) / (2.0 * ds)
    a_long[-1] = a_long[-2]
    a_long = np.clip(a_long, -mu_g, mu_g)
    lat_bound = np.sqrt(np.maximum(mu_g**2 - a_long**2, 0.0))
    return a_long, lat_bound


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


@st.composite
def lateral_cases(draw):
    """A reference with 0, 1 or 2 blends and the ascending positions a plan
    samples it at: anchor + k * ds. Edges fall before, on, between and after
    the positions, and the two blends may touch."""
    n = draw(st.integers(1, 101))
    ds = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    anchor = draw(_floats(-40.0, 40.0))
    positions = anchor + np.arange(n) * ds
    edge = st.sampled_from(positions.tolist()) | _floats(anchor - 20.0, anchor + n * ds + 20.0)
    count = draw(st.integers(0, 2))
    chain = []
    for _ in range(count):
        start = draw(edge)
        if chain:
            start = max(start, chain[-1].s1) if draw(st.booleans()) else chain[-1].s1
        blend = draw(blends(s0=start))
        if draw(st.booleans()):  # end on a position when one lies past the start
            later = [p for p in positions.tolist() if p > start]
            if later:
                blend = dataclasses.replace(blend, s1=draw(st.sampled_from(later)))
        chain.append(blend)
    ref = LateralReference(blends=tuple(chain), base_level=draw(_floats(-2.0, 2.0)))
    return ref, positions


class TestLateralReferenceMatchesMaskReference:
    @settings(max_examples=300, deadline=None)
    @given(lateral_cases())
    def test_eval_is_bit_identical(self, case):
        ref, positions = case
        got, want = ref.eval(positions), reference_lateral_eval(ref, positions)
        assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])

    def test_every_region_is_sampled(self):
        first = QuinticBlend(s0=3.0, s1=10.0, d0=0.2, slope0=0.1, d1=1.0)
        second = QuinticBlend(s0=20.0, s1=30.0, d0=1.0, slope0=0.0, d1=0.0)
        ref = LateralReference(blends=(first, second))
        positions = np.arange(41) * 1.0  # before, inside, gap, inside, after
        got, want = ref.eval(positions), reference_lateral_eval(ref, positions)
        assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
        assert got[0][0] == 0.2 - 0.1 * 3.0 and got[0][15] == 1.0 and got[0][40] == 0.0


class TestQuinticBlendMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(blends(), hnp.arrays(np.float64, st.integers(1, 101), elements=st.one_of(
        st.just(0.0), st.just(1.0), _floats(0.0, 1.0))))
    def test_eval_is_bit_identical(self, blend, tau):
        got, want = blend.eval(tau), reference_quintic_eval(blend, tau)
        assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])

    @settings(max_examples=300, deadline=None)
    @given(blends(), st.sampled_from([-0.5, 0.0, 0.5, 1.0, 1.5]) | _floats(-2.0, 3.0))
    def test_offset_at_is_eval_at_the_clamped_point(self, blend, tau):
        s = blend.s0 + tau * (blend.s1 - blend.s0)
        clamped = min(max((s - blend.s0) / (blend.s1 - blend.s0), 0.0), 1.0)
        got, want = blend.offset_at(s), float(blend.eval(np.float64(clamped))[0])
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
        positions = np.linspace(blend.s0 - 0.5 * span, blend.s1 + 0.5 * span, 4001).tolist()
        taus = [min(max((s - blend.s0) / span, 0.0), 1.0) for s in positions]
        got = np.array([blend.offset_at(s) for s in positions])
        assert _same_bits(got, blend.eval(np.array(taus))[0])

    def test_zero_curvature_keeps_its_sign_at_both_ends(self):
        blend = QuinticBlend(s0=0.0, s1=10.0, d0=0.0, slope0=0.0, d1=1.0)
        for tau in (np.zeros(3), np.ones(3)):
            got, want = blend.eval(tau)[1], reference_quintic_eval(blend, tau)[1]
            assert _same_bits(got, want)


@st.composite
def speeds_and_grip(draw):
    n = draw(st.integers(2, 201))
    v = draw(hnp.arrays(np.float64, n, elements=st.one_of(
        st.just(0.0), st.just(12.0), _floats(0.0, 40.0))))
    mu_g = draw(hnp.arrays(np.float64, n, elements=st.one_of(
        st.just(0.0), _floats(1e-3, 1.2 * GRAVITY))))
    ds = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
    return v, mu_g, ds


class TestFinalizeMatchesClipReference:
    @settings(max_examples=300, deadline=None)
    @given(speeds_and_grip())
    def test_acceleration_bounds_are_bit_identical(self, case):
        v, mu_g, ds = case
        grid = SGrid(ds=ds, s_f=ds * (len(v) - 1))
        state = VehicleState(s=0.0, d=0.0, v=v.item(0), t=0.0)
        traj = _finalize(state, grid, grid.points, v, v, v, v, mu_g, True, 1.0)
        a_long, lat_bound = reference_acceleration_bounds(v, mu_g, ds)
        assert _same_bits(traj.a_long, a_long) and _same_bits(traj.lat_bound, lat_bound)

    def test_no_grip_clips_to_positive_zero(self):
        v = np.array([10.0, 8.0, 8.0, 9.0])
        mu_g = np.zeros(4)
        traj = _finalize(VehicleState(s=0.0, d=0.0, v=10.0, t=0.0), SGrid(ds=1.0, s_f=3.0),
                         np.arange(4.0), v, v, v, v, mu_g, True, 1.0)
        a_long, _ = reference_acceleration_bounds(v, mu_g, 1.0)
        assert _same_bits(traj.a_long, a_long)
        assert not np.signbit(traj.a_long).any()


class TestCurvatureCapsMatchMaskReference:
    @settings(max_examples=200, deadline=None)
    @given(pass_inputs(), st.sampled_from([0.0, 12.0, 20.0]) | _floats(0.0, 40.0))
    def test_caps_are_bit_identical(self, inputs, v_des):
        kappa_abs, mu_g = inputs[0], inputs[1]
        kappa_abs = np.where(kappa_abs < 1e-4, kappa_abs * 1e-6, kappa_abs)  # around the eps
        _, got = _kernels.backward_pass(kappa_abs, mu_g, v_des, 1.0)
        assert _same_bits(np.array(got), reference_curvature_caps(mu_g, kappa_abs, v_des))


class TestLateralReferenceContract:
    FIRST = QuinticBlend(s0=0.0, s1=10.0, d0=0.0, slope0=0.0, d1=1.0)

    @pytest.mark.parametrize("second", [
        QuinticBlend(s0=-5.0, s1=-1.0, d0=1.0, slope0=0.0, d1=0.0),  # out of order
        QuinticBlend(s0=9.0, s1=20.0, d0=1.0, slope0=0.0, d1=0.0),  # overlaps
        QuinticBlend(s0=12.0, s1=12.0, d0=1.0, slope0=0.0, d1=0.0),  # empty
        QuinticBlend(s0=15.0, s1=12.0, d0=1.0, slope0=0.0, d1=0.0),  # reversed
        QuinticBlend(s0=math.nan, s1=20.0, d0=1.0, slope0=0.0, d1=0.0),
    ])
    def test_rejects_blends_out_of_order_or_overlapping(self, second):
        with pytest.raises(ValueError, match="s0 < s1 <= next s0"):
            LateralReference(blends=(self.FIRST, second))

    def test_touching_blends_are_accepted(self):
        second = QuinticBlend(s0=10.0, s1=20.0, d0=1.0, slope0=0.0, d1=0.0)
        assert LateralReference(blends=(self.FIRST, second)).blends[1] is second

    @pytest.mark.parametrize("blend_count", [0, 1])
    @pytest.mark.parametrize("positions", [[0.0, 2.0, 1.0], [0.0, math.nan, 2.0],
                                           [math.nan]])
    def test_eval_rejects_positions_that_are_not_ascending(self, blend_count, positions):
        ref = LateralReference(blends=(self.FIRST,)[:blend_count])
        with pytest.raises(ValueError, match="ascending"):
            ref.eval(np.array(positions))
