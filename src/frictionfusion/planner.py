"""Friction-circle trajectory planner over an arc-length horizon.

The lateral motion is a quintic-blend offset reference (lane keeping, return
to center, or an obstacle dodge); the longitudinal motion is a curvature- and
circle-limited velocity profile built with backward/forward passes. When no
plan can satisfy the estimate-derived limits, the planner returns a flagged
least-violating plan that sheds speed at a bounded braking share while
steering toward the largest reachable lateral offset.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels

GRAVITY = 9.81

OBSTACLE_CLEARANCE = 0.5
PASS_HOLD = 2.0
RETURN_LENGTH = 30.0
RETURN_BACKSET = 3.0
MIN_DODGE_RUN = 1.5
REBASE_DEVIATION = 0.3

# Circle split for least-violating plans. Dodging favors lateral motion
# (the evasive attempt); an unmeetable cornering demand favors braking
# (shed speed, accept understeer drift until grip margin returns).
DODGE_LATERAL_SHARE = 0.80
DODGE_BRAKE_SHARE = math.sqrt(1.0 - DODGE_LATERAL_SHARE**2)
CURVE_BRAKE_SHARE = 0.85
CURVE_LATERAL_SHARE = math.sqrt(1.0 - CURVE_BRAKE_SHARE**2)

FEASIBILITY_TOL = 0.15

# Columns h0, h1, h3, ddh0, ddh1, ddh3. Term k is _BASIS_COEF[k] * tau**_BASIS_POWER[k]; adding
# them in k order, then -6 and -3 tau**5 to h0 and h1, gives each polynomial's own bits.
_BASIS_POWER = np.array([[0, 1, 3, 1, 1, 1], [3, 3, 4, 2, 2, 2], [4, 4, 5, 3, 3, 3]])
_BASIS_COEF = np.array([[1.0, 1.0, 10.0, -60.0, -36.0, 60.0],
                        [-10.0, -6.0, -15.0, 180.0, 96.0, -180.0],
                        [15.0, 8.0, 6.0, -120.0, -60.0, 120.0]])[:, :, None]
_BASIS_T5_COEF = np.array([[-6.0], [-3.0]])


@dataclass(frozen=True)
class QuinticBlend:
    """Quintic lateral blend from (d0, slope0, curv 0) to (d1, slope 0, curv 0)."""

    s0: float
    s1: float
    d0: float
    slope0: float
    d1: float

    def eval(self, tau):
        """Offset and curvature contribution at normalized positions."""
        tau = np.asarray(tau, dtype=np.float64)
        powers = np.empty((6, tau.size))
        powers[0] = 1.0
        powers[1] = tau.reshape(-1)
        for k in range(2, 6):
            np.multiply(powers[k - 1], powers[1], out=powers[k])
        terms = powers[_BASIS_POWER]
        terms *= _BASIS_COEF
        basis = terms[0] + terms[1]
        basis += terms[2]
        basis[:2] += _BASIS_T5_COEF * powers[5]
        # d and curv sum d0 * h0 + rate * h1 + d1 * h3 over h and over ddh.
        span = self.s1 - self.s0
        parts = basis.reshape(2, 3, -1)
        parts *= np.array([[self.d0], [self.slope0 * span], [self.d1]])
        total = parts[:, 0] + parts[:, 1]
        total += parts[:, 2]
        return total[0].reshape(tau.shape), (total[1] / (span * span)).reshape(tau.shape)

    def offset_at(self, s):
        """Offset at one position, clamped to the blend: ``eval``'s operations in
        the same order, on Python floats."""
        span = self.s1 - self.s0
        tau = min(max((s - self.s0) / span, 0.0), 1.0)
        t2 = tau * tau
        t3 = t2 * tau
        t4 = t3 * tau
        t5 = t4 * tau
        h0 = 1.0 + -10.0 * t3 + 15.0 * t4 + -6.0 * t5
        h1 = tau + -6.0 * t3 + 8.0 * t4 + -3.0 * t5
        h3 = 10.0 * t3 + -15.0 * t4 + 6.0 * t5
        return self.d0 * h0 + self.slope0 * span * h1 + self.d1 * h3


@dataclass(frozen=True)
class LateralReference:
    """Piecewise lateral offset profile: blends in order, ``s0 < s1 <= next.s0``,
    joined by constant holds."""

    blends: tuple
    base_level: float = 0.0

    def __post_init__(self):
        prev_s1 = -math.inf
        for blend in self.blends:
            if not prev_s1 <= blend.s0 < blend.s1:  # false for a NaN edge too
                raise ValueError(f"blends must satisfy s0 < s1 <= next s0, got {self.blends}")
            prev_s1 = blend.s1

    def eval(self, positions):
        """Offset and curvature at ascending ``positions``; before the first blend the
        offset extends along its start slope, after a blend it holds its end."""
        s = np.asarray(positions, dtype=np.float64)
        # A pair that holds a NaN compares false; only a lone NaN needs its own test.
        if not (s[1:] >= s[:-1]).all() or (s.size == 1 and np.isnan(s[0])):
            raise ValueError("positions must be ascending, with no NaN")
        d = np.full(s.shape, self.base_level)
        curv = np.zeros(s.shape)
        if not self.blends:
            return d, curv
        # cut[k] counts the positions below edge k (s0, s1, next s0, ...); blend k
        # covers cut[2k]:cut[2k+1], and its end holds until the next blend.
        first = self.blends[0]
        cut = np.searchsorted(s, [e for b in self.blends for e in (b.s0, b.s1)]).tolist()
        d[:cut[0]] = first.d0 + first.slope0 * (s[:cut[0]] - first.s0)
        for k, blend in enumerate(self.blends):
            lo, hi = cut[2 * k], cut[2 * k + 1]
            if hi > lo:
                tau = (s[lo:hi] - blend.s0) / (blend.s1 - blend.s0)
                d[lo:hi], curv[lo:hi] = blend.eval(tau)
            d[hi:] = blend.d1
        return d, curv


@dataclass
class PlannerMemory:
    """Per-run planner state: the committed dodge geometry and its scale.

    Committing the maneuver once keeps successive replans tracking the same
    polynomial instead of restarting a zero-curvature blend every cycle; the
    scale remembers how much of the target a least-violating plan conceded.
    """

    full_blend: QuinticBlend = None
    active_blend: QuinticBlend = None
    scale: float = 1.0


@dataclass(frozen=True)
class PlannedTrajectory:
    """Grid-sampled plan: lateral target, speed profile and planar accelerations.

    ``feasible`` is False when the friction-circle limits derived from the
    estimate could not honor the objective and the plan is the flagged
    least-violating fallback.
    """

    s_anchor: float
    ds: float
    positions: np.ndarray
    d_ref: np.ndarray
    v: np.ndarray
    a_long: np.ndarray
    kappa_eff: np.ndarray
    lat_bound: np.ndarray
    kappa_path: np.ndarray
    feasible: bool
    dodge_scale: float = 1.0


def _dodge_reference(blend, s_obs):
    return_blend = QuinticBlend(
        s0=s_obs + PASS_HOLD, s1=s_obs + PASS_HOLD + RETURN_LENGTH,
        d0=blend.d1, slope0=0.0, d1=0.0,
    )
    return LateralReference(blends=(blend, return_blend))


def _return_reference(s_now, d_now, slope_now):
    if abs(d_now) < 0.01 and abs(slope_now) < 1e-3:
        return LateralReference(blends=(), base_level=0.0)
    # Anchor the blend behind the vehicle: the quintic starts with zero
    # curvature, so a blend starting exactly at the vehicle would command
    # no correction at the point where the plant samples the plan.
    s0 = s_now - RETURN_BACKSET
    blend = QuinticBlend(s0=s0, s1=s0 + RETURN_LENGTH,
                         d0=d_now - slope_now * RETURN_BACKSET,
                         slope0=slope_now, d1=0.0)
    return LateralReference(blends=(blend,))


def _blend_peak_curvature(blend, kappa_path_fn, s_from=None):
    """Largest |effective curvature| on the not-yet-traversed part of a blend."""
    tau_from = 0.0
    if s_from is not None:
        tau_from = (s_from - blend.s0) / (blend.s1 - blend.s0)
        tau_from = min(max(tau_from, 0.0), 1.0)
    taus = np.linspace(tau_from, 1.0, 101)
    _, curv = blend.eval(taus)
    s_fine = blend.s0 + taus * (blend.s1 - blend.s0)
    total = np.abs(curv + kappa_path_fn(s_fine))
    idx = int(np.argmax(total))
    return total[idx], s_fine[idx]


def _speed_profile(state, ref, positions, mu_g, kappa_path, v_des, ds, f_lat, f_brake,
                   brake_mask=None):
    d_ref, curv = ref.eval(positions)
    kappa_eff = kappa_path + curv
    kappa_abs = np.abs(kappa_eff)
    v_bw, v_cap = _kernels.backward_pass(kappa_abs, mu_g, v_des, ds)
    v = _kernels.forward_pass(state.v, v_bw, v_cap, kappa_abs, mu_g, ds, f_lat, f_brake,
                              brake_mask)
    return d_ref, kappa_eff, v_bw, v


def plan(state, scenario, mu_hat, grid, memory=None):
    """Plan over the horizon grid anchored at the vehicle.

    Builds the lateral reference (a dodge ahead of the scenario's obstacle,
    if it has one, else lane keeping), converts it to an effective curvature
    profile, and runs the circle-limited velocity passes against the
    friction estimate. An unreachable dodge yields a least-violating plan:
    the target is scaled down to what the lateral share of the circle can
    reach and the rest of the budget brakes. The optional ``memory`` keeps
    the dodge geometry committed across replans.
    """
    if state.v < 0.0:
        raise ValueError("state.v must be >= 0")
    mu = np.maximum(np.asarray(mu_hat, dtype=np.float64).reshape(-1), 0.0)
    pts = grid.points
    if len(mu) != len(pts):
        raise ValueError("mu_hat must cover every grid point")
    positions = state.s + pts
    ds = grid.ds
    mu_g = mu * GRAVITY
    kappa_path = scenario.curvature_on(positions)
    v_des = scenario.target_speed
    memory = memory if memory is not None else PlannerMemory()

    slope_now = state.d_rate / state.v if state.v > 0.5 else 0.0
    dodging = (
        scenario.obstacle is not None
        and state.s < scenario.obstacle[0] - MIN_DODGE_RUN
    )

    if not dodging:
        if scenario.obstacle is not None and state.s < scenario.obstacle[0] + PASS_HOLD:
            ref = LateralReference(blends=(), base_level=state.d)
        else:
            ref = _return_reference(state.s, state.d, slope_now)
        d_ref, kappa_eff, v_bw, v = _speed_profile(
            state, ref, positions, mu_g, kappa_path, v_des, ds,
            CURVE_LATERAL_SHARE, CURVE_BRAKE_SHARE)
        feasible = v_bw[0] >= state.v - FEASIBILITY_TOL
        return _finalize(state, grid, positions, d_ref, kappa_eff, kappa_path,
                         v, mu_g, feasible, 1.0)

    s_obs = scenario.obstacle[0]
    full_target = scenario.obstacle[1] + OBSTACLE_CLEARANCE
    full_blend = memory.full_blend
    tracked = memory.active_blend
    if (
        full_blend is None
        or full_blend.s1 != s_obs
        or (tracked is not None and abs(state.d - tracked.offset_at(state.s)) > REBASE_DEVIATION)
    ):
        full_blend = QuinticBlend(s0=state.s, s1=s_obs, d0=state.d,
                                  slope0=slope_now, d1=full_target)
        memory.scale = 1.0

    ref_full = _dodge_reference(full_blend, s_obs)
    d_ref, kappa_eff, v_bw, v = _speed_profile(
        state, ref_full, positions, mu_g, kappa_path, v_des, ds,
        DODGE_LATERAL_SHARE, DODGE_BRAKE_SHARE)
    on_full = abs(state.d - full_blend.offset_at(state.s)) <= REBASE_DEVIATION
    if on_full and v_bw[0] >= state.v - FEASIBILITY_TOL:
        memory.full_blend = full_blend
        memory.active_blend = full_blend
        memory.scale = 1.0
        return _finalize(state, grid, positions, d_ref, kappa_eff, kappa_path,
                         v, mu_g, True, 1.0)

    # Least-violating dodge: concede the target down to the offset the
    # lateral share of the circle can still reach over the remaining run,
    # rebase the blend on the current state so the reference stays
    # continuous under the vehicle, and brake until the obstacle.
    kappa_pk, s_pk = _blend_peak_curvature(full_blend, scenario.curvature_on,
                                           s_from=state.s)
    scale = 1.0
    if kappa_pk > _kernels.KAPPA_EPS and state.v > 0.0:
        pk_idx = min(max(int(round((s_pk - state.s) / ds)), 0), len(pts) - 1)
        scale = DODGE_LATERAL_SHARE * mu_g[pk_idx] / (state.v**2 * kappa_pk)
        scale = min(max(scale, 0.0), 1.0)
    if memory.scale < 1.0:
        scale = min(scale, memory.scale)
    # Keep tracking the committed conceded polynomial while the concession
    # is stable; rebuild from the current state only when it materially
    # changes. The target stays anchored at the committed start offset so
    # successive replans cannot ratchet it back up as the vehicle advances.
    reuse = (
        memory.active_blend is not None
        and memory.scale < 1.0
        and memory.active_blend.s1 == s_obs
        and abs(scale - memory.scale) <= 0.02
    )
    if reuse:
        scaled_blend = memory.active_blend
        scale = memory.scale
    else:
        target = full_blend.d0 + scale * (full_target - full_blend.d0)
        scaled_blend = QuinticBlend(s0=state.s, s1=s_obs, d0=state.d,
                                    slope0=slope_now, d1=target)
    ref_scaled = _dodge_reference(scaled_blend, s_obs)
    brake_mask = positions < s_obs
    d_ref, kappa_eff, v_bw, v = _speed_profile(
        state, ref_scaled, positions, mu_g, kappa_path, v_des, ds,
        DODGE_LATERAL_SHARE, DODGE_BRAKE_SHARE, brake_mask)
    memory.full_blend = full_blend
    memory.active_blend = scaled_blend
    memory.scale = scale
    return _finalize(state, grid, positions, d_ref, kappa_eff, kappa_path,
                     v, mu_g, False, scale)


def _finalize(state, grid, positions, d_ref, kappa_eff, kappa_path, v, mu_g,
              feasible, dodge_scale):
    # The passes already split the circle between braking and cornering;
    # recover that split with longitudinal priority so planned braking is
    # never zeroed out by a saturated lateral demand.
    a_long = np.empty_like(v)
    a_long[:-1] = (v[1:] ** 2 - v[:-1] ** 2) / (2.0 * grid.ds)
    a_long[-1] = a_long[-2]
    # np.clip's semantics, signed zeros included, without its Python wrapper.
    a_long = np.minimum(np.maximum(a_long, -mu_g), mu_g)
    lat_bound = np.sqrt(np.maximum(mu_g**2 - a_long**2, 0.0))
    return PlannedTrajectory(
        s_anchor=state.s,
        ds=grid.ds,
        positions=positions,
        d_ref=d_ref,
        v=v,
        a_long=a_long,
        kappa_eff=kappa_eff,
        lat_bound=lat_bound,
        kappa_path=kappa_path,
        feasible=bool(feasible),
        dodge_scale=dodge_scale,
    )
