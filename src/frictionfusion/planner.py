"""Friction-circle trajectory planner over an arc-length horizon.

The lateral motion is a quintic-blend offset reference (lane keeping, return
to center, or an obstacle dodge), each blend evaluated by one basis
(``_quintic_basis``) and one combination (``_quintic_shape``); the
longitudinal motion is a curvature- and circle-limited velocity profile built
with backward/forward passes. When no plan can satisfy the estimate-derived
limits, the planner returns a flagged least-violating plan that sheds speed at
a bounded braking share while steering toward the largest reachable lateral
offset.
"""

import functools
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

# Row k holds the coefficients of tau**k in h0, ddh0, h1, ddh1, h3 and ddh3.
_QUINTIC_COEF = np.array([[1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                          [0.0, -60.0, 1.0, -36.0, 0.0, 60.0],
                          [0.0, 180.0, 0.0, 96.0, 0.0, -180.0],
                          [-10.0, -120.0, -6.0, -60.0, 10.0, 120.0],
                          [15.0, 0.0, 8.0, 0.0, -15.0, 0.0],
                          [-6.0, 0.0, -3.0, 0.0, 6.0, 0.0]])[:, :, None]


def _quintic_basis(tau):
    """Rows h0, ddh0, h1, ddh1, h3, ddh3 of the quintic blend at the flat
    normalized positions ``tau``: terms summed in ascending powers, with no BLAS
    product. A zero coefficient adds +0.0, so each row keeps its polynomial's bits."""
    powers = np.ones((6, tau.size))
    for k in range(1, 6):
        np.multiply(powers[k - 1], tau, out=powers[k])
    terms = _QUINTIC_COEF * powers[:, None]
    basis = terms[0]
    for k in range(1, 6):
        basis += terms[k]
    return basis


def _quintic_shape(basis, d0, rate, d1, span):
    """Offset and curvature ``d0 * h0 + rate * h1 + d1 * h3`` of a blend over ``span``."""
    total = basis[0:2] * d0
    total += basis[2:4] * rate
    total += basis[4:6] * d1
    return total[0], total[1] / (span * span)


@dataclass(frozen=True)
class QuinticBlend:
    """Quintic lateral blend from (d0, slope0, curv 0) to (d1, slope 0, curv 0)."""

    s0: float
    s1: float
    d0: float
    slope0: float
    d1: float

    def __post_init__(self):
        if not self.s0 < self.s1:  # false for a NaN end too
            raise ValueError(f"a blend needs s0 < s1, got s0={self.s0}, s1={self.s1}")

    def eval(self, positions):
        """Offset and curvature at 1-D world ``positions``, held at the ends outside [s0, s1]."""
        span = self.s1 - self.s0
        tau = (np.asarray(positions, dtype=np.float64) - self.s0) / span
        basis = _quintic_basis(np.minimum(np.maximum(tau, 0.0), 1.0))
        return _quintic_shape(basis, self.d0, self.slope0 * span, self.d1, span)

    def offset_at(self, s):
        """Offset at one position, clamped to the blend: ``eval``'s operations in
        the same order, on Python floats, without the terms that add +0.0."""
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


@dataclass
class PlannerMemory:
    """Per-run planner state: the committed dodge geometry and its scale, and
    the return blend's basis on the planning grid.

    Committing the maneuver once keeps successive replans tracking the same
    polynomial instead of restarting a zero-curvature blend every cycle; the
    scale remembers how much of the target a least-violating plan conceded.
    ``return_basis`` is ``(grid, basis)``, the return blend's basis rows on the
    grid, built at the first return-to-center plan and rebuilt only on another grid.
    """

    full_blend: QuinticBlend = None
    active_blend: QuinticBlend = None
    scale: float = 1.0
    return_basis: tuple = None


@dataclass(frozen=True)
class PlannedTrajectory:
    """Grid-sampled plan: lateral target, velocity envelope and the current
    speed ``v0`` the forward pass starts from.

    ``plan`` runs the backward pass over the whole horizon and stops there:
    ``v_bw``, ``v_cap``, ``kappa_abs`` (|effective curvature|) and ``mu_g``
    (grip ``mu * g``) are the envelope as lists of floats, with the circle
    ``shares`` and the ``brake_until`` segments the forward pass reads. A
    plan is a value: each read runs the forward pass from ``v0`` over the
    points it asks for, and changes nothing. ``accelerations(count)`` gives
    the first points for the plant; ``v`` and ``a_long`` are the whole
    horizon, computed on first read, as numpy arrays with the same bits. The
    plan hands the plant ``a_long`` and the effective curvature only: the
    plant's one limit on the demand is the true grip (``simulator.step``).

    ``feasible`` is False when the friction-circle limits derived from the
    estimate could not honor the objective and the plan is the flagged
    least-violating fallback.
    """

    s_anchor: float
    ds: float
    d_ref: np.ndarray
    kappa_eff: np.ndarray
    kappa_path: np.ndarray
    v_bw: list
    v_cap: list
    kappa_abs: list
    mu_g: list
    shares: tuple
    brake_until: int
    v0: float
    feasible: bool
    dodge_scale: float = 1.0

    def _forward(self, count):
        return _kernels.forward_pass(self.v0, count, self.v_bw, self.v_cap, self.kappa_abs,
                                     self.mu_g, self.ds, *self.shares, self.brake_until)

    def accelerations(self, count):
        """``a_long`` at the first ``count`` grid points (at most the horizon), as a
        list: the plant's longitudinal demand, which it limits only at the true
        grip, keeping direction."""
        return self._forward(count)[1]

    @functools.cached_property
    def _full(self):
        speeds, a_long = self._forward(len(self.mu_g))
        return np.array(speeds), np.array(a_long)

    @property
    def v(self):
        """Planned speed at every grid point."""
        return self._full[0]

    @property
    def a_long(self):
        """Planned longitudinal acceleration at every grid point."""
        return self._full[1]


def _dodge_shape(blend, s_obs, positions):
    """Offset and curvature at ascending ``positions`` from ``blend.s0``: the blend to
    the obstacle at its end ``s_obs``, then the return blend, which holds its start
    ``blend.d1`` for ``PASS_HOLD`` and its end 0.0, each with +0.0 curvature."""
    d, curv = blend.eval(positions)
    cut = int(np.searchsorted(positions, s_obs))
    back = QuinticBlend(s_obs + PASS_HOLD, s_obs + PASS_HOLD + RETURN_LENGTH, blend.d1, 0.0, 0.0)
    d[cut:], curv[cut:] = back.eval(positions[cut:])
    return d, curv


def _return_shape(memory, grid, d_now, slope_now):
    """Offset and curvature of the return-to-center blend on ``grid``.

    The blend is anchored behind the vehicle: the quintic starts with zero
    curvature, so a blend starting exactly at the vehicle would command no
    correction at the point where the plant samples the plan. Its normalized
    positions on the grid are the same on every replan, so the basis is kept.
    """
    if memory.return_basis is None or memory.return_basis[0] != grid:
        tau = np.minimum((RETURN_BACKSET + grid.points) / RETURN_LENGTH, 1.0)
        memory.return_basis = (grid, _quintic_basis(tau))
    return _quintic_shape(memory.return_basis[1], d_now - slope_now * RETURN_BACKSET,
                          slope_now * RETURN_LENGTH, 0.0, RETURN_LENGTH)


def _blend_peak_curvature(blend, kappa_path_fn, s_from):
    """Largest |effective curvature| on the not-yet-traversed part of a blend."""
    span = blend.s1 - blend.s0
    tau_from = min(max((s_from - blend.s0) / span, 0.0), 1.0)
    taus = np.linspace(tau_from, 1.0, 101)
    _, curv = _quintic_shape(_quintic_basis(taus), blend.d0, blend.slope0 * span, blend.d1,
                             span)
    s_fine = blend.s0 + taus * span
    total = np.abs(curv + kappa_path_fn(s_fine))
    idx = int(np.argmax(total))
    return total[idx], s_fine[idx]


def _envelope(d_ref, curv, mg, kappa_path, v_des, ds):
    """Offset reference, effective curvature, |effective curvature| as a list and
    the backward pass for a reference's offset and curvature: everything
    ``_kernels.forward_pass`` needs besides the circle shares and the brake region."""
    kappa_eff = kappa_path + curv
    kappa_abs = np.abs(kappa_eff).tolist()
    v_bw, v_cap = _kernels.backward_pass(kappa_abs, mg, v_des, ds)
    return d_ref, kappa_eff, kappa_abs, v_bw, v_cap


def plan(state, scenario, mu_hat, grid, memory=None):
    """Plan over the horizon grid anchored at the vehicle.

    Builds the lateral reference (a dodge ahead of the scenario's obstacle,
    if it has one, else lane keeping), converts it to an effective curvature
    profile, and runs the circle-limited velocity passes against the
    friction estimate. An unreachable dodge yields a least-violating plan:
    the target is scaled down to what the lateral share of the circle can
    reach and the rest of the budget brakes until the obstacle. The optional
    ``memory`` keeps the dodge geometry committed across replans.

    The branches only choose the envelope (reference and backward pass), the
    circle shares, the brake region, feasibility, the concession scale and
    the dodge memory. The plan holds the envelope and the current speed; its
    speeds and accelerations are integrated only as far as they are read.
    """
    mu = np.maximum(np.asarray(mu_hat, dtype=np.float64).reshape(-1), 0.0)
    pts = grid.points
    if len(mu) != len(pts):
        raise ValueError("mu_hat must cover every grid point")
    positions = state.s + pts
    ds = grid.ds
    mu_g = mu * GRAVITY
    mg = mu_g.tolist()
    kappa_path = scenario.curvature_on(positions)
    v_des = scenario.target_speed
    memory = memory if memory is not None else PlannerMemory()

    slope_now = state.d_rate / state.v if state.v > 0.5 else 0.0
    dodging = (
        scenario.obstacle is not None
        and state.s < scenario.obstacle[0] - MIN_DODGE_RUN
    )
    shares = (DODGE_LATERAL_SHARE, DODGE_BRAKE_SHARE)
    brake_until = 0
    scale = 1.0

    if not dodging:
        if scenario.obstacle is not None and state.s < scenario.obstacle[0] + PASS_HOLD:
            shape = np.full(len(pts), state.d), np.zeros(len(pts))
        elif abs(state.d) < 0.01 and abs(slope_now) < 1e-3:
            shape = np.zeros(len(pts)), np.zeros(len(pts))
        else:
            shape = _return_shape(memory, grid, state.d, slope_now)
        envelope = _envelope(*shape, mg, kappa_path, v_des, ds)
        shares = (CURVE_LATERAL_SHARE, CURVE_BRAKE_SHARE)
        feasible = envelope[3][0] >= state.v - FEASIBILITY_TOL
    else:
        s_obs = scenario.obstacle[0]
        full_target = scenario.obstacle[1] + OBSTACLE_CLEARANCE
        full_blend = memory.full_blend
        tracked = memory.active_blend
        if (
            full_blend is None
            or full_blend.s1 != s_obs
            or (tracked is not None
                and abs(state.d - tracked.offset_at(state.s)) > REBASE_DEVIATION)
        ):
            full_blend = QuinticBlend(s0=state.s, s1=s_obs, d0=state.d,
                                      slope0=slope_now, d1=full_target)
            memory.scale = 1.0

        # The full blend is planned only while the vehicle is on it, and kept
        # only when its envelope shows it feasible.
        feasible = False
        if abs(state.d - full_blend.offset_at(state.s)) <= REBASE_DEVIATION:
            envelope = _envelope(*_dodge_shape(full_blend, s_obs, positions), mg, kappa_path,
                                 v_des, ds)
            feasible = envelope[3][0] >= state.v - FEASIBILITY_TOL
        blend = full_blend
        if not feasible:
            # Least-violating dodge: concede the target down to the offset the
            # lateral share of the circle can still reach over the remaining run,
            # rebase the blend on the current state so the reference stays
            # continuous under the vehicle, and brake until the obstacle.
            kappa_pk, s_pk = _blend_peak_curvature(full_blend, scenario.curvature_on,
                                                   state.s)
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
            if (
                memory.active_blend is not None
                and memory.scale < 1.0
                and memory.active_blend.s1 == s_obs
                and abs(scale - memory.scale) <= 0.02
            ):
                blend = memory.active_blend
                scale = memory.scale
            else:
                target = full_blend.d0 + scale * (full_target - full_blend.d0)
                blend = QuinticBlend(s0=state.s, s1=s_obs, d0=state.d,
                                     slope0=slope_now, d1=target)
            envelope = _envelope(*_dodge_shape(blend, s_obs, positions), mg, kappa_path,
                                 v_des, ds)
            # Positions ascend, so the segments before the obstacle are a prefix.
            brake_until = int(np.searchsorted(positions, s_obs))
        memory.full_blend = full_blend
        memory.active_blend = blend
        memory.scale = scale

    d_ref, kappa_eff, kappa_abs, v_bw, v_cap = envelope
    return PlannedTrajectory(
        s_anchor=state.s,
        ds=ds,
        d_ref=d_ref,
        kappa_eff=kappa_eff,
        kappa_path=kappa_path,
        v_bw=v_bw,
        v_cap=v_cap,
        kappa_abs=kappa_abs,
        mu_g=mg,
        shares=shares,
        brake_until=brake_until,
        v0=float(state.v),
        feasible=bool(feasible),
        dodge_scale=scale,
    )
