"""Critical-scenario simulator: replanning loop, saturating plant, metrics.

The plant is a path-aligned kinematic point: demanded planar acceleration is
read from the active plan and saturated at the true friction limit, with the
lateral shortfall integrating into outward drift. Two stock scenarios are
provided: a 90-degree turn on locally reduced friction, and straight-road
collision avoidance against a suddenly appearing obstacle.
"""

import math
from dataclasses import dataclass

import numpy as np

from .estimators import FrictionProfile, FusionState, LocalEstimator, classify, emulate
from .fusion import SGrid
from .planner import GRAVITY, PlannerMemory, plan

TIME_LIMIT = 60.0
REPLAN_DT = 0.1
SIM_DT = 0.01
MAX_SIM_DT = 0.05

TURN_RADIUS = 20.0
TURN_START = 15.0
LANE_HALF_WIDTH = 1.75
OBSTACLE_DISTANCE = 20.0
OBSTACLE_HALF_WIDTH = 1.0
RUNOUT = 20.0


@dataclass(frozen=True, slots=True)
class VehicleState:
    """Path-aligned state: arc length, lateral offset (positive left), speed."""

    s: float
    d: float
    v: float
    t: float
    d_rate: float = 0.0

    def __post_init__(self):
        _check_state(self.s, self.d, self.v, self.t, self.d_rate)


def _check_state(s, d, v, t, d_rate):
    """The rule every plant state keeps: all values finite, speed >= 0."""
    if not (0.0 <= v < math.inf and math.isfinite(s) and math.isfinite(d)
            and math.isfinite(t) and math.isfinite(d_rate)):
        raise ValueError(f"state must be finite with speed >= 0, got "
                         f"s={s}, d={d}, v={v}, t={t}, d_rate={d_rate}")


@dataclass(frozen=True)
class Scenario:
    """Scenario definition: geometry, friction profile, limits, optional obstacle.

    A scenario with an ``obstacle`` (s, half width) is an avoidance maneuver;
    without one, the planner tracks the lane center.
    """

    name: str
    path: tuple
    profile: FrictionProfile
    initial: VehicleState
    lane_half_width: float
    target_speed: float
    end_s: float
    maneuver_window: tuple
    obstacle: tuple = None

    def __post_init__(self):
        # Every check below also rejects NaN.
        if not 0.0 < self.lane_half_width < math.inf:
            raise ValueError(f"lane_half_width must be finite and > 0, "
                             f"got {self.lane_half_width}")
        starts = tuple(seg[0] for seg in self.path)
        if not (starts and all(map(math.isfinite, starts))
                and all(b > a for a, b in zip(starts, starts[1:]))):
            raise ValueError(f"path starts must be finite and strictly increasing, got {starts}")
        if not all(math.isfinite(seg[1]) for seg in self.path):
            raise ValueError(f"path curvatures must be finite, got {self.path}")
        if self.obstacle is not None:
            s_obs, half_width = self.obstacle
            if not math.isfinite(s_obs):
                raise ValueError(f"obstacle position must be finite, got {s_obs}")
            if not 0.0 < half_width < math.inf:
                raise ValueError(f"obstacle half width must be finite and > 0, got {half_width}")
        if not math.isfinite(self.end_s):
            raise ValueError(f"end_s must be finite, got {self.end_s}")
        w0, w1 = self.maneuver_window
        if not (math.isfinite(w0) and math.isfinite(w1) and w0 <= w1):
            raise ValueError(f"maneuver_window must be finite with start <= end, "
                             f"got {self.maneuver_window}")
        if not 0.0 <= self.target_speed < math.inf:
            raise ValueError(f"target_speed must be finite and >= 0, got {self.target_speed}")
        # Lookup tables over ``path``, built once (not dataclass fields).
        object.__setattr__(self, "_start_array", np.array(starts, dtype=np.float64))
        object.__setattr__(self, "_kappa_array",
                           np.array([seg[1] for seg in self.path], dtype=np.float64))

    def curvature_on(self, positions):
        """Path curvature at each position; positions before the first path
        start take the first segment's curvature."""
        arr = np.asarray(positions, dtype=np.float64).reshape(-1)
        # The min of an array holding NaN is NaN, the one value this rejects.
        if arr.size and not arr.min() >= -math.inf:
            raise ValueError("positions must not be NaN")
        idx = np.searchsorted(self._start_array, arr, side="right") - 1
        return self._kappa_array[np.maximum(idx, 0)]


def turn_scenario(turn_radius=TURN_RADIUS, lane_half_width=LANE_HALF_WIDTH,
                  v0=12.0, turn_start=TURN_START, mu_before=0.8, mu_turn=0.4):
    """90-degree constant-radius turn whose surface drops to low friction.

    The friction drop sits at s=0 under the vehicle at the run start; the
    turn begins ``turn_start`` meters ahead, so foresighted configurations
    have room to shed speed.
    """
    if not 0.0 < turn_radius < math.inf:
        raise ValueError(f"turn_radius must be finite and > 0, got {turn_radius}")
    arc_len = 0.5 * math.pi * turn_radius
    turn_end = turn_start + arc_len
    return Scenario(
        name="turn",
        path=((-1e6, 0.0), (turn_start, -1.0 / turn_radius), (turn_end, 0.0)),
        profile=FrictionProfile(((-1e6, mu_before), (0.0, mu_turn))),
        initial=VehicleState(s=0.0, d=0.0, v=v0, t=0.0),
        lane_half_width=lane_half_width,
        target_speed=v0,
        end_s=turn_end + RUNOUT,
        maneuver_window=(turn_start, turn_end),
    )


def collision_scenario(v0=20.0, obstacle_s=OBSTACLE_DISTANCE,
                       obstacle_half_width=OBSTACLE_HALF_WIDTH,
                       lane_half_width=LANE_HALF_WIDTH, mu=1.0):
    """Straight road, high friction, obstacle mid-lane a short distance ahead."""
    return Scenario(
        name="collision",
        path=((-1e6, 0.0),),
        profile=FrictionProfile(((-1e6, mu),)),
        initial=VehicleState(s=0.0, d=0.0, v=v0, t=0.0),
        lane_half_width=lane_half_width,
        target_speed=v0,
        end_s=obstacle_s + RUNOUT,
        maneuver_window=(0.0, obstacle_s),
        obstacle=(obstacle_s, obstacle_half_width),
    )


SCENARIOS = {"turn": turn_scenario, "collision": collision_scenario}


def _check_sim_dt(sim_dt):
    if not 0.0 < sim_dt <= MAX_SIM_DT:
        raise ValueError(f"sim_dt must lie in (0, {MAX_SIM_DT}], got {sim_dt}")


def replan_substeps(replan_dt, sim_dt):
    """Plant steps per replan interval.

    Raises ValueError unless ``sim_dt`` lies in (0, MAX_SIM_DT] and ``replan_dt``
    is a positive whole multiple of it, at most ``TIME_LIMIT``.
    """
    _check_sim_dt(sim_dt)
    if not 0.0 < replan_dt < math.inf:
        raise ValueError(f"replan_dt must be finite and > 0, got {replan_dt}")
    # The last interval is stepped whole, so a longer one only computes steps
    # past the end of every run.
    if replan_dt > TIME_LIMIT:
        raise ValueError(f"replan_dt must be at most the time limit {TIME_LIMIT}, "
                         f"got {replan_dt}")
    substeps = round(replan_dt / sim_dt)
    if substeps < 1 or abs(substeps * sim_dt - replan_dt) > 1e-9:
        raise ValueError(
            f"replan_dt must be a positive multiple of sim_dt, got {replan_dt} and {sim_dt}")
    return substeps


def step(state, trajectory, profile, dt, substeps=1, rows=None):
    """Advance the plant ``substeps`` Euler steps of ``dt`` on one plan.

    Each step reads the plan at the grid index nearest the current position,
    and the plan is finished only over the points the interval can reach:
    the demanded acceleration is the plan's ``a_long`` and its
    effective-curvature tracking term ``v**2 * kappa_eff`` at the actual speed
    (executing the geometry speed-consistently avoids the drift a fixed
    acceleration profile accumulates when tracked off-speed). The plant has
    one limit, the tire's: the demand's magnitude saturates at the true
    mu_gt*g, keeping its direction. Lateral shortfall relative to the
    centripetal need drifts the vehicle outward; longitudinal shortfall slows
    the speed change. Every step's state is checked like a ``VehicleState``.

    When ``rows`` is a list, each step appends its ``TRACE_COLUMNS`` values
    to it. Returns the final state and the tire force utilization of the
    last step's demand.
    """
    _check_sim_dt(dt)
    if not substeps >= 1:
        raise ValueError(f"substeps must be >= 1, got {substeps}")
    kappa_eff, kappa_path, d_ref = (
        col.tolist() for col in (trajectory.kappa_eff, trajectory.kappa_path, trajectory.d_ref))
    anchor, ds, last = trajectory.s_anchor, trajectory.ds, len(d_ref) - 1
    out = rows if rows is not None else []
    s, d, v, t, d_rate = state.s, state.d, state.v, state.t, state.d_rate
    # The grid index nearest s, clamped to the plan: here and after each step.
    i = round((s - anchor) / ds)
    i = 0 if i < 0 else last if i > last else i
    # a_long is clipped to +-mu_g, so a step raises the speed by at most
    # max(mu_g) * dt, and every demand is read at or before s + reach, at an
    # index at most floor(far) + 1. Outside [0, last) (or NaN) read them all.
    reach = (substeps - 1) * dt * (v + 0.5 * (substeps - 2) * max(trajectory.mu_g) * dt)
    far = (s + reach - anchor) / ds
    a_long = trajectory.accelerations(int(far) + 2 if 0.0 <= far < last else last + 1)
    count = len(a_long)
    # The friction segment [lo, hi) holding s, looked up again only when s
    # leaves it; NaN bounds make the first step look it up.
    lo = hi = math.nan
    for _ in range(substeps):
        if i >= count:  # a guard only: the bound above covers every step
            a_long = trajectory.accelerations(i + 1)
            count = len(a_long)
        a_long_dem = a_long[i]
        a_lat_dem = v * v * kappa_eff[i]
        if not lo <= s < hi:
            mu, lo, hi = profile.segment_at(s)
        limit = mu * GRAVITY
        demand = math.hypot(a_long_dem, a_lat_dem)
        ratio = demand / limit if limit > 0.0 else 1.0
        lam = ratio if ratio < 1.0 else 1.0
        scale = 1.0 if demand <= limit else limit / demand
        drift_accel = a_lat_dem * scale - v**2 * kappa_path[i]
        v_next = v + a_long_dem * scale * dt
        s, d, v, t, d_rate = (s + v * dt, d + d_rate * dt, v_next if v_next > 0.0 else 0.0,
                              t + dt, d_rate + drift_accel * dt)
        _check_state(s, d, v, t, d_rate)
        i = round((s - anchor) / ds)
        i = 0 if i < 0 else last if i > last else i
        out += (t, s, d, v, lam, d_ref[i])
    return VehicleState(s=s, d=d, v=v, t=t, d_rate=d_rate), lam


@dataclass
class ReplanRecord:
    """Per-replan snapshot: estimate, availability, plan feasibility.

    ``series`` and ``fused`` are set for the fused configuration only.
    """

    t: float
    s: float
    lambda_t: float
    local_available: bool
    feasible: bool
    utilization: float
    mu_hat: np.ndarray
    series: object = None
    fused: object = None


@dataclass
class RunMetrics:
    outcome: str
    max_abs_d: float
    min_clearance: float
    impact_velocity: float
    mean_utilization: float
    v_at_window_entry: float
    duration: float
    final_speed: float


@dataclass
class ScenarioResult:
    """Full trace of one configuration running one scenario on one grid."""

    scenario: Scenario
    grid: SGrid
    config_kind: str
    local_error: float
    trace: dict
    replans: list
    metrics: RunMetrics


def _interp(prev, cur, frac):
    return prev + frac * (cur - prev)


TRACE_COLUMNS = ("t", "s", "d", "v", "lambda", "d_ref")


def run(scenario, config, local_error=0.0, replan_dt=REPLAN_DT, sim_dt=SIM_DT, grid=None):
    """Replanning loop: estimate, plan, step until the scenario window ends.

    The run ends at ``end_s``, at a collision or at ``TIME_LIMIT``; the
    outcome column and the metrics are scored from the finished trace (see
    ``_score``). Deterministic: identical inputs give identical traces. The
    local estimator is seeded with the class mean of the surface just behind
    the start, standing in for the last estimate of the approach road.
    """
    substeps = replan_substeps(replan_dt, sim_dt)
    grid = grid if grid is not None else SGrid()

    approach = classify(scenario.profile.mu_at(scenario.initial.s - 1e-6))
    estimator = LocalEstimator(e_l=local_error, initial_estimate=approach.mean)
    memory = PlannerMemory()
    fusion_state = FusionState()

    profile, end_s, obstacle = scenario.profile, scenario.end_s, scenario.obstacle
    state = scenario.initial
    lam = 0.0
    replans = []
    rows = []
    clearance = math.nan
    impact_velocity = 0.0
    running = True

    while running:
        relative_profile = profile.shifted(-state.s)
        report = emulate(config, relative_profile, grid, lam, estimator, memo=fusion_state)
        trajectory = plan(state, scenario, report.mu_hat, grid, memory=memory)
        mu_gt0 = profile.mu_at(state.s)
        replans.append(ReplanRecord(
            t=len(replans) * replan_dt,
            s=state.s,
            lambda_t=lam,
            local_available=report.local_available,
            feasible=trajectory.feasible,
            utilization=report.mu_hat[0] / mu_gt0,
            mu_hat=report.mu_hat,
            series=report.series,
            fused=report.fused,
        ))

        first, prev = len(rows), state
        state, lam = step(state, trajectory, profile, sim_dt, substeps, rows)
        # ``s`` and ``t`` never decrease, so when the interval's last state has
        # not reached the obstacle, ``end_s`` or the time limit, no step has.
        crossed = obstacle is not None and prev.s < obstacle[0] <= state.s
        if crossed or state.s >= end_s or state.t >= TIME_LIMIT:
            prev_s, prev_d, prev_v = prev.s, prev.d, prev.v
            for k in range(first, len(rows), len(TRACE_COLUMNS)):
                t, s, d, v = rows[k:k + 4]
                # The obstacle is crossed at most once.
                if obstacle is not None and prev_s < obstacle[0] <= s:
                    s_obs, half_width = obstacle
                    frac = (s_obs - prev_s) / (s - prev_s)
                    clearance = abs(_interp(prev_d, d, frac)) - half_width
                    if clearance <= 0.0:
                        impact_velocity = _interp(prev_v, v, frac)
                if clearance <= 0.0 or s >= end_s or t >= TIME_LIMIT:
                    del rows[k + len(TRACE_COLUMNS):]
                    running = False
                    break
                prev_s, prev_d, prev_v = s, d, v

    # ``rows`` is flat, one TRACE_COLUMNS group per step: no object per step.
    trace = dict(zip(TRACE_COLUMNS, np.array(rows).reshape(-1, len(TRACE_COLUMNS)).T.copy()))
    trace["outcome"], metrics = _score(scenario, trace, replans, clearance, impact_velocity)
    return ScenarioResult(
        scenario=scenario,
        grid=grid,
        config_kind=config.kind,
        local_error=local_error,
        trace=trace,
        replans=replans,
        metrics=metrics,
    )


def _score(scenario, trace, replans, clearance, impact_velocity):
    """Per-step outcome column and the run's metrics, from a finished run.

    A step's outcome is ``collision``, else ``lane_departure`` once ``|d|``
    has exceeded the lane half width, else ``timeout`` (the vehicle was
    still short of ``end_s`` after ``TIME_LIMIT`` seconds), else ``ok``.
    A collision and the time limit both end the run, so only the last step
    can take either; the run's outcome is the last step's.
    """
    # Running max of |d|, seeded with the start's.
    max_abs_d = np.maximum(np.maximum.accumulate(np.abs(trace["d"])), abs(scenario.initial.d))
    outcomes = ["lane_departure" if out else "ok"
                for out in (max_abs_d > scenario.lane_half_width).tolist()]
    t_end, s_end = trace["t"][-1].item(), trace["s"][-1].item()
    if clearance <= 0.0:
        outcomes[-1] = "collision"
    elif outcomes[-1] == "ok" and t_end >= TIME_LIMIT and s_end < scenario.end_s:
        outcomes[-1] = "timeout"

    window = scenario.maneuver_window
    entry = np.searchsorted(trace["s"], window[0])  # first step at or past the entry
    in_window = [r.utilization for r in replans if window[0] <= r.s <= window[1]]
    metrics = RunMetrics(
        outcome=outcomes[-1],
        max_abs_d=max_abs_d[-1].item(),
        min_clearance=clearance,
        impact_velocity=impact_velocity,
        mean_utilization=float(np.mean(in_window)) if in_window else math.nan,
        v_at_window_entry=trace["v"][entry].item() if entry < len(outcomes) else math.nan,
        duration=t_end,
        final_speed=trace["v"][-1].item(),
    )
    return outcomes, metrics
