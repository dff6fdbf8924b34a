"""Critical-scenario simulator: replanning loop, saturating plant, metrics.

The plant is a path-aligned kinematic point: demanded planar acceleration is
read from the active plan and saturated at the true friction limit, with the
lateral shortfall integrating into outward drift. Two stock scenarios are
provided: a 90-degree turn on locally reduced friction, and straight-road
collision avoidance against a suddenly appearing obstacle.
"""

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .estimators import FrictionProfile, LocalEstimator, classify, emulate
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


@dataclass(frozen=True)
class VehicleState:
    """Path-aligned state: arc length, lateral offset (positive left), speed."""

    s: float
    d: float
    v: float
    t: float
    d_rate: float = 0.0

    def __post_init__(self):
        if self.v < 0.0:
            raise ValueError("speed must be >= 0")


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
        if not self.lane_half_width > 0.0:
            raise ValueError(f"lane_half_width must be > 0, got {self.lane_half_width}")
        # Lookup tables over ``path``, built once (not dataclass fields).
        object.__setattr__(self, "_path_starts", tuple(seg[0] for seg in self.path))
        object.__setattr__(self, "_start_array", np.array(self._path_starts, dtype=np.float64))
        object.__setattr__(self, "_kappa_array",
                           np.array([seg[1] for seg in self.path], dtype=np.float64))

    def curvature_at(self, s):
        idx = bisect.bisect_right(self._path_starts, s) - 1
        return self.path[max(idx, 0)][1]

    def curvature_on(self, positions):
        arr = np.asarray(positions, dtype=np.float64).reshape(-1)
        idx = np.searchsorted(self._start_array, arr, side="right") - 1
        return self._kappa_array[np.maximum(idx, 0)]


def turn_scenario(turn_radius=TURN_RADIUS, lane_half_width=LANE_HALF_WIDTH,
                  v0=12.0, turn_start=TURN_START, mu_before=0.8, mu_turn=0.4):
    """90-degree constant-radius turn whose surface drops to low friction.

    The friction drop sits at s=0 under the vehicle at the run start; the
    turn begins ``turn_start`` meters ahead, so foresighted configurations
    have room to shed speed.
    """
    if not turn_radius > 0.0:
        raise ValueError(f"turn_radius must be > 0, got {turn_radius}")
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
    is a positive whole multiple of it.
    """
    _check_sim_dt(sim_dt)
    substeps = round(replan_dt / sim_dt)
    if substeps < 1 or abs(substeps * sim_dt - replan_dt) > 1e-9:
        raise ValueError(
            f"replan_dt must be a positive multiple of sim_dt, got {replan_dt} and {sim_dt}")
    return substeps


def step(state, trajectory, profile, dt):
    """Advance the plant one Euler step under friction-circle saturation.

    The demanded acceleration is the plan value at the current position; its
    magnitude saturates at mu_gt*g preserving direction. Lateral shortfall
    relative to the centripetal need drifts the vehicle outward; longitudinal
    shortfall slows the speed change. Returns the new state and the tire
    force utilization of the demand.
    """
    _check_sim_dt(dt)
    i = trajectory.index_at(state.s)
    a_long_dem, a_lat_dem = trajectory.demand_at(i, state.v)
    mu_gt = profile.mu_at(state.s)
    limit = mu_gt * GRAVITY
    demand = math.hypot(a_long_dem, a_lat_dem)
    lam = min(1.0, demand / limit) if limit > 0.0 else 1.0
    scale = 1.0 if demand <= limit else limit / demand
    a_long = a_long_dem * scale
    a_lat = a_lat_dem * scale
    drift_accel = a_lat - state.v**2 * trajectory.kappa_path.item(i)
    new_state = VehicleState(
        s=state.s + state.v * dt,
        d=state.d + state.d_rate * dt,
        v=max(0.0, state.v + a_long * dt),
        t=state.t + dt,
        d_rate=state.d_rate + drift_accel * dt,
    )
    return new_state, lam


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


def run(scenario, config, local_error=0.0, replan_dt=REPLAN_DT, sim_dt=SIM_DT, grid=None):
    """Replanning loop: estimate, plan, step until the scenario window ends.

    The outcome is ``collision``, ``lane_departure``, ``timeout`` (the
    vehicle was still short of ``end_s`` after ``TIME_LIMIT`` seconds) or
    ``ok``. Deterministic: identical inputs give identical traces. The local
    estimator is seeded with the class mean of the surface just behind the
    start, standing in for the last estimate of the approach road.
    """
    substeps = replan_substeps(replan_dt, sim_dt)
    grid = grid if grid is not None else SGrid()

    approach = classify(scenario.profile.mu_at(scenario.initial.s - 1e-6))
    estimator = LocalEstimator(e_l=local_error, initial_estimate=approach.mean)
    memory = PlannerMemory()
    fused_memo = {}

    state = scenario.initial
    lam = 0.0
    replans = []
    rows_t, rows_s, rows_d, rows_v, rows_lam = [], [], [], [], []
    rows_dref = []
    outcome_so_far = []
    current_outcome = "ok"
    collided = False
    clearance = math.nan
    impact_velocity = 0.0
    max_abs_d = abs(state.d)
    v_entry = math.nan
    finished = False
    replan_idx = 0

    while not finished:
        relative_profile = scenario.profile.shifted(-state.s)
        report = emulate(config, relative_profile, grid, lam, estimator, memo=fused_memo)
        trajectory = plan(state, scenario, report.mu_hat, grid, memory=memory)
        mu_gt0 = scenario.profile.mu_at(state.s)
        replans.append(ReplanRecord(
            t=replan_idx * replan_dt,
            s=state.s,
            lambda_t=lam,
            local_available=report.local_available,
            feasible=trajectory.feasible,
            utilization=report.mu_hat[0] / mu_gt0,
            mu_hat=report.mu_hat,
            series=report.series,
            fused=report.fused,
        ))
        replan_idx += 1

        for _ in range(substeps):
            prev = state
            state, lam = step(state, trajectory, scenario.profile, sim_dt)
            max_abs_d = max(max_abs_d, abs(state.d))
            if math.isnan(v_entry) and state.s >= scenario.maneuver_window[0]:
                v_entry = state.v
            if scenario.obstacle is not None and not collided and math.isnan(clearance):
                s_obs, half_width = scenario.obstacle
                if prev.s < s_obs <= state.s:
                    frac = (s_obs - prev.s) / (state.s - prev.s)
                    d_cross = _interp(prev.d, state.d, frac)
                    clearance = abs(d_cross) - half_width
                    if clearance <= 0.0:
                        collided = True
                        impact_velocity = _interp(prev.v, state.v, frac)
            if collided:
                current_outcome = "collision"
            elif max_abs_d > scenario.lane_half_width:
                current_outcome = "lane_departure"
            elif state.t >= TIME_LIMIT and state.s < scenario.end_s:
                current_outcome = "timeout"
            rows_t.append(state.t)
            rows_s.append(state.s)
            rows_d.append(state.d)
            rows_v.append(state.v)
            rows_lam.append(lam)
            rows_dref.append(trajectory.d_ref.item(trajectory.index_at(state.s)))
            outcome_so_far.append(current_outcome)
            if collided or state.s >= scenario.end_s or state.t >= TIME_LIMIT:
                finished = True
                break

    window = scenario.maneuver_window
    in_window = [r.utilization for r in replans if window[0] <= r.s <= window[1]]
    metrics = RunMetrics(
        outcome=current_outcome,
        max_abs_d=max_abs_d,
        min_clearance=clearance,
        impact_velocity=impact_velocity,
        mean_utilization=float(np.mean(in_window)) if in_window else math.nan,
        v_at_window_entry=v_entry,
        duration=state.t,
        final_speed=state.v,
    )
    trace = {
        "t": np.array(rows_t),
        "s": np.array(rows_s),
        "d": np.array(rows_d),
        "v": np.array(rows_v),
        "lambda": np.array(rows_lam),
        "d_ref": np.array(rows_dref),
        "outcome": outcome_so_far,
    }
    return ScenarioResult(
        scenario=scenario,
        grid=grid,
        config_kind=config.kind,
        local_error=local_error,
        trace=trace,
        replans=replans,
        metrics=metrics,
    )
