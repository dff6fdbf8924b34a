"""Benchmark workloads: run lists, the patchy-road generator, output checks.

A workload is a fixed list of runs. One pass executes every run once, in list
order, through the same entry points the command line uses, so a pass does
what a user running those cells would do:

- ``paper_matrix``: the 16 default cells (2 scenarios x gt/l/p/f x
  worst-over/worst-under) at ds=1, each run through ``cli.execute`` and then
  ``cli.emit_traces`` into a fresh directory, as ``frictionfusion --matrix
  --out`` does.
- ``fine_grid``: the fused configuration only, both scenarios x both error
  modes, at ds=0.5 (n=101), where the O(n^3) GP dominates.
- ``patchy_roads``: the stock geometries on seeded piecewise-constant friction
  profiles, all four configurations at ds=1, so class boundaries sweep through
  the horizon on every replan and the fusion input never repeats. Each pass
  draws new profiles.
"""

import dataclasses
import hashlib
import math
import random

import numpy as np

from frictionfusion import cli, simulator
from frictionfusion.estimators import FrictionProfile, resolve_error

SCENARIOS = ("turn", "collision")
CONFIGS = ("gt", "l", "p", "f")
ERRORS = ("worst-over", "worst-under")

# Patchy roads: one segment every 3-15 m, each in a different surface class
# than the one before it, with friction drawn away from the class edges so the
# classifier never sits on a boundary value.
SEGMENT_LENGTH = (3.0, 15.0)
CLASS_MU = {
    "dry": (0.65, 1.1),
    "wet": (0.42, 0.58),
    "snow_ice": (0.15, 0.38),
}
PROFILE_START = -1e6
PROFILE_MARGIN = 10.0

# Acceptance table of the paper matrix (tests/test_acceptance.py criteria 4-5).
PAPER_OUTCOMES = {("turn", "l"): "lane_departure", ("collision", "p"): "collision"}
IMPACT_VELOCITY_RANGE = (15.0, 19.0)

METRIC_FIELDS = ("outcome", "max_abs_d", "min_clearance", "impact_velocity",
                 "mean_utilization", "v_at_window_entry", "duration", "final_speed")
TRACE_COLUMNS = ("t", "s", "d", "v", "lambda")
FINITE_COLUMNS = ("t", "s", "d", "v", "lambda", "d_ref")


def patchy_profile(rng, length):
    """Piecewise-constant profile covering [PROFILE_START, length + margin).

    Consecutive segments always change surface class, so every boundary is a
    class boundary the predictive estimator can see.
    """
    classes = tuple(CLASS_MU)
    cls = rng.choice(classes)
    segments = [(PROFILE_START, rng.uniform(*CLASS_MU[cls]))]
    s = 0.0
    while s < length + PROFILE_MARGIN:
        s += rng.uniform(*SEGMENT_LENGTH)
        cls = rng.choice([c for c in classes if c != cls])
        segments.append((s, rng.uniform(*CLASS_MU[cls])))
    return FrictionProfile(segments)


def patchy_scenarios(seed, pass_index):
    """Stock turn and collision scenarios on profiles drawn for one pass."""
    out = {}
    for name in SCENARIOS:
        stock = simulator.SCENARIOS[name]()
        rng = random.Random(f"patchy_roads:{seed}:{pass_index}:{name}")
        profile = patchy_profile(rng, stock.end_s + cli.RunConfig.s_f)
        out[name] = dataclasses.replace(stock, profile=profile)
    return out


@dataclasses.dataclass(frozen=True)
class Cell:
    """One run of a workload: a command-line config, plus a custom scenario."""

    rc: cli.RunConfig
    scenario: object = None
    writes: bool = False

    @property
    def key(self):
        return (self.rc.scenario, self.rc.config, self.rc.error)

    def execute(self, out_dir=None):
        """Run the cell and return its result; a writing cell emits its
        traces into ``out_dir``.

        Every layer is reached through the module attribute its caller looks
        up, so tracing wrappers apply.
        """
        if self.scenario is None:
            result = cli.execute(self.rc)
        else:
            result = simulator.run(
                self.scenario, self.rc.configuration(),
                local_error=resolve_error(self.rc.error),
                replan_dt=self.rc.replan_dt, sim_dt=self.rc.sim_dt,
                grid=self.rc.grid())
        if self.writes:
            cli.emit_traces(result, dataclasses.replace(self.rc, out=str(out_dir)))
        return result


def build(workload, seed, pass_index=0):
    """Run list of one pass of a workload.

    Only ``patchy_roads`` depends on the seed: every pass draws new profiles
    from ``(seed, pass_index)``, so a run's medians average over many roads
    and do not hinge on the two profiles one seed would give.
    """
    if workload == "paper_matrix":
        return [Cell(cli.RunConfig(scenario=s, config=c, error=e), writes=True)
                for s in SCENARIOS for c in CONFIGS for e in ERRORS]
    if workload == "fine_grid":
        return [Cell(cli.RunConfig(scenario=s, config="f", error=e, ds=0.5))
                for s in SCENARIOS for e in ERRORS]
    if workload == "patchy_roads":
        scenarios = patchy_scenarios(seed, pass_index)
        return [Cell(cli.RunConfig(scenario=s, config=c, error=e), scenario=scenarios[s])
                for s in SCENARIOS for c in CONFIGS for e in ERRORS]
    raise ValueError(f"unknown workload {workload!r}")


def matrix_cells(workload):
    """Cells of the workload that ``cli.run_matrix`` can run itself.

    ``run_matrix`` takes no friction profile, so for ``patchy_roads`` these
    are the same geometry, configurations and grid on the stock friction.
    """
    if workload == "patchy_roads":
        return [dataclasses.replace(c, writes=False) for c in build("paper_matrix", 0)]
    return build(workload, 0)


def check(workload, cell, result):
    """Return None when the run's outputs are acceptable, else the reason."""
    for name in FINITE_COLUMNS:
        if not np.isfinite(result.trace[name]).all():
            return f"non-finite {name} in trace"
    if workload != "paper_matrix":
        return None
    m = result.metrics
    scenario, config, _ = cell.key
    expected = PAPER_OUTCOMES.get((scenario, config), "ok")
    if m.outcome != expected:
        return f"outcome {m.outcome}, acceptance table says {expected}"
    if expected == "collision":
        lo, hi = IMPACT_VELOCITY_RANGE
        if not lo <= m.impact_velocity <= hi:
            return f"impact velocity {m.impact_velocity:.3f} outside [{lo}, {hi}]"
    elif scenario == "collision" and m.impact_velocity != 0.0:
        return f"impact velocity {m.impact_velocity} on a run that did not collide"
    return None


def _fmt(x):
    """Nine significant digits, empty for NaN, as the command line writes."""
    if isinstance(x, (float, np.floating)):
        return "" if math.isnan(x) else f"{x:.9g}"
    return str(x)


def run_digest(cell, result):
    """sha256 over one run's key, metrics and trace columns at 9 digits."""
    h = hashlib.sha256()
    h.update(",".join(cell.key).encode())
    for name in METRIC_FIELDS:
        h.update(f"|{name}={_fmt(getattr(result.metrics, name))}".encode())
    for name in TRACE_COLUMNS:
        h.update(f"|{name}:".encode())
        h.update(",".join(_fmt(x) for x in result.trace[name]).encode())
    h.update(("|outcome_so_far:" + ",".join(result.trace["outcome"])).encode())
    return h.digest()


def fingerprint(digests):
    """Workload fingerprint over the run digests of one pass, in list order."""
    return hashlib.sha256(b"".join(digests)).hexdigest()
