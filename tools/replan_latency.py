"""Fused replan latency against the replan period, by grid spacing.

Run from the root of a checkout; the package is imported from its ``src/``:

    python3 tools/replan_latency.py --ds 1 0.5 0.1 0.05 0.025 --roads 13

For each spacing, the fused configuration runs the stock turn and collision
geometries on ``--roads`` seeded patchy roads (``perfbench/workloads.py``'s
generator, seeds ``latency:<i>:<scenario>``) with the worst-under local
error. Every replan's ``emulate`` and ``plan`` are timed together, as
perfbench's ``replan.ms`` metric times them, plus the forward velocity pass
that finishes the plan: it runs inside the plant's ``step``, when the plan is
read, so it is timed on its own and added to the replan whose plan it
finishes. The median and 99th percentile are printed as one JSON object per
spacing, with the share of ``simulator.REPLAN_DT`` they take. 13 roads give about 1,070 replans per
spacing, so that ten or more lie above the 99th percentile.
"""

import argparse
import dataclasses
import importlib.util
import json
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from frictionfusion import _kernels, simulator  # noqa: E402
from frictionfusion.estimators import Configuration  # noqa: E402
from frictionfusion.fusion import SGrid  # noqa: E402


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def replan_ms(ds, roads):
    """Milliseconds of each fused replan (emulate, plan and the forward passes
    that finish the plan) over the roads at ``ds``."""
    patchy_profile = _workloads().patchy_profile
    emulate, plan, forward_pass = simulator.emulate, simulator.plan, _kernels.forward_pass
    times, started = [], [0.0]

    def timed_emulate(*args, **kwargs):
        started[0] = time.perf_counter()
        return emulate(*args, **kwargs)

    def timed_plan(*args, **kwargs):
        result = plan(*args, **kwargs)
        times.append(1e3 * (time.perf_counter() - started[0]))
        return result

    def timed_forward_pass(*args):
        begun = time.perf_counter()
        forward_pass(*args)
        times[-1] += 1e3 * (time.perf_counter() - begun)

    simulator.emulate, simulator.plan = timed_emulate, timed_plan
    _kernels.forward_pass = timed_forward_pass
    try:
        for road in range(roads):
            for name, build in simulator.SCENARIOS.items():
                stock = build()
                profile = patchy_profile(random.Random(f"latency:{road}:{name}"),
                                         stock.end_s + 50.0)
                simulator.run(dataclasses.replace(stock, profile=profile),
                              Configuration("f"), local_error=-0.025, grid=SGrid(ds=ds))
    finally:
        simulator.emulate, simulator.plan = emulate, plan
        _kernels.forward_pass = forward_pass
    return times


def _spacing(text):
    """A ``--ds`` value that ``SGrid`` accepts on the default horizon."""
    try:
        ds = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number, got {text!r}") from None
    try:
        SGrid(ds=ds)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return ds


def _road_count(text):
    try:
        roads = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a whole number, got {text!r}") from None
    if roads < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {roads}")
    return roads


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--ds", type=_spacing, nargs="+", default=[1.0, 0.5, 0.1, 0.05, 0.025])
    p.add_argument("--roads", type=_road_count, default=13, help="seeded roads per geometry")
    args = p.parse_args(argv)
    period_ms = 1e3 * simulator.REPLAN_DT
    replan_ms(args.ds[0], 1)  # loads LAPACK at its first posterior; not reported
    for ds in args.ds:
        times = replan_ms(ds, args.roads)
        p50 = statistics.median(times)
        p99 = statistics.quantiles(times, n=100, method="inclusive")[98]
        print(json.dumps({"ds": ds, "n": SGrid(ds=ds).n_points, "replans": len(times),
                          "p50_ms": round(p50, 3), "p99_ms": round(p99, 3),
                          "p99_share_of_replan_dt": round(p99 / period_ms, 4)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
