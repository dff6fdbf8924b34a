"""``tools/replan_latency.py`` on the default grid: one timing per fused replan."""

import importlib.util
from pathlib import Path

from frictionfusion import simulator


def _load():
    path = Path(__file__).resolve().parents[1] / "tools" / "replan_latency.py"
    spec = importlib.util.spec_from_file_location("replan_latency", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_timing_per_replan_and_names_restored():
    emulate, plan = simulator.emulate, simulator.plan
    times = _load().replan_ms(1.0, 1)
    assert len(times) > 2 * 20 and all(t > 0.0 for t in times)
    assert (simulator.emulate, simulator.plan) == (emulate, plan)
