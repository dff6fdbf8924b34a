"""``tools/replan_latency.py`` on the default grid: one timing per fused replan."""

import importlib.util
import time
from pathlib import Path

import pytest

from frictionfusion import _kernels, simulator


def _load():
    path = Path(__file__).resolve().parents[1] / "tools" / "replan_latency.py"
    spec = importlib.util.spec_from_file_location("replan_latency", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_timing_per_replan_and_names_restored():
    emulate, plan, forward_pass = simulator.emulate, simulator.plan, _kernels.forward_pass
    times = _load().replan_ms(1.0, 1)
    assert len(times) > 2 * 20 and all(t > 0.0 for t in times)
    assert (simulator.emulate, simulator.plan) == (emulate, plan)
    assert _kernels.forward_pass is forward_pass


def test_each_replan_counts_the_forward_pass_that_finishes_its_plan(monkeypatch):
    # The forward pass runs inside ``step``, after ``plan`` has returned.
    real, calls, pause_s = _kernels.forward_pass, [], 0.004

    def slow_forward_pass(*args):
        calls.append(1)
        time.sleep(pause_s)
        return real(*args)

    monkeypatch.setattr(_kernels, "forward_pass", slow_forward_pass)
    times = _load().replan_ms(1.0, 1)
    assert len(calls) == len(times)
    assert min(times) >= 1e3 * pause_s


@pytest.mark.parametrize("option, value, message", [
    ("--roads", "x", "argument --roads: must be a whole number, got 'x'"),
    ("--roads", "1.5", "argument --roads: must be a whole number, got '1.5'"),
    ("--ds", "x", "argument --ds: must be a number, got 'x'"),
])
def test_a_value_that_is_no_number_names_the_value(option, value, message, monkeypatch,
                                                    capsys):
    module = _load()
    monkeypatch.setattr(module, "replan_ms", lambda ds, roads: pytest.fail("a run started"))
    with pytest.raises(SystemExit) as caught:
        module.main([option, value])
    assert caught.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "_road_count" not in err and "_spacing" not in err


@pytest.mark.parametrize("roads", ["0", "-2"])
def test_fewer_than_one_road_is_a_usage_error(roads, monkeypatch, capsys):
    module = _load()
    monkeypatch.setattr(module, "replan_ms", lambda ds, roads: pytest.fail("a run started"))
    with pytest.raises(SystemExit) as caught:
        module.main(["--roads", roads])
    assert caught.value.code == 2
    assert "argument --roads: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("spacings, message", [
    (["1", "0"], "ds must be > 0, got 0.0"),
    (["0.5", "0.3"], "must be a positive whole multiple of ds (0.3)"),
    (["1e-300"], "more than the limit of"),
])
def test_a_spacing_the_grid_rejects_is_a_usage_error_before_any_run(spacings, message,
                                                                     monkeypatch, capsys):
    module = _load()
    monkeypatch.setattr(module, "replan_ms", lambda ds, roads: pytest.fail("a run started"))
    with pytest.raises(SystemExit) as caught:
        module.main(["--ds", *spacings])
    assert caught.value.code == 2
    err = capsys.readouterr().err
    assert "argument --ds: " in err and message in err
