"""Tests of the benchmark itself: inputs, output checks and the tracer.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

import dataclasses
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracer
import workloads
from frictionfusion import estimators, planner, simulator
from frictionfusion.estimators import classify

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("seed", [0, 1, 17])
def test_patchy_roads_deterministic_per_seed(seed):
    first = workloads.patchy_scenarios(seed, 3)
    again = workloads.patchy_scenarios(seed, 3)
    other_pass = workloads.patchy_scenarios(seed, 4)
    other_seed = workloads.patchy_scenarios(seed + 1, 3)
    for name in workloads.SCENARIOS:
        assert first[name].profile == again[name].profile
        assert first[name].profile != other_pass[name].profile
        assert first[name].profile != other_seed[name].profile


def test_patchy_profiles_are_valid_and_change_class_at_every_boundary():
    for draw in range(300):
        length = 120.0
        profile = workloads.patchy_profile(random.Random(draw), length)
        segs = profile.segments
        assert segs[0][0] < 0.0
        assert segs[-1][0] >= length + workloads.PROFILE_MARGIN
        lengths = [b[0] - a[0] for a, b in zip(segs[1:], segs[2:])]
        lo, hi = workloads.SEGMENT_LENGTH
        assert all(lo <= x <= hi for x in lengths)
        assert lo <= segs[1][0] <= hi
        classes = [classify(mu) for _, mu in segs]
        assert all(a != b for a, b in zip(classes, classes[1:]))


def test_patchy_profiles_draw_every_surface_class():
    seen = set()
    for pass_index in range(10):
        for scenario in workloads.patchy_scenarios(0, pass_index).values():
            seen.update(classify(mu).name for _, mu in scenario.profile.segments)
    assert seen == set(workloads.CLASS_MU)


def test_run_lists_match_the_workload_definitions():
    paper = workloads.build("paper_matrix", 0)
    assert len(paper) == 16 and all(c.writes and c.rc.ds == 1.0 for c in paper)
    fine = workloads.build("fine_grid", 0)
    assert [c.key for c in fine] == [(s, "f", e) for s in workloads.SCENARIOS
                                     for e in workloads.ERRORS]
    assert all(c.rc.ds == 0.5 and not c.writes for c in fine)
    patchy = workloads.build("patchy_roads", 5, 2)
    assert {c.key for c in patchy} == {c.key for c in paper}
    assert all(c.scenario is not None and not c.writes for c in patchy)
    with pytest.raises(ValueError):
        workloads.build("nope", 0)


def test_paper_check_flags_outcomes_off_the_acceptance_table():
    cell = next(c for c in workloads.build("paper_matrix", 0)
                if c.key == ("turn", "l", "worst-over"))
    result = dataclasses.replace(cell, writes=False).execute()
    assert workloads.check("paper_matrix", cell, result) is None
    wrong = dataclasses.replace(result, metrics=dataclasses.replace(result.metrics,
                                                                    outcome="ok"))
    assert "acceptance table" in workloads.check("paper_matrix", cell, wrong)
    broken = dict(result.trace, d=result.trace["d"].copy())
    broken["d"][3] = float("nan")
    assert "non-finite" in workloads.check("patchy_roads", cell,
                                           dataclasses.replace(result, trace=broken))


def _digests(cells, tmp_path):
    return [workloads.run_digest(c, c.execute(tmp_path / str(i)))
            for i, c in enumerate(cells)]


def test_tracing_leaves_outputs_unchanged_and_restores_names(tmp_path):
    cells = [workloads.build("paper_matrix", 0)[6],  # turn f worst-over, writes
             workloads.build("paper_matrix", 0)[12],  # collision p worst-over
             workloads.build("patchy_roads", 3, 0)[7]]  # turn f worst-under, patchy
    originals = {(m, p): tracer._resolve(m, p) for targets in tracer.LAYERS.values()
                 for m, p in targets}
    originals = {k: getattr(*v) for k, v in originals.items()}
    untraced = _digests(cells, tmp_path / "plain")

    tr = tracer.Tracer()
    with tr.patched():
        traced = _digests(cells, tmp_path / "traced")

    assert traced == untraced
    assert tr.missing == []
    assert all(tr.stats[name][0] > 0 for name in tracer.LAYERS)
    assert {k: getattr(*tracer._resolve(*k)) for k in originals} == originals
    run_calls, run_total, run_self = tr.stats["simulator.run"]
    assert run_calls == len(cells)
    assert 0.0 < run_self < run_total
    assert tr.stats["kernels.forward_pass"][1] < tr.stats["planner.plan"][1]


def test_wrapper_patches_the_name_the_caller_looks_up():
    tr = tracer.Tracer()
    with tr.patched():
        assert simulator.plan.__wrapped__ is planner.plan
        assert not hasattr(planner.plan, "__wrapped__")
        assert simulator.classify is estimators.classify
        assert hasattr(estimators.classify, "__wrapped__")
    assert simulator.plan is planner.plan


def test_benchmark_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_matrix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
