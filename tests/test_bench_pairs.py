"""Statistics of ``tools/bench_pairs.py``; no benchmark process is started."""

import importlib.util
from pathlib import Path

import pytest


def _load():
    path = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load()


def test_seeds_and_alternation():
    assert bench_pairs.parse_seeds("1501-1504,7") == [1501, 1502, 1503, 1504, 7]
    assert [bench_pairs.first_side(i) for i in range(4)] == ["parent", "change"] * 2


def test_quartiles_inclusive():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_lower_is_better():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0]
    change = [9.0, 10.0, 12.0, 12.0, 13.0]  # one tie
    out = bench_pairs.summarize(parent, change, "lower", 0.25)
    assert out["parent"] == {"median": 12.0, "q1": 11.0, "q3": 13.0}
    assert out["change"] == {"median": 12.0, "q1": 10.0, "q3": 12.0}
    assert out["change_better_in_pairs"] == "4/5"
    assert out["change_worse_by"] == 0.0
    assert out["median_gap_exceeds_parent_iqr"] is False
    assert out["bound"] == 0.25


def test_higher_is_better_flips_the_sign():
    parent = [100.0, 100.0, 100.0, 100.0]
    change = [120.0, 125.0, 130.0, 90.0]
    out = bench_pairs.summarize(parent, change, "higher")
    assert out["change_better_in_pairs"] == "3/4"
    assert out["change_worse_by"] == pytest.approx(-0.225)
    assert out["median_gap_exceeds_parent_iqr"] is True
    assert "bound" not in out
    worse = bench_pairs.summarize(change, parent, "higher")
    assert worse["change_better_in_pairs"] == "1/4"
    assert worse["change_worse_by"] == pytest.approx(22.5 / 122.5)


def test_gap_compared_with_the_parent_spread_only():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]  # quartile spread 2.0
    assert not bench_pairs.summarize(parent, [x - 2.0 for x in parent],
                                     "lower")["median_gap_exceeds_parent_iqr"]
    assert bench_pairs.summarize(parent, [x - 2.5 for x in parent],
                                 "lower")["median_gap_exceeds_parent_iqr"]


@pytest.mark.parametrize("parent, change, better", [
    ([1.0], [1.0, 2.0], "lower"), ([], [], "lower"), ([1.0], [1.0], "faster")])
def test_bad_input_rejected(parent, change, better):
    with pytest.raises(ValueError):
        bench_pairs.summarize(parent, change, better)


def test_workloads_default_to_all_and_select_a_subset():
    common = ["--parent", "HEAD", "--seeds", "1-2", "--out", "x.json"]
    assert bench_pairs._parse(common).workloads == list(bench_pairs.WORKLOADS)
    assert bench_pairs._parse([*common, "--workloads", "patchy_roads"]).workloads == [
        "patchy_roads"]
    assert bench_pairs._parse([*common, "--workloads", "fine_grid", "paper_matrix",
                               "fine_grid"]).workloads == ["fine_grid", "paper_matrix"]
    with pytest.raises(SystemExit):
        bench_pairs._parse([*common, "--workloads", "nope"])
