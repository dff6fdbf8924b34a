"""Statistics and failure handling of ``tools/bench_pairs.py``; only stub
benchmark processes are started."""

import importlib.util
import json
import subprocess
import textwrap
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


@pytest.mark.parametrize("seeds", ["5-3", "1-2,9-8"])
def test_a_range_that_ends_below_its_start_is_a_usage_error(seeds, monkeypatch, capsys):
    def no_copy(*args):
        pytest.fail("a tree was copied")

    monkeypatch.setattr(bench_pairs, "archive_tree", no_copy)
    monkeypatch.setattr(bench_pairs, "working_tree", no_copy)
    with pytest.raises(SystemExit) as caught:
        bench_pairs.main(["--parent", "HEAD", "--seeds", seeds, "--out", "x.json"])
    assert caught.value.code == 2
    assert "argument --seeds: range" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["--seconds", "-1"], "argument --seconds: must be finite and > 0"),
    (["--seconds", "0"], "argument --seconds: must be finite and > 0"),
    (["--seconds", "nan"], "argument --seconds: must be finite and > 0"),
    (["--traced-seconds", "-1"], "argument --traced-seconds: must be finite and >= 0"),
    (["--seeds", "x"], "argument --seeds: 'x' is not a seed or a range of seeds"),
    (["--seeds", "1-2,3-y"], "argument --seeds: '3-y' is not a seed or a range of seeds"),
    (["--seeds", ""], "argument --seeds: '' is not a seed or a range of seeds"),
])
def test_bad_arguments_are_usage_errors_before_any_copy(args, message, monkeypatch,
                                                        capsys, tmp_path):
    def no_copy(*args):
        pytest.fail("a tree was copied")

    monkeypatch.setattr(bench_pairs, "archive_tree", no_copy)
    monkeypatch.setattr(bench_pairs, "working_tree", no_copy)
    argv = ["--parent", "HEAD", "--seeds", "1-2", "--out", str(tmp_path / "x.json"), *args]
    with pytest.raises(SystemExit) as caught:
        bench_pairs.main(argv)
    assert caught.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "parse_seeds" not in err


def test_zero_traced_seconds_means_no_traced_runs(tmp_path):
    args = bench_pairs._parse(["--parent", "HEAD", "--seeds", "1", "--traced-seconds", "0",
                               "--out", str(tmp_path / "x.json")])
    assert [run[1] for run in bench_pairs.schedule(["fine_grid"], [1], args.traced_seconds)] \
        == [0, 0]


def test_an_existing_report_is_never_overwritten(tmp_path, monkeypatch, capsys):
    out = tmp_path / "BENCH_1.json"
    out.write_text("earlier\n")

    def no_copy(*args):
        pytest.fail("a tree was copied")

    monkeypatch.setattr(bench_pairs, "archive_tree", no_copy)
    with pytest.raises(SystemExit) as caught:
        bench_pairs.main(["--parent", "HEAD", "--seeds", "1", "--out", str(out)])
    assert caught.value.code == 2
    assert f"argument --out: {out} exists" in capsys.readouterr().err
    assert out.read_text() == "earlier\n"


def test_a_report_that_appears_during_the_runs_is_kept(tmp_path, monkeypatch):
    # The report is written with mode "x": a file made after the check stays.
    repo = tmp_path / "repo"
    repo.mkdir()
    _stub_repo(repo)
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    out = tmp_path / "report.json"
    real = bench_pairs.run_bench

    def run_and_write(*args):
        out.write_text("meanwhile\n")
        return real(*args)

    monkeypatch.setattr(bench_pairs, "run_bench", run_and_write)
    with pytest.raises(FileExistsError):
        bench_pairs.main(["--parent", "HEAD", "--seeds", "1", "--workloads", "fine_grid",
                          "--out", str(out)])
    assert out.read_text() == "meanwhile\n"


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


# A stand-in for ``perfbench/run.py``: prints the info and result lines, or,
# where ``FAIL_SEED`` is not None and matches ``--seed``, 25 lines on stderr and exit 3.
STUB_RUN = textwrap.dedent("""\
    import json, sys
    FAIL_SEED = {fail_seed}
    seed = int(sys.argv[sys.argv.index("--seed") + 1])
    if seed == FAIL_SEED:
        for i in range(25):
            print(f"stub error line {{i}}", file=sys.stderr)
        sys.exit(3)
    print(json.dumps({{"environment": {{"host": "stub"}}, "fingerprint": f"f{{seed}}",
                      "samples": 1}}))
    print(json.dumps({{"correct": True, "attempted": 1, "failed": 0,
                      "metrics": {{"wall_s": {{"value": 0.1 * seed}}}}}}))
""")


def _stub_repo(root):
    """A git repository whose committed stub benchmark succeeds and whose
    working tree's stub fails on seed 2."""
    (root / "perfbench").mkdir()
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}]}))
    run = root / "perfbench" / "run.py"
    run.write_text(STUB_RUN.format(fail_seed=None))
    git = ["git", "-c", "user.name=stub", "-c", "user.email=stub@example.com"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-qm", "stub"]):
        subprocess.run([*git, *args], cwd=root, check=True, capture_output=True)
    run.write_text(STUB_RUN.format(fail_seed=2))


def test_a_failing_run_is_recorded_and_the_report_written(tmp_path, monkeypatch, capsys):
    repo = tmp_path / "repo"
    repo.mkdir()
    _stub_repo(repo)
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    out = tmp_path / "report.json"
    code = bench_pairs.main(["--parent", "HEAD", "--seeds", "1-3",
                             "--workloads", "fine_grid", "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    # Pair 1 runs the change first, and it fails there: the seed-1 pair is complete.
    tail = [f"stub error line {i}" for i in range(5, 25)]
    assert report["failed_run"] == {"workload": "fine_grid", "side": "change", "pair": 1,
                                    "seed": 2, "exit_code": 3, "stderr_tail": tail}
    assert [r["seed"] for r in report["runs"]["fine_grid"]["parent"]] == [1]
    assert [r["seed"] for r in report["runs"]["fine_grid"]["change"]] == [1]
    assert report["end_to_end"]["fine_grid"]["wall_s"]["change_better_in_pairs"] == "0/1"
    assert report["fingerprints"]["fine_grid"]["equal_per_seed"]
    err = capsys.readouterr().err
    assert "fine_grid pair 1 change (seed 2): perfbench/run.py exited 3" in err
    assert err.endswith("\n".join(tail) + "\n")


def test_a_failing_first_run_still_writes_a_report(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    repo.mkdir()
    _stub_repo(repo)
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    out = tmp_path / "report.json"
    # Seed 2 in pair 0: the parent side runs first and passes, then the change fails.
    assert bench_pairs.main(["--parent", "HEAD", "--seeds", "2", "--workloads",
                             "paper_matrix", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["failed_run"]["side"] == "change"
    assert report["end_to_end"] == {} and report["fingerprints"] == {}
    assert len(report["runs"]["paper_matrix"]["parent"]) == 1
