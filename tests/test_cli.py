import dataclasses
import hashlib
import inspect
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from frictionfusion import cli
from frictionfusion.cli import (
    CONFIG_NAMES,
    DEFAULT_ERRORS,
    SCENARIO_NAMES,
    RunConfig,
    UsageError,
    emit_traces,
    execute,
    parse_args,
    run_matrix,
)
from frictionfusion.estimators import Configuration, FrictionProfile
from frictionfusion.fusion import MAX_GRID_POINTS, SGrid, calibrate_prior
from frictionfusion.gp import FactorizationError
from frictionfusion.simulator import collision_scenario, run, turn_scenario
from helpers import fresh_process_env, load_workloads, repin_message

# The default 16-run matrix, pinned byte for byte: a change meant to alter
# only speed must leave every digit of it alone. Re-pinned when the GP std
# came to be taken from the column sums of v**2 on scipy's LAPACK factor: the
# fused turns' max_abs_d moved in the 9th digit.
GOLDEN_SUMMARY = """\
scenario,config,error_mode,outcome,max_abs_d,min_clearance,impact_velocity,mean_utilization
turn,gt,worst-over,ok,0.17383469,,0,1
turn,gt,worst-under,ok,0.17383469,,0,1
turn,l,worst-over,lane_departure,9.78600889,,0,1
turn,l,worst-under,lane_departure,15.771938,,0,0.875
turn,p,worst-over,ok,0.17383469,,0,1
turn,p,worst-under,ok,0.17383469,,0,1
turn,f,worst-over,ok,0.253553802,,0,1.0082689
turn,f,worst-under,ok,1.65035482,,0,0.879120839
collision,gt,worst-over,ok,1.4812875,0.4812875,0,1
collision,gt,worst-under,ok,1.4812875,0.4812875,0,1
collision,l,worst-over,ok,1.38589102,0.382600774,0,0.979545455
collision,l,worst-under,ok,1.38615318,0.382885387,0,0.934090909
collision,p,worst-over,collision,0.891273835,-0.109108882,16.1580445,0.6
collision,p,worst-under,collision,0.891273835,-0.109108882,16.1580445,0.6
collision,f,worst-over,ok,1.46641487,0.451545516,0,0.884394928
collision,f,worst-under,ok,1.46801335,0.452694111,0,0.852445025
"""

# Pass 0 of perfbench's ``patchy_roads`` workload (16 runs on seeded patchy
# friction), by seed: the fingerprint covers every run's metrics and trace. Measured
# before the plant stepped a whole replan interval per call; re-pinned when the
# GP std came to be taken from column sums on scipy's LAPACK factor.
GOLDEN_PATCHY_FINGERPRINTS = {
    0: "f4c11f087d75e0cce2272738fafb6ef70f22b4d0e988695d7d1fdf6fddb10f78",
    5: "ed5396984b6e3bca4290d340d8d514bab115d98f31923fea1cb3b499e5fdc773",
}

# sha256 of the files three runs write, keyed by their command line without
# ``--out``: one lane departure (turn), one collision, and a fused turn on a
# finer grid. Each digest was measured before the code that writes the file
# was rewritten; the fused fine-grid files were re-pinned when fusion came to
# observe at 1 m on a finer grid. An estimate digest covers every estimate_<i>.csv,
# concatenated in name order.
FINE_GRID_KEY = ("--scenario", "turn", "--config", "f", "--error", "worst-under",
                 "--ds", "0.5", "--dump-estimates")
GOLDEN_FILE_DIGESTS = {
    ("--scenario", "collision", "--config", "p", "--error", "worst-over",
     "--dump-estimates"): {
        "trace.csv": "b9975d77c79482af261c66a341653c1454988fdf02181a7e4a9567d9b54af6e1",
        "trace.json": "f05e212724d20a2862dddeb22feaaa07b128e4efd66c8abb168b67ced74521aa",
        "metrics.json": "af21a7db396de8804a0956cbbbbf52d54eb2c8f4262baf7b7548c3ccb425730e",
        "estimate_*.csv": "997bb262c927f6bf7aee92acf940397b4335baee0f9fdb44a36f88f529c6fdf2",
    },
    ("--scenario", "turn", "--config", "l", "--error", "worst-under"): {
        "trace.csv": "e0f6e123d9a3bd6e9ca53d419c55caba7610260c9c47d420d0724761686c0f26",
        "trace.json": "632686ece8d065ea2ddd4794e6a89d7aee998ad77a44285e03f5126887f91b11",
        "metrics.json": "2b15fc77ff4ef7c6493ae89ca8aae97ec8ff8a85e1e381a9d003c65dcb30ce5b",
    },
    FINE_GRID_KEY: {
        "trace.csv": "ff88d53cd7e0bf815149d09beadbe94fe0cc8f30aba8a84b81159376fc8c367c",
        "trace.json": "999b5b77e6fbb5fa67ce9557154597470c0adf7af85c697136017e1162d0d3d2",
        "metrics.json": "e0b39db0537acabd685c7c82e8998c08586be22884ab4df2ffa524271fb3b12b",
        "estimate_*.csv": "2931ad72996bf66e1294826b5651dd24628033fb7f167a145db26f0d65b372fc",
    },
}


class TestParseArgs:
    def test_turn_local_worst_over(self):
        rc = parse_args(["--scenario", "turn", "--config", "l", "--error", "worst-over"])
        assert rc.scenario == "turn"
        assert rc.config == "l"
        assert rc.error == "worst-over"

    def test_zero_spacing_rejected_with_flag_name(self):
        with pytest.raises(UsageError, match="--ds"):
            parse_args(["--ds", "0"])

    def test_collision_fused_worst_under(self):
        rc = parse_args(["--scenario", "collision", "--config", "f",
                         "--error", "worst-under", "--s-l", "5"])
        assert rc.scenario == "collision"
        assert rc.config == "f"
        assert rc.error == "worst-under"
        assert rc.s_l == 5.0

    def test_bad_error_mode(self):
        with pytest.raises(UsageError, match="--error"):
            parse_args(["--error", "sometimes"])

    def test_horizon_multiple_check(self):
        with pytest.raises(UsageError, match="--s-f"):
            parse_args(["--ds", "3", "--s-f", "50"])

    def test_dt_multiple_check(self):
        with pytest.raises(UsageError, match="--replan-dt"):
            parse_args(["--replan-dt", "0.05", "--sim-dt", "0.02"])

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(UsageError):
            parse_args(["--frobnicate", "1"])

    def test_no_flags_give_the_config_defaults(self):
        assert parse_args([]) == RunConfig()

    def test_each_field_is_exactly_one_flag(self):
        actions = cli._build_parser()._actions
        for field in dataclasses.fields(RunConfig):
            flags = [a.option_strings for a in actions if a.dest == field.name]
            assert flags == [["--" + field.name.replace("_", "-")]]


class TestDefaultsComeFromTheLibrary:
    """``RunConfig()`` builds what the library builds by default, so the
    acceptance gate (library defaults) and ``summary.csv`` (command-line
    defaults) run the same values; an edit to either side fails here."""

    def test_grid_and_prior(self):
        assert RunConfig().grid() == SGrid()
        assert RunConfig().prior() == calibrate_prior()

    def test_fused_configuration(self):
        assert RunConfig(config="f").configuration() == Configuration("f")

    def test_scenarios(self):
        assert RunConfig(scenario="turn").scenario_instance() == turn_scenario()
        assert RunConfig(scenario="collision").scenario_instance() == collision_scenario()

    def test_time_steps(self):
        params = inspect.signature(run).parameters
        assert RunConfig().replan_dt == params["replan_dt"].default
        assert RunConfig().sim_dt == params["sim_dt"].default


class TestEmitTraces:
    def test_metrics_schema(self, tmp_path):
        rc = parse_args(["--scenario", "collision", "--config", "p",
                         "--error", "worst-under", "--out", str(tmp_path)])
        result = execute(rc)
        emit_traces(result, rc)
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        for key in ("outcome", "max_abs_d", "impact_velocity", "min_clearance",
                    "mean_utilization"):
            assert key in metrics
        assert metrics["impact_velocity"] > 0
        assert metrics["outcome"] == "collision"

    def test_trace_columns(self, tmp_path):
        rc = parse_args(["--scenario", "turn", "--config", "gt", "--out", str(tmp_path)])
        emit_traces(execute(rc), rc)
        header = (tmp_path / "trace.csv").read_text().splitlines()[0]
        assert header == "t,s,d,v,lambda,outcome_so_far"
        payload = json.loads((tmp_path / "trace.json").read_text())
        assert set(payload) == {"t", "s", "d", "v", "lambda", "outcome_so_far"}

    def test_estimate_dump_tracks_ground_truth_in_turn(self, tmp_path):
        rc = parse_args(["--scenario", "turn", "--config", "f", "--error",
                         "worst-over", "--out", str(tmp_path), "--dump-estimates"])
        emit_traces(execute(rc), rc)
        at_half_second = sorted(tmp_path.glob("estimate_*.csv"))[5]
        lines = at_half_second.read_text().splitlines()
        assert lines[0] == "s,mu_prime,margin,post_mean,post_std,mu_hat,mu_gt"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        mu_hat_at_zero = float(first[5])
        mu_gt_at_zero = float(first[6])
        assert mu_gt_at_zero == pytest.approx(0.4)
        assert abs(mu_hat_at_zero - mu_gt_at_zero) <= 0.05

    def test_estimate_dump_follows_the_run_not_the_command_line(self, tmp_path):
        # A library run on its own road and grid, written with a RunConfig
        # that names neither.
        road = FrictionProfile(((-1e6, 0.8), (12.0, 0.3)))
        scenario = dataclasses.replace(turn_scenario(), profile=road)
        result = run(scenario, Configuration("gt"), grid=SGrid(ds=2.0, s_f=40.0))
        emit_traces(result, RunConfig(out=str(tmp_path), dump_estimates=True))
        first = sorted(tmp_path.glob("estimate_*.csv"))[0]
        rows = np.loadtxt(first, delimiter=",", skiprows=1)
        np.testing.assert_array_equal(rows[:, 0], np.arange(21) * 2.0)
        np.testing.assert_array_equal(rows[:, 6], road.mu_on(rows[:, 0]))

    def test_fused_dump_on_a_finer_grid_holds_each_1m_observation(self, tmp_path):
        rc = parse_args(["--scenario", "turn", "--config", "f", "--ds", "0.5",
                         "--out", str(tmp_path), "--dump-estimates"])
        result = execute(rc)
        emit_traces(result, rc)
        for path, rec in zip(sorted(tmp_path.glob("estimate_*.csv"))[:10], result.replans):
            rows = np.loadtxt(path, delimiter=",", skiprows=1)
            np.testing.assert_array_equal(rows[:, 0], np.arange(101) * 0.5)
            for column, observed in ((1, rec.series.mu_prime), (2, rec.series.margin)):
                want = np.repeat([float(f"{x:.9g}") for x in observed], 2)[:101]
                np.testing.assert_array_equal(rows[:, column], want)

    def test_one_estimate_file_per_replan_in_replan_order(self, tmp_path):
        rc = parse_args(["--scenario", "collision", "--replan-dt", "0.005", "--sim-dt",
                         "0.005", "--out", str(tmp_path), "--dump-estimates"])
        result = execute(rc)
        emit_traces(result, rc)
        names = sorted(p.name for p in tmp_path.glob("estimate_*.csv"))
        assert len(names) == len(result.replans)
        assert [int(n[len("estimate_"):-len(".csv")]) for n in names] == \
            list(range(len(result.replans)))

    @staticmethod
    def _assert_golden(out_dir, key):
        got, want = {}, GOLDEN_FILE_DIGESTS[key]
        for pattern in want:
            paths = sorted(out_dir.glob(pattern))
            assert paths, pattern
            got[pattern] = hashlib.sha256(b"".join(p.read_bytes() for p in paths)).hexdigest()
        assert got == want, repin_message(f"GOLDEN_FILE_DIGESTS[{key}]", got, want)

    @pytest.mark.parametrize("key", list(GOLDEN_FILE_DIGESTS))
    def test_written_files_are_golden(self, key, tmp_path):
        rc = parse_args([*key, "--out", str(tmp_path)])
        emit_traces(execute(rc), rc)
        self._assert_golden(tmp_path, key)

    def test_written_files_are_golden_on_threaded_blas(self, tmp_path):
        # The first fused posterior loads scipy's BLAS on one thread unless a
        # thread count is set; with two threads the fused fine-grid files are
        # the same bytes.
        subprocess.run([sys.executable, "-m", "frictionfusion.cli", *FINE_GRID_KEY,
                        "--out", str(tmp_path)], check=True, capture_output=True,
                       env=fresh_process_env(OPENBLAS_NUM_THREADS="2"))
        self._assert_golden(tmp_path, FINE_GRID_KEY)

    def test_nan_is_an_empty_csv_cell_and_a_json_null(self, tmp_path):
        result = run(turn_scenario(), Configuration("gt"))
        trace = dict(result.trace, d=result.trace["d"].copy())
        trace["d"][2] = np.nan
        mu_hat = result.replans[1].mu_hat.copy()
        mu_hat[3] = np.nan
        replans = [result.replans[0], dataclasses.replace(result.replans[1], mu_hat=mu_hat)]
        nan_result = dataclasses.replace(result, trace=trace, replans=replans)
        emit_traces(nan_result, RunConfig(out=str(tmp_path), dump_estimates=True))

        rows = (tmp_path / "trace.csv").read_text().splitlines()
        assert rows[3].split(",")[2] == ""
        assert rows[2].split(",")[2] == f"{result.trace['d'][1]:.9g}"
        payload = json.loads((tmp_path / "trace.json").read_text())
        assert payload["d"][2] is None and payload["d"][1] == result.trace["d"][1]
        assert json.loads((tmp_path / "metrics.json").read_text())["min_clearance"] is None
        estimate = (tmp_path / "estimate_1.csv").read_text().splitlines()
        # mu_prime, post_mean and mu_hat all read the NaN on a ground-truth run.
        assert [i for i, x in enumerate(estimate[4].split(",")) if x == ""] == [1, 3, 5]

    def test_csv_only_format(self, tmp_path):
        rc = parse_args(["--scenario", "turn", "--config", "gt",
                         "--format", "csv", "--out", str(tmp_path)])
        emit_traces(execute(rc), rc)
        assert (tmp_path / "trace.csv").exists()
        assert not (tmp_path / "trace.json").exists()
        assert (tmp_path / "metrics.json").exists()


class TestRunMatrix:
    def test_full_matrix_shape_and_outcomes(self, tmp_path):
        base = parse_args(["--out", str(tmp_path)])
        text = run_matrix(["turn", "collision"], ["gt", "l", "p", "f"],
                          ["worst-over"], base=base)
        lines = text.strip().splitlines()
        assert lines[0] == cli.SUMMARY_HEADER
        assert len(lines) == 9
        rows = {tuple(line.split(",")[:3]): line.split(",") for line in lines[1:]}
        assert rows[("turn", "l", "worst-over")][3] == "lane_departure"
        assert rows[("turn", "gt", "worst-over")][3] == "ok"

    def test_matrix_worst_under_collision_outcomes(self, tmp_path):
        base = parse_args(["--out", str(tmp_path)])
        text = run_matrix(["collision"], ["gt", "l", "p", "f"], ["worst-under"],
                          base=base)
        rows = {line.split(",")[1]: line.split(",") for line in text.strip().splitlines()[1:]}
        assert rows["p"][3] == "collision"
        for kind in ("gt", "l", "f"):
            assert rows[kind][3] == "ok"
        assert (tmp_path / "summary.csv").exists()
        assert (tmp_path / "collision_f_worst-under" / "metrics.json").exists()

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            run_matrix([], ["gt"], ["worst-over"])

    def test_single_failure_does_not_sink_matrix(self, monkeypatch, capsys):
        calls = {"n": 0}
        real = cli.execute

        def flaky(rc):
            calls["n"] += 1
            if rc.config == "l":
                raise FactorizationError("boom")
            return real(rc)

        monkeypatch.setattr(cli, "execute", flaky)
        text = run_matrix(["turn"], ["gt", "l"], ["worst-over"])
        lines = text.strip().splitlines()[1:]
        assert any("failed: FactorizationError" in line for line in lines)
        assert any(",ok," in line for line in lines)
        assert "turn,l,worst-over: FactorizationError: boom" in capsys.readouterr().err

    def test_programming_error_escapes_matrix(self, monkeypatch):
        def broken(rc):
            raise TypeError("bug")

        monkeypatch.setattr(cli, "execute", broken)
        with pytest.raises(TypeError, match="bug"):
            run_matrix(["collision"], ["p"], ["worst-under"])

    def test_default_matrix_is_golden(self):
        assert run_matrix(SCENARIO_NAMES, CONFIG_NAMES, DEFAULT_ERRORS) == GOLDEN_SUMMARY

    @pytest.mark.parametrize("seed", list(GOLDEN_PATCHY_FINGERPRINTS))
    def test_patchy_roads_are_golden(self, seed):
        # The benchmark's patchy roads reach the dodge, infeasible-plan and
        # class-boundary branches that the two stock roads do not.
        workloads = load_workloads()
        cells = workloads.build("patchy_roads", seed, 0)
        digests = [workloads.run_digest(cell, cell.execute()) for cell in cells]
        got = {seed: workloads.fingerprint(digests)}
        want = {seed: GOLDEN_PATCHY_FINGERPRINTS[seed]}
        assert got == want, repin_message("GOLDEN_PATCHY_FINGERPRINTS", got, want)

    def test_byte_identical_across_repeats(self, tmp_path):
        a = run_matrix(["collision"], ["p", "f"], ["worst-under"])
        b = run_matrix(["collision"], ["p", "f"], ["worst-under"])
        assert a == b


class TestMain:
    def test_usage_error_exit_code(self, capsys):
        assert cli.main(["--ds", "0"]) == 1
        assert "--ds" in capsys.readouterr().err

    def test_run_failure_exits_2_with_its_type(self, monkeypatch, capsys):
        def degenerate(rc):
            raise FactorizationError("boom")

        monkeypatch.setattr(cli, "execute", degenerate)
        assert cli.main(["--scenario", "collision", "--config", "p"]) == 2
        assert "run failed: FactorizationError: boom" in capsys.readouterr().err

    def test_programming_error_escapes_single_run(self, monkeypatch):
        def broken(rc):
            raise TypeError("bug in the program")

        monkeypatch.setattr(cli, "execute", broken)
        with pytest.raises(TypeError, match="bug in the program"):
            cli.main(["--scenario", "collision", "--config", "p"])

    def test_successful_run_exit_code(self, tmp_path, capsys):
        code = cli.main(["--scenario", "collision", "--config", "p",
                         "--error", "worst-under", "--out", str(tmp_path)])
        assert code == 0
        assert "collision" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["--ds", "0"], ["--s-f", "-1"], ["--l", "0"], ["--sigma-f", "0"], ["--eta", "2"],
        ["--s-l", "-1"], ["--sim-dt", "0.06"], ["--replan-dt", "0"],
        ["--lane-half-width", "0"], ["--turn-radius", "0"], ["--ds", "1e12", "--s-f", "1"],
        ["--s-f", "inf"], ["--replan-dt", "inf"], ["--replan-dt", "nan"],
        ["--turn-radius", "inf"], ["--lane-half-width", "inf"], ["--sigma-f", "inf"],
    ])
    def test_out_of_range_value_names_its_flag(self, argv, capsys):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        for flag in argv[::2]:
            assert re.search(re.escape(flag) + r"(?![\w-])", err)

    def test_grid_over_the_point_limit_starts_no_run(self, monkeypatch, capsys):
        def must_not_run(rc):
            raise AssertionError("a run started")

        monkeypatch.setattr(cli, "execute", must_not_run)
        assert cli.main(["--config", "f", "--ds", "0.001"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: --ds/--s-f: ")
        assert "50001 grid points" in err and f"limit of {MAX_GRID_POINTS}" in err

    @pytest.mark.parametrize("argv, flag", [
        (["--matrix", "--scenario", "collision"], "--scenario"),
        (["--matrix", "--config", "p"], "--config"),
        (["--matrix", "--error", "worst-under"], "--error"),
        (["--scenarios", "turn"], "--scenarios"),
        (["--configs", "gt"], "--configs"),
        (["--errors", "worst-over"], "--errors"),
        (["--scenario", "collision", "--turn-radius", "15"], "--turn-radius"),
        (["--matrix", "--scenarios", "collision", "--turn-radius", "15"], "--turn-radius"),
        (["--matrix", "--errors", "worst-over", "sometimes"], "--errors"),
        (["--scenario", "collision", "--config", "p", "--format", "csv"], "--format"),
        (["--scenario", "collision", "--config", "p", "--dump-estimates"], "--dump-estimates"),
        (["--matrix", "--scenarios", "collision", "--format", "json"], "--format"),
        (["--matrix", "--scenarios", "collision", "--dump-estimates"], "--dump-estimates"),
    ])
    def test_flag_that_would_be_ignored_is_usage_error(self, argv, flag, capsys):
        assert cli.main(argv) == 1
        assert re.search(re.escape(flag) + r"(?![\w-])", capsys.readouterr().err)

    def test_matrix_prints_its_summary(self, tmp_path, capsys):
        code = cli.main(["--matrix", "--out", str(tmp_path), "--scenarios", "collision",
                         "--configs", "p", "f", "--errors", "worst-under"])
        assert code == 0
        summary = (tmp_path / "summary.csv").read_bytes()
        assert capsys.readouterr().out.encode() == summary
        assert len(summary.splitlines()) == 3
