import dataclasses
import json
import re

import numpy as np
import pytest

from frictionfusion import cli
from frictionfusion.cli import RunConfig, UsageError, emit_traces, execute, parse_args, run_matrix


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


class TestRunConfigRoundTrip:
    def test_json_round_trip(self):
        rc = parse_args(["--scenario", "collision", "--config", "f",
                         "--error", "fixed=0.01", "--l", "12", "--eta", "0.6"])
        assert RunConfig.from_json(rc.to_json()) == rc


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

    def test_one_estimate_file_per_replan_in_replan_order(self, tmp_path):
        rc = parse_args(["--scenario", "collision", "--replan-dt", "0.005", "--sim-dt",
                         "0.005", "--out", str(tmp_path), "--dump-estimates"])
        result = execute(rc)
        emit_traces(result, rc)
        names = sorted(p.name for p in tmp_path.glob("estimate_*.csv"))
        assert len(names) == len(result.replans)
        assert [int(n[len("estimate_"):-len(".csv")]) for n in names] == \
            list(range(len(result.replans)))

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
                raise RuntimeError("boom")
            return real(rc)

        monkeypatch.setattr(cli, "execute", flaky)
        text = run_matrix(["turn"], ["gt", "l"], ["worst-over"])
        lines = text.strip().splitlines()[1:]
        assert any("failed: RuntimeError" in line for line in lines)
        assert any(",ok," in line for line in lines)
        assert "turn,l,worst-over: RuntimeError: boom" in capsys.readouterr().err

    def test_byte_identical_across_repeats(self, tmp_path):
        a = run_matrix(["collision"], ["p", "f"], ["worst-under"])
        b = run_matrix(["collision"], ["p", "f"], ["worst-under"])
        assert a == b


class TestMain:
    def test_usage_error_exit_code(self, capsys):
        assert cli.main(["--ds", "0"]) == 1
        assert "--ds" in capsys.readouterr().err

    def test_successful_run_exit_code(self, tmp_path, capsys):
        code = cli.main(["--scenario", "collision", "--config", "p",
                         "--error", "worst-under", "--out", str(tmp_path)])
        assert code == 0
        assert "collision" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["--ds", "0"], ["--s-f", "-1"], ["--l", "0"], ["--sigma-f", "0"], ["--eta", "2"],
        ["--s-l", "-1"], ["--sim-dt", "0.06"], ["--replan-dt", "0"],
        ["--lane-half-width", "0"], ["--turn-radius", "0"],
    ])
    def test_out_of_range_value_names_its_flag(self, argv, capsys):
        assert cli.main(argv) == 1
        assert re.search(re.escape(argv[0]) + r"(?![\w-])", capsys.readouterr().err)

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
