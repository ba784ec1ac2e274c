"""Command-line interface: subcommands, flag/file precedence, exit codes."""

import subprocess
import sys
import textwrap
from dataclasses import MISSING, fields

import numpy as np
import pytest
from conftest import child_env

from fedsofim import cli
from fedsofim.accountant import calibrate_sigma, composed_delta
from fedsofim.core import FederatedConfig
from fedsofim.harness import (
    ExperimentPlan,
    FeatureTaskBinding,
    GridSpec,
    QuadraticTaskBinding,
    grid_search,
    read_metrics,
)
from fedsofim.task import load_frozen_features

QUAD_FLAGS = [
    "--quadratic", "--dim", "6", "--mu", "0.5", "--L", "2.0",
    "--n", "4", "--T", "8", "--eta", "0.2", "--clip_cg", "100",
    "--sigma_g", "0", "--beta", "0.9", "--rho", "1.0", "--master_seed", "3",
]


class TestRunCommand:
    def test_quadratic_run_writes_a_metrics_file(self, tmp_path, capsys):
        out = tmp_path / "metrics.csv"
        code = cli.main(["run", *QUAD_FLAGS, "--eval-every", "4", "--output", str(out)])
        assert code == 0
        rows = read_metrics(out)
        assert [r.round for r in rows] == [4, 8]
        stdout = capsys.readouterr().out
        assert "optimizer = SOFIM" in stdout
        assert "eta = 0.2" in stdout
        assert f"wrote 2 metric rows to {out}" in stdout

    def test_metrics_go_to_stdout_without_an_output_path(self, capsys):
        code = cli.main(["run", *QUAD_FLAGS, "--eval-every", "8"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "round,train_loss,test_accuracy,aggregate_grad_norm," \
               "suboptimality_gap,elapsed" in stdout

    def test_stdout_table_matches_the_output_file_byte_for_byte(self, tmp_path, capsys):
        args = ["run", *QUAD_FLAGS, "--sigma_g", "1.0", "--eval-every", "2"]
        out = tmp_path / "metrics.csv"
        assert cli.main([*args, "--output", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(args) == 0
        lines = capsys.readouterr().out.splitlines(keepends=True)
        header_end = next(i for i, line in enumerate(lines) if " = " not in line)
        assert "".join(lines[header_end:]).encode("utf-8") == out.read_bytes()

    def test_flags_override_the_config_file(self, tmp_path, capsys):
        config = tmp_path / "settings.txt"
        config.write_text(textwrap.dedent("""
            n = 4
            T = 8
            eta = 0.9
            clip_cg = 100
            sigma_g = 0
            beta = 0.9
            rho = 1.0
        """), encoding="utf-8")
        code = cli.main([
            "run", "--config", str(config), "--eta", "0.2",
            "--quadratic", "--dim", "4", "--mu", "0.5", "--L", "2.0",
            "--eval-every", "8",
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "eta = 0.2" in stdout
        assert "T = 8" in stdout

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["run", *QUAD_FLAGS, "--sigma_g", "1.0", "--eval-every", "2"]
        assert cli.main([*args, "--output", str(out_a)]) == 0
        assert cli.main([*args, "--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_task_selection_must_be_exactly_one(self, tmp_path, capsys):
        code = cli.main(["run", *QUAD_FLAGS[1:]])  # drop --quadratic, no --features
        assert code == 2
        assert "choose exactly one task" in capsys.readouterr().err

    def test_bad_setting_flags_get_the_config_file_message(self, capsys):
        for flag, value, message in (
            ("--eta", "fast", "error: config key 'eta': cannot parse 'fast' as float"),
            ("--optimizer", "adam", "error: optimizer must be SOFIM or FEDGD, got 'adam'"),
        ):
            assert cli.main(["run", *QUAD_FLAGS, flag, value]) == 2
            assert capsys.readouterr().err.strip() == message

    def test_a_seed_outside_the_stream_range_fails_cleanly(self, capsys):
        assert cli.main(["run", *QUAD_FLAGS, "--master_seed", "-1"]) == 2
        assert capsys.readouterr().err.strip() == "error: master_seed must be >= 0 and <= 18446744073709551615"

    def test_missing_config_keys_fail_cleanly(self, capsys):
        code = cli.main(["run", "--quadratic", "--n", "4", "--T", "8"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: missing config keys")

    def test_missing_config_file_fails_cleanly(self, capsys):
        code = cli.main(["run", "--config", "/no/such/file", "--quadratic"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_non_finite_task_flags_fail_naming_the_setting(self, tmp_path, capsys):
        features = tmp_path / "train.features"
        assert cli.main(["gen-task", "--examples", "40", "--dim", "3", "--classes", "2",
                         "--output", str(features)]) == 0
        capsys.readouterr()
        feature_flags = ["--features", str(features), *QUAD_FLAGS[7:]]
        for flags, message in (
            ([*feature_flags, "--l2-lambda", "nan"], "error: l2_lambda must lie in [0, inf)"),
            ([*feature_flags, "--holdout-fraction", "nan"], "error: holdout_fraction must lie in [0, 1)"),
            ([*QUAD_FLAGS, "--mu", "nan"], "error: mu must lie in (0, inf)"),
        ):
            assert cli.main(["run", *flags]) == 2
            assert capsys.readouterr().err.strip() == message

    def test_a_feature_row_whose_squared_norm_overflows_fails_naming_its_line(self, tmp_path, capsys):
        # Loaded, the row would make every metrics row read as a diverged run.
        features = tmp_path / "train.features"
        assert cli.main(["gen-task", "--examples", "400", "--dim", "4", "--classes", "2",
                         "--output", str(features)]) == 0
        capsys.readouterr()
        lines = features.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[57] = "0," + ",".join(["1e200"] * 4) + "\n"
        features.write_text("".join(lines), encoding="utf-8")
        assert cli.main(["run", "--features", str(features), *QUAD_FLAGS[7:]]) == 2
        assert capsys.readouterr().err.strip() == "error: line 58: squared norm overflows"

    def test_test_file_with_another_class_count_fails_cleanly(self, tmp_path, capsys):
        paths = []
        for classes in (2, 3):
            paths.append(str(tmp_path / f"c{classes}.features"))
            assert cli.main(["gen-task", "--examples", "40", "--dim", "3", "--classes", str(classes),
                             "--output", paths[-1]]) == 0
        capsys.readouterr()
        assert cli.main(["run", "--features", paths[0], "--test-features", paths[1], *QUAD_FLAGS[7:]]) == 2
        assert capsys.readouterr().err.strip() == "error: train and test class counts differ"

    def test_privacy_flags_resolve_the_noise_multiplier(self, capsys):
        code = cli.main([
            "run", *QUAD_FLAGS, "--epsilon", "5", "--delta", "1e-5", "--eval-every", "8",
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        expected = calibrate_sigma(5.0, 1e-5, 4, 8)
        assert f"sigma_g = {expected}" in stdout

    @pytest.mark.parametrize("command", ["run", "grid", "calibrate"])
    def test_an_infinite_epsilon_target_fails_naming_epsilon(self, command, capsys):
        # It used to run at the bottom of the calibration bracket and echo
        # epsilon = inf, or print sigma_g = 0.001 and delta = 0.0.
        target = ["--epsilon", "inf", "--delta", "1e-5"]
        argv = {"run": ["run", *QUAD_FLAGS, *target],
                "grid": ["grid", *QUAD_FLAGS, *target, "--etas", "0.2", "--clip_cgs", "1"],
                "calibrate": ["calibrate", *target, "--n", "4", "--T", "8"]}[command]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == "error: epsilon must lie in [0, inf)"
        assert captured.out == ""


class TestTaskFlags:
    GRID = ["--etas", "0.2", "--clip_cgs", "1"]

    @pytest.mark.parametrize("command", ["run", "grid"])
    def test_each_flag_defaults_to_its_binding_field(self, command):
        # A binding field with a default is the one place that default is stated.
        args = cli.build_parser().parse_args([command, *(self.GRID if command == "grid" else [])])
        for binding in (FeatureTaskBinding, QuadraticTaskBinding):
            for field in fields(binding):
                if field.default is not MISSING:
                    assert getattr(args, field.name) == field.default, field.name
        if command == "run":
            assert args.eval_every == ExperimentPlan.eval_every

    def test_a_flag_value_reaches_its_field(self, tmp_path):
        parse = cli.build_parser().parse_args
        binding = cli._resolve_binding(parse(["run", *QUAD_FLAGS, "--heterogeneity", "0.5", "--shard-size", "3"]))
        assert binding == QuadraticTaskBinding(d=6, mu=0.5, L=2.0, heterogeneity=0.5, shard_size=3)
        path = str(tmp_path / "train.features")
        binding = cli._resolve_binding(parse(["grid", "--features", path, "--holdout-fraction", "0.3",
                                              "--l2-lambda", "0.01", *self.GRID]))
        assert binding == FeatureTaskBinding(train_path=path, l2_lambda=0.01, holdout_fraction=0.3)
        binding = cli._resolve_binding(parse(["run", "--features", path, "--test-features", path]))
        assert binding == FeatureTaskBinding(train_path=path, test_path=path)


class TestCalibrateCommand:
    def test_two_line_key_value_output(self, capsys):
        code = cli.main(["calibrate", "--epsilon", "2", "--delta", "1e-5",
                         "--n", "20", "--T", "70"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        sigma = calibrate_sigma(2.0, 1e-5, 20, 70)
        assert lines == [
            f"sigma_g = {sigma!r}",
            f"delta = {composed_delta(2.0, sigma, 20, 70)!r}",
        ]

    def test_invalid_target_exits_with_an_error(self, capsys):
        code = cli.main(["calibrate", "--epsilon", "1", "--delta", "2",
                         "--n", "20", "--T", "70"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestGridCommand:
    def test_sweep_prints_cells_and_winner(self, capsys):
        code = cli.main([
            "grid", *QUAD_FLAGS,
            "--etas", "0.05,0.2", "--clip_cgs", "100",
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        config = FederatedConfig(n=4, T=8, eta=0.2, clip_cg=100.0, sigma_g=0.0, beta=0.9,
                                 rho=1.0, master_seed=3)
        plan = ExperimentPlan(config=config, binding=QuadraticTaskBinding(d=6, mu=0.5, L=2.0),
                              eval_every=8)
        best, sweep = grid_search(plan, GridSpec(etas=(0.05, 0.2), clip_cgs=(100.0,)))
        assert len(lines) == 7
        assert lines[0] == (
            f"eta=0.05 clip_cg=100.0 rho=1.0 beta=0.9 "
            f"accuracy={sweep[0]['mean_final_accuracy']!r} loss={sweep[0]['mean_final_loss']!r}"
        )
        assert lines[1].startswith("eta=0.2 clip_cg=100.0 rho=1.0 beta=0.9 accuracy=")
        assert lines[2:] == ["best:", f"eta = {best.eta!r}", "clip_cg = 100.0", "rho = 1.0", "beta = 0.9"]

    def test_a_grid_takes_no_eval_cadence(self, capsys):
        # A grid evaluates only each run's final round, so the flag is run's alone.
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["grid", *QUAD_FLAGS, "--etas", "0.2", "--clip_cgs", "1", "--eval-every", "8"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --eval-every 8" in captured.err
        assert captured.out == ""

    def test_bad_grid_list_fails_cleanly(self, capsys):
        code = cli.main([
            "grid", *QUAD_FLAGS, "--etas", "fast", "--clip_cgs", "1",
        ])
        assert code == 2
        assert "--etas expects comma-separated numbers" in capsys.readouterr().err
        assert cli.main(["grid", *QUAD_FLAGS, "--etas", ",", "--clip_cgs", "1"]) == 2
        assert "--etas expects at least one value" in capsys.readouterr().err


class TestVerifyCommand:
    def test_passing_suite_exits_zero_and_prints_pass(self, capsys, suite_runner):
        suite_runner.run("CLIP_NORM")  # warm the cache used elsewhere; cheap suite
        code = cli.main(["verify", "--suite", "CLIP_NORM"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "PASS" in stdout
        assert "FAIL" not in stdout

    def test_failing_suite_exits_one(self, capsys, monkeypatch):
        from fedsofim import verify as verify_module

        def fake(suite, seed=0):
            return verify_module.VerifyReport(
                "CLIP_NORM",
                (verify_module.CheckResult("stub", 2.0, 1.0, False, "forced"),),
            )

        monkeypatch.setattr(verify_module, "verify_theory", fake)
        code = cli.main(["verify", "--suite", "CLIP_NORM"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_suite_exits_two(self, capsys):
        code = cli.main(["verify", "--suite", "BOGUS"])
        assert code == 2
        assert "unknown suite" in capsys.readouterr().err


class TestGenTaskCommand:
    def test_generated_file_round_trips(self, tmp_path, capsys):
        out = tmp_path / "task.features"
        code = cli.main([
            "gen-task", "--examples", "60", "--dim", "5", "--classes", "3",
            "--condition", "50", "--seed", "4", "--output", str(out),
        ])
        assert code == 0
        dataset, num_classes = load_frozen_features(out)
        assert dataset.size == 60
        assert dataset.feature_dim == 5
        assert num_classes == 3
        assert "wrote 60 examples" in capsys.readouterr().out

    def test_settings_the_reader_would_reject_write_nothing(self, tmp_path, capsys):
        out = tmp_path / "task.features"
        base = ["gen-task", "--examples", "20", "--dim", "3", "--seed", "4", "--output", str(out)]
        for flags, message in (
            (["--classes", "1"], "error: num_classes must be >= 2"),
            (["--classes", "2", "--condition", "nan"], "error: condition must lie in [1, inf)"),
            (["--classes", "2", "--separation", "inf"], "error: separation must lie in (-inf, inf)"),
            (["--classes", "2", "--separation", "1e200"], "error: row 0: squared norm overflows"),
        ):
            assert cli.main([*base, *flags]) == 2
            assert capsys.readouterr().err.strip() == message
            assert not out.exists()

    def test_bad_generator_settings_are_named_together_and_write_nothing(self, tmp_path, capsys):
        out = tmp_path / "task.features"
        assert cli.main(["gen-task", "--examples", "20", "--dim", "0", "--classes", "1", "--condition", "inf",
                         "--separation", "nan", "--output", str(out)]) == 2
        assert capsys.readouterr().err.strip() == (
            "error: feature_dim must be >= 1; num_classes must be >= 2; condition must lie in [1, inf); "
            "separation must lie in (-inf, inf)")
        assert not out.exists()

    def test_generation_is_deterministic(self, tmp_path):
        out_a, out_b = tmp_path / "a.features", tmp_path / "b.features"
        args = ["gen-task", "--examples", "30", "--dim", "4", "--classes", "2",
                "--seed", "9"]
        assert cli.main([*args, "--output", str(out_a)]) == 0
        assert cli.main([*args, "--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_generated_task_trains_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "task.features"
        cli.main(["gen-task", "--examples", "80", "--dim", "4", "--classes", "2",
                  "--separation", "2.0", "--seed", "1", "--output", str(out)])
        capsys.readouterr()
        code = cli.main([
            "run", "--features", str(out),
            "--n", "4", "--T", "6", "--eta", "0.5", "--clip_cg", "5",
            "--sigma_g", "0", "--beta", "0.9", "--rho", "0.5", "--eval-every", "6",
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        final = stdout.strip().splitlines()[-1]
        accuracy = float(final.split(",")[2])
        assert 0.0 <= accuracy <= 1.0


class TestModuleEntryPoint:
    def test_python_dash_m_matches_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fedsofim", "calibrate",
             "--epsilon", "2.0", "--delta", "1e-5", "--n", "20", "--T", "70"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("sigma_g = ")


class TestOracleIsolation:
    def test_run_path_never_imports_the_dense_oracle(self, tmp_path):
        # A production run must finish without the dense test oracle (or the
        # verification module that pulls it in) ever entering sys.modules.
        script = textwrap.dedent("""
            import sys
            from fedsofim import cli
            code = cli.main([
                "run", "--quadratic", "--dim", "6", "--mu", "0.5", "--L", "2.0",
                "--n", "4", "--T", "5", "--eta", "0.2", "--clip_cg", "100",
                "--sigma_g", "1.0", "--beta", "0.9", "--rho", "1.0",
                "--eval-every", "5",
            ])
            assert code == 0
            offenders = [m for m in ("fedsofim.oracles", "fedsofim.verify", "fedsofim.cli.verify")
                         if m in sys.modules]
            if offenders:
                print("LOADED:" + ",".join(offenders))
                sys.exit(3)
            print("CLEAN")
        """)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=child_env(),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "CLEAN" in proc.stdout
