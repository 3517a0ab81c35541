"""CLI behavior: exit codes, report formats, determinism, golden values."""

import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spdalign import checks, cli
from spdalign.cli import main
from spdalign.io import (
    MODEL_HEADER, _stream_shapes, read_model, write_feature_container, write_model,
)
from spdalign.metrics import format_case
from spdalign.scatter import FeatureBlock
from spdalign.trainer import init_two_stream, synth_domain_pair
from test_io_config import write_zero_width_dump
from test_metrics import oracle_avg_top_kk, oracle_top_k, oracle_top_k_n, random_cases
from test_trainer import overflowing_target_model

REPO_ROOT = Path(__file__).resolve().parent.parent
MICRO_CASES = REPO_ROOT / "data" / "micro_cases.txt"

FAST_CONFIG = """
class_count = 4
input_dim = 6
source_per_class = 8
target_train_per_class = 3
target_test_per_class = 6
steps = 30
learning_rate = 0.2
feature_dim = 8
seed = 3
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(tmp_path, *argv, flags=()):
    """``python [flags] -m spdalign argv`` in ``tmp_path``, with this checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run([sys.executable, *flags, "-m", "spdalign", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.fixture
def corrupt(monkeypatch):
    """Negative control: ``corrupt(name)`` shifts the analytic side of that gradient component by 0.05."""
    original = checks._component

    def install(target):
        def component(name, trials, trial):
            if name == target:
                return original(name, trials, lambda: [(a + 0.05, n) for a, n in trial()])
            return original(name, trials, trial)

        monkeypatch.setattr(checks, "_component", component)

    return install


class TestGradcheckCommand:
    def test_pass_on_defaults_small(self, capsys):
        code, out, _ = run_cli(capsys, "gradcheck", "--trials", "3", "--seed", "1")
        assert code == 0
        assert "gradcheck: PASS" in out
        for component in ("distance/", "scatter/", "projected/", "mean-align", "objective/"):
            assert component in out

    def test_deterministic_report(self, capsys):
        code_a, out_a, _ = run_cli(capsys, "gradcheck", "--trials", "2", "--seed", "9",
                                   "--kind", "jbld")
        code_b, out_b, _ = run_cli(capsys, "gradcheck", "--trials", "2", "--seed", "9",
                                   "--kind", "jbld")
        assert (code_a, out_a) == (code_b, out_b)

    def test_corrupted_gradient_fails_naming_component(self, capsys, corrupt):
        corrupt("scatter/jbld")
        code, out, _ = run_cli(
            capsys, "gradcheck", "--trials", "2", "--seed", "1", "--kind", "jbld",
        )
        assert code == 2
        assert "gradcheck: FAIL (scatter/jbld)" in out

    def test_bad_kind_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "gradcheck", "--kind", "euclid")
        assert code == 1
        assert "euclid" in err

    @pytest.mark.parametrize("argv", [
        ("--trials", "0"),
        ("--trials", "-5"),
    ])
    def test_trial_count_below_one_is_validation_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "gradcheck", *argv)
        assert code == 1
        assert "PASS" not in out
        assert err.startswith("error: ") and "trial count must be at least 1" in err

    @pytest.mark.parametrize("component", [
        f"{stage}/{kind}" for kind in ("frobenius", "jbld", "airm")
        for stage in ("distance", "scatter", "projected", "objective")
    ] + ["mean-align"])
    def test_every_component_fails_when_corrupted(self, capsys, corrupt, component):
        kind = component.split("/")[1] if "/" in component else "frobenius"
        corrupt(component)
        code, out, _ = run_cli(capsys, "gradcheck", "--trials", "1", "--kind", kind)
        assert code == 2
        assert f"gradcheck: FAIL ({component})" in out


class TestInvarianceCommand:
    def test_pass(self, capsys):
        code, out, _ = run_cli(capsys, "invariance", "--trials", "10",
                               "--triples", "50", "--seed", "2")
        assert code == 0
        assert "invariance: PASS" in out

    @pytest.mark.parametrize("argv", [
        ("--trials", "0", "--triples", "0"),
        ("--trials", "1", "--triples", "-1"),
    ])
    def test_count_below_one_is_validation_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "invariance", *argv)
        assert code == 1
        assert "PASS" not in out
        assert err.startswith("error: ") and "trial count must be at least 1" in err


class TestBenchCommand:
    def test_degenerate_dimension_ratio_near_one(self, capsys):
        # d == n + nstar: both paths do the same-size work, ratio is O(1)
        code, out, _ = run_cli(capsys, "bench", "--d", "12", "--n", "8",
                               "--nstar", "4", "--reps", "5", "--kind", "jbld")
        assert code == 0
        ratio = float([l for l in out.splitlines() if l.startswith("speedup")][0].split()[1].rstrip("x"))
        assert 0.01 < ratio < 100.0

    def test_projected_faster_at_moderate_scale(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--d", "512", "--n", "12",
                               "--nstar", "4", "--reps", "3", "--kind", "jbld")
        assert code == 0
        ratio = float([l for l in out.splitlines() if l.startswith("speedup")][0].split()[1].rstrip("x"))
        assert ratio > 1.0

    def test_reps_validation(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--reps", "2", "--d", "8",
                               "--n", "2", "--nstar", "2")
        assert code == 1
        assert "reps" in err

    def test_rep_count_does_not_change_ordering(self, capsys):
        def speedup(reps):
            _, out, _ = run_cli(capsys, "bench", "--d", "256", "--n", "10",
                                "--nstar", "4", "--reps", str(reps), "--kind", "jbld")
            return float([l for l in out.splitlines() if l.startswith("speedup")][0]
                         .split()[1].rstrip("x"))

        assert speedup(3) > 1.0
        assert speedup(10) > 1.0

    @pytest.mark.parametrize("argv, kind", [((), "jbld"), (("--kind", "frobenius"), "frobenius")])
    def test_runs_the_one_kind_given(self, capsys, argv, kind):
        code, out, _ = run_cli(capsys, "bench", "--d", "8", "--n", "3", "--nstar", "2", *argv)
        assert code == 0
        assert out.startswith(f"kind={kind} d=8 ")

    def test_second_kind_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "bench", "--d", "8", "--n", "3", "--nstar", "2",
                                 "--kind", "frobenius", "--kind", "airm")
        assert code == 1
        assert out == ""
        assert "error: --kind may be given only once" in err


class TestTrainCommand:
    def test_artifacts_and_determinism(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(FAST_CONFIG)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        code_a, _, _ = run_cli(capsys, "train", "--config", str(config), "--out", str(out_a))
        code_b, _, _ = run_cli(capsys, "train", "--config", str(config), "--out", str(out_b))
        assert code_a == 0 and code_b == 0
        for name in ("model.bin", "loss_history.csv", "eval_report.csv"):
            assert (out_a / name).is_file()
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        header = (out_a / "loss_history.csv").read_text().splitlines()[0]
        assert header == "step,loss_total,loss_ce_s,loss_ce_t,loss_prox,loss_scatter,loss_mean"
        rows = (out_a / "loss_history.csv").read_text().splitlines()
        assert len(rows) == 1 + 30

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("sigma1 = -2\n")
        code, _, err = run_cli(capsys, "train", "--config", str(config), "--out", str(tmp_path / "o"))
        assert code == 1
        assert "sigma1" in err

    @pytest.mark.parametrize("line", ["tau = nan", "noise = nan", "eta = inf", "seed = -1"])
    def test_rejected_value_exit_code_names_line(self, tmp_path, capsys, line):
        config = tmp_path / "bad.cfg"
        config.write_text(f"steps = 2\n{line}\n")
        code, _, err = run_cli(capsys, "train", "--config", str(config), "--out", str(tmp_path / "o"))
        assert code == 1
        assert err.startswith("error: line 2: ")
        assert not (tmp_path / "o").exists()

    def test_empty_target_block_exit_code(self, tmp_path, capsys, monkeypatch):
        import spdalign.cli as cli

        def no_target_columns(spec):
            source, target_train, target_test = synth_domain_pair(spec)
            empty = FeatureBlock(np.empty((spec.input_dim, 0)), np.empty(0, dtype=int))
            return source, empty, target_test

        monkeypatch.setattr(cli, "synth_domain_pair", no_target_columns)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_CONFIG, encoding="utf-8")
        code, _, err = run_cli(capsys, "train", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 1
        assert "target block has no columns" in err

    def test_singular_scatter_exit_code(self, tmp_path, capsys, monkeypatch):
        import spdalign.cli as cli

        def singular_class_2(spec):
            # Class 2's source inputs alternate between two columns scaled by 1e6: its
            # scatter is singular in every batch, with rounding far beyond eps = 1e-6.
            source, target_train, target_test = synth_domain_pair(spec)
            columns = source.columns.copy()
            where = np.flatnonzero(source.labels == 2)
            columns[:, where] = 1e6 * columns[:, where[np.arange(where.size) % 2]]
            return FeatureBlock(columns, source.labels), target_train, target_test

        monkeypatch.setattr(cli, "synth_domain_pair", singular_class_2)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_CONFIG + "encoder = linear\ntau = 1e14\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "train", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 2
        assert err.startswith("numerical error: step 1: class 2: ")

    def test_config_tau_is_the_dumped_cap(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FAST_CONFIG + "tau = 3.5\n", encoding="utf-8")
        code, _, _ = run_cli(capsys, "train", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 0
        assert read_model(tmp_path / "o" / "model.bin").feature_cap == 3.5

    # A linear encoder at this rate overflows W x itself; the cap then turns inf into NaN.
    @pytest.mark.parametrize("flags, config, message", [
        ((), "learning_rate = 1000\n", "loss became non-finite at step 44"),
        (("-W", "error"), "learning_rate = 1000\n", "loss became non-finite at step 44"),
        ((), "encoder = linear\nlearning_rate = 1e306\n", "features became non-finite at step 2"),
        (("-W", "error"), "encoder = linear\nlearning_rate = 1e306\n",
         "features became non-finite at step 2"),
    ], ids=["default", "warnings-as-errors", "linear-default", "linear-warnings-as-errors"])
    def test_divergence_exit_code_without_warnings(self, tmp_path, flags, config, message):
        (tmp_path / "run.cfg").write_text(config, encoding="utf-8")
        done = run_module(tmp_path, "train", "--config", "run.cfg", "--out", "o", flags=flags)
        assert done.returncode == 2
        assert done.stderr == f"numerical error: {message}\n"

    @pytest.mark.parametrize("flags", [(), ("-W", "error")], ids=["default", "warnings-as-errors"])
    @pytest.mark.parametrize("field", ["scale", "noise"])
    def test_overflowing_shift_exit_code_without_warnings(self, tmp_path, field, flags):
        (tmp_path / "run.cfg").write_text(f"{field} = 1e308\nsteps = 2\n", encoding="utf-8")
        done = run_module(tmp_path, "train", "--config", "run.cfg", "--out", "o", flags=flags)
        assert (done.returncode, done.stdout) == (1, "")
        shift = {"scale": "scale=1e+308, noise=0.05", "noise": "scale=1.0, noise=1e+308"}[field]
        assert done.stderr == (f"error: DomainShift(rotation_deg=30.0, translation=1.0, {shift}) "
                               "overflows float64 on the target draws\n")

    @pytest.mark.parametrize("flags", [(), ("-W", "error")], ids=["default", "warnings-as-errors"])
    def test_eval_overflow_exit_code_without_warnings(self, tmp_path, flags):
        model, test = overflowing_target_model()
        write_model(tmp_path / "model.bin", model)
        write_feature_container(tmp_path / "test.bin", test, class_count=20)
        done = run_module(tmp_path, "eval", "model.bin", "test.bin", flags=flags)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (
            "numerical error: target logits are non-finite: the target stream overflows on the test columns\n"
        )

    def test_eval_command_roundtrip(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(FAST_CONFIG)
        out = tmp_path / "run"
        assert run_cli(capsys, "train", "--config", str(config), "--out", str(out))[0] == 0

        rng = np.random.default_rng(0)
        block = FeatureBlock(rng.normal(size=(6, 12)), rng.integers(0, 4, size=12))
        features = tmp_path / "test.bin"
        write_feature_container(features, block, class_count=4)
        code, text, _ = run_cli(capsys, "eval", str(out / "model.bin"), str(features))
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "scope,top1,count"
        assert lines[1].startswith("overall,")

    def test_eval_class_count_mismatch(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(FAST_CONFIG)
        out = tmp_path / "run"
        run_cli(capsys, "train", "--config", str(config), "--out", str(out))
        rng = np.random.default_rng(0)
        block = FeatureBlock(rng.normal(size=(6, 4)), np.zeros(4, dtype=int))
        features = tmp_path / "test.bin"
        write_feature_container(features, block, class_count=9)
        code, _, err = run_cli(capsys, "eval", str(out / "model.bin"), str(features))
        assert code == 1
        assert "classes" in err

    def _eval_files(self, tmp_path, model_dim, feature_dim):
        model = tmp_path / "model.bin"
        write_model(model, init_two_stream(model_dim, 8, 4, seed=0))
        features = tmp_path / "test.bin"
        block = FeatureBlock(np.ones((feature_dim, 3)), np.zeros(3, dtype=int))
        write_feature_container(features, block, class_count=4)
        return model, features

    def test_eval_feature_dimension_mismatch(self, tmp_path, capsys):
        model, features = self._eval_files(tmp_path, model_dim=16, feature_dim=8)
        code, _, err = run_cli(capsys, "eval", str(model), str(features))
        assert code == 1
        assert "dimension 8" in err and "takes 16" in err

    def test_eval_out_writes_the_stdout_report(self, tmp_path, capsys):
        model, features = self._eval_files(tmp_path, model_dim=6, feature_dim=6)
        code, report, _ = run_cli(capsys, "eval", str(model), str(features))
        assert code == 0
        out = tmp_path / "reports"
        code, text, _ = run_cli(capsys, "eval", str(model), str(features), "--out", str(out))
        assert code == 0
        assert text == f"report in {out}\n"
        assert (out / "eval_report.csv").read_text(encoding="utf-8") == report
        # An empty --out is no directory: the report goes to stdout.
        assert run_cli(capsys, "eval", str(model), str(features), "--out", "") == (0, report, "")

    def test_eval_unsupported_model_version(self, tmp_path, capsys):
        model, features = self._eval_files(tmp_path, model_dim=6, feature_dim=6)
        raw = bytearray(model.read_bytes())
        struct.pack_into("<I", raw, 8, 2)
        model.write_bytes(raw)
        code, out, err = run_cli(capsys, "eval", str(model), str(features))
        assert code == 1
        assert out == ""
        assert err == f"error: {model}: unsupported model version 2\n"

    def test_eval_truncated_model_dump(self, tmp_path, capsys):
        model, features = self._eval_files(tmp_path, model_dim=6, feature_dim=6)
        model.write_bytes(model.read_bytes()[:30])
        code, _, err = run_cli(capsys, "eval", str(model), str(features))
        assert code == 1
        assert "truncated model header" in err

    @pytest.mark.parametrize("cap, rule", [
        (-1.0, "nonnegative, got -1.0"), (float("nan"), "finite, got nan"),
    ])
    def test_eval_bad_feature_cap_in_model_dump(self, tmp_path, capsys, cap, rule):
        model, features = self._eval_files(tmp_path, model_dim=6, feature_dim=6)
        raw = bytearray(model.read_bytes())
        *fields, _, _ = MODEL_HEADER.unpack_from(raw)
        MODEL_HEADER.pack_into(raw, 0, *fields, 1, cap)
        model.write_bytes(raw)
        code, _, err = run_cli(capsys, "eval", str(model), str(features))
        assert code == 1
        assert f"error: feature_cap must be {rule}" in err

    def test_eval_non_finite_encoder_weight_in_model_dump(self, tmp_path, capsys):
        # The first target encoder weight follows the source stream's four arrays.
        model, features = self._eval_files(tmp_path, model_dim=6, feature_dim=6)
        raw = bytearray(model.read_bytes())
        source_values = sum(rows * cols for rows, cols in _stream_shapes(6, 8, 4))
        struct.pack_into("<d", raw, MODEL_HEADER.size + 8 * source_values, float("nan"))
        model.write_bytes(raw)
        assert np.isnan(np.frombuffer(raw, "<f8", offset=MODEL_HEADER.size)).sum() == 1
        code, out, err = run_cli(capsys, "eval", str(model), str(features))
        assert code == 1
        assert out == ""
        assert err == "error: encoder parameters contain non-finite entries\n"

    def test_eval_zero_width_model_dump(self, tmp_path, capsys):
        # Such a model once scored "overall,0.500000,8" and exited 0.
        model, features = tmp_path / "model.bin", tmp_path / "test.bin"
        write_zero_width_dump(model)
        write_feature_container(features, FeatureBlock(np.ones((3, 8)), np.arange(8) % 2), class_count=2)
        code, out, err = run_cli(capsys, "eval", str(model), str(features))
        assert code == 1
        assert out == ""
        assert err == "error: encoder feature_dim must be at least 1\n"


MICRO_METRICS_EXPECTED = """\
measure,k,n,value
top_k,1,,0.333333
top_k,2,,0.666667
top_k,3,,1.000000
top_k_n,1,1,0.333333
top_k_n,1,2,0.333333
top_k_n,1,3,0.666667
top_k_n,2,1,0.666667
top_k_n,2,2,0.666667
top_k_n,2,3,1.000000
top_k_n,3,1,1.000000
top_k_n,3,2,1.000000
top_k_n,3,3,1.000000
avg_top_kk,,,0.666667
"""

MICRO_BREAKDOWN_EXPECTED = """\
factor,count,top_1,avg_top_kk
all,3,0.333333,0.666667
blr,2,0.500000,0.833333
ocl,1,0.000000,0.666667
blr+ocl,1,0.000000,0.666667
"""


def oracle_tables(cases, k_max):
    """metrics.csv and breakdown.csv text formatted from the brute-force oracles."""
    lines = ["measure,k,n,value"]
    for k in range(1, k_max + 1):
        lines.append(f"top_k,{k},,{oracle_top_k(cases, k):.6f}")
    for k in range(1, k_max + 1):
        for n in range(1, k_max + 1):
            lines.append(f"top_k_n,{k},{n},{oracle_top_k_n(cases, k, n):.6f}")
    lines.append(f"avg_top_kk,,,{oracle_avg_top_kk(cases, k_max):.6f}")
    tags = sorted({t for c in cases for t in c.factors})
    groups = [("all", list(cases))]
    groups += [(t, [c for c in cases if t in c.factors]) for t in tags]
    pairs = [(a, b) for a in tags for b in tags if a < b]
    groups += [(f"{a}+{b}", [c for c in cases if a in c.factors and b in c.factors])
               for a, b in pairs]
    groups = [(tag, subset) for tag, subset in groups if subset]
    lines.append("factor,count,top_1,avg_top_kk")
    for tag, subset in groups:
        lines.append(f"{tag},{len(subset)},{oracle_top_k(subset, 1):.6f},"
                     f"{oracle_avg_top_kk(subset, k_max):.6f}")
    return "\n".join(lines) + "\n"


class TestMetricsCommand:
    def test_micro_file_golden_grid(self, capsys):
        # grid hand-computed from the three shipped cases
        code, out, _ = run_cli(capsys, "metrics", str(MICRO_CASES), "--kmax", "3")
        assert code == 0
        assert out == MICRO_METRICS_EXPECTED

    def test_micro_file_breakdown(self, capsys):
        code, out, _ = run_cli(capsys, "metrics", str(MICRO_CASES), "--kmax", "3",
                               "--breakdown")
        assert code == 0
        assert out == MICRO_METRICS_EXPECTED + MICRO_BREAKDOWN_EXPECTED

    def test_all_perfect_grid(self, tmp_path, capsys):
        path = tmp_path / "cases.txt"
        path.write_text("".join(
            f"pred:{i},{i+50},{i+60}|truth:{i}\n" for i in range(6)
        ))
        code, out, _ = run_cli(capsys, "metrics", str(path), "--kmax", "3")
        assert code == 0
        for line in out.splitlines()[1:]:
            assert line.endswith("1.000000")

    def test_untagged_breakdown_single_all_row(self, tmp_path, capsys):
        path = tmp_path / "cases.txt"
        path.write_text("pred:1,2,3|truth:1\n")
        code, out, _ = run_cli(capsys, "metrics", str(path), "--kmax", "3", "--breakdown")
        assert code == 0
        breakdown_lines = out.split("factor,count,top_1,avg_top_kk\n")[1].strip().splitlines()
        assert len(breakdown_lines) == 1
        assert breakdown_lines[0].startswith("all,1,")

    def test_malformed_line_reports_number(self, tmp_path, capsys):
        path = tmp_path / "cases.txt"
        path.write_text("pred:1,2|truth:1\npred:oops|truth:1\n")
        code, _, err = run_cli(capsys, "metrics", str(path))
        assert code == 1
        assert "line 2" in err

    def test_plus_in_factor_tag_reports_line(self, tmp_path, capsys):
        # A tag "a+b" would share its breakdown row name with the pair of "a" and "b".
        path = tmp_path / "cases.txt"
        path.write_text("pred:1,2|truth:1|factors:a,b\npred:1,2|truth:2|factors:a+b\n"
                        "pred:2,1|truth:2|factors:a\n")
        code, out, err = run_cli(capsys, "metrics", str(path), "--kmax", "2", "--breakdown")
        assert code == 1 and out == ""
        assert err == (f"error: {path}, line 2: factor tag 'a+b' is empty or holds "
                       "',', '|', '+' or whitespace\n")

    def test_kmax_exceeding_predictions(self, tmp_path, capsys):
        path = tmp_path / "cases.txt"
        path.write_text("pred:1,2,3,4,5|truth:1\npred:1,2|truth:1\n")
        code, _, err = run_cli(capsys, "metrics", str(path), "--kmax", "5", "--breakdown")
        assert code == 1
        # names the first k of the sweep that fails, not k_max
        assert err == "error: k=3 exceeds the shortest prediction list (2)\n"

    def test_kmax_zero(self, capsys):
        code, _, err = run_cli(capsys, "metrics", str(MICRO_CASES), "--kmax", "0")
        assert code == 1
        assert err == "error: k_max must be at least 1, got 0\n"

    def test_blank_case_file(self, tmp_path, capsys):
        path = tmp_path / "cases.txt"
        path.write_text("\n  \n\n")
        code, _, err = run_cli(capsys, "metrics", str(path), "--breakdown")
        assert code == 1
        assert err == "error: no cases to evaluate\n"

    def test_repeated_segment_reports_line(self, tmp_path, capsys):
        path = tmp_path / "cases.txt"
        path.write_text("pred:1,2|truth:1\npred:1,2|truth:1|pred:7,8,9\n")
        code, _, err = run_cli(capsys, "metrics", str(path), "--kmax", "2")
        assert code == 1
        assert "line 2: repeated segment 'pred'" in err

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_ragged_corpus_equals_oracle_tables(self, tmp_path, capsys, seed):
        # prediction lists of 5..10 ids, truth lists of 1..6, 13 tags at 15 % each
        cases = random_cases(np.random.default_rng(seed), 400)
        path = tmp_path / "cases.txt"
        path.write_text("".join(format_case(c) + "\n" for c in cases))
        code, out, _ = run_cli(capsys, "metrics", str(path), "--kmax", "5", "--breakdown")
        assert code == 0
        expected = oracle_tables(cases, 5)
        assert any("+" in line.split(",")[0] for line in expected.splitlines()), "no pair rows"
        assert out.splitlines() == expected.splitlines()

    def test_output_directory_mode(self, tmp_path, capsys):
        out_dir = tmp_path / "tables"
        code, _, _ = run_cli(capsys, "metrics", str(MICRO_CASES), "--kmax", "3",
                             "--breakdown", "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "metrics.csv").read_text() == MICRO_METRICS_EXPECTED
        assert (out_dir / "breakdown.csv").read_text() == MICRO_BREAKDOWN_EXPECTED

    def test_empty_out_writes_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "metrics", str(MICRO_CASES), "--kmax", "3", "--out", "")
        assert (code, out) == (0, MICRO_METRICS_EXPECTED)


class TestUnreadableFiles:
    """A missing or undecodable input file is a validation failure, not a traceback."""

    @pytest.mark.parametrize("argv", [
        ["metrics", "missing.txt"],
        ["metrics", "latin1.txt"],
        ["eval", "missing.bin", "missing-features.bin"],
        ["train", "--config", "missing.cfg", "--out", "out"],
        ["train", "--config", "latin1.cfg", "--out", "out"],
    ], ids=["metrics-missing", "metrics-not-utf8", "eval-missing-model",
            "train-missing-config", "train-not-utf8-config"])
    def test_exit_one_without_traceback(self, tmp_path, argv):
        (tmp_path / "latin1.txt").write_bytes(b"pred:1,2|truth:1|factors:caf\xe9\n")
        (tmp_path / "latin1.cfg").write_bytes(b"# caf\xe9\nsteps = 2\n")
        done = run_module(tmp_path, *argv)
        assert done.returncode == 1
        assert done.stderr.startswith("error: ")
        assert "Traceback" not in done.stderr
        assert not (tmp_path / "out").exists()


class TestUsageErrors:
    @pytest.mark.parametrize("command", ["gradcheck", "invariance", "bench"])
    def test_negative_seed_is_usage_error(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--seed", "-1")
        assert code == 1
        assert out == ""
        assert "--seed: needs a nonnegative integer, got '-1'" in err

    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_missing_required_flag(self, capsys):
        code, _, _ = run_cli(capsys, "train", "--out", "/tmp/x")
        assert code == 1


class TestParserReuse:
    def test_commands_in_one_process_match_each_run_alone(self, tmp_path, capsys, monkeypatch):
        config = tmp_path / "run.cfg"
        config.write_text(FAST_CONFIG)
        run = tmp_path / "run"
        features = tmp_path / "test.bin"
        rng = np.random.default_rng(0)
        write_feature_container(features, FeatureBlock(rng.normal(size=(6, 12)),
                                                       rng.integers(0, 4, size=12)), class_count=4)
        commands = [
            ["train", "--config", str(config), "--out", str(run)],
            ["bench", "--kind", "jbld", "--kind", "airm"],
            ["eval", str(run / "model.bin"), str(features)],
            ["metrics", str(MICRO_CASES), "--kmax", "3", "--breakdown"],
        ]
        alone = []
        for argv in commands:
            done = run_module(tmp_path, *argv)
            alone.append((done.returncode, done.stdout, done.stderr))
        assert [code for code, _, _ in alone] == [0, 1, 0, 0]

        builds = []
        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
        cli._shared_parser.cache_clear()
        together = [(main(argv), *capsys.readouterr()) for argv in commands]
        assert together == alone
        assert len(builds) == 1
