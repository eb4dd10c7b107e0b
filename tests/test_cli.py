import json
import os

import pytest

from unfoldgnn.cli import main
from unfoldgnn.data import SbmSpec, save_dataset, sbm_generate


@pytest.fixture
def fixture_dir(tmp_path):
    ds = sbm_generate(SbmSpec(blocks=(15, 15), p_in=0.4, p_out=0.05,
                              separation=2.0, seed=0))
    path = tmp_path / "data"
    save_dataset(ds, path)
    return str(path)


def run_cli(args):
    return main(args)


class TestTrain:
    def test_basic_run_exit_zero(self, fixture_dir, tmp_path, capsys):
        out = str(tmp_path / "run")
        code = run_cli(["train", "--dataset", fixture_dir, "--backend", "unrolled",
                        "--K", "16", "--rho", "identity", "--epochs", "30",
                        "--out", out, "--seed", "0"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "test_accuracy=" in stdout
        assert os.path.exists(os.path.join(out, "metrics.csv"))
        assert os.path.exists(os.path.join(out, "checkpoint", "manifest.txt"))

    def test_bad_key_exit_two(self, fixture_dir, tmp_path, capsys):
        code = run_cli(["train", "--dataset", fixture_dir,
                        "--set", "unfold.bogus=1", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "unfold.bogus" in capsys.readouterr().err

    def test_divergence_exit_three(self, fixture_dir, tmp_path):
        code = run_cli(["train", "--dataset", fixture_dir, "--lr", "1e6",
                        "--epochs", "40", "--K", "8", "--lam", "4.0",
                        "--set", "unfold.alpha=0.9",
                        "--out", str(tmp_path / "o"), "--seed", "0"])
        assert code == 3

    def test_config_file_and_flag_precedence(self, fixture_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("train.epochs=5\nunfold.steps=4\n# comment\n")
        out = str(tmp_path / "o")
        code = run_cli(["train", "--dataset", fixture_dir, "--config", str(cfg),
                        "--epochs", "8", "--out", out])
        assert code == 0
        lines = (tmp_path / "o" / "metrics.csv").read_text().splitlines()
        assert len(lines) == 2 + 8  # flag --epochs wins over the file value

    def test_missing_dataset_exit_two(self, tmp_path):
        code = run_cli(["train", "--dataset", str(tmp_path / "nope"),
                        "--out", str(tmp_path / "o")])
        assert code == 2

    def test_non_finite_features_exit_two(self, fixture_dir, tmp_path, capsys):
        features = os.path.join(fixture_dir, "features.csv")
        with open(features) as fh:
            rows = fh.read().splitlines()
        rows[3] = ",".join(["nan"] * len(rows[3].split(",")))
        with open(features, "w") as fh:
            fh.write("\n".join(rows) + "\n")
        code = run_cli(["train", "--dataset", fixture_dir, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "node 3 are not all finite" in capsys.readouterr().err

    def test_seed_reproducibility(self, fixture_dir, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (out1, out2):
            assert run_cli(["train", "--dataset", fixture_dir, "--epochs", "10",
                            "--out", out, "--seed", "3"]) == 0
        m1 = (tmp_path / "a" / "metrics.csv").read_text()
        m2 = (tmp_path / "b" / "metrics.csv").read_text()
        assert m1 == m2

    @pytest.mark.parametrize("backend", ["implicit", "eignn"])
    def test_other_backends_train(self, backend, fixture_dir, tmp_path, capsys):
        out = str(tmp_path / backend)
        code = run_cli(["train", "--dataset", fixture_dir, "--backend", backend,
                        "--epochs", "10", "--out", out,
                        "--set", "model.embed_dim=6"])
        assert code == 0
        assert "test_accuracy=" in capsys.readouterr().out


class TestPropagate:
    def test_writes_trace(self, fixture_dir, tmp_path, capsys):
        out = str(tmp_path / "o")
        code = run_cli(["propagate", "--dataset", fixture_dir, "--K", "8",
                        "--rho", "log:eps=1", "--set", "unfold.attention=sandwich",
                        "--out", out])
        assert code == 0
        assert "final_energy=" in capsys.readouterr().out
        trace = (tmp_path / "o" / "trace.csv").read_text().splitlines()
        assert trace[0].startswith("# schema: propagation-trace")
        assert len(trace) == 2 + 9
        gammas = (tmp_path / "o" / "gammas.csv").read_text().splitlines()
        assert gammas[0].startswith("# schema: gamma-trace")


@pytest.mark.parametrize("args, message", [
    (["train", "--K", "4", "--set", "unfold.attention=9"], "attention indices"),
    (["train", "--set", "unfold.alpha=-0.1"], "alpha must be positive"),
    (["train", "--set", "unfold.variant=bogus"], "unknown variant"),
    (["train", "--set", "implicit.sigma=bogus"], "unknown phi config"),
    (["propagate", "--set", "unfold.variant=bogus"], "unknown variant"),
    (["propagate", "--set", "unfold.rho=bogus"], "unknown rho config"),
    (["propagate", "--lam", "-1"], "lam must be nonnegative"),
    (["propagate", "--K", "4", "--set", "unfold.attention=4"], "attention indices"),
    (["fixedpoint", "--set", "unfold.kind=bogus"], "unknown laplacian kind"),
    (["fixedpoint", "--set", "implicit.margin=1.5"], "contraction_margin"),
    (["fixedpoint", "--set", "implicit.max_iters=0"], "max_iters must be at least 1"),
    (["train", "--backend", "implicit", "--set", "implicit.max_iters=0"],
     "fp_max_iters must be at least 1"),
    (["train", "--backend", "implicit", "--set", "implicit.tol=0"], "fp_tol must be positive"),
    (["train", "--set", "model.embed_dim=0"], "embed_dim must be at least 1"),
    (["train", "--set", "model.predictor=mlp", "--set", "model.hidden=4,0"],
     "hidden widths must be at least 1"),
    (["train", "--backend", "implicit", "--set", "implicit.margin=1.5"], "contraction_margin"),
    (["train", "--backend", "eignn", "--set", "eignn.mu=1.5"], "mu must lie in [0, 1)"),
    (["train", "--backend", "eignn", "--set", "eignn.eps_f=0"], "eps_f must be positive"),
    (["train", "--set", "model.predictor=mlp", "--set", "model.hidden=4",
      "--set", "model.dropout=1.0"], "dropout must lie in [0, 1)"),
    (["train", "--set", "model.dropout=-0.5"], "dropout must lie in [0, 1)"),
    (["train", "--set", "train.epochs=-1"], "epochs must be nonnegative"),
    (["train", "--set", "train.lr=-1"], "lr must be nonnegative"),
])
def test_bad_settings_exit_two(args, message, fixture_dir, tmp_path, capsys):
    code = run_cli([*args, "--dataset", fixture_dir, "--out", str(tmp_path / "o")])
    assert code == 2
    assert message in capsys.readouterr().err


class TestFixedPoint:
    def test_solves_and_reports(self, fixture_dir, tmp_path, capsys):
        out = str(tmp_path / "o")
        code = run_cli(["fixedpoint", "--dataset", fixture_dir, "--out", out,
                        "--set", "implicit.sigma=relu"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "iterations=" in stdout and "contraction=" in stdout
        assert os.path.exists(os.path.join(out, "fixedpoint.csv"))


class TestVerify:
    @pytest.mark.parametrize("suite", ["descent", "equivalence"])
    def test_suites_pass(self, suite, tmp_path, capsys):
        report = str(tmp_path / "report.jsonl")
        code = run_cli(["verify", "--suite", suite, "--trials", "6",
                        "--report", report, "--out", str(tmp_path / "o")])
        assert code == 0
        with open(report) as fh:
            records = [json.loads(line) for line in fh]
        assert records and all(r["ok"] for r in records)

    def test_injected_failure_exit_one(self, tmp_path, capsys):
        code = run_cli(["verify", "--suite", "descent", "--trials", "3",
                        "--inject-failure", "--report", str(tmp_path / "r.jsonl"),
                        "--out", str(tmp_path / "o")])
        assert code == 1
        assert "FAIL" in capsys.readouterr().err

    def test_report_is_json_lines(self, tmp_path):
        report = str(tmp_path / "report.jsonl")
        run_cli(["verify", "--suite", "convergence", "--trials", "2",
                 "--report", report, "--out", str(tmp_path / "o")])
        with open(report) as fh:
            for line in fh:
                json.loads(line)


class TestExperimentAndBench:
    def test_experiment_runs(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        code = run_cli(["experiment", "--name", "closed-form-convergence",
                        "--out", out])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert float(summary["final_rel_error"]) < 1e-6

    def test_bench_scaling_and_csv(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        code = run_cli(["bench", "--sizes", "400:6:4:8;400:6:4:16;800:6:4:8",
                        "--out", out])
        assert code == 0
        stdout = capsys.readouterr().out
        lines = [l for l in stdout.splitlines() if l.startswith("n=")]
        flops = [int(l.split("edge_flops=")[1].split()[0]) for l in lines]
        assert flops[1] == pytest.approx(2 * flops[0], rel=0.05)
        assert os.path.exists(os.path.join(out, "bench_time.csv"))

    def test_artifacts_env_var(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "via_env"
        monkeypatch.setenv("UNFOLD_ARTIFACTS", str(target))
        code = run_cli(["experiment", "--name", "closed-form-convergence"])
        assert code == 0
        assert (target / "closed_form_convergence.csv").exists()


class TestHelp:
    def test_help_lists_config_keys(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--help"])
        text = capsys.readouterr().out
        assert "unfold.steps" in text and "train.lr" in text
        assert "[key: unfold.steps]" in text
