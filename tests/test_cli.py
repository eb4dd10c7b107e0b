import argparse
import dataclasses
import inspect
import json
import os

import pytest

from unfoldgnn import cli
from unfoldgnn.cli import KEYS, main
from unfoldgnn.energy import _CONFIG_NAMES, _PHI_FACTORIES, _RHO_FACTORIES
from unfoldgnn.data import SbmSpec, save_dataset, sbm_generate
from unfoldgnn.experiments import bench_time


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

    @pytest.mark.parametrize("name", ["edges.tsv", "features.csv", "labels.csv", "masks.csv"])
    def test_dataset_file_that_is_a_directory_exits_two(self, name, fixture_dir, tmp_path,
                                                        capsys):
        path = os.path.join(fixture_dir, name)
        os.remove(path)
        os.mkdir(path)
        code = run_cli(["train", "--dataset", fixture_dir, "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"error: cannot read {path}: Is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("backend", ["unrolled", "implicit", "eignn"])
    def test_divergence_writes_metrics_and_exits_three(self, backend, fixture_dir, tmp_path,
                                                       capsys):
        out = tmp_path / "o"
        code = run_cli(["train", "--dataset", fixture_dir, "--backend", backend,
                        "--lr", "1e200", "--epochs", "10", "--out", str(out)])
        assert code == 3
        assert "training diverged" in capsys.readouterr().err
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0].startswith("# schema: train-metrics") and 2 < len(lines) < 2 + 10

    def test_first_epoch_divergence_writes_metrics_and_exits_three(self, tmp_path, capsys):
        # the generated SBM's first epoch diverges at step 5, so no epoch finishes
        out = tmp_path / "o"
        code = run_cli(["train", "--set", "unfold.alpha=50", "--epochs", "3", "--out", str(out)])
        assert code == 3
        assert "training diverged" in capsys.readouterr().err
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0].startswith("# schema: train-metrics") and len(lines) == 2
        assert (out / "checkpoint" / "manifest.txt").exists()

    def test_empty_training_mask_exits_two(self, fixture_dir, tmp_path, capsys):
        masks = os.path.join(fixture_dir, "masks.csv")
        with open(masks) as fh:
            rows = fh.read().splitlines()
        rows = [row if row.startswith("#") else "0" + row[1:] for row in rows]
        with open(masks, "w") as fh:
            fh.write("\n".join(rows) + "\n")
        code = run_cli(["train", "--dataset", fixture_dir, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error: the training mask is empty" in capsys.readouterr().err

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

    def test_auto_step_holds_for_weights_below_one(self, tmp_path, capsys):
        # log:eps=4 weighs every edge at most 1/4, but Gamma is ones until a
        # refresh; a step sized for 1/4 diverged at step 28 on the generated graph
        code = run_cli(["propagate", "--K", "60", "--rho", "log:eps=4",
                        "--set", "unfold.kind=combinatorial", "--out", str(tmp_path / "o")])
        assert code == 0
        assert "final_energy=" in capsys.readouterr().out

    def test_divergence_exit_three(self, tmp_path, capsys):
        code = run_cli(["propagate", "--set", "unfold.alpha=50", "--K", "30",
                        "--out", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err.startswith("divergence: ")

    @pytest.mark.parametrize("alpha", [[], ["--set", "unfold.alpha=auto_irls"]],
                             ids=["auto", "auto_irls"])
    def test_cosine_reweighting_takes_a_user_alpha_only(self, alpha, tmp_path, capsys):
        # cosine rho is unbounded below: on the generated graph this plan ran
        # into the divergence guard (exit 3) at step 15 under auto and 51 under
        # auto_irls, with the recorded energy falling at every step
        code = run_cli(["propagate", "--K", "60", "--rho", "cosine",
                        "--set", "unfold.kind=combinatorial", "--set", "unfold.attention=0",
                        *alpha, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "only a user-given alpha is accepted" in capsys.readouterr().err


BAD_SETTINGS = [
    (["train", "--K", "4", "--set", "unfold.attention=9"], "attention indices"),
    (["train", "--set", "unfold.alpha=-0.1"], "alpha must be positive"),
    (["train", "--set", "unfold.alpha=nan"], "alpha must be positive and finite"),
    (["train", "--set", "unfold.alpha=inf"], "alpha must be positive and finite"),
    (["propagate", "--lam", "nan"], "lam must be nonnegative and finite"),
    (["propagate", "--lam", "inf"], "lam must be nonnegative and finite"),
    (["fixedpoint", "--set", "implicit.tol=nan"], "tol must be positive and finite"),
    (["fixedpoint", "--set", "implicit.tol=inf"], "tol must be positive and finite"),
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
    (["train", "--set", "train.momentum=2"], "momentum must lie in [0, 1)"),
    (["train", "--set", "train.momentum=-1"], "momentum must lie in [0, 1)"),
    (["train", "--set", "train.weight_decay=-1"], "weight_decay must be nonnegative"),
    (["propagate", "--set", "unfold.rho=log:epz=0.3"], "takes no parameter 'epz'"),
    (["propagate", "--set", "unfold.rho=identity:x=1"], "takes no parameter 'x'"),
    (["verify", "--suite", "descent", "--trials", "0"], "--trials must be at least 1"),
    (["verify", "--suite", "descent", "--trials", "-3"], "--trials must be at least 1"),
    (["train", "--lam", "-1"], "lam must be nonnegative"),
    (["train", "--set", "data.p_in=2"], "edge probabilities must lie in [0, 1]"),
    (["propagate", "--set", "data.p_in=2"], "edge probabilities must lie in [0, 1]"),
    (["train", "--set", "data.train_frac=0.9"], "fractions must leave room for test"),
    (["propagate", "--set", "data.train_frac=0.9"], "fractions must leave room for test"),
    (["train", "--set", "data.blocks=a,b"], "bad value for data.blocks: 'a,b'"),
    (["propagate", "--set", "data.blocks=a,b"], "bad value for data.blocks: 'a,b'"),
    (["train", "--set", "model.hidden=a"], "bad value for model.hidden: 'a'"),
    (["train", "--set", "data.blocks=0,0"], "block sizes must be at least 1"),
    (["fixedpoint", "--set", "model.embed_dim=0"], "embed_dim must be at least 1"),
    (["propagate", "--set", "data.blocks=0,0"], "block sizes must be at least 1"),
    (["propagate", "--set", "data.feature_dim=0"], "feature_dim must be at least 1"),
    (["propagate", "--set", "data.val_frac=-0.5"], "fractions must be nonnegative"),
    (["propagate", "--set", "data.perturb_rate=-1"], "rate must be nonnegative"),
    (["propagate", "--set", "unfold.variant=preconditioned"],
     "variant must be 'plain' or 'normalized'"),
    (["propagate", "--set", "unfold.variant=normalized", "--set", "unfold.kind=combinatorial"],
     "the normalized variant steps the self_loop_sym energy"),
    (["train", "--set", "unfold.variant=normalized", "--set", "unfold.rho=cosine",
      "--set", "unfold.attention=0"], "cannot reweight with cosine rho"),
    (["train", "--K", "x"], "bad value for unfold.steps: 'x'"),
    (["train", "--backend", "eignn", "--set", "unfold.kind=combinatorial"],
     "the eignn backend needs a normalized Laplacian kind"),
    (["propagate", "--K", "4", "--rho", "truncated_lp:p=0.5,tau=0",
      "--set", "unfold.attention=sandwich"], "largest weight tau_bar^(p-2) and T_bar"),
]


# each case is named by its command line, so removing a row renames no other case
@pytest.mark.parametrize("args, message", BAD_SETTINGS,
                         ids=[" ".join(args) for args, _ in BAD_SETTINGS])
def test_bad_settings_exit_two(args, message, fixture_dir, tmp_path, capsys):
    # verify reads no dataset, so it takes no --dataset flag, and writes no
    # artifacts, so it takes no --out
    dataset = ["--dataset", fixture_dir] if args[0] != "verify" else []
    out = ["--out", str(tmp_path / "o")] if args[0] != "verify" else []
    code = run_cli([*args, *dataset, *out])
    assert code == 2
    assert message in capsys.readouterr().err


# the values probed with `train` on the generated SBM that once ran on, or
# failed later as divergence or with a traceback
PROBES = [
    ("eignn.eps_f=inf", "eps_f must be positive and finite, got inf"),
    ("unfold.phi=soft_threshold:kappa=inf", "phi parameter kappa must be finite, got inf"),
    ("unfold.rho=truncated_quadratic:tau=nan", "rho parameter tau must be finite, got nan"),
    ("train.lr=nan", "lr must be nonnegative and finite, got nan"),
    ("train.weight_decay=nan", "weight_decay must be nonnegative and finite, got nan"),
    ("unfold.rho=log:eps=nan", "rho parameter eps must be finite, got nan"),
    ("data.perturb_rate=inf", "rate must be nonnegative and finite, got inf"),
    ("unfold.rho=absolute:gamma_max=-1", "rho parameter gamma_max must be positive, got -1.0"),
]

# where the class that owns a key's value names it otherwise than the key
OWNER_NAMES = {"data.perturb_rate": "rate"}


def _non_finite_rows():
    """nan and inf for every float key, for unfold.alpha and for every
    parameter of every rho and phi kind, each with what the rejecting
    message must name: the owner's name of the setting."""
    rows = []
    for key, (parser, _, _) in KEYS.items():
        if parser is float or key == "unfold.alpha":
            name = OWNER_NAMES.get(key, key.rpartition(".")[2])
            rows += [(f"{key}={value}", name) for value in ("nan", "inf")]
    for key, what, factories in (("unfold.rho", "rho", _RHO_FACTORIES),
                                 ("unfold.phi", "phi", _PHI_FACTORIES),
                                 ("implicit.sigma", "phi", _PHI_FACTORIES)):
        for kind, factory in factories.items():
            for param in inspect.signature(factory).parameters:
                name = _CONFIG_NAMES.get(param, param)
                rows += [(f"{key}={kind}:{name}={value}",
                          f"{what} parameter {name} must be finite, got {value}")
                         for value in ("nan", "inf")]
    return rows


NON_FINITE_ROWS = PROBES + _non_finite_rows()


@pytest.mark.parametrize("setting, message", NON_FINITE_ROWS,
                         ids=[setting for setting, _ in NON_FINITE_ROWS])
def test_rejected_values_exit_two_with_the_owners_message(setting, message, tmp_path,
                                                          capsys):
    code = run_cli(["train", "--set", setting, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert message in err and "bad value for" not in err


@pytest.mark.parametrize("command", ["train", "verify", "experiment"])
def test_negative_seed_exits_two(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--seed", "-1"])
    assert exc.value.code == 2
    assert "--seed: expected a nonnegative integer, got '-1'" in capsys.readouterr().err


class TestUnusablePaths:
    """A path that cannot be used exits 2, naming it, before anything runs
    or is written."""

    @pytest.fixture
    def no_run(self, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the command ran")

        for name in ("propagate", "run_suite"):
            monkeypatch.setattr(cli, name, must_not_run)

    def test_out_that_is_a_file(self, no_run, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("keep\n")
        assert run_cli(["propagate", "--out", str(out)]) == 2
        assert str(out) in capsys.readouterr().err
        assert out.read_text() == "keep\n" and os.listdir(tmp_path) == ["taken"]

    def test_report_that_is_a_directory(self, no_run, tmp_path, capsys):
        report = tmp_path / "reports"
        report.mkdir()
        code = run_cli(["verify", "--suite", "descent", "--report", str(report)])
        assert code == 2
        assert str(report) in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["reports"] and os.listdir(report) == []

    def test_config_that_is_a_directory(self, no_run, tmp_path, capsys):
        config = tmp_path / "configs"
        config.mkdir()
        code = run_cli(["propagate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert str(config) in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["configs"] and os.listdir(config) == []


class TestFixedPoint:
    def test_solves_and_reports(self, fixture_dir, tmp_path, capsys):
        out = str(tmp_path / "o")
        code = run_cli(["fixedpoint", "--dataset", fixture_dir, "--out", out,
                        "--set", "implicit.sigma=relu"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "iterations=" in stdout and "contraction=" in stdout
        assert os.path.exists(os.path.join(out, "fixedpoint.csv"))

    def test_summary_carries_certified_error(self, fixture_dir, tmp_path, capsys):
        out = str(tmp_path / "o")
        code = run_cli(["fixedpoint", "--dataset", fixture_dir, "--out", out,
                        "--set", "implicit.sigma=relu", "--set", "implicit.margin=0.8"])
        assert code == 0
        assert "certified_contraction=0.800 error_bound=" in capsys.readouterr().out
        with open(os.path.join(out, "fixedpoint.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "# schema: fixedpoint-summary v2"
        row = dict(zip(lines[1].split(","), map(float, lines[2].split(","))))
        c = row["contraction"]
        assert c == pytest.approx(0.8)
        assert row["error_bound"] == pytest.approx(c / (1 - c) * row["residual"])


class TestVerify:
    @pytest.mark.parametrize("suite", ["descent", "equivalence", "gradients"])
    def test_suites_pass(self, suite, tmp_path, capsys):
        report = str(tmp_path / "report.jsonl")
        code = run_cli(["verify", "--suite", suite, "--trials", "6", "--report", report])
        assert code == 0
        with open(report) as fh:
            records = [json.loads(line) for line in fh]
        assert records and all(r["ok"] for r in records)

    def test_injected_failure_exit_one(self, tmp_path, capsys):
        code = run_cli(["verify", "--suite", "descent", "--trials", "3",
                        "--inject-failure", "--report", str(tmp_path / "r.jsonl")])
        assert code == 1
        assert "FAIL" in capsys.readouterr().err

    def test_gradients_injected_failure_exit_one(self, tmp_path, capsys):
        code = run_cli(["verify", "--suite", "gradients", "--trials", "4",
                        "--inject-failure", "--report", str(tmp_path / "r.jsonl")])
        assert code == 1
        assert '"suite": "gradients"' in capsys.readouterr().err

    def test_takes_no_out(self, tmp_path, capsys):
        # verify writes only its report, so an --out would be ignored
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", "--suite", "descent", "--trials", "1",
                     "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --out" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_fixed_point_records_carry_certified_error(self, tmp_path):
        report = str(tmp_path / "report.jsonl")
        code = run_cli(["verify", "--suite", "convergence", "--trials", "3",
                        "--report", report])
        assert code == 0
        with open(report) as fh:
            records = [r for r in map(json.loads, fh) if r.get("check") == "fixed-point"]
        assert len(records) == 3
        for r in records:
            assert 0 < r["certified_contraction"] <= 0.9 + 1e-12
            assert 0 <= r["error_bound"] < 1e-8

    def test_closed_form_records_cycle_the_kinds(self, tmp_path):
        # seed 10's second trial draws a graph with an isolated node
        report = str(tmp_path / "report.jsonl")
        code = run_cli(["verify", "--suite", "convergence", "--seed", "10", "--trials", "3",
                        "--report", report])
        assert code == 0
        with open(report) as fh:
            records = [r for r in map(json.loads, fh) if r.get("check") == "closed-form"]
        assert [r["kind"] for r in records] == ["combinatorial", "sym_normalized",
                                                "self_loop_sym"]
        assert all(r["rel_error"] < 1e-6 for r in records)

    def test_report_is_json_lines(self, tmp_path):
        report = str(tmp_path / "report.jsonl")
        run_cli(["verify", "--suite", "convergence", "--trials", "2", "--report", report])
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

    def test_bench_time_csv_and_rows(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        code = run_cli(["experiment", "--name", "bench-time", "--out", out])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        sizes = inspect.signature(bench_time).parameters["sizes"].default
        assert len(summary["rows"]) == len(sizes)
        assert os.path.exists(os.path.join(out, "bench_time.csv"))

    def test_bench_is_not_a_subcommand(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["bench", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

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

    def test_documented_subcommands_are_the_parsers(self):
        """The subcommands that the module docstring lists and that the
        README's CLI block runs are exactly those the parser takes."""
        subs = next(action for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
        parsed = set(subs.choices)
        line = next(l for l in cli.__doc__.splitlines() if l.startswith("Subcommands: "))
        assert set(line.removeprefix("Subcommands: ").rstrip(".").split(", ")) == parsed
        readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "README.md")
        with open(readme, encoding="utf-8") as fh:
            block = fh.read().split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        assert {l.split()[1] for l in block.splitlines() if l.startswith("unfoldgnn ")} == parsed


# the CLI defaults that differ from their class's on purpose (the comment
# beside cli.KEYS says why): key -> (class, field, class default)
DIFFERING_DEFAULTS = {
    "train.lr": ("TrainConfig", "lr", 0.05),
    "implicit.tol": ("ModelConfig", "fp_tol", 1e-10),
    "data.p_in": ("SbmSpec", "p_in", 0.1),
    "data.p_out": ("SbmSpec", "p_out", 0.02),
    "data.perturb_rate": ("PerturbSpec", "rate", 0.2),
}


def test_cli_defaults_agree_with_their_classes_but_the_listed(monkeypatch):
    # resolve a bare train run, catching the generator specs on their way
    specs = []
    for name in ("sbm_generate", "perturb_edges"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, real=real: specs.append(a[-1]) or real(*a))
    _, mcfg, tcfg = cli.resolve_run(cli.build_parser().parse_args(["train"]))
    differ = {}
    for obj in (mcfg, tcfg, *specs):
        default = type(obj)()
        for f in dataclasses.fields(obj):
            got, want = getattr(obj, f.name), getattr(default, f.name)
            # --seed and the data's labels, not keys, set seed and n_classes
            if f.init and f.name not in ("seed", "n_classes") and got != want:
                differ[type(obj).__name__, f.name] = (got, want)
    assert [type(spec).__name__ for spec in specs] == ["SbmSpec", "PerturbSpec"]
    assert differ == {(cls, name): (KEYS[key][1], want)
                      for key, (cls, name, want) in DIFFERING_DEFAULTS.items()}
