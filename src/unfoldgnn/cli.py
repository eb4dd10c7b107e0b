"""Command-line interface.

Subcommands: train, propagate, fixedpoint, verify, experiment.
Every numeric option lives in a flat dotted-key config space; values
resolve as defaults < config file < --set overrides < dedicated flags.
Config files are plain ``key=value`` lines with '#' comments.  All
commands honor --seed.  All but verify write artifacts under --out (or
$UNFOLD_ARTIFACTS, default ./artifacts); verify writes its JSON-lines
report to --report or standard output.

train, propagate and fixedpoint resolve the dataset and every config
before anything runs (:func:`resolve_run`): an unknown key, or a value
that its parser or the class that owns it rejects, ``data.*`` keys
included, exits 2 with that message.  So does an unusable path: a
config or dataset file that cannot be read or is not UTF-8 text, an
--out that cannot be a directory or a --report that cannot be written,
each found before the run starts.

Exit codes: 0 success, 1 verification failure, 2 configuration, data or
path error, 3 numerical divergence.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from . import _kernels
from .artifacts import text_lines, write_csv
from .data import PerturbSpec, SbmSpec, load_dataset, perturb_edges, sbm_generate
from .energy import phi_from_config, rho_from_config
from .graph import LaplacianKind
from .implicit import FixedPointDivergence, fixed_point_solve, project_weights
from .model import ModelConfig, TrainConfig, save_checkpoint, train
from .unfold import (
    PropagationDivergence,
    gamma_trace_to_csv,
    propagate,
    sandwich_schedule,
    trace_to_csv,
)
from .verify import SUITES, run_suite
from .experiments import EXPERIMENTS, run_experiment


def _ints(text):
    """Comma-separated integers, blanks skipped."""
    return tuple(int(tok) for tok in text.split(",") if tok)


# dotted config keys: name -> (parser, default, help)
#
# Five defaults differ from those of the class fields they set, on purpose:
# these describe a bare command-line run (the generated 100-node SBM unless
# --dataset is given), the classes a library call.
# - train.lr 0.1 (TrainConfig.lr 0.05): the faster step for the 200 default
#   epochs; on the generated SBM, 0.05 reaches no better test accuracy.
# - implicit.tol 1e-8 (ModelConfig.fp_tol 1e-10): enough for the metrics a
#   run prints; a library caller comparing fixed points gets the tighter one.
# - data.p_in 0.2, data.p_out 0.05 (SbmSpec 0.1, 0.02): on 100 nodes the
#   denser draw gives about 12 neighbours a node instead of 6.
# - data.perturb_rate 0.0 (PerturbSpec.rate 0.2): every run applies the
#   perturbation, --dataset runs too, so its default must keep the data as
#   given; a PerturbSpec is built only to perturb, at the edge-injection
#   study's rate.
KEYS = {
    "train.epochs": (int, 200, "training epochs"),
    "train.lr": (float, 0.1, "learning rate"),
    "train.momentum": (float, 0.0, "momentum coefficient"),
    "train.weight_decay": (float, 0.0, "decoupled weight decay"),
    "model.backend": (str, "unrolled", "unrolled | implicit | eignn"),
    "model.embed_dim": (int, 16, "embedding width d"),
    "model.predictor": (str, "linear", "linear | mlp"),
    "model.hidden": (_ints, "", "comma-separated MLP hidden widths"),
    "model.activation": (str, "tanh", "tanh | relu"),
    "model.dropout": (float, 0.0, "train-time dropout rate"),
    "model.pre_propagate": (int, 0, "apply the propagation operator to X once"),
    "unfold.steps": (int, 16, "number of unfolded layers K"),
    "unfold.alpha": (str, "auto", "step size, 'auto', or 'auto_irls'"),
    "unfold.lam": (float, 1.0, "edge-penalty trade-off"),
    "unfold.kind": (str, "self_loop_sym",
                    "combinatorial | sym_normalized | self_loop_sym"),
    "unfold.rho": (str, "identity", "edge penalty config string"),
    "unfold.phi": (str, "zero", "node penalty config string"),
    "unfold.variant": (str, "plain", "plain | normalized"),
    "unfold.attention": (str, "none",
                         "none | sandwich | sandwich+start | comma-separated steps"),
    "implicit.sigma": (str, "zero", "solver activation: zero/identity, relu, soft_threshold:kappa=.."),
    "implicit.tol": (float, 1e-8, "fixed-point residual tolerance"),
    "implicit.max_iters": (int, 5000, "fixed-point iteration cap"),
    "implicit.margin": (float, 0.9, "contraction margin for weight projection"),
    "implicit.train_w_p": (int, 1, "train the propagation weight"),
    "eignn.mu": (float, 0.5, "damping factor in [0,1)"),
    "eignn.eps_f": (float, 0.1, "norm regularizer for the weight rescaling"),
    "data.dir": (str, "", "dataset directory (edges.tsv, features.csv, ...)"),
    "data.blocks": (_ints, "50,50", "community sizes for the generator"),
    "data.p_in": (float, 0.2, "within-community edge probability"),
    "data.p_out": (float, 0.05, "cross-community edge probability"),
    "data.feature_dim": (int, 8, "feature dimension"),
    "data.separation": (float, 1.0, "class mean separation"),
    "data.train_frac": (float, 0.2, "train mask fraction per class"),
    "data.val_frac": (float, 0.2, "validation mask fraction per class"),
    "data.perturb_rate": (float, 0.0, "cross-class edge injection rate"),
}

# dedicated flags of train, propagate and fixedpoint: flag -> (key, help)
FLAGS = {
    "dataset": ("data.dir", "dataset directory"),
    "backend": ("model.backend", "model backend"),
    "K": ("unfold.steps", "propagation steps"),
    "rho": ("unfold.rho", "edge penalty"),
    "phi": ("unfold.phi", "node penalty"),
    "lam": ("unfold.lam", "trade-off scalar"),
    "lr": ("train.lr", "learning rate"),
    "epochs": ("train.epochs", "training epochs"),
}


class CliError(ValueError):
    pass


def parse_config_file(path):
    values = {}
    for where, line in text_lines(path, CliError):
        key, sep, value = line.partition("=")
        if not sep:
            raise CliError(f"{where}: expected key=value, got {line!r}")
        values[key.strip()] = value.strip()
    return values


def resolve_config(args):
    """Merge defaults, config file, --set overrides and dedicated flags;
    reject unknown keys; parse every key to its declared type."""
    raw = {}
    if args.config:
        raw.update(parse_config_file(args.config))
    for item in args.set or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise CliError(f"--set expects key=value, got {item!r}")
        raw[key.strip()] = value.strip()
    for key in raw:
        if key not in KEYS:
            raise CliError(f"unknown config key {key!r}")
    # dedicated flags win over everything
    for flag, (key, _) in FLAGS.items():
        value = getattr(args, flag)
        if value is not None:
            raw[key] = value
    merged = {}
    for key, (parser, default, _) in KEYS.items():
        value = raw.get(key, default)
        try:
            merged[key] = parser(value)
        except ValueError:
            raise CliError(f"bad value for {key}: {value!r}")
    return merged


def build_dataset(cfg, seed):
    """The run's dataset.  Both generator specs are built whatever the
    source, so that a bad ``data.*`` value is rejected even under
    data.dir; a perturbation rate of 0 changes nothing."""
    sbm = SbmSpec(blocks=cfg["data.blocks"], p_in=cfg["data.p_in"], p_out=cfg["data.p_out"],
                  feature_dim=cfg["data.feature_dim"], separation=cfg["data.separation"],
                  train_frac=cfg["data.train_frac"], val_frac=cfg["data.val_frac"],
                  seed=seed)
    perturb = PerturbSpec(rate=cfg["data.perturb_rate"], seed=seed + 1)
    ds = load_dataset(cfg["data.dir"]) if cfg["data.dir"] else sbm_generate(sbm)
    ds, _ = perturb_edges(ds, perturb)
    return ds


def parse_schedule(text, steps):
    if text in ("none", ""):
        return ()
    if text == "sandwich":
        return sandwich_schedule(steps)
    if text == "sandwich+start":
        return sandwich_schedule(steps, refresh_at_start=True)
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise CliError(f"bad attention schedule {text!r}")


def parse_alpha(text):
    if text in ("auto", "auto_irls"):
        return text
    try:
        return float(text)
    except ValueError:
        raise CliError(f"bad step size {text!r}")


def resolve_run(args):
    """The dataset, ModelConfig and TrainConfig of a train, propagate or
    fixedpoint run, all built before anything runs.  This is the one
    place where a rejected value (a ValueError from a parser or from the
    class that owns the value) becomes a CliError, exit code 2."""
    try:
        cfg = resolve_config(args)
        ds = build_dataset(cfg, args.seed)
        mcfg = ModelConfig(
            backend=cfg["model.backend"],
            embed_dim=cfg["model.embed_dim"],
            n_classes=int(ds.labels.max()) + 1,
            predictor=cfg["model.predictor"],
            hidden=cfg["model.hidden"],
            activation=cfg["model.activation"],
            dropout=cfg["model.dropout"],
            pre_propagate=bool(cfg["model.pre_propagate"]),
            steps=cfg["unfold.steps"],
            alpha=parse_alpha(cfg["unfold.alpha"]),
            lam=cfg["unfold.lam"],
            kind=LaplacianKind(cfg["unfold.kind"]),
            rho=rho_from_config(cfg["unfold.rho"]),
            phi=phi_from_config(cfg["unfold.phi"]),
            variant=cfg["unfold.variant"],
            attention_schedule=parse_schedule(cfg["unfold.attention"], cfg["unfold.steps"]),
            sigma=phi_from_config(cfg["implicit.sigma"]),
            fp_tol=cfg["implicit.tol"],
            fp_max_iters=cfg["implicit.max_iters"],
            train_w_p=bool(cfg["implicit.train_w_p"]),
            contraction_margin=cfg["implicit.margin"],
            mu=cfg["eignn.mu"],
            eps_f=cfg["eignn.eps_f"],
        )
        tcfg = TrainConfig(epochs=cfg["train.epochs"], lr=cfg["train.lr"],
                           momentum=cfg["train.momentum"],
                           weight_decay=cfg["train.weight_decay"], seed=args.seed)
    except ValueError as exc:
        raise CliError(str(exc))
    return ds, mcfg, tcfg


def out_dir(args):
    """The artifacts directory, made if missing.  Each command that writes
    there resolves it before its run, so a path that cannot be a
    directory exits 2 before any work."""
    path = args.out or os.environ.get("UNFOLD_ARTIFACTS", "artifacts")
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot use {path} as the artifacts directory: {exc.strerror}")
    return path


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_train(args):
    ds, mcfg, tcfg = resolve_run(args)
    out = out_dir(args)
    try:
        model, metrics = train(ds.graph, ds.x, ds.labels, ds.masks, mcfg, tcfg)
    except ValueError as exc:  # the data that train rejects before its first epoch
        raise CliError(str(exc))
    metrics.to_csv(os.path.join(out, "metrics.csv"))
    save_checkpoint(model.params, os.path.join(out, "checkpoint"))
    if metrics.diverged:
        print("training diverged; partial metrics written", file=sys.stderr)
        return 3
    print(f"test_accuracy={metrics.test_acc_at_best:.4f} "
          f"best_val_epoch={metrics.best_val_epoch}")
    return 0


def cmd_propagate(args):
    ds, mcfg, _ = resolve_run(args)
    out = out_dir(args)
    result = propagate(mcfg.energy_spec, ds.graph, ds.x, mcfg.propagation)
    trace_to_csv(result, os.path.join(out, "trace.csv"))
    gamma_trace_to_csv(result, os.path.join(out, "gammas.csv"))
    final = result.trace[-1]
    print(f"final_energy={final.total:.6g} final_residual={result.residuals[-1]:.3e}"
          if result.residuals.size else f"final_energy={final.total:.6g}")
    return 0


def cmd_fixedpoint(args):
    ds, mcfg, _ = resolve_run(args)
    out = out_dir(args)
    d = mcfg.embed_dim
    rng = np.random.default_rng(args.seed)
    w_p = project_weights(rng.normal(size=(d, d)) / np.sqrt(d), ds.graph.operators(mcfg.kind),
                          margin=mcfg.contraction_margin)
    if ds.x.shape[1] != d:
        w_in = rng.normal(size=(ds.x.shape[1], d)) / np.sqrt(ds.x.shape[1])
        fx = ds.x @ w_in
    else:
        fx = ds.x
    dense0 = _kernels.op_counter()["dense"]
    start = time.perf_counter()
    result = fixed_point_solve(ds.graph, w_p, fx, mcfg.fixed_point)
    elapsed = time.perf_counter() - start
    solve_flops = _kernels.op_counter()["dense"] - dense0
    write_csv(os.path.join(out, "fixedpoint.csv"), "fixedpoint-summary v2",
              ["iterations", "residual", "contraction_estimate", "contraction", "error_bound",
               "solve_flops", "seconds"],
              [[result.iterations, result.residual, result.contraction_estimate,
                result.contraction, result.error_bound, solve_flops, elapsed]])
    print(f"iterations={result.iterations} residual={result.residual:.3e} "
          f"contraction={result.contraction_estimate:.3f} "
          f"certified_contraction={result.contraction:.3f} "
          f"error_bound={result.error_bound:.3e} "
          f"solve_flops={solve_flops} seconds={elapsed:.4f}")
    return 0


def cmd_verify(args):
    if args.trials is not None and args.trials < 1:
        raise CliError(f"--trials must be at least 1, got {args.trials}")
    try:
        stream = open(args.report, "w") if args.report else sys.stdout
    except OSError as exc:
        raise CliError(f"cannot write the report {args.report}: {exc.strerror}")
    try:
        ok, records = run_suite(args.suite, seed=args.seed, trials=args.trials,
                                inject_failure=args.inject_failure)
        for rec in records:
            stream.write(json.dumps(_jsonable(rec)) + "\n")
    finally:
        if args.report:
            stream.close()
    if not ok:
        first_bad = next(r for r in records if not r.get("ok", True))
        print(f"FAIL: {json.dumps(_jsonable(first_bad))}", file=sys.stderr)
        return 1
    print(f"suite {args.suite}: all {len(records)} checks passed", file=sys.stderr)
    return 0


def cmd_experiment(args):
    out = out_dir(args)
    summary = run_experiment(args.name, out, seed=args.seed)
    print(json.dumps(_jsonable(summary), indent=2))
    return 0


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


# ---------------------------------------------------------------------------

def _seed(text):
    """argparse type of --seed: a nonnegative integer, as numpy's seeds are."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _add_common(sub, config_keys=True, out=True):
    sub.add_argument("--seed", type=_seed, default=0,
                     help="run seed; fully determines numeric outputs")
    if out:
        sub.add_argument("--out", default=None,
                         help="artifacts directory (default $UNFOLD_ARTIFACTS or ./artifacts)")
    if config_keys:
        sub.add_argument("--config", default=None, help="key=value config file")
        sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                         help="override one config key (repeatable)")
        for flag, (key, help_) in FLAGS.items():
            sub.add_argument(f"--{flag}", help=f"{help_} [key: {key}]")


def build_parser():
    keys_doc = "config keys:\n" + "\n".join(
        f"  {key:<22} {help_} (default {default!r})"
        for key, (_, default, help_) in KEYS.items())
    parser = argparse.ArgumentParser(
        prog="unfoldgnn",
        description=__doc__,
        epilog=keys_doc,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for name, help_, fn in (
            ("train", "train a node classifier", cmd_train),
            ("propagate", "run unfolded propagation on features", cmd_propagate),
            ("fixedpoint", "solve the implicit fixed point", cmd_fixedpoint)):
        sub = subs.add_parser(name, help=help_, epilog=keys_doc,
                              formatter_class=argparse.RawDescriptionHelpFormatter)
        _add_common(sub)
        sub.set_defaults(fn=fn)

    p_verify = subs.add_parser("verify", help="run a verification suite")
    _add_common(p_verify, config_keys=False, out=False)
    p_verify.add_argument("--suite", required=True, choices=SUITES)
    p_verify.add_argument("--trials", type=int, default=None)
    p_verify.add_argument("--report", default=None, help="write JSON-lines here")
    p_verify.add_argument("--inject-failure", action="store_true",
                          help=argparse.SUPPRESS)  # negative-control hook
    p_verify.set_defaults(fn=cmd_verify)

    p_exp = subs.add_parser("experiment", help="run a scripted experiment")
    _add_common(p_exp, config_keys=False)
    p_exp.add_argument("--name", required=True, choices=EXPERIMENTS)
    p_exp.set_defaults(fn=cmd_experiment)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PropagationDivergence, FixedPointDivergence) as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
