"""Command-line interface.

Subcommands: train, propagate, fixedpoint, verify, experiment, bench.
Every numeric option lives in a flat dotted-key config space; values
resolve as defaults < config file < --set overrides < dedicated flags.
Config files are plain ``key=value`` lines with '#' comments.  Unknown
keys are rejected (exit 2).  All commands honor --seed and write
artifacts under --out (or $UNFOLD_ARTIFACTS, default ./artifacts).

Exit codes: 0 success, 1 verification failure, 2 configuration or data
error, 3 numerical divergence.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from . import _kernels
from .data import DatasetError, PerturbSpec, SbmSpec, load_dataset, perturb_edges, sbm_generate
from .energy import EnergySpec, phi_from_config, rho_from_config
from .graph import GraphError, LaplacianKind
from .implicit import FixedPointConfig, FixedPointDivergence, fixed_point_solve, project_weights
from .model import ModelConfig, TrainConfig, save_checkpoint, train
from .unfold import (
    PropagationConfig,
    PropagationDivergence,
    gamma_trace_to_csv,
    propagate,
    sandwich_schedule,
    trace_to_csv,
)
from .verify import SUITES, run_suite
from .experiments import EXPERIMENTS, run_experiment

# dotted config keys: name -> (parser, default, help)
KEYS = {
    "train.epochs": (int, 200, "training epochs"),
    "train.lr": (float, 0.1, "learning rate"),
    "train.momentum": (float, 0.0, "momentum coefficient"),
    "train.weight_decay": (float, 0.0, "decoupled weight decay"),
    "model.backend": (str, "unrolled", "unrolled | implicit | eignn"),
    "model.embed_dim": (int, 16, "embedding width d"),
    "model.predictor": (str, "linear", "linear | mlp"),
    "model.hidden": (str, "", "comma-separated MLP hidden widths"),
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
    "data.blocks": (str, "50,50", "community sizes for the generator"),
    "data.p_in": (float, 0.2, "within-community edge probability"),
    "data.p_out": (float, 0.05, "cross-community edge probability"),
    "data.feature_dim": (int, 8, "feature dimension"),
    "data.separation": (float, 1.0, "class mean separation"),
    "data.train_frac": (float, 0.2, "train mask fraction per class"),
    "data.val_frac": (float, 0.2, "validation mask fraction per class"),
    "data.perturb_rate": (float, 0.0, "cross-class edge injection rate"),
}

KIND_NAMES = {
    "combinatorial": LaplacianKind.COMBINATORIAL,
    "sym_normalized": LaplacianKind.SYM_NORMALIZED,
    "self_loop_sym": LaplacianKind.SELF_LOOP_SYM,
}


class CliError(ValueError):
    pass


def parse_config_file(path):
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
            values[key.strip()] = value.strip()
    return values


def resolve_config(args):
    """Merge defaults, config file, and --set overrides; reject unknown
    keys; parse to the declared types."""
    merged = {key: default for key, (_, default, _) in KEYS.items()}
    raw = {}
    if getattr(args, "config", None):
        raw.update(parse_config_file(args.config))
    for item in getattr(args, "set", None) or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise CliError(f"--set expects key=value, got {item!r}")
        raw[key.strip()] = value.strip()
    for key, value in raw.items():
        if key not in KEYS:
            raise CliError(f"unknown config key {key!r}")
        parser = KEYS[key][0]
        try:
            merged[key] = parser(value)
        except ValueError:
            raise CliError(f"bad value for {key}: {value!r}")
    # dedicated flags win over everything
    flag_map = {
        "dataset": "data.dir", "backend": "model.backend", "K": "unfold.steps",
        "rho": "unfold.rho", "phi": "unfold.phi", "lam": "unfold.lam",
        "lr": "train.lr", "epochs": "train.epochs",
    }
    for flag, key in flag_map.items():
        value = getattr(args, flag, None)
        if value is not None:
            merged[key] = KEYS[key][0](value)
    return merged


def build_dataset(cfg, seed):
    if cfg["data.dir"]:
        ds = load_dataset(cfg["data.dir"])
    else:
        blocks = tuple(int(tok) for tok in cfg["data.blocks"].split(",") if tok)
        ds = sbm_generate(SbmSpec(
            blocks=blocks, p_in=cfg["data.p_in"], p_out=cfg["data.p_out"],
            feature_dim=cfg["data.feature_dim"], separation=cfg["data.separation"],
            train_frac=cfg["data.train_frac"], val_frac=cfg["data.val_frac"],
            seed=seed))
    if cfg["data.perturb_rate"] > 0:
        ds, _ = perturb_edges(ds, PerturbSpec(rate=cfg["data.perturb_rate"],
                                              seed=seed + 1))
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


def parse_kind(cfg):
    kind = KIND_NAMES.get(cfg["unfold.kind"])
    if kind is None:
        raise CliError(f"unknown laplacian kind {cfg['unfold.kind']!r}")
    return kind


def parse_sigma(cfg):
    text = cfg["implicit.sigma"]
    return None if text in ("zero", "identity", "") else phi_from_config(text)


def build_model_config(cfg, n_classes):
    kind = parse_kind(cfg)
    hidden = tuple(int(tok) for tok in cfg["model.hidden"].split(",") if tok)
    try:
        return ModelConfig(
            backend=cfg["model.backend"],
            embed_dim=cfg["model.embed_dim"],
            n_classes=n_classes,
            predictor=cfg["model.predictor"],
            hidden=hidden,
            activation=cfg["model.activation"],
            dropout=cfg["model.dropout"],
            pre_propagate=bool(cfg["model.pre_propagate"]),
            steps=cfg["unfold.steps"],
            alpha=parse_alpha(cfg["unfold.alpha"]),
            lam=cfg["unfold.lam"],
            kind=kind,
            rho=rho_from_config(cfg["unfold.rho"]),
            phi=phi_from_config(cfg["unfold.phi"]),
            variant=cfg["unfold.variant"],
            attention_schedule=parse_schedule(cfg["unfold.attention"], cfg["unfold.steps"]),
            sigma=parse_sigma(cfg),
            fp_tol=cfg["implicit.tol"],
            fp_max_iters=cfg["implicit.max_iters"],
            train_w_p=bool(cfg["implicit.train_w_p"]),
            contraction_margin=cfg["implicit.margin"],
            mu=cfg["eignn.mu"],
            eps_f=cfg["eignn.eps_f"],
        )
    except ValueError as exc:
        raise CliError(str(exc))


def out_dir(args):
    path = args.out or os.environ.get("UNFOLD_ARTIFACTS", "artifacts")
    os.makedirs(path, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_train(args):
    cfg = resolve_config(args)
    ds = build_dataset(cfg, args.seed)
    n_classes = int(ds.labels.max()) + 1
    mcfg = build_model_config(cfg, n_classes)
    try:
        tcfg = TrainConfig(epochs=cfg["train.epochs"], lr=cfg["train.lr"],
                           momentum=cfg["train.momentum"],
                           weight_decay=cfg["train.weight_decay"], seed=args.seed)
    except ValueError as exc:
        raise CliError(str(exc))
    model, metrics = train(ds.graph, ds.x, ds.labels, ds.masks, mcfg, tcfg)
    out = out_dir(args)
    metrics.to_csv(os.path.join(out, "metrics.csv"))
    save_checkpoint(model.params, os.path.join(out, "checkpoint"))
    if metrics.diverged:
        print("training diverged; partial metrics written", file=sys.stderr)
        return 3
    print(f"test_accuracy={metrics.test_acc_at_best:.4f} "
          f"best_val_epoch={metrics.best_val_epoch}")
    return 0


def cmd_propagate(args):
    cfg = resolve_config(args)
    ds = build_dataset(cfg, args.seed)
    kind = parse_kind(cfg)
    try:
        spec = EnergySpec(rho=rho_from_config(cfg["unfold.rho"]),
                          phi=phi_from_config(cfg["unfold.phi"]),
                          lam=cfg["unfold.lam"], kind=kind)
        pcfg = PropagationConfig(
            steps=cfg["unfold.steps"],
            alpha=parse_alpha(cfg["unfold.alpha"]),
            variant=cfg["unfold.variant"],
            attention_schedule=parse_schedule(cfg["unfold.attention"], cfg["unfold.steps"]),
        )
    except ValueError as exc:
        raise CliError(str(exc))
    result = propagate(spec, ds.graph, ds.x, pcfg)
    out = out_dir(args)
    trace_to_csv(result, os.path.join(out, "trace.csv"))
    gamma_trace_to_csv(result, os.path.join(out, "gammas.csv"))
    final = result.trace[-1]
    print(f"final_energy={final.total:.6g} final_residual={result.residuals[-1]:.3e}"
          if result.residuals.size else f"final_energy={final.total:.6g}")
    return 0


def cmd_fixedpoint(args):
    cfg = resolve_config(args)
    ds = build_dataset(cfg, args.seed)
    d = cfg["model.embed_dim"]
    rng = np.random.default_rng(args.seed)
    kind = parse_kind(cfg)
    try:
        fcfg = FixedPointConfig(sigma=parse_sigma(cfg), tol=cfg["implicit.tol"],
                                max_iters=cfg["implicit.max_iters"],
                                contraction_margin=cfg["implicit.margin"], kind=kind)
    except ValueError as exc:
        raise CliError(str(exc))
    w_p = project_weights(rng.normal(size=(d, d)) / np.sqrt(d), ds.graph.operators(kind),
                          margin=fcfg.contraction_margin)
    if ds.x.shape[1] != d:
        w_in = rng.normal(size=(ds.x.shape[1], d)) / np.sqrt(ds.x.shape[1])
        fx = ds.x @ w_in
    else:
        fx = ds.x
    _kernels.reset_op_counter()
    start = time.perf_counter()
    result = fixed_point_solve(ds.graph, w_p, fx, fcfg)
    elapsed = time.perf_counter() - start
    ops = _kernels.op_counter()
    out = out_dir(args)
    with open(os.path.join(out, "fixedpoint.csv"), "w") as fh:
        fh.write("# schema: fixedpoint-summary v1\n")
        fh.write("iterations,residual,contraction_estimate,solve_flops,seconds\n")
        fh.write(f"{result.iterations},{result.residual},"
                 f"{result.contraction_estimate},{ops['dense']},{elapsed}\n")
    print(f"iterations={result.iterations} residual={result.residual:.3e} "
          f"contraction={result.contraction_estimate:.3f} "
          f"solve_flops={ops['dense']} seconds={elapsed:.4f}")
    return 0


def cmd_verify(args):
    ok, records = run_suite(args.suite, seed=args.seed, trials=args.trials,
                            inject_failure=args.inject_failure)
    stream = open(args.report, "w") if args.report else sys.stdout
    try:
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


def cmd_bench(args):
    out = out_dir(args)
    sizes = []
    for chunk in args.sizes.split(";"):
        try:
            n, deg, d, k = (int(tok) for tok in chunk.split(":"))
        except ValueError:
            raise CliError(f"bad --sizes entry {chunk!r}; expected n:avg_degree:d:K")
        sizes.append((n, deg, d, k))
    summary = run_experiment("bench-time", out, seed=args.seed, sizes=tuple(sizes))
    rows = summary["rows"]
    for key, val in rows.items():
        print(f"n={key[0]} m={key[1]} d={key[2]} K={key[3]} "
              f"edge_flops={val['edge_flops']} seconds={val['seconds']:.4f}")
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

def _add_common(sub, config_keys=True):
    sub.add_argument("--seed", type=int, default=0,
                     help="run seed; fully determines numeric outputs")
    sub.add_argument("--out", default=None,
                     help="artifacts directory (default $UNFOLD_ARTIFACTS or ./artifacts)")
    if config_keys:
        sub.add_argument("--config", default=None, help="key=value config file")
        sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                         help="override one config key (repeatable)")


def _add_model_flags(sub):
    sub.add_argument("--dataset", help="dataset directory [key: data.dir]")
    sub.add_argument("--backend", help="model backend [key: model.backend]")
    sub.add_argument("--K", help="propagation steps [key: unfold.steps]")
    sub.add_argument("--rho", help="edge penalty [key: unfold.rho]")
    sub.add_argument("--phi", help="node penalty [key: unfold.phi]")
    sub.add_argument("--lam", help="trade-off scalar [key: unfold.lam]")
    sub.add_argument("--lr", help="learning rate [key: train.lr]")
    sub.add_argument("--epochs", help="training epochs [key: train.epochs]")


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

    p_train = subs.add_parser("train", help="train a node classifier",
                              epilog=keys_doc,
                              formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_common(p_train)
    _add_model_flags(p_train)
    p_train.set_defaults(fn=cmd_train)

    p_prop = subs.add_parser("propagate", help="run unfolded propagation on features",
                             epilog=keys_doc,
                             formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_common(p_prop)
    _add_model_flags(p_prop)
    p_prop.set_defaults(fn=cmd_propagate)

    p_fp = subs.add_parser("fixedpoint", help="solve the implicit fixed point",
                           epilog=keys_doc,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_common(p_fp)
    _add_model_flags(p_fp)
    p_fp.set_defaults(fn=cmd_fixedpoint)

    p_verify = subs.add_parser("verify", help="run a verification suite")
    _add_common(p_verify, config_keys=False)
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

    p_bench = subs.add_parser("bench", help="time propagation over K layers")
    _add_common(p_bench, config_keys=False)
    p_bench.add_argument("--sizes", default="2000:8:8:8;2000:8:8:16;4000:8:8:8",
                         help="semicolon-separated n:avg_degree:d:K tuples")
    p_bench.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, DatasetError, GraphError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PropagationDivergence, FixedPointDivergence) as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
