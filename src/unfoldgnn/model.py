"""End-to-end trainable pipeline around the propagation engines.

A model is a base predictor f(X) (linear map or small MLP), one of the
three embedding backends (unrolled descent layers, implicit fixed
point, or the linear symmetric implicit special case), and a linear
output head with softmax cross-entropy.  Backward passes are written by
hand.  The unrolled backend runs ``unfold``'s layer loop
(:func:`unfold.unroll`) under the :class:`unfold.PropagationConfig` its
config builds, keeps the :class:`unfold.Layer` records as its tape, each
slimmed by :func:`unfold.tape_record` to what the reverse reads, and
hands them to the reverse loop :func:`unfold.unroll_backward`, which
lives beside the steps it differentiates.
The implicit and eignn backends share one path through
:func:`implicit.fixed_point_solve` and its adjoint
:func:`implicit.implicit_backward`: eignn is the identity-sigma
(``phi_zero``) case whose weight :class:`implicit.EignnSpec` derives
from F.

Edge reweighting during unrolled training is treated as a constant
within each backward pass by default (the majorize-then-minimize
reading); ``attention_grad="full"`` also differentiates the weights
through their generating embeddings, which is what the finite
difference checks exercise.
"""

import math
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .artifacts import text_lines, write_csv
from .energy import EnergySpec, Phi, Rho, phi_zero, rho_identity
from .energy import edge_diagonal  # noqa: F401  patched by perfbench/tracing.py
from .graph import LaplacianKind, propagation_matrix
from .graph import incidence  # noqa: F401  patched by perfbench/tracing.py
from .implicit import (
    EignnSpec,
    FixedPointConfig,
    FixedPointDivergence,
    eignn_grad_f,
    fixed_point_solve,
    implicit_backward,
    project_weights,
)
from .unfold import (PropagationConfig, PropagationDivergence, check_config, tape_record,
                     unroll, unroll_backward)
from .unfold import irls_step_bound, step_size_bound  # noqa: F401  patched by perfbench/tracing.py


@dataclass(frozen=True)
class ModelConfig:
    backend: str = "unrolled"  # unrolled | implicit | eignn
    embed_dim: int = 16
    n_classes: int = 2
    predictor: str = "linear"  # linear | mlp
    hidden: tuple = ()
    activation: str = "tanh"
    dropout: float = 0.0
    pre_propagate: bool = False
    # unrolled propagation (simple-mode scalars, or a full spec override)
    steps: int = 16
    alpha: float | str = "auto"
    lam: float = 1.0
    kind: LaplacianKind = LaplacianKind.SELF_LOOP_SYM
    rho: Rho = field(default_factory=rho_identity)
    phi: Phi = field(default_factory=phi_zero)
    variant: str = "plain"  # plain | normalized
    attention_schedule: tuple = ()
    attention_grad: str = "stop"  # stop | full
    energy: EnergySpec | None = None
    # implicit backend
    sigma: Phi = field(default_factory=phi_zero)
    fp_tol: float = 1e-10
    fp_max_iters: int = 5000
    train_w_p: bool = True
    contraction_margin: float = 0.9
    # linear symmetric implicit backend
    mu: float = 0.5
    eps_f: float = 0.1

    def __post_init__(self):
        if self.backend not in ("unrolled", "implicit", "eignn"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.predictor not in ("linear", "mlp"):
            raise ValueError(f"unknown predictor {self.predictor!r}")
        if self.activation not in ("tanh", "relu"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.attention_grad not in ("stop", "full"):
            raise ValueError("attention_grad must be 'stop' or 'full'")
        for name in ("embed_dim", "n_classes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if any(width < 1 for width in self.hidden):
            raise ValueError(f"hidden widths must be at least 1, got {self.hidden}")
        if not 0 < self.contraction_margin < 1:
            raise ValueError("contraction_margin must lie in (0, 1)")
        if not 0 <= self.dropout < 1:
            raise ValueError("dropout must lie in [0, 1)")
        # each engine config is built here, once, and is the only check of the
        # values it owns (lam; steps, alpha, variant, schedule; mu, eps_f;
        # fp_tol, fp_max_iters), so that a rejected one fails at construction
        for name in ("energy_spec", "propagation", "eignn"):
            getattr(self, name)
        try:
            self.fixed_point
        except ValueError as exc:
            # FixedPointConfig names its tol and max_iters, fp_tol and fp_max_iters here
            raise ValueError(f"fp_{exc}") from exc
        check_config(self.energy_spec, self.propagation)
        if self.backend == "eignn" and self.kind is LaplacianKind.COMBINATORIAL:
            # its weight rule keeps ||Wp|| below mu, a contraction only where ||P|| = 1
            raise ValueError("the eignn backend needs a normalized Laplacian kind: "
                             "under combinatorial ||P|| can exceed 1")
        if self.energy is not None and self.energy.kind is not self.kind:
            # the layers step under energy.kind, pre_propagate and the solves under kind
            raise ValueError(f"energy.kind {self.energy.kind.value!r} differs from "
                             f"kind {self.kind.value!r}")
        if self.variant == "normalized" and self.attention_grad == "full":
            raise ValueError("full attention differentiation is supported for "
                             "the plain variant only")

    @cached_property
    def energy_spec(self):
        """The energy the unrolled backend descends: ``energy`` when given,
        whose kind must be ``kind``, else the simple-mode spec of rho, phi,
        lam and kind."""
        if self.energy is not None:
            return self.energy
        return EnergySpec(rho=self.rho, phi=self.phi, lam=self.lam, kind=self.kind)

    @cached_property
    def propagation(self):
        """The layer plan the unrolled backend runs."""
        return PropagationConfig(steps=self.steps, alpha=self.alpha, variant=self.variant,
                                 attention_schedule=self.attention_schedule)

    @cached_property
    def fixed_point(self):
        """The solve of the implicit and eignn backends; eignn's activation
        is the identity, phi_zero, whatever sigma says."""
        sigma = phi_zero() if self.backend == "eignn" else self.sigma
        return FixedPointConfig(sigma=sigma, tol=self.fp_tol, max_iters=self.fp_max_iters,
                                kind=self.kind)

    @cached_property
    def eignn(self):
        """The weight rule of the eignn backend."""
        return EignnSpec(mu=self.mu, eps_f=self.eps_f)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    lr: float = 0.05
    momentum: float = 0.0
    weight_decay: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        if not (self.lr >= 0 and math.isfinite(self.lr)):
            raise ValueError(f"lr must be nonnegative and finite, got {self.lr}")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must lie in [0, 1)")
        if not (self.weight_decay >= 0 and math.isfinite(self.weight_decay)):
            raise ValueError(f"weight_decay must be nonnegative and finite, "
                             f"got {self.weight_decay}")


class _WarmStart:
    """Starting points for the fixed-point solves of one training run.

    Each system, the forward solve and its adjoint, starts from the
    extrapolation 2 x_k - x_{k-1} of its last two solutions, from x_k
    after one, and from zeros before any.  The adjoint's unknown is
    grad_f itself, so its past solutions are the gradients it returned.
    :meth:`record` takes the extrapolation into one buffer per system,
    allocated once and rewritten every epoch, and keeps only x_k; it never
    writes into a solution, which its callers still hold.  The fixed
    point is unique, so the start moves an answer by no more than the
    solver's certified error bound."""

    def __init__(self):
        self._last = {}
        self._next = {}

    def start(self, system):
        return self._next.get(system, self._last.get(system))

    def record(self, system, x):
        last = self._last.get(system)
        if last is not None:
            start = self._next.get(system)
            if start is None:
                start = self._next[system] = np.empty_like(x)
            np.multiply(x, 2.0, out=start)
            start -= last
        self._last[system] = x


def _uniform_init(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


class Model:
    """Parameter container plus forward/backward for one configuration."""

    def __init__(self, d_in, cfg, seed=0, g=None):
        self.cfg = cfg
        self.d_in = d_in
        rng = np.random.default_rng(seed)
        d = cfg.embed_dim
        params = {}
        if cfg.predictor == "linear":
            params["w_x"] = _uniform_init(rng, (d_in, d), d_in)
        else:
            widths = [d_in, *cfg.hidden, d]
            for i in range(len(widths) - 1):
                params[f"mlp_w{i}"] = _uniform_init(rng, (widths[i], widths[i + 1]), widths[i])
                params[f"mlp_b{i}"] = np.zeros(widths[i + 1])
        params["w_g"] = _uniform_init(rng, (cfg.n_classes, d), d)
        if cfg.backend == "implicit":
            w_p = _uniform_init(rng, (d, d), d)
            if g is not None:
                w_p = project_weights(w_p, g.operators(cfg.kind),
                                      margin=cfg.contraction_margin)
            params["w_p"] = w_p
        elif cfg.backend == "eignn":
            params["f_mat"] = _uniform_init(rng, (d, d), d)
        self.params = params

    def trainable_names(self):
        names = [k for k in self.params if k != "w_p" or self.cfg.train_w_p]
        return names

    # -- forward ------------------------------------------------------------

    def forward(self, g, x, train_mode=False, dropout_rng=None, warm=None):
        """Returns (logits over all nodes, cache for backward).  warm, a
        :class:`_WarmStart`, starts the fixed-point solve and the adjoint
        of the following backward; None starts both from zeros."""
        cfg = self.cfg
        cache = {"g": g}
        x_in = np.asarray(x, dtype=float)
        if cfg.pre_propagate:
            x_in = propagation_matrix(g, cfg.kind) @ x_in
        cache["x_in"] = x_in
        fx, pred_cache = self._predictor_forward(x_in, train_mode, dropout_rng)
        cache["pred"] = pred_cache
        cache["fx"] = fx
        y, prop_cache = self._propagate_forward(g, fx, warm)
        cache["prop"] = prop_cache
        cache["y"] = y
        logits = y @ self.params["w_g"].T
        return logits, cache

    def _predictor_forward(self, x_in, train_mode, dropout_rng):
        cfg = self.cfg
        if cfg.predictor == "linear":
            return x_in @ self.params["w_x"], {"kind": "linear"}
        inputs = []   # input to each linear layer
        acts = []     # post-activation, pre-dropout (for the derivative)
        masks = []
        h = x_in
        n_layers = len(cfg.hidden) + 1
        for i in range(n_layers):
            inputs.append(h)
            z = h @ self.params[f"mlp_w{i}"] + self.params[f"mlp_b{i}"]
            if i == n_layers - 1:
                h = z  # final layer stays linear
                break
            a = np.tanh(z) if cfg.activation == "tanh" else np.maximum(z, 0.0)
            acts.append(a)
            if train_mode and cfg.dropout > 0.0:
                keep = dropout_rng.random(a.shape) >= cfg.dropout
                h = a * keep / (1.0 - cfg.dropout)
                masks.append(keep)
            else:
                h = a
                masks.append(None)
        return h, {"kind": "mlp", "inputs": inputs, "acts": acts, "masks": masks}

    def _propagate_forward(self, g, fx, warm=None):
        cfg = self.cfg
        if cfg.backend == "unrolled":
            spec = cfg.energy_spec
            full = cfg.attention_grad == "full"
            y, layers = fx, []
            for layer in unroll(spec, g, fx, cfg.propagation):
                y = layer.y
                layers.append(tape_record(spec, layer, full, cfg.propagation.attention_schedule))
            return y, {"kind": "unrolled", "spec": spec, "layers": layers}
        if cfg.backend == "eignn":
            w_p = cfg.eignn.weight(self.params["f_mat"])
        else:
            w_p = self.params["w_p"]
        y0 = None if warm is None else warm.start("forward")
        res = fixed_point_solve(g, w_p, fx, cfg.fixed_point, y0=y0)
        if warm is not None:
            warm.record("forward", res.y)
        return res.y, {"kind": cfg.backend, "result": res, "w_p": w_p, "warm": warm}

    # -- backward -----------------------------------------------------------

    def backward(self, cache, d_logits):
        """Gradients of the loss wrt every trainable tensor."""
        grads = {}
        y = cache["y"]
        grads["w_g"] = d_logits.T @ y
        d_y = d_logits @ self.params["w_g"]
        d_fx = self._propagate_backward(cache, d_y, grads)
        self._predictor_backward(cache, d_fx, grads)
        return grads

    def _propagate_backward(self, cache, d_y, grads):
        prop = cache["prop"]
        g = cache["g"]
        fx = cache["fx"]
        if prop["kind"] == "unrolled":
            return unroll_backward(prop["spec"], g, fx, prop["layers"], d_y,
                                   self.cfg.attention_grad == "full")
        warm = prop["warm"]
        v0 = None if warm is None else warm.start("adjoint")
        grad_w, grad_fx = implicit_backward(g, prop["w_p"], fx, prop["result"].y, d_y,
                                            self.cfg.fixed_point, v0=v0)
        if warm is not None:
            warm.record("adjoint", grad_fx)
        if prop["kind"] == "eignn":
            grads["f_mat"] = eignn_grad_f(self.cfg.eignn, self.params["f_mat"], grad_w)
        elif self.cfg.train_w_p:
            grads["w_p"] = grad_w
        return grad_fx

    def _predictor_backward(self, cache, d_fx, grads):
        cfg = self.cfg
        pred = cache["pred"]
        if pred["kind"] == "linear":
            grads["w_x"] = cache["x_in"].T @ d_fx
            return
        inputs, acts, masks = pred["inputs"], pred["acts"], pred["masks"]
        n_layers = len(cfg.hidden) + 1
        d_h = d_fx
        for i in reversed(range(n_layers)):
            grads[f"mlp_w{i}"] = inputs[i].T @ d_h
            grads[f"mlp_b{i}"] = d_h.sum(axis=0)
            if i > 0:
                d_h = d_h @ self.params[f"mlp_w{i}"].T
                if masks[i - 1] is not None:
                    d_h = d_h * masks[i - 1] / (1.0 - cfg.dropout)
                a = acts[i - 1]
                if cfg.activation == "tanh":
                    d_h = d_h * (1.0 - a ** 2)
                else:
                    d_h = d_h * (a > 0)


# ---------------------------------------------------------------------------
# loss, metrics, training loop
# ---------------------------------------------------------------------------

def softmax_cross_entropy(logits, labels, rows):
    """Mean cross-entropy over the given rows; returns (loss, d_logits)
    with the gradient already zero off those rows."""
    rows = np.asarray(rows)
    sel = logits[rows]
    shifted = sel - sel.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    log_p = shifted - log_z[:, None]
    loss = -float(np.mean(log_p[np.arange(rows.size), labels[rows]]))
    probs = np.exp(log_p)
    probs[np.arange(rows.size), labels[rows]] -= 1.0
    d_logits = np.zeros_like(logits)
    d_logits[rows] = probs / rows.size
    return loss, d_logits


def predict(logits):
    # np.argmax breaks ties toward the lowest class index
    return np.argmax(logits, axis=1)


def accuracy(logits, labels, mask):
    rows = np.flatnonzero(mask)
    if rows.size == 0:
        return float("nan")
    return float(np.mean(predict(logits[rows]) == labels[rows]))


@dataclass
class Metrics:
    loss: np.ndarray
    acc_train: np.ndarray
    acc_val: np.ndarray
    acc_test: np.ndarray
    best_val_epoch: int
    best_val_acc: float
    test_acc_at_best: float
    diverged: bool = False

    def to_csv(self, path):
        write_csv(path, "train-metrics v1", ["epoch", "loss", "acc_train", "acc_val", "acc_test"],
                  zip(range(self.loss.size), self.loss, self.acc_train, self.acc_val,
                      self.acc_test))


def loss_and_grads(model, g, x, labels, train_rows, train_mode=False, dropout_rng=None,
                   warm=None):
    logits, cache = model.forward(g, x, train_mode=train_mode, dropout_rng=dropout_rng,
                                  warm=warm)
    loss, d_logits = softmax_cross_entropy(logits, labels, train_rows)
    grads = model.backward(cache, d_logits)
    return loss, logits, grads


_DIVERGENCE = (PropagationDivergence, FixedPointDivergence, FloatingPointError)


def train(g, x, labels, masks, model_cfg, train_cfg):
    """Full-batch gradient descent; deterministic for a fixed seed.

    Returns (model, metrics); the model carries the best-validation
    parameters.  Divergence of any backend aborts early and flags the
    partial metrics, also when the final evaluation diverges (then
    ``test_acc_at_best`` is nan).  An empty training mask raises
    ValueError before the first epoch.  Each epoch's fixed-point solves
    start from earlier epochs' solutions (:class:`_WarmStart`).  The final
    evaluation, and under dropout each epoch's accuracies, come from a
    forward without dropout whose solves start from zeros.
    """
    labels = np.asarray(labels)
    bad = np.flatnonzero((labels < 0) | (labels >= model_cfg.n_classes))
    if bad.size:
        raise ValueError(f"node {bad[0]} has label {labels[bad[0]]}; labels must lie "
                         f"in [0, {model_cfg.n_classes})")
    train_rows = np.flatnonzero(masks["train"])
    if train_rows.size == 0:
        raise ValueError("the training mask is empty: no node to fit")
    model = Model(x.shape[1], model_cfg, seed=train_cfg.seed, g=g)
    dropout_rng = np.random.default_rng(train_cfg.seed + 1)
    velocity = {k: np.zeros_like(v) for k, v in model.params.items()}
    hist = {"loss": [], "train": [], "val": [], "test": []}
    best = (-1.0, -1, None)  # (val acc, epoch, params)
    diverged = False
    warm = _WarmStart()
    for epoch in range(train_cfg.epochs):
        # an overflow on the way to a divergence is flagged by the checks
        # below, not raised, even where warnings are errors
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                loss, logits, grads = loss_and_grads(
                    model, g, x, labels, train_rows,
                    train_mode=model_cfg.dropout > 0, dropout_rng=dropout_rng, warm=warm)
                if model_cfg.dropout > 0:
                    logits, _ = model.forward(g, x)
            except _DIVERGENCE:
                diverged = True
                break
            if not np.isfinite(loss):
                diverged = True
                break
            hist["loss"].append(loss)
            hist["train"].append(accuracy(logits, labels, masks["train"]))
            hist["val"].append(accuracy(logits, labels, masks["val"]))
            hist["test"].append(accuracy(logits, labels, masks["test"]))
            if hist["val"][-1] > best[0]:
                best = (hist["val"][-1], epoch, {k: v.copy() for k, v in model.params.items()})
            for name in model.trainable_names():
                step = grads[name] + train_cfg.weight_decay * model.params[name]
                velocity[name] = train_cfg.momentum * velocity[name] - train_cfg.lr * step
                model.params[name] += velocity[name]
            if model_cfg.backend == "implicit" and model_cfg.train_w_p:
                model.params["w_p"] = project_weights(
                    model.params["w_p"], g.operators(model_cfg.kind),
                    margin=model_cfg.contraction_margin)
    if best[2] is not None:
        model.params = best[2]
    test_acc = float("nan")
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            # when no epoch finished, these are the parameters that diverged
            logits, _ = model.forward(g, x)
            test_acc = accuracy(logits, labels, masks["test"])
        except _DIVERGENCE:
            diverged = True
    return model, Metrics(
        loss=np.array(hist["loss"]),
        acc_train=np.array(hist["train"]),
        acc_val=np.array(hist["val"]),
        acc_test=np.array(hist["test"]),
        best_val_epoch=best[1],
        best_val_acc=best[0],
        test_acc_at_best=test_acc,
        diverged=diverged,
    )


def finite_difference_check(model, g, x, labels, train_rows, delta=1e-5,
                            rel_tol=1e-4, abs_tol=1e-8):
    """Central differences on every trainable scalar vs the analytic
    gradients.  Returns the worst relative error (with an absolute
    floor for near-zero gradients) and the per-tensor breakdown."""
    base_loss, _, grads = loss_and_grads(model, g, x, labels, train_rows)
    report = {"max_rel_err": 0.0, "per_tensor": {}, "ok": True, "base_loss": base_loss}
    for name in model.trainable_names():
        tensor = model.params[name]
        worst = 0.0
        it = np.nditer(tensor, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = tensor[idx]
            tensor[idx] = orig + delta
            lp, _, _ = loss_and_grads(model, g, x, labels, train_rows)
            tensor[idx] = orig - delta
            lm, _, _ = loss_and_grads(model, g, x, labels, train_rows)
            tensor[idx] = orig
            fd = (lp - lm) / (2 * delta)
            an = grads[name][idx]
            denom = max(abs(fd), abs(an))
            err = abs(fd - an) / denom if denom > abs_tol else 0.0
            worst = max(worst, float(err))
        report["per_tensor"][name] = worst
        report["max_rel_err"] = max(report["max_rel_err"], worst)
    report["ok"] = bool(report["max_rel_err"] <= rel_tol)
    return report


def min_preactivation_margin(model, g, x):
    """Smallest distance of a pre-prox entry from a kink of its layer's
    prox across unrolled steps: relu's kink is at 0, soft_threshold's at
    |u| = alpha * kappa.  Finite difference checks need this away from
    the kinks.  The tape keeps no pre-prox point, so the layers are run
    again from the forward's f(X)."""
    cfg = model.cfg
    spec = cfg.energy_spec
    if cfg.backend != "unrolled" or spec.phi.kind == "zero":
        return np.inf
    _, cache = model.forward(g, x)
    kink = spec.phi.kappa if spec.phi.kind == "soft_threshold" else 0.0
    return min((float(np.abs(np.abs(layer.u) - kink * layer.alpha).min())
                for layer in unroll(spec, g, cache["fx"], cfg.propagation)), default=np.inf)


# ---------------------------------------------------------------------------
# checkpoints: one flat float64 blob plus a text manifest
# ---------------------------------------------------------------------------

def save_checkpoint(params, directory):
    os.makedirs(directory, exist_ok=True)
    names = sorted(params)
    offset = 0
    lines = ["# schema: checkpoint-manifest v1"]
    with open(os.path.join(directory, "params.bin"), "wb") as fh:
        for name in names:
            arr = np.ascontiguousarray(params[name], dtype=np.float64)
            fh.write(arr.tobytes())
            shape = "x".join(str(s) for s in arr.shape) or "scalar"
            lines.append(f"{name} {shape} {offset} {arr.size}")
            offset += arr.size
    with open(os.path.join(directory, "manifest.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class CheckpointError(ValueError):
    pass


def load_checkpoint(directory):
    """Read a checkpoint; a params.bin that disagrees with its manifest
    raises CheckpointError naming the file and the manifest line."""
    blob_path = os.path.join(directory, "params.bin")
    manifest_path = os.path.join(directory, "manifest.txt")
    try:
        blob = np.fromfile(blob_path, dtype=np.float64)
    except OSError as exc:
        raise CheckpointError(f"cannot read {blob_path}: {exc.strerror}")
    params = {}
    end = 0
    for where, line in text_lines(manifest_path, CheckpointError):
        try:
            name, shape, offset, size = line.split()
            offset, size = int(offset), int(size)
            dims = () if shape == "scalar" else tuple(int(s) for s in shape.split("x"))
        except ValueError:
            raise CheckpointError(f"{where}: expected 'name shape offset size', got {line!r}")
        if offset < 0 or size != int(np.prod(dims)):
            raise CheckpointError(f"{where}: offset {offset} and size {size} do not fit "
                                  f"shape {shape}")
        if offset + size > blob.size:
            raise CheckpointError(f"{blob_path} holds {blob.size} values, but {where} "
                                  f"needs {offset + size}")
        end = max(end, offset + size)
        arr = blob[offset:offset + size]
        if shape != "scalar":
            arr = arr.reshape(dims)
        params[name] = arr.copy()
    nbytes = os.path.getsize(blob_path)
    if nbytes != blob.itemsize * end:
        raise CheckpointError(f"{blob_path} is {nbytes} bytes, but {manifest_path} accounts "
                              f"for {end} float64 values ({blob.itemsize * end} bytes)")
    return params
