"""End-to-end trainable pipeline around the propagation engines.

A model is a base predictor f(X) (linear map or small MLP), one of the
three embedding backends (unrolled descent layers, implicit fixed
point, or the linear symmetric implicit special case), and a linear
output head with softmax cross-entropy.  The unrolled backend runs
``unfold``'s layer loop (:func:`unfold.unroll`) under the
:class:`unfold.PropagationConfig` its config builds, and keeps each
layer's record as its backward tape.  Backward passes are written by
hand: the unrolled backend backpropagates through every recorded layer,
the implicit backends use the adjoint fixed-point solve.

Edge reweighting during unrolled training is treated as a constant
within each backward pass by default (the majorize-then-minimize
reading); ``attention_grad="full"`` also differentiates the weights
through their generating embeddings, which is what the finite
difference checks exercise.
"""

from dataclasses import dataclass, field

import numpy as np

from .energy import EnergySpec, Phi, Rho, edge_diagonal, phi_zero, rho_identity
from .graph import LaplacianKind, incidence, propagation_matrix
from .implicit import (
    EignnSpec,
    FixedPointConfig,
    eignn_grad_f,
    fixed_point_solve,
    implicit_backward,
    project_weights,
)
from .unfold import PropagationConfig, PropagationDivergence, normalized_step, unroll
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
    sigma: Phi | None = None
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
        if self.fp_tol <= 0:
            raise ValueError("fp_tol must be positive")
        if self.fp_max_iters < 1:
            raise ValueError("fp_max_iters must be at least 1")
        if not 0 < self.contraction_margin < 1:
            raise ValueError("contraction_margin must lie in (0, 1)")
        if not 0 <= self.mu < 1:
            raise ValueError("mu must lie in [0, 1)")
        if self.eps_f <= 0:
            raise ValueError("eps_f must be positive")
        if not 0 <= self.dropout < 1:
            raise ValueError("dropout must lie in [0, 1)")
        # building the layer plan checks steps, alpha, variant and schedule
        if self.propagation.variant == "preconditioned":
            raise ValueError("variant must be 'plain' or 'normalized'")
        if self.variant == "normalized" and self.attention_grad == "full":
            raise ValueError("full attention differentiation is supported for "
                             "the plain variant only")

    @property
    def propagation(self):
        """The layer plan the unrolled backend runs."""
        return PropagationConfig(steps=self.steps, alpha=self.alpha, variant=self.variant,
                                 attention_schedule=self.attention_schedule,
                                 record_trace=False)


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
        if self.lr < 0:
            raise ValueError("lr must be nonnegative")


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

    def forward(self, g, x, train_mode=False, dropout_rng=None):
        """Returns (logits over all nodes, cache for backward)."""
        cfg = self.cfg
        cache = {"g": g}
        x_in = np.asarray(x, dtype=float)
        if cfg.pre_propagate:
            x_in = propagation_matrix(g, cfg.kind) @ x_in
        cache["x_in"] = x_in
        fx, pred_cache = self._predictor_forward(x_in, train_mode, dropout_rng)
        cache["pred"] = pred_cache
        cache["fx"] = fx
        y, prop_cache = self._propagate_forward(g, fx)
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

    def _energy_spec(self):
        cfg = self.cfg
        if cfg.energy is not None:
            return cfg.energy
        return EnergySpec(rho=cfg.rho, phi=cfg.phi, lam=cfg.lam, kind=cfg.kind)

    def _propagate_forward(self, g, fx):
        cfg = self.cfg
        if cfg.backend == "implicit":
            fp_cfg = FixedPointConfig(sigma=cfg.sigma, tol=cfg.fp_tol,
                                      max_iters=cfg.fp_max_iters, kind=cfg.kind)
            res = fixed_point_solve(g, self.params["w_p"], fx, fp_cfg)
            return res.y, {"kind": "implicit", "result": res, "fp_cfg": fp_cfg}
        if cfg.backend == "eignn":
            spec = EignnSpec(f_mat=self.params["f_mat"], mu=cfg.mu, eps_f=cfg.eps_f)
            fp_cfg = FixedPointConfig(sigma=None, tol=cfg.fp_tol,
                                      max_iters=cfg.fp_max_iters, kind=cfg.kind)
            res = fixed_point_solve(g, spec.weight(), fx, fp_cfg)
            return res.y, {"kind": "eignn", "result": res, "spec": spec, "fp_cfg": fp_cfg}
        return self._unrolled_forward(g, fx)

    def _unrolled_forward(self, g, fx):
        spec = self._energy_spec()
        ys, us, alphas, segments = [fx], [], [], []
        for layer in unroll(spec, g, fx, self.cfg.propagation):
            ys.append(layer.y)
            us.append(layer.u)
            alphas.append(layer.alpha)
            segments.append((layer.gamma_step, layer.gamma))  # (generating step, gamma)
        return ys[-1], {"kind": "unrolled", "spec": spec, "bview": incidence(g, spec.kind),
                        "g": g, "ys": ys, "us": us, "alphas": alphas, "segments": segments}

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
        if prop["kind"] == "implicit":
            grad_w_p, grad_fx = implicit_backward(
                g, self.params["w_p"], fx, prop["result"].y, d_y, prop["fp_cfg"])
            if self.cfg.train_w_p:
                grads["w_p"] = grad_w_p
            return grad_fx
        if prop["kind"] == "eignn":
            spec = prop["spec"]
            grad_w, grad_fx = implicit_backward(
                g, spec.weight(), fx, prop["result"].y, d_y, prop["fp_cfg"])
            grads["f_mat"] = eignn_grad_f(spec, grad_w)
            return grad_fx
        return self._unrolled_backward(prop, fx, d_y)

    def _unrolled_backward(self, prop, fx, d_y):
        cfg = self.cfg
        spec = prop["spec"]
        bview = prop["bview"]
        ys, us, alphas = prop["ys"], prop["us"], prop["alphas"]
        segments = prop["segments"]
        d_fx = np.zeros_like(fx)
        d_gamma_acc = {}
        for k in reversed(range(len(us))):
            alpha = alphas[k]
            seg_start, gamma = segments[k]
            d_u = spec.phi.prox_derivative(us[k], alpha) * d_y
            if cfg.variant == "normalized":
                d_fx += alpha * d_u
                d_y = normalized_step(prop["g"], d_u, 0.0, alpha, spec.lam, gamma=gamma)
                continue
            d_fx += _fx_pullback(spec, d_u, alpha)
            d_y = _state_pullback(spec, bview, d_u, gamma, alpha)
            if cfg.attention_grad == "full" and seg_start >= 0:
                # d(loss)/d(gamma_e) from this step's weighted-Laplacian term
                coeff = _gamma_coefficient(spec, bview, d_u, ys[k], alpha)
                d_gamma_acc[seg_start] = d_gamma_acc.get(seg_start, 0.0) + coeff
            if cfg.attention_grad == "full" and k in d_gamma_acc and k == seg_start:
                d_y = d_y + _gamma_generator_pullback(
                    spec, bview, ys[k], d_gamma_acc.pop(k))
        d_fx += d_y  # Y0 = f(X)
        return d_fx

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


def _fx_pullback(spec, d_u, alpha):
    if spec.simple or spec.gradient_mode == "literal":
        return alpha * d_u
    return alpha * d_u @ spec.w_fid_sym()


def _state_pullback(spec, bview, d_u, gamma, alpha):
    lap_du = bview.weighted_laplacian_apply(d_u, gamma)
    if spec.simple:
        return (1.0 - alpha) * d_u - alpha * spec.lam * lap_du
    return d_u - alpha * (lap_du @ spec.w_prop_sym() + d_u @ spec.w_fid_sym())


def _gamma_coefficient(spec, bview, d_u, y_k, alpha):
    """dU/dgamma_e contracted with d_u: per-edge inner products of the
    incidence rows of d_u and of the state the step propagated."""
    scale = spec.lam if spec.simple else 1.0
    rhs = y_k @ spec.w_prop_sym() if not spec.simple else y_k
    e_du = bview.apply(d_u)
    e_y = bview.apply(rhs)
    return -alpha * scale * np.einsum("ij,ij->i", e_du, e_y)


def _gamma_generator_pullback(spec, bview, y_r, d_gamma):
    """Chain d(loss)/d(gamma) through gamma = rho'(edge args at Y_r).

    Simple mode measures raw endpoint distances (matching the gamma
    refresh); general mode measures the scaled-incidence quadratic form.
    """
    args = edge_diagonal(spec, bview, y_r)
    weights = d_gamma * spec.rho.grad2(args)
    if spec.simple:
        return 2.0 * bview.raw_apply_t(weights[:, None] * bview.raw_apply(y_r))
    w_sym = spec.w_prop + spec.w_prop.T
    return bview.apply_t(weights[:, None] * bview.apply(y_r @ w_sym))


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


def confusion_counts(logits, labels, mask, n_classes):
    rows = np.flatnonzero(mask)
    pred = predict(logits[rows])
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    for t, p in zip(labels[rows], pred):
        counts[t, p] += 1
    return counts


@dataclass
class Metrics:
    loss: np.ndarray
    acc_train: np.ndarray
    acc_val: np.ndarray
    acc_test: np.ndarray
    best_val_epoch: int
    best_val_acc: float
    test_acc_at_best: float
    confusion: np.ndarray
    diverged: bool = False

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            fh.write("# schema: train-metrics v1\n")
            fh.write("epoch,loss,acc_train,acc_val,acc_test\n")
            for e in range(self.loss.size):
                fh.write(f"{e},{self.loss[e]},{self.acc_train[e]},"
                         f"{self.acc_val[e]},{self.acc_test[e]}\n")


def loss_and_grads(model, g, x, labels, train_rows, train_mode=False, dropout_rng=None):
    logits, cache = model.forward(g, x, train_mode=train_mode, dropout_rng=dropout_rng)
    loss, d_logits = softmax_cross_entropy(logits, labels, train_rows)
    grads = model.backward(cache, d_logits)
    return loss, logits, grads


def train(g, x, labels, masks, model_cfg, train_cfg):
    """Full-batch gradient descent; deterministic for a fixed seed.

    Returns (model, metrics); the model carries the best-validation
    parameters.  Divergence aborts early and flags the partial metrics.
    """
    labels = np.asarray(labels)
    bad = np.flatnonzero((labels < 0) | (labels >= model_cfg.n_classes))
    if bad.size:
        raise ValueError(f"node {bad[0]} has label {labels[bad[0]]}; labels must lie "
                         f"in [0, {model_cfg.n_classes})")
    model = Model(x.shape[1], model_cfg, seed=train_cfg.seed, g=g)
    dropout_rng = np.random.default_rng(train_cfg.seed + 1)
    train_rows = np.flatnonzero(masks["train"])
    velocity = {k: np.zeros_like(v) for k, v in model.params.items()}
    hist = {"loss": [], "train": [], "val": [], "test": []}
    best = (-1.0, -1, None)  # (val acc, epoch, params)
    diverged = False
    for epoch in range(train_cfg.epochs):
        try:
            loss, logits, grads = loss_and_grads(
                model, g, x, labels, train_rows,
                train_mode=model_cfg.dropout > 0, dropout_rng=dropout_rng)
        except (PropagationDivergence, FloatingPointError):
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
    logits, _ = model.forward(g, x)
    confusion = confusion_counts(logits, labels, masks["test"], model_cfg.n_classes)
    return model, Metrics(
        loss=np.array(hist["loss"]),
        acc_train=np.array(hist["train"]),
        acc_val=np.array(hist["val"]),
        acc_test=np.array(hist["test"]),
        best_val_epoch=best[1],
        best_val_acc=best[0],
        test_acc_at_best=accuracy(logits, labels, masks["test"]),
        confusion=confusion,
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
    """Smallest |pre-prox| magnitude across unrolled steps; finite
    difference checks need this away from the kinks."""
    _, cache = model.forward(g, x)
    prop = cache["prop"]
    if prop["kind"] != "unrolled" or not prop["us"]:
        return np.inf
    if prop["spec"].phi.kind == "zero":
        return np.inf
    return min(float(np.abs(u).min()) for u in prop["us"])


# ---------------------------------------------------------------------------
# checkpoints: one flat float64 blob plus a text manifest
# ---------------------------------------------------------------------------

def save_checkpoint(params, directory):
    import os

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
    with open(os.path.join(directory, "manifest.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


class CheckpointError(ValueError):
    pass


def load_checkpoint(directory):
    """Read a checkpoint; a params.bin that disagrees with its manifest
    raises CheckpointError naming the file and the manifest line."""
    import os

    blob_path = os.path.join(directory, "params.bin")
    manifest_path = os.path.join(directory, "manifest.txt")
    blob = np.fromfile(blob_path, dtype=np.float64)
    params = {}
    end = 0
    with open(manifest_path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            where = f"{manifest_path}:{lineno}"
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
