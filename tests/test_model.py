import numpy as np
import pytest

from unfoldgnn import implicit
from unfoldgnn import model as model_module
from unfoldgnn.data import SbmSpec, sbm_generate
from unfoldgnn.energy import (
    EnergySpec,
    from_symmetric_pair,
    phi_relu,
    phi_soft_threshold,
    phi_zero,
    rho_identity,
    rho_log,
)
from unfoldgnn.graph import LaplacianKind, build_graph, propagation_matrix, spectral_norm
from unfoldgnn.implicit import (
    EignnSpec,
    FixedPointConfig,
    eignn_grad_f,
    fixed_point_solve,
    implicit_backward,
    project_weights,
)
from unfoldgnn.model import (
    CheckpointError,
    Model,
    ModelConfig,
    TrainConfig,
    accuracy,
    finite_difference_check,
    load_checkpoint,
    loss_and_grads,
    min_preactivation_margin,
    predict,
    save_checkpoint,
    softmax_cross_entropy,
    train,
)
from unfoldgnn.unfold import PropagationConfig, propagate, sandwich_schedule, unroll

SELF = LaplacianKind.SELF_LOOP_SYM


def random_graph(rng, n, p=0.35):
    mask = np.triu(rng.random((n, n)) < p, k=1)
    pairs = np.argwhere(mask)
    if pairs.shape[0] == 0:
        pairs = np.array([[0, 1]])
    return build_graph(n, pairs)


def small_instance(seed, n=10, d_in=4, c=3):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n)
    x = rng.normal(size=(n, d_in))
    labels = rng.integers(0, c, size=n)
    rows = np.arange(n)
    return g, x, labels, rows


def two_block_instance(seed, n_per=30, d_in=6, sep=2.5, p_in=0.3):
    """Separable two-community graph with informative features."""
    rng = np.random.default_rng(seed)
    n = 2 * n_per
    labels = np.repeat([0, 1], n_per)
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            same = labels[i] == labels[j]
            if same and rng.random() < p_in:
                pairs.append((i, j))
    g = build_graph(n, pairs if pairs else [(0, 1)])
    means = np.zeros((2, d_in))
    means[0, 0] = sep / 2
    means[1, 0] = -sep / 2
    x = means[labels] + rng.normal(size=(n, d_in))
    order = rng.permutation(n)
    masks = {
        "train": np.zeros(n, dtype=bool),
        "val": np.zeros(n, dtype=bool),
        "test": np.zeros(n, dtype=bool),
    }
    masks["train"][order[: n // 5]] = True
    masks["val"][order[n // 5: 2 * n // 5]] = True
    masks["test"][order[2 * n // 5:]] = True
    return g, x, labels, masks


class TestConfigValidation:
    @pytest.mark.parametrize("overrides, message", [
        (dict(embed_dim=0), "embed_dim must be at least 1"),
        (dict(n_classes=0), "n_classes must be at least 1"),
        (dict(predictor="mlp", hidden=(8, 0)), "hidden widths must be at least 1"),
        (dict(hidden=(-2,)), "hidden widths must be at least 1"),
        (dict(backend="implicit", fp_max_iters=0), "fp_max_iters must be at least 1"),
        (dict(backend="eignn", fp_tol=0.0), "fp_tol must be positive"),
        (dict(lam=-1.0), "lam must be nonnegative"),
        (dict(steps=-1), "steps must be >= 0"),
        (dict(variant="preconditioned"), "variant must be 'plain' or 'normalized'"),
        (dict(fp_tol=float("nan")), "fp_tol must be positive and finite, got nan"),
        (dict(eps_f=float("inf")), "eps_f must be positive and finite, got inf"),
        (dict(mu=float("nan")), r"mu must lie in \[0, 1\)"),
    ])
    def test_bad_sizes_rejected(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            ModelConfig(**overrides)

    def test_engine_configs_built_once_at_construction(self):
        cfg = ModelConfig(backend="eignn", mu=0.7, eps_f=0.2, sigma=phi_relu())
        assert cfg.eignn == EignnSpec(mu=0.7, eps_f=0.2)
        assert cfg.eignn is cfg.eignn and cfg.fixed_point is cfg.fixed_point
        # eignn's activation is the identity whatever sigma says
        assert cfg.fixed_point.sigma == phi_zero()
        assert ModelConfig(backend="implicit").fixed_point.sigma == phi_zero()


class TestLossAndHead:
    def test_uniform_logits_log_c(self):
        logits = np.zeros((6, 4))
        labels = np.array([0, 1, 2, 3, 0, 1])
        loss, _ = softmax_cross_entropy(logits, labels, np.arange(6))
        assert loss == pytest.approx(np.log(4.0))

    def test_confident_logits_near_zero(self):
        labels = np.array([0, 1])
        logits = np.array([[20.0, 0.0, 0.0], [0.0, 20.0, 0.0]])
        loss, _ = softmax_cross_entropy(logits, labels, np.arange(2))
        assert loss < 1e-8

    def test_two_row_hand_case(self):
        logits = np.array([[1.0, 0.0], [0.5, 1.5]])
        labels = np.array([0, 1])
        loss, d = softmax_cross_entropy(logits, labels, np.arange(2))
        p0 = np.exp(1.0) / (np.exp(1.0) + 1.0)
        p1 = np.exp(1.5) / (np.exp(0.5) + np.exp(1.5))
        assert loss == pytest.approx(-0.5 * (np.log(p0) + np.log(p1)))
        np.testing.assert_allclose(d[0], [(p0 - 1) / 2, (1 - p0) / 2], atol=1e-12)

    def test_gradient_restricted_to_rows(self):
        logits = np.ones((5, 3))
        labels = np.zeros(5, dtype=int)
        _, d = softmax_cross_entropy(logits, labels, np.array([1, 3]))
        assert np.all(d[[0, 2, 4]] == 0)

    def test_argmax_scale_invariance(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(20, 4))
        np.testing.assert_array_equal(predict(logits), predict(3.7 * logits))

    def test_tie_breaks_to_lowest_class(self):
        logits = np.array([[1.0, 1.0, 0.0]])
        assert predict(logits)[0] == 0


class TestForward:
    def test_zero_steps_linear_identity_head(self):
        g, x, labels, rows = small_instance(1)
        cfg = ModelConfig(backend="unrolled", steps=0, embed_dim=4, n_classes=4,
                          predictor="linear")
        model = Model(x.shape[1], cfg, seed=0)
        model.params["w_g"] = np.eye(4)
        logits, _ = model.forward(g, x)
        np.testing.assert_allclose(logits, x @ model.params["w_x"], atol=1e-12)

    def test_unrolled_matches_dense_linear_recursion(self):
        g, x, labels, rows = small_instance(2)
        cfg = ModelConfig(backend="unrolled", steps=6, alpha=0.2, lam=0.8,
                          embed_dim=3, n_classes=2, kind=SELF)
        model = Model(x.shape[1], cfg, seed=3)
        logits, _ = model.forward(g, x)
        lap = np.eye(g.n) - propagation_matrix(g, SELF).toarray()
        f = x @ model.params["w_x"]
        y = f.copy()
        for _ in range(6):
            y = y - 0.2 * ((0.8 * lap + np.eye(g.n)) @ y - f)
        np.testing.assert_allclose(logits, y @ model.params["w_g"].T, atol=1e-10)

    def test_implicit_zero_weight_equals_depth_zero(self):
        g, x, labels, rows = small_instance(3)
        cfg = ModelConfig(backend="implicit", embed_dim=4, n_classes=3, train_w_p=True)
        model = Model(x.shape[1], cfg, seed=0)
        model.params["w_p"] = np.zeros((4, 4))
        logits, _ = model.forward(g, x)
        f = x @ model.params["w_x"]
        np.testing.assert_allclose(logits, f @ model.params["w_g"].T, atol=1e-12)

    def test_train_eval_identical_without_dropout(self):
        g, x, labels, rows = small_instance(4)
        cfg = ModelConfig(predictor="mlp", hidden=(8,), dropout=0.0,
                          embed_dim=4, n_classes=3, steps=4)
        model = Model(x.shape[1], cfg, seed=0)
        rng = np.random.default_rng(0)
        a, _ = model.forward(g, x, train_mode=True, dropout_rng=rng)
        b, _ = model.forward(g, x, train_mode=False)
        np.testing.assert_array_equal(a, b)

    def test_pre_propagate_applies_operator_once(self):
        g, x, labels, rows = small_instance(5)
        cfg = ModelConfig(steps=0, embed_dim=4, n_classes=2, pre_propagate=True, kind=SELF)
        model = Model(x.shape[1], cfg, seed=1)
        logits, _ = model.forward(g, x)
        px = propagation_matrix(g, SELF) @ x
        np.testing.assert_allclose(
            logits, (px @ model.params["w_x"]) @ model.params["w_g"].T, atol=1e-12
        )


class TestPreactivationMargin:
    def test_soft_threshold_margin_is_distance_to_its_kink(self):
        # K=1, lam=0 and Y0 = f(X): the pre-prox point is u = f(X) = X
        alpha, kappa = 0.5, 1.0
        g = build_graph(3, [(0, 1), (1, 2)])
        x = np.array([[alpha * kappa + 5e-8, -2.0], [1.5, 2.0], [-1.5, 3.0]])
        cfg = ModelConfig(steps=1, alpha=alpha, lam=0.0, embed_dim=2, n_classes=2,
                          phi=phi_soft_threshold(kappa), kind=SELF)
        model = Model(2, cfg, seed=0)
        model.params["w_x"] = np.eye(2)
        assert min_preactivation_margin(model, g, x) < 1e-3

    def test_relu_margin_is_smallest_magnitude(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        x = np.array([[0.25, -2.0], [1.5, 2.0], [-1.5, 3.0]])
        cfg = ModelConfig(steps=1, alpha=0.5, lam=0.0, embed_dim=2, n_classes=2,
                          phi=phi_relu(), kind=SELF)
        model = Model(2, cfg, seed=0)
        model.params["w_x"] = np.eye(2)
        assert min_preactivation_margin(model, g, x) == 0.25


class TestGradients:
    @pytest.mark.parametrize("phi_kind", ["zero", "relu"])
    def test_unrolled_linear_predictor(self, phi_kind):
        phi = phi_zero() if phi_kind == "zero" else phi_relu()
        for seed in range(3):
            g, x, labels, rows = small_instance(10 + seed, n=8, d_in=3, c=2)
            cfg = ModelConfig(backend="unrolled", steps=4, alpha=0.15, lam=0.6,
                              embed_dim=3, n_classes=2, phi=phi, kind=SELF)
            model = Model(x.shape[1], cfg, seed=seed)
            if phi_kind == "relu" and min_preactivation_margin(model, g, x) < 1e-3:
                continue  # resampled instance would sit on a kink
            report = finite_difference_check(model, g, x, labels, rows)
            assert report["ok"], report

    def test_unrolled_mlp_predictor(self):
        g, x, labels, rows = small_instance(20, n=9, d_in=4, c=3)
        cfg = ModelConfig(backend="unrolled", steps=3, alpha=0.2, lam=1.0,
                          embed_dim=3, n_classes=3, predictor="mlp",
                          hidden=(5,), activation="tanh", kind=SELF)
        model = Model(x.shape[1], cfg, seed=2)
        report = finite_difference_check(model, g, x, labels, rows)
        assert report["ok"], report

    def test_unrolled_relu_mlp_predictor(self):
        g, x, labels, rows = small_instance(20, n=9, d_in=4, c=3)
        cfg = ModelConfig(backend="unrolled", steps=3, alpha=0.2, lam=1.0,
                          embed_dim=3, n_classes=3, predictor="mlp",
                          hidden=(5,), activation="relu", kind=SELF)
        model = Model(x.shape[1], cfg, seed=2)
        # away from relu's kink, some units on and some off
        z = x @ model.params["mlp_w0"] + model.params["mlp_b0"]
        assert np.abs(z).min() > 1e-3 and (z > 0).any() and (z < 0).any()
        report = finite_difference_check(model, g, x, labels, rows)
        assert report["ok"], report

    def test_unrolled_attention_full_gradient(self):
        # smooth rho so the reweighting is differentiable everywhere
        g, x, labels, rows = small_instance(21, n=8, d_in=3, c=2)
        cfg = ModelConfig(backend="unrolled", steps=5, alpha=0.1, lam=0.8,
                          embed_dim=3, n_classes=2, rho=rho_log(eps=0.5),
                          attention_schedule=(1, 3), attention_grad="full", kind=SELF)
        model = Model(x.shape[1], cfg, seed=4)
        report = finite_difference_check(model, g, x, labels, rows)
        assert report["ok"], report

    def test_unrolled_attention_stop_gradient_biased(self):
        # stop-gradient is intentionally not the exact derivative
        g, x, labels, rows = small_instance(22, n=8, d_in=3, c=2)
        for grad_mode, expect_ok in (("full", True), ("stop", False)):
            cfg = ModelConfig(backend="unrolled", steps=4, alpha=0.1, lam=2.0,
                              embed_dim=3, n_classes=2, rho=rho_log(eps=0.2),
                              attention_schedule=(0, 2), attention_grad=grad_mode,
                              kind=SELF)
            model = Model(x.shape[1], cfg, seed=5)
            report = finite_difference_check(model, g, x, labels, rows)
            assert report["ok"] == expect_ok, (grad_mode, report)

    @pytest.mark.parametrize("sigma_kind", ["identity", "relu"])
    def test_implicit_backend(self, sigma_kind):
        sigma = phi_zero() if sigma_kind == "identity" else phi_relu()
        g, x, labels, rows = small_instance(30, n=8, d_in=3, c=2)
        cfg = ModelConfig(backend="implicit", embed_dim=3, n_classes=2,
                          sigma=sigma, fp_tol=1e-12, kind=SELF)
        model = Model(x.shape[1], cfg, seed=1, g=g)
        report = finite_difference_check(model, g, x, labels, rows)
        assert report["ok"], report

    def test_eignn_backend(self):
        g, x, labels, rows = small_instance(31, n=8, d_in=3, c=2)
        cfg = ModelConfig(backend="eignn", embed_dim=3, n_classes=2,
                          mu=0.7, eps_f=0.2, fp_tol=1e-12, kind=SELF)
        model = Model(x.shape[1], cfg, seed=2)
        report = finite_difference_check(model, g, x, labels, rows)
        assert report["ok"], report

    def test_implicit_frozen_zero_weight_matches_plain_linear_model(self):
        g, x, labels, rows = small_instance(32, n=8, d_in=3, c=2)
        cfg = ModelConfig(backend="implicit", embed_dim=3, n_classes=2,
                          train_w_p=False, kind=SELF)
        model = Model(x.shape[1], cfg, seed=3)
        model.params["w_p"] = np.zeros((3, 3))
        _, _, grads = loss_and_grads(model, g, x, labels, rows)
        # supervised linear model oracle: logits = X Wx Wg^T
        f = x @ model.params["w_x"]
        loss, d_logits = softmax_cross_entropy(f @ model.params["w_g"].T, labels, rows)
        np.testing.assert_allclose(grads["w_x"], x.T @ (d_logits @ model.params["w_g"]),
                                   atol=1e-10)
        np.testing.assert_allclose(grads["w_g"], d_logits.T @ f, atol=1e-10)

    def test_unrolled_at_convergence_matches_implicit_gradient(self):
        rng = np.random.default_rng(33)
        g = random_graph(rng, 9)
        x = rng.normal(size=(9, 3))
        labels = rng.integers(0, 2, size=9)
        rows = np.arange(9)
        d = 3
        p_dense = propagation_matrix(g, SELF).toarray()
        a = rng.normal(size=(d, d))
        w_sym = project_weights(a + a.T, p_dense, margin=0.6)
        spec = from_symmetric_pair(w_sym, np.eye(d) - w_sym, rho=rho_identity(),
                                   phi=phi_zero(), kind=SELF, gradient_mode="literal")
        ucfg = ModelConfig(backend="unrolled", steps=220, alpha=1.0, embed_dim=d,
                           n_classes=2, energy=spec, kind=SELF)
        icfg = ModelConfig(backend="implicit", embed_dim=d, n_classes=2,
                           fp_tol=1e-12, train_w_p=False, kind=SELF)
        um = Model(x.shape[1], ucfg, seed=7)
        im = Model(x.shape[1], icfg, seed=7)
        im.params["w_x"] = um.params["w_x"].copy()
        im.params["w_g"] = um.params["w_g"].copy()
        im.params["w_p"] = w_sym
        _, _, gu = loss_and_grads(um, g, x, labels, rows)
        _, _, gi = loss_and_grads(im, g, x, labels, rows)
        rel = np.linalg.norm(gu["w_x"] - gi["w_x"]) / np.linalg.norm(gi["w_x"])
        assert rel < 1e-3

    def test_corrupted_gradient_detected(self):
        g, x, labels, rows = small_instance(34, n=8, d_in=3, c=2)
        cfg = ModelConfig(backend="unrolled", steps=3, alpha=0.2, embed_dim=3,
                          n_classes=2, kind=SELF)
        model = Model(x.shape[1], cfg, seed=0)

        report = finite_difference_check(model, g, x, labels, rows)
        assert report["ok"]
        original_backward = model.backward

        def corrupted(cache, d_logits):
            grads = original_backward(cache, d_logits)
            grads["w_x"] = grads["w_x"] + 0.05
            return grads

        model.backward = corrupted
        report = finite_difference_check(model, g, x, labels, rows)
        assert not report["ok"]


PARITY_STEPS = 6
PARITY_SCHEDULES = {
    "none": (),
    "sandwich": sandwich_schedule(PARITY_STEPS),
    "every": tuple(range(PARITY_STEPS)),
}


def _parity_spec(simple, d):
    rho = rho_log(eps=0.5)
    if simple:
        return EnergySpec(rho=rho, phi=phi_relu(), lam=0.8, kind=SELF)
    a = np.random.default_rng(41).normal(size=(d, d))
    return EnergySpec(rho=rho, phi=phi_relu(), kind=SELF, simple=False,
                      w_fid=0.5 * np.eye(d), w_prop=0.3 * a @ a.T / d)


class TestUnrolledMatchesPropagate:
    """The unrolled backend's forward is propagate's layer loop."""

    @pytest.mark.parametrize("schedule", sorted(PARITY_SCHEDULES))
    @pytest.mark.parametrize("alpha", [0.15, "auto", "auto_irls"])
    @pytest.mark.parametrize("variant, simple", [
        ("plain", True), ("normalized", True), ("plain", False)])
    def test_forward_equals_propagate(self, variant, simple, alpha, schedule):
        g, x, labels, rows = small_instance(40, n=12, d_in=4, c=2)
        d = 3
        spec = _parity_spec(simple, d)
        sched = PARITY_SCHEDULES[schedule]
        cfg = ModelConfig(backend="unrolled", steps=PARITY_STEPS, alpha=alpha, embed_dim=d,
                          n_classes=2, variant=variant, attention_schedule=sched,
                          energy=spec, kind=SELF)
        model = Model(x.shape[1], cfg, seed=6)
        fx = np.abs(x @ model.params["w_x"])  # feasible for the relu prox
        got = model._propagate_forward(g, fx)[0]
        want = propagate(spec, g, fx, PropagationConfig(
            steps=PARITY_STEPS, alpha=alpha, variant=variant, attention_schedule=sched,
            record_trace=False)).y
        if variant == "plain":
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_normalized_with_schedule_gradient(self):
        g, x, labels, rows = small_instance(42, n=8, d_in=3, c=2)
        cfg = ModelConfig(backend="unrolled", steps=4, alpha=0.2, lam=0.7, embed_dim=3,
                          n_classes=2, variant="normalized",
                          attention_schedule=sandwich_schedule(4), kind=SELF)
        model = Model(x.shape[1], cfg, seed=8)
        report = finite_difference_check(model, g, x, labels, rows)
        assert report["ok"], report


class TestUnrolledBackwardIsJacobianTranspose:
    """With x = I_n and the linear predictor, grads["w_x"] is d(loss)/d(f(X)).
    Under identity rho, zero phi, a fixed step and no attention schedule
    the layers are linear, Y_K = J vec(F), so that gradient must be
    J.T d(loss)/d(Y_K) with J built from unroll on the unit inputs."""

    # the normalized variant steps the self_loop_sym energy only
    @pytest.mark.parametrize("variant, mode, kind", [
        ("plain", mode, kind) for mode in ("simple", "exact", "literal") for kind in LaplacianKind
    ] + [("normalized", "simple", SELF)])
    def test_gradient_equals_dense_jacobian_transpose(self, variant, mode, kind):
        g, _, labels, rows = small_instance(44, n=7, c=2)
        n, d = g.n, 3
        if mode == "simple":
            spec = EnergySpec(lam=0.8, kind=kind)
        else:
            a = np.random.default_rng(45).normal(size=(d, d))
            spec = EnergySpec(kind=kind, simple=False, w_fid=0.5 * np.eye(d) + 0.1 * a,
                              w_prop=0.3 * a @ a.T / d, gradient_mode=mode)
        cfg = ModelConfig(backend="unrolled", steps=4, alpha=0.15, embed_dim=d, n_classes=2,
                          variant=variant, energy=spec, kind=kind)
        model = Model(n, cfg, seed=9)
        _, logits, grads = loss_and_grads(model, g, np.eye(n), labels, rows)
        _, d_logits = softmax_cross_entropy(logits, labels, rows)
        d_y = d_logits @ model.params["w_g"]

        jac = np.empty((n * d, n * d))
        for i in range(n * d):
            y = np.eye(1, n * d, i).reshape(n, d)
            for layer in unroll(spec, g, y, cfg.propagation):
                y = layer.y
            jac[:, i] = y.ravel()
        np.testing.assert_allclose(grads["w_x"].ravel(), jac.T @ d_y.ravel(),
                                   rtol=0.0, atol=1e-10)


class TestUnrolledTapeMemory:
    """The unrolled tape keeps no n x d array per layer where the reverse
    reads none: phi zero with the attention weights held constant.  One
    loss_and_grads on a sandwich schedule at K = 8 and K = 32, n = 2000,
    d = 16, peak traced memory compared."""

    N, D = 2000, 16

    @pytest.fixture(scope="class")
    def instance(self):
        rng = np.random.default_rng(0)
        n = self.N
        g = build_graph(n, rng.integers(0, n, size=(4 * n, 2)))
        return g, rng.normal(size=(n, 4)), rng.integers(0, 2, size=n), np.arange(0, n, 4)

    @pytest.mark.parametrize("phi, grad, per_layer", [
        (phi_zero(), "stop", 0), (phi_relu(), "stop", 1), (phi_zero(), "full", 0.5)],
        ids=["zero-stop", "relu-stop", "zero-full"])
    def test_peak_growth_per_layer(self, instance, traced_peak, phi, grad, per_layer):
        g, x, labels, rows = instance
        peaks = {}
        for k in (8, 32):
            cfg = ModelConfig(backend="unrolled", embed_dim=self.D, n_classes=2, steps=k,
                              alpha="auto", rho=rho_log(eps=0.5), phi=phi,
                              attention_schedule=sandwich_schedule(k), attention_grad=grad)
            model = Model(x.shape[1], cfg, seed=0)
            loss_and_grads(model, g, x, labels, rows)  # the graph's operators, built once
            peaks[k] = traced_peak(loss_and_grads, model, g, x, labels, rows)
        array = self.N * self.D * 8
        growth = peaks[32] - peaks[8]
        # relu keeps each layer's Y for its prox derivative, and full attention
        # the Y of the layers from the one before the sandwich's refresh on, as
        # the input of a Gamma gradient: half the layers; neither keeps U
        assert abs(growth - 24 * per_layer * array) <= array, growth / (24 * array)


class TestFixedPointBackendsMatchSolver:
    """The implicit and eignn backends are the fixed-point solve and its
    adjoint, called with the backend's weight and activation."""

    @pytest.mark.parametrize("backend, sigma_kind, train_w_p", [
        ("implicit", "relu", True), ("implicit", "relu", False),
        ("implicit", "identity", True), ("implicit", "identity", False),
        ("eignn", "identity", True), ("eignn", "relu", True)])
    def test_forward_and_gradients_equal_direct_calls(self, backend, sigma_kind, train_w_p):
        g, x, labels, rows = small_instance(43, n=12, d_in=4, c=3)
        sigma = phi_relu() if sigma_kind == "relu" else phi_zero()
        cfg = ModelConfig(backend=backend, embed_dim=3, n_classes=3, sigma=sigma,
                          train_w_p=train_w_p, mu=0.7, eps_f=0.2, kind=SELF)
        model = Model(x.shape[1], cfg, seed=8, g=g)
        _, logits, grads = loss_and_grads(model, g, x, labels, rows)

        fx = x @ model.params["w_x"]
        if backend == "eignn":  # identity activation, whatever cfg.sigma says
            spec = EignnSpec(mu=cfg.mu, eps_f=cfg.eps_f)
            w_p, sigma = spec.weight(model.params["f_mat"]), phi_zero()
        else:
            w_p = model.params["w_p"]
        fp_cfg = FixedPointConfig(sigma=sigma, tol=cfg.fp_tol, max_iters=cfg.fp_max_iters,
                                  kind=SELF)
        y = fixed_point_solve(g, w_p, fx, fp_cfg).y
        np.testing.assert_array_equal(logits, y @ model.params["w_g"].T)
        _, d_logits = softmax_cross_entropy(logits, labels, rows)
        grad_w, grad_fx = implicit_backward(g, w_p, fx, y, d_logits @ model.params["w_g"],
                                            fp_cfg)
        assert sorted(grads) == sorted(model.trainable_names())
        np.testing.assert_array_equal(grads["w_g"], d_logits.T @ y)
        np.testing.assert_array_equal(grads["w_x"], x.T @ grad_fx)
        if backend == "eignn":
            np.testing.assert_array_equal(grads["f_mat"],
                                          eignn_grad_f(spec, model.params["f_mat"], grad_w))
        elif train_w_p:
            np.testing.assert_array_equal(grads["w_p"], grad_w)


def _copied(value):
    return value.copy() if isinstance(value, np.ndarray) else value


class TestWarmStartedTraining:
    """train starts each epoch's solves from earlier epochs' solutions;
    every other forward starts them from zeros."""

    @pytest.fixture(scope="class")
    def sbm(self):
        return sbm_generate(SbmSpec(blocks=(60, 60), p_in=0.1, p_out=0.01, feature_dim=8,
                                    separation=2.0))

    @staticmethod
    def _config(backend):
        return ModelConfig(backend=backend, embed_dim=4, n_classes=2, kind=SELF,
                           sigma=phi_relu() if backend == "implicit" else phi_zero())

    @pytest.mark.parametrize("backend", ["implicit", "eignn"])
    def test_warm_solves_agree_with_cold_in_fewer_iterations(self, backend, sbm,
                                                              monkeypatch):
        finished = []  # (iterations, last residual) of every Picard loop, in order
        picard = implicit._picard

        def recorded_picard(*args):
            x, iterations, trace = picard(*args)
            finished.append((iterations, trace[-1]))
            return x, iterations, trace

        calls = []

        def recorded(fn):
            def call(*args, **kwargs):
                # copy now: train updates some parameters in place afterwards
                args = tuple(_copied(a) for a in args)
                kwargs = {k: _copied(v) for k, v in kwargs.items()}
                out = fn(*args, **kwargs)
                calls.append((fn, args, out, finished[-1]))
                return out
            return call

        monkeypatch.setattr(implicit, "_picard", recorded_picard)
        monkeypatch.setattr(model_module, "fixed_point_solve", recorded(fixed_point_solve))
        monkeypatch.setattr(model_module, "implicit_backward", recorded(implicit_backward))
        train(sbm.graph, sbm.x, sbm.labels, sbm.masks, self._config(backend),
              TrainConfig(epochs=15, lr=0.1, seed=0))
        assert len(calls) == 2 * 15 + 1  # each epoch's solve and adjoint, the final forward

        warm_total = cold_total = 0
        for fn, args, out, (iterations, residual) in calls:
            cold = fn(*args)
            cold_iterations, cold_residual = finished[-1]
            warm_total += iterations
            cold_total += cold_iterations
            g, w_p = args[0], args[1]
            c = spectral_norm(w_p) * g.operators(SELF).propagation_norm
            if fn is fixed_point_solve:
                warm_answer, cold_answer = out.y, cold.y
                bound = out.error_bound + cold.error_bound
            else:
                # the adjoint map contracts by the forward's certified factor,
                # and its unknown is grad_f itself
                warm_answer, cold_answer = out[1], cold[1]
                bound = c / (1.0 - c) * (residual + cold_residual)
            # The bounds hold in exact arithmetic, and in this linear symmetric
            # case (eignn) they are nearly attained.  Each step rounds by a few
            # ulps of the iterate, and the contraction damps that within about
            # 1 / (1 - c) steps.
            size = np.linalg.norm(warm_answer) + np.linalg.norm(cold_answer)
            rounding = 32 * np.finfo(float).eps * size / (1.0 - c)
            assert np.linalg.norm(warm_answer - cold_answer) <= bound + rounding
        assert warm_total < cold_total

    @pytest.mark.parametrize("backend", ["implicit", "eignn"])
    def test_final_evaluation_equals_fresh_forward(self, backend, sbm, monkeypatch):
        seen = []
        forward = Model.forward

        def recorded_forward(self, *args, **kwargs):
            out = forward(self, *args, **kwargs)
            seen.append(out[0])
            return out

        monkeypatch.setattr(Model, "forward", recorded_forward)
        cfg = self._config(backend)
        trained, _ = train(sbm.graph, sbm.x, sbm.labels, sbm.masks, cfg,
                           TrainConfig(epochs=6, lr=0.1, seed=2))
        monkeypatch.undo()
        fresh = Model(sbm.x.shape[1], cfg, seed=2, g=sbm.graph)
        fresh.params = {k: v.copy() for k, v in trained.params.items()}
        logits, _ = fresh.forward(sbm.graph, sbm.x)
        np.testing.assert_array_equal(seen[-1], logits)

    def test_finite_difference_check_is_cold(self):
        # the report as computed when every solve started from zeros
        g, x, labels, rows = small_instance(47, n=10, d_in=3, c=2)
        cfg = ModelConfig(backend="implicit", embed_dim=3, n_classes=2, sigma=phi_relu(),
                          kind=SELF)
        model = Model(x.shape[1], cfg, seed=5, g=g)
        report = finite_difference_check(model, g, x, labels, rows)
        assert report == {"max_rel_err": 6.109312243463395e-09,
                          "per_tensor": {"w_x": 2.8696250974272816e-09,
                                         "w_g": 3.958468348301557e-11,
                                         "w_p": 6.109312243463395e-09},
                          "ok": True, "base_loss": 0.6799702137559873}


class TestTraining:
    def test_separable_two_block_instance(self):
        g, x, labels, masks = two_block_instance(0)
        cfg = ModelConfig(backend="unrolled", steps=8, lam=2.0, embed_dim=8,
                          n_classes=2, kind=SELF)
        tcfg = TrainConfig(epochs=200, lr=0.3, seed=0)
        _, metrics = train(g, x, labels, masks, cfg, tcfg)
        assert metrics.test_acc_at_best > 0.95

    def test_zero_learning_rate_constant_metrics(self):
        g, x, labels, masks = two_block_instance(1, n_per=12)
        cfg = ModelConfig(backend="unrolled", steps=4, embed_dim=4, n_classes=2, kind=SELF)
        tcfg = TrainConfig(epochs=5, lr=0.0, seed=0)
        _, metrics = train(g, x, labels, masks, cfg, tcfg)
        assert np.ptp(metrics.loss) == 0.0
        assert np.ptp(metrics.acc_test) == 0.0

    def test_same_seed_bitwise_identical(self):
        g, x, labels, masks = two_block_instance(2, n_per=10)
        cfg = ModelConfig(backend="unrolled", steps=4, embed_dim=4, n_classes=2,
                          predictor="mlp", hidden=(6,), dropout=0.3, kind=SELF)
        tcfg = TrainConfig(epochs=12, lr=0.1, seed=11)
        _, m1 = train(g, x, labels, masks, cfg, tcfg)
        _, m2 = train(g, x, labels, masks, cfg, tcfg)
        np.testing.assert_array_equal(m1.loss, m2.loss)

    def test_learning_rate_grid_has_monotone_setting(self):
        g, x, labels, masks = two_block_instance(3, n_per=15)
        cfg = ModelConfig(backend="unrolled", steps=6, embed_dim=6, n_classes=2, kind=SELF)
        found = False
        for lr in np.geomspace(1e-3, 3.0, 10):
            _, metrics = train(g, x, labels, masks, cfg, TrainConfig(epochs=40, lr=lr, seed=0))
            burn = metrics.loss[5:]
            if burn.size and np.all(np.diff(burn) <= 1e-12):
                found = True
                break
        assert found

    @pytest.mark.parametrize("row_mask", ["train", "test"])
    def test_label_outside_class_range_rejected(self, row_mask):
        g, x, labels, masks = two_block_instance(7, n_per=8)
        node = int(np.flatnonzero(masks[row_mask])[0])
        labels = labels.copy()
        labels[node] = 5
        cfg = ModelConfig(backend="unrolled", steps=2, embed_dim=4, n_classes=2, kind=SELF)
        with pytest.raises(ValueError, match=f"node {node} has label 5"):
            train(g, x, labels, masks, cfg, TrainConfig(epochs=2, lr=0.1, seed=0))

    def test_divergence_aborts_with_partial_metrics(self):
        g, x, labels, masks = two_block_instance(4, n_per=10)
        cfg = ModelConfig(backend="unrolled", steps=6, embed_dim=4, n_classes=2, kind=SELF)
        tcfg = TrainConfig(epochs=50, lr=1e6, seed=0)
        _, metrics = train(g, x, labels, masks, cfg, tcfg)
        assert metrics.diverged
        assert metrics.loss.size < 50

    # numpy warns of the overflow on the way to the divergence
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("backend", ["unrolled", "implicit", "eignn"])
    def test_every_backend_flags_divergence(self, backend):
        ds = sbm_generate(SbmSpec(blocks=(40, 40), p_in=0.2, p_out=0.05, seed=0))
        cfg = ModelConfig(backend=backend, embed_dim=8, n_classes=2)
        _, metrics = train(ds.graph, ds.x, ds.labels, ds.masks, cfg,
                           TrainConfig(epochs=10, lr=1e200, seed=0))
        assert metrics.diverged
        assert 0 < metrics.loss.size < 10
        assert metrics.acc_val.size == metrics.loss.size
        assert metrics.best_val_epoch >= 0

    def test_implicit_training_reprojects_weights(self):
        g, x, labels, masks = two_block_instance(5, n_per=10)
        cfg = ModelConfig(backend="implicit", embed_dim=4, n_classes=2,
                          train_w_p=True, contraction_margin=0.8, kind=SELF)
        tcfg = TrainConfig(epochs=8, lr=0.2, seed=0)
        model, metrics = train(g, x, labels, masks, cfg, tcfg)
        from unfoldgnn.graph import spectral_norm

        p_norm = spectral_norm(propagation_matrix(g, SELF))
        w_norm = spectral_norm(model.params["w_p"])
        assert w_norm * p_norm <= 0.8 + 1e-6
        assert not metrics.diverged

    def test_metrics_csv(self, tmp_path):
        g, x, labels, masks = two_block_instance(6, n_per=8)
        cfg = ModelConfig(backend="unrolled", steps=3, embed_dim=4, n_classes=2, kind=SELF)
        _, metrics = train(g, x, labels, masks, cfg, TrainConfig(epochs=3, lr=0.1, seed=0))
        path = tmp_path / "metrics.csv"
        metrics.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# schema: train-metrics")
        assert len(lines) == 2 + 3


class TestDropoutEvaluation:
    """Under dropout an epoch's accuracies, and so its best epoch, come
    from a forward without dropout at that epoch's parameters."""

    @staticmethod
    def instance(backend):
        ds = sbm_generate(SbmSpec(blocks=(60, 60), p_in=0.1, p_out=0.03, seed=2))
        cfg = ModelConfig(backend=backend, embed_dim=8, n_classes=2, predictor="mlp",
                          hidden=(16,), dropout=0.5)
        return ds, cfg, TrainConfig(epochs=30, lr=0.1, seed=0)

    @pytest.mark.parametrize("backend", ["unrolled", "implicit"])
    def test_logged_accuracies_are_the_eval_mode_ones(self, backend, monkeypatch):
        ds, cfg, tcfg = self.instance(backend)
        seen = []  # each epoch's parameters, read at its training forward
        forward = Model.forward

        def spy(self, g, x, train_mode=False, **kwargs):
            if train_mode:
                seen.append({k: v.copy() for k, v in self.params.items()})
            return forward(self, g, x, train_mode=train_mode, **kwargs)

        monkeypatch.setattr(Model, "forward", spy)
        _, metrics = train(ds.graph, ds.x, ds.labels, ds.masks, cfg, tcfg)
        monkeypatch.undo()
        assert len(seen) == tcfg.epochs
        for epoch, params in enumerate(seen):
            model = Model(ds.x.shape[1], cfg, g=ds.graph)
            model.params = params
            logits, _ = model.forward(ds.graph, ds.x)
            for name, logged in (("train", metrics.acc_train), ("val", metrics.acc_val),
                                 ("test", metrics.acc_test)):
                assert logged[epoch] == accuracy(logits, ds.labels, ds.masks[name]), \
                    (epoch, name)
        assert metrics.best_val_acc == metrics.acc_val.max()
        assert metrics.best_val_epoch == int(np.argmax(metrics.acc_val))

    def test_losses_are_those_of_the_training_forwards_alone(self):
        # the eval forward draws no dropout mask and leaves the warm starts
        # alone, so the losses are a loop's that never runs it
        ds, cfg, tcfg = self.instance("eignn")
        _, metrics = train(ds.graph, ds.x, ds.labels, ds.masks, cfg, tcfg)
        model = Model(ds.x.shape[1], cfg, seed=tcfg.seed, g=ds.graph)
        rng = np.random.default_rng(tcfg.seed + 1)
        warm = model_module._WarmStart()
        rows = np.flatnonzero(ds.masks["train"])
        losses = []
        for _ in range(tcfg.epochs):
            loss, _, grads = loss_and_grads(model, ds.graph, ds.x, ds.labels, rows,
                                            train_mode=True, dropout_rng=rng, warm=warm)
            losses.append(loss)
            for name in model.trainable_names():
                model.params[name] += 0.0 - tcfg.lr * grads[name]
        np.testing.assert_array_equal(metrics.loss, losses)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        g, x, labels, rows = small_instance(40)
        cfg = ModelConfig(backend="eignn", embed_dim=4, n_classes=3)
        model = Model(x.shape[1], cfg, seed=0)
        save_checkpoint(model.params, tmp_path / "ckpt")
        loaded = load_checkpoint(tmp_path / "ckpt")
        assert sorted(loaded) == sorted(model.params)
        for name in loaded:
            np.testing.assert_array_equal(loaded[name], model.params[name])

    @staticmethod
    def saved(tmp_path):
        g, x, labels, rows = small_instance(42)
        model = Model(x.shape[1], ModelConfig(embed_dim=3, n_classes=2), seed=0)
        save_checkpoint(model.params, tmp_path / "ckpt")
        return tmp_path / "ckpt" / "params.bin", tmp_path / "ckpt" / "manifest.txt"

    @pytest.mark.parametrize("cut", [8, 4])
    def test_truncated_params_rejected(self, tmp_path, cut):
        blob, manifest = self.saved(tmp_path)
        blob.write_bytes(blob.read_bytes()[:-cut])
        last = len(manifest.read_text().splitlines())
        with pytest.raises(CheckpointError,
                           match=rf"params.bin holds \d+ values, but .*manifest.txt:{last} needs"):
            load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.parametrize("extra", [8, 4])
    def test_trailing_params_rejected(self, tmp_path, extra):
        blob, _ = self.saved(tmp_path)
        blob.write_bytes(blob.read_bytes() + bytes(extra))
        with pytest.raises(CheckpointError,
                           match=r"params.bin is \d+ bytes, but .*manifest.txt accounts for"):
            load_checkpoint(tmp_path / "ckpt")

    def test_manifest_size_disagreeing_with_shape_rejected(self, tmp_path):
        _, manifest = self.saved(tmp_path)
        lines = manifest.read_text().splitlines()
        name, shape, offset, size = lines[1].split()
        lines[1] = f"{name} {shape} {offset} {int(size) - 1}"
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match=r"manifest.txt:2: offset 0 and size"):
            load_checkpoint(tmp_path / "ckpt")

    def test_manifest_is_text(self, tmp_path):
        g, x, labels, rows = small_instance(41)
        cfg = ModelConfig(embed_dim=3, n_classes=2)
        model = Model(x.shape[1], cfg, seed=0)
        save_checkpoint(model.params, tmp_path / "ckpt")
        manifest = (tmp_path / "ckpt" / "manifest.txt").read_text()
        assert "w_g" in manifest and "w_x" in manifest
