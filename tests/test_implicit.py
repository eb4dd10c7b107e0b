import re

import numpy as np
import pytest

from unfoldgnn import _kernels
from unfoldgnn.energy import from_symmetric_pair, phi_relu, phi_soft_threshold, phi_zero
from unfoldgnn.graph import LaplacianKind, build_graph, propagation_matrix, spectral_norm
from unfoldgnn.implicit import (
    EignnSpec,
    FixedPointConfig,
    FixedPointDivergence,
    eignn_grad_f,
    fixed_point_solve,
    implicit_backward,
    project_weights,
)
from unfoldgnn.unfold import PropagationConfig, propagate
from unfoldgnn.verify import random_graph

SELF = LaplacianKind.SELF_LOOP_SYM


def contraction_weight(rng, d, p_op, margin=0.8):
    w = rng.normal(size=(d, d))
    return project_weights(w, p_op, margin=margin)


def dense_linear_fixed_point(p_dense, w_p, fx):
    """Kronecker-system oracle for the identity-activation case."""
    n, d = fx.shape
    k = np.kron(w_p.T, p_dense)
    y = np.linalg.solve(np.eye(n * d) - k, fx.reshape(-1, order="F"))
    return y.reshape(n, d, order="F")


def transposed_adjoint(g, w_p, fx, y_star, upstream, cfg, v0=None):
    """The adjoint as a separate recursion on V, kept as the reference:
    V <- G + P.T (D * V) Wp.T from v0 (zeros when None), stopped at
    ||V_{k+1} - V_k|| <= tol.  Returns [D * V_0, ..., D * V_K] and K."""
    p_op = propagation_matrix(g, cfg.kind)
    p_t = p_op.T
    p_y = p_op @ y_star
    d_sigma = None
    if cfg.sigma.kind != "zero":
        d_sigma = cfg.sigma.prox_mask(cfg.sigma.prox(p_y @ w_p + fx, 1.0))

    def chain(v):
        return v if d_sigma is None else d_sigma * v

    v = np.zeros_like(upstream) if v0 is None else v0
    masked = [chain(v)]
    for it in range(1, cfg.max_iters + 1):
        v_next = upstream + p_t @ chain(v) @ w_p.T
        resid = np.linalg.norm(v_next - v)
        v = v_next
        masked.append(chain(v))
        if resid <= cfg.tol:
            return masked, it
    raise AssertionError("reference adjoint did not converge")


class TestProjectWeights:
    def test_scaling_factor(self):
        w = np.diag([2.0, 1.0])
        p = np.eye(3)
        got = project_weights(w, p, margin=0.9)
        np.testing.assert_allclose(got, 0.45 * w, rtol=1e-8)

    def test_zero_unchanged(self):
        w = np.zeros((3, 3))
        np.testing.assert_array_equal(project_weights(w, np.eye(2)), w)

    def test_symmetry_preserved(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 4))
        w = a + a.T
        got = project_weights(w, 2 * np.eye(3), margin=0.5)
        np.testing.assert_allclose(got, got.T, atol=1e-14)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(5, 5))
        p = rng.normal(size=(6, 6))
        once = project_weights(w, p, margin=0.7)
        twice = project_weights(once, p, margin=0.7)
        np.testing.assert_allclose(twice, once, atol=1e-14)


@pytest.mark.parametrize("tol", [np.nan, np.inf])
def test_non_finite_tol_rejected(tol):
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        FixedPointConfig(tol=tol)


class TestFixedPointSolve:
    def test_zero_weight_converges_immediately(self):
        rng = np.random.default_rng(2)
        g = random_graph(rng, 8, 0.35)
        fx = rng.normal(size=(8, 3))
        out = fixed_point_solve(g, np.zeros((3, 3)), fx, FixedPointConfig(sigma=phi_relu()))
        assert out.iterations <= 2
        np.testing.assert_allclose(out.y, np.maximum(fx, 0.0))

    def test_identity_activation_matches_kronecker_solve(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 10, 0.35)
        p_dense = propagation_matrix(g, SELF).toarray()
        w = contraction_weight(rng, 3, p_dense)
        fx = rng.normal(size=(10, 3))
        out = fixed_point_solve(g, w, fx, FixedPointConfig(tol=1e-12))
        expected = dense_linear_fixed_point(p_dense, w, fx)
        assert np.linalg.norm(out.y - expected) < 1e-8

    def test_fixed_point_equation_satisfied(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, 9, 0.35)
        p_op = propagation_matrix(g, SELF)
        w = contraction_weight(rng, 2, p_op.toarray())
        fx = rng.normal(size=(9, 2))
        cfg = FixedPointConfig(sigma=phi_relu(), tol=1e-10)
        out = fixed_point_solve(g, w, fx, cfg)
        recon = np.maximum(p_op @ out.y @ w + fx, 0.0)
        assert np.linalg.norm(out.y - recon) <= 2 * cfg.tol

    @pytest.mark.parametrize("kind", list(LaplacianKind), ids=lambda k: k.name)
    def test_isolated_node_keeps_its_own_row(self, kind):
        # P_ii = 1 at an isolated node i under every kind, so its row of
        # the fixed point solves y_i = sigma(y_i Wp + f_i) on its own
        rng = np.random.default_rng(6)
        g = build_graph(8, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (5, 6)])  # 7 isolated
        w = contraction_weight(rng, 3, g.operators(kind), margin=0.7)
        fx = rng.normal(size=(8, 3))
        cfg = FixedPointConfig(sigma=phi_relu(), tol=1e-12, kind=kind)
        y = fixed_point_solve(g, w, fx, cfg).y
        np.testing.assert_allclose(y[7], np.maximum(y[7] @ w + fx[7], 0.0), rtol=0, atol=1e-11)
        assert np.abs(y[7] - np.maximum(fx[7], 0.0)).max() > 1e-3

    def test_max_iters_exhaustion_raises(self):
        rng = np.random.default_rng(7)
        g = random_graph(rng, 8, 0.35)
        w = np.eye(2) * 0.99
        fx = rng.normal(size=(8, 2))
        with pytest.raises(FixedPointDivergence):
            fixed_point_solve(g, w, fx, FixedPointConfig(tol=1e-14, max_iters=3))

    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_non_positive_max_iters_rejected(self, max_iters):
        with pytest.raises(ValueError, match="max_iters must be at least 1"):
            FixedPointConfig(max_iters=max_iters)

    @pytest.mark.parametrize("kind", list(LaplacianKind))
    def test_certified_error_bound_holds(self, kind):
        rng = np.random.default_rng(8)
        g = random_graph(rng, 12, 0.35)
        p_dense = propagation_matrix(g, kind).toarray()
        w = contraction_weight(rng, 3, p_dense, margin=0.9)
        fx = rng.normal(size=(12, 3))
        out = fixed_point_solve(g, w, fx, FixedPointConfig(sigma=phi_relu(), tol=1e-5, kind=kind))
        c = spectral_norm(w) * spectral_norm(p_dense)
        assert out.contraction == pytest.approx(c, rel=1e-12)
        assert out.error_bound == pytest.approx(c / (1 - c) * out.residual, rel=1e-12)
        tight = fixed_point_solve(g, w, fx, FixedPointConfig(sigma=phi_relu(), tol=1e-13,
                                                             kind=kind))
        assert np.linalg.norm(out.y - tight.y) <= out.error_bound

    def test_error_bound_infinite_without_certified_contraction(self):
        rng = np.random.default_rng(9)
        g = random_graph(rng, 8, 0.35)
        fx = -1.0 - rng.random((8, 2))  # relu(fx) = 0 is the fixed point
        out = fixed_point_solve(g, 1.5 * np.eye(2), fx, FixedPointConfig(sigma=phi_relu()))
        assert out.contraction == pytest.approx(1.5)
        assert out.iterations == 1 and out.residual == 0.0
        assert out.error_bound == np.inf

    def test_wrong_shaped_start_rejected(self):
        rng = np.random.default_rng(10)
        g = random_graph(rng, 6, 0.35)
        fx = rng.normal(size=(6, 2))
        with pytest.raises(ValueError, match=re.escape(
                "y0 has shape (6, 3), but fx has shape (6, 2)")):
            fixed_point_solve(g, 0.1 * np.eye(2), fx, y0=np.zeros((6, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_start_fails_at_first_iteration(self, bad):
        rng = np.random.default_rng(12)
        g = random_graph(rng, 6, 0.35)
        fx = rng.normal(size=(6, 2))
        y0 = np.zeros_like(fx)
        y0[2, 0] = bad
        with pytest.raises(FixedPointDivergence, match="non-finite residual at iteration 1$"):
            fixed_point_solve(g, 0.1 * np.eye(2), fx, y0=y0)


class TestImplicitBackward:
    def test_zero_weight_passthrough(self):
        rng = np.random.default_rng(9)
        g = random_graph(rng, 7, 0.35)
        fx = rng.normal(size=(7, 2))
        w = np.zeros((2, 2))
        out = fixed_point_solve(g, w, fx, FixedPointConfig())
        up = rng.normal(size=(7, 2))
        grad_w, grad_fx = implicit_backward(g, w, fx, out.y, up, FixedPointConfig())
        np.testing.assert_allclose(grad_fx, up, atol=1e-12)

    def test_identity_matches_dense_adjoint(self):
        rng = np.random.default_rng(10)
        g = random_graph(rng, 8, 0.35)
        p_dense = propagation_matrix(g, SELF).toarray()
        w = contraction_weight(rng, 2, p_dense)
        fx = rng.normal(size=(8, 2))
        cfg = FixedPointConfig(tol=1e-13)
        out = fixed_point_solve(g, w, fx, cfg)
        up = rng.normal(size=(8, 2))
        grad_w, grad_fx = implicit_backward(g, w, fx, out.y, up, cfg)
        n, d = fx.shape
        k = np.kron(w.T, p_dense)
        solve_t = np.linalg.solve(np.eye(n * d) - k.T, up.reshape(-1, order="F"))
        expected_fx = solve_t.reshape(n, d, order="F")
        np.testing.assert_allclose(grad_fx, expected_fx, atol=1e-8)
        expected_w = (p_dense @ out.y).T @ expected_fx
        np.testing.assert_allclose(grad_w, expected_w, atol=1e-8)

    @pytest.mark.parametrize("start", ["zeros", "v0"])
    def test_identity_is_bitwise_the_transposed_recursion(self, start):
        rng = np.random.default_rng(23)
        g = random_graph(rng, 30, 0.35)
        w = contraction_weight(rng, 3, propagation_matrix(g, SELF))
        fx = rng.normal(size=(30, 3))
        cfg = FixedPointConfig(tol=1e-10)
        out = fixed_point_solve(g, w, fx, cfg)
        up = rng.normal(size=(30, 3))
        v0 = rng.normal(size=(30, 3)) if start == "v0" else None
        masked, last = transposed_adjoint(g, w, fx, out.y, up, cfg, v0)
        grad_w, grad_fx = implicit_backward(g, w, fx, out.y, up, cfg, v0=v0)
        np.testing.assert_array_equal(grad_fx, masked[last])
        np.testing.assert_array_equal(grad_w, (propagation_matrix(g, SELF) @ out.y).T @ grad_fx)

    @pytest.mark.parametrize("start", ["zeros", "v0"])
    @pytest.mark.parametrize("kind", list(LaplacianKind))
    def test_relu_returns_a_masked_transposed_iterate_no_later(self, kind, start):
        """The masked iterates D * V_k are the solve's own iterates, and its
        steps are D * (V_{k+1} - V_k), so it can only stop earlier."""
        rng = np.random.default_rng(24)
        g = random_graph(rng, 40, 0.35)
        p_op = propagation_matrix(g, kind)
        w = contraction_weight(rng, 3, g.operators(kind))
        fx = rng.normal(size=(40, 3))
        cfg = FixedPointConfig(sigma=phi_relu(), tol=1e-9, kind=kind)
        out = fixed_point_solve(g, w, fx, cfg)
        up = rng.normal(size=(40, 3))
        v0 = rng.normal(size=(40, 3)) if start == "v0" else None
        masked, last = transposed_adjoint(g, w, fx, out.y, up, cfg, v0)
        d_sigma = phi_relu().prox_mask(out.y)
        assert 0 < d_sigma.sum() < d_sigma.size
        per_iteration = 2 * p_op.nnz * 3 + 2 * 40 * 3 * 3
        before = _kernels.op_counter()["dense"]
        _, grad_fx = implicit_backward(g, w, fx, out.y, up, cfg, v0=v0)
        iterations = (_kernels.op_counter()["dense"] - before) // per_iteration
        assert 1 <= iterations <= last
        np.testing.assert_array_equal(grad_fx, masked[iterations])
        residual = np.linalg.norm(d_sigma * (up + p_op @ grad_fx @ w.T) - grad_fx)
        assert residual <= out.contraction * cfg.tol

    def test_non_finite_upstream_fails_at_first_iteration(self):
        rng = np.random.default_rng(17)
        g = random_graph(rng, 7, 0.35)
        w = contraction_weight(rng, 2, propagation_matrix(g, SELF).toarray())
        fx = rng.normal(size=(7, 2))
        out = fixed_point_solve(g, w, fx)
        up = rng.normal(size=(7, 2))
        up[3, 1] = np.nan
        with pytest.raises(FixedPointDivergence, match="non-finite residual at iteration 1$"):
            implicit_backward(g, w, fx, out.y, up)

    def test_max_iters_exhaustion_names_iterations_and_residual(self):
        rng = np.random.default_rng(18)
        g = random_graph(rng, 8, 0.35)
        p_dense = propagation_matrix(g, SELF).toarray()
        w = np.eye(2) * 0.99
        fx = rng.normal(size=(8, 2))
        out = fixed_point_solve(g, w, fx)
        up = rng.normal(size=(8, 2))
        v = [np.zeros_like(up)]
        for _ in range(3):  # identity sigma: V <- G + P.T V Wp.T
            v.append(up + p_dense.T @ v[-1] @ w.T)
        last = np.linalg.norm(v[3] - v[2])
        message = f"no fixed point within 3 iterations (residual {last:.3e})"
        with pytest.raises(FixedPointDivergence, match=re.escape(message)):
            implicit_backward(g, w, fx, out.y, up, FixedPointConfig(tol=1e-14, max_iters=3))

    def test_start_saves_iterations_not_accuracy(self):
        rng = np.random.default_rng(20)
        g = random_graph(rng, 10, 0.35)
        p_op = propagation_matrix(g, SELF)
        w = contraction_weight(rng, 3, p_op.toarray(), margin=0.9)
        fx = rng.normal(size=(10, 3))
        cfg = FixedPointConfig(tol=1e-9)
        out = fixed_point_solve(g, w, fx, cfg)
        up = rng.normal(size=(10, 3))
        per_iteration = 2 * p_op.nnz * 3 + 2 * 10 * 3 * 3

        def adjoint(v0):
            before = _kernels.op_counter()["dense"]
            _, grad_fx = implicit_backward(g, w, fx, out.y, up, cfg, v0=v0)
            return grad_fx, (_kernels.op_counter()["dense"] - before) // per_iteration

        cold, cold_iterations = adjoint(None)
        # identity sigma: D = 1, so grad_f is V itself; start near it
        warm, warm_iterations = adjoint(cold + 1e-6 * rng.normal(size=cold.shape))
        assert warm_iterations < cold_iterations
        c = out.contraction
        assert np.linalg.norm(warm - cold) <= c / (1 - c) * 2 * cfg.tol

    def test_wrong_shaped_start_rejected(self):
        rng = np.random.default_rng(21)
        g = random_graph(rng, 6, 0.35)
        w = contraction_weight(rng, 2, propagation_matrix(g, SELF).toarray())
        fx = rng.normal(size=(6, 2))
        out = fixed_point_solve(g, w, fx)
        with pytest.raises(ValueError, match=re.escape(
                "v0 has shape (2, 6), but upstream has shape (6, 2)")):
            implicit_backward(g, w, fx, out.y, rng.normal(size=(6, 2)),
                              v0=np.zeros((2, 6)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_start_fails_at_first_iteration(self, bad):
        rng = np.random.default_rng(22)
        g = random_graph(rng, 7, 0.35)
        w = contraction_weight(rng, 2, propagation_matrix(g, SELF).toarray())
        fx = rng.normal(size=(7, 2))
        out = fixed_point_solve(g, w, fx)
        v0 = np.zeros((7, 2))
        v0[4, 1] = bad
        with pytest.raises(FixedPointDivergence, match="non-finite residual at iteration 1$"):
            implicit_backward(g, w, fx, out.y, rng.normal(size=(7, 2)), v0=v0)

    def test_adjoint_counts_dense_flops_per_iteration(self):
        rng = np.random.default_rng(19)
        g = random_graph(rng, 9, 0.35)
        p_op = propagation_matrix(g, SELF)
        w = contraction_weight(rng, 3, p_op.toarray())
        fx = rng.normal(size=(9, 3))
        out = fixed_point_solve(g, w, fx)
        n, d = fx.shape
        per_iteration = 2 * p_op.nnz * d + 2 * n * d * d
        before = _kernels.op_counter()["dense"]
        implicit_backward(g, w, fx, out.y, rng.normal(size=(n, d)))
        counted = _kernels.op_counter()["dense"] - before
        assert counted > 0 and counted % per_iteration == 0

    @pytest.mark.parametrize("sigma", [phi_zero(), phi_relu()])
    def test_matches_finite_differences(self, sigma):
        rng = np.random.default_rng(11)
        g = random_graph(rng, 6, 0.35)
        p_dense = propagation_matrix(g, SELF).toarray()
        d = 2
        w = contraction_weight(rng, d, p_dense, margin=0.7)
        # keep pre-activations away from the relu kink
        fx = rng.normal(size=(6, d)) + 0.5
        cfg = FixedPointConfig(sigma=sigma, tol=1e-13)
        out = fixed_point_solve(g, w, fx, cfg)
        z = p_dense @ out.y @ w + fx
        assert np.abs(z).min() > 1e-3
        up = rng.normal(size=(6, d))

        def loss(w_mat, fx_mat):
            res = fixed_point_solve(g, w_mat, fx_mat, cfg)
            return float(np.sum(up * res.y))

        grad_w, grad_fx = implicit_backward(g, w, fx, out.y, up, cfg)
        h = 1e-6
        for idx in [(0, 0), (1, 0), (0, 1)]:
            wp, wm = w.copy(), w.copy()
            wp[idx] += h
            wm[idx] -= h
            fd = (loss(wp, fx) - loss(wm, fx)) / (2 * h)
            assert grad_w[idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)
        for idx in [(0, 0), (3, 1)]:
            fp, fm = fx.copy(), fx.copy()
            fp[idx] += h
            fm[idx] -= h
            fd = (loss(w, fp) - loss(w, fm)) / (2 * h)
            assert grad_fx[idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)


class TestInputsNeverWritten:
    """fixed_point_solve and implicit_backward write into none of their
    arrays: training passes its warm start's own buffer as y0 and v0, and
    as fx and upstream arrays that the model still reads."""

    @pytest.mark.parametrize("start", ["zeros", "given"])
    @pytest.mark.parametrize("sigma", [phi_zero(), phi_relu(), phi_soft_threshold(0.1)],
                             ids=["zero", "relu", "soft_threshold"])
    def test_inputs_bitwise_unchanged(self, sigma, start):
        rng = np.random.default_rng(31)
        g = random_graph(rng, 30, 0.35)
        w = contraction_weight(rng, 3, g.operators(SELF))
        fx, up = rng.normal(size=(30, 3)), rng.normal(size=(30, 3))
        y0 = v0 = None
        if start == "given":
            y0, v0 = rng.normal(size=(30, 3)), rng.normal(size=(30, 3))
        inputs = [a for a in (w, fx, up, y0, v0) if a is not None]
        before = [a.tobytes() for a in inputs]
        cfg = FixedPointConfig(sigma=sigma, tol=1e-10)
        out = fixed_point_solve(g, w, fx, cfg, y0=y0)
        y_star = out.y.tobytes()
        implicit_backward(g, w, fx, out.y, up, cfg, v0=v0)
        assert [a.tobytes() for a in inputs] == before
        assert out.y.tobytes() == y_star


class TestEignn:
    def test_zero_f_returns_base_prediction(self):
        rng = np.random.default_rng(12)
        g = random_graph(rng, 7, 0.35)
        fx = rng.normal(size=(7, 2))
        spec = EignnSpec(mu=0.9, eps_f=0.1)
        np.testing.assert_allclose(fixed_point_solve(g, spec.weight(np.zeros((2, 2))), fx).y, fx)

    def test_identity_f_scaling_and_dense_solve(self):
        rng = np.random.default_rng(13)
        g = random_graph(rng, 9, 0.35)
        spec = EignnSpec(mu=0.8, eps_f=0.1)
        s_sq = spec.scale_sq(np.eye(2))
        assert s_sq == pytest.approx(1.0 / (np.sqrt(2.0) + 0.1))
        fx = rng.normal(size=(9, 2))
        w_p = spec.weight(np.eye(2))
        got = fixed_point_solve(g, w_p, fx, FixedPointConfig(tol=1e-12)).y
        p_dense = propagation_matrix(g, SELF).toarray()
        expected = dense_linear_fixed_point(p_dense, w_p, fx)
        assert np.linalg.norm(got - expected) < 1e-8

    def test_weight_is_contraction_by_construction(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            f = rng.normal(size=(4, 4)) * rng.uniform(0.1, 10)
            spec = EignnSpec(mu=0.95, eps_f=1e-3)
            assert spectral_norm(spec.weight(f)) < 1.0

    def test_matches_unfolded_minimizer(self):
        rng = np.random.default_rng(15)
        g = random_graph(rng, 10, 0.35)
        f = rng.normal(size=(3, 3))
        spec = EignnSpec(mu=0.7, eps_f=0.2)
        fx = rng.normal(size=(10, 3))
        w_eff = spec.weight(f)
        espec = from_symmetric_pair(w_eff, np.eye(3) - w_eff, kind=SELF,
                                    gradient_mode="literal")
        ugnn = propagate(espec, g, fx, PropagationConfig(steps=400, alpha=1.0))
        got = fixed_point_solve(g, w_eff, fx, FixedPointConfig(tol=1e-12)).y
        assert np.linalg.norm(got - ugnn.y) < 1e-6

    def test_grad_f_matches_finite_differences(self):
        rng = np.random.default_rng(16)
        g = random_graph(rng, 6, 0.35)
        f = rng.normal(size=(2, 2))
        fx = rng.normal(size=(6, 2))
        up = rng.normal(size=(6, 2))
        cfg = FixedPointConfig(tol=1e-13)
        spec = EignnSpec(mu=0.6, eps_f=0.1)

        def loss(f_mat):
            return float(np.sum(up * fixed_point_solve(g, spec.weight(f_mat), fx, cfg).y))

        y_star = fixed_point_solve(g, spec.weight(f), fx, cfg).y
        grad_w, _ = implicit_backward(g, spec.weight(f), fx, y_star, up, cfg)
        grad_f = eignn_grad_f(spec, f, grad_w)
        h = 1e-6
        for idx in [(0, 0), (0, 1), (1, 1)]:
            fp, fm = f.copy(), f.copy()
            fp[idx] += h
            fm[idx] -= h
            fd = (loss(fp) - loss(fm)) / (2 * h)
            assert grad_f[idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)
