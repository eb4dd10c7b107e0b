import numpy as np
import pytest

from unfoldgnn.energy import phi_relu, phi_soft_threshold, phi_zero
from unfoldgnn.equivalence import (
    ConstructionError,
    embed_gcn,
    embedded_forward,
    gcn_oracle,
    linear_fixed_point,
    symmetrize_linear,
    verify_gcn_equivalence,
    verify_linear_equivalence,
)
from unfoldgnn.graph import LaplacianKind, propagation_matrix
from unfoldgnn.implicit import project_weights
from unfoldgnn.verify import random_graph, real_spectrum_asymmetric

SELF = LaplacianKind.SELF_LOOP_SYM


class TestSymmetrizeLinear:
    def test_symmetric_input_uses_orthogonal_eigenbasis(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng, 8, 0.35)
        p_op = propagation_matrix(g, SELF)
        a = rng.normal(size=(3, 3))
        w = project_weights(a + a.T, p_op.toarray(), margin=0.8)
        x = rng.normal(size=(8, 2))
        w_x = rng.normal(size=(2, 3))
        rep = symmetrize_linear(w, g, w_x, x, eps=0.0)
        report = verify_linear_equivalence(rep, g, x, w_p=w, w_x=w_x)
        assert report["residual"] < 1e-10
        assert report["drift"] == pytest.approx(0.0, abs=1e-12)
        assert rep.symmetry_defect == 0.0
        # eigenbasis of a symmetric matrix: transform is orthogonal
        tt = rep.transform.T @ rep.transform
        np.testing.assert_allclose(tt, np.eye(3), atol=1e-8)

    def test_nilpotent_needs_jitter(self):
        rng = np.random.default_rng(1)
        g = random_graph(rng, 6, 0.35)
        p_op = propagation_matrix(g, SELF)
        w = np.array([[0.0, 0.3], [0.0, 0.0]])
        x = rng.normal(size=(6, 2))
        w_x = rng.normal(size=(2, 2))
        with pytest.raises(ConstructionError):
            symmetrize_linear(w, g, w_x, x, eps=0.0)
        rep = symmetrize_linear(w, g, w_x, x, eps=1e-4)
        report = verify_linear_equivalence(rep, g, x, w_p=w, w_x=w_x)
        assert report["residual"] < 1e-6
        assert report["drift"] < 1e-2
        assert rep.symmetry_defect == 0.0  # triangular Schur form keeps the spectrum real

    def test_real_spectrum_asymmetric_exact_without_jitter(self):
        rng = np.random.default_rng(2)
        g = random_graph(rng, 10, 0.35)
        p_op = propagation_matrix(g, SELF)
        w = real_spectrum_asymmetric(rng, 4, p_op.toarray())
        assert np.abs(w - w.T).max() > 1e-3
        x = rng.normal(size=(10, 3))
        w_x = rng.normal(size=(3, 4))
        rep = symmetrize_linear(w, g, w_x, x, eps=0.0)
        report = verify_linear_equivalence(rep, g, x, w_p=w, w_x=w_x)
        assert report["residual"] < 1e-10
        assert report["drift"] == 0.0
        np.testing.assert_allclose(rep.w_p_sym, rep.w_p_sym.T, atol=1e-14)
        assert report["right_inverse_error"] < 1e-10

    def test_drift_shrinks_with_jitter(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 9, 0.35)
        p_op = propagation_matrix(g, SELF)
        w = real_spectrum_asymmetric(rng, 3, p_op.toarray())
        x = rng.normal(size=(9, 2))
        w_x = rng.normal(size=(2, 3))
        drifts = []
        for eps in (1e-2, 1e-4, 1e-6):
            rep = symmetrize_linear(w, g, w_x, x, eps=eps, seed=7)
            report = verify_linear_equivalence(rep, g, x, w_p=w, w_x=w_x)
            assert report["residual"] < 1e-6
            drifts.append(report["drift"])
        assert drifts[1] < 10 * drifts[0]
        assert drifts[2] < 10 * drifts[1]
        assert drifts[2] < drifts[0]

    def test_complex_pair_keeps_exact_equation_but_reports_skew(self):
        # rotation weight: the fixed-point identity is exact, the
        # symmetry defect equals |Im lambda| and cannot be removed
        rng = np.random.default_rng(4)
        g = random_graph(rng, 8, 0.35)
        theta = 0.9
        w = 0.5 * np.array([[np.cos(theta), np.sin(theta)],
                            [-np.sin(theta), np.cos(theta)]])
        x = rng.normal(size=(8, 2))
        w_x = rng.normal(size=(2, 2))
        rep = symmetrize_linear(w, g, w_x, x, eps=0.0)
        report = verify_linear_equivalence(rep, g, x, w_p=w, w_x=w_x)
        assert report["residual"] < 1e-10
        assert rep.symmetry_defect == pytest.approx(0.5 * np.sin(theta), abs=1e-10)
        assert rep.w_p_sym.shape[0] == 4

    def test_random_sweep_residual_and_symmetry(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            d = int(rng.integers(2, 7))
            g = random_graph(rng, int(rng.integers(6, 14)), 0.35)
            p_op = propagation_matrix(g, SELF)
            w = real_spectrum_asymmetric(rng, d, p_op.toarray())
            x = rng.normal(size=(g.n, 3))
            w_x = rng.normal(size=(3, d))
            rep = symmetrize_linear(w, g, w_x, x, eps=0.0)
            report = verify_linear_equivalence(rep, g, x, w_p=w, w_x=w_x)
            assert report["residual"] < 1e-6, f"trial {trial}"
            np.testing.assert_allclose(rep.w_p_sym, rep.w_p_sym.T, atol=1e-14)


class TestEmbedGcn:
    def test_single_layer_first_block(self):
        rng = np.random.default_rng(6)
        g = random_graph(rng, 7, 0.35)
        p_dense = propagation_matrix(g, SELF).toarray()
        w1 = 0.5 * rng.normal(size=(3, 2))
        emb = embed_gcn([w1], residual=False, sigma=phi_relu())
        y0 = rng.normal(size=(7, 3))
        iterates = embedded_forward(emb, g, y0, steps=1)
        direct = np.maximum(p_dense @ y0 @ w1, 0.0)
        np.testing.assert_allclose(emb.extract(iterates[1], 1), direct, atol=1e-12)

    @pytest.mark.parametrize("sigma", [phi_relu(), phi_zero(), phi_soft_threshold(0.1)])
    def test_three_layer_stack_exact(self, sigma):
        rng = np.random.default_rng(7)
        g = random_graph(rng, 9, 0.35)
        widths = [4, 3, 5, 2]
        layers = [0.6 * rng.normal(size=(widths[i], widths[i + 1])) for i in range(3)]
        emb = embed_gcn(layers, residual=False, sigma=sigma)
        y0 = rng.normal(size=(9, 4))
        report = verify_gcn_equivalence(emb, g, y0, steps=3, layers=layers)
        assert report["ok"], report
        assert max(report["per_layer_max_diff"]) < 1e-10

    def test_residual_stack_exact(self):
        rng = np.random.default_rng(8)
        g = random_graph(rng, 8, 0.35)
        layers = [0.5 * rng.normal(size=(3, 3)) for _ in range(2)]
        emb = embed_gcn(layers, residual=True, sigma=phi_relu())
        y0 = rng.normal(size=(8, 3))
        report = verify_gcn_equivalence(emb, g, y0, steps=2, layers=layers)
        assert report["ok"], report

    def test_zero_steps_trivially_equal(self):
        rng = np.random.default_rng(9)
        g = random_graph(rng, 6, 0.35)
        layers = [rng.normal(size=(2, 2))]
        emb = embed_gcn(layers, residual=False, sigma=phi_relu())
        y0 = rng.normal(size=(6, 2))
        report = verify_gcn_equivalence(emb, g, y0, steps=0, layers=layers)
        assert report["ok"]

    def test_injected_mismatch_flags_layer(self):
        rng = np.random.default_rng(10)
        g = random_graph(rng, 8, 0.35)
        layers = [0.5 * rng.normal(size=(3, 3)) for _ in range(3)]
        emb = embed_gcn(layers, residual=False, sigma=phi_relu())
        emb.w_p_sym_block[emb.block_slices[1], emb.block_slices[2]] += 0.05
        y0 = rng.normal(size=(8, 3))
        report = verify_gcn_equivalence(emb, g, y0, steps=3, layers=layers)
        assert not report["ok"]
        assert report["first_mismatch_layer"] == 2

    def test_width_mismatch_under_residual(self):
        rng = np.random.default_rng(11)
        layers = [rng.normal(size=(3, 4)), rng.normal(size=(4, 4))]
        with pytest.raises(ConstructionError, match="equal layer widths"):
            embed_gcn(layers, residual=True, sigma=phi_zero())

    def test_block_weight_symmetric_and_parameter_budget(self):
        rng = np.random.default_rng(12)
        widths = [3, 2, 4]
        layers = [rng.normal(size=(widths[i], widths[i + 1])) for i in range(2)]
        emb = embed_gcn(layers, residual=False, sigma=phi_zero())
        np.testing.assert_allclose(emb.w_p_sym_block, emb.w_p_sym_block.T, atol=0)
        # distinct nonzero parameters: each layer block is stored once, its
        # transpose tied
        assert np.count_nonzero(np.triu(emb.w_p_sym_block)) == 3 * 2 + 2 * 4

    def test_oracle_matches_hand_loop(self):
        rng = np.random.default_rng(13)
        g = random_graph(rng, 5, 0.35)
        p_dense = propagation_matrix(g, SELF).toarray()
        w = rng.normal(size=(2, 2))
        outs = gcn_oracle(p_dense, [w], residual=True, sigma=phi_relu(),
                          y0=rng.normal(size=(5, 2)))
        manual = np.maximum(p_dense @ outs[0] @ w + outs[0], 0.0)
        np.testing.assert_allclose(outs[1], manual)


def test_linear_fixed_point_oracle_self_consistent():
    rng = np.random.default_rng(15)
    g = random_graph(rng, 7, 0.35)
    p_dense = propagation_matrix(g, SELF).toarray()
    w = project_weights(rng.normal(size=(3, 3)), p_dense, margin=0.8)
    fx = rng.normal(size=(7, 3))
    y = linear_fixed_point(p_dense, w, fx)
    np.testing.assert_allclose(y, p_dense @ y @ w + fx, atol=1e-10)
