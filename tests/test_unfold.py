import numpy as np
import pytest

from unfoldgnn.energy import (
    EnergySpec,
    energy_eval,
    from_symmetric_pair,
    phi_relu,
    phi_zero,
    rho_identity,
    rho_log,
    rho_truncated_lp,
    rho_truncated_quadratic,
)
from unfoldgnn.graph import LaplacianKind, build_graph, incidence, laplacian, propagation_matrix
from unfoldgnn.unfold import (
    PropagationConfig,
    PropagationDivergence,
    abridged_gradient_step,
    closed_form_solution,
    gamma_update,
    irls_step_bound,
    normalized_step,
    preconditioned_step,
    propagate,
    sandwich_schedule,
    step_size_bound,
    trace_to_csv,
    verify_descent,
)

COMB = LaplacianKind.COMBINATORIAL


def random_graph(rng, n, p=0.3):
    mask = np.triu(rng.random((n, n)) < p, k=1)
    pairs = np.argwhere(mask)
    if pairs.shape[0] == 0:
        pairs = np.array([[0, 1]])
    return build_graph(n, pairs)


def random_psd(rng, d, scale=1.0):
    a = rng.normal(size=(d, d))
    return scale * (a @ a.T / d + 0.05 * np.eye(d))


# the Table-1 penalties: concave, non-decreasing, bounded gradient at 0
DESCENT_RHOS = [
    rho_identity(),
    rho_log(eps=0.5),
    rho_truncated_quadratic(tau=1.0),
    rho_truncated_lp(p=0.5, tau=0.3, big_t=2.0),
]


class TestGammaUpdate:
    def test_identity_rho_gives_ones(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng, 8)
        y = rng.normal(size=(8, 2))
        gamma = gamma_update(EnergySpec(), incidence(g, COMB), y)
        np.testing.assert_array_equal(gamma, np.ones(g.m))

    def test_log_weight_at_unit_distance(self):
        g = build_graph(2, [(0, 1)])
        y = np.array([[1.0], [0.0]])
        spec = EnergySpec(rho=rho_log(eps=1.0))
        assert gamma_update(spec, incidence(g, COMB), y)[0] == pytest.approx(0.5)

    def test_truncated_quadratic_removes_edge(self):
        g = build_graph(2, [(0, 1)])
        y = np.array([[2.0], [0.0]])
        spec = EnergySpec(rho=rho_truncated_quadratic(tau=1.0))
        assert gamma_update(spec, incidence(g, COMB), y)[0] == 0.0


class TestAbridgedStep:
    def test_pure_fidelity_pullback(self):
        rng = np.random.default_rng(1)
        g = random_graph(rng, 6)
        y = rng.normal(size=(6, 2))
        fx = rng.normal(size=(6, 2))
        spec = EnergySpec(simple=False, w_fid=0.5 * np.eye(2), w_prop=np.zeros((2, 2)))
        u = abridged_gradient_step(spec, incidence(g, COMB), y, fx, np.ones(g.m), 1.0)
        np.testing.assert_allclose(u, fx, atol=1e-12)

    def test_simple_mode_matches_dense_update(self):
        rng = np.random.default_rng(2)
        g = random_graph(rng, 9)
        y = rng.normal(size=(9, 3))
        fx = rng.normal(size=(9, 3))
        lam, alpha = 0.8, 0.2
        lap = laplacian(g, COMB).toarray()
        expected = y - alpha * ((lam * lap + np.eye(9)) @ y - fx)
        u = abridged_gradient_step(EnergySpec(lam=lam), incidence(g, COMB), y, fx, np.ones(g.m),
                                   alpha)
        np.testing.assert_allclose(u, expected, atol=1e-12)

    def test_irls_structure_identity(self):
        # (I - a*Dhat) Y + a*(lam*Phat Y + F) with Dhat/Phat split from the
        # reweighted Laplacian equals the abridged step
        rng = np.random.default_rng(3)
        g = random_graph(rng, 8)
        y = rng.normal(size=(8, 2))
        fx = rng.normal(size=(8, 2))
        lam, alpha = 1.3, 0.15
        spec = EnergySpec(rho=rho_log(eps=1.0), lam=lam)
        gamma = gamma_update(spec, incidence(g, COMB), y)
        bmat = incidence(g, COMB).matrix().toarray()
        lhat = bmat.T @ np.diag(gamma) @ bmat
        dhat = np.eye(8) + lam * np.diag(np.diag(lhat))
        phat = np.diag(np.diag(lhat)) - lhat
        expected = (np.eye(8) - alpha * dhat) @ y + alpha * (lam * phat @ y + fx)
        u = abridged_gradient_step(spec, incidence(g, COMB), y, fx, gamma, alpha)
        np.testing.assert_allclose(u, expected, atol=1e-12)

    def test_general_mode_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, 5, p=0.6)
        d = 2
        spec = EnergySpec(
            rho=rho_log(eps=0.7), simple=False,
            w_fid=random_psd(rng, d), w_prop=random_psd(rng, d),
        )
        bview = incidence(g, COMB)
        y = rng.normal(size=(5, d))
        fx = rng.normal(size=(5, d))
        gamma = gamma_update(spec, bview, y)
        alpha = 0.1
        u = abridged_gradient_step(spec, bview, y, fx, gamma, alpha)
        grad = (y - u) / alpha

        def smooth(yy):
            ev = energy_eval(spec, bview, yy, fx)
            return ev.fidelity + ev.smoothness

        h = 1e-6
        fd = np.zeros_like(y)
        for i in range(y.shape[0]):
            for j in range(d):
                yp, ym = y.copy(), y.copy()
                yp[i, j] += h
                ym[i, j] -= h
                fd[i, j] = (smooth(yp) - smooth(ym)) / (2 * h)
        np.testing.assert_allclose(grad, fd, atol=1e-6)

    def test_literal_mode_drops_fidelity_weight_on_fx(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 6)
        d = 2
        w_fid = random_psd(rng, d)
        w_prop = random_psd(rng, d)
        y = rng.normal(size=(6, d))
        fx = rng.normal(size=(6, d))
        exact = EnergySpec(simple=False, w_fid=w_fid, w_prop=w_prop, gradient_mode="exact")
        literal = EnergySpec(simple=False, w_fid=w_fid, w_prop=w_prop, gradient_mode="literal")
        ue = abridged_gradient_step(exact, incidence(g, COMB), y, fx, np.ones(g.m), 1.0)
        ul = abridged_gradient_step(literal, incidence(g, COMB), y, fx, np.ones(g.m), 1.0)
        np.testing.assert_allclose(ul - ue, fx - fx @ (w_fid + w_fid.T), atol=1e-12)


class TestStepSizeBound:
    def test_two_node_path_reweighted_bound(self):
        g = build_graph(2, [(0, 1)])
        spec = EnergySpec(lam=1.0)
        convex, general = step_size_bound(spec, g)
        assert general == pytest.approx(1.0 / 3.0, rel=1e-6)
        assert convex == pytest.approx(2.0 / 3.0, rel=1e-6)
        alpha = irls_step_bound(spec, incidence(g, COMB), np.ones(1))
        assert alpha == pytest.approx(1.0 / 3.0, rel=1e-6)

    @staticmethod
    def exact_weighted_lap_norm(g, kind, gamma):
        b = incidence(g, kind).matrix().toarray()[:g.m]  # edge rows only
        return np.abs(np.linalg.eigvalsh(b.T @ (gamma[:, None] * b))).max() if g.m else 0.0

    @pytest.mark.parametrize("kind", list(LaplacianKind))
    def test_irls_bound_is_certified(self, kind):
        rng = np.random.default_rng(40)
        isolated = build_graph(9, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (5, 6)])
        graphs = [random_graph(rng, 12), random_graph(rng, 30, p=0.1),
                  random_graph(rng, 30, p=0.6), isolated, build_graph(5, [])]
        spec = EnergySpec(lam=1.0, kind=kind)
        for g in graphs:
            bview = incidence(g, kind)
            for gamma in (np.ones(g.m), rng.random(g.m) * (rng.random(g.m) > 0.3),
                          3.0 * rng.random(g.m) ** 4):
                exact = self.exact_weighted_lap_norm(g, kind, gamma)
                certified = 1.0 / irls_step_bound(spec, bview, gamma) - 1.0
                assert certified >= exact * (1.0 - 1e-12)
                assert certified <= 2.0 * exact  # diagonal entries bound the norm below
            # cosine rho' = 1 - z^2/4 turns negative past z^2 = 4
            signed = 1.0 - rng.uniform(0.0, 16.0, size=g.m) / 4.0
            exact = self.exact_weighted_lap_norm(g, kind, signed)
            assert 1.0 / irls_step_bound(spec, bview, signed) - 1.0 >= exact * (1.0 - 1e-12)

    @pytest.mark.parametrize("kind", list(LaplacianKind))
    def test_irls_bound_exact_on_even_cycle(self, kind):
        # regular bipartite graph with uniform weights: the row sums are
        # all equal, so the bound is the norm
        g = build_graph(8, [(i, (i + 1) % 8) for i in range(8)])
        spec = EnergySpec(lam=1.0, kind=kind)
        gamma = np.full(g.m, 0.7)
        exact = self.exact_weighted_lap_norm(g, kind, gamma)
        certified = 1.0 / irls_step_bound(spec, incidence(g, kind), gamma) - 1.0
        assert certified == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("kind", list(LaplacianKind))
    @pytest.mark.parametrize("d", [1, 3])
    def test_auto_irls_steps_are_certified_and_descend(self, kind, d):
        rng = np.random.default_rng(41 + d)
        g = build_graph(20, np.argwhere(np.triu(rng.random((16, 16)) < 0.3, k=1)))
        spec = EnergySpec(rho=rho_log(eps=0.3), phi=phi_relu(), lam=1.5, kind=kind)
        fx = 2.0 * rng.normal(size=(g.n, d))
        out = propagate(spec, g, fx, PropagationConfig(steps=20, alpha="auto_irls",
                                                       attention_schedule=tuple(range(20))))
        report = verify_descent(out, slack=1e-9)
        assert report["ok"], report
        for k, gamma in out.gamma_trace.items():
            exact = self.exact_weighted_lap_norm(g, kind, gamma)
            assert out.alphas[k] <= 1.0 / (1.0 + spec.lam * exact)

    @pytest.mark.parametrize("kind", list(LaplacianKind))
    def test_auto_step_never_exceeds_exact_norm_step(self, kind):
        rng = np.random.default_rng(43)
        spec = EnergySpec(rho=rho_truncated_lp(p=0.5, tau=0.3, big_t=2.0), lam=1.5, kind=kind)
        for n in (12, 60, 200, 600):
            g = random_graph(rng, n, p=6.0 / n)
            exact = np.abs(np.linalg.eigvalsh(laplacian(g, kind).toarray())).max()
            safe = 1.0 / (1.0 + spec.lam * spec.rho.grad_max() * exact)
            assert step_size_bound(spec, g)[1] <= safe

    def test_fixed_point_pairing_admits_unit_step(self):
        rng = np.random.default_rng(6)
        g = random_graph(rng, 10)
        w = random_psd(rng, 3, scale=0.2)
        w /= max(1.0, 2.5 * np.linalg.svd(w, compute_uv=False)[0])
        spec = from_symmetric_pair(w, np.eye(3) - w, kind=LaplacianKind.SELF_LOOP_SYM)
        convex, _ = step_size_bound(spec, g)
        assert convex > 1.0

    def test_zero_propagation_weight(self):
        rng = np.random.default_rng(7)
        g = random_graph(rng, 6)
        w_fid = random_psd(rng, 2)
        spec = EnergySpec(simple=False, w_fid=w_fid, w_prop=np.zeros((2, 2)))
        convex, _ = step_size_bound(spec, g)
        top = np.linalg.eigvalsh(w_fid + w_fid.T).max()
        assert convex == pytest.approx(2.0 / top, rel=1e-6)


class TestClosedForm:
    def test_lambda_zero(self):
        rng = np.random.default_rng(8)
        g = random_graph(rng, 7)
        fx = rng.normal(size=(7, 2))
        np.testing.assert_allclose(closed_form_solution(g, fx, 0.0, COMB), fx)

    def test_two_node_hand_solve(self):
        g = build_graph(2, [(0, 1)])
        fx = np.array([[1.0], [0.0]])
        np.testing.assert_allclose(
            closed_form_solution(g, fx, 1.0, COMB), [[2 / 3], [1 / 3]], atol=1e-12
        )

    def test_constant_columns_fixed(self):
        rng = np.random.default_rng(9)
        g = random_graph(rng, 8)
        fx = np.ones((8, 3)) * np.array([2.0, -1.0, 0.5])
        np.testing.assert_allclose(closed_form_solution(g, fx, 3.0, COMB), fx, atol=1e-10)

    def test_iterative_branch_at_scale(self):
        # above the direct-factorization cutoff the solver switches to
        # conjugate gradients; same residual contract
        rng = np.random.default_rng(30)
        n = 5000
        eu = rng.integers(0, n, size=12000)
        ev = rng.integers(0, n, size=12000)
        keep = eu != ev
        g = build_graph(n, np.stack([eu[keep], ev[keep]], axis=1))
        fx = rng.normal(size=(n, 2))
        lam = 0.8
        y = closed_form_solution(g, fx, lam, LaplacianKind.SELF_LOOP_SYM)
        lap = laplacian(g, LaplacianKind.SELF_LOOP_SYM)
        resid = np.linalg.norm(y + lam * (lap @ y) - fx)
        assert resid < 1e-8 * max(1.0, np.linalg.norm(fx))


class TestPropagate:
    def test_zero_steps(self):
        rng = np.random.default_rng(10)
        g = random_graph(rng, 6)
        fx = rng.normal(size=(6, 2))
        out = propagate(EnergySpec(), g, fx, PropagationConfig(steps=0))
        np.testing.assert_array_equal(out.y, fx)
        assert len(out.trace) == 1

    def test_converges_to_closed_form(self):
        rng = np.random.default_rng(11)
        g = random_graph(rng, 20, p=0.25)
        fx = rng.normal(size=(20, 4))
        spec = EnergySpec(lam=1.0)
        out = propagate(spec, g, fx, PropagationConfig(steps=500, alpha="auto"))
        target = closed_form_solution(g, fx, 1.0, COMB)
        rel = np.linalg.norm(out.y - target) / np.linalg.norm(target)
        assert rel < 1e-6

    def test_relu_keeps_iterates_nonnegative(self):
        rng = np.random.default_rng(12)
        g = random_graph(rng, 10)
        fx = rng.normal(size=(10, 3))
        spec = EnergySpec(phi=phi_relu())
        out = propagate(spec, g, fx, PropagationConfig(steps=7))
        assert (out.y >= 0).all()

    def test_trace_length_and_residuals(self):
        rng = np.random.default_rng(13)
        g = random_graph(rng, 8)
        fx = rng.normal(size=(8, 2))
        out = propagate(EnergySpec(), g, fx, PropagationConfig(steps=9))
        assert len(out.trace) == 10
        assert out.residuals.shape == (9,)

    def test_divergence_guard_raises_with_step(self):
        g = build_graph(2, [(0, 1)])
        fx = np.array([[1.0], [-1.0]])
        with pytest.raises(PropagationDivergence):
            propagate(EnergySpec(lam=1.0), g, fx, PropagationConfig(steps=2000, alpha=50.0))

    def test_gamma_snapshots_at_schedule(self):
        rng = np.random.default_rng(14)
        g = random_graph(rng, 8)
        fx = rng.normal(size=(8, 2))
        spec = EnergySpec(rho=rho_log(eps=1.0), lam=0.5)
        out = propagate(spec, g, fx, PropagationConfig(steps=8, attention_schedule=(0, 4)))
        assert sorted(out.gamma_trace) == [0, 4]

    def test_sandwich_schedule(self):
        assert sandwich_schedule(16) == (8,)
        assert sandwich_schedule(16, refresh_at_start=True) == (0, 8)
        assert sandwich_schedule(0) == ()

    def test_edgeless_graph_pulls_toward_base_prediction(self):
        g = build_graph(4, [])
        fx = np.array([[1.0], [-2.0], [0.5], [3.0]])
        y0 = np.zeros((4, 1))
        out = propagate(EnergySpec(lam=1.0), g, fx,
                        PropagationConfig(steps=200, alpha="auto", y0=y0))
        np.testing.assert_allclose(out.y, fx, atol=1e-8)


class TestDescent:
    def test_random_general_instances_descend_at_safe_step(self):
        # smoke-scale version of the acceptance sweep
        rng = np.random.default_rng(15)
        for trial in range(12):
            n = int(rng.integers(5, 20))
            d = int(rng.integers(1, 5))
            g = random_graph(rng, n)
            spec = EnergySpec(
                rho=DESCENT_RHOS[trial % len(DESCENT_RHOS)],
                phi=phi_relu() if trial % 2 else phi_zero(),
                simple=False,
                w_fid=random_psd(rng, d),
                w_prop=random_psd(rng, d),
            )
            fx = rng.normal(size=(n, d))
            _, alpha = step_size_bound(spec, g)
            cfg = PropagationConfig(steps=25, alpha=alpha,
                                    attention_schedule=tuple(range(25)))
            report = verify_descent(propagate(spec, g, fx, cfg), slack=1e-9)
            assert report["ok"], f"trial {trial}: {report}"

    def test_irls_per_step_bound_descends_robust_energy(self):
        rng = np.random.default_rng(16)
        for trial in range(8):
            n = int(rng.integers(6, 24))
            g = random_graph(rng, n)
            spec = EnergySpec(rho=rho_log(eps=0.3), lam=1.5)
            fx = 2.0 * rng.normal(size=(n, 3))
            cfg = PropagationConfig(steps=30, alpha="auto_irls",
                                    attention_schedule=tuple(range(30)))
            report = verify_descent(propagate(spec, g, fx, cfg), slack=1e-9)
            assert report["ok"], f"trial {trial}: {report}"

    def test_oversized_step_flagged(self):
        rng = np.random.default_rng(17)
        g = random_graph(rng, 12, p=0.5)
        spec = EnergySpec(lam=4.0)
        fx = rng.normal(size=(12, 2))
        _, alpha = step_size_bound(spec, g)
        out = propagate(spec, g, fx, PropagationConfig(steps=12, alpha=10 * alpha))
        assert not verify_descent(out, slack=1e-9)["ok"]

    def test_empty_trace_passes_vacuously(self):
        rng = np.random.default_rng(18)
        g = random_graph(rng, 5)
        fx = rng.normal(size=(5, 2))
        out = propagate(EnergySpec(), g, fx, PropagationConfig(steps=0))
        assert verify_descent(out)["ok"]

    def test_infeasible_start_repaired_by_first_prox(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        fx = np.array([[-1.0], [2.0], [0.5]])
        spec = EnergySpec(phi=phi_relu())
        out = propagate(spec, g, fx, PropagationConfig(steps=5))
        assert np.isinf(out.trace[0].total)
        assert np.isfinite(out.trace[1].total)
        assert verify_descent(out)["ok"]


class TestUniqueness:
    def test_two_initializations_agree(self):
        rng = np.random.default_rng(19)
        g = random_graph(rng, 10)
        d = 3
        w = random_psd(rng, d, scale=0.3)
        w /= max(1.0, 2.0 * np.linalg.svd(w, compute_uv=False)[0])
        spec = from_symmetric_pair(w, np.eye(d) - w, phi=phi_relu(),
                                   kind=LaplacianKind.SELF_LOOP_SYM,
                                   gradient_mode="exact")
        # positive-definite curvature certificate from the dense eigen-oracle
        lap = laplacian(g, LaplacianKind.SELF_LOOP_SYM).toarray()
        sigma = np.kron(np.eye(d) - w, np.eye(g.n)) + np.kron(w, lap)
        assert np.linalg.eigvalsh(sigma).min() > 0
        fx = rng.normal(size=(g.n, d))
        out1 = propagate(spec, g, fx, PropagationConfig(steps=600, alpha=1.0))
        y0 = rng.normal(size=(g.n, d))
        out2 = propagate(spec, g, fx, PropagationConfig(steps=600, alpha=1.0, y0=y0))
        assert np.linalg.norm(out1.y - out2.y) < 1e-7


class TestVariants:
    def test_preconditioned_single_step_is_gcn_layer(self):
        rng = np.random.default_rng(20)
        g = random_graph(rng, 9)
        z0 = rng.normal(size=(9, 4))
        p_hat = propagation_matrix(g, LaplacianKind.SELF_LOOP_SYM).toarray()
        got = phi_relu().prox(preconditioned_step(g, z0, z0, alpha=1.0, lam=1.0), 1.0)
        np.testing.assert_allclose(got, np.maximum(p_hat @ z0, 0.0), atol=1e-12)

    def test_normalized_lambda_zero_returns_start(self):
        rng = np.random.default_rng(21)
        g = random_graph(rng, 7)
        y0 = rng.normal(size=(7, 2))
        y = normalized_step(g, rng.normal(size=(7, 2)), y0, alpha=1.0, lam=0.0)
        np.testing.assert_allclose(y, y0, atol=1e-14)

    def test_normalized_reaches_linear_fixed_point(self):
        rng = np.random.default_rng(22)
        g = random_graph(rng, 15, p=0.3)
        fx = rng.normal(size=(15, 3))
        lam = 1.2
        spec = EnergySpec(lam=lam, kind=LaplacianKind.SELF_LOOP_SYM)
        cfg = PropagationConfig(steps=200, alpha=1.0 / (1.0 + lam), variant="normalized")
        out = propagate(spec, g, fx, cfg)
        target = closed_form_solution(g, fx, lam, LaplacianKind.SELF_LOOP_SYM)
        assert np.linalg.norm(out.y - target) < 1e-8

    def test_normalized_matches_independent_appnp_loop(self):
        rng = np.random.default_rng(23)
        g = random_graph(rng, 11, p=0.35)
        fx = rng.normal(size=(11, 2))
        lam = 2.0
        alpha = 1.0 / (1.0 + lam)
        spec = EnergySpec(lam=lam, kind=LaplacianKind.SELF_LOOP_SYM)
        k = 12
        out = propagate(spec, g, fx, PropagationConfig(steps=k, alpha=alpha, variant="normalized"))
        # independent teleport recursion y <- (1-beta) A_hat y + beta y0
        a_hat = propagation_matrix(g, LaplacianKind.SELF_LOOP_SYM).toarray()
        beta = 1.0 / (1.0 + lam)
        y = fx.copy()
        for _ in range(k):
            y = (1 - beta) * (a_hat @ y) + beta * fx
        np.testing.assert_allclose(out.y, y, atol=1e-12)

    def test_attention_rejected_for_preconditioned(self):
        with pytest.raises(ValueError):
            PropagationConfig(steps=4, variant="preconditioned", attention_schedule=(1,))

    def test_reweighted_normalized_with_unit_gamma_matches_plain(self):
        rng = np.random.default_rng(25)
        g = random_graph(rng, 9)
        y = rng.normal(size=(9, 2))
        y0 = rng.normal(size=(9, 2))
        plain = normalized_step(g, y, y0, alpha=0.4, lam=1.5)
        reweighted = normalized_step(g, y, y0, alpha=0.4, lam=1.5, gamma=np.ones(g.m))
        np.testing.assert_allclose(reweighted, plain, atol=1e-12)

    def test_reweighted_normalized_scale_free_in_gamma(self):
        # rescaling all edge weights only moves the self-loop share
        rng = np.random.default_rng(26)
        g = random_graph(rng, 8)
        y = rng.normal(size=(8, 2))
        gamma = rng.random(g.m) + 0.5
        from unfoldgnn.unfold import reweighted_propagation_apply

        base = reweighted_propagation_apply(g, y, 1000.0 * gamma)
        # with huge weights, the self loop washes out: compare against the
        # pure normalized weighted adjacency
        eu, ev = g.edges[:, 0], g.edges[:, 1]
        deg = np.bincount(eu, weights=gamma, minlength=g.n) \
            + np.bincount(ev, weights=gamma, minlength=g.n)
        adj = np.zeros((g.n, g.n))
        for (u, v), w in zip(g.edges, gamma):
            adj[u, v] = adj[v, u] = w
        s = 1.0 / np.sqrt(deg)
        limit = (s[:, None] * adj * s[None, :]) @ y
        np.testing.assert_allclose(base, limit, atol=2e-3)


class TestTraceExport:
    def test_csv_schema(self, tmp_path):
        rng = np.random.default_rng(24)
        g = random_graph(rng, 6)
        fx = rng.normal(size=(6, 2))
        spec = EnergySpec(rho=rho_log(eps=1.0))
        out = propagate(spec, g, fx, PropagationConfig(steps=4, attention_schedule=(2,)))
        tpath = tmp_path / "trace.csv"
        trace_to_csv(out, tpath)
        lines = tpath.read_text().splitlines()
        assert lines[0].startswith("# schema: propagation-trace")
        assert lines[1] == "step,fidelity,smoothness,phi,total,residual"
        assert len(lines) == 2 + 5
