import hashlib

import numpy as np
import pytest

from unfoldgnn import _kernels
from unfoldgnn import energy as energy_module
from unfoldgnn import unfold as unfold_module
from unfoldgnn.energy import (
    EnergySpec,
    Rho,
    edge_diagonal,
    energy_eval,
    from_symmetric_pair,
    phi_relu,
    phi_soft_threshold,
    phi_zero,
    rho_absolute,
    rho_cosine,
    rho_identity,
    rho_log,
    rho_truncated_lp,
    rho_truncated_quadratic,
)
from unfoldgnn.graph import LaplacianKind, build_graph, incidence, laplacian, propagation_matrix
from unfoldgnn.implicit import FixedPointConfig, fixed_point_solve, project_weights
from unfoldgnn.model import Model, ModelConfig, softmax_cross_entropy
from unfoldgnn.unfold import (
    PropagationConfig,
    PropagationDivergence,
    closed_form_solution,
    irls_step_bound,
    propagate,
    sandwich_schedule,
    step_size_bound,
    tape_record,
    trace_to_csv,
    unroll,
    unroll_backward,
    verify_descent,
)

COMB = LaplacianKind.COMBINATORIAL


def random_graph(rng, n, p=0.3):
    mask = np.triu(rng.random((n, n)) < p, k=1)
    pairs = np.argwhere(mask)
    if pairs.shape[0] == 0:
        pairs = np.array([[0, 1]])
    return build_graph(n, pairs)


# The normalized variant's step as its own recursion, kept as the
# reference that unroll's plain step on the renormalized Laplacian
# (unfold.normalized_step) must reproduce.


def reweighted_propagation_apply(g, y, gamma):
    """(D_g^-1/2 (A_g + I) D_g^-1/2) @ y with per-edge weights gamma and
    D_g the reweighted degrees plus the self loop.  Invariant to a
    common rescaling of gamma up to the self-loop term, which is what
    keeps attention-driven propagation stable.

    As A_g + I = D_g - L_g with L_g = B.T diag(gamma) B over the
    unit-scale incidence B, this is y - s * (L_g (s * y)) with
    s = D_g^-1/2, computed on the graph's cached incidence view."""
    raw = incidence(g, LaplacianKind.SELF_LOOP_SYM).raw
    deg = np.bincount(raw.eu, weights=gamma, minlength=g.n) \
        + np.bincount(raw.ev, weights=gamma, minlength=g.n)
    s = (1.0 / np.sqrt(deg + 1.0))[:, None]
    return y - s * _kernels.weighted_lap_apply(raw.apply(s * y), gamma, raw.bt)


def normalized_step(g, y, y0, alpha, lam, gamma=None):
    """Pre-prox point of the self-loop-normalized recursion
    Y <- prox[(1-a-a*lam) Y + a*lam*(D~^-1/2 A~ D~^-1/2) Y + a*Y0],
    with the adjacency optionally reweighted by per-edge gamma.  The
    operator is symmetric, so with y0 = 0 this is also the step's
    transpose applied to an upstream gradient."""
    if gamma is None:
        p_hat = propagation_matrix(g, LaplacianKind.SELF_LOOP_SYM)
        _kernels.count_dense(2 * p_hat.nnz * y.shape[1])
        prop = p_hat @ y
    else:
        prop = reweighted_propagation_apply(g, y, gamma)
    return (1.0 - alpha - alpha * lam) * y + alpha * lam * prop + alpha * y0


def gamma_update(spec, bview, y):
    """The edge weights a refresh at Y computes: rho' at its edge diagonal."""
    return spec.rho.grad(edge_diagonal(spec, bview, y))


def abridged_gradient_step(spec, bview, y, fx, gamma, alpha):
    """The plain layer's step at edge weights gamma: EnergySpec.step on
    L_Gamma Y, applied factor by factor."""
    return spec.step(y, _kernels.weighted_lap_apply(bview.apply(y), gamma, bview.bt), fx, alpha)


def random_psd(rng, d, scale=1.0):
    a = rng.normal(size=(d, d))
    return scale * (a @ a.T / d + 0.05 * np.eye(d))


def prox_derivative_at_u(phi, u, alpha):
    """The prox's elementwise derivative at its input u (0 at the kinks),
    as floats: the reference that Phi.prox_mask, read from the output,
    must reproduce."""
    if phi.kind == "zero":
        return np.ones_like(u)
    if phi.kind == "relu":
        return (u > 0).astype(float)
    return (np.abs(u) > alpha * phi.kappa).astype(float)


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
        bmat = incidence(g, COMB).b.toarray()
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


class TestRecordedEnergyIsDescended:
    """The trace records the energy whose gradient the step follows: at a
    refresh, Gamma makes the segment's majorizer touch the energy, so the
    step direction is the energy's gradient there (half of it under simple
    mode's convention)."""

    @staticmethod
    def spec(mode, kind, d):
        rho = rho_log(eps=0.5)
        if mode == "simple":
            return EnergySpec(rho=rho, lam=1.3, kind=kind)
        rng = np.random.default_rng(61)
        return EnergySpec(rho=rho, kind=kind, simple=False, w_fid=random_psd(rng, d),
                          w_prop=random_psd(rng, d, scale=0.5), gradient_mode=mode)

    @pytest.mark.parametrize("mode, kind", [("simple", COMB)] + [
        (mode, kind) for mode in ("exact", "literal") for kind in LaplacianKind],
        ids=lambda x: getattr(x, "name", x))
    def test_step_at_a_refresh_is_the_recorded_energys_gradient(self, mode, kind):
        rng = np.random.default_rng(60)
        n, d, alpha = 12, 3, 0.05
        g = build_graph(n + 1, random_graph(rng, n, p=0.4).edges)  # node n is isolated
        spec = self.spec(mode, kind, d)
        fx = rng.normal(size=(g.n, d))
        y0 = rng.normal(size=(g.n, d))
        cfg = PropagationConfig(steps=1, alpha=alpha, attention_schedule=(0,), y0=y0)
        direction = (y0 - next(unroll(spec, g, fx, cfg)).u) / alpha
        bview = incidence(g, kind)

        def smooth(y):
            ev = energy_eval(spec, bview, y, fx)
            return ev.fidelity + ev.smoothness

        h = 1e-5
        fd = np.zeros_like(y0)
        for i in range(g.n):
            for j in range(d):
                yp, ym = y0.copy(), y0.copy()
                yp[i, j] += h
                ym[i, j] -= h
                fd[i, j] = (smooth(yp) - smooth(ym)) / (2 * h)
        scale = 0.5 if mode == "simple" else 1.0
        np.testing.assert_allclose(direction, scale * fd, rtol=0, atol=1e-6)

    def test_literal_trace_descends_at_the_auto_step(self):
        # the literal step follows Y Wf_s - F: the trace used to record
        # <(Y-F) Wf, Y-F>, which rose at 35 of these 40 steps
        rng = np.random.default_rng(1)
        n, d = 60, 3
        g = build_graph(n, rng.integers(0, n, size=(200, 2)))
        spec = EnergySpec(kind=COMB, simple=False, w_fid=random_psd(rng, d) + 0.1 * np.eye(d),
                          w_prop=random_psd(rng, d), gradient_mode="literal")
        fx = 3.0 * rng.normal(size=(n, d))
        out = propagate(spec, g, fx, PropagationConfig(steps=40))
        totals = [ev.total for ev in out.trace]
        assert sum(b > a for a, b in zip(totals, totals[1:])) == 0
        assert verify_descent(out, slack=0.0)["ok"]

    def test_general_mode_takes_its_weight_norms_once(self, monkeypatch):
        # auto_irls sizes every layer's step; the norms of Wf_s and Wp_s are
        # the spec's, not the layer's
        rng = np.random.default_rng(62)
        g = random_graph(rng, 20)
        fx = rng.normal(size=(g.n, 3))
        spec = self.spec("exact", COMB, 3)
        calls = []
        norm = energy_module.spectral_norm
        monkeypatch.setattr(energy_module, "spectral_norm",
                            lambda mat: calls.append(mat) or norm(mat))
        cfg = PropagationConfig(steps=6, alpha="auto_irls", attention_schedule=(0, 2, 4))
        propagate(spec, g, fx, cfg)
        propagate(spec, g, fx, cfg)
        assert len(calls) == 2

    def test_absolute_backward_through_a_capped_edge(self):
        # edge (0, 1) is 1e-3 long, where absolute's weight 1 / (2 z) = 500
        # is capped at gamma_max = 100, so rho'' is 0 there; reading -0.25 z^-3
        # there, the backward gave [3.73, -3.73, 0.50] against [0.51, -0.51, 0.50]
        g = build_graph(3, [(0, 1), (1, 2)])
        fx = np.array([[0.0], [1e-3], [1.0]])
        d_y = np.array([[1.0], [-1.0], [0.5]])
        spec = EnergySpec(rho=rho_absolute(gamma_max=100.0), kind=COMB)
        cfg = PropagationConfig(steps=3, alpha=0.001, attention_schedule=(0,), record_trace=False)
        layers = list(unroll(spec, g, fx, cfg))
        got = unroll_backward(spec, g, fx, layers, d_y, True)

        def loss(f):
            return float(np.sum(d_y * list(unroll(spec, g, f, cfg))[-1].y))

        h = 1e-7
        fd = np.zeros_like(fx)
        for i in range(3):
            fp, fm = fx.copy(), fx.copy()
            fp[i, 0] += h
            fm[i, 0] -= h
            fd[i, 0] = (loss(fp) - loss(fm)) / (2 * h)
        np.testing.assert_allclose(got, fd, rtol=1e-6, atol=1e-8)


class TestStepSizeBound:
    def test_two_node_path_reweighted_bound(self):
        g = build_graph(2, [(0, 1)])
        spec = EnergySpec(lam=1.0)
        assert step_size_bound(spec, g) == pytest.approx(1.0 / 3.0, rel=1e-6)
        alpha = irls_step_bound(spec, incidence(g, COMB), np.ones(1))
        assert alpha == pytest.approx(1.0 / 3.0, rel=1e-6)

    @staticmethod
    def exact_weighted_lap_norm(g, kind, gamma):
        b = incidence(g, kind).b.toarray()
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
            assert step_size_bound(spec, g) <= safe

    def test_auto_step_covers_unit_gamma_before_the_first_refresh(self):
        # log with eps = 4 weighs every edge at most 1/4, but Gamma is ones
        # until a refresh: a step sized for weights up to 1/4 diverged at
        # step 29 here, with no refresh scheduled
        rng = np.random.default_rng(0)
        g = build_graph(200, rng.integers(0, 200, size=(1000, 2)))
        spec = EnergySpec(rho=rho_log(eps=4.0), lam=1.0, kind=COMB)
        exact = np.abs(np.linalg.eigvalsh(laplacian(g, COMB).toarray())).max()
        alpha = step_size_bound(spec, g)
        assert alpha == pytest.approx(1.0 / (1.0 + exact), rel=1e-10)
        assert alpha <= 1.0 / (1.0 + exact)
        fx = rng.normal(size=(g.n, 3))
        out = propagate(spec, g, fx, PropagationConfig(steps=60))
        np.testing.assert_allclose(out.y, closed_form_solution(g, fx, 1.0, COMB), atol=1e-4)

    @pytest.mark.parametrize("mode, kind", [("simple", COMB)] + [
        ("exact", kind) for kind in LaplacianKind], ids=lambda x: getattr(x, "name", x))
    def test_auto_step_falls_back_to_the_certified_bound(self, mode, kind):
        # a Lanczos ||L|| ten times too small would step past 2 / Lip; the
        # certified O(m) bound at Gamma = 1 catches it and sizes the step.
        # Simple mode's trace is its energy under COMBINATORIAL only.
        rng = np.random.default_rng(45)
        g = random_graph(rng, 40, p=0.15)
        rho = rho_log(eps=0.5)
        if mode == "simple":
            spec = EnergySpec(rho=rho, lam=1.5, kind=kind)
        else:
            spec = EnergySpec(rho=rho, kind=kind, simple=False, w_fid=random_psd(rng, 3),
                              w_prop=random_psd(rng, 3, scale=0.5), gradient_mode=mode)
        cap = max(rho.grad_max(), 1.0)
        ops = g.operators(kind)
        kept = step_size_bound(spec, g)
        assert kept == spec.step_bound(ops.laplacian_norm * (1.0 + 1e-12), cap)
        ops.__dict__["laplacian_norm"] = ops.laplacian_norm / 10.0  # the cached value
        bview = incidence(g, kind)
        certified = spec.step_bound(bview.norm_bound(np.ones(g.m)), cap)
        wrong = spec.step_bound(ops.laplacian_norm * (1.0 + 1e-12), cap)
        assert wrong >= 2.0 * certified
        assert step_size_bound(spec, g) == certified < kept
        fx = rng.normal(size=(g.n, 3))
        # under COMBINATORIAL the wrong step is far enough past 2 / Lip to rise
        for alpha, ok in [("auto", True)] + [(wrong, False)] * (kind is COMB):
            cfg = PropagationConfig(steps=10, alpha=alpha, attention_schedule=(5,))
            report = verify_descent(propagate(spec, g, fx, cfg))
            assert report["ok"] == ok, report

    @pytest.mark.parametrize("rho", [rho_truncated_quadratic(tau=0.0), rho_log(eps=4.0),
                                     rho_truncated_lp(p=0.5, tau=1.5, big_t=2.0)],
                             ids=lambda r: r.kind)
    def test_weights_below_one_take_the_unit_gamma_step(self, rho):
        g = random_graph(np.random.default_rng(44), 30)
        assert rho.grad_max() < 1.0
        for kind in LaplacianKind:
            unit = step_size_bound(EnergySpec(lam=1.5, kind=kind), g)
            assert step_size_bound(EnergySpec(rho=rho, lam=1.5, kind=kind), g) == unit

    def test_fixed_point_pairing_descends_at_unit_step(self):
        # W_f = I - W_p: the energy's Hessian is I - P (x) W_p, whose norm is
        # at most 1 + ||W_p|| ||P|| < 2, so the unit step is inside 2 / curvature
        rng = np.random.default_rng(6)
        for trial in range(6):
            g = random_graph(rng, 10)
            w = random_psd(rng, 3, scale=0.2)
            w /= max(1.0, 2.5 * np.linalg.svd(w, compute_uv=False)[0])
            spec = from_symmetric_pair(w, np.eye(3) - w, kind=LaplacianKind.SELF_LOOP_SYM,
                                       gradient_mode="exact")
            fx = rng.normal(size=(g.n, 3))
            out = propagate(spec, g, fx, PropagationConfig(
                steps=40, alpha=1.0, y0=rng.normal(size=(g.n, 3))))
            report = verify_descent(out, slack=1e-12)
            assert report["ok"], f"trial {trial}: {report}"

    def test_zero_propagation_weight_step_boundary(self):
        # with W_p = 0 the energy is the fidelity term alone, whose curvature
        # is lambda_max(W_f + W_f.T): the step 2 / curvature is the boundary
        rng = np.random.default_rng(7)
        g = random_graph(rng, 6)
        w_fid = random_psd(rng, 2)
        spec = EnergySpec(simple=False, w_fid=w_fid, w_prop=np.zeros((2, 2)))
        boundary = 2.0 / np.linalg.eigvalsh(w_fid + w_fid.T).max()
        fx = rng.normal(size=(6, 2))
        y0 = rng.normal(size=(6, 2))
        below, above = (propagate(spec, g, fx, PropagationConfig(
            steps=300, alpha=scale * boundary, y0=y0)) for scale in (0.99, 1.01))
        assert verify_descent(below, slack=0.0)["ok"]
        assert not verify_descent(above, slack=1e-9)["ok"]
        assert above.trace[-1].total > above.trace[0].total


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

    @staticmethod
    def with_isolated_nodes(rng, n, isolated):
        """A random graph on n nodes and ``isolated`` more without an edge,
        relabelled so that the isolated nodes fall among the others."""
        perm = rng.permutation(n + isolated)
        return build_graph(n + isolated, perm[random_graph(rng, n, p=0.25).edges])

    @pytest.mark.parametrize("kind", list(LaplacianKind), ids=lambda k: k.name)
    def test_deep_limit_is_the_closed_form_with_isolated_nodes(self, kind):
        # the step and the closed form read one Laplacian, whose isolated
        # rows are zero, so an isolated node's limit is its f(X) row
        rng = np.random.default_rng(59)
        repro = (build_graph(3, [(0, 1)]), np.array([[1.0], [0.0], [1.0]]), 1.0)
        cases = [repro]
        for _ in range(4):
            g = self.with_isolated_nodes(rng, int(rng.integers(10, 30)), 3)
            cases.append((g, rng.normal(size=(g.n, 2)), float(rng.uniform(0.2, 2.0))))
        for g, fx, lam in cases:
            assert (g.degrees == 0).any()
            out = propagate(EnergySpec(lam=lam, kind=kind), g, fx,
                            PropagationConfig(steps=3000, alpha="auto", record_trace=False))
            target = closed_form_solution(g, fx, lam, kind)
            assert np.linalg.norm(out.y - target) <= 1e-10 * np.linalg.norm(target)
            isolated = g.degrees == 0
            np.testing.assert_allclose(target[isolated], fx[isolated], rtol=1e-12)

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
            alpha = step_size_bound(spec, g)
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

    def test_rise_before_the_first_refresh_is_on_the_unit_weight_energy(self):
        rng = np.random.default_rng(0)
        g = build_graph(200, rng.integers(0, 200, size=(1000, 2)))
        fx = rng.normal(size=(g.n, 3))
        spec = EnergySpec(rho=rho_log(eps=1.0), lam=1.0, kind=COMB)
        unrefreshed = propagate(spec, g, fx, PropagationConfig(steps=40))
        assert not verify_descent(unrefreshed)["ok"]
        # with Gamma at ones the layers are those of identity rho, whose
        # recorded energy they descend
        unit = propagate(EnergySpec(lam=1.0, kind=COMB), g, fx, PropagationConfig(steps=40))
        assert unit.y.tobytes() == unrefreshed.y.tobytes()
        assert verify_descent(unit)["ok"]
        refreshed = propagate(spec, g, fx, PropagationConfig(steps=40, attention_schedule=(0, 20)))
        assert verify_descent(refreshed)["ok"]

    def test_oversized_step_flagged(self):
        rng = np.random.default_rng(17)
        g = random_graph(rng, 12, p=0.5)
        spec = EnergySpec(lam=4.0)
        fx = rng.normal(size=(12, 2))
        alpha = step_size_bound(spec, g)
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


@pytest.mark.parametrize("alpha", [np.nan, np.inf])
def test_non_finite_alpha_rejected(alpha):
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        PropagationConfig(alpha=alpha)


class TestVariants:
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

    def test_normalized_rejects_general_mode_energy(self):
        # the normalized step reads lam only, so two general-mode specs with
        # different weights would take the same steps
        rng = np.random.default_rng(24)
        g = random_graph(rng, 8)
        fx = rng.normal(size=(8, 2))
        spec = EnergySpec(simple=False, w_fid=random_psd(rng, 2), w_prop=random_psd(rng, 2),
                          kind=LaplacianKind.SELF_LOOP_SYM)
        cfg = PropagationConfig(steps=3, alpha=0.2, variant="normalized")
        with pytest.raises(ValueError, match="normalized variant"):
            propagate(spec, g, fx, cfg)
        with pytest.raises(ValueError, match="normalized variant"):
            next(unroll(spec, g, fx, cfg))

    @pytest.mark.parametrize("kind", [COMB, LaplacianKind.SYM_NORMALIZED])
    def test_normalized_rejects_kinds_other_than_self_loop_sym(self, kind):
        # the normalized step always propagates with the self-loop operator,
        # so every kind would take the same steps while its own energy rose
        rng = np.random.default_rng(27)
        g = random_graph(rng, 8)
        fx = rng.normal(size=(8, 2))
        cfg = PropagationConfig(steps=3, alpha=0.2, variant="normalized")
        spec = EnergySpec(lam=1.0, kind=kind)
        with pytest.raises(ValueError, match="self_loop_sym"):
            propagate(spec, g, fx, cfg)
        with pytest.raises(ValueError, match="self_loop_sym"):
            next(unroll(spec, g, fx, cfg))
        with pytest.raises(ValueError, match="self_loop_sym"):
            ModelConfig(variant="normalized", kind=kind)

    def test_normalized_rejects_cosine_reweighting(self):
        # on a 4-cycle with distance 5 across every edge the cosine weights
        # are 1 - 25/4 < 0, and so are the reweighted degrees plus the self
        # loop, whose inverse square root is nan
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        fx = np.array([[0.0], [5.0], [0.0], [5.0]])
        spec = EnergySpec(rho=rho_cosine(), lam=1.0, kind=LaplacianKind.SELF_LOOP_SYM)
        cfg = PropagationConfig(steps=4, alpha=0.5, variant="normalized", attention_schedule=(0,))
        with pytest.raises(ValueError, match="cosine"):
            propagate(spec, g, fx, cfg)
        with pytest.raises(ValueError, match="cosine"):
            ModelConfig(variant="normalized", rho=rho_cosine(), steps=4, attention_schedule=(0,))
        # without a refresh the weights stay ones
        unweighted = PropagationConfig(steps=4, alpha=0.5, variant="normalized")
        assert np.isfinite(propagate(spec, g, fx, unweighted).y).all()

    def test_cosine_reweighting_takes_a_user_alpha_only(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        fx = np.array([[0.0], [0.5], [0.0], [0.5]])
        spec = EnergySpec(rho=rho_cosine(), lam=1.0, kind=LaplacianKind.SELF_LOOP_SYM)
        for alpha in ("auto", "auto_irls"):
            cfg = PropagationConfig(steps=4, alpha=alpha, attention_schedule=(0,))
            with pytest.raises(ValueError, match="only a user-given alpha"):
                next(unroll(spec, g, fx, cfg))
            with pytest.raises(ValueError, match="only a user-given alpha"):
                ModelConfig(rho=rho_cosine(), steps=4, alpha=alpha, attention_schedule=(0,))
            # without a refresh the weights stay ones
            unweighted = PropagationConfig(steps=4, alpha=alpha)
            assert np.isfinite(propagate(spec, g, fx, unweighted).y).all()
        cfg = PropagationConfig(steps=4, alpha=0.3, attention_schedule=(0,))
        assert np.isfinite(propagate(spec, g, fx, cfg).y).all()

    def test_normalized_rejects_full_attention_gradient(self):
        # the Gamma gradient differentiates B.T diag(gamma) B, not the
        # renormalized Laplacian the normalized variant steps with
        with pytest.raises(ValueError, match="plain variant only"):
            ModelConfig(variant="normalized", attention_grad="full")
        assert ModelConfig(variant="plain", attention_grad="full").attention_grad == "full"

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


    def test_reweighted_matches_dense_definition(self):
        # D_g^-1/2 (A_g + I) D_g^-1/2 y, with D_g the reweighted degrees
        # plus the self loop; node 9 is isolated
        rng = np.random.default_rng(27)
        g = build_graph(10, random_graph(rng, 9).edges)
        y = rng.normal(size=(10, 3))
        gamma = rng.random(g.m) + 0.1
        adj = np.zeros((g.n, g.n))
        for (u, v), w in zip(g.edges, gamma):
            adj[u, v] = adj[v, u] = w
        s = 1.0 / np.sqrt(adj.sum(axis=1) + 1.0)
        want = (s[:, None] * (adj + np.eye(g.n)) * s[None, :]) @ y
        np.testing.assert_allclose(reweighted_propagation_apply(g, y, gamma), want,
                                   rtol=1e-13, atol=1e-14)


def reference_normalized_unroll(spec, g, fx, cfg, d_y):
    """The last Y and d(loss)/d(f(X)) of the normalized variant taken as
    the recursion :func:`normalized_step` above, forward and reverse."""
    bview = incidence(g, spec.kind)
    gamma = np.ones(g.m)
    y = fx.copy()
    tape = []
    for k in range(cfg.steps):
        if k in cfg.attention_schedule:
            gamma = spec.rho.value_and_grad(edge_diagonal(spec, bview, y))[1]
        if cfg.alpha == "auto":
            alpha = 1.0 / (1.0 + spec.lam)
        elif cfg.alpha == "auto_irls":
            alpha = irls_step_bound(spec, bview, gamma)
        else:
            alpha = cfg.alpha
        used = gamma if cfg.attention_schedule else None
        u = normalized_step(g, y, fx, alpha, spec.lam, gamma=used)
        tape.append((u, alpha, used))
        y = spec.phi.prox(u, alpha)
    d_fx = np.zeros_like(fx)
    for u, alpha, used in reversed(tape):
        d_u = prox_derivative_at_u(spec.phi, u, alpha) * d_y
        d_fx += alpha * d_u
        d_y = normalized_step(g, d_u, 0.0, alpha, spec.lam, gamma=used)
    return y, d_fx + d_y


class TestNormalizedIsThePlainStep:
    """The normalized variant is the plain step on the SELF_LOOP_SYM
    Laplacian renormalized by gamma (unfold.normalized_step)."""

    SELF = LaplacianKind.SELF_LOOP_SYM

    @staticmethod
    def graph():
        # nodes 12 and 13 are isolated
        rng = np.random.default_rng(60)
        return build_graph(14, random_graph(rng, 12, p=0.35).edges)

    def test_renormalized_laplacian_matches_dense_definition(self):
        g = self.graph()
        gamma = np.random.default_rng(61).random(g.m) + 0.1
        adj = np.zeros((g.n, g.n))
        for (u, v), w in zip(g.edges, gamma):
            adj[u, v] = adj[v, u] = w
        s = 1.0 / np.sqrt(adj.sum(axis=1) + 1.0)
        want = np.eye(g.n) - s[:, None] * (adj + np.eye(g.n)) * s[None, :]
        got = unfold_module.normalized_step(g, gamma).toarray()
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)
        unit = unfold_module.normalized_step(g, np.ones(g.m)).toarray()
        np.testing.assert_allclose(unit, laplacian(g, self.SELF).toarray(), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("phi", [phi_zero(), phi_relu()], ids=["zero", "relu"])
    @pytest.mark.parametrize("alpha", [0.3, "auto", "auto_irls"])
    @pytest.mark.parametrize("schedule", [(), (0,), (3,), tuple(range(8)), (2, 5, 6)],
                             ids=["none", "start", "mid", "every", "mixed"])
    def test_forward_and_backward_match_the_recursion(self, schedule, alpha, phi):
        g = self.graph()
        rng = np.random.default_rng(62)
        fx = rng.normal(size=(g.n, 3))
        d_y = rng.normal(size=(g.n, 3))
        spec = EnergySpec(rho=rho_truncated_lp(p=0.5, tau=0.3, big_t=2.0), phi=phi,
                          lam=1.5, kind=self.SELF)
        cfg = PropagationConfig(steps=8, alpha=alpha, variant="normalized",
                                attention_schedule=schedule, record_trace=False)
        layers = list(unroll(spec, g, fx, cfg))
        d_fx = unroll_backward(spec, g, fx, layers, d_y, False)
        want_y, want_d_fx = reference_normalized_unroll(spec, g, fx, cfg, d_y)
        assert np.abs(layers[-1].y - want_y).max() <= 1e-12 * np.abs(want_y).max()
        assert np.abs(d_fx - want_d_fx).max() <= 1e-12 * np.abs(want_d_fx).max()
        # every layer carries its operator: the cached Laplacian until the
        # first refresh, then one assembly per refresh, one-step segments too
        for layer in layers:
            assert layer.gamma.shape == (g.m,)
            assert layer.lap is not None
            assert (layer.lap is laplacian(g, self.SELF)) == (layer.gamma_step < 0)
            assert layer.lap is layers[max(layer.gamma_step, 0)].lap


class TestSegmentLaplacian:
    """The plain variant applies B.T diag(gamma) B as one product per
    step over a segment of at least two forward steps (the cached
    Laplacian while gamma is ones, else an assembly) and factor by
    factor over a one-step segment."""

    # node 9 is isolated
    EDGES = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 6), (1, 5), (6, 7),
             (7, 8), (3, 8)]

    @staticmethod
    def spec(mode, kind, d):
        rho = rho_log(eps=0.5)
        if mode == "simple":
            return EnergySpec(rho=rho, lam=1.3, kind=kind)
        rng = np.random.default_rng(50)
        return EnergySpec(rho=rho, kind=kind, simple=False, w_fid=random_psd(rng, d),
                          w_prop=random_psd(rng, d, scale=0.5), gradient_mode=mode)

    @staticmethod
    def factored(monkeypatch):
        """Make every segment apply B.T (gamma * (B y)) factor by factor."""
        monkeypatch.setattr(unfold_module, "_segment_laplacian", lambda *args: None)

    @pytest.mark.parametrize("schedule", [(), (0, 1, 5), (3, 4)])
    @pytest.mark.parametrize("mode", ["simple", "exact", "literal"])
    @pytest.mark.parametrize("kind", list(LaplacianKind), ids=lambda k: k.name)
    def test_matches_factored_forward_and_backward(self, kind, mode, schedule, monkeypatch):
        g = build_graph(10, self.EDGES)
        d = 3
        rng = np.random.default_rng(51)
        fx = rng.normal(size=(g.n, d))
        d_y = rng.normal(size=(g.n, d))
        spec = self.spec(mode, kind, d)
        cfg = PropagationConfig(steps=8, alpha=0.1, attention_schedule=schedule,
                                record_trace=False)
        layers = list(unroll(spec, g, fx, cfg))
        grads = [unroll_backward(spec, g, fx, layers, d_y, full)
                 for full in (False, True)]
        starts = sorted({0, *schedule})
        ends = dict(zip(starts, starts[1:] + [8]))
        for k, layer in enumerate(layers):
            start = max(s for s in starts if s <= k)
            assert (layer.lap is None) == (ends[start] - start < 2)
            assert layer.lap is layers[start].lap
        cached = layers[0].lap is laplacian(g, kind)
        assert cached == (0 not in schedule)

        self.factored(monkeypatch)
        want = list(unroll(spec, g, fx, cfg))
        assert all(layer.lap is None for layer in want)
        for got, ref in zip(layers, want):
            assert got.gamma_step == ref.gamma_step
            assert np.abs(got.y - ref.y).max() <= 1e-12 * np.abs(ref.y).max()
        for full, got in zip((False, True), grads):
            ref = unroll_backward(spec, g, fx, want, d_y, full)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_every_step_schedule_counts_the_factored_product(self):
        # robust-cold's plan: an attention refresh and an IRLS step at every
        # layer, so every segment is one step long
        rng = np.random.default_rng(52)
        n, d, k = 60, 4, 8
        g = build_graph(n, rng.integers(0, n, size=(4 * n, 2)))
        spec = EnergySpec(rho=rho_truncated_lp(p=0.5, tau=0.3, big_t=2.0), phi=phi_relu(),
                          lam=1.0, kind=COMB)
        cfg = PropagationConfig(steps=k, alpha="auto_irls", attention_schedule=tuple(range(k)),
                                record_trace=False)
        out = propagate(spec, g, rng.normal(size=(n, d)), cfg)
        # per layer: B y once (2 m d), the refresh's squared distances of its
        # rows (2 m d) and B.T (gamma * rows) (3 m d); no assembly
        assert out.ops == {"edge": k * (2 + 2 + 3) * g.m * d, "dense": 0}

    def test_sandwich_training_step_assembles_once_in_the_forward(self):
        rng = np.random.default_rng(53)
        n, d, k = 40, 3, 8
        g = build_graph(n, [(i, (i + 1 + j) % n) for i in range(n) for j in range(3)])
        kind = LaplacianKind.SELF_LOOP_SYM
        nnz = n + 2 * g.m  # every node has an edge, and rho_log keeps gamma > 0
        assert laplacian(g, kind).nnz == nnz
        cfg = ModelConfig(backend="unrolled", embed_dim=d, n_classes=2, steps=k, alpha="auto",
                          rho=rho_log(eps=0.5), kind=kind, attention_schedule=sandwich_schedule(k))
        model = Model(5, cfg, seed=1)
        x = rng.normal(size=(n, 5))
        labels = rng.integers(0, 2, size=n)
        before = _kernels.op_counter()["edge"]
        logits, cache = model.forward(g, x)
        forward = _kernels.op_counter()["edge"] - before
        _, d_logits = softmax_cross_entropy(logits, labels, np.arange(n))
        before = _kernels.op_counter()["edge"]
        model.backward(cache, d_logits)
        backward = _kernels.op_counter()["edge"] - before
        layers = cache["prop"]["layers"]
        assert layers[0].lap is laplacian(g, kind)
        assert layers[-1].lap.nnz == nnz
        # forward: one product per layer, plus at the refresh its squared
        # distances (4 m d) and the one assembly (6 m)
        assert forward == k * 2 * nnz * d + 4 * g.m * d + 6 * g.m
        # backward: one product per layer with the operator its layer recorded
        assert backward == k * 2 * nnz * d


class TestRefreshDiagonal:
    """A refresh keeps the edge diagonal it computed on its layer; the
    energy trace and the attention backward read it there."""

    @staticmethod
    def every_step(k):
        rng = np.random.default_rng(52)
        n, d = 60, 4
        g = build_graph(n, rng.integers(0, n, size=(4 * n, 2)))
        spec = EnergySpec(rho=rho_truncated_lp(p=0.5, tau=0.3, big_t=2.0), phi=phi_relu(),
                          lam=1.0, kind=COMB)
        return g, spec, rng.normal(size=(n, d)), tuple(range(k))

    def test_every_step_trace_counts_one_diagonal_per_refresh(self):
        k = 8
        g, spec, fx, schedule = self.every_step(k)
        m, d = g.m, fx.shape[1]
        cfg = PropagationConfig(steps=k, alpha="auto_irls", attention_schedule=schedule)
        out = propagate(spec, g, fx, cfg)
        assert len(out.trace) == k + 1
        # per layer B y once (2 m d), the refresh's squared distances of its
        # rows (2 m d), which the trace reads for the energy of the layer's
        # input, and B.T (gamma * rows) (3 m d); the trace computes only the
        # last embedding's own (4 m d)
        assert out.ops == {"edge": k * (2 + 2 + 3) * m * d + 4 * m * d, "dense": 0}

    @pytest.mark.parametrize("schedule", ["every", "sandwich", "none"])
    @pytest.mark.parametrize("mode", ["simple", "general"])
    def test_trace_equals_energy_at_every_iterate(self, mode, schedule):
        k = 6
        g, spec, fx, every = self.every_step(k)
        if mode == "general":
            rng = np.random.default_rng(54)
            d = fx.shape[1]
            spec = EnergySpec(rho=rho_log(eps=0.5), kind=COMB, simple=False,
                              w_fid=random_psd(rng, d), w_prop=random_psd(rng, d, scale=0.5))
        sched = {"every": every, "sandwich": sandwich_schedule(k), "none": ()}[schedule]
        cfg = PropagationConfig(steps=k, alpha=0.05, attention_schedule=sched)
        out = propagate(spec, g, fx, cfg)
        layers = list(unroll(spec, g, fx, cfg))
        bview = incidence(g, COMB)
        ys = [fx] + [layer.y for layer in layers]
        assert out.trace == [energy_eval(spec, bview, y, fx) for y in ys]
        for layer, y in zip(layers, ys):
            if layer.k in sched:
                assert layer.diagonal.tobytes() == edge_diagonal(spec, bview, y).tobytes()
            else:
                assert layer.diagonal is None

    def test_one_rho_pass_per_refresh(self, monkeypatch):
        k = 8
        g, spec, fx, schedule = self.every_step(k)
        calls = []
        evaluate = Rho._evaluate

        def counting(rho, zsq, value, grad):
            calls.append((value, grad))
            return evaluate(rho, zsq, value, grad)

        monkeypatch.setattr(Rho, "_evaluate", counting)
        propagate(spec, g, fx, PropagationConfig(steps=k, alpha="auto_irls",
                                                 attention_schedule=schedule))
        # each refresh takes gamma and the trace's penalty sum together; the
        # trace evaluates rho itself only at the last embedding
        assert calls == [(True, True)] * k + [(True, False)]

    def test_full_attention_backward_reads_the_stored_diagonal(self, monkeypatch):
        k = 8
        g, spec, fx, schedule = self.every_step(k)
        m, d = g.m, fx.shape[1]
        cfg = PropagationConfig(steps=k, alpha=0.1, attention_schedule=schedule,
                                record_trace=False)
        layers = list(unroll(spec, g, fx, cfg))
        d_y = np.random.default_rng(55).normal(size=fx.shape)

        def recomputed(*args):
            raise AssertionError("the backward computed an edge diagonal again")

        monkeypatch.setattr(unfold_module, "edge_diagonal", recomputed)
        before = _kernels.op_counter()["edge"]
        unroll_backward(spec, g, fx, layers, d_y, True)
        # per layer: the factored transpose (5 m d), B d_u and B y_k
        # (2 m d each), and at its refresh B.T of the weighted raw
        # differences (2 m d each way); no squared distances
        assert _kernels.op_counter()["edge"] - before == k * (5 + 2 + 2 + 2 + 2) * m * d

    @pytest.mark.parametrize("schedule", [(0, 1, 2, 3, 4, 5), (0, 1, 4)])
    @pytest.mark.parametrize("kind", list(LaplacianKind))
    @pytest.mark.parametrize("mode", ["simple", "general"])
    def test_refresh_shares_b_y_with_a_one_step_segment(self, mode, kind, schedule, monkeypatch):
        # the diagonal reads the raw incidence in simple mode and the
        # kind's otherwise; the step always reads the kind's, and only a
        # one-step segment (here starting at 0 and, if every step
        # refreshes, at each step) takes it factor by factor
        k = 6
        g, spec, fx, _ = self.every_step(k)
        m, d = g.m, fx.shape[1]
        if mode == "general":
            rng = np.random.default_rng(56)
            spec = EnergySpec(rho=rho_log(eps=0.5), kind=kind, simple=False,
                              w_fid=random_psd(rng, d), w_prop=random_psd(rng, d, scale=0.5))
        else:
            spec = EnergySpec(rho=spec.rho, phi=spec.phi, lam=spec.lam, kind=kind)
        cfg = PropagationConfig(steps=k, alpha="auto_irls", attention_schedule=schedule,
                                record_trace=False)

        def run():
            before = _kernels.op_counter()["edge"]
            layers = list(unroll(spec, g, fx, cfg))
            return layers, _kernels.op_counter()["edge"] - before

        got, shared_ops = run()
        monkeypatch.setattr(unfold_module, "edge_diagonal",
                            lambda spec, bview, y, rows=None: edge_diagonal(spec, bview, y))
        want, separate_ops = run()
        for a, b in zip(got, want):
            for name in ("u", "y", "gamma", "diagonal"):
                x, ref = getattr(a, name), getattr(b, name)
                assert (x is None and ref is None) or x.tobytes() == ref.tobytes()
            assert a.alpha == b.alpha
        one_step = sum(s + 1 in schedule or s + 1 == k for s in schedule)
        shared = mode == "general" or kind is COMB
        assert separate_ops - shared_ops == (one_step * 2 * m * d if shared else 0)


def reference_u_backward(spec, g, fx, layers, d_y, full_attention):
    """unroll_backward as written on the pre-prox points: each layer's
    prox derivative taken at its u, through a float array of ones for
    phi zero."""
    bview = incidence(g, spec.kind)
    d_fx = np.zeros_like(fx)
    d_gamma = 0.0
    for k in reversed(range(len(layers))):
        layer = layers[k]
        alpha, gamma, r = layer.alpha, layer.gamma, layer.gamma_step
        d_u = prox_derivative_at_u(spec.phi, layer.u, alpha) * d_y
        lap_du = unfold_module._lap_apply(bview, gamma, layer.lap, d_u)
        d_y = spec.step_t(d_u, lap_du, alpha, d_fx)
        if not full_attention or r < 0:
            continue
        y_k = layers[k - 1].y if k else fx
        d_gamma = d_gamma + spec.step_gamma_t(bview, y_k, d_u, alpha)
        if k == r:
            d_y = d_y + spec.edge_form_t(bview, y_k, d_gamma * spec.rho.grad2(layer.diagonal))
            d_gamma = 0.0
    return d_fx + d_y


PHIS = [phi_zero(), phi_relu(), phi_soft_threshold(0.3)]


class TestOutputFormReverse:
    """The reverse reads each prox derivative from the layer's output, and
    the model's tape keeps only what the reverse reads."""

    @pytest.mark.parametrize("phi", [phi_zero(), phi_relu(), phi_soft_threshold(0.0),
                                     phi_soft_threshold(0.7)],
                             ids=["zero", "relu", "soft0", "soft"])
    def test_prox_mask_is_the_derivative_at_u(self, phi):
        alpha = 0.5
        kink = alpha * phi.kappa if phi.kind == "soft_threshold" else 0.0
        tiny = np.nextafter(0.0, 1.0)
        u = np.concatenate([
            [0.0, -0.0, tiny, -tiny, kink, -kink, np.nextafter(kink, np.inf),
             np.nextafter(-kink, -np.inf), np.nextafter(kink, 0.0), 1e300, -1e300,
             np.inf, -np.inf],
            np.random.default_rng(70).normal(size=200)])
        mask = phi.prox_mask(phi.prox(u, alpha))
        want = prox_derivative_at_u(phi, u, alpha)
        if phi.kind == "zero":
            assert mask is None and (want == 1.0).all()
        else:
            assert mask.dtype == bool
            assert mask.astype(float).tobytes() == want.tobytes()

    # the normalized variant takes self_loop_sym and stopped attention only
    PLANS = [(full, "plain", kind) for full in (False, True) for kind in LaplacianKind] \
        + [(False, "normalized", LaplacianKind.SELF_LOOP_SYM)]

    @pytest.mark.parametrize("alpha", [0.3, "auto_irls"])
    @pytest.mark.parametrize("full, variant, kind", PLANS,
                             ids=[f"{'full' if f else 'stop'}-{v}-{k.name}" for f, v, k in PLANS])
    @pytest.mark.parametrize("phi", PHIS, ids=["zero", "relu", "soft"])
    def test_matches_the_u_based_reverse_bitwise(self, phi, full, variant, kind, alpha):
        rng = np.random.default_rng(71)
        g = build_graph(12, random_graph(rng, 11, p=0.35).edges)  # node 11 is isolated
        fx = rng.normal(size=(g.n, 3))
        d_y = rng.normal(size=(g.n, 3))
        d_y_in = d_y.copy()
        spec = EnergySpec(rho=rho_log(eps=0.5), phi=phi, lam=1.2, kind=kind)
        cfg = PropagationConfig(steps=7, alpha=alpha, variant=variant,
                                attention_schedule=(0, 3, 4), record_trace=False)
        layers = list(unroll(spec, g, fx, cfg))
        if phi.kind != "zero":
            assert any((layer.y == 0).any() for layer in layers)  # the mask is not all ones
        tape = [tape_record(spec, layer, full, cfg.attention_schedule) for layer in layers]
        assert all(rec.u is None for rec in tape)
        # the first refresh is at step 0, so full attention reads every layer's y
        assert all((rec.y is None) == (phi.kind == "zero" and not full) for rec in tape)
        assert all((rec.diagonal is None) == (not full or rec.gamma_step != rec.k)
                   for rec in tape)
        want = reference_u_backward(spec, g, fx, layers, d_y, full)
        for records in (tape, layers):
            got = unroll_backward(spec, g, fx, records, d_y, full)
            assert got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(d_y, d_y_in)

    @pytest.mark.parametrize("full", [False, True], ids=["stop", "full"])
    @pytest.mark.parametrize("phi", PHIS, ids=["zero", "relu", "soft"])
    def test_model_tape_keeps_what_the_reverse_reads(self, phi, full):
        rng = np.random.default_rng(72)
        n, k = 30, 6
        g = random_graph(rng, n, p=0.2)
        cfg = ModelConfig(backend="unrolled", embed_dim=3, n_classes=2, steps=k, alpha="auto",
                          rho=rho_log(eps=0.5), phi=phi, kind=COMB,
                          attention_schedule=sandwich_schedule(k),
                          attention_grad="full" if full else "stop")
        model = Model(4, cfg, seed=3)
        logits, cache = model.forward(g, rng.normal(size=(n, 4)))
        layers = cache["prop"]["layers"]
        assert len(layers) == k and all(layer.u is None for layer in layers)
        r0 = min(sandwich_schedule(k))
        if phi.kind != "zero":  # every layer's y, for its prox derivative
            kept = range(k)
        elif full:  # the y each Gamma gradient reads, from the layer before the first refresh
            kept = range(r0 - 1, k)
        else:
            kept = ()
        assert [layer.y is not None for layer in layers] == [j in kept for j in range(k)]
        if kept:
            assert layers[-1].y is cache["y"]
        assert [layer.diagonal is not None for layer in layers] == [full and j == r0
                                                                   for j in range(k)]
        np.testing.assert_array_equal(logits, cache["y"] @ model.params["w_g"].T)


def _digest(arrays):
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr, dtype=float)
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


class TestPinnedOutputs:
    """Every bit of a robust propagation and of its full-attention
    backward on a seeded 300-node graph: a refresh and an IRLS step at
    every layer, and the energy trace.  A change to the layer arithmetic
    must leave these digests as they are."""

    PROPAGATE = {
        COMB: "08f0fe2e31fbc7bf828c574015b5a7aea5e965361e58e05831751d54e84823ac",
        LaplacianKind.SYM_NORMALIZED:
            "f49a1b0be3cc636c5e2ae6eb771541b80afc56bb4ba7f616f3b8a14df039fc3a",
        LaplacianKind.SELF_LOOP_SYM:
            "83b77d76acd22449ee6b049523226a4a170d02b3408f3049880a18d91e166d3f",
    }
    BACKWARD = {
        COMB: "a4729b15cbdc2f6c5a08e17811d9945289fe3bd716e666989bda6ff097f3ac9a",
        LaplacianKind.SYM_NORMALIZED:
            "a53dea69771f208dfa0c586c8668c3219003ca9ffe51aa44ea20696b8ff0868e",
        LaplacianKind.SELF_LOOP_SYM:
            "f7623cfda3fd24129ee7896da628a28f45ece55b181ce54decde87cf07f669af",
    }

    # (propagate, backward) at p = 0.3 under COMBINATORIAL: numpy takes z ** 0.5
    # by its sqrt path, and this pin guards the general pow path
    GENERAL_POWER = ("bdcb6a0320db667288cd2528b252caa699bab94bfa397c0fa8778b6844cd2105",
                     "e0adf16a77fb45e4fc9975d90c7d9714440957455e18d76fe34eebd60684a44c")

    @staticmethod
    def instance(kind, p=0.5):
        rng = np.random.default_rng(58)
        n, d, k = 300, 4, 8
        g = build_graph(n, rng.integers(0, n, size=(4 * n, 2)))
        spec = EnergySpec(rho=rho_truncated_lp(p=p, tau=0.3, big_t=2.0), phi=phi_relu(),
                          lam=1.0, kind=kind)
        cfg = PropagationConfig(steps=k, alpha="auto_irls", attention_schedule=tuple(range(k)))
        return g, spec, rng.normal(size=(n, d)), cfg, rng.normal(size=(n, d))

    @staticmethod
    def propagate_digest(g, spec, fx, cfg):
        out = propagate(spec, g, fx, cfg)
        terms = [[ev.fidelity, ev.smoothness, ev.phi_term] for ev in out.trace]
        gammas = [out.gamma_trace[step] for step in sorted(out.gamma_trace)]
        assert sorted(out.gamma_trace) == list(range(cfg.steps))
        return _digest([out.y, terms, out.alphas, out.residuals, *gammas])

    @staticmethod
    def backward_digest(g, spec, fx, cfg, d_y):
        layers = list(unroll(spec, g, fx, cfg))
        return _digest([unroll_backward(spec, g, fx, layers, d_y, True)])

    @pytest.mark.parametrize("kind", list(LaplacianKind))
    def test_propagate(self, kind):
        g, spec, fx, cfg, _ = self.instance(kind)
        assert self.propagate_digest(g, spec, fx, cfg) == self.PROPAGATE[kind]

    @pytest.mark.parametrize("kind", list(LaplacianKind))
    def test_full_attention_backward(self, kind):
        assert self.backward_digest(*self.instance(kind)) == self.BACKWARD[kind]

    def test_general_power(self):
        g, spec, fx, cfg, d_y = self.instance(COMB, p=0.3)
        gammas = propagate(spec, g, fx, cfg).gamma_trace
        # every piece is reached: weights at tau_bar^(p-2), inside (0, that), and 0
        top = spec.rho.grad_max()
        assert all(((w == top).any(), ((w > 0) & (w < top)).any(), (w == 0).any())
                   for w in gammas.values())
        assert (self.propagate_digest(g, spec, fx, cfg),
                self.backward_digest(g, spec, fx, cfg, d_y)) == self.GENERAL_POWER


class TestPinnedCachedOperators:
    """Every bit of the outputs that read a graph's cached operators, on
    a seeded 300-node graph without an isolated node: an ``alpha="auto"``
    propagation whose first sandwich segment applies the cached Laplacian
    and whose step reads its norm, and a relu fixed-point solve, which
    reads P and its norm.  A change to how the operators are built must
    leave these digests as they are."""

    PROPAGATE = {
        COMB: "93d82f1d5b8dec84c23ae88c285d2614fb518df1937895355f142a6ebb2e60a6",
        LaplacianKind.SYM_NORMALIZED:
            "008f319c84e6396391041ec7864784bf118da52b6ed3ec5d1ca5126eeb8f4d72",
        LaplacianKind.SELF_LOOP_SYM:
            "289116ab4148c492b6f68b4181af33b1a4c27b767637dbe66766969aab9f456b",
    }
    FIXED_POINT = {
        COMB: "a8d56736a63ed1c2cf32e0f6a11ee1871585c76e4f063a3d169b7f340bd64776",
        LaplacianKind.SYM_NORMALIZED:
            "45f1b9169b4a996c23c7336bf891b3bdf8aa9cd3abfd5d88f2a2f88f512c1d66",
        LaplacianKind.SELF_LOOP_SYM:
            "0f59d1f251f6d0c5bb8857be8d03190cb15f23232cc727ffa24bf75a6903a6b6",
    }

    @staticmethod
    def instance():
        rng = np.random.default_rng(59)
        n = 300
        g = build_graph(n, rng.integers(0, n, size=(4 * n, 2)))
        assert g.degrees.min() > 0
        return g, rng.normal(size=(n, 4)), rng

    @pytest.mark.parametrize("kind", list(LaplacianKind), ids=lambda k: k.name)
    def test_auto_step_sandwich_propagate(self, kind):
        g, fx, _ = self.instance()
        spec = EnergySpec(rho=rho_log(eps=0.5), phi=phi_relu(), lam=1.3, kind=kind)
        out = propagate(spec, g, fx, PropagationConfig(
            steps=16, alpha="auto", attention_schedule=sandwich_schedule(16)))
        terms = [[ev.fidelity, ev.smoothness, ev.phi_term] for ev in out.trace]
        assert _digest([out.y, terms, out.alphas, out.residuals]) == self.PROPAGATE[kind]

    @pytest.mark.parametrize("kind", list(LaplacianKind), ids=lambda k: k.name)
    def test_relu_fixed_point_solve(self, kind):
        g, fx, rng = self.instance()
        w = project_weights(rng.normal(size=(4, 4)), g.operators(kind), margin=0.9)
        res = fixed_point_solve(g, w, fx, FixedPointConfig(sigma=phi_relu(), tol=1e-10,
                                                           kind=kind))
        got = _digest([res.y, res.residual_trace, [res.contraction, res.error_bound]])
        assert got == self.FIXED_POINT[kind]


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
