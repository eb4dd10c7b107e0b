import itertools
import math

import numpy as np
import pytest

from unfoldgnn.energy import (
    _RHO_FACTORIES,
    EnergySpec,
    edge_diagonal,
    energy_eval,
    from_symmetric_pair,
    phi_from_config,
    phi_relu,
    phi_soft_threshold,
    phi_zero,
    rho_absolute,
    rho_cosine,
    rho_from_config,
    rho_identity,
    rho_log,
    rho_truncated_lp,
    rho_truncated_quadratic,
)
from unfoldgnn.graph import LaplacianKind, build_graph, incidence

ALL_RHOS = [
    rho_identity(),
    rho_log(eps=0.5),
    rho_truncated_quadratic(tau=1.0),
    rho_truncated_lp(p=0.1, tau=0.2, big_t=2.0),
    rho_truncated_lp(p=1.0, tau=0.5, big_t=3.0),
    rho_cosine(),
    rho_absolute(),
]


def lp_reference(p, tau, big_t, zsq):
    """Independent scalar evaluation of the three-piece form."""
    tb = tau ** (2 - p)
    t_big = big_t ** (2 - p)
    rho0 = (2 - p) / p * tb ** p
    z = math.sqrt(zsq)
    if z < tb:
        return tb ** (p - 2) * zsq
    if z > t_big:
        return 2 / p * t_big ** p - rho0
    return 2 / p * z ** p - rho0


class TestRhoValues:
    def test_log_at_zero(self):
        assert rho_log(eps=1.0).value(0.0) == pytest.approx(0.0)

    def test_cosine_formula(self):
        assert rho_cosine().value(4.0) == pytest.approx(2.0)

    @pytest.mark.parametrize("zsq", [1e-4, 0.01, 0.5, 2.0, 10.0, 40.0])
    def test_truncated_lp_three_pieces(self, zsq):
        rho = rho_truncated_lp(p=0.1, tau=0.2, big_t=2.0)
        assert rho.value(zsq) == pytest.approx(lp_reference(0.1, 0.2, 2.0, zsq), rel=1e-12)

    def test_truncated_lp_continuity_at_breakpoints(self):
        rho = rho_truncated_lp(p=0.3, tau=0.4, big_t=2.5)
        for z in (rho._tau_bar, rho._t_bar):
            lo = rho.value((z - 1e-9) ** 2)
            hi = rho.value((z + 1e-9) ** 2)
            assert hi == pytest.approx(lo, abs=1e-6)

    def test_truncated_quadratic_saturates(self):
        rho = rho_truncated_quadratic(tau=1.5)
        assert rho.value(1.0) == 1.0
        assert rho.value(9.0) == pytest.approx(1.5 ** 2)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            rho_truncated_lp(p=2.5)
        with pytest.raises(ValueError):
            rho_truncated_lp(p=1.0, tau=3.0, big_t=2.0)
        with pytest.raises(ValueError):
            rho_log(eps=0.0)


class TestRhoGradients:
    def test_log_at_zero(self):
        assert rho_log(eps=1.0).grad(0.0) == pytest.approx(1.0)

    def test_absolute_weight(self):
        assert rho_absolute().grad(4.0) == pytest.approx(0.25)

    def test_absolute_capped_at_zero(self):
        assert rho_absolute(gamma_max=100.0).grad(0.0) == 100.0

    def test_cosine_at_zero(self):
        assert rho_cosine().grad(0.0) == pytest.approx(1.0)

    def test_truncated_quadratic_removes_far_edges(self):
        assert rho_truncated_quadratic(tau=1.0).grad(4.0) == 0.0

    @pytest.mark.parametrize("rho", ALL_RHOS, ids=lambda r: r.kind)
    def test_matches_finite_differences(self, rho):
        # away from breakpoints of the piecewise variants
        pts = np.array([0.03, 0.21, 0.9, 1.7, 3.3])
        h = 1e-7
        fd = (rho.value(pts + h) - rho.value(pts - h)) / (2 * h)
        np.testing.assert_allclose(rho.grad(pts), fd, atol=1e-6)

    @pytest.mark.parametrize("rho", ALL_RHOS, ids=lambda r: r.kind)
    def test_gradient_within_documented_range(self, rho):
        zsq = np.linspace(0.0, 20.0, 400)
        g = rho.grad(zsq)
        assert g.max() <= rho.grad_max() + 1e-12
        if rho.kind != "cosine":  # cosine turns negative past z^2 = 4
            assert g.min() >= 0.0

    def test_log_range_bounds(self):
        rho = rho_log(eps=0.25)
        g = rho.grad(np.linspace(0, 100, 500))
        assert g.max() <= 1 / 0.25 + 1e-12
        assert g.min() > 0

    def test_truncated_lp_range_upper(self):
        rho = rho_truncated_lp(p=0.1, tau=0.2, big_t=2.0)
        zsq = np.linspace(0, 30, 300)
        assert rho.grad(zsq).max() == pytest.approx(rho._tau_bar ** (0.1 - 2))


class TestRhoValueAndGrad:
    """The refresh's one pass over the edge diagonal gives bitwise what
    value and grad give one at a time."""

    @staticmethod
    def grid(rho):
        # 0, each kind's breakpoints exactly, the rounding negatives the
        # guard clamps, and draws across and far beyond the pieces
        rng = np.random.default_rng(57)
        points = [0.0, -1e-13, 5e-324, 1e-300, rho.tau ** 2, 4.0,
                  rho._tau_bar ** 2, rho._t_bar ** 2]
        return np.concatenate([points, rng.uniform(0.0, 3.0, 200), rng.uniform(0.0, 50.0, 50)])

    @pytest.mark.parametrize("rho", ALL_RHOS + [rho_absolute(gamma_max=100.0)],
                             ids=lambda r: r.kind)
    def test_matches_value_and_grad_bitwise(self, rho):
        zsq = self.grid(rho)
        value, grad = rho.value_and_grad(zsq)
        for got, want in ((value, rho.value(zsq)), (grad, rho.grad(zsq))):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rho", ALL_RHOS, ids=lambda r: r.kind)
    def test_scalar_argument(self, rho):
        for zsq in (0.0, rho._tau_bar ** 2, rho._t_bar ** 2, 0.7):
            value, grad = rho.value_and_grad(zsq)
            assert np.asarray(value).tobytes() == np.asarray(rho.value(zsq)).tobytes()
            assert np.asarray(grad).tobytes() == np.asarray(rho.grad(zsq)).tobytes()

    @pytest.mark.parametrize("rho", ALL_RHOS[1:], ids=lambda r: r.kind)
    def test_negative_argument_rejected(self, rho):
        zsq = np.array([1.0, -1e-9])
        for evaluate in (rho.value_and_grad, rho.value, rho.grad):
            with pytest.raises(ValueError, match="nonnegative"):
                evaluate(zsq)

    def test_identity_passes_negatives_through(self):
        zsq = np.array([-2.0, 0.0, 3.0])
        value, grad = rho_identity().value_and_grad(zsq)
        assert value.tolist() == zsq.tolist() and grad.tolist() == [1.0] * 3


def lp_boolean_mask(rho, zsq, value, grad, grad2):
    """truncated_lp as Rho._evaluate once wrote it, through boolean-mask
    gathers over each piece: the bitwise reference for the whole-array form."""
    zsq = np.asarray(zsq, dtype=float)
    if (zsq < -1e-12).any():
        raise ValueError("rho argument must be nonnegative")
    zsq = np.maximum(zsq, 0.0)
    z = np.sqrt(zsq)
    tb, t_big = rho._tau_bar, rho._t_bar
    mid = (z >= tb) & (z <= t_big)
    far = z > t_big
    z_mid = z[mid]
    val = weight = curvature = None
    if value:
        rho0 = (2.0 - rho.p) / rho.p * tb ** rho.p
        val = np.asarray(tb ** (rho.p - 2.0) * zsq, dtype=float)
        val[mid] = 2.0 / rho.p * z_mid ** rho.p - rho0
        val[far] = 2.0 / rho.p * t_big ** rho.p - rho0
    if grad:
        weight = np.full_like(z, tb ** (rho.p - 2.0))
        weight[mid] = z_mid ** (rho.p - 2.0)
        weight[far] = 0.0
    if grad2:
        curvature = np.zeros_like(z)
        curvature[mid] = 0.5 * (rho.p - 2.0) * np.maximum(z_mid, 1e-300) ** (rho.p - 4.0)
    return val, weight, curvature


def lp_rhos():
    """p = 0.5 (numpy's sqrt path), 1 and 2 at fixed thresholds, then
    other powers at seeded thresholds 0 < tau <= T."""
    rng = np.random.default_rng(61)
    rhos = [rho_truncated_lp(p=p, tau=0.3, big_t=2.0) for p in (0.5, 1.0, 2.0)]
    for p in [0.1, 0.3, 1.5, *rng.uniform(0.05, 2.0, 5)]:
        tau, big_t = np.sort(rng.uniform(0.05, 3.0, 2))
        rhos.append(rho_truncated_lp(p=float(p), tau=float(tau), big_t=float(big_t)))
    return rhos


class TestTruncatedLpMatchesBooleanMasks:
    """Rho._evaluate for truncated_lp gives, byte for byte, what the
    boolean-mask formulas give, for every set of outputs asked for."""

    FLAGS = [flags for flags in itertools.product((False, True), repeat=3) if any(flags)]

    @staticmethod
    def grid(rho):
        # NaN and a rounding negative together, signed zeros, subnormals,
        # the breakpoints and their neighbours, inf, and draws over the pieces
        rng = np.random.default_rng(62)
        edges = [rho._tau_bar ** 2, rho._t_bar ** 2]
        points = [np.nan, -1e-13, 0.0, -0.0, 5e-324, 2.2e-308, 1e-300, np.inf, *edges,
                  *np.nextafter(edges, 0.0), *np.nextafter(edges, np.inf)]
        return np.concatenate([points, rng.uniform(0.0, 1.5 * edges[1], 300)])

    @staticmethod
    def assert_same(got, want):
        for g, w in zip(got, want):
            assert (g is None) == (w is None)
            if w is not None:
                g, w = np.asarray(g), np.asarray(w)
                assert g.dtype == w.dtype and g.shape == w.shape
                assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("rho", lp_rhos(), ids=lambda r: f"p={r.p:.3g}")
    @pytest.mark.parametrize("flags", FLAGS, ids=lambda f: "".join("vgc"[i] for i in range(3)
                                                                  if f[i]))
    def test_bitwise(self, rho, flags):
        zsq = self.grid(rho)
        self.assert_same(rho._evaluate(zsq, *flags), lp_boolean_mask(rho, zsq, *flags))
        table = zsq[: zsq.size // 2 * 2].reshape(-1, 2)
        self.assert_same(rho._evaluate(table, *flags), lp_boolean_mask(rho, table, *flags))
        for scalar in zsq[:14]:  # the special points, each as a 0-d argument
            self.assert_same(rho._evaluate(scalar, *flags), lp_boolean_mask(rho, scalar, *flags))

    @pytest.mark.parametrize("bad", [-np.inf, -1e-9])
    def test_rejects_what_the_masks_reject(self, bad):
        rho = rho_truncated_lp(p=0.3, tau=0.3, big_t=2.0)
        for zsq in (bad, np.array([np.nan, 1.0, bad])):
            with pytest.raises(ValueError, match="nonnegative"):
                lp_boolean_mask(rho, zsq, True, True, True)
            with pytest.raises(ValueError, match="nonnegative"):
                rho._evaluate(zsq, True, True, True)


def chain_grad2(rho, zsq):
    """rho'' written out kind by kind, as Rho.grad2 was before it read
    the pieces of Rho._evaluate, except that absolute's is 0 where its
    weight is capped at gamma_max."""
    zsq = np.maximum(np.asarray(zsq, dtype=float), 0.0)
    if rho.kind in ("identity", "truncated_quadratic"):
        return np.zeros_like(zsq)
    if rho.kind == "log":
        return -1.0 / (zsq + rho.eps) ** 2
    if rho.kind == "cosine":
        return np.full_like(zsq, -0.25)
    if rho.kind == "truncated_lp":
        z = np.sqrt(zsq)
        out = np.zeros_like(zsq)
        mid = (z >= rho._tau_bar) & (z <= rho._t_bar)
        zm = np.maximum(z[mid], 1e-300)
        out[mid] = 0.5 * (rho.p - 2.0) * zm ** (rho.p - 4.0)
        return out
    out = np.zeros_like(zsq)
    pos = zsq > 0
    pos[pos] = 0.5 / np.sqrt(zsq[pos]) < rho.gamma_max
    out[pos] = -0.25 * np.sqrt(zsq[pos]) ** -3.0
    return out


def chain_grad_max(rho):
    """The bound on rho' written out kind by kind, as Rho.grad_max was
    before it read rho'(0)."""
    return {"identity": 1.0, "log": 1.0 / rho.eps, "truncated_quadratic": 1.0,
            "truncated_lp": rho._tau_bar ** (rho.p - 2.0), "cosine": 1.0,
            "absolute": rho.gamma_max}[rho.kind]


class TestRhoCurvature:
    """rho'' and the largest weight come from the pieces rho and rho' are
    written with."""

    def test_every_kind_has_a_case(self):
        assert {rho.kind for rho in ALL_RHOS} == set(_RHO_FACTORIES)

    @pytest.mark.parametrize("rho", ALL_RHOS, ids=lambda r: r.kind)
    def test_matches_finite_differences_of_grad(self, rho):
        # away from breakpoints of the piecewise variants and the absolute cap
        pts = np.array([0.03, 0.21, 0.9, 1.7, 3.3])
        h = 1e-7
        fd = (rho.grad(pts + h) - rho.grad(pts - h)) / (2 * h)
        np.testing.assert_allclose(rho.grad2(pts), fd, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("rho", ALL_RHOS + [rho_absolute(gamma_max=100.0)],
                             ids=lambda r: r.kind)
    def test_grad2_matches_the_kind_by_kind_chain_bitwise(self, rho):
        zsq = TestRhoValueAndGrad.grid(rho)
        with np.errstate(over="ignore"):  # z^-3 past the float range at 5e-324
            got, want = rho.grad2(zsq), chain_grad2(rho, zsq)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rho", ALL_RHOS + [rho_absolute(gamma_max=100.0)],
                             ids=lambda r: r.kind)
    def test_grad_max_matches_the_kind_by_kind_chain(self, rho):
        assert rho.grad_max() == chain_grad_max(rho)
        assert rho.grad_max() == rho.grad(TestRhoValueAndGrad.grid(rho)).max()

    def test_grad_max_is_the_weight_at_zero(self):
        # a cutoff at 0 removes every edge, so no weight reaches 1 (the auto
        # step still covers the unit weights a layer applies before a refresh)
        assert rho_truncated_quadratic(tau=0.0).grad_max() == 0.0
        assert rho_log(eps=4.0).grad_max() == 0.25

    @pytest.mark.parametrize("p, tau, big_t", [(0.5, 0.0, 2.0), (0.1, 1e-300, 2.0),
                                               (0.5, 1e-200, 2.0), (0.1, 0.2, 1e200)])
    def test_truncated_lp_weight_must_be_a_finite_float(self, p, tau, big_t):
        # tau_bar^(p-2) divides by zero, underflows to a zero base or
        # overflows, or T_bar overflows
        with pytest.raises(ValueError, match="to be finite floats"):
            rho_truncated_lp(p=p, tau=tau, big_t=big_t)
        with pytest.raises(ValueError, match="to be finite floats"):
            rho_from_config(f"truncated_lp:p={p},tau={tau},T={big_t}")

    def test_truncated_lp_zero_tau_at_p_two(self):
        # tau_bar = tau^0 = 1 whatever tau, so the weight is finite
        assert rho_truncated_lp(p=2.0, tau=0.0).grad_max() == 1.0


def check_concavity(rho, grid):
    """Scan grad >= 0 and non-increasing over a grid of z^2 values: the
    concavity in z^2 that makes rho' a majorizer's weight, on which the
    descent guarantee rests.  Returns ``ok`` plus the offending grid
    points, which is where e.g. the cosine penalty stops being a valid
    attention generator."""
    grid = np.sort(np.asarray(grid, dtype=float))
    g = rho.grad(grid)
    neg = grid[g < -1e-12]
    rising = grid[1:][np.diff(g) > 1e-12]
    return {"ok": neg.size == 0 and rising.size == 0, "negative_gradient_at": neg,
            "increasing_gradient_at": rising}


class TestConcavityCheck:
    def test_log_passes(self):
        assert check_concavity(rho_log(eps=0.1), np.linspace(0, 10, 200))["ok"]

    def test_identity_passes(self):
        assert check_concavity(rho_identity(), np.linspace(0, 5, 50))["ok"]

    def test_cosine_fails_beyond_four(self):
        assert check_concavity(rho_cosine(), np.linspace(0, 4, 100))["ok"]
        report = check_concavity(rho_cosine(), np.linspace(0, 10, 100))
        assert not report["ok"]
        assert report["negative_gradient_at"].min() > 4.0


class TestProx:
    def test_relu(self):
        np.testing.assert_allclose(
            phi_relu().prox(np.array([-0.5, 0.7])), [0.0, 0.7]
        )

    def test_zero_is_identity(self):
        u = np.array([1.0, -2.0, 0.3])
        np.testing.assert_array_equal(phi_zero().prox(u), u)

    def test_soft_threshold_values(self):
        got = phi_soft_threshold(kappa=1.0).prox(np.array([2.0, -0.5]), alpha=1.0)
        np.testing.assert_allclose(got, [1.0, 0.0])

    def test_soft_threshold_against_grid_minimizer(self):
        # scalar oracle: argmin over a fine grid of (1/2a)(u-y)^2 + k|y|
        kappa, alpha = 0.7, 0.4
        phi = phi_soft_threshold(kappa=kappa)
        grid = np.linspace(-4, 4, 160001)
        for u in (-2.3, -0.2, 0.11, 1.9):
            objective = (grid - u) ** 2 / (2 * alpha) + kappa * np.abs(grid)
            best = grid[np.argmin(objective)]
            assert phi.prox(np.array([u]), alpha)[0] == pytest.approx(best, abs=1e-4)

    @pytest.mark.parametrize("phi", [phi_zero(), phi_relu()])
    def test_non_expansive(self, phi):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            u, v = rng.normal(size=(2, 4))
            du = np.linalg.norm(phi.prox(u) - phi.prox(v))
            assert du <= np.linalg.norm(u - v) + 1e-12

    @pytest.mark.parametrize("phi", [phi_zero(), phi_relu(), phi_soft_threshold(0.5)])
    def test_componentwise_non_decreasing(self, phi):
        rng = np.random.default_rng(1)
        a, b = np.sort(rng.normal(size=(2, 500)), axis=0)
        assert (phi.prox(b) >= phi.prox(a) - 1e-12).all()

    def test_zero_returns_its_float_input(self):
        # the identity activation of every eignn Picard step: no copy
        u = np.array([1.0, -2.0, 0.3])
        assert phi_zero().prox(u) is u

    def test_prox_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            phi_zero().prox(np.zeros(2), alpha=0.0)


class TestEnergyEval:
    def test_fidelity_vanishes_at_base_prediction(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        bview = incidence(g, LaplacianKind.COMBINATORIAL)
        y = np.array([[1.0], [2.0], [0.5]])
        spec = EnergySpec(lam=1.0)
        ev = energy_eval(spec, bview, y, y)
        lap = (bview.b.T @ bview.b).toarray()
        assert ev.fidelity == 0.0
        assert ev.total == pytest.approx(np.trace(y.T @ lap @ y))

    def test_hand_expanded_path(self):
        g = build_graph(2, [(0, 1)])
        bview = incidence(g, LaplacianKind.COMBINATORIAL)
        y = np.array([[1.0], [0.0]])
        ev = energy_eval(EnergySpec(lam=2.0), bview, y, y)
        assert ev.total == pytest.approx(2.0)

    def test_indicator_infeasible(self):
        g = build_graph(2, [(0, 1)])
        bview = incidence(g, LaplacianKind.COMBINATORIAL)
        y = np.array([[-1.0], [0.5]])
        ev = energy_eval(EnergySpec(phi=phi_relu()), bview, y, y)
        assert ev.phi_term == math.inf and ev.total == math.inf

    def test_simple_mode_matches_dense_quadratic(self):
        rng = np.random.default_rng(2)
        mask = np.triu(rng.random((12, 12)) < 0.3, k=1)
        g = build_graph(12, np.argwhere(mask))
        bview = incidence(g, LaplacianKind.COMBINATORIAL)
        y = rng.normal(size=(12, 3))
        fx = rng.normal(size=(12, 3))
        lam = 0.7
        ev = energy_eval(EnergySpec(lam=lam), bview, y, fx)
        lap = (bview.b.T @ bview.b).toarray()
        dense = np.linalg.norm(y - fx) ** 2 + lam * np.trace(y.T @ lap @ y)
        assert ev.total == pytest.approx(dense, rel=1e-10)

    def test_general_mode_quadform_and_fidelity(self):
        rng = np.random.default_rng(3)
        g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])
        bview = incidence(g, LaplacianKind.COMBINATORIAL)
        d = 3
        a = rng.normal(size=(d, d))
        w_prop = a @ a.T + 0.1 * np.eye(d)
        b = rng.normal(size=(d, d))
        w_fid = b @ b.T + 0.1 * np.eye(d)
        spec = EnergySpec(simple=False, w_fid=w_fid, w_prop=w_prop)
        y = rng.normal(size=(6, d))
        fx = rng.normal(size=(6, d))
        ev = energy_eval(spec, bview, y, fx)
        bmat = bview.b.toarray()
        diag = np.diag(bmat @ y @ w_prop @ y.T @ bmat.T)
        expected = np.trace((y - fx) @ w_fid @ (y - fx).T) + diag.sum()
        assert ev.total == pytest.approx(expected, rel=1e-10)

    def test_negative_quadform_rejected_for_nonlinear_rho(self):
        g = build_graph(2, [(0, 1)])
        bview = incidence(g, LaplacianKind.COMBINATORIAL)
        spec = EnergySpec(rho=rho_log(), simple=False, w_fid=np.eye(2), w_prop=-np.eye(2))
        y = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="PSD"):
            edge_diagonal(spec, bview, y)

    def test_indefinite_quadform_allowed_for_identity_rho(self):
        g = build_graph(2, [(0, 1)])
        bview = incidence(g, LaplacianKind.COMBINATORIAL)
        spec = EnergySpec(simple=False, w_fid=np.eye(2), w_prop=-np.eye(2))
        y = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert edge_diagonal(spec, bview, y)[0] == pytest.approx(-1.0)

    def test_shape_mismatch(self):
        g = build_graph(2, [(0, 1)])
        bview = incidence(g, LaplacianKind.COMBINATORIAL)
        with pytest.raises(ValueError, match="shapes"):
            energy_eval(EnergySpec(), bview, np.zeros((2, 2)), np.zeros((2, 3)))

    def test_from_symmetric_pair_halves_weights(self):
        w = np.diag([0.2, 0.4])
        spec = from_symmetric_pair(w, np.eye(2) - w)
        np.testing.assert_allclose(spec.w_prop_sym(), w)
        np.testing.assert_allclose(spec.w_fid_sym(), np.eye(2) - w)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_non_finite_lam_rejected(lam):
    with pytest.raises(ValueError, match="lam must be nonnegative and finite"):
        EnergySpec(lam=lam)


@pytest.mark.parametrize("gamma_max", [0.0, -1.0])
def test_nonpositive_gamma_max_rejected(gamma_max):
    with pytest.raises(ValueError, match="rho parameter gamma_max must be positive"):
        rho_absolute(gamma_max=gamma_max)


# one config string per kind, with every parameter the kind takes
RHO_STRINGS = [
    ("identity", rho_identity()),
    ("log:eps=0.5", rho_log(eps=0.5)),
    ("truncated_quadratic:tau=1.5", rho_truncated_quadratic(tau=1.5)),
    ("truncated_lp:p=0.1,tau=0.2,T=2", rho_truncated_lp(p=0.1, tau=0.2, big_t=2.0)),
    ("cosine", rho_cosine()),
    ("absolute:gamma_max=100", rho_absolute(gamma_max=100.0)),
]
PHI_STRINGS = [
    ("zero", phi_zero()), ("none", phi_zero()), ("identity", phi_zero()),
    ("relu", phi_relu()), ("soft_threshold:kappa=2", phi_soft_threshold(2.0)),
]


class TestConfigStrings:
    @pytest.mark.parametrize("text, rho", RHO_STRINGS,
                             ids=[text.partition(":")[0] for text, _ in RHO_STRINGS])
    def test_rho_string(self, text, rho):
        assert rho_from_config(text) == rho

    def test_rho_example_string(self):
        rho = rho_from_config("truncated_lp:p=0.1,tau=0.2,T=2")
        assert (rho.p, rho.tau, rho.big_t) == (0.1, 0.2, 2.0)

    @pytest.mark.parametrize("text, phi", PHI_STRINGS,
                             ids=[text.partition(":")[0] for text, _ in PHI_STRINGS])
    def test_phi_string(self, text, phi):
        assert phi_from_config(text) == phi

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            rho_from_config("huber:delta=1")
        with pytest.raises(ValueError):
            phi_from_config("l0")

    @pytest.mark.parametrize("parse, text, name", [
        (rho_from_config, "log:epz=0.3", "epz"),
        (rho_from_config, "identity:x=1", "x"),
        (rho_from_config, "truncated_lp:big_t=3", "big_t"),
        (phi_from_config, "relu:kappa=1", "kappa")])
    def test_unknown_parameter_name_rejected(self, parse, text, name):
        with pytest.raises(ValueError, match=f"takes no parameter '{name}'"):
            parse(text)
