"""Implicit (fixed-point) forward model and its adjoint gradients.

The forward map iterates ``Y <- sigma(P Y Wp + F)`` to its unique fixed
point, which exists whenever ``||Wp||_2 ||P||_2 < 1`` and sigma is
non-expansive.  The backward pass never stores the iterates: it solves
the transposed fixed-point system for the adjoint state and reads both
gradients off it.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .energy import Phi
from .graph import GraphOperators, LaplacianKind, propagation_matrix, spectral_norm


class FixedPointDivergence(RuntimeError):
    pass


@dataclass(frozen=True)
class FixedPointConfig:
    """sigma: a Phi applied through its prox closed form (unit step), or
    None for the identity activation."""

    sigma: Phi | None = None
    tol: float = 1e-8
    max_iters: int = 5000
    contraction_margin: float = 0.9
    kind: LaplacianKind = LaplacianKind.SELF_LOOP_SYM

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not 0 < self.contraction_margin < 1:
            raise ValueError("contraction_margin must lie in (0, 1)")

    def activate(self, z):
        return z if self.sigma is None else self.sigma.prox(z, 1.0)

    def activate_derivative(self, z):
        if self.sigma is None:
            return np.ones_like(z)
        return self.sigma.prox_derivative(z, 1.0)


@dataclass
class FixedPointResult:
    y: np.ndarray
    iterations: int
    residual: float
    contraction_estimate: float
    residual_trace: np.ndarray = field(default_factory=lambda: np.zeros(0))


def project_weights(w_p, p_op, margin=0.9):
    """Scale Wp so that ||Wp||_2 ||P||_2 <= margin.

    p_op is P itself, or a graph's :class:`GraphOperators` bundle, whose
    cached ||P|| is then computed at most once.

    Pure rescaling: symmetry and eigenvector structure are preserved,
    and a weight already inside the ball is returned unchanged (which
    makes the projection idempotent).
    """
    if not 0 < margin < 1:
        raise ValueError("margin must lie in (0, 1)")
    w_p = np.asarray(w_p, dtype=float)
    wn = spectral_norm(w_p)
    if wn == 0.0:
        return w_p.copy()
    if isinstance(p_op, GraphOperators):
        pn = p_op.propagation_norm
    else:
        pn = spectral_norm(p_op)
    product = wn * pn
    if product <= margin:
        return w_p.copy()
    return w_p * (margin / product)


def fixed_point_solve(g, w_p, fx, cfg=FixedPointConfig(), y0=None):
    """Iterate the implicit update until the step norm drops below tol.

    Starts from zeros (the reproducible default; uniqueness makes the
    choice immaterial) unless y0 overrides it, which the uniqueness
    checks use.  Raises FixedPointDivergence when max_iters is
    exhausted."""
    p_op = propagation_matrix(g, cfg.kind)
    fx = np.asarray(fx, dtype=float)
    w_p = np.asarray(w_p, dtype=float)
    y = np.zeros_like(fx) if y0 is None else np.array(y0, dtype=float)
    nnz = p_op.nnz
    ratios = []
    resid_trace = []
    prev_resid = None
    for it in range(1, cfg.max_iters + 1):
        _kernels.count_dense(2 * nnz * fx.shape[1] + 2 * fx.size * w_p.shape[0])
        z = p_op @ y @ w_p + fx
        y_next = cfg.activate(z)
        resid = np.linalg.norm(y_next - y)
        y = y_next
        if not np.isfinite(resid):
            raise FixedPointDivergence(f"non-finite residual at iteration {it}")
        resid_trace.append(resid)
        if prev_resid is not None and prev_resid > 0:
            ratios.append(resid / prev_resid)
        prev_resid = resid
        if resid <= cfg.tol:
            contraction = float(np.median(ratios[-10:])) if ratios else 0.0
            return FixedPointResult(y=y, iterations=it, residual=resid,
                                    contraction_estimate=contraction,
                                    residual_trace=np.asarray(resid_trace))
    raise FixedPointDivergence(
        f"no fixed point within {cfg.max_iters} iterations (residual {prev_resid:.3e})"
    )


def implicit_backward(g, w_p, fx, y_star, upstream, cfg=FixedPointConfig()):
    """Gradients of a loss at the fixed point wrt Wp and f(X).

    Solves the transposed contraction V = G + P.T (D * V) Wp.T, where D
    is the activation derivative at the converged pre-activations, then
    grad_f = D * V and grad_Wp = (P Y*).T (D * V).
    """
    p_op = propagation_matrix(g, cfg.kind)
    w_p = np.asarray(w_p, dtype=float)
    y_star = np.asarray(y_star, dtype=float)
    upstream = np.asarray(upstream, dtype=float)
    p_y = p_op @ y_star
    z = p_y @ w_p + fx
    d_sigma = cfg.activate_derivative(z)
    p_t = p_op.T
    v = np.zeros_like(upstream)
    for _ in range(cfg.max_iters):
        v_next = upstream + p_t @ (d_sigma * v) @ w_p.T
        delta = np.linalg.norm(v_next - v)
        v = v_next
        if delta <= cfg.tol:
            break
    else:
        raise FixedPointDivergence("adjoint iteration did not converge")
    weighted = d_sigma * v
    grad_fx = weighted
    grad_w_p = p_y.T @ weighted
    return grad_w_p, grad_fx


# ---------------------------------------------------------------------------
# linear symmetric special case with a built-in contraction guarantee
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EignnSpec:
    """Symmetric-weight linear implicit model.

    The propagation weight is the rescaled Gram matrix
    ``Wp_s = s^2 F.T F`` with ``s = (||F.T F|| + eps_f)^(-1/2)``, damped
    by ``mu`` in [0, 1), where ||.|| is the Frobenius norm.  It bounds
    the spectral norm from above, so the product norm is below one by
    construction.
    """

    f_mat: np.ndarray
    mu: float = 0.5
    eps_f: float = 0.1

    def __post_init__(self):
        if self.eps_f <= 0:
            raise ValueError("eps_f must be positive")
        if not 0 <= self.mu < 1:
            raise ValueError("mu must lie in [0, 1)")

    def gram(self):
        return self.f_mat.T @ self.f_mat

    def scale_sq(self):
        return 1.0 / (np.linalg.norm(self.gram(), "fro") + self.eps_f)

    def weight(self):
        """Effective propagation weight mu * s^2 * F.T F (symmetric PSD,
        spectral norm < 1)."""
        return self.mu * self.scale_sq() * self.gram()


def eignn_forward(g, spec, fx, tol=1e-8, max_iters=5000):
    """Fixed point of the linear symmetric update; identical contract to
    fixed_point_solve with sigma = identity."""
    cfg = FixedPointConfig(sigma=None, tol=tol, max_iters=max_iters)
    return fixed_point_solve(g, spec.weight(), fx, cfg).y


def eignn_grad_f(spec, grad_weight):
    """Chain a gradient wrt the effective weight back to F.

    Handles the norm factor: with M = F.T F and s^2 = 1/(||M|| + eps),
    d(mu s^2 M) couples through both M and ||M||.
    """
    f_mat = spec.f_mat
    m = spec.gram()
    s_sq = spec.scale_sq()
    g_w = np.asarray(grad_weight, dtype=float)
    q = spec.mu * s_sq * g_w
    m_norm = np.linalg.norm(m, "fro")
    if m_norm > 1e-300:
        q = q - spec.mu * s_sq ** 2 * (np.sum(g_w * m) / m_norm) * m
    return f_mat @ (q + q.T)
