"""Implicit (fixed-point) forward model and its adjoint gradients.

The forward map iterates ``Y <- sigma(P Y Wp + F)`` to its unique fixed
point, which exists whenever ``||Wp||_2 ||P||_2 < 1`` and sigma is
non-expansive.  The backward pass never stores the iterates: its adjoint
``grad_f <- D * (P grad_f Wp.T + G)`` is the forward's own iteration,
with sigma's derivative D for sigma, Wp.T for Wp and the upstream
gradient G for F, so one Picard loop, ``x <- act(P x W + rhs)``, serves
both, and both stop, and fail, the same way.  Both start from zeros
unless the caller passes a start (``y0``, ``v0``); training passes the
previous epochs' solutions, and uniqueness makes the start immaterial to
the answer.  Each solve reports the contraction factor
c = ||Wp||_2 ||P||_2 and the error bound c / (1 - c) * residual it
implies (see :class:`FixedPointResult` for when c is certified).  The linear
symmetric model (EIGNN) is the identity-sigma case with a weight derived
from F.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .energy import Phi, phi_zero
from .graph import GraphOperators, LaplacianKind, propagation_matrix, spectral_norm


class FixedPointDivergence(RuntimeError):
    pass


@dataclass(frozen=True)
class FixedPointConfig:
    """sigma: a Phi applied through its prox closed form (unit step);
    the default, phi_zero, is the identity activation."""

    sigma: Phi = field(default_factory=phi_zero)
    tol: float = 1e-8
    max_iters: int = 5000
    kind: LaplacianKind = LaplacianKind.SELF_LOOP_SYM

    def __post_init__(self):
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class FixedPointResult:
    """contraction is the factor c = ||Wp||_2 ||P||_2 (sigma is
    1-Lipschitz), and error_bound = c / (1 - c) * residual bounds the
    distance from y to the fixed point (inf when c >= 1).  c is certified
    under the normalized kinds, where ||P|| is exactly 1; under
    COMBINATORIAL ||P|| = max(1, ||L|| - 1) reads the Lanczos estimate of
    ||L||, so c and the bound are estimates there.
    contraction_estimate is the median ratio of the last residuals."""

    y: np.ndarray
    iterations: int
    residual: float
    contraction: float
    error_bound: float
    contraction_estimate: float
    residual_trace: np.ndarray


def project_weights(w_p, p_op, margin=0.9):
    """Scale Wp so that ||Wp||_2 ||P||_2 <= margin.

    p_op is P itself, or a graph's :class:`GraphOperators` bundle, whose
    cached ||P|| is then computed at most once.

    Pure rescaling: symmetry and eigenvector structure are preserved,
    and a weight already inside the ball is returned unchanged (which
    makes the projection idempotent).
    """
    if not 0 < margin < 1:
        raise ValueError("contraction_margin must lie in (0, 1)")
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


def _picard(p_op, w, rhs, act, x, cfg):
    """Iterate ``x <- act(P x W + rhs)`` from x until ``||x_{k+1} - x_k|| <= cfg.tol``.

    Writes into none of its inputs, and holds the start only through the
    first iteration.  Returns (x, iterations, residual_trace).  Raises
    FixedPointDivergence at the first non-finite residual, or when
    max_iters is exhausted; a non-finite start (nan or inf) fails at
    iteration 1."""
    flops = 2 * p_op.nnz * rhs.shape[1] + 2 * rhs.size * w.shape[0]
    trace = []
    # inf * 0 and inf - inf make NaNs silently; the residual check reports them
    with np.errstate(invalid="ignore", over="ignore"):
        for it in range(1, cfg.max_iters + 1):
            _kernels.count_dense(flops)
            x_next = act(p_op @ x @ w + rhs)
            resid = np.linalg.norm(x_next - x)
            x = x_next
            if not np.isfinite(resid):
                raise FixedPointDivergence(f"non-finite residual at iteration {it}")
            trace.append(resid)
            if resid <= cfg.tol:
                return x, it, np.asarray(trace)
    raise FixedPointDivergence(
        f"no fixed point within {cfg.max_iters} iterations (residual {trace[-1]:.3e})"
    )


def _start(x0, like, name, like_name):
    """x0 as a float array, zeros when None; a shape other than like's
    raises ValueError."""
    if x0 is None:
        return np.zeros_like(like)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != like.shape:
        raise ValueError(f"{name} has shape {x0.shape}, but {like_name} has shape "
                         f"{like.shape}")
    return x0


def fixed_point_solve(g, w_p, fx, cfg=FixedPointConfig(), y0=None):
    """Iterate the implicit update until the step norm drops below tol.

    Starts from zeros unless y0 overrides it; training starts each epoch
    from the previous epochs' solutions, and the uniqueness checks from
    random points.  Uniqueness makes the start immaterial to the answer.
    A y0 whose shape differs from fx's raises ValueError.  Writes into
    neither y0 nor fx.  Raises FixedPointDivergence when max_iters is
    exhausted."""
    p_op = propagation_matrix(g, cfg.kind)
    fx = np.asarray(fx, dtype=float)
    w_p = np.asarray(w_p, dtype=float)
    y, iterations, trace = _picard(p_op, w_p, fx, cfg.sigma.prox, _start(y0, fx, "y0", "fx"),
                                   cfg)
    # every residual before the last is above tol > 0, so each ratio is defined
    ratios = trace[1:] / trace[:-1]
    estimate = float(np.median(ratios[-10:])) if ratios.size else 0.0
    c = spectral_norm(w_p) * g.operators(cfg.kind).propagation_norm
    bound = c / (1.0 - c) * trace[-1] if c < 1.0 else np.inf
    return FixedPointResult(y=y, iterations=iterations, residual=trace[-1], contraction=c,
                            error_bound=bound, contraction_estimate=estimate,
                            residual_trace=trace)


def implicit_backward(g, w_p, fx, y_star, upstream, cfg=FixedPointConfig(), v0=None):
    """Gradients of a loss at the fixed point wrt Wp and f(X).

    Solves grad_f = D * (P grad_f Wp.T + G) for the upstream gradient G,
    then grad_Wp = (P Y*).T grad_f.  D is sigma's derivative at the
    converged pre-activations, read from its output there
    (:meth:`Phi.prox_mask`): a boolean mask, or nothing for the identity.
    This is the transposed system V = G + P.T (D * V) Wp.T for
    grad_f = D * V, with P applied as stored: every kind's P is symmetric
    with sorted indices, so ``P @ X`` is bitwise ``P.T @ X``.  As
    0 <= D <= 1, the map contracts by the forward's certified factor.  The
    solve starts from zeros unless v0 overrides it, as D * v0; a v0 whose
    shape differs from upstream's raises ValueError.  f(X) is read only
    for D, and P Y* is formed before the solve only where D needs it.
    Writes into none of fx, y_star, upstream and v0.
    """
    p_op = propagation_matrix(g, cfg.kind)
    w_p = np.asarray(w_p, dtype=float)
    y_star = np.asarray(y_star, dtype=float)
    upstream = np.asarray(upstream, dtype=float)
    p_y = d_sigma = None
    if cfg.sigma.kind != "zero":
        p_y = p_op @ y_star
        d_sigma = cfg.sigma.prox_mask(cfg.sigma.prox(p_y @ w_p + fx, 1.0))

    def mask(u):
        return u if d_sigma is None else d_sigma * u

    grad_fx, _, _ = _picard(p_op, w_p.T, upstream, mask,
                            mask(_start(v0, upstream, "v0", "upstream")), cfg)
    if p_y is None:  # the identity reads P Y* only here, so the solve does not hold it
        p_y = p_op @ y_star
    return p_y.T @ grad_fx, grad_fx


# ---------------------------------------------------------------------------
# linear symmetric special case with a built-in contraction guarantee
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EignnSpec:
    """Symmetric-weight linear implicit model.

    The propagation weight derived from F is the rescaled Gram matrix
    ``Wp_s = s^2 F.T F`` with ``s = (||F.T F|| + eps_f)^(-1/2)``, damped
    by ``mu`` in [0, 1), where ||.|| is the Frobenius norm.  It bounds
    the spectral norm from above, so ||Wp_s|| < mu, and the product norm
    ||Wp_s|| ||P|| is below one wherever ||P|| = 1: under the normalized
    kinds, not under COMBINATORIAL, which :class:`model.ModelConfig`
    rejects for this backend.
    """

    mu: float = 0.5
    eps_f: float = 0.1

    def __post_init__(self):
        if not (self.eps_f > 0 and math.isfinite(self.eps_f)):
            raise ValueError(f"eps_f must be positive and finite, got {self.eps_f}")
        if not 0 <= self.mu < 1:
            raise ValueError("mu must lie in [0, 1)")

    def scale_sq(self, gram):
        """s^2 for the Gram matrix F.T F."""
        return 1.0 / (np.linalg.norm(gram, "fro") + self.eps_f)

    def weight(self, f_mat):
        """Effective propagation weight mu * s^2 * F.T F (symmetric PSD,
        spectral norm < 1)."""
        gram = f_mat.T @ f_mat
        return self.mu * self.scale_sq(gram) * gram


def eignn_grad_f(spec, f_mat, grad_weight):
    """Chain a gradient wrt the effective weight back to F.

    Handles the norm factor: with M = F.T F and s^2 = 1/(||M|| + eps),
    d(mu s^2 M) couples through both M and ||M||.
    """
    m = f_mat.T @ f_mat
    s_sq = spec.scale_sq(m)
    g_w = np.asarray(grad_weight, dtype=float)
    q = spec.mu * s_sq * g_w
    m_norm = np.linalg.norm(m, "fro")
    if m_norm > 1e-300:
        q = q - spec.mu * s_sq ** 2 * (np.sum(g_w * m) / m_norm) * m
    return f_mat @ (q + q.T)
