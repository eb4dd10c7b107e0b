"""Unfolded forward engine: descent iterations that double as layers.

Each layer applies one abridged gradient step on the smooth part of the
energy followed by the proximal map of the node penalty.  Per-edge
reweighting (the attention mechanism) enters by refreshing the edge
diagonal Gamma from the current embeddings at scheduled steps; between
refreshes Gamma is held fixed, which is exactly the
majorize-then-minimize structure that the step-size bounds below make
safe.

Simple mode follows the scalar propagation convention
``U = Y - alpha [(lam * Lhat + I) Y - F]`` (the update whose first step
reduces to a normalized-adjacency layer); its step direction is half
the exact gradient of the recorded energy, and the bounds returned by
:func:`step_size_bound` / :func:`irls_step_bound` are stated for this
convention.  General mode steps along the full gradient of the matrix
energy.
"""

import csv
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import _kernels
from .energy import edge_diagonal, energy_eval
from .graph import Graph, LaplacianKind, incidence, laplacian, propagation_matrix, spectral_norm

DIVERGENCE_LIMIT = 1e12


class PropagationDivergence(RuntimeError):
    def __init__(self, step, norm):
        super().__init__(f"embedding norm {norm:.3e} exceeded {DIVERGENCE_LIMIT:.0e} at step {step}")
        self.step = step


class SolveError(RuntimeError):
    pass


@dataclass(frozen=True)
class PropagationConfig:
    """Iteration plan for :func:`propagate`.

    alpha: positive float, "auto" (safe fixed bound from
    step_size_bound), or "auto_irls" (refreshed per step from the
    current Gamma).  attention_schedule lists the step indices at which
    Gamma is recomputed; empty means Gamma stays at ones.
    """

    steps: int = 16
    alpha: float | str = "auto"
    variant: str = "plain"  # plain | preconditioned | normalized
    attention_schedule: tuple = ()
    record_trace: bool = True
    y0: np.ndarray | None = None

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if isinstance(self.alpha, str):
            if self.alpha not in ("auto", "auto_irls"):
                raise ValueError("alpha must be positive or 'auto'/'auto_irls'")
        elif self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.variant not in ("plain", "preconditioned", "normalized"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == "preconditioned" and self.attention_schedule:
            raise ValueError("the preconditioned variant does not take attention")
        if any(k < 0 or k >= self.steps for k in self.attention_schedule):
            raise ValueError("attention indices must lie in [0, steps)")


def sandwich_schedule(steps, refresh_at_start=False):
    """Single Gamma refresh halfway through; optionally one more at step 0
    (the heterophily preset)."""
    if steps <= 0:
        return ()
    mid = steps // 2
    sched = {mid if mid < steps else steps - 1}
    if refresh_at_start:
        sched.add(0)
    return tuple(sorted(sched))


@dataclass
class PropagationResult:
    y: np.ndarray
    trace: list
    residuals: np.ndarray
    gamma_trace: dict
    alphas: np.ndarray
    ops: dict


def _as_incidence(g, spec):
    if isinstance(g, Graph):
        return incidence(g, spec.kind)
    return g


def gamma_update(spec, g, y):
    """Fresh edge weights: rho' at the current per-edge diagonal."""
    bview = _as_incidence(g, spec)
    return spec.rho.grad(edge_diagonal(spec, bview, y))


def abridged_gradient_step(spec, g, y, fx, gamma, alpha):
    """One gradient step on the smooth energy terms at fixed Gamma.

    Simple mode: U = Y - alpha [lam * Lhat Y + Y - F].
    General mode ("exact"):   U = Y - alpha [Lhat Y Wp_s + (Y-F) Wf_s].
    General mode ("literal"): U = Y - alpha [Lhat Y Wp_s + Y Wf_s - F].
    """
    bview = _as_incidence(g, spec)
    y = np.asarray(y, dtype=float)
    fx = np.asarray(fx, dtype=float)
    if y.shape != fx.shape:
        raise ValueError("Y and f(X) shapes differ")
    lap_y = bview.weighted_laplacian_apply(y, np.asarray(gamma, dtype=float))
    if spec.simple:
        return y - alpha * (spec.lam * lap_y + y - fx)
    n, d = y.shape
    _kernels.count_dense(4 * n * d * d)
    if spec.gradient_mode == "exact":
        grad = lap_y @ spec.w_prop_sym() + (y - fx) @ spec.w_fid_sym()
    else:
        grad = lap_y @ spec.w_prop_sym() + y @ spec.w_fid_sym() - fx
    return y - alpha * grad


class _SymOp:
    """Symmetric matvec wrapper so spectral_norm can power-iterate it."""

    def __init__(self, n, matvec):
        self.shape = (n, n)
        self._mv = matvec
        self.T = self

    def __matmul__(self, x):
        return self._mv(x)


def _weighted_lap_norm(bview, gamma, tol=1e-8):
    if bview.n_edge_rows == 0:
        return 0.0
    def mv(x):
        return bview.weighted_laplacian_apply(x.reshape(-1, 1), gamma).ravel()
    return spectral_norm(_SymOp(bview.n, mv), tol=tol)


def step_size_bound(spec, g, tol=1e-8):
    """(alpha_max_convex, alpha_max_general) for the configured energy.

    alpha_max_general is safe for every shipped concave rho and any prox
    in the menu: it caps the weighted-Laplacian curvature by the largest
    attainable attention weight.  alpha_max_convex is the wider
    2/curvature range valid for the quadratic (identity-rho) energy;
    for robust penalties it falls back to the general bound.
    """
    ops = g.operators(spec.kind)
    lap_norm = ops.laplacian_norm(tol) if g.n else 0.0
    gcap = spec.rho.grad_max()
    if spec.simple:
        general = 1.0 / (1.0 + spec.lam * gcap * lap_norm)
        if spec.rho.kind == "identity":
            return 2.0 / (1.0 + spec.lam * lap_norm), general
        return general, general
    wf = spec.w_fid_sym()
    wp = spec.w_prop_sym()
    nf = spectral_norm(wf, tol=tol)
    npr = spectral_norm(wp, tol=tol)
    eye = np.eye(wf.shape[0])
    if np.allclose(wf, eye - wp, atol=1e-12):
        # fixed-point pairing: curvature of I - P (x) Wp_s
        p_norm = ops.propagation_norm(tol)
        curvature = 1.0 + npr * p_norm
    else:
        curvature = nf + lap_norm * npr
    general = 1.0 / (nf + gcap * lap_norm * npr)
    if spec.rho.kind == "identity":
        return 2.0 / curvature, general
    return general, general


def irls_step_bound(spec, g, gamma, tol=1e-8):
    """Per-step safe size at the current Gamma: 1 / ||lam B.T G B + I||
    in simple mode, and the matrix-weight analogue otherwise."""
    bview = _as_incidence(g, spec)
    gamma = np.asarray(gamma, dtype=float)
    lhat_norm = _weighted_lap_norm(bview, gamma, tol=tol)
    if spec.simple:
        return 1.0 / (1.0 + spec.lam * lhat_norm)
    nf = spectral_norm(spec.w_fid_sym(), tol=tol)
    npr = spectral_norm(spec.w_prop_sym(), tol=tol)
    return 1.0 / (nf + lhat_norm * npr)


def closed_form_solution(g, fx, lam, kind, tol=1e-10):
    """Solve (I + lam * L) Y = F directly; the infinite-depth limit."""
    fx = np.asarray(fx, dtype=float)
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    a = (sp.identity(g.n, format="csr") + lam * laplacian(g, kind)).tocsc()
    if g.n <= 4096:
        y = spla.spsolve(a, fx)
        y = y.reshape(fx.shape)
    else:
        y = np.empty_like(fx)
        for j in range(fx.shape[1]):
            col, info = spla.cg(a, fx[:, j], rtol=tol, atol=0.0, maxiter=20 * g.n)
            if info != 0:
                raise SolveError(f"conjugate gradient failed on column {j} (info={info})")
            y[:, j] = col
    resid = np.linalg.norm(a @ y - fx)
    if resid > tol * max(1.0, np.linalg.norm(fx)):
        raise SolveError(f"linear solve residual {resid:.2e} above {tol:.0e}")
    return y


def _selfloop_operators(g):
    p_hat = propagation_matrix(g, LaplacianKind.SELF_LOOP_SYM)
    d_tilde_inv = 1.0 / (g.degrees + 1.0)
    return p_hat, d_tilde_inv


def preconditioned_step(g, z, z0, alpha, lam, phi):
    """One step of the degree-rescaled recursion
    Z <- prox[(1-a) Z + a*lam*(D~^-1/2 A D~^-1/2) Z + a*D~^-1 Z0]."""
    p_hat, d_tilde_inv = _selfloop_operators(g)
    adj_part = p_hat @ z - d_tilde_inv[:, None] * z  # D~^-1/2 A D~^-1/2 Z
    _kernels.count_dense(2 * p_hat.nnz * z.shape[1])
    u = (1.0 - alpha) * z + alpha * lam * adj_part + alpha * d_tilde_inv[:, None] * z0
    return phi.prox(u, alpha)


def reweighted_propagation_apply(g, y, gamma):
    """(D_g^-1/2 (A_g + I) D_g^-1/2) @ y with per-edge weights gamma and
    D_g the reweighted degrees plus the self loop.  Invariant to a
    common rescaling of gamma up to the self-loop term, which is what
    keeps attention-driven propagation stable."""
    eu, ev = g.edges[:, 0], g.edges[:, 1]
    deg = np.bincount(eu, weights=gamma, minlength=g.n) \
        + np.bincount(ev, weights=gamma, minlength=g.n)
    s = 1.0 / np.sqrt(deg + 1.0)
    out = _kernels.weighted_adj_apply(s[:, None] * y, gamma, eu, ev, g.n)
    return s[:, None] * out + (s ** 2)[:, None] * y


def normalized_step(g, y, y0, alpha, lam, phi, gamma=None):
    """One step of the self-loop-normalized recursion
    Y <- prox[(1-a-a*lam) Y + a*lam*(D~^-1/2 A~ D~^-1/2) Y + a*Y0],
    with the adjacency optionally reweighted by per-edge gamma."""
    if gamma is None:
        p_hat, _ = _selfloop_operators(g)
        _kernels.count_dense(2 * p_hat.nnz * y.shape[1])
        prop = p_hat @ y
    else:
        prop = reweighted_propagation_apply(g, y, gamma)
    u = (1.0 - alpha - alpha * lam) * y + alpha * lam * prop + alpha * y0
    return phi.prox(u, alpha)


def propagate(spec, g, fx, cfg):
    """Run the configured number of layers from Y0 = f(X).

    Records the energy after every step, per-step residuals, and Gamma
    snapshots at refresh steps.  Raises PropagationDivergence when the
    iterate norm passes the guard.
    """
    fx = np.asarray(fx, dtype=float)
    bview = incidence(g, spec.kind)
    y = fx.copy() if cfg.y0 is None else np.array(cfg.y0, dtype=float)
    if y.shape != fx.shape:
        raise ValueError("y0 and f(X) shapes differ")
    ops0 = _kernels.op_counter()
    gamma = np.ones(bview.n_edge_rows)
    fixed_alpha = None
    if cfg.alpha == "auto":
        if cfg.variant == "plain":
            fixed_alpha = step_size_bound(spec, g)[1]
        else:
            # convex-combination step of the rescaled recursions
            fixed_alpha = 1.0 / (1.0 + spec.lam)
    elif not isinstance(cfg.alpha, str):
        fixed_alpha = float(cfg.alpha)
    schedule = set(cfg.attention_schedule)
    trace = [energy_eval(spec, bview, y, fx)] if cfg.record_trace else []
    residuals = np.zeros(cfg.steps)
    alphas = np.zeros(cfg.steps)
    gamma_trace = {}
    for k in range(cfg.steps):
        if k in schedule:
            gamma = spec.rho.grad(edge_diagonal(spec, bview, y))
            gamma_trace[k] = gamma.copy()
        alpha = irls_step_bound(spec, g, gamma) if fixed_alpha is None else fixed_alpha
        alphas[k] = alpha
        if cfg.variant == "plain":
            u = abridged_gradient_step(spec, bview, y, fx, gamma, alpha)
            y_next = spec.phi.prox(u, alpha)
        elif cfg.variant == "preconditioned":
            y_next = preconditioned_step(g, y, fx, alpha, spec.lam, spec.phi)
        else:
            reweight = gamma if schedule else None
            y_next = normalized_step(g, y, fx, alpha, spec.lam, spec.phi, gamma=reweight)
        residuals[k] = np.linalg.norm(y_next - y)
        y = y_next
        norm = np.linalg.norm(y)
        if not np.isfinite(norm) or norm > DIVERGENCE_LIMIT:
            raise PropagationDivergence(k, norm)
        if cfg.record_trace:
            trace.append(energy_eval(spec, bview, y, fx))
    ops1 = _kernels.op_counter()
    ops = {k: ops1[k] - ops0[k] for k in ops1}
    return PropagationResult(y=y, trace=trace, residuals=residuals,
                             gamma_trace=gamma_trace, alphas=alphas, ops=ops)


def verify_descent(result, slack=1e-9):
    """Check the recorded energy never rises by more than slack per step.

    An infinite total is tolerated only at step 0 (an infeasible start
    that the first prox repairs); any later non-finite or increasing
    total is reported as the first violation.
    """
    totals = [ev.total for ev in result.trace]
    first = None
    worst = 0.0
    for k in range(len(totals) - 1):
        prev, nxt = totals[k], totals[k + 1]
        bad = False
        if not np.isfinite(nxt):
            bad = True
        elif np.isfinite(prev):
            bad = nxt > prev + slack
            worst = max(worst, nxt - prev)
        if bad and first is None:
            first = k + 1
    return {"ok": first is None, "first_violation": first, "max_increase": worst}


def trace_to_csv(result, path):
    with open(path, "w", newline="") as fh:
        fh.write("# schema: propagation-trace v1\n")
        writer = csv.writer(fh)
        writer.writerow(["step", "fidelity", "smoothness", "phi", "total", "residual"])
        for k, ev in enumerate(result.trace):
            resid = result.residuals[k - 1] if k > 0 else 0.0
            writer.writerow([k, ev.fidelity, ev.smoothness, ev.phi_term, ev.total, resid])


def gamma_trace_to_csv(result, path):
    with open(path, "w", newline="") as fh:
        fh.write("# schema: gamma-trace v1\n")
        writer = csv.writer(fh)
        writer.writerow(["step", "edge", "gamma"])
        for step in sorted(result.gamma_trace):
            for e, val in enumerate(result.gamma_trace[step]):
                writer.writerow([step, e, val])
