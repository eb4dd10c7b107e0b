"""Unfolded forward engine: descent iterations that double as layers.

Each layer applies one abridged gradient step on the smooth part of the
energy followed by the proximal map of the node penalty.  Per-edge
reweighting (the attention mechanism) enters by refreshing the edge
diagonal Gamma from the current embeddings at scheduled steps; between
refreshes Gamma is held fixed, which is exactly the
majorize-then-minimize structure that the step-size bounds below make
safe.

:func:`unroll` is the one layer loop: it picks the step size, refreshes
Gamma on the schedule, takes the configured variant's step, applies the
prox, guards against divergence, and yields one :class:`Layer` per
step.  :func:`propagate` records the energy trace, residuals and Gamma
snapshots from it; the unrolled model backend (``model.py``) keeps its
backward tape from it.

Simple mode follows the scalar propagation convention
``U = Y - alpha [(lam * Lhat + I) Y - F]`` (the update whose first step
reduces to a normalized-adjacency layer); its step direction is half
the exact gradient of the recorded energy, and the bounds returned by
:func:`step_size_bound` / :func:`irls_step_bound` are stated for this
convention.  General mode steps along the full gradient of the matrix
energy.

:func:`step_size_bound` takes ||L|| from a Lanczos solve, once per
graph (the norm is cached with the graph's operators).
:func:`irls_step_bound`, recomputed at every layer of ``auto_irls``,
uses a certified O(m) upper bound on ||B.T G B|| from the weighted
degrees instead: it never falls below the norm and may exceed it, so
its steps are safe but can be shorter.
"""

import csv
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import _kernels
from .energy import edge_diagonal, energy_eval
from .graph import LaplacianKind, incidence, laplacian, propagation_matrix, spectral_norm

DIVERGENCE_LIMIT = 1e12
# A Lanczos ||L|| can land a few ulps below the exact norm; this slack keeps
# the auto step at or below the step the exact norm gives.
_NORM_SLACK = 1e-12


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


def gamma_update(spec, bview, y):
    """Fresh edge weights: rho' at the current per-edge diagonal."""
    return spec.rho.grad(edge_diagonal(spec, bview, y))


def abridged_gradient_step(spec, bview, y, fx, gamma, alpha):
    """One gradient step on the smooth energy terms at fixed Gamma.

    Simple mode: U = Y - alpha [lam * Lhat Y + Y - F].
    General mode ("exact"):   U = Y - alpha [Lhat Y Wp_s + (Y-F) Wf_s].
    General mode ("literal"): U = Y - alpha [Lhat Y Wp_s + Y Wf_s - F].
    """
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


def _weighted_lap_norm_bound(bview, gamma):
    """Certified upper bound on ||B.T diag(gamma) B|| over the edge rows,
    in O(m): max over edges (u, v) of s_u^2 d(u) + s_v^2 d(v), where s is
    the incidence scale and d(i) sums |gamma| over the edges at i.

    ||B.T G B|| <= rho(|B|.T |G| |B|), whose nonzero spectrum is that of
    the nonnegative |B| |B|.T |G|; row e of that matrix sums to the
    expression above, and the largest row sum bounds the spectral
    radius.  For gamma >= 0 it is at most twice the norm, since each
    s_i^2 d(i) is a diagonal entry of B.T G B; it is exact on a single
    edge and 1.2-1.9x the norm on the random graphs tried.
    """
    if bview.n_edge_rows == 0:
        return 0.0
    w = np.abs(gamma)  # rho'(z^2) can be negative (cosine rho)
    d = np.bincount(bview.eu, weights=w, minlength=bview.n) \
        + np.bincount(bview.ev, weights=w, minlength=bview.n)
    return float(np.max(bview.su ** 2 * d[bview.eu] + bview.sv ** 2 * d[bview.ev]))


def step_size_bound(spec, g):
    """(alpha_max_convex, alpha_max_general) for the configured energy.

    alpha_max_general is safe for every shipped concave rho and any prox
    in the menu: it caps the weighted-Laplacian curvature by the largest
    attainable attention weight.  alpha_max_convex is the wider
    2/curvature range valid for the quadratic (identity-rho) energy;
    for robust penalties it falls back to the general bound.
    """
    ops = g.operators(spec.kind)
    lap_norm = ops.laplacian_norm * (1.0 + _NORM_SLACK)
    gcap = spec.rho.grad_max()
    if spec.simple:
        general = 1.0 / (1.0 + spec.lam * gcap * lap_norm)
        if spec.rho.kind == "identity":
            return 2.0 / (1.0 + spec.lam * lap_norm), general
        return general, general
    wf = spec.w_fid_sym()
    wp = spec.w_prop_sym()
    nf = spectral_norm(wf)
    npr = spectral_norm(wp)
    eye = np.eye(wf.shape[0])
    if np.allclose(wf, eye - wp, atol=1e-12):
        # fixed-point pairing: curvature of I - P (x) Wp_s
        curvature = 1.0 + npr * ops.propagation_norm
    else:
        curvature = nf + lap_norm * npr
    general = 1.0 / (nf + gcap * lap_norm * npr)
    if spec.rho.kind == "identity":
        return 2.0 / curvature, general
    return general, general


def irls_step_bound(spec, bview, gamma):
    """Per-step safe size at the current Gamma: 1 / (1 + lam c) in simple
    mode, and the matrix-weight analogue otherwise, where c is the
    certified O(m) upper bound on ||B.T G B|| from
    :func:`_weighted_lap_norm_bound`.

    c is certified, not estimated, so the step is safe; c exceeding the
    exact norm (at most 2x for gamma >= 0, about 1.5x on sparse graphs)
    shortens the step.
    """
    lhat_bound = _weighted_lap_norm_bound(bview, np.asarray(gamma, dtype=float))
    if spec.simple:
        return 1.0 / (1.0 + spec.lam * lhat_bound)
    nf = spectral_norm(spec.w_fid_sym())
    npr = spectral_norm(spec.w_prop_sym())
    return 1.0 / (nf + lhat_bound * npr)


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


def preconditioned_step(g, z, z0, alpha, lam):
    """Pre-prox point of the degree-rescaled recursion
    Z <- prox[(1-a) Z + a*lam*(D~^-1/2 A D~^-1/2) Z + a*D~^-1 Z0]."""
    p_hat = propagation_matrix(g, LaplacianKind.SELF_LOOP_SYM)
    d_tilde_inv = 1.0 / (g.degrees + 1.0)
    adj_part = p_hat @ z - d_tilde_inv[:, None] * z  # D~^-1/2 A D~^-1/2 Z
    _kernels.count_dense(2 * p_hat.nnz * z.shape[1])
    return (1.0 - alpha) * z + alpha * lam * adj_part + alpha * d_tilde_inv[:, None] * z0


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


@dataclass(frozen=True)
class Layer:
    """One unrolled layer: step k took Y_k to ``y = prox(u, alpha)``.

    ``gamma`` holds the edge weights the step used, or None where it
    used the unweighted operator (the normalized variant without
    attention, and the preconditioned variant); ``gamma_step`` is the
    step whose embedding generated them, -1 while they are still ones.
    """

    k: int
    u: np.ndarray
    y: np.ndarray
    alpha: float
    gamma: np.ndarray | None
    gamma_step: int


def _start(fx, cfg):
    y = fx.copy() if cfg.y0 is None else np.array(cfg.y0, dtype=float)
    if y.shape != fx.shape:
        raise ValueError("y0 and f(X) shapes differ")
    return y


def unroll(spec, g, fx, cfg):
    """Run cfg's layers from Y0 (cfg.y0, or f(X)), yielding one
    :class:`Layer` per step.

    Raises PropagationDivergence when the iterate norm passes the guard.
    """
    fx = np.asarray(fx, dtype=float)
    bview = incidence(g, spec.kind)
    y = _start(fx, cfg)
    gamma = np.ones(bview.n_edge_rows)
    gamma_step = -1
    fixed_alpha = None  # auto_irls: sized from the current Gamma at every step
    if cfg.alpha == "auto":
        if cfg.variant == "plain":
            fixed_alpha = step_size_bound(spec, g)[1]
        else:
            # convex-combination step of the rescaled recursions
            fixed_alpha = 1.0 / (1.0 + spec.lam)
    elif cfg.alpha != "auto_irls":
        fixed_alpha = float(cfg.alpha)
    schedule = set(cfg.attention_schedule)
    for k in range(cfg.steps):
        if k in schedule:
            gamma = gamma_update(spec, bview, y)
            gamma_step = k
        alpha = irls_step_bound(spec, bview, gamma) if fixed_alpha is None else fixed_alpha
        if cfg.variant == "plain":
            used = gamma
            u = abridged_gradient_step(spec, bview, y, fx, gamma, alpha)
        elif cfg.variant == "preconditioned":
            used = None
            u = preconditioned_step(g, y, fx, alpha, spec.lam)
        else:
            used = gamma if schedule else None
            u = normalized_step(g, y, fx, alpha, spec.lam, gamma=used)
        y = spec.phi.prox(u, alpha)
        norm = np.linalg.norm(y)
        if not np.isfinite(norm) or norm > DIVERGENCE_LIMIT:
            raise PropagationDivergence(k, norm)
        yield Layer(k, u, y, alpha, used, gamma_step)


def propagate(spec, g, fx, cfg):
    """Run the configured number of layers from Y0 = f(X) (or cfg.y0).

    Records the energy after every step, per-step residuals, and Gamma
    snapshots at refresh steps.  Raises PropagationDivergence when the
    iterate norm passes the guard.
    """
    fx = np.asarray(fx, dtype=float)
    bview = incidence(g, spec.kind)
    y = _start(fx, cfg)
    ops0 = _kernels.op_counter()
    trace = [energy_eval(spec, bview, y, fx)] if cfg.record_trace else []
    residuals = np.zeros(cfg.steps)
    alphas = np.zeros(cfg.steps)
    gamma_trace = {}
    for layer in unroll(spec, g, fx, cfg):
        k = layer.k
        if layer.gamma_step == k:
            gamma_trace[k] = layer.gamma
        alphas[k] = layer.alpha
        residuals[k] = np.linalg.norm(layer.y - y)
        y = layer.y
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
