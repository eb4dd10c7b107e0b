"""Unfolded engine: descent iterations that double as layers, and their reverse.

Each layer applies one abridged gradient step on the smooth part of the
energy followed by the proximal map of the node penalty.  Per-edge
reweighting (the attention mechanism) enters by refreshing the edge
diagonal Gamma from the current embeddings at scheduled steps; between
refreshes Gamma is held fixed, which is exactly the
majorize-then-minimize structure that the step-size bounds below make
safe.

:func:`unroll` is the one layer loop: it picks the step size, refreshes
Gamma on the schedule, takes the gradient step, applies the prox,
guards against divergence, and yields one :class:`Layer` per step.
:func:`unroll_backward` is its reverse: it runs back over those records
and returns the gradient wrt f(X), so each step and its adjoint are
written in this module.  :func:`propagate` records the energy trace,
residuals and Gamma snapshots from the forward loop; the unrolled model
backend (``model.py``) keeps the records as its tape, each slimmed by
:func:`tape_record` to what the reverse reads.  A layer that
refreshes Gamma keeps the edge diagonal it computed and the
edge-penalty sum, taken in the same pass of rho as Gamma, so the energy
trace reads the sum and the attention backward the diagonal instead of
computing either again.

Gamma is constant over a segment, from one refresh to the next, so each
segment's Laplacian is picked once, when the segment starts, and the
two variants differ only in that pick.  The plain variant applies
L_Gamma = B.T diag(Gamma) B: the graph's cached Laplacian while Gamma
is still ones, else L_Gamma from :meth:`graph.GraphOperators.weighted_laplacian`,
the graph's one symmetric CSR assembly, so it is canonical and exactly
symmetric.  Every step of the segment is then one sparse product with it,
and so is the step's transpose in the backward, since L_Gamma is its own
transpose bit for bit.  A segment of a single forward step applies
B.T (Gamma * (B Y)) factor by factor instead, since there an assembly
would cost more than the one product it saves.  Where that step also
refreshes Gamma, and the edge diagonal reads the same incidence
(:meth:`EnergySpec.edge_view`: any kind in general mode, COMBINATORIAL
in simple mode), B Y is computed once for both.  The normalized
variant applies the SELF_LOOP_SYM Laplacian
renormalized by Gamma (:func:`normalized_step`) instead, from the same
assembly at every refresh, even for a one-step segment, so each of its
layers carries the operator its backward applies.

The step and everything else that depends on the energy's mode is
read from :class:`energy.EnergySpec`.  Simple mode follows the scalar
propagation convention ``U = Y - alpha [(lam * Lhat + I) Y - F]`` (the
update whose first step reduces to a normalized-adjacency layer); its
step direction is half the exact gradient of the recorded energy, and
:func:`step_size_bound` / :func:`irls_step_bound` follow it.  General
mode steps along the full gradient of the matrix energy.

:func:`step_size_bound` takes ||L|| from a Lanczos solve, once per
graph (the norm is cached with the graph's operators), and checks the
step against a certified O(m) bound, cached beside it.
:func:`irls_step_bound`, recomputed at every layer of ``auto_irls``,
uses a certified O(m) upper bound on ||B.T G B|| from the weighted
degrees instead: it never falls below the norm and may exceed it, so
its steps are safe but can be shorter.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from . import _kernels
from .artifacts import write_csv
from .energy import edge_diagonal, energy_eval
from .graph import LaplacianKind, incidence
from .graph import propagation_matrix, spectral_norm  # noqa: F401  patched by perfbench/tracing.py

DIVERGENCE_LIMIT = 1e12
# The Lanczos ||L|| is a Ritz value, which can land a few ulps below the
# exact norm; this slack keeps the auto step at or below the exact norm's step.
_NORM_SLACK = 1e-12
CLOSED_FORM_TOL = 1e-10


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
    variant: str = "plain"  # plain | normalized
    attention_schedule: tuple = ()
    record_trace: bool = True
    y0: np.ndarray | None = None

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if isinstance(self.alpha, str):
            if self.alpha not in ("auto", "auto_irls"):
                raise ValueError("alpha must be positive or 'auto'/'auto_irls'")
        elif not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if self.variant not in ("plain", "normalized"):
            raise ValueError(f"unknown variant {self.variant!r}: "
                             "variant must be 'plain' or 'normalized'")
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


def _lap_apply(bview, gamma, lap, y, rows=None):
    """L_Gamma @ y: one product with ``lap``, the segment's L_Gamma, or
    B.T (gamma * (B y)) factor by factor where lap is None, starting from
    ``rows`` = B y when the caller has it (and scaling it in place)."""
    if lap is not None:
        return _kernels.lap_apply(y, lap)
    if rows is None:
        rows = bview.apply(y)
    return _kernels.weighted_lap_apply(rows, np.asarray(gamma, dtype=float), bview.bt)


def _segment_laplacian(g, bview, gamma, unit, steps, normalized):
    """The operator a Gamma segment of ``steps`` forward steps applies
    under the plain or the ``normalized`` variant (see the module
    docstring); ``unit`` says Gamma is still ones, where B.T B is the
    graph's cached Laplacian under every kind."""
    if normalized:
        return g.operators(bview.kind).laplacian if unit else normalized_step(g, gamma)
    if steps < 2:
        return None
    ops = g.operators(bview.kind)
    return ops.laplacian if unit else ops.weighted_laplacian(gamma)


def step_size_bound(spec, g):
    """The fixed step that alpha="auto" takes, safe for every shipped
    concave rho and any prox in the menu: :meth:`EnergySpec.step_bound`
    at ||L|| with the weights capped by the largest edge weight a layer
    can apply, max(rho'(0), 1): Gamma is ones until the first refresh,
    so a rho whose weights stay below 1 is not yet in force.

    ||L|| is theta, the top Ritz value of the Lanczos solve in
    :func:`graph.spectral_norm`, an estimate.  A proximal gradient step
    with a convex prox descends at any step below 2 / Lip, so the step at
    theta is kept only where it is below twice the step at c, the
    certified O(m) upper bound on ||L|| of
    :meth:`graph.IncidenceView.norm_bound` at Gamma = 1; elsewhere the
    step at c is taken.  Since c <= 2 ||L||, the step at a correct theta
    always passes.  Both norms are computed once per graph and kind, with
    its operators."""
    ops = g.operators(spec.kind)
    cap = max(spec.rho.grad_max(), 1.0)
    alpha = spec.step_bound(ops.laplacian_norm * (1.0 + _NORM_SLACK), cap)
    certified = spec.step_bound(ops.laplacian_norm_bound, cap)
    return alpha if alpha < 2.0 * certified else certified


def irls_step_bound(spec, bview, gamma):
    """Per-step safe size at the current Gamma, :meth:`EnergySpec.step_bound`
    at c, the certified O(m) upper bound on ||B.T G B|| from
    :meth:`graph.IncidenceView.norm_bound`.

    c is certified, not estimated, so the step is safe; c exceeding the
    exact norm (at most 2x for gamma >= 0, about 1.5x on sparse graphs)
    shortens the step.
    """
    return spec.step_bound(bview.norm_bound(np.asarray(gamma, dtype=float)))


def closed_form_solution(g, fx, lam, kind):
    """Solve (I + lam * L) Y = F to a relative residual of
    CLOSED_FORM_TOL; the infinite-depth limit.

    Conjugate gradients per column, since I + lam * L is SPD for
    lam >= 0; a sparse LU fills in badly on a random graph: at n=4000,
    m=12k (2 cores, scipy 1.17.1) spsolve took 3.6-3.9 s and CG 4-10 ms
    for two columns, and at n=50 both took about 1 ms.  CG's module,
    ``scipy.sparse.linalg`` (ARPACK, SuperLU, PROPACK and scipy.linalg's
    LAPACK with its own OpenBLAS), is imported here on first use: this is
    the only place in the package that loads it, so training and
    propagation never do."""
    fx = np.asarray(fx, dtype=float)
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    import scipy.sparse.linalg as spla
    a = sp.identity(g.n, format="csr") + lam * g.operators(kind).laplacian
    y = np.empty_like(fx)
    for j in range(fx.shape[1]):
        col, info = spla.cg(a, fx[:, j], rtol=CLOSED_FORM_TOL, atol=0.0, maxiter=20 * g.n)
        if info != 0:
            raise SolveError(f"conjugate gradient failed on column {j} (info={info})")
        y[:, j] = col
    resid = np.linalg.norm(a @ y - fx)
    if resid > CLOSED_FORM_TOL * max(1.0, np.linalg.norm(fx)):
        raise SolveError(f"linear solve residual {resid:.2e} above {CLOSED_FORM_TOL:.0e}")
    return y


def normalized_step(g, gamma):
    """The Laplacian the normalized variant steps with at edge weights
    gamma: I - S (A_g + I) S with A_g the reweighted adjacency and
    S = (D_g + I)^-1/2, D_g its degrees.  That is S B.T diag(gamma) B S
    over the unit-scale incidence B: :meth:`GraphOperators.weighted_laplacian`
    at S's diagonal, from the symmetric assembly of every other Laplacian,
    so canonical CSR, exactly symmetric, and at gamma = 1 the SELF_LOOP_SYM
    Laplacian.  The simple-mode step on it is the recursion
    U = (1-a-a*lam) Y + a*lam (I - L) Y + a*F, and a common rescaling of
    gamma only moves the self loop's share."""
    ops = g.operators(LaplacianKind.SELF_LOOP_SYM)
    return ops.weighted_laplacian(gamma, 1.0 / np.sqrt(ops.incidence.weighted_degrees(gamma) + 1.0))


@dataclass(frozen=True)
class Layer:
    """One unrolled layer: step k took Y_k to ``y = prox(u, alpha)``.

    :func:`unroll` yields every field; a tape kept for the reverse
    (:func:`tape_record`) drops ``u``, and ``y`` and ``diagonal`` where
    the reverse does not read them, to None.

    ``gamma`` holds the edge weights the step used, ones before the
    first refresh; ``gamma_step`` is the step whose embedding generated
    them, -1 while they are still ones.  ``lap`` is the sparse Laplacian
    the step applied, one object shared by the layers of its segment:
    B.T diag(gamma) B under the plain variant, or None where that step
    applied the factors (a one-step segment), and the renormalized
    Laplacian of :func:`normalized_step` under the normalized variant,
    where it is never None.
    ``diagonal`` is the edge diagonal of Y_k that step k refreshed gamma
    from, and ``penalty`` the edge-penalty sum of the energy at Y_k, rho
    summed over that diagonal, taken in the same pass over it as gamma;
    both are None at a step without a refresh.
    """

    k: int
    u: np.ndarray
    y: np.ndarray
    alpha: float
    gamma: np.ndarray
    gamma_step: int
    lap: sp.spmatrix | None
    diagonal: np.ndarray | None
    penalty: float | None


def _start(fx, cfg):
    y = fx.copy() if cfg.y0 is None else np.array(cfg.y0, dtype=float)
    if y.shape != fx.shape:
        raise ValueError("y0 and f(X) shapes differ")
    return y


def check_config(spec, cfg):
    """Raise ValueError where cfg cannot step spec's energy.

    The normalized variant takes the simple-mode step, which reads lam
    alone, on a renormalization of the SELF_LOOP_SYM Laplacian, and
    cosine rho's weights, negative past z^2 = 4, can take its reweighted
    degrees below zero.  Under the plain variant, reweighting with
    cosine rho takes a user-given alpha only: z^2 - z^4/8 is unbounded
    below, so its energy has no minimum, and "auto" and "auto_irls",
    which certify descent, diverge on it as descent proceeds."""
    cosine = spec.rho.kind == "cosine" and bool(cfg.attention_schedule)
    if cfg.variant == "normalized":
        if not spec.simple:
            raise ValueError("the normalized variant steps the simple-mode energy; "
                             "a general-mode spec's W_f and W_p would be ignored")
        if spec.kind is not LaplacianKind.SELF_LOOP_SYM:
            raise ValueError("the normalized variant steps the self_loop_sym energy; "
                             f"kind {spec.kind.value} would be ignored")
        if cosine:
            raise ValueError("the normalized variant cannot reweight with cosine rho, whose "
                             "weights turn negative past z^2 = 4")
    if cosine and isinstance(cfg.alpha, str):
        raise ValueError(f"cosine rho is unbounded below, so alpha={cfg.alpha!r} cannot "
                         "certify descent once it reweights: only a user-given alpha is "
                         "accepted with cosine reweighting")


def unroll(spec, g, fx, cfg):
    """Run cfg's layers from Y0 (cfg.y0, or f(X)), yielding one
    :class:`Layer` per step.

    Raises PropagationDivergence when the iterate norm passes the guard,
    and ValueError, before the first step, where :func:`check_config`
    rejects cfg for this energy.
    """
    check_config(spec, cfg)
    fx = np.asarray(fx, dtype=float)
    bview = incidence(g, spec.kind)
    y = _start(fx, cfg)
    gamma = np.ones(bview.n_edge_rows)
    gamma_step = -1
    normalized = cfg.variant == "normalized"
    fixed_alpha = None  # auto_irls: sized from the current Gamma at every step
    if cfg.alpha == "auto":
        # the normalized variant takes the convex-combination step of the
        # rescaled recursion, the curvature step at c = 1
        fixed_alpha = spec.step_bound(1.0) if normalized else step_size_bound(spec, g)
    elif cfg.alpha != "auto_irls":
        fixed_alpha = float(cfg.alpha)
    schedule = set(cfg.attention_schedule)
    starts = sorted(schedule | {0})
    segment_end = dict(zip(starts, starts[1:] + [cfg.steps]))
    lap = None
    for k in range(cfg.steps):
        diagonal = rows = penalty = None
        if k in schedule:
            # a factored step shares B y with a diagonal that reads its incidence
            if segment_end[k] - k < 2 and spec.edge_view(bview) is bview:
                rows = bview.apply(y)
            diagonal = edge_diagonal(spec, bview, y, rows)
            values, gamma = spec.rho.value_and_grad(diagonal)
            penalty = np.sum(values)
            gamma_step = k
        alpha = irls_step_bound(spec, bview, gamma) if fixed_alpha is None else fixed_alpha
        if k in segment_end:
            lap = _segment_laplacian(g, bview, gamma, gamma_step < 0, segment_end[k] - k,
                                     normalized)
        u = spec.step(y, _lap_apply(bview, gamma, lap, y, rows), fx, alpha)
        y = spec.phi.prox(u, alpha)
        # outside BLAS, whose threaded ddot can stall above 10,000 entries
        norm = math.sqrt(np.einsum("ij,ij->", y, y))
        if not math.isfinite(norm) or norm > DIVERGENCE_LIMIT:
            raise PropagationDivergence(k, norm)
        yield Layer(k, u, y, alpha, gamma, gamma_step, lap, diagonal, penalty)


def tape_record(spec, layer, full_attention, schedule):
    """``layer`` as the reverse keeps it: alpha, Gamma, the segment
    operator and the penalty, never u, and y and the refresh diagonal
    only where :func:`unroll_backward` reads them.  It reads y for the
    prox derivative (phi other than zero) and, under full_attention, as
    the input of the next layer's Gamma gradient, which it takes from the
    first refresh in ``schedule`` on; it reads the diagonal only under
    full_attention.  With phi zero and Gamma a constant of the backward,
    the tape holds no n x d array per layer."""
    gamma_reads_y = full_attention and any(r <= layer.k + 1 for r in schedule)
    keep_y = gamma_reads_y or spec.phi.kind != "zero"
    return replace(layer, u=None, y=layer.y if keep_y else None,
                   diagonal=layer.diagonal if full_attention else None)


def unroll_backward(spec, g, fx, layers, d_y, full_attention):
    """Reverse of :func:`unroll` started from Y0 = f(X): pull d(loss)/d(Y_K)
    back through the recorded ``layers`` and return d(loss)/d(f(X)).

    ``layers`` may be the full records or their :func:`tape_record`s:
    each prox derivative is :meth:`Phi.prox_mask` of the layer's output,
    and u is never read.  Gamma is a constant of each step between
    refreshes, and each step's transpose applies the symmetric operator
    its layer recorded, so both variants take the same reverse step.
    full_attention also chains d(loss)/d(Gamma), summed over the steps of
    a segment, through rho' at the embedding that generated it; it holds
    for B.T diag(Gamma) B, the plain variant's operator, and ModelConfig
    rejects it for the normalized one.
    """
    bview = incidence(g, spec.kind)
    d_fx = np.zeros_like(fx)
    d_gamma = 0.0
    for k in reversed(range(len(layers))):
        layer = layers[k]
        alpha, gamma, r = layer.alpha, layer.gamma, layer.gamma_step
        mask = spec.phi.prox_mask(layer.y)
        d_u = d_y if mask is None else d_y * mask
        d_y = spec.step_t(d_u, _lap_apply(bview, gamma, layer.lap, d_u), alpha, d_fx)
        if not full_attention or r < 0:
            continue
        y_k = layers[k - 1].y if k else fx
        d_gamma = d_gamma + spec.step_gamma_t(bview, y_k, d_u, alpha)
        if k == r:
            # gamma = rho'(edge_diagonal(Y_r)), whose diagonal the layer kept
            d_y = d_y + spec.edge_form_t(bview, y_k, d_gamma * spec.rho.grad2(layer.diagonal))
            d_gamma = 0.0
    return d_fx + d_y  # Y0 = f(X)


def propagate(spec, g, fx, cfg):
    """Run the configured number of layers from Y0 = f(X) (or cfg.y0).

    Records the energy at Y0 and after every step, per-step residuals,
    and Gamma snapshots at refresh steps.  The energy of Y_k is taken
    once layer k is known: a layer that refreshed Gamma carries the
    edge-penalty sum at Y_k, which the energy reuses.  Raises
    PropagationDivergence when the iterate norm passes the guard.

    The recorded trace descends from the first refresh on, where each
    segment steps on the majorizer of the recorded energy that its
    refresh built.  Before that refresh Gamma is ones and the layers
    descend the Gamma = 1 energy, so a rise there is not a fault: with
    log rho (eps = 1), COMBINATORIAL and no schedule, the CLI's generated
    dataset rises at step 12 (``first_violation`` 13 in
    :func:`verify_descent`) although every step is safe.  In simple mode
    under the degree-normalized kinds the trace is not the energy the
    layers descend, for any rho, identity included: rho reads raw
    distances (:meth:`EnergySpec.edge_view`), the step the scaled incidence.
    """
    fx = np.asarray(fx, dtype=float)
    bview = incidence(g, spec.kind)
    y = _start(fx, cfg)
    ops0 = _kernels.op_counter()
    trace = []
    residuals = np.zeros(cfg.steps)
    alphas = np.zeros(cfg.steps)
    gamma_trace = {}
    for layer in unroll(spec, g, fx, cfg):
        k = layer.k
        if cfg.record_trace:
            trace.append(energy_eval(spec, bview, y, fx, layer.penalty))
        if layer.gamma_step == k:
            gamma_trace[k] = layer.gamma
        alphas[k] = layer.alpha
        # a sum of products outside BLAS, whose ddot splits the sum across
        # threads above 10,000 entries: the residual is the same at any thread count
        diff = layer.y - y
        residuals[k] = math.sqrt(np.einsum("ij,ij->", diff, diff))
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
    total is reported as the first violation.  A rise before the first
    refresh is reported too, though the layers there descend the
    Gamma = 1 energy, not the recorded one (see :func:`propagate`).
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
    write_csv(path, "propagation-trace v1",
              ["step", "fidelity", "smoothness", "phi", "total", "residual"],
              ([k, ev.fidelity, ev.smoothness, ev.phi_term, ev.total,
                result.residuals[k - 1] if k > 0 else 0.0]
               for k, ev in enumerate(result.trace)))


def gamma_trace_to_csv(result, path):
    write_csv(path, "gamma-trace v1", ["step", "edge", "gamma"],
              ([step, e, val] for step in sorted(result.gamma_trace)
               for e, val in enumerate(result.gamma_trace[step])))
