"""Self-contained verification suites behind the ``verify`` command.

Each suite generates its own random instances from a seed, checks one
family of guarantees, and returns (ok, records).  Records are plain
dicts (JSON-lines friendly), each naming its suite and check; a failing
record carries the instance parameters needed to replay it.  Under
``inject_failure`` every check runs a negative control, a fault that
fails some of its records.

The acceptance tests run these suites at their own seed and trial
count, so each guarantee has one check; README's "Tests" section says
which criterion runs which check.  The tests draw their instances from
the generators below.
"""

import numpy as np

from .energy import (
    EnergySpec,
    from_symmetric_pair,
    phi_relu,
    phi_soft_threshold,
    phi_zero,
    rho_identity,
    rho_log,
    rho_truncated_lp,
    rho_truncated_quadratic,
)
from .graph import LaplacianKind, build_graph
from .implicit import FixedPointConfig, FixedPointDivergence, fixed_point_solve, project_weights
from .equivalence import (
    embed_gcn,
    symmetrize_linear,
    verify_gcn_equivalence,
    verify_linear_equivalence,
)
from .model import Model, ModelConfig, finite_difference_check, min_preactivation_margin
from .unfold import (
    PropagationConfig,
    PropagationDivergence,
    closed_form_solution,
    propagate,
    step_size_bound,
    verify_descent,
)


def random_graph(rng, n, p):
    """Erdős–Rényi graph on n nodes with edge probability p; one edge
    (0, 1) when no pair is drawn."""
    mask = np.triu(rng.random((n, n)) < p, k=1)
    pairs = np.argwhere(mask)
    if pairs.shape[0] == 0:
        pairs = np.array([[0, 1]])
    return build_graph(n, pairs)


def random_psd(rng, d):
    """Random symmetric positive definite d×d weight."""
    a = rng.normal(size=(d, d))
    return a @ a.T / d + 0.05 * np.eye(d)


def real_spectrum_asymmetric(rng, d, p_op):
    """Random asymmetric weight with real, distinct eigenvalues: a
    diagonal similarity-transformed by a non-orthogonal basis, then
    scaled so that ||W|| ||P|| <= 0.8."""
    basis = rng.normal(size=(d, d)) + 2.0 * np.eye(d)
    diag = np.diag(np.linspace(-1.0, 1.0, d) + 0.05 * rng.normal(size=d))
    w = basis @ diag @ np.linalg.inv(basis)
    return project_weights(w, p_op, margin=0.8)


def descent_suite(seed, trials, inject_failure=False):
    """Energy monotonicity over random robust instances: at the safe fixed
    step in general mode, exact and literal, refreshing the edge weights
    at every step; then on the same graph in simple mode under
    ``alpha="auto_irls"``, log and truncated_lp rho in turn, with the
    same refreshes."""
    rng = np.random.default_rng(seed)
    menu = [rho_identity(), rho_log(eps=0.5), rho_truncated_quadratic(tau=1.0),
            rho_truncated_lp(p=0.5, tau=0.3, big_t=2.0)]
    records = []
    ok = True

    def check(name, spec, g, fx, alpha, steps, **fields):
        try:
            out = propagate(spec, g, fx, PropagationConfig(
                steps=steps, alpha=alpha, attention_schedule=tuple(range(steps))))
            report = verify_descent(out, slack=1e-9)
        except PropagationDivergence as exc:
            report = {"ok": False, "first_violation": exc.step,
                      "max_increase": float("inf")}
        records.append({"suite": "descent", "check": name, "trial": t, "n": g.n,
                        "d": fx.shape[1], "rho": spec.rho.kind, "alpha": alpha, **fields,
                        "ok": report["ok"], "first_violation": report["first_violation"],
                        "max_increase": report["max_increase"], "seed": seed})
        return report["ok"]

    for t in range(trials):
        n = int(rng.integers(5, 28))
        d = int(rng.integers(1, 6))
        g = random_graph(rng, n, 0.35)
        spec = EnergySpec(
            rho=menu[t % len(menu)],
            phi=phi_relu() if t % 2 else phi_zero(),
            simple=False,
            w_fid=random_psd(rng, d),
            w_prop=random_psd(rng, d),
            gradient_mode="literal" if t % 8 >= 4 else "exact",
        )
        fx = rng.normal(size=(n, d))
        alpha = step_size_bound(spec, g)
        if inject_failure:
            alpha *= 25.0
        ok = check("safe-step", spec, g, fx, alpha, 25, phi=spec.phi.kind,
                   mode=spec.gradient_mode) and ok

        rho = rho_log(eps=0.3) if t % 2 else rho_truncated_lp(p=0.5, tau=0.3, big_t=2.0)
        spec = EnergySpec(rho=rho, lam=float(rng.uniform(0.5, 2.5)),
                          kind=LaplacianKind.COMBINATORIAL)
        fx = 2.0 * rng.normal(size=(n, d))
        # the negative control steps at 25 times the fixed safe step
        alpha = 25.0 * step_size_bound(spec, g) if inject_failure else "auto_irls"
        ok = check("reweighted", spec, g, fx, alpha, 30, lam=spec.lam) and ok
    return ok, records


def convergence_suite(seed, trials, inject_failure=False):
    """Deep-propagation limit vs direct solve, under Laplacian kind
    t % 3 in trial t; then one fixed point reached from two random
    starts of scale 10, every residual ratio from iteration 3 on at most
    0.95, and a certified contraction factor below one."""
    rng = np.random.default_rng(seed)
    records = []
    ok = True
    for t in range(trials):
        n = int(rng.integers(10, 40))
        d = int(rng.integers(1, 6))
        g = random_graph(rng, n, 0.25)
        fx = rng.normal(size=(n, d))
        lam = float(rng.uniform(0.2, 2.0))
        spec = EnergySpec(lam=lam, kind=list(LaplacianKind)[t % 3])
        out = propagate(spec, g, fx, PropagationConfig(steps=500, alpha="auto",
                                                       record_trace=False))
        target = closed_form_solution(g, fx, lam, spec.kind)
        rel = float(np.linalg.norm(out.y - target) / max(np.linalg.norm(target), 1e-30))
        if inject_failure:
            rel += 1.0
        good = rel < 1e-6
        records.append({"suite": "convergence", "check": "closed-form", "trial": t,
                        "kind": spec.kind.value, "n": n, "d": d, "lam": lam,
                        "isolated": int(np.count_nonzero(g.degrees == 0)),
                        "rel_error": rel, "ok": good, "seed": seed})
        ok = ok and good

        w = project_weights(rng.normal(size=(d, d)), g.operators(LaplacianKind.SELF_LOOP_SYM),
                            margin=0.9)
        cfg = FixedPointConfig(sigma=phi_relu(), tol=1e-10)
        a = fixed_point_solve(g, w, fx, cfg, y0=10.0 * rng.normal(size=(n, d)))
        # the negative control solves the second start on a shifted fx
        b = fixed_point_solve(g, w, fx + (1e-3 if inject_failure else 0.0), cfg,
                              y0=10.0 * rng.normal(size=(n, d)))
        gap = float(np.linalg.norm(a.y - b.y))
        resid = a.residual_trace
        ratio = float((resid[4:] / resid[3:-1]).max(initial=0.0))
        good = gap < 1e-7 and ratio <= 0.95 and a.contraction < 1.0
        records.append({"suite": "convergence", "check": "fixed-point", "trial": t,
                        "iterations": a.iterations, "uniqueness_gap": gap,
                        "worst_ratio": ratio, "certified_contraction": a.contraction,
                        "error_bound": a.error_bound, "ok": good, "seed": seed})
        ok = ok and good
    return ok, records


def equivalence_suite(seed, trials, inject_failure=False):
    """Both weight-family constructions re-verified end to end, with the
    drift shrinking down a jitter ladder on every 10th trial; then, on
    the same graph, the unfolded and implicit fixed points of one
    symmetric weight agreeing, with phi zero, relu and soft_threshold in
    turn."""
    rng = np.random.default_rng(seed)
    phis = [phi_zero(), phi_relu(), phi_soft_threshold(0.05)]
    records = []
    ok = True
    for t in range(trials):
        d = int(rng.integers(2, 7))
        g = random_graph(rng, int(rng.integers(6, 14)), 0.35)
        ops = g.operators(LaplacianKind.SELF_LOOP_SYM)
        w = real_spectrum_asymmetric(rng, d, ops)
        x = rng.normal(size=(g.n, 3))
        w_x = rng.normal(size=(3, d))
        rep = symmetrize_linear(w, g, w_x, x, eps=0.0)
        report = verify_linear_equivalence(rep, g, x, w_p=w, w_x=w_x)
        resid = report["residual"] + (1.0 if inject_failure else 0.0)
        good = resid < 1e-6 and rep.symmetry_defect < 1e-12
        records.append({"suite": "equivalence", "check": "linear-fixed-point",
                        "trial": t, "d": d, "residual": resid,
                        "symmetry_defect": rep.symmetry_defect, "ok": good,
                        "seed": seed})
        ok = ok and good

        if t % 10 == 0:
            # the negative control climbs the ladder, so the drift grows
            jitters = (1e-6, 1e-4, 1e-2) if inject_failure else (1e-2, 1e-4, 1e-6)
            ladder = [verify_linear_equivalence(
                symmetrize_linear(w, g, w_x, x, eps=eps, seed=seed + t), g, x, w_p=w, w_x=w_x)
                for eps in jitters]
            worst = max(r["residual"] for r in ladder)
            drifts = [r["drift"] for r in ladder]
            good = worst < 1e-6 and drifts[1] < 10 * drifts[0] and drifts[2] < 10 * drifts[1]
            records.append({"suite": "equivalence", "check": "jitter-ladder", "trial": t,
                            "max_residual": worst, "drifts": drifts, "ok": good,
                            "seed": seed})
            ok = ok and good

        k_layers = int(rng.integers(1, 5))
        residual_conn = bool(rng.integers(0, 2))
        width = int(rng.integers(2, 5))
        widths = [width] * (k_layers + 1) if residual_conn else \
            [int(rng.integers(2, 5)) for _ in range(k_layers + 1)]
        layers = [0.6 * rng.normal(size=(widths[i], widths[i + 1]))
                  for i in range(k_layers)]
        emb = embed_gcn(layers, residual=residual_conn, sigma=phi_relu())
        y0 = rng.normal(size=(g.n, widths[0]))
        # the negative control checks the embedding against a stack it does not embed
        stack = [2.0 * layer for layer in layers] if inject_failure else layers
        rep2 = verify_gcn_equivalence(emb, g, y0, steps=k_layers, layers=stack)
        good = rep2["ok"]
        records.append({"suite": "equivalence", "check": "layer-stack", "trial": t,
                        "layers": k_layers, "residual_conn": residual_conn,
                        "max_diff": max(rep2["per_layer_max_diff"]), "ok": good,
                        "seed": seed})
        ok = ok and good

        phi = phis[t % len(phis)]
        a = rng.normal(size=(d, d))
        w_sym = project_weights(a + a.T, ops, margin=0.8)
        spec = from_symmetric_pair(w_sym, np.eye(d) - w_sym, phi=phi,
                                   kind=LaplacianKind.SELF_LOOP_SYM, gradient_mode="literal")
        fx = rng.normal(size=(g.n, d))
        ugnn = propagate(spec, g, fx, PropagationConfig(steps=400, alpha=1.0,
                                                        record_trace=False))
        # the negative control solves the implicit side at half the weight
        ignn = fixed_point_solve(g, 0.5 * w_sym if inject_failure else w_sym, fx,
                                 FixedPointConfig(sigma=phi, tol=1e-12))
        diff = float(np.linalg.norm(ugnn.y - ignn.y))
        good = diff < 1e-6
        records.append({"suite": "equivalence", "check": "ugnn-ignn", "trial": t, "d": d,
                        "phi": phi.kind, "diff": diff, "ok": good, "seed": seed})
        ok = ok and good
    return ok, records


def gradients_suite(seed, trials, inject_failure=False):
    """Finite-difference agreement for every backend, at a random
    embedding width in [2, 4]."""
    rng = np.random.default_rng(seed)
    records = []
    ok = True
    backends = [
        ("unrolled-zero", dict(backend="unrolled", steps=4, alpha=0.15, phi=phi_zero())),
        ("unrolled-relu", dict(backend="unrolled", steps=4, alpha=0.15, phi=phi_relu())),
        ("implicit", dict(backend="implicit", fp_tol=1e-12)),
        ("implicit-relu", dict(backend="implicit", fp_tol=1e-12, sigma=phi_relu())),
        # at 1e-12 the solve's error shows through the central differences
        # of eignn's smaller F gradients (max_rel_err 5.4e-4 at seed 57)
        ("eignn", dict(backend="eignn", mu=0.6, eps_f=0.2, fp_tol=1e-13)),
    ]
    for t in range(trials):
        tag, overrides = backends[t % len(backends)]
        n = int(rng.integers(6, 14))
        d = int(rng.integers(2, 5))
        g = random_graph(rng, n, 0.35)
        x = rng.normal(size=(n, 3))
        labels = rng.integers(0, 2, size=n)
        cfg = ModelConfig(embed_dim=d, n_classes=2, kind=LaplacianKind.SELF_LOOP_SYM,
                          **overrides)
        model = Model(3, cfg, seed=seed + t, g=g)
        if tag == "unrolled-relu" and min_preactivation_margin(model, g, x) < 1e-3:
            records.append({"suite": "gradients", "check": "finite-difference",
                            "backend": tag, "trial": t, "ok": True,
                            "skipped": "kink margin", "seed": seed})
            continue
        if inject_failure:
            orig = model.backward

            def corrupted(cache, d_logits, _orig=orig):
                grads = _orig(cache, d_logits)
                first = next(iter(grads))
                grads[first] = grads[first] + 0.1
                return grads

            model.backward = corrupted
        try:
            report = finite_difference_check(model, g, x, labels, np.arange(n))
        except FixedPointDivergence:
            report = {"ok": False, "max_rel_err": float("inf")}
        records.append({"suite": "gradients", "check": "finite-difference",
                        "backend": tag, "trial": t, "d": d,
                        "max_rel_err": report["max_rel_err"], "ok": report["ok"],
                        "seed": seed})
        ok = ok and report["ok"]
    return ok, records


# suite name -> (function(seed, trials, inject_failure), default trial count)
_RUNNERS = {
    "descent": (descent_suite, 40),
    "convergence": (convergence_suite, 15),
    "equivalence": (equivalence_suite, 20),
    "gradients": (gradients_suite, 6),
}
SUITES = tuple(_RUNNERS)


def run_suite(name, seed=0, trials=None, inject_failure=False):
    if name not in _RUNNERS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    suite, default_trials = _RUNNERS[name]
    return suite(seed, default_trials if trials is None else trials, inject_failure)
