"""Self-contained verification suites behind the ``verify`` command.

Each suite generates its own random instances from a seed, checks one
family of guarantees, and returns (ok, records).  Records are plain
dicts (JSON-lines friendly); a failing record carries the instance
parameters needed to replay it.
"""

import numpy as np

from .energy import (
    EnergySpec,
    phi_relu,
    phi_zero,
    rho_identity,
    rho_log,
    rho_truncated_lp,
    rho_truncated_quadratic,
)
from .graph import LaplacianKind, build_graph
from .implicit import FixedPointConfig, fixed_point_solve, project_weights
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


def _random_graph(rng, n, p=0.35):
    mask = np.triu(rng.random((n, n)) < p, k=1)
    pairs = np.argwhere(mask)
    if pairs.shape[0] == 0:
        pairs = np.array([[0, 1]])
    return build_graph(n, pairs)


def _random_psd(rng, d):
    a = rng.normal(size=(d, d))
    return a @ a.T / d + 0.05 * np.eye(d)


def descent_suite(seed, trials, inject_failure=False):
    """Safe-step energy monotonicity over random robust instances, exact and literal."""
    rng = np.random.default_rng(seed)
    menu = [rho_identity(), rho_log(eps=0.5), rho_truncated_quadratic(tau=1.0),
            rho_truncated_lp(p=0.5, tau=0.3, big_t=2.0)]
    records = []
    ok = True
    for t in range(trials):
        n = int(rng.integers(5, 28))
        d = int(rng.integers(1, 6))
        g = _random_graph(rng, n)
        spec = EnergySpec(
            rho=menu[t % len(menu)],
            phi=phi_relu() if t % 2 else phi_zero(),
            simple=False,
            w_fid=_random_psd(rng, d),
            w_prop=_random_psd(rng, d),
            gradient_mode="literal" if t % 8 >= 4 else "exact",
        )
        fx = rng.normal(size=(n, d))
        alpha = step_size_bound(spec, g)
        if inject_failure:
            alpha *= 25.0
        steps = 25
        try:
            out = propagate(spec, g, fx, PropagationConfig(
                steps=steps, alpha=alpha, attention_schedule=tuple(range(steps))))
            report = verify_descent(out, slack=1e-9)
        except PropagationDivergence as exc:
            report = {"ok": False, "first_violation": exc.step,
                      "max_increase": float("inf")}
        rec = {"suite": "descent", "trial": t, "n": n, "d": d, "rho": spec.rho.kind,
               "phi": spec.phi.kind, "mode": spec.gradient_mode, "alpha": alpha,
               "ok": report["ok"], "first_violation": report["first_violation"],
               "max_increase": report["max_increase"], "seed": seed}
        records.append(rec)
        ok = ok and report["ok"]
    return ok, records


def convergence_suite(seed, trials, inject_failure=False):
    """Deep-propagation limit vs direct solve, under Laplacian kind
    t % 3 in trial t, and fixed-point uniqueness, geometric residual
    decay and a certified contraction factor below one."""
    rng = np.random.default_rng(seed)
    records = []
    ok = True
    for t in range(trials):
        n = int(rng.integers(10, 40))
        d = int(rng.integers(1, 6))
        g = _random_graph(rng, n, p=0.25)
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
                        "rel_error": rel, "ok": good, "seed": seed})
        ok = ok and good

        w = project_weights(rng.normal(size=(d, d)), g.operators(LaplacianKind.SELF_LOOP_SYM),
                            margin=0.9)
        cfg = FixedPointConfig(sigma=phi_relu(), tol=1e-10)
        a = fixed_point_solve(g, w, fx, cfg)
        b = fixed_point_solve(g, w, fx + 1e-9 * rng.normal(size=fx.shape), cfg)
        gap = float(np.linalg.norm(a.y - b.y))
        good = gap < 1e-7 and a.contraction_estimate <= 0.95 and a.contraction < 1.0
        records.append({"suite": "convergence", "check": "fixed-point", "trial": t,
                        "iterations": a.iterations, "uniqueness_gap": gap,
                        "contraction": a.contraction_estimate,
                        "certified_contraction": a.contraction, "error_bound": a.error_bound,
                        "ok": good, "seed": seed})
        ok = ok and good
    return ok, records


def equivalence_suite(seed, trials, inject_failure=False):
    """Both weight-family constructions re-verified end to end."""
    rng = np.random.default_rng(seed)
    records = []
    ok = True
    for t in range(trials):
        d = int(rng.integers(2, 7))
        g = _random_graph(rng, int(rng.integers(6, 14)))
        basis = rng.normal(size=(d, d)) + 2.0 * np.eye(d)
        diag = np.diag(np.linspace(-1.0, 1.0, d) + 0.05 * rng.normal(size=d))
        w = basis @ diag @ np.linalg.inv(basis)
        w = project_weights(w, g.operators(LaplacianKind.SELF_LOOP_SYM), margin=0.8)
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

        k_layers = int(rng.integers(1, 5))
        residual_conn = bool(rng.integers(0, 2))
        width = int(rng.integers(2, 5))
        widths = [width] * (k_layers + 1) if residual_conn else \
            [int(rng.integers(2, 5)) for _ in range(k_layers + 1)]
        layers = [0.6 * rng.normal(size=(widths[i], widths[i + 1]))
                  for i in range(k_layers)]
        emb = embed_gcn(layers, residual=residual_conn, sigma=phi_relu())
        y0 = rng.normal(size=(g.n, widths[0]))
        rep2 = verify_gcn_equivalence(emb, g, y0, steps=k_layers, layers=layers)
        good = rep2["ok"]
        records.append({"suite": "equivalence", "check": "layer-stack", "trial": t,
                        "layers": k_layers, "residual_conn": residual_conn,
                        "max_diff": max(rep2["per_layer_max_diff"]), "ok": good,
                        "seed": seed})
        ok = ok and good
    return ok, records


def gradients_suite(seed, trials, inject_failure=False):
    """Finite-difference agreement for every backend."""
    rng = np.random.default_rng(seed)
    records = []
    ok = True
    backends = [
        ("unrolled-zero", dict(backend="unrolled", steps=4, alpha=0.15, phi=phi_zero())),
        ("unrolled-relu", dict(backend="unrolled", steps=4, alpha=0.15, phi=phi_relu())),
        ("implicit", dict(backend="implicit", fp_tol=1e-12)),
        ("eignn", dict(backend="eignn", mu=0.6, eps_f=0.2, fp_tol=1e-12)),
    ]
    for t in range(trials):
        tag, overrides = backends[t % len(backends)]
        n = int(rng.integers(6, 14))
        g = _random_graph(rng, n)
        x = rng.normal(size=(n, 3))
        labels = rng.integers(0, 2, size=n)
        cfg = ModelConfig(embed_dim=3, n_classes=2, kind=LaplacianKind.SELF_LOOP_SYM,
                          **overrides)
        model = Model(3, cfg, seed=seed + t, g=g)
        if tag == "unrolled-relu" and min_preactivation_margin(model, g, x) < 1e-3:
            records.append({"suite": "gradients", "backend": tag, "trial": t,
                            "ok": True, "skipped": "kink margin", "seed": seed})
            continue
        if inject_failure:
            orig = model.backward

            def corrupted(cache, d_logits, _orig=orig):
                grads = _orig(cache, d_logits)
                first = next(iter(grads))
                grads[first] = grads[first] + 0.1
                return grads

            model.backward = corrupted
        report = finite_difference_check(model, g, x, labels, np.arange(n))
        records.append({"suite": "gradients", "backend": tag, "trial": t,
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
