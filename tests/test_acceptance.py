"""Acceptance suite: one test per shipped guarantee, each printing a
pass line with the measured quantity.  Run with ``pytest -s`` to see
the lines as they go.

The graph-dependent criteria generate their instances from fixed seeds,
so every number here is reproducible bit for bit.
"""

import os
import time

import numpy as np
import pytest
import scipy.sparse.csgraph as csgraph

from unfoldgnn.data import SbmSpec, load_dataset, sbm_generate
from unfoldgnn.energy import (
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
from unfoldgnn.equivalence import (
    embed_gcn,
    symmetrize_linear,
    verify_gcn_equivalence,
    verify_linear_equivalence,
)
from unfoldgnn.experiments import run_experiment
from unfoldgnn.graph import LaplacianKind, build_graph, propagation_matrix
from unfoldgnn.implicit import FixedPointConfig, fixed_point_solve, project_weights
from unfoldgnn.model import (
    Model,
    ModelConfig,
    TrainConfig,
    finite_difference_check,
    min_preactivation_margin,
    train,
)
from unfoldgnn.unfold import (
    PropagationConfig,
    closed_form_solution,
    propagate,
    step_size_bound,
    verify_descent,
)

COMB = LaplacianKind.COMBINATORIAL
SELF = LaplacianKind.SELF_LOOP_SYM


def announce(number, name, detail):
    print(f"[acceptance] {number:>2} {name}: PASS ({detail})")


def random_graph(rng, n, p=0.3):
    mask = np.triu(rng.random((n, n)) < p, k=1)
    pairs = np.argwhere(mask)
    if pairs.shape[0] == 0:
        pairs = np.array([[0, 1]])
    return build_graph(n, pairs)


def random_psd(rng, d):
    a = rng.normal(size=(d, d))
    return a @ a.T / d + 0.05 * np.eye(d)


def real_spectrum_asymmetric(rng, d, p_op, margin=0.8):
    basis = rng.normal(size=(d, d)) + 2.0 * np.eye(d)
    diag = np.diag(np.linspace(-1.0, 1.0, d) + 0.05 * rng.normal(size=d))
    w = basis @ diag @ np.linalg.inv(basis)
    return project_weights(w, p_op, margin=margin)


def test_01_closed_form_convergence():
    rng = np.random.default_rng(101)
    g = random_graph(rng, 50, p=0.15)
    fx = rng.normal(size=(50, 8))
    spec = EnergySpec(lam=1.0, kind=COMB)
    # build the cached operators and step bound first, so the timing reflects the layers
    propagate(spec, g, fx, PropagationConfig(steps=1, alpha="auto", record_trace=False))
    target = closed_form_solution(g, fx, 1.0, COMB)
    start = time.perf_counter()
    out = propagate(spec, g, fx, PropagationConfig(steps=500, alpha="auto",
                                                   record_trace=False))
    elapsed = time.perf_counter() - start
    rel = np.linalg.norm(out.y - target) / np.linalg.norm(target)
    assert rel < 1e-6
    assert elapsed < 1.0
    announce(1, "closed-form convergence", f"rel_error={rel:.2e}, {elapsed:.2f}s")


def test_02_energy_descent_safe_step():
    rng = np.random.default_rng(102)
    menu = [rho_identity(), rho_log(eps=0.5), rho_truncated_quadratic(tau=1.0),
            rho_truncated_lp(p=0.5, tau=0.3, big_t=2.0)]
    start = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(5, 28))
        d = int(rng.integers(1, 6))
        g = random_graph(rng, n)
        spec = EnergySpec(
            rho=menu[trial % len(menu)],
            phi=phi_relu() if trial % 2 else phi_zero(),
            simple=False,
            w_fid=random_psd(rng, d),
            w_prop=random_psd(rng, d),
        )
        fx = rng.normal(size=(n, d))
        alpha = step_size_bound(spec, g)
        out = propagate(spec, g, fx, PropagationConfig(
            steps=25, alpha=alpha, attention_schedule=tuple(range(25))))
        report = verify_descent(out, slack=1e-9)
        assert report["ok"], f"trial {trial}: {report}"
        worst = max(worst, report["max_increase"])
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    announce(2, "energy descent at the safe step size",
             f"100 instances, max increase {worst:.1e}, {elapsed:.1f}s")


def test_03_reweighted_descent_per_step_bound():
    rng = np.random.default_rng(103)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(6, 24))
        g = random_graph(rng, n)
        rho = rho_log(eps=0.3) if trial % 2 else rho_truncated_lp(p=0.5, tau=0.3, big_t=2.0)
        spec = EnergySpec(rho=rho, lam=float(rng.uniform(0.5, 2.5)), kind=COMB)
        fx = 2.0 * rng.normal(size=(n, int(rng.integers(1, 4))))
        out = propagate(spec, g, fx, PropagationConfig(
            steps=30, alpha="auto_irls", attention_schedule=tuple(range(30))))
        report = verify_descent(out, slack=1e-9)
        assert report["ok"], f"trial {trial}: {report}"
        worst = max(worst, report["max_increase"])
    announce(3, "reweighted descent with per-step bound",
             f"50 instances, max increase {worst:.1e}")


def test_04_fixed_point_uniqueness_and_contraction():
    rng = np.random.default_rng(104)
    worst_gap = 0.0
    for trial in range(20):
        n = int(rng.integers(8, 24))
        d = int(rng.integers(2, 5))
        g = random_graph(rng, n)
        p_op = propagation_matrix(g, SELF)
        w = project_weights(rng.normal(size=(d, d)), p_op, margin=0.9)
        fx = rng.normal(size=(n, d))
        cfg = FixedPointConfig(sigma=phi_relu(), tol=1e-10)
        a = fixed_point_solve(g, w, fx, cfg, y0=rng.normal(size=(n, d)))
        b = fixed_point_solve(g, w, fx, cfg, y0=rng.normal(size=(n, d)))
        gap = np.linalg.norm(a.y - b.y)
        assert gap < 1e-7
        worst_gap = max(worst_gap, gap)
        resid = a.residual_trace
        for k in range(3, resid.size - 1):
            assert resid[k + 1] <= 0.95 * max(resid[k], cfg.tol)
    announce(4, "fixed-point uniqueness and geometric contraction",
             f"20 instances, max init gap {worst_gap:.1e}")


def test_05_unfolded_and_implicit_fixed_points_agree():
    rng = np.random.default_rng(105)
    phis = [phi_zero(), phi_relu(), phi_soft_threshold(0.05)]
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(8, 16))
        d = int(rng.integers(2, 5))
        g = random_graph(rng, n)
        p_dense = propagation_matrix(g, SELF).toarray()
        a = rng.normal(size=(d, d))
        w_sym = project_weights(a + a.T, p_dense, margin=0.8)
        phi = phis[trial % len(phis)]
        spec = from_symmetric_pair(w_sym, np.eye(d) - w_sym, phi=phi, kind=SELF,
                                   gradient_mode="literal")
        fx = rng.normal(size=(n, d))
        ugnn = propagate(spec, g, fx, PropagationConfig(steps=400, alpha=1.0,
                                                        record_trace=False))
        ignn = fixed_point_solve(g, w_sym, fx, FixedPointConfig(sigma=phi, tol=1e-12))
        diff = np.linalg.norm(ugnn.y - ignn.y)
        assert diff < 1e-6, f"trial {trial}: {diff}"
        worst = max(worst, diff)
    announce(5, "unfolded/implicit fixed-point agreement",
             f"20 instances, max diff {worst:.1e}")


def test_06_gradients_match_finite_differences():
    rng = np.random.default_rng(106)
    start = time.perf_counter()
    worst = 0.0
    configs = [
        ("implicit-id", dict(backend="implicit", fp_tol=1e-12)),
        ("implicit-relu", dict(backend="implicit", fp_tol=1e-12, sigma=phi_relu())),
        ("unrolled-zero", dict(backend="unrolled", steps=4, alpha=0.15)),
        ("unrolled-relu", dict(backend="unrolled", steps=4, alpha=0.15, phi=phi_relu())),
    ]
    checked = 0
    for trial in range(20):
        tag, overrides = configs[trial % len(configs)]
        n = int(rng.integers(8, 17))
        d = int(rng.integers(2, 5))
        g = random_graph(rng, n)
        x = rng.normal(size=(n, 3))
        labels = rng.integers(0, 2, size=n)
        cfg = ModelConfig(embed_dim=d, n_classes=2, kind=SELF, **overrides)
        model = Model(3, cfg, seed=trial, g=g)
        if tag == "unrolled-relu" and min_preactivation_margin(model, g, x) < 1e-3:
            continue
        report = finite_difference_check(model, g, x, labels, np.arange(n),
                                         delta=1e-5, rel_tol=1e-4)
        assert report["ok"], f"{tag} trial {trial}: {report['max_rel_err']:.2e}"
        worst = max(worst, report["max_rel_err"])
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert checked >= 16
    announce(6, "implicit and unrolled gradients vs finite differences",
             f"{checked} instances, max rel err {worst:.1e}, {elapsed:.1f}s")


def test_07_layer_stack_embedding_exact():
    rng = np.random.default_rng(107)
    worst = 0.0
    for trial in range(12):
        k_layers = int(rng.integers(1, 5))
        residual = bool(trial % 2)
        g = random_graph(rng, int(rng.integers(6, 12)))
        width = int(rng.integers(2, 5))
        widths = [width] * (k_layers + 1) if residual else \
            [int(rng.integers(2, 5)) for _ in range(k_layers + 1)]
        layers = [0.6 * rng.normal(size=(widths[i], widths[i + 1]))
                  for i in range(k_layers)]
        emb = embed_gcn(layers, residual=residual, sigma=phi_relu())
        y0 = rng.normal(size=(g.n, widths[0]))
        report = verify_gcn_equivalence(emb, g, y0, steps=k_layers, layers=layers)
        assert report["ok"], report
        worst = max(worst, max(report["per_layer_max_diff"]))
    announce(7, "block-symmetric embedding of layer stacks",
             f"12 stacks (K<=4, with/without residual), max diff {worst:.1e}")


def test_08_symmetric_representation_of_asymmetric_weights():
    rng = np.random.default_rng(108)
    worst_resid = 0.0
    drift_checks = 0
    for trial in range(50):
        d = int(rng.integers(2, 7))
        g = random_graph(rng, int(rng.integers(6, 14)))
        p_dense = propagation_matrix(g, SELF).toarray()
        w = real_spectrum_asymmetric(rng, d, p_dense)
        x = rng.normal(size=(g.n, 3))
        w_x = rng.normal(size=(3, d))
        rep = symmetrize_linear(w, g, w_x, x, eps=0.0)
        report = verify_linear_equivalence(rep, g, x, w_p=w, w_x=w_x)
        assert report["residual"] < 1e-6
        assert rep.symmetry_defect < 1e-12
        worst_resid = max(worst_resid, report["residual"])
        if trial % 10 == 0:
            drifts = []
            for eps in (1e-2, 1e-4, 1e-6):
                rep_eps = symmetrize_linear(w, g, w_x, x, eps=eps, seed=trial)
                rpt = verify_linear_equivalence(rep_eps, g, x, w_p=w, w_x=w_x)
                assert rpt["residual"] < 1e-6
                drifts.append(rpt["drift"])
            assert drifts[1] < 10 * drifts[0]
            assert drifts[2] < 10 * drifts[1]
            drift_checks += 1
    announce(8, "symmetric representation of asymmetric fixed points",
             f"50 weights, max residual {worst_resid:.1e}, "
             f"{drift_checks} jitter ladders monotone within 10x")


def test_09_oversmoothing_contrast():
    ds = sbm_generate(SbmSpec(blocks=(50, 50), p_in=0.5, p_out=0.1,
                              feature_dim=8, separation=1.5, seed=109))
    g = ds.graph
    n_comp, _ = csgraph.connected_components(g.adjacency, directed=False)
    assert n_comp == 1  # the contrast needs a connected graph
    p_op = propagation_matrix(g, SELF)
    scale = 1.0 / np.sqrt(g.degrees + 1.0)

    def spread(y):
        z = y * scale[:, None]
        diffs = z[:, None, :] - z[None, :, :]
        return np.sqrt((diffs ** 2).sum(axis=2)).max()

    y = ds.x.copy()
    for _ in range(512):
        y = p_op @ y
    collapse = spread(y) / spread(ds.x)
    assert collapse < 1e-6
    spec = EnergySpec(lam=1.0, kind=SELF)
    out = propagate(spec, g, ds.x, PropagationConfig(steps=512, alpha="auto",
                                                     record_trace=False))
    target = closed_form_solution(g, ds.x, 1.0, SELF)
    rel = np.linalg.norm(out.y - target) / np.linalg.norm(target)
    anchored = spread(out.y) / spread(ds.x)
    assert rel < 1e-6
    assert anchored > 1e-3
    announce(9, "oversmoothing contrast at depth 512",
             f"pure spread ratio {collapse:.1e}, anchored rel_err {rel:.1e}, "
             f"anchored spread ratio {anchored:.2f}")


def test_10_attention_robustness(attention_robustness):
    summary = attention_robustness(0)
    lp = summary["truncated_lp"]
    base = summary["identity"]
    ratio = lp["gamma_spurious"] / lp["gamma_clean"]
    gap = lp["test_acc"] - base["test_acc"]
    assert ratio < 0.5
    assert gap >= 0.05
    announce(10, "edge-injection robustness",
             f"gamma ratio {ratio:.2f}, accuracy gap +{gap:.3f}")


def test_11_citation_benchmark_band():
    directory = os.environ.get("UNFOLD_CORA_DIR", "")
    if not directory or not os.path.isdir(directory):
        pytest.skip("citation dataset not supplied (set UNFOLD_CORA_DIR); "
                    "criterion is conditional, skipped rather than failed")
    ds = load_dataset(directory)
    n_classes = int(ds.labels.max()) + 1
    cfg = ModelConfig(backend="unrolled", steps=16, lam=1.0, embed_dim=64,
                      n_classes=n_classes, predictor="mlp", hidden=(64,),
                      activation="relu", dropout=0.5, variant="normalized",
                      kind=SELF)
    start = time.perf_counter()
    _, metrics = train(ds.graph, ds.x, ds.labels, ds.masks, cfg,
                       TrainConfig(epochs=200, lr=0.2, seed=0))
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    assert metrics.test_acc_at_best >= 0.80
    announce(11, "citation benchmark band",
             f"test acc {metrics.test_acc_at_best:.3f} in {elapsed:.0f}s")


def test_12_complexity_accounting(tmp_path):
    # depths deep enough that per-call setup is amortized out of the timing
    sizes = ((50000, 8, 8, 64), (50000, 8, 8, 128), (100000, 8, 8, 64))
    summary = run_experiment("bench-time", str(tmp_path), seed=0,
                             sizes=sizes, repeats=5)
    rows = summary["rows"]
    keys = sorted(rows, key=lambda k: (k[0], k[3]))
    base, twice_k, twice_n = (rows[k] for k in keys)
    flop_ratio_k = twice_k["edge_flops"] / base["edge_flops"]
    m_ratio = keys[2][1] / keys[0][1]
    flop_ratio_m = twice_n["edge_flops"] / base["edge_flops"]
    assert abs(flop_ratio_k - 2.0) <= 0.05 * 2.0
    assert abs(flop_ratio_m - m_ratio) <= 0.05 * m_ratio
    wall_ratio_k = twice_k["seconds"] / base["seconds"]
    assert 1.6 <= wall_ratio_k <= 2.4, (
        f"median wall {twice_k['seconds']:.4f} s at K={keys[1][3]} over "
        f"{base['seconds']:.4f} s at K={keys[0][3]}: ratio {wall_ratio_k:.3f}, "
        f"load average {os.getloadavg()}")
    announce(12, "complexity accounting",
             f"flops x{flop_ratio_k:.3f} for 2x depth (wall x{wall_ratio_k:.2f}), "
             f"flops x{flop_ratio_m:.3f} for {m_ratio:.2f}x edges")
