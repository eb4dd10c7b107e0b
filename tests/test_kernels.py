"""The CSR products against an edge-by-edge reference.

The reference below loops over the edges one at a time and takes its
incidence scales from the degrees, so it checks both the graph's cached
incidence matrices and the products built on them.
"""

import sys
import threading

import numpy as np
import pytest

from unfoldgnn import _kernels
from unfoldgnn.energy import EnergySpec, rho_log
from unfoldgnn.graph import LaplacianKind, build_graph, incidence
from unfoldgnn.unfold import PropagationConfig, propagate


def loop_diff(y, eu, ev, su, sv):
    out = np.zeros((eu.shape[0], y.shape[1]))
    for k in range(eu.shape[0]):
        out[k] = su[k] * y[eu[k]] - sv[k] * y[ev[k]]
    return out


def loop_scatter(e, eu, ev, su, sv, n):
    out = np.zeros((n, e.shape[1]))
    for k in range(eu.shape[0]):
        out[eu[k]] += su[k] * e[k]
        out[ev[k]] -= sv[k] * e[k]
    return out


def loop_weighted_adj(y, gamma, eu, ev, n):
    out = np.zeros((n, y.shape[1]))
    for k in range(eu.shape[0]):
        out[eu[k]] += gamma[k] * y[ev[k]]
        out[ev[k]] += gamma[k] * y[eu[k]]
    return out


def reference_scales(g, kind):
    """Per-node incidence scale of each kind, from the degrees."""
    deg = g.degrees
    if kind is LaplacianKind.COMBINATORIAL:
        return np.ones(g.n)
    if kind is LaplacianKind.SYM_NORMALIZED:
        return np.array([1.0 / np.sqrt(x) if x > 0 else 0.0 for x in deg])
    return 1.0 / np.sqrt(deg + 1.0)


GRAPHS = {
    # nodes 7 and 8 are isolated
    "isolated": (9, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 6), (1, 5)]),
    "dense": (12, [(i, j) for i in range(12) for j in range(i + 1, 12) if (3 * i + j) % 4 == 0]),
    "no-edges": (5, []),
}


@pytest.mark.parametrize("d", [1, 4])
@pytest.mark.parametrize("graph", sorted(GRAPHS))
@pytest.mark.parametrize("kind", list(LaplacianKind), ids=lambda k: k.name)
def test_csr_products_match_edge_loop(kind, graph, d):
    n, pairs = GRAPHS[graph]
    g = build_graph(n, pairs)
    view = incidence(g, kind)
    eu, ev = g.edges[:, 0], g.edges[:, 1]
    s = reference_scales(g, kind)
    su, sv = s[eu], s[ev]
    ones = np.ones(g.m)
    rng = np.random.default_rng(7)
    y = rng.normal(size=(n, d))
    e = rng.normal(size=(g.m, d))
    gamma = rng.random(g.m)
    w = rng.normal(size=(d, d))

    diff = loop_diff(y, eu, ev, su, sv)
    raw_diff = loop_diff(y, eu, ev, ones, ones)
    np.testing.assert_allclose(view.apply(y), diff, rtol=1e-13, atol=1e-14)
    np.testing.assert_allclose(view.raw.apply(y), raw_diff, rtol=1e-13, atol=1e-14)
    np.testing.assert_allclose(view.apply_t(e), loop_scatter(e, eu, ev, su, sv, n),
                               rtol=1e-13, atol=1e-14)
    np.testing.assert_allclose(view.raw.apply_t(e), loop_scatter(e, eu, ev, ones, ones, n),
                               rtol=1e-13, atol=1e-14)
    np.testing.assert_allclose(
        _kernels.weighted_lap_apply(view.apply(y), gamma, view.bt),
        loop_scatter(gamma[:, None] * diff, eu, ev, su, sv, n), rtol=1e-13, atol=1e-14)
    np.testing.assert_allclose(_kernels.edge_sqnorm(view.apply(y)), (diff ** 2).sum(axis=1),
                               rtol=1e-13, atol=1e-14)
    np.testing.assert_allclose(_kernels.edge_sqnorm(view.raw.apply(y)),
                               (raw_diff ** 2).sum(axis=1), rtol=1e-13, atol=1e-14)
    np.testing.assert_allclose(_kernels.edge_quadform(view.apply(y), w),
                               [row @ w @ row for row in diff], rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(_kernels.weighted_adj_apply(y, gamma, eu, ev, n),
                               loop_weighted_adj(y, gamma, eu, ev, n), rtol=1e-13, atol=1e-14)
    np.testing.assert_allclose(
        _kernels.weighted_lap_apply(view.raw.apply(y), gamma, view.raw.bt),
        loop_scatter(gamma[:, None] * raw_diff, eu, ev, ones, ones, n), rtol=1e-13, atol=1e-14)
    assert (view.raw is view) == (kind is LaplacianKind.COMBINATORIAL)
    assert view.raw.raw is view.raw
    for got in (view.apply(y), view.apply_t(e),
                _kernels.weighted_lap_apply(view.apply(y), gamma, view.bt)):
        assert isinstance(got, np.ndarray)


def test_quadform_reduces_to_sqnorm_for_identity_weight():
    rng = np.random.default_rng(1)
    g = build_graph(10, rng.integers(0, 10, size=(20, 2)))
    view = incidence(g, LaplacianKind.SELF_LOOP_SYM)
    y = rng.normal(size=(10, 3))
    np.testing.assert_allclose(
        _kernels.edge_quadform(view.apply(y), np.eye(3)),
        _kernels.edge_sqnorm(view.apply(y)),
        atol=1e-12,
    )


def test_op_counter_scales_linearly_in_edges():
    rng = np.random.default_rng(2)
    g = build_graph(30, np.array([(i, (i + 1 + j) % 30) for i in range(20) for j in range(2)]))
    g2 = build_graph(30, np.array([(i, (i + 1 + j) % 30) for i in range(20) for j in range(4)]))
    assert g2.m == 2 * g.m
    y = rng.normal(size=(30, 5))
    view = incidence(g, LaplacianKind.COMBINATORIAL)
    before = _kernels.op_counter()["edge"]
    _kernels.weighted_lap_apply(view.apply(y), rng.random(g.m), view.bt)
    single = _kernels.op_counter()["edge"] - before
    view2 = incidence(g2, LaplacianKind.COMBINATORIAL)
    before = _kernels.op_counter()["edge"]
    _kernels.weighted_lap_apply(view2.apply(y), rng.random(g2.m), view2.bt)
    double = _kernels.op_counter()["edge"] - before
    assert double == 2 * single


def run_in_threads(fn, count):
    """fn() in ``count`` threads released together, with the interpreter
    switching threads often; their results in order."""
    results = [None] * count
    start = threading.Barrier(count)

    def work(i):
        start.wait(timeout=60)
        results[i] = fn()

    threads = [threading.Thread(target=work, args=(i,)) for i in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(r is not None for r in results)
    return results


def counted_propagate():
    rng = np.random.default_rng(3)
    g = build_graph(2000, rng.integers(0, 2000, size=(8000, 2)))
    fx = rng.normal(size=(2000, 4))
    spec = EnergySpec(rho=rho_log(eps=0.5), lam=1.5)
    cfg = PropagationConfig(steps=40, alpha="auto_irls", attention_schedule=tuple(range(40)))
    return lambda: propagate(spec, g, fx, cfg).ops


def test_op_counter_ignores_other_threads():
    run = counted_propagate()
    before = _kernels.op_counter()
    ops = run_in_threads(run, 1)[0]
    assert ops["edge"] > 0
    assert _kernels.op_counter() == before


def test_concurrent_propagates_each_count_their_own_ops():
    run = counted_propagate()
    single = run()
    for ops in run_in_threads(run, 3):
        assert ops == single
