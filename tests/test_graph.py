import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from unfoldgnn import _kernels
from unfoldgnn import graph as graph_module
from unfoldgnn import implicit, unfold
from unfoldgnn.data import SbmSpec, sbm_generate
from unfoldgnn.energy import EnergySpec, phi_relu, rho_truncated_lp
from unfoldgnn.graph import (
    MAX_NODES,
    GraphError,
    LaplacianKind,
    build_graph,
    edge_keys,
    homophily_ratio,
    incidence,
    propagation_matrix,
    read_edge_list,
    spectral_norm,
    write_edge_list,
)
from unfoldgnn.model import ModelConfig, TrainConfig, train
from unfoldgnn.unfold import PropagationConfig, propagate, sandwich_schedule

ALL_KINDS = list(LaplacianKind)


def random_graph(rng, n, p=0.3):
    mask = np.triu(rng.random((n, n)) < p, k=1)
    pairs = np.argwhere(mask)
    return build_graph(n, pairs)


class TestBuildGraph:
    def test_single_edge(self):
        g = build_graph(2, [(0, 1)])
        assert g.m == 1
        assert g.degrees.tolist() == [1, 1]

    def test_dedup(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 1)])
        assert g.m == 2

    def test_dedup_reversed_orientation(self):
        g = build_graph(3, [(1, 0), (0, 1)])
        assert g.m == 1
        assert g.edges.tolist() == [[0, 1]]

    def test_out_of_range(self):
        with pytest.raises(GraphError, match="out of range"):
            build_graph(3, [(0, 3)])

    def test_self_loop_stripped_by_default(self):
        g = build_graph(3, [(0, 0), (0, 1)])
        assert g.m == 1

    def test_only_self_loops_give_empty_graph(self):
        g = build_graph(3, [(0, 0), (2, 2)])
        assert g.m == 0
        assert g.edges.shape == (0, 2)
        assert g.adjacency.nnz == 0

    def test_duplicates_keep_unit_weights(self):
        g = build_graph(3, [(2, 1), (1, 2), (0, 0), (1, 2), (0, 2), (2, 0)])
        assert g.edges.tolist() == [[0, 2], [1, 2]]
        assert g.adjacency.data.tolist() == [1.0] * 4
        assert g.degrees.tolist() == [1, 1, 2]

    def test_adjacency_symmetric(self):
        g = random_graph(np.random.default_rng(0), 20)
        assert (g.adjacency != g.adjacency.T).nnz == 0


def build_graph_on_rows(n, edge_pairs):
    """Reference: the canonical pairs deduplicated as (lo, hi) rows with
    np.unique(axis=0), then the same symmetric CSR adjacency."""
    pairs = np.asarray(edge_pairs, dtype=np.int64).reshape(-1, 2)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    pairs = np.stack([pairs.min(axis=1), pairs.max(axis=1)], axis=1)
    if pairs.shape[0]:
        pairs = np.unique(pairs, axis=0)
    adj = sp.csr_matrix((n, n))
    if pairs.shape[0]:
        ones = np.ones(pairs.shape[0])
        adj = sp.csr_matrix((np.concatenate([ones, ones]),
                             (np.concatenate([pairs[:, 0], pairs[:, 1]]),
                              np.concatenate([pairs[:, 1], pairs[:, 0]]))), shape=(n, n))
    return pairs, adj


class TestEdgeKeys:
    """build_graph sorts and deduplicates the pairs as int64 keys."""

    @pytest.mark.parametrize("n", [1, 2, 7, 5000])
    @pytest.mark.parametrize("draw", range(4))
    def test_matches_deduplication_on_rows(self, n, draw):
        # draws of 4n pairs over n nodes with both orientations, self-loops
        # and, on the small graphs, many repeats; draw 3 repeats whole rows
        rng = np.random.default_rng([n, draw])
        pairs = rng.integers(0, n, size=(4 * n, 2))
        if draw == 3:
            pairs = np.concatenate([pairs, pairs[::-1, ::-1], np.stack([pairs[:, 0]] * 2, axis=1)])
        g = build_graph(n, pairs)
        want_edges, want_adj = build_graph_on_rows(n, pairs)
        assert g.edges.dtype == want_edges.dtype
        np.testing.assert_array_equal(g.edges, want_edges)
        for name in ("data", "indices", "indptr"):
            got, want = getattr(g.adjacency, name), getattr(want_adj, name)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_keys_sort_like_rows_up_to_the_bound(self):
        n = MAX_NODES
        lo = np.array([0, 0, 1, n - 2, n - 1], dtype=np.int64)
        hi = np.array([1, n - 1, 0, n - 1, n - 1], dtype=np.int64)
        keys = edge_keys(n, lo, hi)
        assert int(keys[-1]) == n * n - 1 <= np.iinfo(np.int64).max
        assert (np.diff(keys) > 0).all()
        np.testing.assert_array_equal(np.stack(np.divmod(keys, n)), [lo, hi])

    def test_node_count_beyond_the_bound_rejected_before_any_allocation(self):
        # an adjacency with 2**32 rows would need a 32 GB indptr: the key
        # check must fire first
        assert MAX_NODES == 3_037_000_499
        with pytest.raises(GraphError, match="overflow int64"):
            build_graph(2 ** 32, [(0, 1)])
        with pytest.raises(GraphError, match="overflow int64"):
            edge_keys(MAX_NODES + 1, np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64))


class TestLaplacian:
    def test_path_combinatorial(self):
        g = build_graph(2, [(0, 1)])
        lap = g.operators(LaplacianKind.COMBINATORIAL).laplacian.toarray()
        np.testing.assert_allclose(lap, [[1, -1], [-1, 1]])

    def test_triangle_combinatorial(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        lap = g.operators(LaplacianKind.COMBINATORIAL).laplacian.toarray()
        np.testing.assert_allclose(lap, 2 * np.eye(3) - (np.ones((3, 3)) - np.eye(3)))

    def test_path_sym_normalized(self):
        # degree-1 endpoints: dense evaluation of I - D^-1/2 A D^-1/2
        g = build_graph(2, [(0, 1)])
        lap = g.operators(LaplacianKind.SYM_NORMALIZED).laplacian.toarray()
        np.testing.assert_allclose(lap, [[1, -1], [-1, 1]])

    def test_combinatorial_rows_sum_to_zero(self):
        g = random_graph(np.random.default_rng(1), 15)
        lap = g.operators(LaplacianKind.COMBINATORIAL).laplacian
        np.testing.assert_allclose(np.asarray(lap.sum(axis=1)).ravel(), 0, atol=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_psd_against_dense_eigendecomposition(self, kind):
        rng = np.random.default_rng(2)
        for n in (5, 17, 64):
            g = random_graph(rng, n, p=0.15)
            lap = g.operators(kind).laplacian.toarray()
            np.testing.assert_allclose(lap, lap.T, atol=1e-14)
            assert np.linalg.eigvalsh(lap).min() >= -1e-10

    def test_isolated_node_conventions(self):
        g = build_graph(3, [(0, 1)])  # node 2 isolated
        for kind in ALL_KINDS:
            lap = g.operators(kind).laplacian.toarray()
            np.testing.assert_array_equal(lap[2], 0)
            np.testing.assert_array_equal(lap[:, 2], 0)
            prop = propagation_matrix(g, kind).toarray()
            np.testing.assert_array_equal(prop[2], [0, 0, 1])


class TestIncidence:
    def test_path_sign_convention(self):
        g = build_graph(2, [(0, 1)])
        b = incidence(g, LaplacianKind.COMBINATORIAL).b.toarray()
        np.testing.assert_allclose(b, [[1, -1]])

    def test_empty_edge_set(self):
        g = build_graph(3, [])
        view = incidence(g, LaplacianKind.COMBINATORIAL)
        assert view.n_edge_rows == 0
        btb = (view.b.T @ view.b).toarray()
        np.testing.assert_allclose(btb, np.zeros((3, 3)))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_btb_matches_laplacian(self, kind):
        rng = np.random.default_rng(3)
        for n in (4, 12, 30):
            g = random_graph(rng, n, p=0.25)
            b = incidence(g, kind).b
            lap = g.operators(kind).laplacian.toarray()
            np.testing.assert_allclose((b.T @ b).toarray(), lap, atol=1e-12)

    def test_btb_matches_laplacian_with_isolated_node(self):
        g = build_graph(4, [(0, 1), (1, 2)])
        for kind in ALL_KINDS:
            b = incidence(g, kind).b
            np.testing.assert_allclose(
                (b.T @ b).toarray(), g.operators(kind).laplacian.toarray(), atol=1e-12
            )

    def test_apply_matches_matrix(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, 12, p=0.3)
        y = rng.normal(size=(12, 3))
        view = incidence(g, LaplacianKind.SELF_LOOP_SYM)
        b = view.b.toarray()
        np.testing.assert_allclose(view.apply(y), b @ y, atol=1e-12)
        e = rng.normal(size=(view.n_edge_rows, 3))
        np.testing.assert_allclose(view.apply_t(e), b.T @ e, atol=1e-12)
        gamma = rng.random(view.n_edge_rows)
        np.testing.assert_allclose(_kernels.weighted_lap_apply(view.apply(y), gamma, view.bt),
                                   b.T @ (gamma[:, None] * (b @ y)), atol=1e-12)


def _adjacency_laplacian(g, kind):
    """The Laplacian as sparse algebra on the CSR adjacency, frozen from
    the construction that the incidence-view assembly replaced, to pin
    that assembly byte for byte."""
    lo, hi = g.edges[:, 0], g.edges[:, 1]
    ones = np.ones(g.m)
    adj = sp.csr_matrix((np.concatenate([ones, ones]),
                         (np.concatenate([lo, hi]), np.concatenate([hi, lo]))), shape=(g.n, g.n))
    d = g.degrees
    eye = sp.identity(g.n, format="csr")

    def inv_sqrt(deg):
        out = np.zeros_like(deg, dtype=float)
        out[deg > 0] = 1.0 / np.sqrt(deg[deg > 0])
        return out

    if kind is LaplacianKind.COMBINATORIAL:
        lap = sp.diags(d) - adj
    elif kind is LaplacianKind.SYM_NORMALIZED:
        s = inv_sqrt(d)
        lap = sp.diags((d > 0).astype(float)) - sp.diags(s) @ adj @ sp.diags(s)
    else:
        s = inv_sqrt(d + 1.0)
        lap = eye - sp.diags(s) @ (adj + eye) @ sp.diags(s)
    return lap.tocsr()


def _random_pairs(n, p):
    return np.argwhere(np.triu(np.random.default_rng(n).random((n, n)) < p, k=1))


# n = 0, n = 1, an edgeless graph, a star with isolated nodes, seeded random graphs
PINNED_GRAPHS = {"n0": (0, []), "n1": (1, []), "edgeless": (5, []),
                 "star_plus_isolated": (9, [(0, leaf) for leaf in range(1, 6)]),
                 **{f"random{n}": (n, _random_pairs(n, p))
                    for n, p in ((2, 0.9), (30, 0.1), (80, 0.3), (200, 0.02))}}


def assert_same_csr(got, want):
    assert got.format == want.format == "csr" and got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestAssemblyPinnedToTheAdjacencyForm:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("name", PINNED_GRAPHS)
    def test_laplacian_and_propagation_byte_for_byte(self, kind, name):
        g = build_graph(*PINNED_GRAPHS[name])
        want = _adjacency_laplacian(g, kind)
        assert_same_csr(g.operators(kind).laplacian, want)
        assert_same_csr(propagation_matrix(g, kind),
                        (sp.identity(g.n, format="csr") - want).tocsr())
        assert "adjacency" not in vars(g._arrays)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_transpose_view_products_match_the_csr_copy_byte_for_byte(self, kind):
        rng = np.random.default_rng(42)
        g = build_graph(60, np.vstack([rng.integers(0, 55, size=(150, 2)), [(0, 1)]]))
        view = incidence(g, kind)
        e = rng.normal(size=(view.n_edge_rows, 5))
        e[:, 0] = 0.0
        e[::2, 1] = -0.0
        e[::7, 2] = np.nan
        e[1::3, 3] = 5e-324 * rng.integers(-3, 4, size=e[1::3, 3].shape)
        for v in (view, view.raw):
            assert v.bt.format == "csc"
            for cols in (e, e[:, 0], e[:, 1:2]):
                got, want = v.bt @ cols, v.b.T.tocsr() @ cols
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


class TestPropagationMatrix:
    def test_path_self_loop(self):
        g = build_graph(2, [(0, 1)])
        p = propagation_matrix(g, LaplacianKind.SELF_LOOP_SYM).toarray()
        np.testing.assert_allclose(p, [[0.5, 0.5], [0.5, 0.5]])

    def test_plus_laplacian_is_identity(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 18)
        for kind in ALL_KINDS:
            total = propagation_matrix(g, kind) + g.operators(kind).laplacian
            np.testing.assert_allclose(total.toarray(), np.eye(18), atol=1e-14)

    def test_combinatorial_row_sums_one(self):
        g = random_graph(np.random.default_rng(6), 10)
        p = propagation_matrix(g, LaplacianKind.COMBINATORIAL)
        np.testing.assert_allclose(np.asarray(p.sum(axis=1)).ravel(), 1.0, atol=1e-12)

    @pytest.mark.parametrize("n", [50, 300, 4000])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_stored_symmetric_so_products_match_the_transpose_bitwise(self, kind, n):
        """implicit_backward applies P where its adjoint reads P.T."""
        rng = np.random.default_rng(n)
        n_isolated = 5
        pairs = rng.integers(0, n - n_isolated, size=(3 * n, 2))
        g = build_graph(n, pairs)
        assert np.all(g.degrees[n - n_isolated:] == 0)
        p = propagation_matrix(g, kind)
        for row in np.split(p.indices, p.indptr[1:-1]):
            assert np.all(np.diff(row) > 0)
        pt = p.T.tocsr()
        pt.sort_indices()
        np.testing.assert_array_equal(pt.indptr, p.indptr)
        np.testing.assert_array_equal(pt.indices, p.indices)
        np.testing.assert_array_equal(pt.data, p.data)
        x = rng.normal(size=(n, 16))
        np.testing.assert_array_equal(p @ x, p.T @ x)

    @pytest.mark.parametrize("kind", [LaplacianKind.SYM_NORMALIZED, LaplacianKind.SELF_LOOP_SYM])
    def test_normalized_norm_at_most_one(self, kind):
        rng = np.random.default_rng(7)
        for _ in range(3):
            g = random_graph(rng, 25, p=0.2)
            assert spectral_norm(propagation_matrix(g, kind)) <= 1 + 1e-9


class TestOperatorCache:
    @pytest.fixture
    def norm_calls(self, monkeypatch):
        """The sparse operators of every norm solve, wherever it is called
        from."""
        calls = []
        original = graph_module.spectral_norm

        def counting(mat, *args, **kwargs):
            if sp.issparse(mat):
                calls.append(mat)
            return original(mat, *args, **kwargs)

        for module in (graph_module, implicit, unfold):
            monkeypatch.setattr(module, "spectral_norm", counting)
        return calls

    @staticmethod
    def sbm():
        return sbm_generate(SbmSpec(blocks=(30, 30), p_in=0.2, p_out=0.03,
                                    feature_dim=4, separation=2.0, seed=1))

    def test_build_graph_builds_no_operator(self):
        g = build_graph(4, [(0, 1), (1, 2)])
        assert vars(g._arrays).keys() == {"n", "edges"} and g._operators == {}
        incidence(g, LaplacianKind.COMBINATORIAL)
        assert list(g._operators) == [LaplacianKind.COMBINATORIAL]

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_engine_builds_no_adjacency_and_no_transpose_copy(self, kind):
        # the robust propagation of a cold graph (a refresh and an IRLS step
        # at every layer, and the energy trace), the operators, a
        # fixed-point solve and a short training run of each backend
        rng = np.random.default_rng(14)
        g = build_graph(50, rng.integers(0, 50, size=(200, 2)))
        spec = EnergySpec(rho=rho_truncated_lp(p=0.5, tau=0.3, big_t=2.0), phi=phi_relu(),
                          kind=kind)
        propagate(spec, g, rng.normal(size=(50, 3)), PropagationConfig(
            steps=4, alpha="auto_irls", attention_schedule=(0, 1, 2, 3)))
        g.operators(kind).laplacian, propagation_matrix(g, kind)
        w_p = implicit.project_weights(np.eye(3), g.operators(kind))
        implicit.fixed_point_solve(g, w_p, rng.normal(size=(50, 3)),
                                   implicit.FixedPointConfig(kind=kind))
        ds = self.sbm()
        # eignn's weight rule contracts only where ||P|| = 1
        backends = ("unrolled", "implicit") if kind is LaplacianKind.COMBINATORIAL \
            else ("unrolled", "implicit", "eignn")
        for backend in backends:
            cfg = ModelConfig(backend=backend, embed_dim=4, n_classes=2, steps=4, kind=kind,
                              rho=rho_truncated_lp(p=0.5, tau=0.3, big_t=2.0),
                              attention_schedule=sandwich_schedule(4))
            train(ds.graph, ds.x, ds.labels, ds.masks, cfg, TrainConfig(epochs=2, lr=0.1))
        for graph in (g, ds.graph):
            assert "adjacency" not in vars(graph._arrays)
            for ops in graph._operators.values():
                if "incidence" in vars(ops):
                    assert "bt" not in vars(ops.incidence)
                    assert "bt" not in vars(ops.incidence.raw)

    def test_adjacency_is_built_once_on_first_read(self):
        g = random_graph(np.random.default_rng(15), 12)
        adj = g.adjacency
        assert vars(g._arrays)["adjacency"] is adj
        assert g.adjacency is adj

    @pytest.mark.parametrize("n, pairs", [
        (0, []), (1, []), (5, []), (6, [(0, 1), (1, 2), (4, 1)]),
        (40, np.random.default_rng(16).integers(0, 40, size=(120, 2)))])
    def test_degrees_are_the_adjacency_row_sums_bitwise(self, n, pairs):
        # counted from the edges, on graphs whose adjacency is not built
        # yet, with isolated nodes and none at all
        g = build_graph(n, pairs)
        degrees = g.degrees
        assert "adjacency" not in vars(g._arrays)
        want = np.asarray(g.adjacency.sum(axis=1)).ravel()
        assert degrees.dtype == want.dtype and degrees.shape == want.shape == (n,)
        assert degrees.tobytes() == want.tobytes()

    def test_each_operator_is_built_once(self):
        g = random_graph(np.random.default_rng(11), 12)
        for kind in ALL_KINDS:
            assert g.operators(kind).laplacian is g.operators(kind).laplacian
            assert propagation_matrix(g, kind) is propagation_matrix(g, kind)
            assert incidence(g, kind) is incidence(g, kind)
            assert incidence(g, kind).b is incidence(g, kind).b
        assert g.degrees is g.degrees

    def test_unrolled_training_runs_laplacian_norm_once_per_graph_and_kind(self, norm_calls):
        ds = self.sbm()
        cfg = ModelConfig(backend="unrolled", embed_dim=4, n_classes=2, steps=6, alpha="auto",
                          rho=rho_truncated_lp(p=0.5, tau=0.3, big_t=2.0),
                          attention_schedule=sandwich_schedule(6))
        tcfg = TrainConfig(epochs=8, lr=0.1)
        train(ds.graph, ds.x, ds.labels, ds.masks, cfg, tcfg)
        assert norm_calls == [ds.graph.operators(cfg.kind).laplacian]
        train(ds.graph, ds.x, ds.labels, ds.masks, cfg, tcfg)
        assert len(norm_calls) == 1
        other = ModelConfig(backend="unrolled", embed_dim=4, n_classes=2, steps=6,
                            kind=LaplacianKind.COMBINATORIAL)
        train(ds.graph, ds.x, ds.labels, ds.masks, other, tcfg)
        assert norm_calls[1:] == [ds.graph.operators(LaplacianKind.COMBINATORIAL).laplacian]

    def test_implicit_training_computes_propagation_norm_once(self, norm_calls):
        ds = self.sbm()
        for kind in ALL_KINDS:
            cfg = ModelConfig(backend="implicit", embed_dim=4, n_classes=2, kind=kind)
            for _ in range(2):
                train(ds.graph, ds.x, ds.labels, ds.masks, cfg, TrainConfig(epochs=6, lr=0.1))
        # ||P|| = max(1, ||L|| - 1) under COMBINATORIAL reads the one
        # Laplacian solve, and the normalized kinds' ||P|| = 1 needs none
        assert norm_calls == [ds.graph.operators(LaplacianKind.COMBINATORIAL).laplacian]

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_fixed_point_training_builds_the_laplacian_only_under_combinatorial(self, kind):
        # P is assembled from L's entries without L, and the normalized
        # kinds' ||P|| = 1 needs no norm; under COMBINATORIAL ||P|| reads ||L||
        ds = self.sbm()
        backends = ("implicit",) if kind is LaplacianKind.COMBINATORIAL \
            else ("implicit", "eignn")
        for backend in backends:
            cfg = ModelConfig(backend=backend, embed_dim=4, n_classes=2, kind=kind)
            train(ds.graph, ds.x, ds.labels, ds.masks, cfg, TrainConfig(epochs=3, lr=0.1))
        ops = ds.graph.operators(kind)
        assert "propagation" in vars(ops)
        assert ("laplacian" in vars(ops)) == (kind is LaplacianKind.COMBINATORIAL)

    def test_dropped_graph_is_freed_without_the_cyclic_collector(self):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            g = random_graph(np.random.default_rng(12), 10)
            bundles = [g.operators(kind) for kind in ALL_KINDS]
            for ops in bundles:
                ops.incidence.bt, ops.laplacian_norm, ops.propagation_norm
            expected = g.operators(LaplacianKind.COMBINATORIAL).laplacian.toarray()
            ref = weakref.ref(g)
            del g
            assert ref() is None
            np.testing.assert_array_equal(bundles[0].laplacian.toarray(), expected)
        finally:
            if was_enabled:
                gc.enable()

    def test_dropped_incidence_views_are_freed_without_the_cyclic_collector(self):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            g = random_graph(np.random.default_rng(13), 10)
            views = [incidence(g, kind) for kind in ALL_KINDS]
            for view in views:
                view.bt, view.raw.bt
            refs = [weakref.ref(view) for view in views + [view.raw for view in views]]
            del g, view, views
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            if was_enabled:
                gc.enable()

    def test_equal_edge_lists_share_no_cache(self):
        pairs = [(0, 1), (1, 2), (2, 3)]
        g1, g2 = build_graph(4, pairs), build_graph(4, pairs)
        assert g1 != g2 and len({g1, g2}) == 2 and g1 == g1
        for kind in ALL_KINDS:
            assert g1.operators(kind).laplacian is not g2.operators(kind).laplacian
            assert incidence(g1, kind) is not incidence(g2, kind)
        assert g1.degrees is not g2.degrees

    @pytest.mark.filterwarnings("ignore::scipy.sparse.SparseEfficiencyWarning")
    def test_cached_arrays_are_read_only(self):
        g = build_graph(4, [(0, 1), (1, 2)])
        kind = LaplacianKind.SYM_NORMALIZED
        view = incidence(g, kind)
        lap_before = g.operators(kind).laplacian.toarray()
        arrays = [g.edges, g.degrees, g.adjacency.data, view.eu, view.su, view.raw.su]
        for mat in (g.operators(kind).laplacian, propagation_matrix(g, kind),
                    view.b, view.bt, view.raw.b, view.raw.bt):
            arrays += [mat.data, mat.indices, mat.indptr]
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
        for entry in ((0, 0), (0, 3)):  # stored, and not stored
            with pytest.raises(ValueError, match="read-only"):
                g.operators(kind).laplacian[entry] = 5.0
        np.testing.assert_array_equal(g.operators(kind).laplacian.toarray(), lap_before)
        assert g.degrees.tolist() == [1, 2, 1, 0]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown Laplacian kind"):
            build_graph(2, [(0, 1)]).operators("combinatorial")

    def test_kind_from_its_name(self):
        assert LaplacianKind("sym_normalized") is LaplacianKind.SYM_NORMALIZED
        with pytest.raises(ValueError, match="unknown laplacian kind 'bogus'"):
            LaplacianKind("bogus")


def _owner(arr):
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def _owned_buffers(obj):
    """The distinct memory-owning arrays reachable from obj through the
    attributes of the package's and scipy.sparse's objects."""
    seen, owners, stack = set(), {}, [obj]
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            owner = _owner(item)
            owners[id(owner)] = owner
        elif type(item).__module__.startswith(("unfoldgnn", "scipy.sparse")) \
                and hasattr(item, "__dict__"):
            stack.extend(vars(item).values())
    return list(owners.values())


class TestSharedIncidence:
    """Each graph stores one incidence index structure, and each view's
    scales only in its B."""

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
    def test_scales_are_views_of_b(self, kind):
        g = random_graph(np.random.default_rng(20), 15)
        view = incidence(g, kind)
        assert np.shares_memory(view.su, view.b.data)
        np.testing.assert_array_equal(view.su, view.b.data[0::2])

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
    def test_every_kind_shares_the_unit_index_arrays(self, kind):
        g = random_graph(np.random.default_rng(21), 15)
        view, unit = incidence(g, kind), incidence(g, LaplacianKind.COMBINATORIAL)
        assert view.raw is unit is g._arrays.incidence
        assert _owner(view.raw.b.indices) is _owner(view.b.indices)
        assert view.raw.b.indptr is view.b.indptr
        assert _owner(view.bt.indices) is _owner(view.b.indices)
        np.testing.assert_array_equal(unit.b.data, np.tile([1.0, -1.0], g.m))

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
    def test_views_and_their_owners_are_read_only(self, kind):
        g = random_graph(np.random.default_rng(22), 15)
        view = incidence(g, kind)
        arrays = [view.su, view.eu, view.ev]
        for b in (view.b, view.raw.b, view.bt):
            arrays += [b.data, b.indices, b.indptr]
        for arr in arrays + [_owner(arr) for arr in arrays]:
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0

    def test_bundle_holds_each_buffer_once(self):
        # nodes 55-59 are isolated; with B, the unit B, L and P built the
        # bundle owns: the int64 edges, the degrees and the scale; the unit
        # B's entries, int32 columns and row pointers; the scaled B's
        # entries; L's CSR; and P's, sized for its own nnz(P) entries
        g = build_graph(60, np.random.default_rng(23).integers(0, 55, size=(150, 2)))
        ops = g.operators(LaplacianKind.SELF_LOOP_SYM)
        ops.incidence.raw.b, ops.laplacian, ops.propagation
        n, m, nnz_l, nnz_p = g.n, g.m, ops.laplacian.nnz, ops.propagation.nnz
        want = (16 * m + 8 * n + 8 * n
                + 16 * m + 8 * m + 4 * (m + 1)
                + 16 * m
                + 12 * nnz_l + 4 * (n + 1)
                + 12 * nnz_p + 4 * (n + 1))
        assert sum(arr.nbytes for arr in _owned_buffers(ops)) == want


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(5)) == pytest.approx(1.0, abs=1e-8)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, abs=1e-7)

    def test_matches_dense_svd(self):
        rng = np.random.default_rng(8)
        dense = rng.normal(size=(20, 20)) * (rng.random((20, 20)) < 0.3)
        # with both sides from 64 up, the Lanczos solve: a multiple of the
        # identity breaks its recurrence down at step 1, a rank-one matrix
        # leaves it only rounding after step 2, and a tall and a wide one
        # take the Gram matrix of either side
        rank_one = np.outer(rng.normal(size=100) * (rng.random(100) < 0.5),
                            rng.normal(size=100) * (rng.random(100) < 0.5))
        wide = rng.normal(size=(70, 160)) * (rng.random((70, 160)) < 0.1)
        for mat in (dense, 3.0 * np.eye(100), rank_one, wide, wide.T):
            expected = np.linalg.svd(mat, compute_uv=False)[0]
            got = spectral_norm(sp.csr_matrix(mat))
            assert got == pytest.approx(expected, rel=1e-6)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        mat = rng.normal(size=(15, 15))
        assert spectral_norm(mat) == spectral_norm(mat)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((4, 4))) == 0.0

    def test_sparse_input_is_deterministic(self):
        g = random_graph(np.random.default_rng(10), 80, p=0.1)
        for kind in ALL_KINDS:
            lap = g.operators(kind).laplacian
            assert spectral_norm(lap) == spectral_norm(lap)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_operator_norms_match_eigvalsh(self, kind):
        rng = np.random.default_rng(13)
        isolated = build_graph(9, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (5, 6)])
        # the 200- and 300-node graphs go through the Lanczos solve: a star
        # (one hub row holds the top), a path (the top of its spectrum is
        # dense, so the solve is long) and an even cycle (bipartite, so its
        # SYM_NORMALIZED norm is exactly 2 and its spectrum has pairs)
        n = 200
        star = build_graph(n, [(0, i) for i in range(1, n)])
        path = build_graph(n, [(i, i + 1) for i in range(n - 1)])
        cycle = build_graph(n, [(i, (i + 1) % n) for i in range(n)])
        graphs = [random_graph(rng, 12), isolated, build_graph(5, []),
                  random_graph(rng, 300, p=0.02), star, path, cycle]
        for g in graphs:
            ops = g.operators(kind)
            for got, mat in ((ops.laplacian_norm, ops.laplacian),
                             (ops.propagation_norm, ops.propagation)):
                exact = np.abs(np.linalg.eigvalsh(mat.toarray())).max()
                assert got == pytest.approx(exact, rel=1e-10, abs=0.0)

    def test_sparse_solve_keeps_o_n_memory(self, traced_peak):
        # about 220 Lanczos steps: a stored basis would be 22x the bound
        rng = np.random.default_rng(17)
        n = 20_000
        g = build_graph(n, rng.integers(0, n, size=(4 * n, 2)))
        lap = g.operators(LaplacianKind.SELF_LOOP_SYM).laplacian
        assert traced_peak(spectral_norm, lap) < 10 * n * 8

    def test_sparse_solve_raises_past_its_step_cap(self, monkeypatch):
        # one step per dimension, and no read of the Ritz value before it
        monkeypatch.setattr(graph_module, "_LANCZOS_STEPS_PER_DIM", 1)
        monkeypatch.setattr(graph_module, "_LANCZOS_READ_EVERY", 10 ** 9)
        g = random_graph(np.random.default_rng(18), 80, p=0.1)
        lap = g.operators(LaplacianKind.COMBINATORIAL).laplacian
        with pytest.raises(RuntimeError, match="did not converge in 80 steps"):
            spectral_norm(lap)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_edgeless_graph_propagates_by_the_identity(self, kind):
        ops = build_graph(5, []).operators(kind)
        assert ops.propagation_norm == pytest.approx(1.0, rel=1e-12)
        assert ops.laplacian_norm == 0.0


class TestHomophily:
    def test_uniform_labels(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert homophily_ratio(g, [0, 0, 0]) == 1.0

    def test_alternating_path(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert homophily_ratio(g, [0, 1, 0]) == 0.0

    def test_four_cycle_half(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert homophily_ratio(g, [0, 0, 1, 1]) == 0.5

    def test_empty_edges_error(self):
        with pytest.raises(GraphError, match="undefined"):
            homophily_ratio(build_graph(3, []), [0, 1, 2])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(10)
        g = random_graph(rng, 30)
        labels = rng.integers(0, 3, size=30)
        brute = np.mean([labels[u] == labels[v] for u, v in g.edges])
        assert homophily_ratio(g, labels) == pytest.approx(brute)


class TestEdgeListFile:
    def test_roundtrip(self, tmp_path):
        g = build_graph(5, [(0, 1), (2, 4), (1, 3)])
        path = tmp_path / "edges.tsv"
        write_edge_list(g, path)
        g2 = read_edge_list(path, n=5)
        np.testing.assert_array_equal(g.edges, g2.edges)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("# header\n0\t1\n\n1\t2\n")
        g = read_edge_list(path)
        assert g.n == 3 and g.m == 2

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("0\t1\nzap\n")
        with pytest.raises(GraphError, match=":2"):
            read_edge_list(path)

    @pytest.mark.parametrize("n", [None, 4])
    def test_negative_endpoint_reports_number(self, tmp_path, n):
        path = tmp_path / "edges.tsv"
        path.write_text("0\t1\n# note\n2 -3\n")
        with pytest.raises(GraphError, match=r"edges\.tsv:3: negative endpoint in '2 -3'"):
            read_edge_list(path, n=n)

    def test_endpoint_past_n_reports_number(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("0\t1\n1\t4\n")
        with pytest.raises(GraphError, match=r"edges\.tsv:2: edge \(1, 4\) out of range for n=4"):
            read_edge_list(path, n=4)
        assert read_edge_list(path).n == 5  # without n the largest endpoint sets it
