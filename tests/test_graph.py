import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from unfoldgnn import graph as graph_module
from unfoldgnn import implicit, unfold
from unfoldgnn.data import SbmSpec, sbm_generate
from unfoldgnn.energy import rho_truncated_lp
from unfoldgnn.graph import (
    GraphError,
    LaplacianKind,
    build_graph,
    homophily_ratio,
    incidence,
    laplacian,
    propagation_matrix,
    read_edge_list,
    spectral_norm,
    write_edge_list,
)
from unfoldgnn.model import ModelConfig, TrainConfig, train
from unfoldgnn.unfold import sandwich_schedule

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

    def test_self_loop_error_mode(self):
        with pytest.raises(GraphError, match="self-loop"):
            build_graph(3, [(0, 0)], self_loops="error")

    def test_duplicate_error_mode(self):
        with pytest.raises(GraphError, match="duplicate"):
            build_graph(3, [(0, 1), (1, 0)], duplicates="error")

    def test_adjacency_symmetric(self):
        g = random_graph(np.random.default_rng(0), 20)
        assert (g.adjacency != g.adjacency.T).nnz == 0


class TestLaplacian:
    def test_path_combinatorial(self):
        g = build_graph(2, [(0, 1)])
        lap = laplacian(g, LaplacianKind.COMBINATORIAL).toarray()
        np.testing.assert_allclose(lap, [[1, -1], [-1, 1]])

    def test_triangle_combinatorial(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        lap = laplacian(g, LaplacianKind.COMBINATORIAL).toarray()
        np.testing.assert_allclose(lap, 2 * np.eye(3) - (np.ones((3, 3)) - np.eye(3)))

    def test_path_sym_normalized(self):
        # degree-1 endpoints: dense evaluation of I - D^-1/2 A D^-1/2
        g = build_graph(2, [(0, 1)])
        lap = laplacian(g, LaplacianKind.SYM_NORMALIZED).toarray()
        np.testing.assert_allclose(lap, [[1, -1], [-1, 1]])

    def test_combinatorial_rows_sum_to_zero(self):
        g = random_graph(np.random.default_rng(1), 15)
        lap = laplacian(g, LaplacianKind.COMBINATORIAL)
        np.testing.assert_allclose(np.asarray(lap.sum(axis=1)).ravel(), 0, atol=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_psd_against_dense_eigendecomposition(self, kind):
        rng = np.random.default_rng(2)
        for n in (5, 17, 64):
            g = random_graph(rng, n, p=0.15)
            lap = laplacian(g, kind).toarray()
            np.testing.assert_allclose(lap, lap.T, atol=1e-14)
            assert np.linalg.eigvalsh(lap).min() >= -1e-10

    def test_isolated_node_conventions(self):
        g = build_graph(3, [(0, 1)])  # node 2 isolated
        lap = laplacian(g, LaplacianKind.SYM_NORMALIZED).toarray()
        np.testing.assert_allclose(lap[2], [0, 0, 1])
        prop = propagation_matrix(g, LaplacianKind.SYM_NORMALIZED).toarray()
        np.testing.assert_allclose(prop[2], 0, atol=1e-14)


class TestIncidence:
    def test_path_sign_convention(self):
        g = build_graph(2, [(0, 1)])
        b = incidence(g, LaplacianKind.COMBINATORIAL).matrix().toarray()
        np.testing.assert_allclose(b, [[1, -1]])

    def test_empty_edge_set(self):
        g = build_graph(3, [])
        view = incidence(g, LaplacianKind.COMBINATORIAL)
        assert view.rows == 0
        btb = (view.matrix().T @ view.matrix()).toarray()
        np.testing.assert_allclose(btb, np.zeros((3, 3)))

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_btb_matches_laplacian(self, kind):
        rng = np.random.default_rng(3)
        for n in (4, 12, 30):
            g = random_graph(rng, n, p=0.25)
            b = incidence(g, kind).matrix()
            lap = laplacian(g, kind).toarray()
            np.testing.assert_allclose((b.T @ b).toarray(), lap, atol=1e-12)

    def test_btb_matches_laplacian_with_isolated_node(self):
        g = build_graph(4, [(0, 1), (1, 2)])
        for kind in ALL_KINDS:
            b = incidence(g, kind).matrix()
            np.testing.assert_allclose(
                (b.T @ b).toarray(), laplacian(g, kind).toarray(), atol=1e-12
            )

    def test_apply_matches_matrix(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, 12, p=0.3)
        y = rng.normal(size=(12, 3))
        view = incidence(g, LaplacianKind.SELF_LOOP_SYM)
        b = view.matrix().toarray()[: view.n_edge_rows]
        np.testing.assert_allclose(view.apply(y), b @ y, atol=1e-12)
        e = rng.normal(size=(view.n_edge_rows, 3))
        np.testing.assert_allclose(view.apply_t(e), b.T @ e, atol=1e-12)
        gamma = rng.random(view.n_edge_rows)
        np.testing.assert_allclose(
            view.weighted_laplacian_apply(y, gamma), b.T @ (gamma[:, None] * (b @ y)), atol=1e-12
        )


class TestPropagationMatrix:
    def test_path_self_loop(self):
        g = build_graph(2, [(0, 1)])
        p = propagation_matrix(g, LaplacianKind.SELF_LOOP_SYM).toarray()
        np.testing.assert_allclose(p, [[0.5, 0.5], [0.5, 0.5]])

    def test_plus_laplacian_is_identity(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 18)
        for kind in ALL_KINDS:
            total = propagation_matrix(g, kind) + laplacian(g, kind)
            np.testing.assert_allclose(total.toarray(), np.eye(18), atol=1e-14)

    def test_combinatorial_row_sums_one(self):
        g = random_graph(np.random.default_rng(6), 10)
        p = propagation_matrix(g, LaplacianKind.COMBINATORIAL)
        np.testing.assert_allclose(np.asarray(p.sum(axis=1)).ravel(), 1.0, atol=1e-12)

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
        assert "degrees" not in vars(g) and g._operators == {}
        incidence(g, LaplacianKind.COMBINATORIAL)
        assert list(g._operators) == [LaplacianKind.COMBINATORIAL]

    def test_each_operator_is_built_once(self):
        g = random_graph(np.random.default_rng(11), 12)
        for kind in ALL_KINDS:
            assert laplacian(g, kind) is laplacian(g, kind)
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
        assert norm_calls == [laplacian(ds.graph, cfg.kind)]
        train(ds.graph, ds.x, ds.labels, ds.masks, cfg, tcfg)
        assert len(norm_calls) == 1
        other = ModelConfig(backend="unrolled", embed_dim=4, n_classes=2, steps=6,
                            kind=LaplacianKind.COMBINATORIAL)
        train(ds.graph, ds.x, ds.labels, ds.masks, other, tcfg)
        assert norm_calls[1:] == [laplacian(ds.graph, LaplacianKind.COMBINATORIAL)]

    def test_implicit_training_computes_propagation_norm_once(self, norm_calls):
        ds = self.sbm()
        for kind in ALL_KINDS:
            cfg = ModelConfig(backend="implicit", embed_dim=4, n_classes=2, kind=kind)
            for _ in range(2):
                train(ds.graph, ds.x, ds.labels, ds.masks, cfg, TrainConfig(epochs=6, lr=0.1))
        # the normalized kinds' ||P|| = 1 needs no solve
        assert norm_calls == [propagation_matrix(ds.graph, LaplacianKind.COMBINATORIAL)]

    def test_dropped_graph_is_freed_without_the_cyclic_collector(self):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            g = random_graph(np.random.default_rng(12), 10)
            bundles = [g.operators(kind) for kind in ALL_KINDS]
            for ops in bundles:
                ops.incidence.bt, ops.laplacian_norm, ops.propagation_norm
            expected = laplacian(g, LaplacianKind.COMBINATORIAL).toarray()
            ref = weakref.ref(g)
            del g
            assert ref() is None
            np.testing.assert_array_equal(bundles[0].laplacian.toarray(), expected)
        finally:
            if was_enabled:
                gc.enable()

    def test_equal_edge_lists_share_no_cache(self):
        pairs = [(0, 1), (1, 2), (2, 3)]
        g1, g2 = build_graph(4, pairs), build_graph(4, pairs)
        assert g1 != g2 and len({g1, g2}) == 2 and g1 == g1
        for kind in ALL_KINDS:
            assert laplacian(g1, kind) is not laplacian(g2, kind)
            assert incidence(g1, kind) is not incidence(g2, kind)
        assert g1.degrees is not g2.degrees

    @pytest.mark.filterwarnings("ignore::scipy.sparse.SparseEfficiencyWarning")
    def test_cached_arrays_are_read_only(self):
        g = build_graph(4, [(0, 1), (1, 2)])
        kind = LaplacianKind.SYM_NORMALIZED
        view = incidence(g, kind)
        lap_before = laplacian(g, kind).toarray()
        arrays = [g.edges, g.degrees, g.adjacency.data, view.eu, view.su, view.extra_rows]
        for mat in (laplacian(g, kind), propagation_matrix(g, kind),
                    view.b, view.bt, view.b_raw, view.bt_raw):
            arrays += [mat.data, mat.indices, mat.indptr]
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
        for entry in ((0, 0), (0, 3)):  # stored, and not stored
            with pytest.raises(ValueError, match="read-only"):
                laplacian(g, kind)[entry] = 5.0
        np.testing.assert_array_equal(laplacian(g, kind).toarray(), lap_before)
        assert g.degrees.tolist() == [1, 2, 1, 0]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown Laplacian kind"):
            laplacian(build_graph(2, [(0, 1)]), "combinatorial")


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(5)) == pytest.approx(1.0, abs=1e-8)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, abs=1e-7)

    def test_matches_dense_svd(self):
        rng = np.random.default_rng(8)
        dense = rng.normal(size=(20, 20)) * (rng.random((20, 20)) < 0.3)
        expected = np.linalg.svd(dense, compute_uv=False)[0]
        got = spectral_norm(sp.csr_matrix(dense))
        assert got == pytest.approx(expected, rel=1e-6)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        mat = rng.normal(size=(15, 15))
        assert spectral_norm(mat) == spectral_norm(mat)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((4, 4))) == 0.0

    def test_sparse_input_is_deterministic(self):
        g = random_graph(np.random.default_rng(10), 40, p=0.1)
        for kind in ALL_KINDS:
            lap = laplacian(g, kind)
            assert spectral_norm(lap) == spectral_norm(lap)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_operator_norms_match_eigvalsh(self, kind):
        rng = np.random.default_rng(13)
        isolated = build_graph(9, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (5, 6)])
        # the 300-node graph goes through the Lanczos solve
        graphs = [random_graph(rng, 12), isolated, build_graph(5, []),
                  random_graph(rng, 300, p=0.02)]
        for g in graphs:
            ops = g.operators(kind)
            for got, mat in ((ops.laplacian_norm, ops.laplacian),
                             (ops.propagation_norm, ops.propagation)):
                exact = np.abs(np.linalg.eigvalsh(mat.toarray())).max()
                assert got == pytest.approx(exact, rel=1e-10, abs=0.0)


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
