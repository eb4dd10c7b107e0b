import numpy as np
import pytest

from unfoldgnn.data import (
    DatasetError,
    PerturbSpec,
    SbmSpec,
    edge_indices,
    load_dataset,
    make_dataset,
    perturb_edges,
    save_dataset,
    sbm_generate,
)
from unfoldgnn.graph import build_graph


class TestLoadDataset:
    def write_minimal(self, d, masks="1,0,0\n0,1,0\n0,0,1\n"):
        (d / "edges.tsv").write_text("# comment\n0\t1\n1\t2\n")
        (d / "features.csv").write_text("1.0,2.0\n0.5,0.0\n-1.0,3.5\n")
        (d / "labels.csv").write_text("0\n1\n0\n")
        (d / "masks.csv").write_text(masks)

    def test_minimal_fixture_parses(self, tmp_path):
        self.write_minimal(tmp_path)
        ds = load_dataset(tmp_path)
        assert ds.n == 3 and ds.graph.m == 2
        assert ds.x.shape == (3, 2)
        assert ds.masks["train"].tolist() == [True, False, False]

    def test_overlapping_masks_rejected(self, tmp_path):
        self.write_minimal(tmp_path, masks="1,1,0\n0,0,1\n0,0,0\n")
        with pytest.raises(DatasetError, match="overlap"):
            load_dataset(tmp_path)

    def test_malformed_feature_line_number(self, tmp_path):
        self.write_minimal(tmp_path)
        (tmp_path / "features.csv").write_text("1.0,2.0\nbad,row\n0,0\n")
        with pytest.raises(DatasetError, match=":2"):
            load_dataset(tmp_path)

    def test_feature_count_mismatch(self, tmp_path):
        self.write_minimal(tmp_path)
        (tmp_path / "labels.csv").write_text("0\n1\n")
        with pytest.raises(DatasetError, match="label rows"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_features_rejected(self, tmp_path, bad):
        self.write_minimal(tmp_path)
        (tmp_path / "features.csv").write_text(f"1.0,2.0\n0.5,{bad}\n-1.0,3.5\n")
        with pytest.raises(DatasetError, match="node 1 are not all finite"):
            load_dataset(tmp_path)

    def test_negative_label_rejected(self, tmp_path):
        self.write_minimal(tmp_path)
        (tmp_path / "labels.csv").write_text("0\n1\n-1\n")
        with pytest.raises(DatasetError, match="label -1 at node 2 is negative"):
            load_dataset(tmp_path)

    def test_roundtrip(self, tmp_path):
        ds = sbm_generate(SbmSpec(blocks=(10, 10), p_in=0.4, p_out=0.1, seed=3))
        save_dataset(ds, tmp_path / "out")
        back = load_dataset(tmp_path / "out")
        np.testing.assert_array_equal(back.graph.edges, ds.graph.edges)
        np.testing.assert_allclose(back.x, ds.x, atol=1e-12)
        np.testing.assert_array_equal(back.labels, ds.labels)
        for name in ("train", "val", "test"):
            np.testing.assert_array_equal(back.masks[name], ds.masks[name])


class TestSbm:
    def test_pure_within_block_homophily_one(self):
        ds = sbm_generate(SbmSpec(blocks=(20, 20), p_in=0.4, p_out=0.0, seed=0))
        assert ds.homophily() == 1.0

    def test_pure_cross_block_homophily_zero(self):
        ds = sbm_generate(SbmSpec(blocks=(20, 20), p_in=0.0, p_out=0.3, seed=0))
        assert ds.homophily() == 0.0

    def test_equal_probabilities_near_half(self):
        accs = []
        for seed in range(8):
            ds = sbm_generate(SbmSpec(blocks=(500, 500), p_in=0.01, p_out=0.01,
                                      feature_dim=2, seed=seed))
            accs.append(ds.homophily())
        assert np.mean(accs) == pytest.approx(0.5, abs=0.05)

    def test_expected_homophily_formula(self):
        spec = SbmSpec(blocks=(300, 300), p_in=0.05, p_out=0.01, seed=1)
        realized = np.mean([
            sbm_generate(SbmSpec(blocks=(300, 300), p_in=0.05, p_out=0.01, seed=s)).homophily()
            for s in range(5)
        ])
        assert realized == pytest.approx(spec.expected_homophily(), abs=0.03)

    def test_seed_determinism(self):
        a = sbm_generate(SbmSpec(blocks=(30, 30), seed=7))
        b = sbm_generate(SbmSpec(blocks=(30, 30), seed=7))
        np.testing.assert_array_equal(a.graph.edges, b.graph.edges)
        np.testing.assert_array_equal(a.x, b.x)

    def test_masks_disjoint_and_stratified(self):
        ds = sbm_generate(SbmSpec(blocks=(40, 40, 40), train_frac=0.1, val_frac=0.2, seed=2))
        total = ds.masks["train"].astype(int) + ds.masks["val"].astype(int) \
            + ds.masks["test"].astype(int)
        assert total.max() == 1
        for cls in range(3):
            assert ds.masks["train"][ds.labels == cls].sum() >= 1


class TestPerturb:
    def make(self, seed=0):
        return sbm_generate(SbmSpec(blocks=(25, 25), p_in=0.3, p_out=0.0, seed=seed))

    def test_zero_rate_identity(self):
        ds = self.make()
        out, added = perturb_edges(ds, PerturbSpec(rate=0.0))
        assert added.shape == (0, 2)
        np.testing.assert_array_equal(out.graph.edges, ds.graph.edges)

    def test_rate_counting(self):
        ds = self.make()
        m = ds.graph.m
        out, added = perturb_edges(ds, PerturbSpec(rate=0.2, seed=1))
        assert added.shape[0] == round(0.2 * m)
        assert out.graph.m == m + added.shape[0]
        # all added edges were cross-class: H = m / (1.2 m)
        assert out.homophily() == pytest.approx(m / (m + added.shape[0]))

    def test_homophily_strictly_decreases(self):
        ds = self.make()
        out, _ = perturb_edges(ds, PerturbSpec(rate=0.1, seed=2))
        assert out.homophily() < ds.homophily()

    def test_single_class_error(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        ds = make_dataset(g, np.zeros((4, 2)), np.zeros(4, dtype=int), {
            "train": np.array([1, 0, 0, 0], bool),
            "val": np.array([0, 1, 0, 0], bool),
            "test": np.array([0, 0, 1, 1], bool),
        })
        with pytest.raises(DatasetError, match="two classes"):
            perturb_edges(ds, PerturbSpec(rate=0.5))

    def test_insufficient_candidates_error(self):
        # complete bipartite cross-structure leaves no cross non-edges
        pairs = [(u, v) for u in range(3) for v in range(3, 6)]
        g = build_graph(6, pairs)
        labels = np.array([0, 0, 0, 1, 1, 1])
        ds = make_dataset(g, np.zeros((6, 2)), labels, {
            "train": np.array([1, 0, 0, 1, 0, 0], bool),
            "val": np.array([0, 1, 0, 0, 1, 0], bool),
            "test": np.array([0, 0, 1, 0, 0, 1], bool),
        })
        with pytest.raises(DatasetError, match="cross-class non-edges"):
            perturb_edges(ds, PerturbSpec(rate=0.5))

    def test_remove_intra_flag(self):
        ds = self.make()
        m = ds.graph.m
        out, added = perturb_edges(ds, PerturbSpec(rate=0.1, remove_intra=True, seed=3))
        assert out.graph.m == m  # added == removed

    def test_graph_stays_simple(self):
        ds = self.make()
        out, _ = perturb_edges(ds, PerturbSpec(rate=0.3, seed=4))
        assert np.unique(out.graph.edges, axis=0).shape[0] == out.graph.m

    def test_seed_determinism(self):
        ds = self.make()
        _, a = perturb_edges(ds, PerturbSpec(rate=0.2, seed=5))
        _, b = perturb_edges(ds, PerturbSpec(rate=0.2, seed=5))
        np.testing.assert_array_equal(a, b)

    def test_edge_indices_lookup(self):
        ds = self.make()
        out, added = perturb_edges(ds, PerturbSpec(rate=0.2, seed=6))
        idx = edge_indices(out.graph, added)
        assert idx.size == added.shape[0]
        got = out.graph.edges[idx]
        want = np.sort(added, axis=1)
        np.testing.assert_array_equal(np.sort(got, axis=0), np.sort(want, axis=0))
