import hashlib

import numpy as np
import pytest

from unfoldgnn import data
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
    stratified_masks,
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

    @pytest.mark.parametrize("edge, message", [
        ("1\t5", r"edges\.tsv:3: edge \(1, 5\) out of range for n=3"),
        ("-1\t2", r"edges\.tsv:3: negative endpoint"),
    ])
    def test_edge_endpoint_error_names_file_and_line(self, tmp_path, edge, message):
        self.write_minimal(tmp_path)
        (tmp_path / "edges.tsv").write_text(f"# comment\n0\t1\n{edge}\n")
        with pytest.raises(DatasetError, match=message):
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
        sizes = np.asarray(spec.blocks, dtype=float)
        within = spec.p_in * np.sum(sizes * (sizes - 1) / 2)
        cross = spec.p_out * (sizes.sum() ** 2 - np.sum(sizes ** 2)) / 2
        assert realized == pytest.approx(within / (within + cross), abs=0.03)

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


    @pytest.mark.parametrize("overrides, message", [
        (dict(blocks=()), "blocks must list at least one community size"),
        (dict(blocks=(10, 0)), "block sizes must be at least 1"),
        (dict(feature_dim=0), "feature_dim must be at least 1"),
        (dict(train_frac=-0.1), "fractions must be nonnegative"),
        (dict(val_frac=-0.5), "fractions must be nonnegative"),
        (dict(p_in=2.0), r"edge probabilities must lie in \[0, 1\]"),
    ])
    def test_bad_spec_rejected(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            SbmSpec(**overrides)


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

    def test_original_edges_kept(self):
        ds = self.make()
        out, added = perturb_edges(ds, PerturbSpec(rate=0.1, seed=3))
        kept = edge_indices(out.graph, ds.graph.edges)
        assert kept.size == ds.graph.m
        assert out.graph.m == ds.graph.m + added.shape[0]

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


# ---------------------------------------------------------------------------
# parity with the O(n^2) generators they replaced
# ---------------------------------------------------------------------------

def reference_sbm_generate(spec):
    """The all-pairs block-model draw, kept verbatim as the reference."""
    rng = np.random.default_rng(spec.seed)
    sizes = np.asarray(spec.blocks, dtype=int)
    n = int(sizes.sum())
    labels = np.repeat(np.arange(sizes.size), sizes)
    iu, ju = np.triu_indices(n, k=1)
    same = labels[iu] == labels[ju]
    probs = np.where(same, spec.p_in, spec.p_out)
    keep = rng.random(iu.size) < probs
    pairs = np.stack([iu[keep], ju[keep]], axis=1)
    graph = build_graph(n, pairs)
    means = rng.normal(size=(sizes.size, spec.feature_dim))
    norms = np.linalg.norm(means, axis=1, keepdims=True)
    means = spec.separation * means / np.maximum(norms, 1e-12)
    x = means[labels] + rng.normal(size=(n, spec.feature_dim))
    masks = stratified_masks(labels, spec.train_frac, spec.val_frac, rng)
    return make_dataset(graph, x, labels, masks)


def reference_perturb_edges(ds, spec):
    """The candidate-listing edge injection, kept verbatim as the reference."""
    g = ds.graph
    n_add = int(round(spec.rate * g.m))
    if n_add == 0:
        return ds, np.zeros((0, 2), dtype=np.int64)
    labels = ds.labels
    if np.unique(labels).size < 2:
        raise DatasetError("need at least two classes to inject cross-class edges")
    rng = np.random.default_rng(spec.seed)
    existing = {(int(u), int(v)) for u, v in g.edges}
    iu, ju = np.triu_indices(g.n, k=1)
    cross = labels[iu] != labels[ju]
    candidates = [
        (int(u), int(v))
        for u, v in zip(iu[cross], ju[cross])
        if (int(u), int(v)) not in existing
    ]
    if len(candidates) < n_add:
        raise DatasetError(
            f"only {len(candidates)} cross-class non-edges available, need {n_add}")
    picked = rng.choice(len(candidates), size=n_add, replace=False)
    added = np.asarray([candidates[i] for i in picked], dtype=np.int64)
    new_edges = np.vstack([g.edges, added])
    new_graph = build_graph(g.n, new_edges)
    out = make_dataset(new_graph, ds.x, labels, ds.masks)
    return out, added


def assert_same_perturbation(ds, spec):
    try:
        want, want_added = reference_perturb_edges(ds, spec)
    except DatasetError as exc:
        with pytest.raises(DatasetError, match=f"^{exc}$"):
            perturb_edges(ds, spec)
        return
    got, got_added = perturb_edges(ds, spec)
    np.testing.assert_array_equal(got_added, want_added)
    assert got_added.dtype == want_added.dtype
    assert_same_dataset(got, want)


def renumber_nodes(ds, perm):
    """The same dataset with node perm[i] renamed i."""
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(perm.size)
    graph = build_graph(ds.n, inverse[ds.graph.edges])
    masks = {name: mask[perm] for name, mask in ds.masks.items()}
    return make_dataset(graph, ds.x[perm], ds.labels[perm], masks)


def assert_same_dataset(got, want):
    assert got.n == want.n
    np.testing.assert_array_equal(got.graph.edges, want.graph.edges)
    np.testing.assert_array_equal(got.x, want.x)
    np.testing.assert_array_equal(got.labels, want.labels)
    for name in ("train", "val", "test"):
        np.testing.assert_array_equal(got.masks[name], want.masks[name])


SBM_LAYOUTS = [
    dict(blocks=(30, 30), p_in=0.3, p_out=0.05),
    dict(blocks=(7, 23, 11), p_in=0.4, p_out=0.1),
    dict(blocks=(13, 1, 29, 6), p_in=0.5, p_out=0.2),
    dict(blocks=(1, 40), p_in=0.3, p_out=0.3),
    dict(blocks=(20, 20), p_in=0.0, p_out=1.0),
    dict(blocks=(20, 20), p_in=1.0, p_out=0.0),
    dict(blocks=(15, 10, 5), p_in=0.0, p_out=0.0),
    # heterophilous: the candidate threshold is p_out, so the same-block
    # candidates drawn between p_in and p_out must be dropped
    dict(blocks=(9, 14, 5), p_in=0.1, p_out=0.45),
]


class TestGeneratorParity:
    @pytest.mark.parametrize("block_pairs", [1, 7, 100, 1 << 18])
    @pytest.mark.parametrize("layout", SBM_LAYOUTS)
    def test_sbm_matches_all_pairs_draw(self, layout, block_pairs, monkeypatch):
        monkeypatch.setattr(data, "_SBM_BLOCK_PAIRS", block_pairs)
        for seed in (0, 1, 11):
            spec = SbmSpec(**layout, feature_dim=3, seed=seed)
            assert_same_dataset(sbm_generate(spec), reference_sbm_generate(spec))

    def test_benchmark_size_sbm_matches_pinned_digests(self):
        # train-sbm's graph before perturbation (n = 4000, 8M pairs), where
        # the all-pairs reference is too costly; digests taken from the
        # all-pairs generator's output
        ds = sbm_generate(SbmSpec(blocks=(2000, 2000), p_in=0.004, p_out=0.001,
                                  feature_dim=16, separation=2.0))
        masks = np.stack([ds.masks[name] for name in ("train", "val", "test")])
        assert ds.graph.edges.shape == (20047, 2) and ds.graph.edges.dtype == np.int64
        digests = {name: hashlib.sha256(arr.tobytes()).hexdigest()
                   for name, arr in (("edges", ds.graph.edges), ("x", ds.x), ("masks", masks))}
        assert digests == {
            "edges": "0c2ecf6f3b01c4a838d37ed14265dac43d83eadf3a8493c809a2e31a8ed636d2",
            "x": "59579cf7612d861a94db997b0e21b19ced6a1e17f2dba4d0ee00435e0d0b6820",
            "masks": "0c1ca7e5997a0bbcec49f1b51905434e626670b9a3d92f6cb3fdf7a968888b12",
        }

    @pytest.mark.parametrize("shuffled", [False, True])
    @pytest.mark.parametrize("rate", [0.05, 0.2, 0.7])
    @pytest.mark.parametrize("layout", SBM_LAYOUTS[:5])
    def test_perturb_matches_candidate_list(self, layout, rate, shuffled):
        # shuffled: the nodes renumbered, so the classes interleave instead
        # of forming the block generator's contiguous runs
        for seed in (0, 3, 12):
            ds = sbm_generate(SbmSpec(**layout, feature_dim=3, seed=seed))
            if shuffled:
                ds = renumber_nodes(ds, np.random.default_rng(seed).permutation(ds.n))
            assert_same_perturbation(ds, PerturbSpec(rate=rate, seed=seed + 1))

    @pytest.mark.parametrize("rate", [0.4, 2.0])
    def test_perturb_parity_with_non_contiguous_labels(self, rate):
        rng = np.random.default_rng(4)
        n = 60
        labels = rng.choice([2, 5, 9], size=n)
        pairs = rng.integers(0, n, size=(150, 2))
        ds = make_dataset(build_graph(n, pairs), rng.normal(size=(n, 2)), labels,
                          stratified_masks(labels, 0.2, 0.2, rng))
        assert_same_perturbation(ds, PerturbSpec(rate=rate, seed=8))

    def test_perturb_parity_when_most_cross_pairs_exist(self):
        # all but 5 of the 8*9 cross pairs are already edges
        labels = np.array([0] * 8 + [1] * 9)
        cross = [(u, v) for u in range(8) for v in range(8, 17)]
        pairs = cross[5:] + [(0, 1), (2, 3), (9, 10)]
        ds = make_dataset(build_graph(17, pairs), np.zeros((17, 2)), labels,
                          stratified_masks(labels, 0.2, 0.2, np.random.default_rng(0)))
        spec = PerturbSpec(rate=5 / len(pairs), seed=2)
        assert_same_perturbation(ds, spec)
        _, added = perturb_edges(ds, spec)
        assert sorted(map(tuple, added.tolist())) == cross[:5]

    def test_insufficient_candidates_count_matches(self):
        labels = np.array([0] * 8 + [1] * 9)
        cross = [(u, v) for u in range(8) for v in range(8, 17)]
        ds = make_dataset(build_graph(17, cross[5:]), np.zeros((17, 2)), labels,
                          stratified_masks(labels, 0.2, 0.2, np.random.default_rng(0)))
        spec = PerturbSpec(rate=0.2, seed=1)
        for fn in (perturb_edges, reference_perturb_edges):
            with pytest.raises(DatasetError, match=r"^only 5 cross-class non-edges "
                                                   r"available, need 13$"):
                fn(ds, spec)

    def test_edge_indices_match_dict_lookup(self):
        rng = np.random.default_rng(5)
        g = build_graph(40, rng.integers(0, 40, size=(120, 2)))
        u, v = g.edges[-1]
        # (u - 1, v + n) has the key u*n + v of a real edge
        out_of_range = [[u - 1, v + 40], [0, 40], [-1, 3]]
        pairs = np.concatenate([g.edges[rng.permutation(g.m)[:30]][:, ::-1],
                                rng.integers(0, 40, size=(30, 2)), out_of_range])
        lookup = {(int(u), int(v)): k for k, (u, v) in enumerate(g.edges)}
        want = [lookup[(min(u, v), max(u, v))] for u, v in pairs.tolist()
                if (min(u, v), max(u, v)) in lookup]
        got = edge_indices(g, pairs)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
        assert edge_indices(g, []).shape == (0,)


class TestGeneratorMemory:
    """Peak traced allocation: the all-pairs versions need O(n^2)."""

    def test_perturb_edges_bounded_at_n_20000(self, traced_peak):
        n = 20000
        rng = np.random.default_rng(0)
        labels = np.repeat([0, 1], n // 2)
        g = build_graph(n, rng.integers(0, n, size=(4 * n, 2)))
        ds = make_dataset(g, np.zeros((n, 1)), labels,
                          stratified_masks(labels, 0.2, 0.2, rng))
        # listing the 10^8 cross-class pairs would take well over 1 GB
        assert traced_peak(perturb_edges, ds, PerturbSpec(rate=0.2)) < 32 * 2 ** 20

    def test_sbm_generate_bounded_at_n_10000(self, traced_peak):
        spec = SbmSpec(blocks=(5000, 5000), p_in=0.002, p_out=0.0005, feature_dim=4)
        # triu_indices alone would take 800 MB and all 5e7 draws at once
        # 400 MB; one block of draws is 1 MB
        assert traced_peak(sbm_generate, spec) < 32 * 2 ** 20
