"""Dataset ingestion and synthetic generators.

On-disk format (one directory per dataset): ``edges.tsv`` (tab-separated
pairs, '#' comments), ``features.csv`` (one row of comma-separated
floats per node), ``labels.csv`` (one integer per line), ``masks.csv``
(three 0/1 columns: train,val,test).  The block-model generator covers
the homophily/heterophily regimes, and the edge perturbation injects
cross-class edges as a stand-in for adversarial graph attacks.
"""

import os
from dataclasses import dataclass

import numpy as np

from .graph import Graph, GraphError, build_graph, homophily_ratio, read_edge_list


class DatasetError(ValueError):
    pass


@dataclass
class Dataset:
    graph: Graph
    x: np.ndarray
    labels: np.ndarray
    masks: dict

    @property
    def n(self):
        return self.graph.n

    def homophily(self):
        return homophily_ratio(self.graph, self.labels)


def make_dataset(graph, x, labels, masks):
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    if x.shape[0] != graph.n:
        raise DatasetError(f"feature rows {x.shape[0]} != node count {graph.n}")
    if labels.shape[0] != graph.n:
        raise DatasetError(f"label rows {labels.shape[0]} != node count {graph.n}")
    if not np.isfinite(x).all():
        i = int(np.argwhere(~np.isfinite(x))[0, 0])
        raise DatasetError(f"features of node {i} are not all finite")
    if labels.size and labels.min() < 0:
        i = int(np.argmax(labels < 0))
        raise DatasetError(f"label {labels[i]} at node {i} is negative")
    clean = {}
    for name in ("train", "val", "test"):
        if name not in masks:
            raise DatasetError(f"missing mask {name!r}")
        m = np.asarray(masks[name], dtype=bool)
        if m.shape[0] != graph.n:
            raise DatasetError(f"mask {name!r} length {m.shape[0]} != node count {graph.n}")
        clean[name] = m
    overlap = (clean["train"] & clean["val"]) | (clean["train"] & clean["test"]) \
        | (clean["val"] & clean["test"])
    if overlap.any():
        raise DatasetError(f"masks overlap at node {int(np.flatnonzero(overlap)[0])}")
    return Dataset(graph=graph, x=x, labels=labels, masks=clean)


def load_dataset(directory):
    """Read the four dataset files; errors carry file and line context."""
    edges_path = os.path.join(directory, "edges.tsv")
    if not os.path.exists(edges_path):
        raise DatasetError(f"missing {edges_path}")
    features = _read_float_csv(os.path.join(directory, "features.csv"))
    n = features.shape[0]
    try:
        graph = read_edge_list(edges_path, n=n)
    except GraphError as exc:
        raise DatasetError(str(exc))
    labels = _read_int_lines(os.path.join(directory, "labels.csv"))
    masks_raw = _read_float_csv(os.path.join(directory, "masks.csv"))
    if masks_raw.shape[1] != 3:
        raise DatasetError("masks.csv must have three columns: train,val,test")
    masks = {
        "train": masks_raw[:, 0] > 0.5,
        "val": masks_raw[:, 1] > 0.5,
        "test": masks_raw[:, 2] > 0.5,
    }
    return make_dataset(graph, features, labels, masks)


def save_dataset(ds, directory):
    os.makedirs(directory, exist_ok=True)
    from .graph import write_edge_list

    write_edge_list(ds.graph, os.path.join(directory, "edges.tsv"))
    np.savetxt(os.path.join(directory, "features.csv"), ds.x, delimiter=",")
    np.savetxt(os.path.join(directory, "labels.csv"), ds.labels, fmt="%d")
    stacked = np.stack([ds.masks["train"], ds.masks["val"], ds.masks["test"]], axis=1)
    np.savetxt(os.path.join(directory, "masks.csv"), stacked.astype(int),
               fmt="%d", delimiter=",")


def _read_float_csv(path):
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rows.append([float(tok) for tok in line.split(",")])
            except ValueError:
                raise DatasetError(f"{path}:{lineno}: non-numeric value in {line!r}")
            if len(rows) > 1 and len(rows[-1]) != len(rows[0]):
                raise DatasetError(f"{path}:{lineno}: ragged row")
    if not rows:
        raise DatasetError(f"{path}: empty file")
    return np.asarray(rows)


def _read_int_lines(path):
    vals = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                vals.append(int(line))
            except ValueError:
                raise DatasetError(f"{path}:{lineno}: non-integer label {line!r}")
    return np.asarray(vals, dtype=np.int64)


# ---------------------------------------------------------------------------
# stochastic block model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SbmSpec:
    """Planted-partition generator with Gaussian class features.

    ``blocks`` lists community sizes.  Every same-block node pair draws
    an edge with p_in, cross-block pairs with p_out.  Features are unit
    Gaussians around per-class means of norm ``separation``.  Masks are
    stratified per class by the given fractions.
    """

    blocks: tuple = (50, 50)
    p_in: float = 0.1
    p_out: float = 0.02
    feature_dim: int = 8
    separation: float = 1.0
    train_frac: float = 0.2
    val_frac: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.p_in <= 1 or not 0 <= self.p_out <= 1:
            raise ValueError("edge probabilities must lie in [0, 1]")
        if self.train_frac + self.val_frac >= 1.0:
            raise ValueError("train and val fractions must leave room for test")

    def expected_homophily(self):
        sizes = np.asarray(self.blocks, dtype=float)
        within = self.p_in * np.sum(sizes * (sizes - 1) / 2)
        total_cross = (sizes.sum() ** 2 - np.sum(sizes ** 2)) / 2
        cross = self.p_out * total_cross
        if within + cross == 0:
            return float("nan")
        return within / (within + cross)


def sbm_generate(spec):
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


def stratified_masks(labels, train_frac, val_frac, rng):
    n = labels.shape[0]
    masks = {name: np.zeros(n, dtype=bool) for name in ("train", "val", "test")}
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(idx.size)]
        n_train = max(1, int(round(train_frac * idx.size)))
        n_val = max(1, int(round(val_frac * idx.size)))
        masks["train"][idx[:n_train]] = True
        masks["val"][idx[n_train:n_train + n_val]] = True
        masks["test"][idx[n_train + n_val:]] = True
    return masks


# ---------------------------------------------------------------------------
# cross-class edge injection (adversarial-perturbation stand-in)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbSpec:
    rate: float = 0.2
    remove_intra: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError("rate must be nonnegative")


def perturb_edges(ds, spec):
    """Add rate*m cross-class edges (optionally also remove that many
    intra-class edges).  Returns (dataset, added_pairs); the result
    stays a simple graph, and homophily strictly drops whenever edges
    are added."""
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
    edges = g.edges
    if spec.remove_intra:
        intra_idx = np.flatnonzero(labels[edges[:, 0]] == labels[edges[:, 1]])
        n_remove = min(n_add, intra_idx.size)
        drop = set(rng.choice(intra_idx, size=n_remove, replace=False).tolist())
        edges = edges[[i for i in range(edges.shape[0]) if i not in drop]]
    new_edges = np.vstack([edges, added])
    new_graph = build_graph(g.n, new_edges)
    out = make_dataset(new_graph, ds.x, labels, ds.masks)
    return out, added


def edge_indices(graph, pairs):
    """Row indices of the given (u, v) pairs inside graph.edges."""
    lookup = {(int(u), int(v)): k for k, (u, v) in enumerate(graph.edges)}
    idx = []
    for u, v in np.asarray(pairs):
        u, v = int(min(u, v)), int(max(u, v))
        if (u, v) in lookup:
            idx.append(lookup[(u, v)])
    return np.asarray(idx, dtype=np.int64)
