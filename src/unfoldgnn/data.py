"""Dataset ingestion and synthetic generators.

On-disk format (one directory per dataset): ``edges.tsv`` (tab-separated
pairs, '#' comments), ``features.csv`` (one row of comma-separated
floats per node), ``labels.csv`` (one integer per line), ``masks.csv``
(three 0/1 columns: train,val,test).  The block-model generator covers
the homophily/heterophily regimes, and the edge perturbation injects
cross-class edges as a stand-in for adversarial graph attacks.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .artifacts import text_lines
from .graph import Graph, GraphError, build_graph, edge_keys, homophily_ratio, read_edge_list


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
    features = _read_float_csv(os.path.join(directory, "features.csv"))
    n = features.shape[0]
    try:
        graph = read_edge_list(os.path.join(directory, "edges.tsv"), n=n)
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
    for where, line in text_lines(path, DatasetError):
        try:
            rows.append([float(tok) for tok in line.split(",")])
        except ValueError:
            raise DatasetError(f"{where}: non-numeric value in {line!r}")
        if len(rows) > 1 and len(rows[-1]) != len(rows[0]):
            raise DatasetError(f"{where}: ragged row")
    if not rows:
        raise DatasetError(f"{path}: empty file")
    return np.asarray(rows)


def _read_int_lines(path):
    vals = []
    for where, line in text_lines(path, DatasetError):
        try:
            vals.append(int(line))
        except ValueError:
            raise DatasetError(f"{where}: non-integer label {line!r}")
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
        if not self.blocks:
            raise ValueError("blocks must list at least one community size")
        if min(self.blocks) < 1:
            raise ValueError(f"block sizes must be at least 1, got {tuple(self.blocks)}")
        if not 0 <= self.p_in <= 1 or not 0 <= self.p_out <= 1:
            raise ValueError(f"edge probabilities must lie in [0, 1], got p_in={self.p_in}, "
                             f"p_out={self.p_out}")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be at least 1")
        for name in ("separation", "train_frac", "val_frac"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.train_frac < 0 or self.val_frac < 0:
            raise ValueError("train and val fractions must be nonnegative")
        if self.train_frac + self.val_frac >= 1.0:
            raise ValueError("train and val fractions must leave room for test")


# Upper-triangle pairs drawn per block of rows in sbm_generate: one block of
# draws (1 MB) is the generator's only O(n^2)-sized array, so it costs
# O(n^2) draws and comparisons, plus O(m log n) to map the candidates back
# to pairs, in memory one block plus O(n + m).  The block is small beside
# the graph and its operators, so a repeated draw beside a held dataset
# does not raise the process's peak.  Training on the n = 4000 graph after
# it took under 0.01 minor page faults per epoch once warm, for all three
# backends, also after a repeated draw.
_SBM_BLOCK_PAIRS = 1 << 17


def sbm_generate(spec):
    """Draw the block model.  Every pair u < v takes one uniform draw, in
    row-major order, made in row blocks of about ``_SBM_BLOCK_PAIRS``
    pairs (at least one row); consecutive ``Generator.random`` calls
    continue one stream, so the graph does not depend on the block size.

    Each draw is compared once, with max(p_in, p_out).  Only the draws
    below it are mapped back to their pair (u, v), by rank, and kept if
    also below their pair's own probability.  The cost is O(n^2) draws
    and comparisons plus O(m log n) for the candidates; the memory is one
    block of draws plus O(n + m)."""
    rng = np.random.default_rng(spec.seed)
    sizes = np.asarray(spec.blocks, dtype=int)
    n = int(sizes.sum())
    labels = np.repeat(np.arange(sizes.size), sizes)
    # pairs before row i: sum_{r < i} (n - 1 - r)
    row_start = np.arange(n + 1) * (2 * n - 1 - np.arange(n + 1)) // 2
    p_max = max(spec.p_in, spec.p_out)
    pairs, lo = [np.zeros((0, 2), dtype=np.int64)], 0
    while lo < n - 1:
        hi = int(np.searchsorted(row_start, row_start[lo] + _SBM_BLOCK_PAIRS, side="right")) - 1
        hi = min(max(hi, lo + 1), n - 1)
        r = rng.random(row_start[hi] - row_start[lo])
        cand = np.flatnonzero(r < p_max)
        r = r[cand]
        cand += row_start[lo]
        iu = np.searchsorted(row_start, cand, side="right") - 1
        ju = cand - row_start[iu] + iu + 1
        keep = r < np.where(labels[iu] == labels[ju], spec.p_in, spec.p_out)
        pairs.append(np.stack([iu[keep], ju[keep]], axis=1))
        lo = hi
    graph = build_graph(n, np.concatenate(pairs))
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
    seed: int = 0

    def __post_init__(self):
        if not (self.rate >= 0 and math.isfinite(self.rate)):
            raise ValueError(f"rate must be nonnegative and finite, got {self.rate}")


def perturb_edges(ds, spec):
    """Add rate*m cross-class edges.  Returns (dataset, added_pairs);
    the result stays a simple graph, and homophily strictly drops
    whenever edges are added.

    The added edges are a uniform sample of the cross-class non-edges
    u < v, indexed in row-major order.  Picked indices are mapped to
    pairs by rank, without listing the candidates: O(n * classes) for
    the per-row candidate counts plus O(m log m) for the existing edges.
    """
    g = ds.graph
    n_add = int(round(spec.rate * g.m))
    if n_add == 0:
        return ds, np.zeros((0, 2), dtype=np.int64)
    classes, labels = np.unique(ds.labels, return_inverse=True)
    if classes.size < 2:
        raise DatasetError("need at least two classes to inject cross-class edges")
    rng = np.random.default_rng(spec.seed)
    # others[c]: the nodes outside class c, ascending; row u's candidates
    # are the others[labels[u]] above u, which start at first[u]
    others = [np.flatnonzero(labels != c) for c in range(classes.size)]
    first = np.empty(g.n, dtype=np.int64)
    for c, other in enumerate(others):
        rows = np.flatnonzero(labels == c)
        first[rows] = np.searchsorted(other, rows, side="right")
    sizes = np.array([other.size for other in others])[labels]
    offsets = np.concatenate([[0], np.cumsum(sizes - first)])
    eu, ev = g.edges[:, 0], g.edges[:, 1]
    cross = labels[eu] != labels[ev]
    eu, ev = eu[cross], ev[cross]
    within = np.empty(eu.size, dtype=np.int64)
    for c, other in enumerate(others):
        sel = labels[eu] == c
        within[sel] = np.searchsorted(other, ev[sel])
    existing = np.sort(offsets[eu] + within - first[eu])
    n_cand = int(offsets[-1]) - existing.size
    if n_cand < n_add:
        raise DatasetError(
            f"only {n_cand} cross-class non-edges available, need {n_add}")
    picked = rng.choice(n_cand, size=n_add, replace=False)
    rank = picked + np.searchsorted(existing - np.arange(existing.size), picked, side="right")
    u = np.searchsorted(offsets, rank, side="right") - 1
    col = first[u] + rank - offsets[u]
    v = np.empty_like(u)
    for c, other in enumerate(others):
        sel = labels[u] == c
        v[sel] = other[col[sel]]
    added = np.stack([u, v], axis=1).astype(np.int64)
    new_graph = build_graph(g.n, np.vstack([g.edges, added]))
    out = make_dataset(new_graph, ds.x, ds.labels, ds.masks)
    return out, added


def edge_indices(graph, pairs):
    """Row indices of the given (u, v) pairs inside graph.edges, in the
    order given; pairs that are not edges are skipped."""
    n = graph.n
    pairs = np.sort(np.asarray(pairs, dtype=np.int64).reshape(-1, 2), axis=1)
    pairs = pairs[(pairs[:, 0] >= 0) & (pairs[:, 1] < n)]
    keys = edge_keys(n, graph.edges[:, 0], graph.edges[:, 1])
    query = edge_keys(n, pairs[:, 0], pairs[:, 1])
    idx = np.searchsorted(keys, query)
    found = idx < keys.size
    found[found] = keys[idx[found]] == query[found]
    return idx[found]
