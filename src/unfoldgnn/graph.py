"""Sparse undirected graphs and the operators derived from them.

A :class:`Graph` stores a deduplicated, canonically ordered edge list
plus a CSR adjacency view.  Everything downstream (degrees, Laplacians,
incidence factorizations, propagation operators, their spectral norms)
is derived from the graph alone, so each is built on first use and
cached on the graph: degrees on the graph itself, the rest in one
:class:`GraphOperators` bundle per Laplacian kind.  Nothing is built by
:func:`build_graph`.  Graphs compare and hash by identity, so two graphs
built from equal edge lists share no cache.  An operator bundle keeps
the graph's arrays but no reference back to the graph, so a graph that
is dropped is freed at once, with its operators, not at the next run of
the cyclic garbage collector.

Graphs are immutable and safe to share across threads.  Every cached
array is read-only, so a caller cannot change what later calls see.  The
caches take no lock: a concurrent first access may compute an entry
twice, with the same result, and one of the two copies is kept.
"""

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import _kernels


class LaplacianKind(Enum):
    COMBINATORIAL = "combinatorial"
    SYM_NORMALIZED = "sym_normalized"
    SELF_LOOP_SYM = "self_loop_sym"


def _read_only(arr):
    arr.flags.writeable = False
    return arr


def _read_only_csr(mat):
    for arr in (mat.data, mat.indices, mat.indptr):
        _read_only(arr)
    return mat


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple undirected graph with unit edge weights.

    ``edges`` is an (m, 2) int array with u < v per row, sorted
    lexicographically and deduplicated.  ``adjacency`` is the symmetric
    CSR matrix implied by it.
    """

    n: int
    edges: np.ndarray
    adjacency: sp.csr_matrix = field(repr=False)
    _operators: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def m(self):
        return self.edges.shape[0]

    @cached_property
    def degrees(self):
        return _read_only(np.asarray(self.adjacency.sum(axis=1)).ravel())

    def operators(self, kind):
        """The cached operator bundle of this graph under ``kind``."""
        ops = self._operators.get(kind)
        if ops is None:
            if not isinstance(kind, LaplacianKind):
                raise ValueError(f"unknown Laplacian kind {kind}")
            ops = self._operators.setdefault(kind, GraphOperators(self, kind))
        return ops


class GraphOperators:
    """The operators of one graph under one Laplacian kind, each built on
    first use and kept: the incidence view (with its CSR ``B`` and
    ``B.T``), the Laplacian, the propagation matrix and their spectral
    norms.  The bundle keeps the graph's arrays, not the graph, so the
    two form no reference cycle."""

    def __init__(self, g, kind):
        self.n, self.edges, self.adjacency = g.n, g.edges, g.adjacency
        self.degrees = g.degrees
        self.kind = kind

    @cached_property
    def incidence(self):
        kind, d = self.kind, self.degrees
        eu, ev = self.edges[:, 0], self.edges[:, 1]
        extra = np.zeros(0, dtype=np.int64)
        if kind is LaplacianKind.COMBINATORIAL:
            s = np.ones(self.n)
        elif kind is LaplacianKind.SYM_NORMALIZED:
            s = _inv_sqrt(d)
            extra = np.flatnonzero(d == 0)
        else:
            # self-loop mass keeps D~^{-1/2}(D - A)D~^{-1/2} = I - D~^{-1/2}A~D~^{-1/2}
            s = _inv_sqrt(d + 1.0)
        return IncidenceView(kind, self.n, eu, ev, _read_only(s[eu]), _read_only(s[ev]),
                             _read_only(extra))

    @cached_property
    def laplacian(self):
        kind, d, adj = self.kind, self.degrees, self.adjacency
        eye = sp.identity(self.n, format="csr")
        if kind is LaplacianKind.COMBINATORIAL:
            lap = sp.diags(d) - adj
        elif kind is LaplacianKind.SYM_NORMALIZED:
            s = _inv_sqrt(d)
            lap = eye - sp.diags(s) @ adj @ sp.diags(s)
        else:
            s = _inv_sqrt(d + 1.0)
            lap = eye - sp.diags(s) @ (adj + eye) @ sp.diags(s)
        return _read_only_csr(lap.tocsr())

    @cached_property
    def propagation(self):
        p = sp.identity(self.n, format="csr") - self.laplacian
        return _read_only_csr(p.tocsr())

    @cached_property
    def laplacian_norm(self):
        return spectral_norm(self.laplacian)

    @cached_property
    def propagation_norm(self):
        """||P||, exactly 1 under the normalized kinds: P is symmetric with
        spectrum in [-1, 1], and D~^{1/2} 1 on any component with an edge
        is an eigenvector at 1.  Under SYM_NORMALIZED an isolated node has
        a zero row, so P = 0 when m = 0; under SELF_LOOP_SYM it keeps
        P_ii = 1."""
        if self.kind is LaplacianKind.COMBINATORIAL:
            return spectral_norm(self.propagation)
        if self.kind is LaplacianKind.SYM_NORMALIZED:
            return 1.0 if self.edges.shape[0] else 0.0
        return 1.0 if self.n else 0.0


@dataclass(frozen=True, eq=False)
class IncidenceView:
    """Edge-row factorization B with B.T @ B equal to a chosen Laplacian.

    The first ``n_edge_rows`` rows correspond to graph edges: row k for
    edge (u, v) carries +scale at u and -scale at v.  Under
    SYM_NORMALIZED, isolated nodes get one extra unit row each so the
    factorization reproduces the e_i convention of the Laplacian; the
    energy and propagation code only ever consume the edge rows, through
    the CSR matrices ``b`` (edge rows of B) and ``bt`` (their transpose),
    and their unit-scaled counterparts ``b_raw`` and ``bt_raw``.
    """

    kind: LaplacianKind
    n: int
    eu: np.ndarray
    ev: np.ndarray
    su: np.ndarray
    sv: np.ndarray
    extra_rows: np.ndarray

    @property
    def n_edge_rows(self):
        return self.eu.shape[0]

    @property
    def rows(self):
        return self.n_edge_rows + self.extra_rows.shape[0]

    @cached_property
    def b(self):
        return _edge_rows(self.n, self.eu, self.ev, self.su, self.sv)

    @cached_property
    def bt(self):
        return _read_only_csr(self.b.T.tocsr())

    @cached_property
    def b_raw(self):
        if self.kind is LaplacianKind.COMBINATORIAL:
            return self.b
        ones = np.ones(self.n_edge_rows)
        return _edge_rows(self.n, self.eu, self.ev, ones, ones)

    @cached_property
    def bt_raw(self):
        return self.bt if self.b_raw is self.b else _read_only_csr(self.b_raw.T.tocsr())

    def matrix(self):
        """Materialize B as a sparse matrix (tests and small solves)."""
        m = self.n_edge_rows
        q = self.extra_rows.shape[0]
        rows = np.concatenate([np.arange(m), np.arange(m)])
        cols = np.concatenate([self.eu, self.ev])
        vals = np.concatenate([self.su, -self.sv])
        if q:
            rows = np.concatenate([rows, m + np.arange(q)])
            cols = np.concatenate([cols, self.extra_rows])
            vals = np.concatenate([vals, np.ones(q)])
        return sp.csr_matrix((vals, (rows, cols)), shape=(m + q, self.n))

    def apply(self, y):
        """B @ y restricted to the edge rows."""
        return _kernels.edge_diff(y, self.b)

    def apply_t(self, e):
        """B.T @ e for edge-row inputs."""
        return _kernels.edge_scatter(e, self.bt)

    def weighted_laplacian_apply(self, y, gamma):
        """B.T @ diag(gamma) @ B @ y over the edge rows."""
        return _kernels.weighted_lap_apply(y, gamma, self.b, self.bt)

    def edge_sqnorm(self, y):
        return _kernels.edge_sqnorm(y, self.b)

    def raw_edge_sqnorm(self, y):
        """Unscaled ||y_u - y_v||^2 per edge, whatever the kind."""
        return _kernels.edge_sqnorm(y, self.b_raw)

    def raw_apply(self, y):
        """Unscaled endpoint differences y_u - y_v per edge."""
        return _kernels.edge_diff(y, self.b_raw)

    def raw_apply_t(self, e):
        """Transpose of raw_apply (unit-scaled scatter)."""
        return _kernels.edge_scatter(e, self.bt_raw)

    def edge_quadform(self, y, w):
        return _kernels.edge_quadform(y, w, self.b)


def _edge_rows(n, eu, ev, su, sv):
    """CSR edge rows of B: row k is +su[k] at eu[k], -sv[k] at ev[k]."""
    m = eu.shape[0]
    b = sp.csr_matrix((np.column_stack([su, -sv]).ravel(),
                       np.column_stack([eu, ev]).ravel(),
                       np.arange(0, 2 * m + 1, 2)), shape=(m, n))
    return _read_only_csr(b)


class GraphError(ValueError):
    pass


def build_graph(n, edge_pairs, self_loops="strip", duplicates="dedup"):
    """Validate an edge list and build the canonical Graph.

    self_loops: "strip" drops (u, u) pairs, "error" rejects them.
    duplicates: "dedup" collapses repeats, "error" rejects them.
    """
    if n < 0:
        raise GraphError("node count must be nonnegative")
    pairs = np.asarray(edge_pairs, dtype=np.int64).reshape(-1, 2)
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        bad = pairs[(pairs < 0).any(axis=1) | (pairs >= n).any(axis=1)][0]
        raise GraphError(f"edge ({bad[0]}, {bad[1]}) out of range for n={n}")
    loops = pairs[:, 0] == pairs[:, 1]
    if loops.any():
        if self_loops == "error":
            u = pairs[loops][0, 0]
            raise GraphError(f"self-loop at node {u}")
        pairs = pairs[~loops]
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    pairs = np.stack([lo, hi], axis=1)
    if pairs.shape[0]:
        uniq, counts = np.unique(pairs, axis=0, return_counts=True)
        if duplicates == "error" and (counts > 1).any():
            u, v = uniq[counts > 1][0]
            raise GraphError(f"duplicate edge ({u}, {v})")
        pairs = uniq
    adj = sp.csr_matrix((n, n))
    if pairs.shape[0]:
        ones = np.ones(pairs.shape[0])
        adj = sp.csr_matrix(
            (np.concatenate([ones, ones]),
             (np.concatenate([pairs[:, 0], pairs[:, 1]]),
              np.concatenate([pairs[:, 1], pairs[:, 0]]))),
            shape=(n, n),
        )
    return Graph(n=n, edges=_read_only(pairs), adjacency=_read_only_csr(adj))


def read_edge_list(path, n=None):
    """Parse a "u<TAB>v" edge-list file ('#' comments, 0-indexed)."""
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t") if "\t" in line else line.split()
            if len(parts) != 2:
                raise GraphError(f"{path}:{lineno}: expected 'u<TAB>v', got {line!r}")
            try:
                pairs.append((int(parts[0]), int(parts[1])))
            except ValueError:
                raise GraphError(f"{path}:{lineno}: non-integer endpoint in {line!r}")
    if n is None:
        n = 1 + max((max(u, v) for u, v in pairs), default=-1)
    return build_graph(n, pairs)


def write_edge_list(g, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# u<TAB>v edge list, 0-indexed\n")
        for u, v in g.edges:
            fh.write(f"{u}\t{v}\n")


def _inv_sqrt(deg):
    # zero-degree entries map to 0 (isolated-node convention)
    out = np.zeros_like(deg, dtype=float)
    nz = deg > 0
    out[nz] = 1.0 / np.sqrt(deg[nz])
    return out


def laplacian(g, kind):
    """Selected Laplacian as sparse CSR (symmetric, PSD), cached and
    read-only.

    COMBINATORIAL: D - A.  SYM_NORMALIZED: I - D^{-1/2} A D^{-1/2},
    with the row of an isolated node set to e_i.  SELF_LOOP_SYM uses
    A + I and its degrees.
    """
    return g.operators(kind).laplacian


def propagation_matrix(g, kind):
    """I minus the selected Laplacian (so P row of an isolated node is 0
    under SYM_NORMALIZED, and D~^{-1/2} A~ D~^{-1/2} under SELF_LOOP_SYM);
    cached and read-only."""
    return g.operators(kind).propagation


def incidence(g, kind):
    """Edge-row incidence view whose B.T @ B equals laplacian(g, kind);
    cached, with read-only arrays.

    Sign convention: edge (u, v) with u < v carries + at u, - at v.
    """
    return g.operators(kind).incidence


def spectral_norm(mat):
    """Largest singular value of a dense array or sparse matrix.

    Dense input, and sparse input with a side below 3, gets LAPACK's SVD
    (exact).  Other sparse input gets ARPACK's Lanczos solve through
    ``svds``, converged to machine precision, from a fixed seeded start
    vector so that repeated calls agree.  (A vector of ones would be
    zero after one product with the combinatorial Laplacian.)
    """
    if sp.issparse(mat) and min(mat.shape) >= 3:
        if not np.any(mat.data):
            return 0.0
        v0 = np.random.default_rng(0).standard_normal(min(mat.shape))
        return float(spla.svds(mat, k=1, v0=v0, return_singular_vectors=False)[0])
    dense = mat.toarray() if sp.issparse(mat) else np.asarray(mat, dtype=float)
    return float(np.linalg.norm(dense, 2))


def homophily_ratio(g, labels):
    """Fraction of edges whose endpoints share a label."""
    labels = np.asarray(labels)
    if labels.shape[0] != g.n:
        raise GraphError("labels length must equal node count")
    if g.m == 0:
        raise GraphError("homophily ratio undefined for an empty edge set")
    same = labels[g.edges[:, 0]] == labels[g.edges[:, 1]]
    return float(np.mean(same))
