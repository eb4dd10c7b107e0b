"""Sparse undirected graphs and the operators derived from them.

A :class:`Graph` stores a deduplicated, canonically ordered edge list.
:func:`build_graph` sorts and deduplicates the pairs as int64 keys
lo * n + hi in O(m log m), so a graph has at most 3_037_000_499 nodes,
the largest n with n * n in int64, and builds nothing beyond the edges.
Everything downstream (degrees, the CSR adjacency, Laplacians, incidence
factorizations, propagation operators, their spectral norms) is derived
from the edges alone, so each is built on first use and cached: the
degrees, the adjacency and the unit-scale incidence once per graph, and
per Laplacian kind one :class:`GraphOperators` bundle holding B, L, P and
their norms.  The graph has one incidence index structure: every kind's
B is built on the unit incidence's column indices and row pointers, and
stores only its own scaled entries, from which its edge scales are read
as views.  B.T is B's transpose view, not a copy.  One symmetric CSR
assembly, from the edge list, builds every operator matrix: the adjacency,
each L and P from its incidence view's scales, and the reweighted
Laplacians L_gamma = B.T diag(gamma) B the unfolded layers apply, so each
comes out with sorted indices, exactly symmetric and without a stored
zero; only a caller that reads ``adjacency`` builds the adjacency, and the
engine never does.  Graphs compare and hash by identity, so two graphs
built from equal edge lists share no cache.  An operator bundle shares
the graph's arrays but keeps no reference back to the graph, so a graph
that is dropped is freed at once, with its operators, not at the next
run of the cyclic garbage collector.

Graphs are immutable and safe to share across threads.  Every cached
array is read-only, so a caller cannot change what later calls see.  The
caches take no lock: a concurrent first access may compute an entry
twice, with the same result, and one of the two copies is kept.
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import _kernels
from .artifacts import text_lines


class LaplacianKind(Enum):
    COMBINATORIAL = "combinatorial"
    SYM_NORMALIZED = "sym_normalized"
    SELF_LOOP_SYM = "self_loop_sym"

    @classmethod
    def _missing_(cls, value):
        raise ValueError(f"unknown laplacian kind {value!r}")


def _read_only(arr):
    arr.flags.writeable = False
    return arr


def _read_only_csr(mat):
    for arr in (mat.data, mat.indices, mat.indptr):
        _read_only(arr)
    return mat


class _GraphArrays:
    """A graph's node count and edges, with the degrees, the adjacency and
    the unit-scale incidence built from them on first read.  The graph and
    its operator bundles share one, so each is built once per graph, and it
    refers to neither."""

    def __init__(self, n, edges):
        self.n, self.edges = n, edges

    @cached_property
    def degrees(self):
        """The adjacency's row sums, counted from the edges: exact in float64."""
        return _read_only(np.bincount(self.edges.ravel(), minlength=self.n).astype(float))

    @cached_property
    def adjacency(self):
        return _symmetric_csr(self.edges, np.ones(self.edges.shape[0]), np.zeros(self.n))

    @cached_property
    def incidence(self):
        """The unit-scale incidence view, COMBINATORIAL's: row k carries +1
        at u and -1 at v for edge k = (u, v).  Every kind's B is built on
        its column indices and row pointers.  The indices are int32 where
        the node and entry counts allow, as scipy would cast them."""
        m = self.edges.shape[0]
        idx = np.int32 if max(self.n, 2 * m) <= np.iinfo(np.int32).max else np.int64
        data, cols = np.empty((m, 2)), np.empty((m, 2), dtype=idx)
        data[:], cols[:] = (1.0, -1.0), self.edges
        return IncidenceView(LaplacianKind.COMBINATORIAL, self.edges, _edge_rows(
            self.n, data, cols, _read_only(np.arange(0, 2 * m + 1, 2, dtype=idx))))


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple undirected graph with unit edge weights.

    ``edges`` is an (m, 2) int array with u < v per row, sorted
    lexicographically and deduplicated.  ``adjacency`` is the symmetric
    CSR matrix implied by it, built on first read.
    """

    n: int
    edges: np.ndarray
    _arrays: _GraphArrays = field(init=False, repr=False)
    _operators: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_arrays", _GraphArrays(self.n, self.edges))

    @property
    def m(self):
        return self.edges.shape[0]

    @property
    def degrees(self):
        return self._arrays.degrees

    @property
    def adjacency(self):
        return self._arrays.adjacency

    def operators(self, kind):
        """The cached operator bundle of this graph under ``kind``."""
        ops = self._operators.get(kind)
        if ops is None:
            if not isinstance(kind, LaplacianKind):
                raise ValueError(f"unknown Laplacian kind {kind}")
            ops = self._operators.setdefault(kind, GraphOperators(self._arrays, kind))
        return ops


class GraphOperators:
    """The operators of one graph under one Laplacian kind, each built on
    first use and kept: the node scale, the incidence view (with its CSR
    ``B``; ``B.T`` is a view of it), the Laplacian assembled from that
    view's scales, the propagation matrix P = I - L assembled from the same
    entries rather than subtracted from I (so reading P builds no L), their
    spectral norms and the certified O(m) bound on the Laplacian's.  The
    bundle shares the graph's arrays, not the graph, so the two form no
    reference cycle."""

    def __init__(self, arrays, kind):
        self.n, self.edges = arrays.n, arrays.edges
        self._arrays = arrays
        self.kind = kind

    @cached_property
    def scale(self):
        """The node scale s of this kind's incidence rows, read-only: ones
        under COMBINATORIAL, D^{-1/2} (0 at an isolated node) under
        SYM_NORMALIZED and D~^{-1/2} = (D + I)^{-1/2} under SELF_LOOP_SYM."""
        d = self._arrays.degrees
        if self.kind is LaplacianKind.COMBINATORIAL:
            s = np.ones(self.n)
        elif self.kind is LaplacianKind.SYM_NORMALIZED:
            s = _inv_sqrt(d)
        else:
            # self-loop mass keeps D~^{-1/2}(D - A)D~^{-1/2} = I - D~^{-1/2}A~D~^{-1/2}
            s = _inv_sqrt(d + 1.0)
        return _read_only(s)

    @cached_property
    def incidence(self):
        unit = self._arrays.incidence
        if self.kind is LaplacianKind.COMBINATORIAL:
            return unit
        data = self.scale[self.edges]
        np.negative(data[:, 1], out=data[:, 1])
        return IncidenceView(self.kind, self.edges, _edge_rows(
            self.n, data, unit.b.indices, unit.b.indptr), unit)

    @cached_property
    def laplacian(self):
        """This kind's Laplacian as sparse CSR (symmetric, PSD), read-only:
        B.T @ B over the incidence view's edge rows, so an isolated node's
        row and column are zero.  COMBINATORIAL: D - A.  SYM_NORMALIZED:
        I - D^{-1/2} A D^{-1/2}, with the identity's entry dropped at an
        isolated node (L_ii = 1 only where d_i > 0, as in Chung's
        normalized Laplacian).  SELF_LOOP_SYM: I - D~^{-1/2} (A + I) D~^{-1/2}
        with D~ = D + I.  Built from :meth:`_laplacian_entries`."""
        return _symmetric_csr(self.edges, *self._laplacian_entries())

    @cached_property
    def propagation(self):
        """P = I - L as CSR, read-only, from L's entries without building L:
        their negatives off the diagonal and 1 - L_ii on it."""
        off, diag = self._laplacian_entries()
        return _symmetric_csr(self.edges, -off, 1.0 - diag)

    def _laplacian_entries(self):
        """L's entry -(s_u s_v) of each edge and its diagonal, d_i, 1 where
        d_i > 0, or 1 - s_i s_i by kind, read from the incidence view's
        scales without the adjacency: the entries of D - A and its
        normalized forms, bit for bit."""
        view, d = self.incidence, self._arrays.degrees
        if self.kind is LaplacianKind.COMBINATORIAL:
            diag = d
        elif self.kind is LaplacianKind.SYM_NORMALIZED:
            diag = (d > 0).astype(float)
        else:
            diag = 1.0 - self.scale * self.scale
        # su * (-sv) is -(su * sv) bit for bit: IEEE products are sign-symmetric
        return view.su * view.b.data[1::2], diag

    def weighted_laplacian(self, gamma, scale=None):
        """L_gamma = B.T diag(gamma) B over the edge rows of B at node scale
        ``scale`` (this kind's by default), as read-only CSR from the same
        symmetric assembly as L: -gamma_k s_u s_v at edge k = (u, v) and s_i^2
        times the gamma-weighted degree at (i, i), each zero left out."""
        s = self.scale if scale is None else scale
        _kernels.count_edge(6 * self.edges.shape[0])
        return _symmetric_csr(self.edges, -gamma * (s[self.edges[:, 0]] * s[self.edges[:, 1]]),
                              s * s * self._arrays.incidence.weighted_degrees(gamma))

    @cached_property
    def laplacian_norm(self):
        return spectral_norm(self.laplacian)

    @cached_property
    def laplacian_norm_bound(self):
        """The certified O(m) upper bound on ||L|| of
        :meth:`IncidenceView.norm_bound` at unit edge weights."""
        return self.incidence.norm_bound(np.ones(self.incidence.n_edge_rows))

    @cached_property
    def propagation_norm(self):
        """||P|| for P = I - L, read from ||L|| without a solve of its own
        (0 when n = 0).  Under COMBINATORIAL the spectrum of L lies in
        [0, ||L||] and holds both ends (L 1 = 0), so ||P|| is
        max(1, ||L|| - 1), as exact as ||L||.  Under the normalized kinds
        it is exactly 1: P is symmetric with spectrum in [-1, 1], D^{1/2} 1
        (D~^{1/2} 1 under SELF_LOOP_SYM) on any component with an edge is
        an eigenvector at 1, and an isolated node's row of P is e_i."""
        if not self.n:
            return 0.0
        if self.kind is LaplacianKind.COMBINATORIAL:
            return max(1.0, self.laplacian_norm - 1.0)
        return 1.0


@dataclass(frozen=True, eq=False)
class IncidenceView:
    """Edge-row factorization B with B.T @ B equal to the Laplacian of
    its kind.

    Row k, for edge (u, v) = edges[k], carries +su[k] at u and -sv[k] at
    v; B has one row per edge and none else, so an isolated node's row and
    column of B.T @ B are zero under every kind.  ``b`` is B as CSR, the
    view's only storage: its entries interleave (+su, -sv) per row, so
    ``su`` is the strided view ``b.data[0::2]`` and -sv is ``b.data[1::2]``,
    and its column indices and row pointers are the graph's unit-scale
    incidence's, shared by every kind.  ``bt`` is B's transpose view, a CSC
    over the same arrays: its products sum each node's edges in ascending
    edge order from zero, as a CSR copy's would.  ``raw`` is the unit-scale
    view of the same edges: this view under COMBINATORIAL, ``unit`` else.
    """

    kind: LaplacianKind
    edges: np.ndarray
    b: sp.csr_matrix
    unit: "IncidenceView | None" = field(default=None, repr=False)

    @property
    def n(self):
        return self.b.shape[1]

    @property
    def n_edge_rows(self):
        return self.b.shape[0]

    @property
    def eu(self):
        return self.edges[:, 0]

    @property
    def ev(self):
        return self.edges[:, 1]

    @property
    def su(self):
        """Each edge row's scale at its first endpoint, a view of B's entries."""
        return self.b.data[0::2]

    @property
    def bt(self):
        """B.T as B's transpose view: CSC over B's own arrays, no copy."""
        return self.b.T

    @property
    def raw(self):
        """The unit-scale view of the same edges (row k carries +1 at eu[k]
        and -1 at ev[k]), whatever the kind: this view under COMBINATORIAL."""
        return self if self.unit is None else self.unit

    def apply(self, y):
        """B @ y restricted to the edge rows."""
        return _kernels.edge_diff(y, self.b)

    def apply_t(self, e):
        """B.T @ e for edge-row inputs."""
        return _kernels.edge_scatter(e, self.bt)

    def weighted_degrees(self, w):
        """Each node's sum of the edge weights w over its edges."""
        return np.bincount(self.eu, weights=w, minlength=self.n) \
            + np.bincount(self.ev, weights=w, minlength=self.n)

    def norm_bound(self, gamma):
        """Certified upper bound on ||B.T diag(gamma) B|| over the edge rows,
        in O(m): max over edges (u, v) of s_u^2 d(u) + s_v^2 d(v), where s is
        the incidence scale and d(i) sums |gamma| over the edges at i.

        ||B.T G B|| <= rho(|B|.T |G| |B|), whose nonzero spectrum is that of
        the nonnegative |B| |B|.T |G|; row e of that matrix sums to the
        expression above, and the largest row sum bounds the spectral
        radius.  For gamma >= 0 it is at most twice the norm, since each
        s_i^2 d(i) is a diagonal entry of B.T G B; it is exact on a single
        edge and 1.2-1.9x the norm on the random graphs tried.
        """
        if self.n_edge_rows == 0:
            return 0.0
        # rho'(z^2) can be negative (cosine rho)
        d, eu, ev = self.weighted_degrees(np.abs(gamma)), self.eu, self.ev
        if self.raw is self:  # unit scales: s_i^2 d(i) is d(i)
            return float(np.max(d[eu] + d[ev]))
        # (-sv)^2 is sv^2 bit for bit
        return float(np.max(self.su ** 2 * d[eu] + self.b.data[1::2] ** 2 * d[ev]))


def _symmetric_csr(edges, off, diag):
    """The symmetric n x n CSR (n = diag's length), read-only, with off[k]
    at (u, v) and (v, u) for edge k = (u, v) and diag[i] at (i, i), in one
    COO to CSR build; every zero entry is left out.  The sorted edges, fed
    lower triangle, diagonal, upper triangle, fill each row in column order,
    so the CSR comes out canonical and scipy sorts nothing."""
    nodes, keep = np.flatnonzero(diag), off != 0
    (eu, ev), off = edges[keep].T, off[keep]
    mat = sp.coo_matrix((np.concatenate([off, diag[nodes], off]),
                         (np.concatenate([ev, nodes, eu]), np.concatenate([eu, nodes, ev]))),
                        shape=(diag.shape[0],) * 2)
    return _read_only_csr(mat.tocsr())


def _edge_rows(n, data, indices, indptr):
    """B as CSR over its arrays, made read-only and not copied: row k holds
    the entries data[k] at the columns indices[k] (data an (m, 2) array,
    indices one too or its flat form), and ``indptr`` is the read-only
    0, 2, ..., 2m."""
    data, indices = (_read_only(arr).reshape(-1) for arr in (data, indices))
    return sp.csr_matrix((data, indices, indptr), shape=(indptr.shape[0] - 1, n))


class GraphError(ValueError):
    pass


# the largest node count whose edge keys lo * n + hi fit in int64
MAX_NODES = math.isqrt(np.iinfo(np.int64).max)


def edge_keys(n, lo, hi):
    """The int64 key lo * n + hi of each pair with 0 <= lo, hi < n.  The
    keys sort exactly like the (lo, hi) rows, and divmod(key, n) gives
    the pair back.  Raises GraphError, before any array is made, when
    n * n would overflow int64 (n > MAX_NODES = 3_037_000_499)."""
    if n > MAX_NODES:
        raise GraphError(f"node count {n} exceeds {MAX_NODES}: its edge keys would overflow int64")
    return lo * n + hi


def build_graph(n, edge_pairs):
    """Validate an edge list and build the canonical Graph, in
    O(m log m): self-loops (u, u) are dropped, and the canonical pairs
    are sorted and deduplicated as their int64 :func:`edge_keys`, so n
    may not exceed MAX_NODES.  Only the edges are built; the adjacency
    and every operator wait for their first read.
    """
    if n < 0:
        raise GraphError("node count must be nonnegative")
    pairs = np.asarray(edge_pairs, dtype=np.int64).reshape(-1, 2)
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        bad = pairs[(pairs < 0).any(axis=1) | (pairs >= n).any(axis=1)][0]
        raise GraphError(f"edge ({bad[0]}, {bad[1]}) out of range for n={n}")
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    # with return_counts np.unique sorts; without it, numpy 2.4 takes a path
    # about 15x slower on int64 keys
    keys, _ = np.unique(edge_keys(n, lo, hi)[lo != hi], return_counts=True)
    return Graph(n=n, edges=_read_only(np.stack(np.divmod(keys, n), axis=1)))


def read_edge_list(path, n=None):
    """Parse a "u<TAB>v" edge-list file ('#' comments, 0-indexed)."""
    pairs = []
    for where, line in text_lines(path, GraphError):
        parts = line.split("\t") if "\t" in line else line.split()
        if len(parts) != 2:
            raise GraphError(f"{where}: expected 'u<TAB>v', got {line!r}")
        try:
            pair = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"{where}: non-integer endpoint in {line!r}")
        if min(pair) < 0:
            raise GraphError(f"{where}: negative endpoint in {line!r}")
        if n is not None and max(pair) >= n:
            raise GraphError(f"{where}: edge {pair} out of range for n={n}")
        pairs.append(pair)
    if n is None:
        n = 1 + max((max(u, v) for u, v in pairs), default=-1)
    return build_graph(n, pairs)


def write_edge_list(g, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# u<TAB>v edge list, 0-indexed\n")
        for u, v in g.edges:
            fh.write(f"{u}\t{v}\n")


def _inv_sqrt(deg):
    # zero-degree entries map to 0, so an isolated node's edge-row scale is 0
    out = np.zeros_like(deg, dtype=float)
    nz = deg > 0
    out[nz] = 1.0 / np.sqrt(deg[nz])
    return out


def propagation_matrix(g, kind):
    """I minus the selected Laplacian, cached and read-only: an isolated
    node's row is e_i under every kind, and the rest is
    D^{-1/2} A D^{-1/2} under SYM_NORMALIZED and D~^{-1/2} (A + I) D~^{-1/2}
    under SELF_LOOP_SYM."""
    return g.operators(kind).propagation


def incidence(g, kind):
    """Edge-row incidence view whose B.T @ B equals the Laplacian
    ``g.operators(kind).laplacian``; cached, with read-only arrays.

    Sign convention: edge (u, v) with u < v carries + at u, - at v.
    """
    return g.operators(kind).incidence


def spectral_norm(mat):
    """Largest singular value of a dense array or sparse matrix.

    Dense input, and sparse input with a side below 64, gets LAPACK's SVD
    (exact).  Other sparse input gets :func:`_lanczos_norm`, a numpy
    Lanczos solve in O(n) memory converged to machine precision, so no
    norm loads ``scipy.sparse.linalg``.  Below 64 the recurrence exhausts
    the space within a read and then adds a copy of the top Ritz value
    every few steps, each with its own rounding, so its value creeps from
    read to read (a 4-node matrix read 8 ulps off after 30 steps).
    """
    if sp.issparse(mat) and min(mat.shape) >= 64:
        if not np.any(mat.data):
            return 0.0
        return _lanczos_norm(mat)
    dense = mat.toarray() if sp.issparse(mat) else np.asarray(mat, dtype=float)
    return float(np.linalg.norm(dense, 2))


# A Lanczos solve reads its top Ritz value every max(10, k // 16) steps,
# and gives up past 10 steps per dimension of its Gram matrix (exact
# arithmetic ends within one; random graphs took 20-300 steps, a path
# about 0.8 per node)
_LANCZOS_READ_EVERY = 10
_LANCZOS_STEPS_PER_DIM = 10
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


def _lanczos_norm(mat):
    """||mat|| for a nonzero sparse matrix: the square root of the top
    eigenvalue of its Gram matrix on the shorter side (mat.T @ mat or
    mat @ mat.T), by the plain three-term Lanczos recurrence from
    ``default_rng(0)``'s normal vector, so repeated calls agree (a vector
    of ones would be zero after one product with the combinatorial
    Laplacian).

    Only the current and previous Lanczos vectors are kept: O(n) memory,
    no basis.  Without reorthogonalization they lose orthogonality in
    finite precision, which only adds copies of converged Ritz values and
    leaves the top one intact (Paige's analysis of the Lanczos process).
    The top eigenvalue of the tridiagonal matrix is read by bisection
    (:func:`_tridiagonal_top`) every max(10, k // 16) steps, so a long
    solve overshoots its convergence by at most a sixteenth.  The solve stops when that value has moved by
    at most four roundings since the last read (each copy of it carries
    its own rounding) or when the recurrence breaks down (the Krylov space
    is invariant, so the value is exact), and raises RuntimeError past its
    step cap, as ARPACK does when it fails to converge.
    """
    a = mat if mat.shape[0] >= mat.shape[1] else mat.T
    at = a.T
    q = np.random.default_rng(0).standard_normal(a.shape[1])
    q /= np.linalg.norm(q)
    q_prev = np.zeros_like(q)
    alphas, betas2 = [], [0.0]
    theta = reach = beta = alpha_max = 0.0
    max_steps = _LANCZOS_STEPS_PER_DIM * q.size
    read_at = _LANCZOS_READ_EVERY
    for k in range(1, max_steps + 1):
        w = at @ (a @ q)
        w -= beta * q_prev
        alpha = float(q @ w)
        w -= alpha * q
        beta = float(np.linalg.norm(w))
        alphas.append(alpha)
        alpha_max = max(alpha_max, alpha)
        broke_down = beta <= _EPS * alpha_max
        if broke_down or k == read_at:
            # the first read brackets the top between 0 (the Gram matrix is
            # PSD) and Gershgorin's bound; later ones guess from the last move
            top = _tridiagonal_top(alphas, betas2, theta,
                                   reach or alpha_max + 2.0 * math.sqrt(max(betas2)))
            if broke_down or top - theta <= 4.0 * _EPS * top:
                return math.sqrt(top)
            theta, reach = top, 2.0 * (top - theta)
            read_at = k + max(_LANCZOS_READ_EVERY, k // 16)
        betas2.append(beta * beta)
        w /= beta
        q_prev, q = q, w
    raise RuntimeError(f"Lanczos norm did not converge in {max_steps} steps")


def _tridiagonal_top(alphas, betas2, lo, reach):
    """The largest eigenvalue of the symmetric tridiagonal matrix with
    diagonal ``alphas`` and squared off-diagonal ``betas2[1:]``
    (``betas2[0]`` is 0), to within adjacent floats, by bisection on
    Sturm counts in O(k) time per count and O(1) memory beyond the
    entries.  ``lo`` bounds the eigenvalue from below and ``lo + reach``
    is a first guess at an upper bound (reach > 0 unless lo is the
    eigenvalue); a guess still below it becomes the new lower bound, and
    the bracket triples until its top end is above."""
    hi = lo + reach
    while _has_eigenvalue_above(alphas, betas2, hi):
        lo, hi = hi, hi + 2.0 * (hi - lo)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _has_eigenvalue_above(alphas, betas2, mid):
            lo = mid
        else:
            hi = mid
    return hi


def _has_eigenvalue_above(alphas, betas2, x):
    """Whether the tridiagonal matrix has an eigenvalue above x: by
    Sylvester's law of inertia, whether a pivot of the LDL.T factorization
    of T - x I is positive.  A zero pivot is taken as the smallest negative
    normal float, as LAPACK's bisection does."""
    d = 1.0
    for a, b2 in zip(alphas, betas2):
        d = a - x - b2 / (d or -_TINY)
        if d > 0:
            return True
    return False


def homophily_ratio(g, labels):
    """Fraction of edges whose endpoints share a label."""
    labels = np.asarray(labels)
    if labels.shape[0] != g.n:
        raise GraphError("labels length must equal node count")
    if g.m == 0:
        raise GraphError("homophily ratio undefined for an empty edge set")
    same = labels[g.edges[:, 0]] == labels[g.edges[:, 1]]
    return float(np.mean(same))
