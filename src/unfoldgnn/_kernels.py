"""Sparse products shared by the propagation engines.

Every edge quantity is a product with the edge-row incidence matrix
``B`` of a graph (row k for edge (u, v) carries +su at u and -sv at v),
with ``B.T`` (B's CSC transpose view), or with a sparse n x n CSR Laplacian
``L = B.T diag(gamma) B``, which the graph module assembles entry by entry
from the edge list, canonical and exactly symmetric, so the graph modules
never materialize dense n x n operators and never loop over edges in Python.
The per-edge kernels take the incidence rows ``e = B @ y`` from
:func:`edge_diff`, so callers that need several of them at one ``y``
compute the product once.

Operation counts are analytic: each call adds a fixed multiple of
(edges x columns), or of nnz(L) x columns for a product with an
assembled Laplacian, to the calling thread's counter, whatever the
product's implementation; an assembly adds a fixed multiple of the
edges through :func:`count_edge`.  Each thread counts its own calls only,
so a computation run in another thread leaves this thread's counts
unchanged.
"""

import threading

import numpy as np
import scipy.sparse as sp

# the one implementation: numpy arrays with scipy.sparse CSR products
BACKEND = "numpy"


class _Counts(threading.local):
    def __init__(self):
        self.flops = {"edge": 0, "dense": 0}


_COUNTS = _Counts()


def op_counter():
    """Multiply-accumulate counts of this thread's calls, keyed by kind;
    callers measure a computation by the difference across it."""
    return dict(_COUNTS.flops)


def count_dense(nflops):
    _COUNTS.flops["dense"] += int(nflops)


def count_edge(nflops):
    _COUNTS.flops["edge"] += int(nflops)


def edge_diff(y, b):
    """Rows of B @ y: one scaled endpoint difference per edge."""
    _COUNTS.flops["edge"] += 2 * b.shape[0] * y.shape[1]
    return b @ y


def edge_scatter(e, bt):
    """B.T @ e for one row of e per edge."""
    _COUNTS.flops["edge"] += 2 * e.shape[0] * e.shape[1]
    return bt @ e


def weighted_lap_apply(e, gamma, bt):
    """B.T @ diag(gamma) @ e for the incidence rows e = B @ y, which it
    scales in place: a fresh m x d temporary costs more than the product."""
    _COUNTS.flops["edge"] += 3 * e.shape[0] * e.shape[1]
    e *= gamma[:, None]
    return bt @ e


def lap_apply(y, lap):
    """lap @ y for an assembled sparse Laplacian."""
    _COUNTS.flops["edge"] += 2 * lap.nnz * y.shape[1]
    return lap @ y


def edge_sqnorm(e):
    """Per-edge squared norm of the incidence rows e = B @ y."""
    _COUNTS.flops["edge"] += 2 * e.shape[0] * e.shape[1]
    return np.einsum("ij,ij->i", e, e)


def edge_quadform(e, w):
    """Per-edge quadratic form z_e @ w @ z_e.T of the incidence rows e = B @ y."""
    _COUNTS.flops["edge"] += e.shape[0] * e.shape[1] * (2 * e.shape[1] + 1)
    return np.einsum("ij,jk,ik->i", e, w, e)


def weighted_adj_apply(y, gamma, eu, ev, n):
    """A_gamma @ y for the symmetric adjacency that carries weight
    gamma[k] on edge (eu[k], ev[k]) and has no diagonal."""
    _COUNTS.flops["edge"] += 4 * eu.shape[0] * y.shape[1]
    a_gamma = sp.csr_matrix((np.concatenate([gamma, gamma]),
                             (np.concatenate([eu, ev]), np.concatenate([ev, eu]))),
                            shape=(n, n))
    return a_gamma @ y
