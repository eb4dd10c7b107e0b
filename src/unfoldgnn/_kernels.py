"""Sparse products shared by the propagation engines.

Every edge quantity is a product with the edge-row incidence matrix
``B`` of a graph (row k for edge (u, v) carries +su at u and -sv at v)
or with ``B.T``, both held as CSR by the graph's cached incidence view,
so the graph modules never materialize dense n x n operators and never
loop over edges in Python.

Operation counts are analytic: each call adds a fixed multiple of
(edges x columns) to the counter, whatever the product's implementation.
"""

import numpy as np
import scipy.sparse as sp

# the one implementation: numpy arrays with scipy.sparse CSR products
BACKEND = "numpy"

_FLOPS = {"edge": 0, "dense": 0}


def reset_op_counter():
    _FLOPS["edge"] = 0
    _FLOPS["dense"] = 0


def op_counter():
    """Multiply-accumulate counts since the last reset, keyed by kind."""
    return dict(_FLOPS)


def count_dense(nflops):
    _FLOPS["dense"] += int(nflops)


def edge_diff(y, b):
    """Rows of B @ y: one scaled endpoint difference per edge."""
    _FLOPS["edge"] += 2 * b.shape[0] * y.shape[1]
    return b @ y


def edge_scatter(e, bt):
    """B.T @ e for one row of e per edge."""
    _FLOPS["edge"] += 2 * e.shape[0] * e.shape[1]
    return bt @ e


def weighted_lap_apply(y, gamma, b, bt):
    """B.T @ diag(gamma) @ B @ y."""
    _FLOPS["edge"] += 5 * b.shape[0] * y.shape[1]
    e = b @ y
    e *= gamma[:, None]  # in place: a fresh m x d temporary costs more than the product
    return bt @ e


def edge_sqnorm(y, b):
    """Per-edge squared norm of the incidence difference."""
    _FLOPS["edge"] += 4 * b.shape[0] * y.shape[1]
    e = b @ y
    return np.einsum("ij,ij->i", e, e)


def edge_quadform(y, w, b):
    """Per-edge quadratic form z_e @ w @ z_e.T of the incidence rows."""
    _FLOPS["edge"] += b.shape[0] * y.shape[1] * (2 * y.shape[1] + 3)
    e = b @ y
    return np.einsum("ij,jk,ik->i", e, w, e)


def weighted_adj_apply(y, gamma, eu, ev, n):
    """A_gamma @ y for the symmetric adjacency that carries weight
    gamma[k] on edge (eu[k], ev[k]) and has no diagonal."""
    _FLOPS["edge"] += 4 * eu.shape[0] * y.shape[1]
    a_gamma = sp.csr_matrix((np.concatenate([gamma, gamma]),
                             (np.concatenate([eu, ev]), np.concatenate([ev, eu]))),
                            shape=(n, n))
    return a_gamma @ y
