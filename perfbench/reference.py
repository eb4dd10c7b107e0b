"""Reference computations for the benchmark's correctness checks.

Everything here is written from the definitions with numpy and scipy and
imports nothing from the package, so every op is checked against what its
output must satisfy, not against a stored copy of an earlier output.  A
speed-up that changes rounding or takes a different number of iterations
still passes; a wrong answer does not.
"""

import math

import numpy as np
import scipy.sparse as sp


def canonical_edges(pairs):
    """The simple undirected edge set of a pair list: self-loops dropped,
    each edge once as (u, v) with u < v, sorted."""
    p = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    p = np.sort(p[p[:, 0] != p[:, 1]], axis=1)
    return np.unique(p, axis=0)


def self_loop_propagation(n, pairs):
    """P = D~^-1/2 (A + I) D~^-1/2, with D~ the degrees of A + I."""
    e = canonical_edges(pairs)
    rows = np.concatenate([e[:, 0], e[:, 1], np.arange(n)])
    cols = np.concatenate([e[:, 1], e[:, 0], np.arange(n)])
    a = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    s = 1.0 / np.sqrt(np.asarray(a.sum(axis=1)).ravel())
    return (sp.diags(s) @ a @ sp.diags(s)).tocsr()


def truncated_lp(zsq, p, tau, big_t):
    """Truncated l_p edge penalty rho(z^2): quadratic below tau^(2-p),
    (2/p) z^p minus an offset up to T^(2-p), constant above."""
    z = np.sqrt(zsq)
    tb, tt = tau ** (2.0 - p), big_t ** (2.0 - p)
    offset = (2.0 - p) / p * tb ** p
    mid = 2.0 / p * z ** p - offset
    return np.where(z < tb, tb ** (p - 2.0) * zsq,
                    np.where(z <= tt, mid, 2.0 / p * tt ** p - offset))


def simple_energy(edges, y, fx, lam, rho):
    """(fidelity, smoothness, penalty) of the simple-mode energy
    ||Y - F||^2 + lam * sum_e rho(||y_u - y_v||^2) + relu indicator(Y)."""
    r = y - fx
    diff = y[edges[:, 0]] - y[edges[:, 1]]
    zsq = np.einsum("ij,ij->i", diff, diff)
    penalty = math.inf if (y < 0).any() else 0.0
    return float(np.sum(r * r)), float(lam * np.sum(rho(zsq))), penalty


def close(a, b, rel):
    """Equal within rel of their size; infinities must match exactly."""
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# The residuals below work in place on one n x d temporary at a time, so
# that a check's memory high-water mark stays under the op's and the
# process's peak RSS remains the program's figure.

def relu_fixed_point_residual(p, w, fx, y):
    """||relu(P Y W + F) - Y||: zero exactly at the fixed point."""
    z = (p @ y) @ w
    z += fx
    np.maximum(z, 0.0, out=z)
    z -= y
    return float(np.linalg.norm(z))


def relu_adjoint_residual(p, w, fx, y, upstream, grad_fx):
    """Residual of the adjoint system at the returned gradient.

    With D the relu derivative at the fixed point and V the adjoint state,
    V = G + P^T (D * V) W^T and grad_f = D * V, so grad_f must satisfy
    grad_f = D * (G + P^T grad_f W^T)."""
    z = (p @ y) @ w
    z += fx
    d = z > 0.0
    del z
    v = (p.T @ grad_fx) @ w.T
    v += upstream
    v *= d
    v -= grad_fx
    return float(np.linalg.norm(v))


def weight_grad_error(p, y, grad_fx, grad_w):
    """Relative distance of grad_W from its definition (P Y*)^T grad_f."""
    want = (p @ y).T @ grad_fx
    return float(np.linalg.norm(grad_w - want) / max(1.0, np.linalg.norm(want)))


def normalized_recurrence(p, fx, steps, lam):
    """K steps of Y <- (1 - a - a lam) Y + a lam P Y + a F from Y = F,
    at the convex-combination step a = 1 / (1 + lam), identity prox."""
    a = 1.0 / (1.0 + lam)
    y = fx.copy()
    for _ in range(steps):
        py = p @ y
        py *= a * lam
        y *= 1.0 - a - a * lam
        y += py
        del py
        y += a * fx
    return y
