"""Constructive equivalences between weight families.

Two constructions live here:

* :func:`symmetrize_linear` re-expresses the linear fixed point of an
  asymmetric propagation weight through a right-invertible transform
  and a symmetric weight, jittering the input slightly when its
  eigenbasis is defective;
* :func:`embed_gcn` packs an arbitrary stack of layer-specific
  convolution weights into one block anti-bidiagonal symmetric weight
  whose unfolded iteration reproduces the stack layer by layer.

Both come with verifiers that re-check the claimed identities through
the generic solvers.

A structural caveat, surfaced honestly by :func:`symmetrize_linear`:
an exactly symmetric weight acting on the realified eigencoordinates
exists iff the (jittered) spectrum is real.  A complex-conjugate
eigenvalue pair contributes a rotation block whose skew part cannot be
removed by any change of basis (a symmetric restriction would need
real eigenvalues).  The returned representation always satisfies its
fixed-point equation exactly; ``symmetry_defect`` reports the residual
skew, which is zero exactly in the real-spectrum case.
"""

import csv
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .energy import Phi, from_symmetric_pair, phi_zero, rho_identity
from .graph import LaplacianKind, propagation_matrix
from .unfold import PropagationConfig, unroll


class ConstructionError(RuntimeError):
    pass


@dataclass
class SymmetricRepresentation:
    transform: np.ndarray        # d x d' mapping original coords into the new ones
    transform_right: np.ndarray  # d' x d right inverse
    w_p_sym: np.ndarray          # d' x d'
    w_x_tilde: np.ndarray        # d0 x d'
    y_embedded: np.ndarray       # n x d' fixed point of the new system
    y_perturbed: np.ndarray      # n x d fixed point of the jittered original weight
    jitter: float
    symmetry_defect: float

    @property
    def d_prime(self):
        return self.w_p_sym.shape[0]


def _dense(p_op):
    return p_op.toarray() if sp.issparse(p_op) else np.asarray(p_op, dtype=float)


def linear_fixed_point(p_op, w_p, fx):
    """Direct Kronecker solve of Y = P Y Wp + F (small dense systems)."""
    p_dense = _dense(p_op)
    fx = np.asarray(fx, dtype=float)
    n, d = fx.shape
    k = np.kron(np.asarray(w_p).T, p_dense)
    y = np.linalg.solve(np.eye(n * d) - k, fx.reshape(-1, order="F"))
    return y.reshape(n, d, order="F")


def _jittered_eig(w_p, eps, rng, max_tries=8, cond_limit=1e10):
    """Eigendecomposition of Wp after at most eps worth of diagonal
    jitter on its Schur form, retried with growing jitter until the
    eigenvalues separate and the basis is well conditioned."""
    import scipy.linalg

    w_p = np.asarray(w_p, dtype=float)
    d = w_p.shape[0]
    if eps == 0.0:
        vals, vecs = np.linalg.eig(w_p)
        if np.linalg.cond(vecs) < cond_limit:
            return vals, vecs, w_p
        raise ConstructionError("defective weight needs jitter > 0")
    t_schur, q = scipy.linalg.schur(w_p, output="complex")
    scale = eps
    for _ in range(max_tries):
        jit = rng.uniform(-scale, scale, size=d) / np.sqrt(d)
        w_jit = (q @ (t_schur + np.diag(jit)) @ q.conj().T).real
        vals, vecs = np.linalg.eig(w_jit)
        gaps = np.abs(vals[:, None] - vals[None, :])[~np.eye(d, dtype=bool)]
        if (gaps.size == 0 or gaps.min() > scale / (10 * d)) and np.linalg.cond(vecs) < cond_limit:
            return vals, vecs, w_jit
        scale *= 2.0
    raise ConstructionError(f"no well-conditioned eigenbasis within jitter {scale:.1e}")


def symmetrize_linear(w_p, g, w_x, x, eps=1e-8, seed=0,
                      kind=LaplacianKind.SELF_LOOP_SYM):
    """Build the symmetric representation of the fixed point of Wp.

    The spectrum of the (jittered) weight is split into its real part
    and conjugate pairs.  A real spectrum yields d' = d with a diagonal
    (hence symmetric) weight in the real eigenbasis.  Conjugate pairs
    force the doubled realification with its rotation blocks; the
    fixed-point identity still holds to machine precision, and the
    irreducible skew is reported in ``symmetry_defect``.
    """
    w_p = np.asarray(w_p, dtype=float)
    x = np.asarray(x, dtype=float)
    w_x = np.asarray(w_x, dtype=float)
    p_op = propagation_matrix(g, kind)
    rng = np.random.default_rng(seed)
    fx = x @ w_x

    vals, vecs, w_jit = _jittered_eig(w_p, eps, rng)
    y_perturbed = linear_fixed_point(p_op, w_jit, fx)
    jitter = float(np.linalg.norm(w_jit - w_p))

    if np.abs(vals.imag).max() <= 1e-12:
        # real spectrum: real eigenbasis, diagonal symmetric weight
        r = vecs.real
        transform = r
        transform_right = np.linalg.inv(r)
        w_p_sym = np.diag(vals.real)
        w_x_tilde = w_x @ r
        y_embedded = y_perturbed @ r
        defect = 0.0
    else:
        # conjugate pairs: realified doubling [Re Z, Im Z]
        z = y_perturbed.astype(complex) @ vecs
        y_embedded = np.hstack([z.real, z.imag])
        lam_r = np.diag(vals.real)
        lam_i = np.diag(vals.imag)
        w_p_sym = np.block([[lam_r, lam_i], [-lam_i, lam_r]])
        transform = np.hstack([vecs.real, vecs.imag])
        transform_right = np.linalg.pinv(transform)
        wxr = w_x.astype(complex) @ vecs
        w_x_tilde = np.hstack([wxr.real, wxr.imag])
        defect = float(np.abs(w_p_sym - w_p_sym.T).max() / 2.0)

    return SymmetricRepresentation(
        transform=transform,
        transform_right=transform_right,
        w_p_sym=w_p_sym,
        w_x_tilde=w_x_tilde,
        y_embedded=y_embedded,
        y_perturbed=y_perturbed,
        jitter=jitter,
        symmetry_defect=defect,
    )


def verify_linear_equivalence(rep, g, x, w_p=None, w_x=None,
                              kind=LaplacianKind.SELF_LOOP_SYM):
    """Residual of the represented fixed-point equation plus the drift
    of the perturbed fixed point from the original one."""
    p_op = propagation_matrix(g, kind)
    x = np.asarray(x, dtype=float)
    yt = rep.y_embedded
    residual = float(np.linalg.norm(yt - (_dense(p_op) @ yt @ rep.w_p_sym + x @ rep.w_x_tilde)))
    report = {
        "residual": residual,
        "symmetry_defect": rep.symmetry_defect,
        "right_inverse_error": float(
            np.linalg.norm(rep.transform @ rep.transform_right - np.eye(rep.transform.shape[0]))
        ),
        "drift": None,
    }
    if w_p is not None and w_x is not None:
        y_star = linear_fixed_point(p_op, w_p, x @ np.asarray(w_x))
        report["drift"] = float(np.linalg.norm(rep.y_perturbed - y_star))
    return report


# ---------------------------------------------------------------------------
# finite-depth embedding of a layer-specific convolution stack
# ---------------------------------------------------------------------------

@dataclass
class GcnEmbedding:
    w_p_sym_block: np.ndarray
    w_r_sym_block: np.ndarray | None
    y0_padded_width: int
    block_slices: list
    residual: bool
    sigma: Phi | None

    def pad_input(self, y0):
        """[Y0, 0, ..., 0] across the block widths."""
        n = y0.shape[0]
        out = np.zeros((n, self.y0_padded_width))
        out[:, self.block_slices[0]] = y0
        return out

    def extract(self, y, k):
        """Select block k (the extraction transform applied to Y)."""
        return y[:, self.block_slices[k]]

    def parameter_count(self):
        """Distinct nonzero parameters: each layer block is stored once
        (its transpose is tied), plus the identity blocks if residual."""
        upper = np.triu(self.w_p_sym_block)
        count = int(np.count_nonzero(upper))
        if self.residual:
            count += int(np.count_nonzero(np.triu(self.w_r_sym_block)))
        return count


def embed_gcn(layers, residual, sigma, g=None):
    """Pack layer weights W^(1..K) into the anti-bidiagonal symmetric
    block weight; with residual connections all widths must match and
    an identity-block companion is added."""
    layers = [np.asarray(w, dtype=float) for w in layers]
    if not layers:
        raise ConstructionError("need at least one layer")
    widths = [layers[0].shape[0]] + [w.shape[1] for w in layers]
    for k, w in enumerate(layers):
        if w.shape[0] != widths[k]:
            raise ConstructionError(f"layer {k} input width {w.shape[0]} != {widths[k]}")
    if residual and len(set(widths)) != 1:
        raise ConstructionError("residual connections need equal layer widths")
    total = sum(widths)
    offsets = np.cumsum([0] + widths)
    slices = [slice(offsets[i], offsets[i + 1]) for i in range(len(widths))]
    w_p_sym = np.zeros((total, total))
    for k, w in enumerate(layers):
        w_p_sym[slices[k], slices[k + 1]] = w
        w_p_sym[slices[k + 1], slices[k]] = w.T
    w_r_sym = None
    if residual:
        w_r_sym = np.zeros((total, total))
        eye = np.eye(widths[0])
        for k in range(len(layers)):
            w_r_sym[slices[k], slices[k + 1]] = eye
            w_r_sym[slices[k + 1], slices[k]] = eye
    return GcnEmbedding(
        w_p_sym_block=w_p_sym,
        w_r_sym_block=w_r_sym,
        y0_padded_width=total,
        block_slices=slices,
        residual=residual,
        sigma=sigma,
    )


def gcn_oracle(p_op, layers, residual, sigma, y0):
    """Independent layer-by-layer stack: Y <- sigma(P Y W_k + beta Y)."""
    p_dense = _dense(p_op)
    y = np.asarray(y0, dtype=float)
    outs = [y]
    act = (lambda z: z) if sigma is None else (lambda z: sigma.prox(z, 1.0))
    for w in layers:
        z = p_dense @ y @ np.asarray(w)
        if residual:
            z = z + y
        y = act(z)
        outs.append(y)
    return outs


def embedded_forward(emb, g, y0, steps, kind=LaplacianKind.SELF_LOOP_SYM):
    """Run the embedding through the generic unfolded engine (unit step,
    identity attention, zero base prediction) and return the iterates."""
    w_f_sym = np.eye(emb.y0_padded_width) - emb.w_p_sym_block
    if emb.residual:
        w_f_sym = w_f_sym - emb.w_r_sym_block
    spec = from_symmetric_pair(emb.w_p_sym_block, w_f_sym, rho=rho_identity(),
                               phi=emb.sigma or phi_zero(), kind=kind,
                               gradient_mode="literal")
    y = emb.pad_input(np.asarray(y0, dtype=float))
    cfg = PropagationConfig(steps=steps, alpha=1.0, y0=y, record_trace=False)
    return [y] + [layer.y for layer in unroll(spec, g, np.zeros_like(y), cfg)]


def verify_gcn_equivalence(emb, g, y0, steps, layers,
                           kind=LaplacianKind.SELF_LOOP_SYM):
    """Compare block k of the embedded iterate k against the direct
    stack for every layer; reports the first mismatching layer."""
    if steps > len(layers):
        raise ConstructionError("cannot verify more steps than layers")
    p_op = propagation_matrix(g, kind)
    direct = gcn_oracle(p_op, layers[:steps], emb.residual, emb.sigma, y0)
    embedded = embedded_forward(emb, g, y0, steps, kind=kind)
    per_layer = []
    first_bad = None
    for k in range(steps + 1):
        diff = float(np.abs(emb.extract(embedded[k], k) - direct[k]).max())
        per_layer.append(diff)
        if first_bad is None and diff > 1e-10:
            first_bad = k
    return {"ok": first_bad is None, "first_mismatch_layer": first_bad,
            "per_layer_max_diff": per_layer}


def report_to_csv(report, path):
    with open(path, "w", newline="") as fh:
        fh.write("# schema: equivalence-report v1\n")
        writer = csv.writer(fh)
        writer.writerow(["key", "value"])
        for key, value in report.items():
            if isinstance(value, list):
                for i, item in enumerate(value):
                    writer.writerow([f"{key}[{i}]", item])
            else:
                writer.writerow([key, value])
