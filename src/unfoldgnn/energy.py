"""The graph-regularized energy and its ingredients.

Three pieces are defined here: the concave edge penalty family
(:class:`Rho`), the node-wise penalty family with closed-form proximal
operators (:class:`Phi`), and the full energy evaluation combining a
fidelity term, an edge-smoothness term, and the node penalty.

Two parameterizations of the energy are supported by
:class:`EnergySpec`:

* simple mode:  ||Y - F||_F^2 + lam * sum_e rho(||y_u - y_v||^2), the
  scalar-weighted form whose descent iterations reduce to the familiar
  propagation rules, and
* general mode: tr[(Y-F).T Wf (Y-F)] ("exact"; "literal": tr[Y.T Wf Y] - <F, Y>)
  + sum_e rho(q_e), q_e the per-edge quadratic form of Wp; plus the phi term in both.
"""

import inspect
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _kernels
from .graph import LaplacianKind, spectral_norm

GAMMA_CAP_DEFAULT = 1e6
_NEG_DIAG_TOL = 1e-12
# a parameter's name in config strings, where it differs from the field's
_CONFIG_NAMES = {"big_t": "T"}


def _clamp_rounding_negatives(x, message):
    """x with rounding negatives down to -1e-12 (and -0.0) raised to 0, from
    one scan that copies only when some entry is <= 0; ValueError(message)
    below that.  fmin skips NaN, which passes through as np.maximum passes it."""
    low = np.fmin.reduce(x, axis=None, initial=math.inf)
    if low < -_NEG_DIAG_TOL:
        raise ValueError(message)
    return np.maximum(x, 0.0) if low <= 0.0 else x


# ---------------------------------------------------------------------------
# rho: concave edge penalties and their gradients (= attention weights)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rho:
    """Edge penalty rho(z^2) selected by ``kind``.

    kinds: identity, log (eps), truncated_quadratic (tau: threshold on
    z, value saturates at tau^2), truncated_lp (p, tau, T: user-facing
    parameters; the internal thresholds are tau_bar = tau^(2-p) and
    T_bar = T^(2-p)), cosine (z^2 - z^4/8, unbounded below), absolute
    (|z|, gradient capped at gamma_max near zero, where rho'' is 0).
    """

    kind: str
    eps: float = 1.0
    tau: float = 1.0
    p: float = 1.0
    big_t: float = 2.0
    gamma_max: float = GAMMA_CAP_DEFAULT

    def __post_init__(self):
        if self.kind not in ("identity", "log", "truncated_quadratic",
                             "truncated_lp", "cosine", "absolute"):
            raise ValueError(f"unknown rho kind {self.kind!r}")
        for name in ("eps", "tau", "p", "big_t", "gamma_max"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"rho parameter {_CONFIG_NAMES.get(name, name)} must be "
                                 f"finite, got {value}")
        if self.gamma_max <= 0:
            raise ValueError(f"rho parameter gamma_max must be positive, got {self.gamma_max}")
        if self.kind == "log" and self.eps <= 0:
            raise ValueError("log penalty needs eps > 0")
        if self.kind == "truncated_quadratic" and self.tau < 0:
            raise ValueError("truncation threshold must be nonnegative")
        if self.kind == "truncated_lp":
            if not 0 < self.p <= 2:
                raise ValueError("truncated_lp needs 0 < p <= 2")
            if not 0 <= self.tau <= self.big_t:
                raise ValueError("truncated_lp needs 0 <= tau <= T")
            try:  # 0.0 ** -x raises, and so does a power past the float range
                finite = all(map(math.isfinite, (self._tau_bar ** (self.p - 2.0), self._t_bar)))
            except ArithmeticError:
                finite = False
            if not finite:
                raise ValueError("truncated_lp needs its largest weight tau_bar^(p-2) and "
                                 f"T_bar to be finite floats, got tau={self.tau}, p={self.p}, "
                                 f"T={self.big_t}")

    # internal reparameterized thresholds for truncated_lp
    @property
    def _tau_bar(self):
        return self.tau ** (2.0 - self.p)

    @property
    def _t_bar(self):
        return self.big_t ** (2.0 - self.p)

    def value(self, zsq):
        return self._evaluate(zsq, True, False)[0]

    def grad(self, zsq):
        """d rho(z^2) / d z^2, the per-edge attention weight."""
        return self._evaluate(zsq, False, True)[1]

    def grad2(self, zsq):
        """d^2 rho(z^2) / d(z^2)^2, one-sided at breakpoints."""
        return self._evaluate(zsq, False, False, grad2=True)[2]

    def value_and_grad(self, zsq):
        """(rho(z^2), d rho(z^2) / d z^2) from one pass over ``zsq``, each
        bitwise what :meth:`value` and :meth:`grad` return: an attention
        refresh takes the weights and the edge-penalty sum of the energy
        from one square root and one set of piece masks."""
        return self._evaluate(zsq, True, True)[:2]

    def grad_max(self):
        """The largest weight rho' takes over [0, inf), its value at 0:
        every kind is concave in z^2, so rho' never rises."""
        return float(self.grad(0.0))

    def _evaluate(self, zsq, value, grad, grad2=False):
        """rho, rho' and rho'' at zsq, each computed only where asked for
        (else None); the one statement of each kind's formulas and pieces."""
        zsq = np.asarray(zsq, dtype=float)
        if self.kind == "identity":
            # linear: defined on all of R (indefinite quadratic forms)
            return (zsq, np.ones_like(zsq) if grad else None,
                    np.zeros_like(zsq) if grad2 else None)
        zsq = _clamp_rounding_negatives(zsq, "rho argument must be nonnegative")
        if self.kind == "log":
            shifted = zsq + self.eps
            return (np.log(shifted) if value else None, 1.0 / shifted if grad else None,
                    -1.0 / shifted ** 2 if grad2 else None)
        if self.kind == "truncated_quadratic":
            cap = self.tau ** 2
            return (np.minimum(zsq, cap) if value else None,
                    (zsq < cap).astype(float) if grad else None,
                    np.zeros_like(zsq) if grad2 else None)
        if self.kind == "truncated_lp":
            return self._lp(zsq, value, grad, grad2)
        if self.kind == "cosine":
            return (zsq - zsq ** 2 / 8.0 if value else None, 1.0 - zsq / 4.0 if grad else None,
                    np.full_like(zsq, -0.25) if grad2 else None)
        # absolute: the weight 1 / (2 z), capped at gamma_max (its value at z = 0)
        z = np.sqrt(zsq)
        weight = curvature = None
        if grad or grad2:
            inv = np.divide(0.5, z, out=np.full_like(z, np.inf), where=z > 0)
            free = inv < self.gamma_max
            weight = np.where(free, inv, self.gamma_max) if grad else None
            if grad2:
                curvature = np.zeros_like(z)
                curvature[free] = -0.25 * z[free] ** -3.0
        return z if value else None, weight, curvature

    def _lp(self, zsq, value, grad, grad2):
        """truncated_lp's three pieces: quadratic below tau_bar, z^p up to
        T_bar, constant beyond.  Most edges sit in the z^p piece, so it is
        taken over the whole array and the other two written over it at
        integer indices, much cheaper than boolean-mask gathers; NaN falls
        in the near piece (value NaN, weight tau_bar^(p-2))."""
        shape, zsq = zsq.shape, zsq.reshape(-1)  # 0-d input (grad_max) too
        z = np.sqrt(zsq)
        p, tb, t_big = self.p, self._tau_bar, self._t_bar
        near = np.flatnonzero(~(z >= tb))
        far = np.flatnonzero(z > t_big)
        val = weight = curvature = None
        # z^p and z^(p-2) overflow or divide by 0 only at entries overwritten below
        with np.errstate(divide="ignore", over="ignore"):
            if value:
                rho0 = (2.0 - p) / p * tb ** p
                val = z ** p
                val *= 2.0 / p
                val -= rho0
                val[near] = tb ** (p - 2.0) * zsq.take(near)
                val[far] = 2.0 / p * t_big ** p - rho0
            if grad:
                weight = z ** (p - 2.0)
                weight[near] = tb ** (p - 2.0)
                weight[far] = 0.0
        if grad2:
            mid = np.flatnonzero((z >= tb) & (z <= t_big))
            curvature = np.zeros_like(z)
            curvature[mid] = 0.5 * (p - 2.0) * np.maximum(z.take(mid), 1e-300) ** (p - 4.0)
        return tuple(None if out is None else out.reshape(shape)
                     for out in (val, weight, curvature))


def rho_identity():
    return Rho("identity")


def rho_log(eps=1.0):
    return Rho("log", eps=eps)


def rho_truncated_quadratic(tau=1.0):
    return Rho("truncated_quadratic", tau=tau)


def rho_truncated_lp(p=0.1, tau=0.2, big_t=2.0):
    return Rho("truncated_lp", p=p, tau=tau, big_t=big_t)


def rho_cosine():
    """z^2 - z^4/8, unbounded below: layers descending it can diverge at any step."""
    return Rho("cosine")


def rho_absolute(gamma_max=GAMMA_CAP_DEFAULT):
    return Rho("absolute", gamma_max=gamma_max)


# ---------------------------------------------------------------------------
# phi: node penalties through their proximal operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Phi:
    """Node-wise penalty; kinds: zero, relu (nonnegativity indicator),
    soft_threshold (kappa).  The prox's derivative is read from its
    output (:meth:`prox_mask`), so a reverse pass needs no pre-prox
    point."""

    kind: str
    kappa: float = 1.0

    def __post_init__(self):
        if self.kind not in ("zero", "relu", "soft_threshold"):
            raise ValueError(f"unknown phi kind {self.kind!r}")
        if not math.isfinite(self.kappa):
            raise ValueError(f"phi parameter kappa must be finite, got {self.kappa}")
        if self.kind == "soft_threshold" and self.kappa < 0:
            raise ValueError("soft_threshold needs kappa >= 0")

    def prox(self, u, alpha=1.0):
        if alpha <= 0:
            raise ValueError("prox step must be positive")
        u = np.asarray(u, dtype=float)
        if self.kind == "zero":
            return u
        if self.kind == "relu":
            return np.maximum(u, 0.0)
        return np.sign(u) * np.maximum(np.abs(u) - alpha * self.kappa, 0.0)

    def prox_mask(self, y):
        """The prox's elementwise derivative, read from its output
        y = prox(u, alpha): None for zero, whose derivative is 1, else the
        boolean mask 1[y > 0] (relu) or 1[y != 0] (soft_threshold).  For
        finite u that is bitwise the derivative at u, 0 at the kinks
        (u <= 0; |u| <= alpha * kappa)."""
        if self.kind == "zero":
            return None
        y = np.asarray(y)
        return y > 0 if self.kind == "relu" else y != 0

    def value(self, y):
        """Penalty total over all entries; +inf on indicator violation."""
        y = np.asarray(y, dtype=float)
        if self.kind == "zero":
            return 0.0
        if self.kind == "relu":
            return math.inf if (y < 0).any() else 0.0
        return float(self.kappa * np.abs(y).sum())


def phi_zero():
    return Phi("zero")


def phi_relu():
    return Phi("relu")


def phi_soft_threshold(kappa=1.0):
    return Phi("soft_threshold", kappa=kappa)


# ---------------------------------------------------------------------------
# config-string parsing ("rho=truncated_lp:p=0.1,tau=0.2,T=2")
# ---------------------------------------------------------------------------

def rho_from_config(text):
    return _from_config("rho", _RHO_FACTORIES, text)


def phi_from_config(text):
    return _from_config("phi", _PHI_FACTORIES, text)


_RHO_FACTORIES = {"identity": rho_identity, "log": rho_log,
                  "truncated_quadratic": rho_truncated_quadratic,
                  "truncated_lp": rho_truncated_lp, "cosine": rho_cosine,
                  "absolute": rho_absolute}
_PHI_FACTORIES = {"zero": phi_zero, "none": phi_zero, "identity": phi_zero,
                  "relu": phi_relu, "soft_threshold": phi_soft_threshold}


def _from_config(what, factories, text):
    """Call the kind's factory with only the parameters the string names,
    so the factory's defaults apply to the rest; see ``_CONFIG_NAMES``
    for the config names that differ from the parameters'."""
    head, _, args = text.partition(":")
    if head not in factories:
        raise ValueError(f"unknown {what} config {text!r}")
    factory = factories[head]
    names = {_CONFIG_NAMES.get(p, p): p for p in inspect.signature(factory).parameters}
    kwargs = {}
    for key, value in _parse_kv(args).items():
        if key not in names:
            raise ValueError(f"{what} {head} takes no parameter {key!r}; "
                             f"it takes {sorted(names) or 'none'}")
        kwargs[names[key]] = float(value)
    return factory(**kwargs)


def _parse_kv(args):
    out = {}
    if args:
        for item in args.split(","):
            k, _, v = item.partition("=")
            if not _ or not k:
                raise ValueError(f"malformed parameter {item!r}")
            out[k.strip()] = v.strip()
    return out


# ---------------------------------------------------------------------------
# the energy itself
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergySpec:
    """Full parameterization of the energy, each mode's quantities stated once.

    simple=True reads only ``lam`` from the weight block (fidelity
    weight I, propagation weight lam * I, rho applied to raw squared
    edge distances).  simple=False uses the d x d matrices ``w_fid``
    and ``w_prop``; rho is then applied to the per-edge quadratic form
    of ``w_prop``, which must stay >= -1e-12 (PSD w_prop guarantees it).

    gradient_mode selects between the exact fidelity gradient
    ("exact": (Y-F)(Wf+Wf.T)) and the literal printed update
    ("literal": Y(Wf+Wf.T) - F, the gradient of the fidelity it records,
    <Y Wf, Y> - <F, Y>).  The literal form is what makes the fixed-point
    correspondence with implicit models exact.
    """

    rho: Rho = field(default_factory=rho_identity)
    phi: Phi = field(default_factory=phi_zero)
    lam: float = 1.0
    kind: LaplacianKind = LaplacianKind.COMBINATORIAL
    simple: bool = True
    w_fid: np.ndarray | None = None
    w_prop: np.ndarray | None = None
    gradient_mode: str = "exact"

    def __post_init__(self):
        if self.simple:
            if not (self.lam >= 0 and math.isfinite(self.lam)):
                raise ValueError(f"lam must be nonnegative and finite, got {self.lam}")
        else:
            if self.w_fid is None or self.w_prop is None:
                raise ValueError("general mode needs w_fid and w_prop")
            if self.w_fid.shape != self.w_prop.shape or self.w_fid.shape[0] != self.w_fid.shape[1]:
                raise ValueError("w_fid and w_prop must be square and matching")
        if self.gradient_mode not in ("exact", "literal"):
            raise ValueError("gradient_mode must be 'exact' or 'literal'")

    def w_fid_sym(self):
        return self.w_fid + self.w_fid.T

    def w_prop_sym(self):
        return self.w_prop + self.w_prop.T

    @cached_property
    def _norms(self):
        """(||Wf_s||, ||Wp_s||), taken once per spec; 1 and lam in simple mode."""
        if self.simple:
            return 1.0, self.lam
        return spectral_norm(self.w_fid_sym()), spectral_norm(self.w_prop_sym())

    def edge_view(self, bview):
        """The incidence rho reads: the unit-scale one in simple mode, so rho
        takes raw squared distances under every kind, whatever the step applies."""
        return bview.raw if self.simple else bview

    def edge_form(self, rows):
        """rho's argument per edge from rows = B Y over :meth:`edge_view`."""
        return _kernels.edge_sqnorm(rows) if self.simple else _kernels.edge_quadform(rows, self.w_prop)

    def edge_form_t(self, bview, y, weights):
        """sum_e weights_e d q_e / dY at Y, q being :meth:`edge_form` of Y's rows."""
        view = self.edge_view(bview)
        if self.simple:
            return 2.0 * view.apply_t(weights[:, None] * view.apply(y))
        return view.apply_t(weights[:, None] * view.apply(y @ self.w_prop_sym()))

    def terms(self, y, fx, penalty):
        """(fidelity, smoothness) at Y from its edge-penalty sum: what :meth:`step` descends."""
        if not self.simple and self.gradient_mode == "literal":
            return float(np.einsum("ij,jk,ik->", y, self.w_fid, y) - np.vdot(fx, y)), float(penalty)
        r = y - fx
        if self.simple:
            r *= r
            return float(np.sum(r)), float(self.lam * penalty)
        return float(np.einsum("ij,jk,ik->", r, self.w_fid, r)), float(penalty)

    def step(self, y, lap_y, fx, alpha):
        """The abridged step U = Y - alpha G at fixed Gamma from lap_y = L_Gamma Y,
        G = L Y Wp_s + (Y-F) Wf_s ("exact") or L Y Wp_s + Y Wf_s - F ("literal");
        simple mode takes the literal G at the weights lam and 1 (half the
        gradient of :meth:`terms`) in place on lap_y."""
        if self.simple:
            lap_y *= self.lam
            lap_y += y
            lap_y -= fx
        else:
            _kernels.count_dense(4 * y.size * y.shape[1])
            w_fid = self.w_fid_sym()
            fid = (y - fx) @ w_fid if self.gradient_mode == "exact" else y @ w_fid - fx
            lap_y = lap_y @ self.w_prop_sym() + fid
        lap_y *= alpha
        return np.subtract(y, lap_y, out=lap_y)

    def step_t(self, d_u, lap_du, alpha, d_fx):
        """:meth:`step`'s transpose: d/dY of <d_u, U>, given lap_du = L_Gamma d_u,
        which simple mode overwrites with the result; adds d/dF to d_fx in place."""
        if self.simple:
            # one temporary; the result is taken in place on lap_du
            scaled = np.multiply(d_u, alpha)
            d_fx += scaled
            lap_du *= alpha * self.lam
            return np.subtract(np.multiply(d_u, 1.0 - alpha, out=scaled), lap_du, out=lap_du)
        w_fid = self.w_fid_sym()
        d_fx += alpha * d_u @ w_fid if self.gradient_mode == "exact" else alpha * d_u
        return d_u - alpha * (lap_du @ self.w_prop_sym() + d_u @ w_fid)

    def step_gamma_t(self, bview, y, d_u, alpha):
        """d<d_u, U>/d gamma_e at Y: -alpha <B d_u, B Y Wp_s>_e, Wp_s = lam in simple mode."""
        if self.simple:
            return -alpha * self.lam * np.einsum("ij,ij->i", bview.apply(d_u), bview.apply(y))
        return -alpha * np.einsum("ij,ij->i", bview.apply(d_u), bview.apply(y @ self.w_prop_sym()))

    def step_bound(self, lap_bound, weight_cap=1.0):
        """1 / (||Wf_s|| + ||Wp_s|| c): safe where ||L_Gamma|| <= c = weight_cap lap_bound."""
        fid, prop = self._norms
        return 1.0 / (fid + prop * weight_cap * lap_bound)


def from_symmetric_pair(w_prop_sym, w_fid_sym, rho=None, phi=None,
                        kind=LaplacianKind.COMBINATORIAL, gradient_mode="literal"):
    """General-mode spec from the symmetrized weights that appear in the
    fixed-point form (stored halved so W + W.T reproduces them)."""
    return EnergySpec(
        rho=rho or rho_identity(),
        phi=phi or phi_zero(),
        kind=kind,
        simple=False,
        w_fid=np.asarray(w_fid_sym, dtype=float) / 2.0,
        w_prop=np.asarray(w_prop_sym, dtype=float) / 2.0,
        gradient_mode=gradient_mode,
    )


@dataclass(frozen=True)
class EnergyValue:
    fidelity: float
    smoothness: float
    phi_term: float

    @property
    def total(self):
        return self.fidelity + self.smoothness + self.phi_term


def edge_diagonal(spec, bview, y, rows=None):
    """Per-edge rho arguments at Y, :meth:`EnergySpec.edge_form` over
    :meth:`EnergySpec.edge_view`.  ``rows``, if given, is B @ y over
    that incidence, already computed by the caller.

    With identity rho the quadratic form may legitimately be negative
    (indefinite w_prop) and is passed through untouched.  Nonlinear rho
    needs a nonnegative argument: small rounding negatives are clamped,
    anything below -1e-12 is an error (PSD w_prop rules it out).
    """
    if rows is None:
        rows = spec.edge_view(bview).apply(y)
    vals = spec.edge_form(rows)
    if spec.rho.kind == "identity":
        return vals
    return _clamp_rounding_negatives(vals, "edge quadratic form went negative; "
                                           "w_prop must be PSD")


def energy_eval(spec, bview, y, fx, penalty=None):
    """Evaluate the three energy terms at Y given base predictions fx;
    ``penalty``, if given, is the edge-penalty sum, rho summed over
    :func:`edge_diagonal` at this Y, already computed by the caller."""
    y = np.asarray(y, dtype=float)
    fx = np.asarray(fx, dtype=float)
    if y.shape != fx.shape:
        raise ValueError("Y and f(X) shapes differ")
    if penalty is None:
        penalty = np.sum(spec.rho.value(edge_diagonal(spec, bview, y)))
    return EnergyValue(*spec.terms(y, fx, penalty), spec.phi.value(y))
