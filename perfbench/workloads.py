"""The benchmark's three workloads.

A workload makes its inputs from the run seed, sets the program up
(``setup``, timed and repeated ``setup_reps`` times; ``prepare`` adopts the
first result), and runs ops one at a time: a closed loop with one client.
Per op it hands over freshly generated inputs (``inputs``, untimed), runs
the op (``op``, timed) and checks the output against the definitions in
``reference`` (``check``, untimed).  The first ``warmup_ops`` ops are
checked and counted but left out of the timing.

Sizes are fixed per scale.  ``full`` is the benchmark; ``tiny`` exists so
the benchmark's own tests can run every workload in a second or two.
"""

import hashlib
import statistics
import time

import numpy as np

import reference
from unfoldgnn import data, energy, graph, implicit, model, unfold
from unfoldgnn.graph import LaplacianKind

RHO_P, RHO_TAU, RHO_T = 0.5, 0.3, 2.0


def edge_digest(n, edges, labels=None):
    """n, m, optional homophily, and a hash of the edge array."""
    edges = np.ascontiguousarray(edges, dtype=np.int64)
    out = {"n": int(n), "m": int(edges.shape[0]),
           "edges_sha256": hashlib.sha256(edges.tobytes()).hexdigest()}
    if labels is not None:
        out["homophily"] = float(np.mean(labels[edges[:, 0]] == labels[edges[:, 1]]))
    return out


def tail(values):
    """The highest order statistic with at least ten samples above it, as
    (value, percentile, sample count); None while that statistic is not
    above the median (fewer than 22 samples)."""
    n = len(values)
    if n < 22:
        return None
    k = n - 11
    return sorted(values)[k], round(100.0 * (k + 1) / n, 1), n


class TrainSbm:
    """Training on one perturbed SBM graph; one op is one epoch.

    A cycle trains the unrolled, implicit and eignn backends once each for
    a fixed number of epochs, so accuracies are deterministic per seed.  The
    run stops only at a cycle boundary, which keeps the epoch mix fixed.

    The dataset is fixed, drawn with the generators' default seeds; the run
    seed sets the model initialisation.  The unrolled epoch pays a power
    iteration for its step bound whose length differs several-fold from one
    SBM draw to the next, so a graph drawn per seed would make the epoch
    time vary more between seeds than any run length here can average out.
    """

    name = "train-sbm"
    setup_reps = 3
    warmup_ops = 0
    backends = ("unrolled", "implicit", "eignn")
    cycle_len = 3
    SCALES = {
        "full": dict(blocks=(2000, 2000), p_in=0.004, p_out=0.001,
                     epochs={"unrolled": 8, "implicit": 40, "eignn": 40}),
        "tiny": dict(blocks=(100, 100), p_in=0.1, p_out=0.01,
                     epochs={"unrolled": 5, "implicit": 10, "eignn": 10}),
    }

    def __init__(self, seed, scale):
        size = self.SCALES[scale]
        self.blocks, self.p_in, self.p_out = size["blocks"], size["p_in"], size["p_out"]
        self.epochs = size["epochs"]
        self.init_seed = seed
        self.configs = {
            "unrolled": model.ModelConfig(
                backend="unrolled", embed_dim=16, n_classes=2, steps=16, alpha="auto",
                variant="plain", rho=energy.rho_truncated_lp(p=RHO_P, tau=RHO_TAU, big_t=RHO_T),
                attention_schedule=unfold.sandwich_schedule(16)),
            "implicit": model.ModelConfig(backend="implicit", embed_dim=16, n_classes=2,
                                          sigma=energy.phi_relu(), fp_tol=1e-8),
            "eignn": model.ModelConfig(backend="eignn", embed_dim=16, n_classes=2),
        }
        self.last_metrics = {}

    def setup(self):
        spec = data.SbmSpec(blocks=self.blocks, p_in=self.p_in, p_out=self.p_out,
                            feature_dim=16, separation=2.0)
        ds, _ = data.perturb_edges(data.sbm_generate(spec), data.PerturbSpec(rate=0.2))
        return ds

    def prepare(self, ds):
        self.ds = ds

    def digest(self):
        g = self.ds.graph
        return [edge_digest(g.n, g.edges, self.ds.labels)]

    def inputs(self, i):
        return self.backends[i % 3]

    def units(self, backend):
        return self.epochs[backend]

    def kind(self, backend):
        return backend

    def op(self, backend):
        ds = self.ds
        out = model.train(ds.graph, ds.x, ds.labels, ds.masks, self.configs[backend],
                          model.TrainConfig(epochs=self.epochs[backend], lr=0.1, seed=self.init_seed))
        return out, {}

    def check(self, backend, out):
        _, metrics = out
        loss = np.asarray(metrics.loss)
        if metrics.diverged:
            return "training diverged"
        if loss.size != self.epochs[backend] or not np.all(np.isfinite(loss)):
            return f"expected {self.epochs[backend]} finite losses, got {loss.tolist()}"
        if not loss[-1] < loss[0]:
            return f"final loss {loss[-1]} not below first {loss[0]}"
        test = self.ds.labels[self.ds.masks["test"]]
        majority = np.bincount(test).max() / test.size
        if not metrics.test_acc_at_best > majority:
            return f"test accuracy {metrics.test_acc_at_best} not above majority rate {majority}"
        self.last_metrics[backend] = metrics
        return None

    def latency_samples(self, records):
        """Per complete cycle: seconds per epoch of the fixed epoch mix."""
        out = []
        for c in range(0, len(records) - self.cycle_len + 1, self.cycle_len):
            cyc = records[c:c + self.cycle_len]
            out.append(sum(r.seconds for r in cyc) / sum(r.units for r in cyc))
        return out

    def details(self, records):
        out = {}
        for b in self.backends:
            mine = [r for r in records if r.kind == b]
            out[f"epoch_s.{b}"] = (sum(r.seconds for r in mine) / sum(r.units for r in mine), "s")
        for b in self.backends:
            if b in self.last_metrics:
                out[f"test_acc.{b}"] = (float(self.last_metrics[b].test_acc_at_best), "fraction")
        return out, {}


class RobustCold:
    """Robust propagation on a fresh graph per op.

    Every op builds its graph from edge arrays and runs K=8 layers with an
    attention refresh and an IRLS step bound at every layer; nothing
    carries over from one op to the next.

    The graphs come from a fixed pool, drawn from a fixed seed like a
    dataset; the run seed sets the order in which each pass visits them.
    An op's cost follows its graph several-fold (the IRLS bound's power
    iteration stops on stagnation, after a graph-dependent number of
    products), so a run stops only at a pass boundary: every run does the
    same work, whatever its seed.
    """

    name = "robust-cold"
    setup_reps = 9  # a set-up only draws the pool, about 25 ms each
    warmup_ops = 0
    steps = 8
    SCALES = {"full": dict(n=5000, d=8, pool=24), "tiny": dict(n=300, d=8, pool=4)}

    def __init__(self, seed, scale):
        size = self.SCALES[scale]
        self.n, self.d, self.cycle_len = size["n"], size["d"], size["pool"]
        self.seed = seed
        self.spec = energy.EnergySpec(
            rho=energy.rho_truncated_lp(p=RHO_P, tau=RHO_TAU, big_t=RHO_T),
            phi=energy.phi_relu(), lam=1.0, kind=LaplacianKind.COMBINATORIAL)
        self.cfg = unfold.PropagationConfig(steps=self.steps, alpha="auto_irls", variant="plain",
                                            attention_schedule=tuple(range(self.steps)))

    def _make(self, j):
        # degree-8 graph: 4n uniformly drawn pairs (self-loops and repeats are
        # dropped by build_graph), plus signed features so the relu prox acts
        rng = np.random.default_rng([0, j])
        return rng.integers(0, self.n, size=(4 * self.n, 2)), rng.standard_normal((self.n, self.d))

    def setup(self):
        return [self._make(j) for j in range(self.cycle_len)]

    def prepare(self, pool):
        self.pool = pool
        self.canon = [reference.canonical_edges(edges) for edges, _ in pool]

    def digest(self):
        h = hashlib.sha256()
        for canon in self.canon:
            h.update(canon.tobytes())
        return [{"graphs": len(self.canon), "n": self.n,
                 "m_mean": float(np.mean([c.shape[0] for c in self.canon])),
                 "edges_sha256": h.hexdigest()}]

    def inputs(self, i):
        p, k = divmod(i, self.cycle_len)
        j = int(np.random.default_rng([self.seed, p]).permutation(self.cycle_len)[k])
        edges, fx = self.pool[j]
        return edges.copy(), fx.copy(), self.canon[j]

    def units(self, inp):
        return 1

    def kind(self, inp):
        return "propagate"

    def op(self, inp):
        edges, fx, _ = inp
        g = graph.build_graph(self.n, edges)
        return unfold.propagate(self.spec, g, fx, self.cfg), {}

    def check(self, inp, result):
        _, fx, canon = inp
        descent = unfold.verify_descent(result)
        if not descent["ok"]:
            return f"energy rose at step {descent['first_violation']}"
        if len(result.trace) != self.steps + 1:
            return f"expected {self.steps + 1} energy records, got {len(result.trace)}"

        def rho(zsq):
            return reference.truncated_lp(zsq, RHO_P, RHO_TAU, RHO_T)

        for y, rec, where in ((fx, result.trace[0], "first"), (result.y, result.trace[-1], "last")):
            want = reference.simple_energy(canon, y, fx, self.spec.lam, rho)
            got = (rec.fidelity, rec.smoothness, rec.phi_term)
            if not all(reference.close(a, b, 1e-9) for a, b in zip(got, want)):
                return f"{where} energy {got} differs from the definition {want}"
        return None

    def latency_samples(self, records):
        return [r.seconds for r in records]

    def details(self, records):
        secs = [r.seconds for r in records]
        out = {"propagate_s.p50": (statistics.median(secs), "s")}
        notes = {}
        t = tail(secs)
        if t is None:
            notes["propagate_s.tail"] = f"not reported: {len(secs)} ops, fewer than 22"
        else:
            out["propagate_s.tail"] = (t[0], "s")
            notes["propagate_s.tail"] = f"p{t[1]} of {t[2]} ops"
        return out, notes


class ImplicitLarge:
    """Implicit solve and normalized propagation on one large graph.

    One op is a pair: a relu fixed-point solve plus its adjoint backward,
    then a K=16 normalized propagate, each on fresh f(X) (and a fresh
    upstream gradient for the adjoint).  The graph and W_p are fixed, like
    a dataset and a trained weight; the run seed draws the per-op inputs.
    The solver's iteration count follows W_p and the graph, so drawing
    them per seed would move the op time between seeds by about as much
    as the bound allows.
    """

    name = "implicit-large"
    setup_reps = 7  # a set-up costs about 0.4 s, so seven are cheap
    warmup_ops = 1  # the first pair after set-up runs up to 1.5x slow
    cycle_len = 1
    steps = 16
    SCALES = {"full": dict(n=50000, m=200000, d=16), "tiny": dict(n=400, m=1600, d=16)}

    def __init__(self, seed, scale):
        size = self.SCALES[scale]
        self.n, self.m, self.d = size["n"], size["m"], size["d"]
        self.seed = seed
        self.fp_cfg = implicit.FixedPointConfig(sigma=energy.phi_relu(), tol=1e-8)
        self.spec = energy.EnergySpec(lam=1.0, kind=LaplacianKind.SELF_LOOP_SYM)
        self.prop_cfg = unfold.PropagationConfig(steps=self.steps, alpha="auto", variant="normalized",
                                                 record_trace=False)
        self.fp_iters = []

    def setup(self):
        rng = np.random.default_rng(0)
        edges = rng.integers(0, self.n, size=(self.m, 2))
        g = graph.build_graph(self.n, edges)
        bound = 1.0 / np.sqrt(self.d)
        w0 = rng.uniform(-bound, bound, size=(self.d, self.d))
        w_p = implicit.project_weights(
            w0, graph.propagation_matrix(g, LaplacianKind.SELF_LOOP_SYM), margin=0.9)
        return edges, g, w_p

    def prepare(self, state):
        self.edges, self.g, self.w_p = state
        self.p_ref = reference.self_loop_propagation(self.n, self.edges)

    def digest(self):
        return [edge_digest(self.n, reference.canonical_edges(self.edges))]

    def inputs(self, i):
        rng = np.random.default_rng([self.seed, i])
        shape = (self.n, self.d)
        return rng.standard_normal(shape), rng.standard_normal(shape), rng.standard_normal(shape)

    def units(self, inp):
        return 1

    def kind(self, inp):
        return "pair"

    def op(self, inp):
        fx_solve, upstream, fx_prop = inp
        t0 = time.perf_counter()
        res = implicit.fixed_point_solve(self.g, self.w_p, fx_solve, self.fp_cfg)
        grad_w, grad_fx = implicit.implicit_backward(self.g, self.w_p, fx_solve, res.y, upstream,
                                                     self.fp_cfg)
        t1 = time.perf_counter()
        prop = unfold.propagate(self.spec, self.g, fx_prop, self.prop_cfg)
        t2 = time.perf_counter()
        return (res, grad_w, grad_fx, prop), {"solve": t1 - t0, "propagate": t2 - t1}

    def check(self, inp, out):
        fx_solve, upstream, fx_prop = inp
        res, grad_w, grad_fx, prop = out
        p, w, tol = self.p_ref, self.w_p, self.fp_cfg.tol
        r = reference.relu_fixed_point_residual(p, w, fx_solve, res.y)
        if not r <= 2 * tol:
            return f"fixed-point residual {r:.3e} above {2 * tol:.0e}"
        r = reference.relu_adjoint_residual(p, w, fx_solve, res.y, upstream, grad_fx)
        if not r <= 2 * tol:
            return f"adjoint residual {r:.3e} above {2 * tol:.0e}"
        r = reference.weight_grad_error(p, res.y, grad_fx, grad_w)
        if not r <= 1e-9:
            return f"weight gradient off its definition by {r:.3e}"
        want = reference.normalized_recurrence(p, fx_prop, self.steps, self.spec.lam)
        scale = max(1.0, np.linalg.norm(want))
        want -= prop.y
        r = float(np.linalg.norm(want) / scale)
        if not r <= 1e-9:
            return f"normalized propagate off the recurrence by {r:.3e}"
        self.fp_iters.append(res.iterations)
        return None

    def latency_samples(self, records):
        return [r.seconds for r in records]

    def details(self, records):
        out, notes = {}, {}
        for kind in ("solve", "propagate"):
            secs = [r.parts[kind] for r in records if kind in r.parts]
            if not secs:
                continue
            out[f"{kind}_s.p50"] = (statistics.median(secs), "s")
            t = tail(secs)
            if t is None:
                notes[f"{kind}_s.tail"] = f"not reported: {len(secs)} ops, fewer than 22"
            else:
                out[f"{kind}_s.tail"] = (t[0], "s")
                notes[f"{kind}_s.tail"] = f"p{t[1]} of {t[2]} ops"
        if self.fp_iters:
            out["implicit.fp_iters"] = (statistics.mean(self.fp_iters), "count")
        return out, notes


WORKLOADS = {w.name: w for w in (TrainSbm, RobustCold, ImplicitLarge)}
