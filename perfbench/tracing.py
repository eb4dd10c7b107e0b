"""Spans at the engine's layer boundaries, for the traced run.

The tracer wraps the package's public functions from the benchmark's own
code: for the duration of a ``with tracer.installed():`` block, each module
attribute listed in ``LAYER_FUNCTIONS`` (in every module that looks the
function up) is replaced by a wrapper that records a span, and the
originals are put back on exit.  A span is (name, tag, start, end, parent
span, op id); spans stay in memory and are written out at the end.  Counts
(calls, solver iterations, kernel flops and bytes) are taken at the same
boundaries.

Per-layer times are self times: a span's duration minus the part its child
spans cover.
"""

import json
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from unfoldgnn import _kernels, data, energy, graph, implicit, model, unfold

# span name -> (owner, attribute, modules whose global of that name is wrapped).
# energy.edge_diagonal is wrapped where the engines call it (the attention
# refresh), not inside energy_eval, whose self time keeps its own share.
LAYER_FUNCTIONS = {
    "data.sbm_generate": (data, "sbm_generate", (data,)),
    "data.perturb_edges": (data, "perturb_edges", (data,)),
    "graph.build_graph": (graph, "build_graph", (graph, data)),
    "graph.propagation_matrix": (graph, "propagation_matrix", (graph, unfold, implicit, model)),
    "graph.incidence": (graph, "incidence", (graph, unfold, model)),
    "graph.spectral_norm": (graph, "spectral_norm", (graph, unfold, implicit)),
    "energy.edge_diagonal": (energy, "edge_diagonal", (unfold, model)),
    "energy.energy_eval": (energy, "energy_eval", (unfold,)),
    "energy.prox": (energy.Phi, "prox", (energy.Phi,)),
    "unfold.step_size_bound": (unfold, "step_size_bound", (unfold, model)),
    "unfold.irls_step_bound": (unfold, "irls_step_bound", (unfold, model)),
    "unfold.normalized_step": (unfold, "normalized_step", (unfold,)),
    "unfold.propagate": (unfold, "propagate", (unfold,)),
    "implicit.fixed_point_solve": (implicit, "fixed_point_solve", (implicit, model)),
    "implicit.implicit_backward": (implicit, "implicit_backward", (implicit, model)),
    "implicit.project_weights": (implicit, "project_weights", (implicit, model)),
    "model.forward": (model.Model, "forward", (model.Model,)),
    "model.backward": (model.Model, "backward", (model.Model,)),
    "model.train": (model, "train", (model,)),
}
KERNELS = ("edge_diff", "edge_scatter", "weighted_lap_apply", "edge_sqnorm",
           "edge_quadform", "weighted_adj_apply")
BACKENDS = ("unrolled", "implicit", "eignn")

def _backend_tag(args):
    return args[0].cfg.backend


def _array_bytes(args, result):
    return sum(a.nbytes for a in args if isinstance(a, np.ndarray)) + result.nbytes


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.spans = []  # [name, tag, start, end, parent index, op id]
        self.counts = defaultdict(float)
        self.op = None  # ("setup", rep) or ("op", index) while that phase runs
        self._stack = []

    def wrap(self, name, fn, tag=None, on_result=None):
        tracer = self

        def traced(*args, **kwargs):
            op = tracer.op or ("none", -1)
            rec = [name, tag(args) if tag else None, time.perf_counter(), 0.0,
                   tracer._stack[-1] if tracer._stack else -1, op]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                tracer._stack.pop()
            tracer.counts[(name + ".calls", op[0])] += 1
            if on_result is not None:
                on_result(op[0], args, result)
            return result

        return traced

    def _fp_iters(self, phase, args, result):
        self.counts[("implicit.fp_iters", phase)] += result.iterations

    def _kernel_bytes(self, phase, args, result):
        self.counts[("kernels.bytes_computed", phase)] += _array_bytes(args, result)

    @contextmanager
    def phase(self, kind, index):
        """Attribute the spans of the enclosed block to one set-up or op,
        under an enclosing span named bench.<kind>."""
        self.op = (kind, index)
        rec = [f"bench.{kind}", None, time.perf_counter(), 0.0, -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        flops0 = _kernels.op_counter()
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()
            flops1 = _kernels.op_counter()
            for k in ("edge", "dense"):
                self.counts[(f"kernels.{k}_flops", kind)] += flops1[k] - flops0[k]
            self.op = None

    @contextmanager
    def installed(self):
        saved = []
        try:
            for name, (owner, attr, sites) in LAYER_FUNCTIONS.items():
                fn = getattr(owner, attr)
                extra = {}
                if name.startswith("model.") and name != "model.train":
                    extra["tag"] = _backend_tag
                if name == "implicit.fixed_point_solve":
                    extra["on_result"] = self._fp_iters
                wrapped = self.wrap(name, fn, **extra)
                for site in sites:
                    saved.append((site, attr, getattr(site, attr)))
                    setattr(site, attr, wrapped)
            for attr in KERNELS:
                fn = getattr(_kernels, attr)
                saved.append((_kernels, attr, fn))
                setattr(_kernels, attr, self.wrap(f"kernels.{attr}", fn, on_result=self._kernel_bytes))
            yield self
        finally:
            for site, attr, fn in reversed(saved):
                setattr(site, attr, fn)

    def self_times(self):
        """Self time of every span, in span order."""
        child = [0.0] * len(self.spans)
        for name, tag, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[3] - s[2] - c for s, c in zip(self.spans, child)]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, tag, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "tag": tag, "start": start, "end": end,
                                     "parent": parent, "op": list(op)}) + "\n")

    def per_layer(self, records, setup_reps, epochs_by_backend):
        """Per-layer metrics: per op (per epoch on train-sbm) over the timed
        phase, per set-up for the data layer and set-up graph builds,
        per solve for the fixed-point iteration count.  trace.op_s, the
        traced op latency, is added by the caller."""
        units = sum(r.units for r in records)
        self_t = defaultdict(float)
        for (name, tag, start, end, parent, op), st in zip(self.spans, self.self_times()):
            self_t[(name, tag, op[0])] += st

        def op_time(name, tag=None):
            return self_t[(name, tag, "op")]

        def op_count(key):
            return self.counts[(key, "op")]

        op_spans = [s for s in self.spans if s[0] == "bench.op"]
        total_op = sum(s[3] - s[2] for s in op_spans)
        solves = op_count("implicit.fixed_point_solve.calls")
        iters = op_count("implicit.fp_iters")
        out = {
            "data.sbm_generate_s": self_t[("data.sbm_generate", None, "setup")] / setup_reps,
            "data.perturb_edges_s": self_t[("data.perturb_edges", None, "setup")] / setup_reps,
            "graph.build_graph_s": op_time("graph.build_graph") / units,
            "graph.build_graph_setup_s": self_t[("graph.build_graph", None, "setup")] / setup_reps,
            "graph.propagation_matrix.calls": op_count("graph.propagation_matrix.calls") / units,
            "graph.propagation_matrix_s": op_time("graph.propagation_matrix") / units,
            "graph.incidence.calls": op_count("graph.incidence.calls") / units,
            "graph.spectral_norm.calls": op_count("graph.spectral_norm.calls") / units,
            "graph.spectral_norm_s": op_time("graph.spectral_norm") / units,
            "kernels.edge_flops": op_count("kernels.edge_flops") / units,
            "kernels.dense_flops": op_count("kernels.dense_flops") / units,
            "kernels.bytes_computed": op_count("kernels.bytes_computed") / units,
            "kernels.weighted_lap_apply_s": op_time("kernels.weighted_lap_apply") / units,
            "kernels.weighted_lap_apply.calls": op_count("kernels.weighted_lap_apply.calls") / units,
            "kernels.edge_sqnorm_s": op_time("kernels.edge_sqnorm") / units,
            "energy.edge_diagonal_s": op_time("energy.edge_diagonal") / units,
            "energy.energy_eval_s": op_time("energy.energy_eval") / units,
            "energy.prox_s": op_time("energy.prox") / units,
            "unfold.step_size_bound_s": op_time("unfold.step_size_bound") / units,
            "unfold.step_size_bound.calls": op_count("unfold.step_size_bound.calls") / units,
            "unfold.irls_step_bound_s": op_time("unfold.irls_step_bound") / units,
            "unfold.irls_step_bound.calls": op_count("unfold.irls_step_bound.calls") / units,
            "unfold.normalized_step_s": op_time("unfold.normalized_step") / units,
            "unfold.propagate_s": op_time("unfold.propagate") / units,
            "implicit.fp_iters": iters / solves if solves else 0.0,
            "implicit.fixed_point_solve_s": op_time("implicit.fixed_point_solve") / units,
            "implicit.fp_s_per_iter": op_time("implicit.fixed_point_solve") / iters if iters else 0.0,
            "implicit.implicit_backward_s": op_time("implicit.implicit_backward") / units,
            "implicit.project_weights_s": op_time("implicit.project_weights") / units,
            "model.train_s": op_time("model.train") / units,
            "trace.layer_share": 1.0 - op_time("bench.op") / total_op if total_op else 0.0,
        }
        for b in BACKENDS:
            ep = epochs_by_backend.get(b, 0)
            out[f"model.forward_s.{b}"] = op_time("model.forward", b) / ep if ep else 0.0
            out[f"model.backward_s.{b}"] = op_time("model.backward", b) / ep if ep else 0.0
        return out
