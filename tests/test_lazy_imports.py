"""scipy.sparse.linalg (ARPACK, SuperLU, PROPACK and scipy.linalg's LAPACK
with its own OpenBLAS, about 8.5 MB resident) loads only where it is
called: the closed-form CG solve.  Spectral norms, including ``alpha="auto"``'s
||L|| and ||P|| under COMBINATORIAL, come from a numpy Lanczos solve.  Each
step below runs in one new interpreter, in order, and reports whether the
stack is loaded once it is done."""

SNIPPET = """
import json
import sys

import numpy as np

loaded = {}


def note(step):
    loaded[step] = "scipy.sparse.linalg" in sys.modules


import unfoldgnn
note("import unfoldgnn")
import unfoldgnn.cli
note("import unfoldgnn.cli")

from unfoldgnn import energy, graph, model, unfold
from unfoldgnn.data import SbmSpec, sbm_generate

rng = np.random.default_rng(0)
n = 300
g = graph.build_graph(n, rng.integers(0, n, size=(4 * n, 2)))
fx = rng.standard_normal((n, 8))
# robust-cold's propagation: truncated_lp, relu, auto_irls, a refresh per layer
spec = energy.EnergySpec(rho=energy.rho_truncated_lp(p=0.5, tau=0.3, big_t=2.0),
                         phi=energy.phi_relu(), lam=1.0,
                         kind=graph.LaplacianKind.COMBINATORIAL)
unfold.propagate(spec, g, fx, unfold.PropagationConfig(
    steps=8, alpha="auto_irls", attention_schedule=tuple(range(8))))
note("robust-cold propagate")
unfold.propagate(spec, g, fx, unfold.PropagationConfig(steps=8, alpha=0.3))
note("fixed-alpha propagate")

ds = sbm_generate(SbmSpec(blocks=(30, 30), p_in=0.2, p_out=0.02, seed=0))
for backend in ("implicit", "eignn"):
    cfg = model.ModelConfig(backend=backend, embed_dim=4, n_classes=2,
                            kind=graph.LaplacianKind.SELF_LOOP_SYM)
    model.train(ds.graph, ds.x, ds.labels, ds.masks, cfg, model.TrainConfig(epochs=3))
    note(f"3 {backend} epochs")
code = unfoldgnn.cli.main(["fixedpoint", "--set", "unfold.kind=self_loop_sym",
                           "--out", OUT])
assert code == 0, code
note("cli fixedpoint")

unfold.propagate(spec, g, fx, unfold.PropagationConfig(steps=8, alpha="auto"))
note("auto-alpha propagate")
cfg = model.ModelConfig(backend="implicit", embed_dim=4, n_classes=2,
                        kind=graph.LaplacianKind.COMBINATORIAL)
model.train(ds.graph, ds.x, ds.labels, ds.masks, cfg, model.TrainConfig(epochs=3))
note("3 combinatorial implicit epochs")

unfold.closed_form_solution(g, fx, 1.0, graph.LaplacianKind.COMBINATORIAL)
note("closed-form solve")
print(json.dumps(loaded))
"""


def test_solver_stack_loads_only_where_it_is_called(fresh_python, tmp_path):
    loaded = fresh_python(f"OUT = {str(tmp_path / 'fixedpoint')!r}\n" + SNIPPET)
    assert loaded.pop("closed-form solve"), "the closed-form CG solve loads it"
    assert len(loaded) == 9
    assert not any(loaded.values()), loaded
