"""Graph energy propagation: unfolded descent layers, implicit
fixed-point layers, IRLS edge reweighting, and the verifiers tying the
two model families together."""

__version__ = "0.1.0"

from .graph import Graph, LaplacianKind, build_graph, homophily_ratio, laplacian, propagation_matrix, spectral_norm

__all__ = [
    "Graph",
    "LaplacianKind",
    "build_graph",
    "homophily_ratio",
    "laplacian",
    "propagation_matrix",
    "spectral_norm",
]
