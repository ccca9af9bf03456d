"""propgraph: relation-aware refinement of object-detection proposals.

Proposals become nodes of a weighted graph (edges = thresholded IoU).
Spectral normalized cuts pool the graph into coarse context nodes, graph
attention mixes information along edges, and a residual normalization
returns refined per-proposal features with the original statistics.
"""

from .attention import (
    AttendablePairs,
    AttentionDegrees,
    AttentionGradients,
    AttentionParams,
    attend,
    attendable_pairs,
    attention_gradients,
    attention_weights,
    multi_head_attend,
    similarity_scores,
)
from .config import PipelineConfig
from .errors import InputError, NumericalError
from .geometry import BoundingBox, iou, spatial_descriptor
from .graph import (
    ComponentLabeling,
    ProposalGraph,
    build_graph,
    connected_components,
    graph_from_edges,
    induced_subgraphs,
)
from .io import ProposalDocument, load_proposals, save_proposals
from .oracles import brute_force_ncut, finite_difference_gradients
from .pipeline import PipelineDiagnostics, RefinedProposals, forward, identical_normalize
from .pooling import CoarseNode, PseudoLabeling, augment_with_coarse, gcpool, pool_part
from .spectral import (
    CutReport,
    Partition,
    SolveCounts,
    fiedler_vector,
    ncut_value,
    normalized_laplacian,
    recursive_ncut,
    symmetric_eigendecomposition,
    two_way_ncut,
)
from .synthetic import generate_proposals

__version__ = "0.1.0"

__all__ = [
    "AttendablePairs",
    "AttentionDegrees",
    "AttentionGradients",
    "AttentionParams",
    "BoundingBox",
    "ComponentLabeling",
    "CoarseNode",
    "CutReport",
    "InputError",
    "NumericalError",
    "Partition",
    "PipelineConfig",
    "PipelineDiagnostics",
    "ProposalDocument",
    "ProposalGraph",
    "PseudoLabeling",
    "SolveCounts",
    "RefinedProposals",
    "attend",
    "attendable_pairs",
    "attention_gradients",
    "attention_weights",
    "augment_with_coarse",
    "brute_force_ncut",
    "build_graph",
    "connected_components",
    "fiedler_vector",
    "finite_difference_gradients",
    "forward",
    "gcpool",
    "generate_proposals",
    "graph_from_edges",
    "identical_normalize",
    "induced_subgraphs",
    "iou",
    "load_proposals",
    "multi_head_attend",
    "ncut_value",
    "normalized_laplacian",
    "pool_part",
    "recursive_ncut",
    "save_proposals",
    "similarity_scores",
    "spatial_descriptor",
    "symmetric_eigendecomposition",
    "two_way_ncut",
]
