"""Two-stage graph-cut pooling: filter, partition, average-pool.

Stage 1 removes small connected components (mostly isolated negatives),
stage 2 partitions each surviving component by recursive normalized cut
and filters undersized parts with the same threshold, stage 3 averages
each part's features into one coarse context node. Coarse nodes can then
be injected back into the graph so that attention sees a sparse global
summary next to the original proposals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InputError
from .graph import ProposalGraph, connected_components, filter_components
from .spectral import DEFAULT_EIG_MAX_SWEEPS, DEFAULT_EIG_TOL, recursive_ncut

_EMPTY_EDGES = np.zeros((0, 2), dtype=np.int64)


@dataclass(frozen=True, eq=False)
class PseudoLabeling:
    """Per-node part assignment; ``None`` marks a node filtered out."""

    labels: tuple[Optional[int], ...]
    part_count: int

    def present(self) -> list[int]:
        return [i for i, label in enumerate(self.labels) if label is not None]


@dataclass(frozen=True, eq=False)
class CoarseNode:
    """Average-pooled summary of one part."""

    feature: np.ndarray
    member_ids: tuple[int, ...]
    source_part: int


def pool_part(features: np.ndarray) -> np.ndarray:
    """Coordinate-wise arithmetic mean of the member feature rows."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] == 0:
        raise InputError("pool_part needs a non-empty 2-d feature matrix")
    return feats.mean(axis=0)


def gcpool(
    g: ProposalGraph,
    min_size: int,
    stop_ncut: float,
    min_part: int = 1,
    eig_tol: float = DEFAULT_EIG_TOL,
    eig_max_sweeps: int = DEFAULT_EIG_MAX_SWEEPS,
) -> tuple[PseudoLabeling, list[CoarseNode]]:
    """Run the full pooling pipeline on a proposal graph.

    Returns the pseudo-labeling over the input graph's nodes (None for
    filtered nodes) and one coarse node per surviving part, ordered by part
    label. Part labels are dense and ascend with each part's smallest
    original node index.
    """
    if min_size < 1:
        raise InputError(f"min_size must be >= 1, got {min_size}")
    m = g.num_nodes
    if m == 0:
        return PseudoLabeling(labels=(), part_count=0), []

    filtered, _removed = filter_components(g, min_size)
    original_index = g.index_of(filtered.node_ids)

    parts: list[np.ndarray] = []  # original internal indices per surviving part
    components = connected_components(filtered)
    for component in range(components.count):
        comp_idx = components.members(component)
        sub = filtered.subgraph(comp_idx)
        partition = recursive_ncut(
            sub, stop_ncut, min_part=min_part, eig_tol=eig_tol, eig_max_sweeps=eig_max_sweeps
        )
        for label in range(partition.set_count):
            members = comp_idx[partition.labels == label]
            # Undersized parts are filtered again with the stage-1 threshold.
            if members.size >= min_size:
                parts.append(original_index[members])

    parts.sort(key=lambda members: int(members.min()))
    labels: list[Optional[int]] = [None] * m
    coarse: list[CoarseNode] = []
    for part_label, members in enumerate(parts):
        for node in members:
            labels[int(node)] = part_label
        member_ids = tuple(sorted(int(n) for n in g.node_ids[members]))
        coarse.append(
            CoarseNode(
                feature=pool_part(g.features[members]),
                member_ids=member_ids,
                source_part=part_label,
            )
        )
    return PseudoLabeling(labels=tuple(labels), part_count=len(parts)), coarse


def augment_with_coarse(g: ProposalGraph, coarse: Sequence[CoarseNode]) -> ProposalGraph:
    """Append coarse context nodes to the graph.

    Each coarse node connects to every member of its part; the weight to
    member m is the mean adjacency weight between m and the part's other
    members (1.0 for a singleton part). Original nodes, edges, and ids are
    untouched; new ids continue after the current maximum.
    """
    if not coarse:
        return g
    m = g.num_nodes
    adjacency = g.adjacency()
    new_rows = []
    extra_edges: list[tuple[int, int, float]] = []
    next_id = int(g.node_ids.max()) + 1 if m > 0 else 0
    new_ids = []
    # One id lookup for all parts, split back into per-part index arrays.
    all_members = g.index_of([nid for node in coarse for nid in node.member_ids])
    part_ends = np.cumsum([len(node.member_ids) for node in coarse])[:-1]
    for k, (node, member_idx) in enumerate(zip(coarse, np.split(all_members, part_ends))):
        feature = np.asarray(node.feature, dtype=np.float64)
        if feature.shape != (g.feature_dim,):
            raise InputError("coarse feature dimension does not match the graph")
        new_rows.append(feature)
        new_ids.append(next_id + k)
        for idx in member_idx:
            others = member_idx[member_idx != idx]
            if others.size == 0:
                weight = 1.0
            else:
                weight = float(adjacency[idx, others].mean())
            extra_edges.append((int(idx), m + k, weight))
    features = np.concatenate([g.features, np.stack(new_rows)], axis=0)
    node_ids = np.concatenate([g.node_ids, np.array(new_ids, dtype=np.int64)])
    all_edges = [(int(i), int(j), float(w)) for (i, j), w in zip(g.edge_index, g.edge_weight)]
    all_edges.extend(extra_edges)
    all_edges.sort(key=lambda e: (e[0], e[1]))
    edge_index = np.array([(i, j) for i, j, _ in all_edges], dtype=np.int64).reshape(-1, 2)
    edge_weight = np.array([w for _, _, w in all_edges], dtype=np.float64)
    return ProposalGraph(
        features=features, edge_index=edge_index, edge_weight=edge_weight, node_ids=node_ids
    )
