"""Two-stage graph-cut pooling: filter, partition, average-pool.

Stage 1 removes small connected components (mostly isolated negatives),
stage 2 partitions each surviving component by recursive normalized cut
and filters undersized parts with the same threshold, stage 3 averages
each part's features into one coarse context node. Coarse nodes can then
be injected back into the graph so that attention sees a sparse global
summary next to the original proposals.

Both ``gcpool`` and ``augment_with_coarse`` cut the graph once with
``graph.induced_subgraphs``: one stable sort groups the edges by component
(or by part), so each component or part is pooled from its own contiguous
edge slice and pooling costs O(E log E) plus the per-component solves, not
components x edges. ``propgraph.oracles`` keeps the one-``subgraph``-per-set
route as the reference that the tests hold these to, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InputError
from .graph import ProposalGraph, connected_components, induced_subgraphs
from .spectral import SolveCounts, _check_split_rule, recursive_ncut


@dataclass(frozen=True, eq=False)
class PseudoLabeling:
    """Per-node part assignment; ``None`` marks a node filtered out.

    ``component_count`` is the number of connected components of the pooled
    graph, filtered ones included; ``solves`` counts how the normalized cut
    settled each connected set it considered.
    """

    labels: tuple[Optional[int], ...]
    part_count: int
    component_count: int
    solves: SolveCounts


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
) -> tuple[PseudoLabeling, list[CoarseNode]]:
    """Run the full pooling pipeline on a proposal graph.

    Returns the pseudo-labeling over the input graph's nodes (None for
    filtered nodes) and one coarse node per surviving part, ordered by part
    label. Part labels are dense and ascend with each part's smallest
    original node index.
    """
    if min_size < 1:
        raise InputError(f"min_size must be >= 1, got {min_size}")
    _check_split_rule(stop_ncut, min_part)
    components = connected_components(g)
    kept = components.sizes >= min_size
    survivors = int(np.count_nonzero(kept))
    survivor_label = np.full(components.count, -1, dtype=np.int64)
    survivor_label[kept] = np.arange(survivors)
    parts: list[np.ndarray] = []  # internal indices of g per surviving part
    solves = SolveCounts()
    for members, sub in induced_subgraphs(g, survivor_label[components.labels], survivors):
        partition = recursive_ncut(
            sub, stop_ncut, min_part=min_part, counts=solves, connected=True
        )
        for label in range(partition.set_count):
            part = members[partition.labels == label]
            # Undersized parts are filtered again with the stage-1 threshold.
            if part.size >= min_size:
                parts.append(part)
    return _pooled(g, parts, components.count, solves)


def _pooled(
    g: ProposalGraph, parts: list[np.ndarray], component_count: int, solves: SolveCounts
) -> tuple[PseudoLabeling, list[CoarseNode]]:
    """The labeling and coarse nodes of ``parts``, each an array of ascending indices of g."""
    parts = sorted(parts, key=lambda members: int(members[0]))
    labels: list[Optional[int]] = [None] * g.num_nodes
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
    labeling = PseudoLabeling(
        labels=tuple(labels), part_count=len(parts), component_count=component_count,
        solves=solves,
    )
    return labeling, coarse


def augment_with_coarse(g: ProposalGraph, coarse: Sequence[CoarseNode]) -> ProposalGraph:
    """Append coarse context nodes to the graph.

    Each coarse node connects to every member of its part; the weight to
    member m is the mean adjacency weight between m and the part's other
    members (1.0 for a singleton part). Parts must be disjoint, as
    ``gcpool``'s are. Original nodes, edges, and ids are untouched; new ids
    continue after the current maximum.
    """
    if not coarse:
        return g
    m = g.num_nodes
    next_id = int(g.node_ids.max()) + 1 if m > 0 else 0
    # One id lookup for all parts, split back into per-part index arrays.
    wanted = np.array([nid for node in coarse for nid in node.member_ids], dtype=np.int64)
    by_id = np.argsort(g.node_ids)
    at = np.searchsorted(g.node_ids[by_id], wanted)
    found = at < m
    found[found] = g.node_ids[by_id[at[found]]] == wanted[found]
    if not found.all():
        raise InputError(f"unknown node id {int(wanted[np.argmin(found)])}")
    all_members = by_id[at]
    if np.bincount(all_members, minlength=m).max(initial=0) > 1:
        raise InputError("coarse nodes must not share members")
    part_sizes = np.array([len(node.member_ids) for node in coarse], dtype=np.int64)
    part_of = np.full(m, -1, dtype=np.int64)
    part_of[all_members] = np.repeat(np.arange(len(coarse)), part_sizes)
    member_lists = np.split(all_members, np.cumsum(part_sizes)[:-1])
    weights = []
    for node, member_idx, (ascending, part) in zip(
        coarse, member_lists, induced_subgraphs(g, part_of, len(coarse))
    ):
        if np.shape(node.feature) != (g.feature_dim,):
            raise InputError("coarse feature dimension does not match the graph")
        n = member_idx.size
        if n <= 1:
            weights.append(np.ones(n))
            continue
        # The part's dense block in member order; row k without its diagonal
        # entry lists member k's weights to the other members in that order.
        pos = np.searchsorted(ascending, member_idx)
        block = part.adjacency()[np.ix_(pos, pos)]
        weights.append(block[~np.eye(n, dtype=bool)].reshape(n, n - 1).mean(axis=1))
    coarse_features = np.array([node.feature for node in coarse], dtype=np.float64)
    if not np.all(np.isfinite(coarse_features)):
        raise InputError("node features must be finite")
    # Every coarse index exceeds every original one, so a stable sort by the
    # first endpoint puts the new edges in lexicographic order among the old.
    coarse_index = np.repeat(np.arange(m, m + len(coarse), dtype=np.int64), part_sizes)
    order = np.argsort(np.concatenate([g.edge_index[:, 0], all_members]), kind="stable")
    return ProposalGraph._derived(
        np.concatenate([g.features, coarse_features]),
        np.concatenate([g.edge_index, np.stack([all_members, coarse_index], axis=1)])[order],
        np.concatenate([g.edge_weight, *weights])[order],
        np.concatenate([g.node_ids, np.arange(next_id, next_id + len(coarse), dtype=np.int64)]),
    )
