"""Two-stage graph-cut pooling: filter, partition, average-pool.

Stage 1 removes small connected components (mostly isolated negatives),
stage 2 partitions each surviving component by recursive normalized cut
and filters undersized parts with the same threshold, stage 3 averages
each part's features into one coarse context node. Coarse nodes can then
be injected back into the graph so that attention sees a sparse global
summary next to the original proposals. Pooling's result is a labelling,
an (M,) int64 array with -1 for a filtered node, and a (P, d) matrix of
coarse features, row k for part k; ``augment_with_coarse`` takes that pair.

Both ``gcpool`` and ``augment_with_coarse`` cut the graph once with
``graph.induced_subgraphs``: one stable sort groups the edges by component
(or by part), so each component or part is pooled from its own contiguous
edge slice and pooling costs O(E log E) plus the per-component solves, not
components x edges. ``propgraph.oracles`` keeps the route through one
``oracles.subgraph`` per set as the reference that the tests hold these to,
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .graph import ProposalGraph, connected_components, induced_subgraphs
from .spectral import SolveCounts, _check_split_rule, recursive_ncut


@dataclass(frozen=True, eq=False)
class PseudoLabeling:
    """Per-node part assignment: ``labels`` is (M,) int64, -1 for a filtered node.

    ``component_count`` is the number of connected components of the pooled
    graph, filtered ones included; ``solves`` counts how the normalized cut
    settled each connected set it considered.
    """

    labels: np.ndarray
    part_count: int
    component_count: int
    solves: SolveCounts


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
) -> tuple[PseudoLabeling, np.ndarray]:
    """Run the full pooling pipeline on a proposal graph.

    Returns the pseudo-labeling over the input graph's nodes (-1 for
    filtered nodes) and the (P, d) coarse features, row k the mean feature
    of part k. Part labels are dense and ascend with each part's smallest
    node index. An error in partitioning a component names the component,
    its size and its first proposal.
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
        try:
            partition = recursive_ncut(
                sub, stop_ncut, min_part=min_part, counts=solves, connected=True
            )
        except (InputError, NumericalError) as exc:
            raise _in_component(exc, int(components.labels[members[0]]), members) from exc
        for label in range(partition.set_count):
            part = members[partition.labels == label]
            # Undersized parts are filtered again with the stage-1 threshold.
            if part.size >= min_size:
                parts.append(part)
    return _pooled(g, parts, components.count, solves)


def _in_component(exc: Exception, component: int, members: np.ndarray) -> Exception:
    """An error of ``exc``'s type whose message names the component, ``members`` its nodes."""
    return type(exc)(f"pooling: component {component} ({members.size} proposals, "
                     f"first proposal {int(members[0])}): {exc}")


def _pooled(
    g: ProposalGraph, parts: list[np.ndarray], component_count: int, solves: SolveCounts
) -> tuple[PseudoLabeling, np.ndarray]:
    """The labeling and coarse features of ``parts``, each an array of ascending indices of g."""
    parts = sorted(parts, key=lambda members: int(members[0]))
    labels = np.full(g.num_nodes, -1, dtype=np.int64)
    coarse = np.empty((len(parts), g.feature_dim), dtype=np.float64)
    for part_label, members in enumerate(parts):
        labels[members] = part_label
        with np.errstate(over="ignore"):
            coarse[part_label] = pool_part(g.features[members])
        if not np.isfinite(coarse[part_label]).all():
            raise NumericalError(
                f"pooling: the mean feature of part {part_label} ({members.size} members) "
                f"is not finite"
            )
    return PseudoLabeling(labels, len(parts), component_count, solves), coarse


def augment_with_coarse(g: ProposalGraph, labels: np.ndarray, coarse: np.ndarray) -> ProposalGraph:
    """Append one coarse context node per row of the (P, d) ``coarse`` features.

    Part k is the nodes that ``labels``, an (M,) integer array, labels k;
    -1 marks a node in no part. Coarse node k gets index M + k and connects
    to every member of part k; the weight to member m is the mean adjacency
    weight between m and the part's other members (1.0 for a singleton
    part). Original nodes and edges are untouched.
    """
    m = g.num_nodes
    labels = np.asarray(labels)
    if labels.shape != (m,) or not np.issubdtype(labels.dtype, np.integer):
        raise InputError(f"labels must be an ({m},) integer array, got {labels.dtype} "
                         f"of shape {labels.shape}")
    labels = labels.astype(np.int64, copy=False)
    coarse = np.asarray(coarse, dtype=np.float64)
    if coarse.ndim != 2 or coarse.shape[1] != g.feature_dim:
        raise InputError(f"coarse features must have shape (P, {g.feature_dim}), "
                         f"got {coarse.shape}")
    parts = coarse.shape[0]
    outside = (labels < -1) | (labels >= parts)
    if outside.any():
        raise InputError(f"label {labels[np.argmax(outside)]} is not -1 or a part in [0, {parts})")
    if not np.all(np.isfinite(coarse)):
        raise InputError("coarse features must be finite")
    if parts == 0:
        return g
    member_lists, weights = [], []
    for members, part in induced_subgraphs(g, labels, parts):
        member_lists.append(members)
        n = members.size
        # Members ascend, so row k of the part's dense block without its
        # diagonal entry lists member k's weights to the other members.
        weights.append(np.ones(n) if n <= 1 else
                       part.adjacency()[~np.eye(n, dtype=bool)].reshape(n, n - 1).mean(axis=1))
    all_members = np.concatenate(member_lists)
    coarse_index = m + labels[all_members]
    # Every coarse index exceeds every original one, so a stable sort by the
    # first endpoint puts the new edges in lexicographic order among the old.
    order = np.argsort(np.concatenate([g.edge_index[:, 0], all_members]), kind="stable")
    return ProposalGraph._derived(
        np.concatenate([g.features, coarse]),
        np.concatenate([g.edge_index, np.stack([all_members, coarse_index], axis=1)])[order],
        np.concatenate([g.edge_weight, *weights])[order],
    )
