"""Verification oracles and the seeded graph generators that feed them.

Each oracle reaches what the forward path computes by another route:
exhaustive search, edge-by-edge enumeration, a dense per-row attention
kernel, pooling through one induced ``subgraph`` per set, or central finite
differences. ``graph_from_edges`` builds the generators' graphs from (i, j, w)
triples. The ``oracle`` CLI commands and the test suite both use this
module; no forward-path module imports it.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from .attention import AttentionGradients, AttentionParams, multi_head_attend
from .errors import InputError, NumericalError
from .graph import ProposalGraph, connected_components
from .pooling import PseudoLabeling, _in_component, _pooled
from .spectral import (
    _CERTIFY_MARGIN,
    CutReport,
    Partition,
    SolveCounts,
    _block_of,
    _check_split_rule,
    _sweep_order,
    ncut_value,
    two_way_ncut,
)

BRUTE_FORCE_MAX_NODES = 15


def graph_from_edges(
    num_nodes: int,
    edges: Iterable[tuple[int, int, float]],
    features: np.ndarray | None = None,
) -> ProposalGraph:
    """The graph of weighted (i, j, w) triples, through the checking constructor."""
    rows = list(edges)
    if features is None:
        features = np.zeros((num_nodes, 0), dtype=np.float64)
    edge_index = np.array([row[:2] for row in rows], dtype=np.int64).reshape(-1, 2)
    edge_index.sort(axis=1)
    edge_weight = np.array([row[2] for row in rows], dtype=np.float64)
    return ProposalGraph(features=features, edge_index=edge_index, edge_weight=edge_weight)


def subgraph(g: ProposalGraph, indices: np.ndarray) -> ProposalGraph:
    """Induced subgraph of ``g`` on ``indices`` (strictly ascending node indices).

    Masks every edge of ``g``: the route ``graph.induced_subgraphs`` must
    match bit for bit.
    """
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    if idx.size:
        if idx.min() < 0 or idx.max() >= g.num_nodes:
            raise InputError("subgraph index out of range")
        if np.any(np.diff(idx) <= 0):
            raise InputError("subgraph indices must be strictly ascending")
    keep = np.zeros(g.num_nodes, dtype=bool)
    keep[idx] = True
    remap = np.full(g.num_nodes, -1, dtype=np.int64)
    remap[idx] = np.arange(idx.size, dtype=np.int64)
    mask = keep[g.edge_index[:, 0]] & keep[g.edge_index[:, 1]]
    return ProposalGraph._derived(g.features[idx], remap[g.edge_index[mask]], g.edge_weight[mask])


def random_connected_graph(rng: np.random.Generator, n: int, features: int = 0) -> ProposalGraph:
    """Random spanning tree plus extra edges; weights in (0.05, 1].

    With ``features`` > 0 the node features are standard normal draws taken
    after the edges, so the edge structure does not depend on ``features``.
    """
    edges = {}
    for node in range(1, n):
        parent = int(rng.integers(0, node))
        edges[(parent, node)] = float(rng.uniform(0.05, 1.0))
    for _ in range(int(rng.integers(0, n))):
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n))
        if i != j:
            edges[(min(i, j), max(i, j))] = float(rng.uniform(0.05, 1.0))
    feats = rng.normal(size=(n, features)) if features else None
    return graph_from_edges(n, [(i, j, w) for (i, j), w in edges.items()], features=feats)


def bridged_cliques(k: int, bridge_weight: float) -> ProposalGraph:
    """Two unit-weight k-cliques (nodes 0..k-1 and k..2k-1) joined by the edge (0, k)."""
    edges = []
    for i in range(k):
        for j in range(i + 1, k):
            edges.append((i, j, 1.0))
            edges.append((k + i, k + j, 1.0))
    edges.append((0, k, bridge_weight))
    return graph_from_edges(2 * k, edges)


def brute_force_ncut(g: ProposalGraph) -> tuple[Partition, CutReport]:
    """Exhaustive global optimum over all nontrivial bipartitions.

    Enumerates the 2^(M-1) - 1 bipartitions, so M is capped at 15. Ties
    break lexicographically on the canonical label vector.
    """
    m = g.num_nodes
    if m < 2:
        raise InputError("brute force needs at least 2 nodes")
    if m > BRUTE_FORCE_MAX_NODES:
        raise InputError(f"brute force capped at {BRUTE_FORCE_MAX_NODES} nodes, got {m}")
    w = g.adjacency()
    degrees = w.sum(axis=1)
    best_key: tuple[float, tuple[int, ...]] | None = None
    best_labels: np.ndarray | None = None
    # Node 0 stays in set 0; every mask chooses the membership of nodes 1..M-1.
    for mask in range(1, 1 << (m - 1)):
        labels = np.zeros(m, dtype=np.int64)
        for bit in range(m - 1):
            if mask >> bit & 1:
                labels[bit + 1] = 1
        inside = labels == 0
        assoc_a = float(degrees[inside].sum())
        assoc_b = float(degrees[~inside].sum())
        if assoc_a == 0.0 or assoc_b == 0.0:
            continue  # undefined objective: a side with no connections at all
        cut = float(w[np.ix_(inside, ~inside)].sum())
        value = cut / assoc_a + cut / assoc_b
        key = (value, tuple(int(x) for x in labels))
        if best_key is None or key < best_key:
            best_key = key
            best_labels = labels
    if best_labels is None:
        raise InputError("no bipartition with positive association on both sides")
    partition = Partition(labels=best_labels, set_count=2)
    return partition, ncut_value(g, partition)


def edge_enumeration_ncut(g: ProposalGraph, partition: Partition) -> float:
    """The partition objective summed edge by edge, with no adjacency matrix.

    Each edge adds its weight to the association of both endpoint sets and,
    when it crosses sets, to the cut of both. Every set needs a positive
    association.
    """
    cut = [0.0] * partition.set_count
    assoc = [0.0] * partition.set_count
    for (i, j), w in zip(g.edge_index, g.edge_weight):
        li, lj = int(partition.labels[i]), int(partition.labels[j])
        assoc[li] += float(w)
        assoc[lj] += float(w)
        if li != lj:
            cut[li] += float(w)
            cut[lj] += float(w)
    return sum(c / a for c, a in zip(cut, assoc))


def reference_recursive_ncut(
    g: ProposalGraph,
    stop_ncut: float,
    min_part: int = 1,
    counts: SolveCounts | None = None,
) -> Partition:
    """``recursive_ncut`` through one induced subgraph per set.

    Every set is cut from ``g`` with ``subgraph``, labelled with
    ``connected_components`` and given its own dense block, so the
    partition and the counts must equal ``recursive_ncut``'s bit for bit.
    """
    if counts is None:
        counts = SolveCounts()
    _check_split_rule(stop_ncut, min_part)
    m = g.num_nodes
    if m == 0:
        raise InputError("cannot partition an empty graph")
    parts: list[np.ndarray] = []
    stack: list[np.ndarray] = [np.arange(m, dtype=np.int64)]
    while stack:
        idx = stack.pop()
        if idx.size == 1:
            parts.append(idx)
            continue
        sub = subgraph(g, idx)
        components = connected_components(sub)
        if components.count > 1:
            first = idx[components.labels == 0]
            rest = idx[components.labels != 0]
            if min(first.size, rest.size) >= min_part:
                stack.append(rest)
                stack.append(first)
            else:
                parts.append(idx)
            continue
        block = _block_of(sub.adjacency())
        values, vectors = np.linalg.eigh(block.laplacian)
        if values[1] > stop_ncut + _CERTIFY_MARGIN:
            counts.kept_whole += 1
            parts.append(idx)
            continue
        order, certified = _sweep_order(block, values, vectors)
        if certified:
            counts.fiedler_certified += 1
        else:
            counts.jacobi_fallbacks += 1
        partition, report = two_way_ncut(sub, block=block, order=order)
        side_a = idx[partition.labels == 0]
        side_b = idx[partition.labels == 1]
        if report.ncut_value <= stop_ncut and min(side_a.size, side_b.size) >= min_part:
            stack.append(side_b)
            stack.append(side_a)
        else:
            parts.append(idx)
    parts.sort(key=lambda members: int(members[0]))
    labels = np.zeros(m, dtype=np.int64)
    for label, members in enumerate(parts):
        labels[members] = label
    return Partition(labels=labels, set_count=len(parts))


def reference_gcpool(
    g: ProposalGraph, min_size: int, stop_ncut: float, min_part: int = 1
) -> tuple[PseudoLabeling, np.ndarray]:
    """``gcpool`` through one ``subgraph`` per component and ``reference_recursive_ncut``."""
    if min_size < 1:
        raise InputError(f"min_size must be >= 1, got {min_size}")
    _check_split_rule(stop_ncut, min_part)
    parts: list[np.ndarray] = []
    solves = SolveCounts()
    components = connected_components(g)
    for component in np.flatnonzero(components.sizes >= min_size):
        comp_idx = np.flatnonzero(components.labels == component)
        try:
            partition = reference_recursive_ncut(
                subgraph(g, comp_idx), stop_ncut, min_part=min_part, counts=solves
            )
        except (InputError, NumericalError) as exc:
            raise _in_component(exc, int(component), comp_idx) from exc
        for label in range(partition.set_count):
            members = comp_idx[partition.labels == label]
            if members.size >= min_size:
                parts.append(members)
    return _pooled(g, parts, components.count, solves)


def reference_augment_with_coarse(
    g: ProposalGraph, labels: np.ndarray, coarse: np.ndarray
) -> ProposalGraph:
    """``augment_with_coarse`` through ``np.flatnonzero(labels == k)`` and one
    ``subgraph`` per part, and the checking constructor, which sorts the
    appended edges itself. A member's weights sum in ``augment_with_coarse``'s
    order: its edges as the first endpoint, then as the second."""
    m = g.num_nodes
    if coarse.shape[0] == 0:
        return g
    member_lists = [np.flatnonzero(labels == k) for k in range(coarse.shape[0])]
    weights = []
    for members in member_lists:
        n = members.size
        if n <= 1:
            weights.append(np.ones(n))
            continue
        part = subgraph(g, members)
        i, j = part.edge_index[:, 0], part.edge_index[:, 1]
        sums = np.bincount(i, part.edge_weight, minlength=n) + np.bincount(
            j, part.edge_weight, minlength=n)
        weights.append(sums / (n - 1))
    all_members = np.concatenate(member_lists)
    coarse_index = m + labels[all_members]
    return ProposalGraph(
        features=np.concatenate([g.features, coarse]),
        edge_index=np.concatenate([g.edge_index, np.stack([all_members, coarse_index], axis=1)]),
        edge_weight=np.concatenate([g.edge_weight, *weights]),
    )


def reference_attention(
    features: np.ndarray,
    params: AttentionParams,
    g: ProposalGraph,
    iou_bias: bool = False,
) -> np.ndarray:
    """``multi_head_attend`` through an M x M score matrix and mask, row by row.

    Each head scores pair (i, j) by the key alone: x_j against its
    ``key_weights`` row, plus log w_ij with the IoU bias. Row i attends to
    itself and its graph neighbors, ordered in Python by the big-endian
    bytes of x_j, then by log w_ij; it softmaxes its scores in that order
    with an ``np.sum`` denominator, adds its (k, d) contributions one after
    another from 0.0 (for d == 1 through the kernel's own ``einsum``, whose
    1-d sum is unrolled), then clips to the attendable min/max. The sparse
    kernel must give the same bits.
    """
    feats = np.asarray(features, dtype=np.float64)
    m, d = feats.shape
    i, j = g.edge_index[:, 0], g.edge_index[:, 1]
    mask = np.eye(m, dtype=bool)
    mask[i, j] = True
    mask[j, i] = True
    on_edge = g.edge_weight > 0.0
    bias = np.log(np.maximum(g.edge_weight[on_edge], 1e-300))
    log_weight = np.zeros((m, m))
    if iou_bias:
        log_weight[i[on_edge], j[on_edge]] = bias
        log_weight[j[on_edge], i[on_edge]] = bias
    content = [feats[node].astype(">f8").tobytes() for node in range(m)]
    head_outputs = []
    for key in params.key_weights:
        right = np.einsum("md,d->m", feats, key)
        scores = np.tile(right, (m, 1))
        if iou_bias:
            scores[i[on_edge], j[on_edge]] += bias
            scores[j[on_edge], i[on_edge]] += bias
        out = np.empty_like(feats)
        for row in range(m):
            idx = sorted(np.flatnonzero(mask[row]),
                         key=lambda col: (content[col], log_weight[row, col]))
            shifted = np.exp(scores[row, idx] - np.max(scores[row, idx]))
            weights = shifted / np.sum(shifted)
            if d == 1:
                summed = np.einsum("rk,rkd->rd", weights[None], feats[idx][None])[0]
            else:
                summed = np.zeros(d)
                for contribution in weights[:, None] * feats[idx]:
                    summed = summed + contribution
            out[row] = np.minimum(np.maximum(summed, feats[idx].min(axis=0)),
                                  feats[idx].max(axis=0))
        head_outputs.append(out)
    concatenated = np.concatenate(head_outputs, axis=1)
    if params.output_projection is None:
        return concatenated
    return np.einsum("mk,ko->mo", concatenated, params.output_projection)


def finite_difference_gradients(
    features: np.ndarray,
    params: AttentionParams,
    g: ProposalGraph,
    upstream: np.ndarray,
    step: float = 1e-5,
    iou_bias: bool = False,
) -> AttentionGradients:
    """Central-difference gradients of <upstream, multi_head_attend(...)>."""
    feats = np.asarray(features, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)

    def objective(f: np.ndarray, w: np.ndarray, proj: Optional[np.ndarray]) -> float:
        p = AttentionParams(key_weights=w, output_projection=proj)
        out = multi_head_attend(f, p, g, iou_bias=iou_bias)
        return float(np.sum(upstream * out))

    def central(arrays: tuple, which: int) -> np.ndarray:
        base = arrays[which]
        grad = np.zeros_like(base)
        flat = grad.reshape(-1)
        base_flat = base.reshape(-1)
        for k in range(base_flat.size):
            saved = base_flat[k]
            base_flat[k] = saved + step
            plus = objective(*arrays)
            base_flat[k] = saved - step
            minus = objective(*arrays)
            base_flat[k] = saved
            flat[k] = (plus - minus) / (2.0 * step)
        return grad

    proj = params.output_projection.copy() if params.output_projection is not None else None
    arrays = (feats.copy(), params.key_weights.copy(), proj)
    return AttentionGradients(
        features=central(arrays, 0),
        key_weights=central(arrays, 1),
        output_projection=central(arrays, 2) if proj is not None else None,
    )


def max_relative_error(analytic: AttentionGradients, numeric: AttentionGradients) -> float:
    """Largest |a - n| / max(1, |a|, |n|) over every gradient entry.

    The output projection is compared only when ``analytic`` carries one.
    """
    worst = 0.0
    for a, n in (
        (analytic.features, numeric.features),
        (analytic.key_weights, numeric.key_weights),
        (analytic.output_projection, numeric.output_projection),
    ):
        if a is None:
            continue
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(n)))
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst
