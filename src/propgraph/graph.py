"""Weighted proposal graph: IoU-thresholded adjacency over detection proposals.

Nodes are proposals, edges connect overlapping boxes, edge weights are the
pairwise IoU. Graphs are immutable after construction; every derived graph
(induced subgraph, filtered graph) is a new value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError
from .geometry import BoundingBox

_EMPTY_EDGES = np.zeros((0, 2), dtype=np.int64)
_EMPTY_WEIGHTS = np.zeros(0, dtype=np.float64)


@dataclass(frozen=True, eq=False)
class ProposalGraph:
    """Undirected simple graph with per-node feature rows.

    ``edge_index`` holds (i, j) with i < j, lexicographically sorted and
    duplicate-free; ``edge_weight`` is aligned with it. ``node_ids`` are
    stable external identifiers carried through filtering.
    Arrays are treated as read-only after construction.
    """

    features: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    edge_index: np.ndarray = field(default_factory=lambda: _EMPTY_EDGES.copy())
    edge_weight: np.ndarray = field(default_factory=lambda: _EMPTY_WEIGHTS.copy())
    node_ids: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=np.float64)
        if features.ndim != 2:
            raise InputError("features must be a 2-d matrix (one row per node)")
        edge_index = np.asarray(self.edge_index, dtype=np.int64).reshape(-1, 2)
        edge_weight = np.asarray(self.edge_weight, dtype=np.float64).reshape(-1)
        node_ids = np.asarray(self.node_ids, dtype=np.int64).reshape(-1)
        m = features.shape[0]
        if node_ids.size == 0 and m > 0:
            node_ids = np.arange(m, dtype=np.int64)
        if node_ids.shape[0] != m:
            raise InputError(f"{node_ids.shape[0]} node ids for {m} nodes")
        if np.unique(node_ids).size != m:
            raise InputError("node ids must be unique")
        if edge_index.shape[0] != edge_weight.shape[0]:
            raise InputError("edge_index and edge_weight lengths differ")
        if edge_index.size:
            if edge_index.min() < 0 or edge_index.max() >= m:
                raise InputError("edge endpoint out of range")
            if np.any(edge_index[:, 0] >= edge_index[:, 1]):
                raise InputError("edges must satisfy i < j (no self-loops)")
            order = np.lexsort((edge_index[:, 1], edge_index[:, 0]))
            edge_index = edge_index[order]
            edge_weight = edge_weight[order]
            dup = np.all(edge_index[1:] == edge_index[:-1], axis=1)
            if np.any(dup):
                raise InputError("duplicate edges are not allowed")
        if not np.all(np.isfinite(edge_weight)) or np.any(edge_weight < 0.0):
            raise InputError("edge weights must be finite and non-negative")
        if not np.all(np.isfinite(features)):
            raise InputError("node features must be finite")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "edge_index", edge_index)
        object.__setattr__(self, "edge_weight", edge_weight)
        object.__setattr__(self, "node_ids", node_ids)

    @property
    def num_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edge_index.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def edges(self) -> list[tuple[int, int, float]]:
        """Edges as sorted (i, j, w) triples."""
        return [
            (int(i), int(j), float(w))
            for (i, j), w in zip(self.edge_index, self.edge_weight)
        ]

    def adjacency(self) -> np.ndarray:
        """Dense symmetric weight matrix; zeros mark absent edges."""
        m = self.num_nodes
        a = np.zeros((m, m), dtype=np.float64)
        if self.num_edges:
            i, j = self.edge_index[:, 0], self.edge_index[:, 1]
            a[i, j] = self.edge_weight
            a[j, i] = self.edge_weight
        return a

    def degrees(self) -> np.ndarray:
        """Weighted degree per node (row sums of the dense adjacency)."""
        return self.adjacency().sum(axis=1)

    def subgraph(self, indices: Sequence[int] | np.ndarray) -> "ProposalGraph":
        """Induced subgraph on ``indices`` (ascending internal indices)."""
        idx = np.asarray(indices, dtype=np.int64).reshape(-1)
        if idx.size:
            if idx.min() < 0 or idx.max() >= self.num_nodes:
                raise InputError("subgraph index out of range")
            if np.any(np.diff(idx) <= 0):
                raise InputError("subgraph indices must be strictly ascending")
        keep = np.zeros(self.num_nodes, dtype=bool)
        keep[idx] = True
        remap = np.full(self.num_nodes, -1, dtype=np.int64)
        remap[idx] = np.arange(idx.size, dtype=np.int64)
        mask = keep[self.edge_index[:, 0]] & keep[self.edge_index[:, 1]]
        return ProposalGraph(
            features=self.features[idx],
            edge_index=remap[self.edge_index[mask]],
            edge_weight=self.edge_weight[mask],
            node_ids=self.node_ids[idx],
        )

    def index_of(self, node_ids: Iterable[int]) -> np.ndarray:
        """Internal indices for the given external ids."""
        lookup = {int(nid): k for k, nid in enumerate(self.node_ids)}
        try:
            return np.array([lookup[int(n)] for n in node_ids], dtype=np.int64)
        except KeyError as exc:
            raise InputError(f"unknown node id {exc.args[0]}") from exc


@dataclass(frozen=True, eq=False)
class ComponentLabeling:
    """Connected-component labels, numbered by each component's smallest node index."""

    labels: np.ndarray
    sizes: np.ndarray

    @property
    def count(self) -> int:
        return int(self.sizes.shape[0])

    def members(self, component: int) -> np.ndarray:
        return np.flatnonzero(self.labels == component)


def _pairwise_iou(xyxy: np.ndarray) -> np.ndarray:
    """All-pairs IoU; mirrors geometry.iou operation-for-operation."""
    x1, y1, x2, y2 = xyxy[:, 0], xyxy[:, 1], xyxy[:, 2], xyxy[:, 3]
    iw = np.minimum(x2[:, None], x2[None, :]) - np.maximum(x1[:, None], x1[None, :])
    ih = np.minimum(y2[:, None], y2[None, :]) - np.maximum(y1[:, None], y1[None, :])
    overlap = (iw > 0.0) & (ih > 0.0)
    inter = np.where(overlap, iw * ih, 0.0)
    area = (x2 - x1) * (y2 - y1)
    union = area[:, None] + area[None, :] - inter
    return np.where(overlap, inter / union, 0.0)


def build_graph(
    boxes: Sequence[BoundingBox],
    features: np.ndarray | Sequence[Sequence[float]],
    iou_thr: float,
) -> ProposalGraph:
    """Build the proposal graph: an edge (i, j, IoU) wherever IoU > iou_thr.

    The threshold comparison is strict, so boundary-equal pairs get no edge.
    """
    if not 0.0 <= iou_thr < 1.0:
        raise InputError(f"iou_thr must lie in [0, 1), got {iou_thr}")
    boxes = list(boxes)
    m = len(boxes)
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim == 1 and m == 0 and feats.size == 0:
        feats = feats.reshape(0, 0)
    if feats.ndim != 2 or feats.shape[0] != m:
        raise InputError(f"expected {m} feature rows, got shape {feats.shape}")
    if m == 0:
        return ProposalGraph(features=feats)
    xyxy = np.array([b.as_tuple() for b in boxes], dtype=np.float64)
    weights = _pairwise_iou(xyxy)
    ii, jj = np.triu_indices(m, k=1)
    w = weights[ii, jj]
    hit = w > iou_thr
    edge_index = np.stack([ii[hit], jj[hit]], axis=1).astype(np.int64)
    return ProposalGraph(features=feats, edge_index=edge_index, edge_weight=w[hit])


def graph_from_edges(
    num_nodes: int,
    edges: Iterable[tuple[int, int, float]],
    features: np.ndarray | None = None,
    node_ids: Sequence[int] | None = None,
) -> ProposalGraph:
    """Construct a graph directly from weighted (i, j, w) triples (test/CLI helper)."""
    rows = list(edges)
    if features is None:
        features = np.zeros((num_nodes, 0), dtype=np.float64)
    edge_index = np.array([row[:2] for row in rows], dtype=np.int64).reshape(-1, 2)
    edge_index.sort(axis=1)
    edge_weight = np.array([row[2] for row in rows], dtype=np.float64)
    ids = np.asarray(node_ids, dtype=np.int64) if node_ids is not None else np.arange(num_nodes, dtype=np.int64)
    return ProposalGraph(features=features, edge_index=edge_index, edge_weight=edge_weight, node_ids=ids)


def connected_components(g: ProposalGraph) -> ComponentLabeling:
    """Label connected components by root hooking and pointer jumping over the edge arrays.

    Every node starts as its own root. Each round hooks the root of every
    edge endpoint onto the smaller root of the other endpoint, then jumps
    pointers until every node points at its root (Shiloach & Vishkin, 1982).
    Parents never exceed their node, so each component's root is its
    smallest member and component ids ascend with the smallest member index.
    """
    parent = np.arange(g.num_nodes, dtype=np.int64)
    i, j = g.edge_index[:, 0], g.edge_index[:, 1]
    while True:
        before = parent.copy()
        np.minimum.at(parent, parent[i], parent[j])
        np.minimum.at(parent, parent[j], parent[i])
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        if np.array_equal(parent, before):
            break
    _, labels, sizes = np.unique(parent, return_inverse=True, return_counts=True)
    return ComponentLabeling(labels=labels.astype(np.int64), sizes=sizes.astype(np.int64))


def filter_components(
    g: ProposalGraph, min_size: int
) -> tuple[ProposalGraph, list[int]]:
    """Drop every connected component with fewer than ``min_size`` nodes.

    Returns the induced subgraph on the survivors plus the removed external
    node ids, sorted ascending.
    """
    if min_size < 1:
        raise InputError(f"min_size must be >= 1, got {min_size}")
    comp = connected_components(g)
    keep_component = comp.sizes >= min_size
    keep_idx = np.flatnonzero(keep_component[comp.labels])
    removed = sorted(int(n) for n in g.node_ids[~keep_component[comp.labels]])
    return g.subgraph(keep_idx), removed
