"""Weighted proposal graph: IoU-thresholded adjacency over detection proposals.

Nodes are proposals, numbered by their index 0..M-1 and by nothing else;
edges connect overlapping boxes, edge weights are the pairwise IoU. Graphs
are immutable after construction; every derived graph (induced subgraph,
graph with coarse nodes) is a new value. The constructor checks
its arrays and sorts the edges; a graph cut from an already valid graph is
built by ``ProposalGraph._derived`` without those checks, because an
ascending slice of a lexsorted, duplicate-free edge list, remapped
monotonically, is still lexsorted and duplicate-free.

``induced_subgraphs`` cuts a graph into the subgraphs of a node labelling
(its components, or pooling's parts) with one stable sort of the nodes and
one of the edges, so each group's members and internal edges are one
contiguous slice. ``subgraph`` masks every edge of the graph, so calling it
once per group would cost groups x edges.

``build_graph`` finds overlapping boxes by sort-and-sweep over x1 and tests
only those candidate pairs, in fixed-size chunks, so its memory is
O(chunk + edges), never O(M^2). A graph past ``_EDGE_LIMIT`` edges is an
``InputError``, raised before its edge arrays are assembled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InputError
from .geometry import first_invalid_box

_EMPTY_EDGES = np.zeros((0, 2), dtype=np.int64)
_EMPTY_WEIGHTS = np.zeros(0, dtype=np.float64)
# Candidate pairs per chunk of the sweep (512 KB per int64 or float64 array),
# which bounds the build's working memory whatever the overlap. On a Xeon
# with 2 MB of L2 per core, 5,000 proposals built in 0.11 s at this size,
# 0.12 s at 2**17 and 0.17 s at 2**20.
_CHUNK_PAIRS = 1 << 16
# Most IoU edges a graph may have. At the limit the build peaks at about 86 B
# per edge (1.4 GB: the chunk arrays, their concatenation and the sorted
# copies ProposalGraph makes) and keeps 24 B per edge (index pair and weight,
# 0.4 GB). Attention's CSR of both edge directions then takes 64 B per edge
# more while it is built (1.1 GB; 90 B and 1.5 GB with the IoU bias).
_EDGE_LIMIT = 1 << 24


@dataclass(frozen=True, eq=False)
class ProposalGraph:
    """Undirected simple graph with per-node feature rows.

    ``edge_index`` holds (i, j) with i < j, lexicographically sorted and
    duplicate-free; ``edge_weight`` is aligned with it. A node is its row
    index. Arrays are treated as read-only after construction.
    """

    features: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    edge_index: np.ndarray = field(default_factory=lambda: _EMPTY_EDGES.copy())
    edge_weight: np.ndarray = field(default_factory=lambda: _EMPTY_WEIGHTS.copy())

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=np.float64)
        if features.ndim != 2:
            raise InputError("features must be a 2-d matrix (one row per node)")
        edge_index = np.asarray(self.edge_index, dtype=np.int64).reshape(-1, 2)
        edge_weight = np.asarray(self.edge_weight, dtype=np.float64).reshape(-1)
        m = features.shape[0]
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

    @classmethod
    def _derived(cls, features: np.ndarray, edge_index: np.ndarray,
                 edge_weight: np.ndarray) -> "ProposalGraph":
        """A graph from arrays cut from a valid graph, which are not checked or sorted again."""
        g = object.__new__(cls)
        object.__setattr__(g, "features", features)
        object.__setattr__(g, "edge_index", edge_index)
        object.__setattr__(g, "edge_weight", edge_weight)
        return g

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

    def subgraph(self, indices: Sequence[int] | np.ndarray) -> "ProposalGraph":
        """Induced subgraph on ``indices`` (ascending node indices)."""
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
        return ProposalGraph._derived(
            self.features[idx], remap[self.edge_index[mask]], self.edge_weight[mask]
        )


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


def _candidate_chunks(x1: np.ndarray, x2: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every pair of boxes whose x-extents overlap, as (a, b) index arrays per chunk.

    Sort-and-sweep broad phase (Baraff 1992; Cohen et al. 1995): after a
    stable sort by x1, the boxes that overlap sorted box p in x and come
    after it are the run p + 1 .. end_p - 1 of boxes whose x1 lies strictly
    below p's x2. The runs are cut into chunks of ``_CHUNK_PAIRS`` pairs,
    splitting a run where a boundary falls inside it, so M boxes that all
    overlap in x cost O(M^2) time but only O(chunk) memory.
    """
    order = np.argsort(x1, kind="stable")
    ends = np.searchsorted(x1[order], x2[order], side="left")
    counts = ends - np.arange(1, order.size + 1)
    stops = np.cumsum(counts)
    firsts = stops - counts
    total = int(stops[-1]) if stops.size else 0
    for lo in range(0, total, _CHUNK_PAIRS):
        k = np.arange(lo, min(lo + _CHUNK_PAIRS, total), dtype=np.int64)
        p = np.searchsorted(stops, k, side="right")
        yield order[p], order[p + 1 + (k - firsts[p])]


def _overlap_chunks(xyxy: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(i, j, IoU) with i < j for every pair of boxes that overlap with positive area.

    Mirrors geometry.iou operation for operation, so every weight is
    bit-identical to it.
    """
    x1, y1, x2, y2 = xyxy[:, 0], xyxy[:, 1], xyxy[:, 2], xyxy[:, 3]
    area = (x2 - x1) * (y2 - y1)
    for a, b in _candidate_chunks(x1, x2):
        iw = np.minimum(x2[a], x2[b]) - np.maximum(x1[a], x1[b])
        ih = np.minimum(y2[a], y2[b]) - np.maximum(y1[a], y1[b])
        overlap = (iw > 0.0) & (ih > 0.0)
        a, b, iw, ih = a[overlap], b[overlap], iw[overlap], ih[overlap]
        inter = iw * ih
        union = area[a] + area[b] - inter
        yield np.minimum(a, b), np.maximum(a, b), inter / union


def build_graph(
    boxes: np.ndarray,
    features: np.ndarray | Sequence[Sequence[float]],
    iou_thr: float,
) -> ProposalGraph:
    """Build the proposal graph: an edge (i, j, IoU) wherever IoU > iou_thr.

    ``boxes`` is an (M, 4) array of normalized (x1, y1, x2, y2) rows, each
    finite with 0 <= x1 < x2 <= 1 and 0 <= y1 < y2 <= 1. The threshold
    comparison is strict, so boundary-equal pairs get no edge. More than
    ``_EDGE_LIMIT`` edges is an ``InputError``.
    """
    if not 0.0 <= iou_thr < 1.0:
        raise InputError(f"iou_thr must lie in [0, 1), got {iou_thr}")
    xyxy = np.asarray(boxes, dtype=np.float64)
    if xyxy.ndim != 2 or xyxy.shape[1] != 4:
        raise InputError(f"boxes must have shape (M, 4), got {xyxy.shape}")
    k = first_invalid_box(xyxy)
    if k is not None:
        raise InputError(f"boxes[{k}]: expected finite 0 <= x1 < x2 <= 1 and "
                         f"0 <= y1 < y2 <= 1, got {xyxy[k].tolist()}")
    m = xyxy.shape[0]
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim == 1 and m == 0 and feats.size == 0:
        feats = feats.reshape(0, 0)
    if feats.ndim != 2 or feats.shape[0] != m:
        raise InputError(f"expected {m} feature rows, got shape {feats.shape}")
    pairs, weights = [_EMPTY_EDGES], [_EMPTY_WEIGHTS]
    kept = 0
    for i, j, w in _overlap_chunks(xyxy):
        hit = w > iou_thr
        kept += int(np.count_nonzero(hit))
        if kept > _EDGE_LIMIT:
            raise InputError(
                f"{m} proposals reached {kept} IoU edges at iou_thr {iou_thr}, "
                f"over the limit of {_EDGE_LIMIT} edges"
            )
        pairs.append(np.stack([i[hit], j[hit]], axis=1))
        weights.append(w[hit])
    return ProposalGraph(
        features=feats, edge_index=np.concatenate(pairs), edge_weight=np.concatenate(weights)
    )


def graph_from_edges(
    num_nodes: int,
    edges: Iterable[tuple[int, int, float]],
    features: np.ndarray | None = None,
) -> ProposalGraph:
    """Construct a graph directly from weighted (i, j, w) triples (test/CLI helper)."""
    rows = list(edges)
    if features is None:
        features = np.zeros((num_nodes, 0), dtype=np.float64)
    edge_index = np.array([row[:2] for row in rows], dtype=np.int64).reshape(-1, 2)
    edge_index.sort(axis=1)
    edge_weight = np.array([row[2] for row in rows], dtype=np.float64)
    return ProposalGraph(features=features, edge_index=edge_index, edge_weight=edge_weight)


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


def induced_subgraphs(
    g: ProposalGraph, labels: np.ndarray, count: int
) -> Iterator[tuple[np.ndarray, ProposalGraph]]:
    """(members, induced subgraph) of each group 0 .. count - 1 of a node labelling.

    ``labels`` gives each node's group, or -1 for none; each group's members
    ascend. One stable sort of the nodes and one of the edges by group make
    every group's members and internal edges a contiguous slice (the CSR
    layout of ``attention.AttendablePairs``), and one rank array maps the
    edge slices to local indices. The whole cut costs one sort of M nodes
    and one of E edges, not O(E) per group; the iterator keeps 8 bytes per
    edge.
    """
    m = g.num_nodes
    key = np.where(labels < 0, count, labels)
    node_order = np.argsort(key, kind="stable")
    node_ptr = np.concatenate([[0], np.cumsum(np.bincount(key, minlength=count + 1))])
    rank = np.empty(m, dtype=np.int64)
    rank[node_order] = np.arange(m) - node_ptr[key[node_order]]
    edge_key = key[g.edge_index[:, 0]]
    edge_key[key[g.edge_index[:, 1]] != edge_key] = count
    edge_order = np.argsort(edge_key, kind="stable")
    edge_ptr = np.concatenate([[0], np.cumsum(np.bincount(edge_key, minlength=count + 1))])

    def group(k: int) -> tuple[np.ndarray, ProposalGraph]:
        members = node_order[node_ptr[k]:node_ptr[k + 1]]
        edges = edge_order[edge_ptr[k]:edge_ptr[k + 1]]
        return members, ProposalGraph._derived(
            g.features[members], rank[g.edge_index[edges]], g.edge_weight[edges]
        )

    return map(group, range(count))

