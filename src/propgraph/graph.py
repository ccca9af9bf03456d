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
contiguous slice. ``propgraph.oracles.subgraph`` masks every edge of the
graph instead, so calling it once per group would cost groups x edges.

``build_graph`` finds overlapping boxes by sort-and-sweep over x1 and tests
only those candidate pairs, in fixed-size chunks, so its memory is
O(chunk + edges), never O(M^2). The sweep works on the boxes' x1-sorted
positions and maps only overlapping pairs back to proposal indices. Its
edges come out once each with i < j, so ``build_graph`` orders them by one
sort of the keys i * M + j and returns through ``ProposalGraph._derived``;
graph files and every other caller keep the checking constructor. A graph
past ``_EDGE_LIMIT`` edges is an ``InputError``, raised before its edge
arrays are assembled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

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

    def adjacency(self) -> np.ndarray:
        """Dense symmetric weight matrix; zeros mark absent edges."""
        m = self.num_nodes
        a = np.zeros((m, m), dtype=np.float64)
        if self.num_edges:
            i, j = self.edge_index[:, 0], self.edge_index[:, 1]
            a[i, j] = self.edge_weight
            a[j, i] = self.edge_weight
        return a

@dataclass(frozen=True, eq=False)
class ComponentLabeling:
    """Connected-component labels, numbered by each component's smallest node index."""

    labels: np.ndarray
    sizes: np.ndarray

    @property
    def count(self) -> int:
        return int(self.sizes.shape[0])


def _stable_argsort(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for non-negative int64 ``keys`` below ``bound``.

    Each key is shifted up and its position written into the freed low bits,
    which makes every packed key distinct, so an unstable sort of the values
    puts the stable order in their low bits. On 2 shared vCPUs numpy sorted
    the 255,000 packed pair keys of a 5,000-proposal attention call in
    2.5 ms, where the stable argsort of the keys took 10.7 ms. Keys too wide
    to pack into 63 bits take the stable argsort.
    """
    shift = max(keys.size - 1, 1).bit_length()
    if max(bound - 1, 1).bit_length() + shift > 63:
        return np.argsort(keys, kind="stable")
    packed = (keys << shift) | np.arange(keys.size)
    packed.sort()
    return packed & ((1 << shift) - 1)


def _candidate_chunks(x1: np.ndarray, x2: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every pair of boxes whose x-extents overlap, as (p, q) position arrays per chunk.

    Sort-and-sweep broad phase (Baraff 1992; Cohen et al. 1995): ``x1`` and
    ``x2`` hold the boxes in sweep order, ascending x1. The boxes that
    overlap box p in x and come after it are the run p + 1 .. end_p - 1 of
    boxes whose x1 lies strictly below p's x2, so every pair has p < q. The
    runs are cut into chunks of ``_CHUNK_PAIRS`` pairs, splitting a run where
    a boundary falls inside it, so M boxes that all overlap in x cost O(M^2)
    time but only O(chunk) memory. Each chunk expands the runs it covers
    with one ``np.repeat``.
    """
    ends = np.searchsorted(x1, x2, side="left")
    counts = ends - np.arange(1, x1.size + 1)
    stops = np.cumsum(counts)
    firsts = stops - counts
    total = int(stops[-1]) if stops.size else 0
    for lo in range(0, total, _CHUNK_PAIRS):
        hi = min(lo + _CHUNK_PAIRS, total)
        # The runs of boxes first .. last cover pairs lo .. hi - 1.
        first, last = np.searchsorted(stops, [lo, hi - 1], side="right")
        runs = np.arange(first, last + 1)
        p = np.repeat(runs, np.minimum(stops[runs], hi) - np.maximum(firsts[runs], lo))
        k = np.arange(lo, hi, dtype=np.int64)
        yield p, p + 1 + (k - firsts[p])


def _overlap_chunks(xyxy: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(i, j, IoU) with i < j for every pair of boxes that overlap with positive area.

    Computes iw, ih, their product and the union in the order the scalar
    reference ``iou`` in tests/conftest.py does, so every weight is
    bit-identical to it. The sweep runs on a copy of the boxes in x1 order
    and maps only the pairs that overlap back to proposal indices. A
    candidate pair (p, q) has x1_p <= x1_q < x2_p and x1_q < x2_q, so it
    always overlaps in x, with iw = min(x2_p, x2_q) - x1_q > 0; most
    candidates fail on y.
    """
    order = np.argsort(xyxy[:, 0], kind="stable")
    x1, y1, x2, y2 = np.ascontiguousarray(xyxy[order].T)
    area = (x2 - x1) * (y2 - y1)
    for p, q in _candidate_chunks(x1, x2):
        ih = np.minimum(y2[p], y2[q]) - np.maximum(y1[p], y1[q])
        overlap = ih > 0.0
        p, q, ih = p[overlap], q[overlap], ih[overlap]
        inter = (np.minimum(x2[p], x2[q]) - x1[q]) * ih
        union = area[p] + area[q] - inter
        a, b = order[p], order[q]
        yield np.minimum(a, b), np.maximum(a, b), inter / union


def build_graph(
    boxes: np.ndarray,
    features: np.ndarray | Sequence[Sequence[float]],
    iou_thr: float,
) -> ProposalGraph:
    """Build the proposal graph: an edge (i, j, IoU) wherever IoU > iou_thr.

    ``boxes`` is an (M, 4) array of normalized (x1, y1, x2, y2) rows, each
    finite with 0 <= x1 < x2 <= 1 and 0 <= y1 < y2 <= 1; ``features`` are M
    finite rows. The threshold comparison is strict, so boundary-equal pairs
    get no edge. More than ``_EDGE_LIMIT`` edges is an ``InputError``.

    The sweep yields each pair once with i < j, and every kept weight is a
    finite IoU in (iou_thr, 1], so one sort of the keys i * M + j leaves a
    valid edge list, and the graph is returned through
    ``ProposalGraph._derived`` without the constructor's checks.
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
    if not np.all(np.isfinite(feats)):
        raise InputError("node features must be finite")
    firsts, seconds, weights = [_EMPTY_EDGES[:, 0]], [_EMPTY_EDGES[:, 1]], [_EMPTY_WEIGHTS]
    kept = 0
    for i, j, w in _overlap_chunks(xyxy):
        hit = w > iou_thr
        kept += int(np.count_nonzero(hit))
        if kept > _EDGE_LIMIT:
            raise InputError(
                f"{m} proposals reached {kept} IoU edges at iou_thr {iou_thr}, "
                f"over the limit of {_EDGE_LIMIT} edges"
            )
        firsts.append(i[hit])
        seconds.append(j[hit])
        weights.append(w[hit])
    # Keying and gathering the two endpoint columns apart beats gathering
    # rows of one (E, 2) array: 8.0 against 11.7 ms for 122,500 edges.
    i, j = np.concatenate(firsts), np.concatenate(seconds)
    order = _stable_argsort(i * m + j, m * m)
    return ProposalGraph._derived(
        feats, np.stack([i[order], j[order]], axis=1), np.concatenate(weights)[order]
    )


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

