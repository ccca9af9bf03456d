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

``build_graph`` finds overlapping boxes by sort-and-sweep and tests only
those candidate pairs, in fixed-size chunks, so its memory is O(chunk +
edges), never O(M^2). It sweeps either all boxes on x, or each horizontal
strip of the image on x (``_strip_route``), whichever has fewer candidate
pairs; both counts are exact and cheap, so the choice is made before any
pair is expanded. Boxes that overlap in x but lie far apart in y cost the
x sweep a candidate each and the strip sweep none. Both routes yield each
overlapping pair once, with weights bit-identical to the scalar reference,
so ``build_graph`` orders the edges by one sort of the keys i * M + j and
returns through ``ProposalGraph._derived``; graph files and every other
caller keep the checking constructor. A graph past ``_EDGE_LIMIT`` edges is
an ``InputError``, raised before its edge arrays are assembled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import InputError
from .geometry import first_invalid_box

_EMPTY_EDGES = np.zeros((0, 2), dtype=np.int64)
_EMPTY_WEIGHTS = np.zeros(0, dtype=np.float64)
# Candidate pairs per chunk of the sweep (512 KB per int64 or float64 array),
# which bounds the build's working memory whatever the overlap. On 2 shared
# vCPUs of a Xeon with 2 MB of L2 per core, 20,000 proposals in 400 clusters
# of 50 built in 55 ms at 2**14, 56 ms at this size, 64 ms at 2**18 and 73 ms
# at 2**20; one cluster of 3,000 in 0.44, 0.46, 0.54 and 0.62 s.
_CHUNK_PAIRS = 1 << 16
# Most IoU edges a graph may have. At the limit the build peaks at about 32 B
# per edge beyond the chunks (0.5 GB: four 8-byte arrays, such as the keys,
# the sort order and the weights, while the edges are put in order) and keeps
# 24 B per edge (index pair and weight, 0.4 GB). Attention's CSR of both edge
# directions then takes 64 B per edge more while it is built (1.1 GB; 90 B and
# 1.5 GB with the IoU bias).
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
    packed = keys << shift
    packed |= np.arange(keys.size)
    packed.sort()
    packed &= (1 << shift) - 1
    return packed


def _candidate_chunks(lo: np.ndarray, hi: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every pair of intervals [lo, hi) that overlap, as (p, q) position arrays per chunk.

    Sort-and-sweep broad phase (Baraff 1992; Cohen et al. 1995): ``lo`` and
    ``hi`` hold the intervals in sweep order, ascending ``lo``. The intervals
    that overlap interval p and come after it are the run p + 1 .. end_p - 1
    whose ``lo`` lies strictly below p's ``hi``, so every pair has p < q. The
    runs are cut into chunks of ``_CHUNK_PAIRS`` pairs, splitting a run where
    a boundary falls inside it, so M intervals that all overlap cost O(M^2)
    time but only O(chunk) memory. Each chunk expands the runs it covers
    with one ``np.repeat``.
    """
    ends = np.searchsorted(lo, hi, side="left")
    counts = ends - np.arange(1, lo.size + 1)
    stops = np.cumsum(counts)
    firsts = stops - counts
    total = int(stops[-1]) if stops.size else 0
    for start in range(0, total, _CHUNK_PAIRS):
        stop = min(start + _CHUNK_PAIRS, total)
        # The runs of intervals first .. last cover pairs start .. stop - 1.
        first, last = np.searchsorted(stops, [start, stop - 1], side="right")
        runs = np.arange(first, last + 1)
        p = np.repeat(runs, np.minimum(stops[runs], stop) - np.maximum(firsts[runs], start))
        k = np.arange(start, stop, dtype=np.int64)
        yield p, p + 1 + (k - firsts[p])


def _candidate_count(lo: np.ndarray, hi: np.ndarray) -> int:
    """The number of pairs ``_candidate_chunks(lo, hi)`` yields, without expanding them."""
    n = lo.size
    return int(np.searchsorted(lo, hi, side="left").sum()) - n * (n + 1) // 2


# A broad phase to sweep: (boxes, lo, hi, first). Entry k of the sweep is
# box boxes[k] with the interval [lo[k], hi[k]). Where ``first`` is not None,
# a candidate pair is kept only if it marks one of the pair's two entries.
_Route = tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]


def _x_route(xyxy: np.ndarray) -> _Route:
    """All boxes swept in x1 order.

    Entry k is the box at position k of the stable x1 order, and its run
    ends at the first position whose x1 is not below its x2.
    """
    boxes = np.argsort(xyxy[:, 0], kind="stable")
    ends = np.searchsorted(xyxy[boxes, 0], xyxy[boxes, 2], side="left")
    return boxes, np.arange(boxes.size), ends, None


def _strip_route(xyxy: np.ndarray, x_route: _Route) -> Optional[_Route]:
    """The boxes swept strip by strip, or None where h is too small to cut by.

    The reference-point method of Dittrich & Seeger (2000): horizontal
    strips of height h, the largest box height, and each pair is tested only
    in the strip of floor(max(y1_p, y1_q) / h), the first strip of one of its
    boxes, which ``first`` marks. floor(fl(y / h)) is monotone in y, so that
    strip lies in both boxes' ranges floor(y1 / h) .. floor(y2 / h) whenever
    they overlap in y, and each pair is found once. A box goes only into the
    strips of its range that are some box's first. An entry's interval is
    its strip's rank * M plus the x route's, so each strip is swept on x in
    x1 order and no pair spans two strips. Where h <= 2**-52, so 1 / h >=
    2**52, floor(y / h) might not fit an int64.
    """
    boxes, _, ends, _ = x_route
    m = boxes.size
    y1, y2 = xyxy[boxes, 1], xyxy[boxes, 3]
    h = (y2 - y1).max(initial=0.0)
    if h <= 2.0 ** -52:
        return None
    s0 = np.floor(y1 / h).astype(np.int64)
    strips = np.unique(s0)
    first = np.searchsorted(strips, s0)
    spans = np.searchsorted(strips, np.floor(y2 / h).astype(np.int64), side="right") - first
    position = np.repeat(np.arange(m), spans)
    offset = np.arange(position.size) - np.repeat(np.cumsum(spans) - spans, spans)
    lo = (first[position] + offset) * m + position
    lo.sort()
    strip, position = np.divmod(lo, m)
    return boxes[position], lo, strip * m + ends[position], strip == first[position]


def _sweep_route(xyxy: np.ndarray) -> _Route:
    """The strip route where it has fewer candidate pairs than the x route, else the x route.

    Both counts are exact and taken before any pair is expanded. One box as
    tall as the image puts every box in one strip, and the counts tie.
    """
    x_route = _x_route(xyxy)
    strip_route = _strip_route(xyxy, x_route)
    if strip_route is not None and (_candidate_count(*strip_route[1:3])
                                    < _candidate_count(*x_route[1:3])):
        return strip_route
    return x_route


def _overlap_chunks(xyxy: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(i, j, IoU) with i < j for every pair of boxes that overlap with positive area.

    Computes iw, ih, their product and the union in the order the scalar
    reference ``iou`` in tests/conftest.py does, so every weight is
    bit-identical to it. The sweep runs on a copy of the boxes of its route's
    entries, in sweep order, and maps only the kept pairs back to proposal
    indices. A candidate pair (p, q) comes in x1 order, with x1_p <= x1_q <
    x2_p and x1_q < x2_q, so it always overlaps in x, with iw = min(x2_p,
    x2_q) - x1_q > 0; it is kept if it overlaps in y and, on the strip
    route, lies in its reference strip.
    """
    boxes, lo, hi, first = _sweep_route(xyxy)
    x1, y1, x2, y2 = np.ascontiguousarray(xyxy[boxes].T)
    area = (x2 - x1) * (y2 - y1)
    for p, q in _candidate_chunks(lo, hi):
        ih = np.minimum(y2[p], y2[q]) - np.maximum(y1[p], y1[q])
        overlap = ih > 0.0
        if first is not None:
            overlap &= first[p] | first[q]
        p, q, ih = p[overlap], q[overlap], ih[overlap]
        inter = (np.minimum(x2[p], x2[q]) - x1[q]) * ih
        union = area[p] + area[q] - inter
        a, b = boxes[p], boxes[q]
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
    keys, weights = [_EMPTY_EDGES[:, 0]], [_EMPTY_WEIGHTS]
    kept = 0
    for i, j, w in _overlap_chunks(xyxy):
        hit = w > iou_thr
        kept += int(np.count_nonzero(hit))
        if kept > _EDGE_LIMIT:
            raise InputError(
                f"{m} proposals reached {kept} IoU edges at iou_thr {iou_thr}, "
                f"over the limit of {_EDGE_LIMIT} edges"
            )
        keys.append(i[hit] * m + j[hit])
        weights.append(w[hit])
    # Each unsorted copy is freed before the next full-size array is made,
    # so at most four 8-byte-per-edge arrays are alive at once.
    key = np.concatenate(keys)
    del keys
    order = _stable_argsort(key, m * m)
    key = key[order]
    weight = np.concatenate(weights)
    del weights
    weight = weight[order]
    del order
    edges = np.empty((key.size, 2), dtype=np.int64)
    np.divmod(key, m, out=(edges[:, 0], edges[:, 1]))
    return ProposalGraph._derived(feats, edges, weight)


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

