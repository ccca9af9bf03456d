"""Test-only strategies, geometry oracles, file-value references, attention and
spectral helpers and the CLI subprocess helper.

The graph generators and the ncut/gradient oracles live in
``propgraph.oracles``, shared with the ``oracle`` CLI commands.
"""

from __future__ import annotations

import os
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import Any, NamedTuple
from unittest import mock

import numpy as np
from hypothesis import strategies as st

import propgraph
from propgraph import attention, spectral
from propgraph import (
    AttendablePairs, AttentionParams, InputError, ProposalDocument, ProposalGraph,
    attention_weights, graph_from_edges,
)

# Directory holding the ``propgraph`` package, so a subprocess started in
# any working directory imports the same code as the test process.
PACKAGE_ROOT = str(Path(propgraph.__file__).resolve().parent.parent)

# Coordinates on a dyadic grid: sums and differences of grid points are
# exact in binary floating point, which lets invariance properties assert
# bitwise equality instead of tolerances.
GRID = 1024


class Box(NamedTuple):
    """Corner-format box: (x1, y1) top-left, (x2, y2) bottom-right, in [0, 1]."""

    x1: float
    y1: float
    x2: float
    y2: float

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)


@st.composite
def dyadic_boxes(draw, grid: int = GRID) -> Box:
    """A box with corners on the ``grid`` x ``grid`` lattice; a coarse grid makes ties common."""
    x1 = draw(st.integers(min_value=0, max_value=grid - 1))
    x2 = draw(st.integers(min_value=x1 + 1, max_value=grid))
    y1 = draw(st.integers(min_value=0, max_value=grid - 1))
    y2 = draw(st.integers(min_value=y1 + 1, max_value=grid))
    return Box(x1 / grid, y1 / grid, x2 / grid, y2 / grid)


def box_array(boxes: list[Box]) -> np.ndarray:
    """The (M, 4) array ``build_graph`` takes, one row per reference box."""
    return np.array(boxes, dtype=np.float64).reshape(-1, 4)


def iou(a: Box, b: Box) -> float:
    """Scalar intersection over union, the reference ``build_graph``'s weights equal bit for bit.

    Symmetric, in [0, 1], and exactly 1.0 for identical boxes. Boxes that
    meet only along an edge or at a corner have zero intersection area and
    therefore IoU 0.
    """
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = a.area + b.area - inter
    return inter / union


def exact_iou(a: Box, b: Box) -> Fraction:
    """Rational-arithmetic IoU; independent of the float implementation."""
    ax1, ay1, ax2, ay2 = (Fraction(v) for v in a)
    bx1, by1, bx2, by2 = (Fraction(v) for v in b)
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return Fraction(0)
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union


def grid_area_iou(a: Box, b: Box, resolution: int = 2000) -> float:
    """Rasterized-area IoU: count sample-point hits on a fine grid."""
    points = (np.arange(resolution) + 0.5) / resolution
    xs = points[None, :]
    ys = points[:, None]

    def inside(box: Box) -> np.ndarray:
        return (xs > box.x1) & (xs < box.x2) & (ys > box.y1) & (ys < box.y2)

    in_a = inside(a)
    in_b = inside(b)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


def edge_triples(g: ProposalGraph) -> list[tuple[int, int, float]]:
    """The edges of ``g`` as (i, j, w) triples, in the graph's sorted order."""
    return [(int(i), int(j), float(w)) for (i, j), w in zip(g.edge_index, g.edge_weight)]


def graph_to_dict(g: ProposalGraph) -> dict:
    """The graph file's value, whose canonical bytes ``save_graph`` must write."""
    return {"nodes": g.num_nodes, "node_ids": list(range(g.num_nodes)),
            "edges": [list(edge) for edge in edge_triples(g)]}


def document_to_dict(document: ProposalDocument) -> dict:
    """The proposals file's value, whose canonical bytes ``save_proposals`` must write."""
    proposals = []
    for k in range(document.num_proposals):
        entry: dict[str, Any] = {"box": document.pixel_boxes[k]}
        if document.features is not None:
            entry["feature"] = document.features[k]
        if document.scores is not None and document.scores[k] is not None:
            entry["score"] = document.scores[k]
        proposals.append(entry)
    return {"image_id": document.image_id, "width": document.width,
            "height": document.height, "proposals": proposals}


def normalized_laplacian(g: ProposalGraph) -> np.ndarray:
    """Symmetric normalized Laplacian I - D^{-1/2} W D^{-1/2} of the whole graph.

    Requires every weighted degree to be positive (connected graphs with at
    least one edge qualify). Eigenvalues lie in [0, 2]; for a connected
    graph the eigenvalue 0 is simple with eigenvector D^{1/2} 1.
    """
    if g.num_nodes == 0:
        raise InputError("empty graph has no Laplacian")
    return spectral._block_of(g.adjacency()).laplacian


def pair_coords(pairs: AttendablePairs) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of every attendable pair, in pair order."""
    return np.repeat(np.arange(pairs.num_nodes), pairs.degree), pairs.indices


def pair_matrix(pairs: AttendablePairs, values: np.ndarray, fill=0.0) -> np.ndarray:
    """Per-pair values laid out as an M x M matrix, ``fill`` off the attendable pairs."""
    out = np.full((pairs.num_nodes, pairs.num_nodes), fill, dtype=np.asarray(values).dtype)
    out[pair_coords(pairs)] = values
    return out


def pair_scores(features: np.ndarray, params: AttentionParams, pairs: AttendablePairs,
                head: int = 0) -> np.ndarray:
    """One head's key score x_j . w[d:] on every attendable pair (i, j), in pair order.

    The IoU log-bias is left out.
    """
    return features[pair_coords(pairs)[1]] @ params.key_weights[head]


def weight_matrix(pairs: AttendablePairs, scores: np.ndarray) -> np.ndarray:
    """Softmax weights of per-pair scores, one ``attention_weights`` call per row."""
    rows, cols = pair_coords(pairs)
    weights = np.zeros((pairs.num_nodes, pairs.num_nodes))
    for i in range(pairs.num_nodes):
        weights[i, cols[rows == i]] = attention_weights(scores[rows == i])
    return weights


def argsort_attendable_pairs(g: ProposalGraph, features: np.ndarray,
                             iou_bias: bool = False) -> AttendablePairs:
    """``attention.attendable_pairs`` by one stable argsort of the keys row * M + rank[col]
    over every pair, self pairs first, then both edge directions in edge order;
    with the IoU bias, equal keys are then ordered by log-weight."""
    m = g.num_nodes
    feats = np.asarray(features, dtype=np.float64)
    rank = attention._content_rank(feats)
    nodes = np.arange(m, dtype=np.int64)
    rows = np.concatenate([nodes, g.edge_index[:, 0], g.edge_index[:, 1]])
    cols = np.concatenate([nodes, g.edge_index[:, 1], g.edge_index[:, 0]])
    degree = np.bincount(rows, minlength=m)
    key = rows * m + rank[cols]
    order = np.argsort(key, kind="stable")
    log_weight = None
    if iou_bias:
        bias = np.full(g.num_edges, -0.0)
        on_edge = g.edge_weight > 0.0
        bias[on_edge] = np.log(np.maximum(g.edge_weight[on_edge], attention._LOG_WEIGHT_FLOOR))
        log_weight = np.concatenate([np.full(m, -0.0), bias, bias])
        order = order[np.lexsort((log_weight[order], key[order]))]
        log_weight = log_weight[order]
    by_degree = np.argsort(degree, kind="stable")
    buckets = tuple((int(k), by_degree[degree[by_degree] == k]) for k in np.unique(degree))
    indptr = np.concatenate([[0], np.cumsum(degree)])
    return AttendablePairs(indptr, cols[order], log_weight, buckets)


def score_layout_params(feature_dim: int, head_count: int = 1, output_dim: int | None = None,
                        seed: int = 0) -> dict:
    """The params document ``params init`` wrote in the earlier layout: each
    head's query and key weights in one ``score_weights`` row, then
    ``score_bias``, then the projection, drawn from one stream in that order."""
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(2.0 * feature_dim)
    weights = rng.uniform(-bound, bound, size=(head_count, 2 * feature_dim))
    bias = rng.uniform(-bound, bound, size=head_count)
    projection = None
    if output_dim is not None:
        projection = rng.uniform(-bound, bound, size=(head_count * feature_dim, output_dim))
    return {"head_count": head_count, "score_weights": weights, "score_bias": bias,
            "output_projection": projection}


@contextmanager
def shifted_row(row: int, shift: float):
    """Inside, the kernel adds ``shift`` to the scores of node ``row``'s twin class.

    The kernel runs one row per twin class, so the shift moves the whole
    class. Yields a list that holds the class's rows once the kernel ran.
    """
    block_weights, twin_classes = attention._block_weights, attention._twin_classes
    twins: list[int] = []

    def classes(pairs):
        class_of, buckets = twin_classes(pairs)
        twins[:] = np.flatnonzero(class_of == class_of[row]).tolist()
        return class_of, buckets

    def shifted(scores, rows, head):
        scores = scores.copy()
        scores[np.isin(rows, twins)] += shift
        return block_weights(scores, rows, head)

    with mock.patch.object(attention, "_block_weights", shifted), \
            mock.patch.object(attention, "_twin_classes", classes):
        yield twins


def spy_tie_route(monkeypatch) -> list[int]:
    """A list that gains the size of every set ``_certified_order`` settles by
    sweeping the orders of its tie groups."""
    settled: list[int] = []
    sweeps: list[int] = []
    certify, sweep = spectral._certified_order, spectral._sweep_split

    def counting_sweep(block, order):
        sweeps.append(order.size)
        return sweep(block, order)

    def spying_certify(*args):
        sweeps.clear()
        order = certify(*args)
        if order is not None and sweeps:
            settled.append(order.size)
        return order

    monkeypatch.setattr(spectral, "_sweep_split", counting_sweep)
    monkeypatch.setattr(spectral, "_certified_order", spying_certify)
    return settled


def permuted_graph(g: ProposalGraph, perm: np.ndarray) -> ProposalGraph:
    """The graph whose node a is node ``perm[a]`` of ``g``."""
    inverse = np.argsort(perm)
    edges = [(int(inverse[i]), int(inverse[j]), w) for i, j, w in edge_triples(g)]
    return graph_from_edges(g.num_nodes, edges, features=g.features[perm])


def run_cli(argv, cwd, env_extra=None, preexec_fn=None) -> subprocess.CompletedProcess:
    """Run ``python -m propgraph`` in a subprocess with text output captured.

    ``preexec_fn`` runs in the child before the interpreter starts.
    """
    env = dict(os.environ)
    env.update(env_extra or {})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "propgraph", *argv],
        capture_output=True, text=True, cwd=cwd, env=env, preexec_fn=preexec_fn,
    )
