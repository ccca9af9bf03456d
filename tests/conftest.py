"""Test-only strategies, geometry oracles, attention and spectral helpers and the CLI
subprocess helper.

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
from unittest import mock

import numpy as np
from hypothesis import strategies as st

import propgraph
from propgraph import attention, spectral
from propgraph import (
    AttendablePairs, AttentionParams, BoundingBox, ProposalGraph, attention_weights,
    graph_from_edges,
)

# Directory holding the ``propgraph`` package, so a subprocess started in
# any working directory imports the same code as the test process.
PACKAGE_ROOT = str(Path(propgraph.__file__).resolve().parent.parent)

# Coordinates on a dyadic grid: sums and differences of grid points are
# exact in binary floating point, which lets invariance properties assert
# bitwise equality instead of tolerances.
GRID = 1024


@st.composite
def dyadic_boxes(draw, grid: int = GRID) -> BoundingBox:
    """A box with corners on the ``grid`` x ``grid`` lattice; a coarse grid makes ties common."""
    x1 = draw(st.integers(min_value=0, max_value=grid - 1))
    x2 = draw(st.integers(min_value=x1 + 1, max_value=grid))
    y1 = draw(st.integers(min_value=0, max_value=grid - 1))
    y2 = draw(st.integers(min_value=y1 + 1, max_value=grid))
    return BoundingBox(x1 / grid, y1 / grid, x2 / grid, y2 / grid)


def box_array(boxes: list[BoundingBox]) -> np.ndarray:
    """The (M, 4) array ``build_graph`` takes, one row per reference box."""
    return np.array([b.as_tuple() for b in boxes], dtype=np.float64).reshape(-1, 4)


def exact_iou(a: BoundingBox, b: BoundingBox) -> Fraction:
    """Rational-arithmetic IoU; independent of the float implementation."""
    ax1, ay1, ax2, ay2 = (Fraction(v) for v in a.as_tuple())
    bx1, by1, bx2, by2 = (Fraction(v) for v in b.as_tuple())
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return Fraction(0)
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union


def grid_area_iou(a: BoundingBox, b: BoundingBox, resolution: int = 2000) -> float:
    """Rasterized-area IoU: count sample-point hits on a fine grid."""
    points = (np.arange(resolution) + 0.5) / resolution
    xs = points[None, :]
    ys = points[:, None]

    def inside(box: BoundingBox) -> np.ndarray:
        return (xs > box.x1) & (xs < box.x2) & (ys > box.y1) & (ys < box.y2)

    in_a = inside(a)
    in_b = inside(b)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


def pair_coords(pairs: AttendablePairs) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of every attendable pair, in pair order."""
    m = pairs.num_nodes
    rows = np.repeat(np.arange(m), pairs.degree)
    cols = np.tile(np.arange(m), m) if pairs.dense else pairs.indices
    return rows, cols


def pair_matrix(pairs: AttendablePairs, values: np.ndarray, fill=0.0) -> np.ndarray:
    """Per-pair values laid out as an M x M matrix, ``fill`` off the attendable pairs."""
    out = np.full((pairs.num_nodes, pairs.num_nodes), fill, dtype=np.asarray(values).dtype)
    out[pair_coords(pairs)] = values
    return out


def pair_scores(features: np.ndarray, params: AttentionParams, pairs: AttendablePairs,
                head: int = 0) -> np.ndarray:
    """One head's score w . [x_i ; x_j] + b on every attendable pair, in pair order.

    The IoU log-bias is left out.
    """
    d = params.feature_dim
    rows, cols = pair_coords(pairs)
    return (features[rows] @ params.score_weights[head, :d]
            + features[cols] @ params.score_weights[head, d:] + params.score_bias[head])


def weight_matrix(pairs: AttendablePairs, scores: np.ndarray) -> np.ndarray:
    """Softmax weights of per-pair scores, one ``attention_weights`` call per row."""
    rows, cols = pair_coords(pairs)
    weights = np.zeros((pairs.num_nodes, pairs.num_nodes))
    for i in range(pairs.num_nodes):
        weights[i, cols[rows == i]] = attention_weights(scores[rows == i])
    return weights


@contextmanager
def shifted_row(row: int, shift: float):
    """Inside, the kernel adds ``shift`` to node ``row``'s scores before their softmax."""
    block_weights = attention._block_weights

    def shifted(scores, rows, head):
        scores = scores.copy()
        scores[rows == row] += shift
        return block_weights(scores, rows, head)

    with mock.patch.object(attention, "_block_weights", shifted):
        yield


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
    edges = [(int(inverse[i]), int(inverse[j]), w) for i, j, w in g.edges()]
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
