"""Graph attention over proposal features.

Pairwise scores come from a learned linear functional on the concatenated
feature pair [x_i ; x_j]; a row-wise softmax over the attendable set (graph
neighbors plus self, or all pairs in dense mode) turns scores into weights,
and each node's refined feature is the weighted sum of attendable features.
Multiple heads concatenate and optionally project.

``AttendablePairs`` holds the attendable sets once per graph as CSR rows
(self plus both edge directions, columns ascending) grouped into buckets of
equal degree k. The kernel runs each bucket in row blocks of about
``_BLOCK_FLOATS`` values per (r, k, d) array and computes nothing off the
attendable pairs; dense mode is one bucket of degree M, built block by
block, so no M x M array ever exists.

Blocks run side by side on up to one thread per CPU the process may use,
the calling thread among them. Each output row is written by exactly one
block, and a row's arithmetic does not depend on its block, so the bytes do
not depend on the thread count or the block size.

Reductions run in value-sorted order, which makes the outputs exactly
invariant under node permutation and independent of BLAS threading. A row's
softmax denominator is ``np.sum`` of its sorted exponentials; each output
coordinate adds its sorted contributions one after another from 0.0, as
``np.sum(axis=0)`` does over a (k, d) block (for d == 1 numpy sums the k
values pairwise, and so does the kernel). The sort need not be stable: with
finite values only +0.0 and -0.0 are distinct yet equal, a zero of either
sign leaves a nonzero partial sum unchanged, and a sum of zeros started from
0.0 is +0.0, so tied zeros in any order give the same bits. The analytic
backward pass is verified against central finite differences.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import InputError, NumericalError, check_float_count
from .graph import ProposalGraph

# Floor for IoU weights fed through log() when score biasing is enabled.
_LOG_WEIGHT_FLOOR = 1e-300
# Values per (r, k, d) array of one block (2 MB), which bounds attention's
# working memory; the forward kernel splits it evenly among its threads. On a
# Xeon with 2 MB of L2 per core, 5,000 proposals with 4 heads took 0.72 s at
# this size, 0.97 s at 2**20 and 1.18 s at 2**14 on one thread.
_BLOCK_FLOATS = 1 << 18


@dataclass(frozen=True, eq=False)
class AttentionParams:
    """Per-head scoring parameters and optional shared output projection.

    ``score_weights`` has shape (heads, 2 * feature_dim): the first half of
    each row weights x_i, the second half weights x_j. ``output_projection``
    (heads * feature_dim, output_dim) mixes the concatenated head outputs.
    """

    score_weights: np.ndarray
    score_bias: np.ndarray
    output_projection: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        weights = np.asarray(self.score_weights, dtype=np.float64)
        bias = np.asarray(self.score_bias, dtype=np.float64).reshape(-1)
        if weights.ndim != 2 or weights.shape[1] % 2 != 0 or 0 in weights.shape:
            raise InputError(f"score_weights must have shape (heads >= 1, 2 * feature_dim >= 2), "
                             f"got {weights.shape}")
        if bias.shape[0] != weights.shape[0]:
            raise InputError("score_bias length must equal the head count")
        if not np.all(np.isfinite(weights)):
            raise InputError("score_weights must be finite")
        if not np.all(np.isfinite(bias)):
            raise InputError("score_bias must be finite")
        projection = self.output_projection
        if projection is not None:
            projection = np.asarray(projection, dtype=np.float64)
            expected = weights.shape[0] * (weights.shape[1] // 2)
            if projection.ndim != 2 or projection.shape[0] != expected:
                raise InputError(
                    f"output_projection must have {expected} rows, got shape {projection.shape}"
                )
            if not np.all(np.isfinite(projection)):
                raise InputError("output_projection must be finite")
        object.__setattr__(self, "score_weights", weights)
        object.__setattr__(self, "score_bias", bias)
        object.__setattr__(self, "output_projection", projection)

    @property
    def head_count(self) -> int:
        return self.score_weights.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.score_weights.shape[1] // 2

    @property
    def output_dim(self) -> int:
        if self.output_projection is not None:
            return self.output_projection.shape[1]
        return self.head_count * self.feature_dim

    @classmethod
    def initialize(
        cls,
        feature_dim: int,
        head_count: int = 1,
        output_dim: Optional[int] = None,
        seed: int = 0,
    ) -> "AttentionParams":
        """Seeded uniform init in [-1/sqrt(2d), 1/sqrt(2d)] for every parameter."""
        if feature_dim < 1 or head_count < 1:
            raise InputError("feature_dim and head_count must be >= 1")
        if output_dim is not None and output_dim < 1:
            raise InputError(f"output_dim must be >= 1, got {output_dim}")
        if seed < 0:
            raise InputError(f"seed must be >= 0, got {seed}")
        check_float_count(head_count * (2 * feature_dim + 1 + feature_dim * (output_dim or 0)),
                          f"head_count {head_count}, feature_dim {feature_dim} and "
                          f"output_dim {output_dim}")
        rng = np.random.default_rng(seed)
        bound = 1.0 / np.sqrt(2.0 * feature_dim)
        weights = rng.uniform(-bound, bound, size=(head_count, 2 * feature_dim))
        bias = rng.uniform(-bound, bound, size=head_count)
        projection = None
        if output_dim is not None:
            projection = rng.uniform(-bound, bound, size=(head_count * feature_dim, output_dim))
        return cls(score_weights=weights, score_bias=bias, output_projection=projection)


@dataclass(frozen=True, eq=False)
class AttendablePairs:
    """Attendable sets of one graph, rows grouped into buckets by degree.

    ``indptr``/``indices`` list each node and its graph neighbors, columns
    ascending. ``log_weight`` is each listed pair's log-IoU score bias
    (-0.0, which adds exactly nothing, on self pairs and zero-weight edges),
    or None without IoU biasing. ``dense`` rows attend to all M nodes.
    ``buckets`` holds (degree, ascending rows) by ascending degree. Per-pair
    arrays run row by row, columns ascending: M * M values in dense mode.
    """

    indptr: np.ndarray
    indices: np.ndarray
    log_weight: Optional[np.ndarray]
    dense: bool
    buckets: tuple[tuple[int, np.ndarray], ...]

    @property
    def num_nodes(self) -> int:
        return self.indptr.shape[0] - 1

    @property
    def degree(self) -> np.ndarray:
        m = self.num_nodes
        return np.full(m, m) if self.dense else np.diff(self.indptr)

    @property
    def pair_count(self) -> int:
        return self.num_nodes ** 2 if self.dense else self.indices.shape[0]


@dataclass
class AttentionDegrees:
    """Attendable-set sizes, self included, over the rows of one attention call.

    ``workers`` counts the threads the kernel ran on, the calling thread
    included: 1 when it ran inline.
    """

    min_degree: int = 0
    median_degree: float = 0.0
    max_degree: int = 0
    buckets: int = 0
    workers: int = 0


@dataclass(frozen=True, eq=False)
class AttentionGradients:
    """Gradients of <upstream, output> for every input and parameter."""

    features: np.ndarray
    score_weights: np.ndarray
    score_bias: np.ndarray
    output_projection: Optional[np.ndarray]


def attendable_pairs(
    g: ProposalGraph, dense_attention: bool = False, iou_bias: bool = False
) -> AttendablePairs:
    """Each node's neighbors plus itself, with the log-IoU bias when asked."""
    m = g.num_nodes
    nodes = np.arange(m, dtype=np.int64)
    rows = np.concatenate([nodes, g.edge_index[:, 0], g.edge_index[:, 1]])
    cols = np.concatenate([nodes, g.edge_index[:, 1], g.edge_index[:, 0]])
    order = np.lexsort((cols, rows))
    degree = np.bincount(rows, minlength=m)
    log_weight = None
    if iou_bias:
        bias = np.full(g.num_edges, -0.0)
        on_edge = g.edge_weight > 0.0
        bias[on_edge] = np.log(np.maximum(g.edge_weight[on_edge], _LOG_WEIGHT_FLOOR))
        log_weight = np.concatenate([np.full(m, -0.0), bias, bias])[order]
    if dense_attention:
        buckets = ((m, nodes),) if m else ()
    else:
        by_degree = np.argsort(degree, kind="stable")
        starts = np.flatnonzero(np.diff(degree[by_degree], prepend=-1))
        buckets = tuple((int(degree[rows_k[0]]), rows_k)
                        for rows_k in np.split(by_degree, starts[1:]) if rows_k.size)
    indptr = np.concatenate([[0], np.cumsum(degree)])
    return AttendablePairs(indptr, cols[order], log_weight, dense_attention, buckets)


def _rows_per_block(k: int, width: int, floats: int) -> int:
    return max(1, floats // (k * max(width, 1)))


def _blocks(pairs: AttendablePairs, width: int, floats: int) -> Iterator[tuple]:
    """(rows, cols, positions, log_weight) per block, each row once; (r, k) arrays.

    A block holds about ``floats`` values per (r, k, width) array, and at
    least one row.
    """
    m = pairs.num_nodes
    for k, bucket in pairs.buckets:
        step = _rows_per_block(k, width, floats)
        for start in range(0, bucket.size, step):
            rows = bucket[start:start + step]
            if not pairs.dense:
                positions = pairs.indptr[rows, None] + np.arange(k)
                log_weight = None if pairs.log_weight is None else pairs.log_weight[positions]
                yield rows, pairs.indices[positions], positions, log_weight
                continue
            log_weight = None
            if pairs.log_weight is not None:
                # Dense blocks hold consecutive rows, so their listed pairs are one slice.
                listed = slice(pairs.indptr[rows[0]], pairs.indptr[rows[-1] + 1])
                local = np.repeat(np.arange(rows.size), np.diff(pairs.indptr[rows[0]:rows[-1] + 2]))
                log_weight = np.full((rows.size, m), -0.0)
                log_weight[local, pairs.indices[listed]] = pairs.log_weight[listed]
            cols = np.broadcast_to(np.arange(m), (rows.size, m))
            yield rows, cols, rows[:, None] * m + cols, log_weight


def _head_scores(features: np.ndarray, params: AttentionParams, num_nodes: int,
                 head: int) -> Callable[..., np.ndarray]:
    """One head's block scores, added as ((left_i + right_j) + b) + log w."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise InputError("features must be a 2-d matrix")
    if feats.shape[0] != num_nodes:
        raise InputError(f"{feats.shape[0]} feature rows for {num_nodes} graph nodes")
    if feats.shape[1] != params.feature_dim:
        raise InputError(
            f"feature dim {feats.shape[1]} does not match params dim {params.feature_dim}"
        )
    if not 0 <= head < params.head_count:
        raise InputError(f"head {head} out of range for {params.head_count} heads")
    d = params.feature_dim
    # A score that overflows is left to attention_weights' finiteness check.
    with np.errstate(over="ignore", invalid="ignore"):
        left = np.einsum("md,d->m", feats, params.score_weights[head, :d])
        right = np.einsum("md,d->m", feats, params.score_weights[head, d:])

    def scores(rows, cols, positions, log_weight) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            out = left[rows, None] + right[cols] + params.score_bias[head]
            return out if log_weight is None else out + log_weight

    return scores


def similarity_scores(
    features: np.ndarray, params: AttentionParams, pairs: AttendablePairs, head: int = 0
) -> np.ndarray:
    """Learned per-pair scores of one head: w . [x_i ; x_j] + b (+ log w_ij)."""
    scores_of = _head_scores(features, params, pairs.num_nodes, head)
    out = np.empty(pairs.pair_count, dtype=np.float64)
    for block in _blocks(pairs, 1, _BLOCK_FLOATS):
        out[block[2]] = scores_of(*block)
    return out


def attention_weights(scores: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, over a sorted denominator.

    Raises NumericalError when a score is not finite.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise NumericalError("non-finite attention score")
    shifted = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
    return shifted / np.sum(np.sort(shifted, axis=-1), axis=-1, keepdims=True)


def _block_weights(scores: np.ndarray, rows: np.ndarray, head: int) -> np.ndarray:
    """``attention_weights`` of one block; a failure names the head and first bad row."""
    try:
        return attention_weights(scores)
    except NumericalError as exc:
        row = int(rows[np.argmin(np.isfinite(scores).all(axis=1))])
        raise NumericalError(f"attention: head {head}, row {row}: {exc}") from exc


def _worker_count() -> int:
    """The CPUs this process may use."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _attend(feats: np.ndarray, pairs: AttendablePairs,
            heads: list[Callable]) -> tuple[np.ndarray, int]:
    """The kernel: per block and head, softmax, value-sorted sums and the hull clip.

    Returns the head outputs side by side, (M, heads * d), and the number of
    threads the blocks ran on. Workers pull blocks from one generator under a
    lock, so no block list is built; the calling thread is one of them, and
    with one worker it runs every block itself. Each worker reuses two
    scratch arrays the calling thread allocates. A worker's exception, or a
    thread that fails to start, stops every worker after its current block;
    the first is raised here once the started threads are joined.
    """
    m, d = feats.shape
    out = np.empty((m, len(heads) * d), dtype=np.float64)
    workers = _worker_count()
    floats = max(1, _BLOCK_FLOATS // workers)
    steps = [(k, bucket.size, _rows_per_block(k, d, floats)) for k, bucket in pairs.buckets]
    workers = max(1, min(workers, sum(-(-size // step) for _, size, step in steps)))
    capacity = max((k * min(size, step) * d for k, size, step in steps), default=0)
    blocks = _blocks(pairs, d, floats)
    supply = threading.Lock()
    errors: list[BaseException] = []

    def work(neighbors_buffer: np.ndarray, contributions_buffer: np.ndarray) -> None:
        try:
            while not errors:
                with supply:
                    block = next(blocks, None)
                if block is None:
                    return
                rows, cols = block[0], block[1]
                r, k = cols.shape
                # mode="clip" fills the buffer in place, where "raise" would fill a
                # temporary copy first; the columns are always in range.
                neighbors = np.take(feats, cols, axis=0, mode="clip",
                                    out=neighbors_buffer[:r * k * d].reshape(r, k, d))
                lo, hi = neighbors.min(axis=1), neighbors.max(axis=1)
                # One lane of k contributions per row and coordinate, along axis 1.
                contributions = contributions_buffer[:r * k * d].reshape(r, k, d)
                for h, scores_of in enumerate(heads):
                    np.multiply(neighbors, _block_weights(scores_of(*block), rows, h)[:, :, None],
                                out=contributions)
                    contributions.sort(axis=1)
                    # A sum over the middle axis adds each lane's values one after
                    # another from 0.0, as np.sum(axis=0) does over (k, d); with
                    # d == 1 the lane is the inner axis and numpy sums it pairwise.
                    summed = contributions.sum(axis=1)
                    out[rows, h * d:(h + 1) * d] = np.minimum(np.maximum(summed, lo), hi)
        except BaseException as exc:  # handed to the calling thread, which raises it
            errors.append(exc)

    buffers = [(np.empty(capacity), np.empty(capacity)) for _ in range(workers)]
    threads = [threading.Thread(target=work, args=pair) for pair in buffers[1:]]
    try:
        for thread in threads:
            thread.start()
    except BaseException as exc:
        errors.append(exc)
    work(*buffers[0])
    for thread in threads:
        if thread.ident is not None:  # started
            thread.join()
    if errors:
        raise errors[0]
    return out, workers


def attend(features: np.ndarray, pairs: AttendablePairs, scores: np.ndarray) -> np.ndarray:
    """Aggregate features with softmax attention weights of per-pair ``scores``.

    Every output row is a convex combination of its attendable input rows;
    per-coordinate sums run in value-sorted order and the result is clipped
    to the attendable min/max so rounding can never leave the convex hull.
    """
    feats = np.asarray(features, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] != pairs.num_nodes:
        raise InputError("features must be 2-d with one row per attendable node")
    if scores.shape != (pairs.pair_count,):
        raise InputError(f"scores need shape ({pairs.pair_count},), got {scores.shape}")
    return _attend(feats, pairs, [lambda rows, cols, positions, log_weight: scores[positions]])[0]


def multi_head_attend(
    features: np.ndarray,
    params: AttentionParams,
    g: ProposalGraph,
    dense_attention: bool = False,
    iou_bias: bool = False,
    degrees: Optional[AttentionDegrees] = None,
) -> np.ndarray:
    """All heads in parallel: per-head attention, concatenation, optional projection.

    The heads share one ``AttendablePairs``; ``degrees``, when given, receives
    its statistics. With one head and no projection this equals ``attend``.
    """
    feats = np.asarray(features, dtype=np.float64)
    pairs = attendable_pairs(g, dense_attention=dense_attention, iou_bias=iou_bias)
    heads = [_head_scores(feats, params, g.num_nodes, h) for h in range(params.head_count)]
    concatenated, workers = _attend(feats, pairs, heads)
    if degrees is not None and pairs.buckets:
        degrees.min_degree, degrees.max_degree = pairs.buckets[0][0], pairs.buckets[-1][0]
        degrees.median_degree = float(np.median(pairs.degree))
        degrees.buckets = len(pairs.buckets)
        degrees.workers = workers
    if params.output_projection is None:
        return concatenated
    return np.einsum("mk,ko->mo", concatenated, params.output_projection)


def attention_gradients(
    features: np.ndarray,
    params: AttentionParams,
    g: ProposalGraph,
    upstream: np.ndarray,
    dense_attention: bool = False,
    iou_bias: bool = False,
) -> AttentionGradients:
    """Analytic gradients of <upstream, multi_head_attend(...)>."""
    feats = np.asarray(features, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    m, d = feats.shape
    expected = (m, params.output_dim)
    if upstream.shape != expected:
        raise InputError(f"upstream must have shape {expected}, got {upstream.shape}")
    pairs = attendable_pairs(g, dense_attention=dense_attention, iou_bias=iou_bias)
    heads = [_head_scores(feats, params, g.num_nodes, h) for h in range(params.head_count)]

    grad_projection = None
    grad_concat = upstream
    if params.output_projection is not None:
        concatenated = _attend(feats, pairs, heads)[0]
        grad_projection = np.einsum("mk,mo->ko", concatenated, upstream)
        grad_concat = np.einsum("mo,ko->mk", upstream, params.output_projection)

    grad_features = np.zeros_like(feats)
    grad_score_weights = np.zeros_like(params.score_weights)
    grad_score_bias = np.zeros_like(params.score_bias)
    for head, scores_of in enumerate(heads):
        row_sums = np.zeros(m, dtype=np.float64)
        col_sums = np.zeros(m, dtype=np.float64)
        for block in _blocks(pairs, d, _BLOCK_FLOATS):
            rows, cols = block[0], block[1]
            alpha = _block_weights(scores_of(*block), rows, head)
            grad_out = grad_concat[rows, head * d:(head + 1) * d]
            # Through the aggregation O = alpha X.
            np.add.at(grad_features, cols, alpha[:, :, None] * grad_out[:, None, :])
            grad_alpha = np.einsum("rd,rkd->rk", grad_out, feats[cols])
            # Softmax backward per row over its attendable set.
            inner = np.einsum("rk,rk->r", grad_alpha, alpha)
            grad_scores = alpha * (grad_alpha - inner[:, None])
            row_sums[rows] = grad_scores.sum(axis=1)
            col_sums += np.bincount(cols.ravel(), weights=grad_scores.ravel(), minlength=m)
        w_self = params.score_weights[head, :d]
        w_other = params.score_weights[head, d:]
        grad_features += row_sums[:, None] * w_self[None, :]
        grad_features += col_sums[:, None] * w_other[None, :]
        grad_score_weights[head, :d] = np.einsum("m,md->d", row_sums, feats)
        grad_score_weights[head, d:] = np.einsum("m,md->d", col_sums, feats)
        grad_score_bias[head] = row_sums.sum()
    return AttentionGradients(
        features=grad_features,
        score_weights=grad_score_weights,
        score_bias=grad_score_bias,
        output_projection=grad_projection,
    )
