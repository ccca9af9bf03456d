"""Graph attention over proposal features.

``multi_head_attend`` is the one way in, and ``attention_gradients`` its
backward pass. Each head scores pair (i, j) by its key alone: right_j, a
learned linear functional of x_j, plus log w_ij when IoU biasing is on. A
query term or a bias would add the same constant to every score of row i,
which cancels in its softmax, so ``AttentionParams`` holds no such
parameter. A row-wise softmax over the attendable set (graph neighbors plus
self) turns scores into weights, and each node's refined feature is the
weighted sum of attendable features. Heads concatenate and optionally
project.

``AttendablePairs`` holds the attendable sets once per graph as CSR rows
(self plus both edge directions) grouped into buckets of equal degree k.
The kernel runs each bucket in row blocks of about ``_BLOCK_FLOATS`` values
per (r, k, d) array and computes nothing off the attendable pairs.

Each row lists its columns in one canonical order: by the content of their
feature rows, a total order on the bits that gives equal rows one rank, then
by the pair's log-IoU bias. Columns with equal keys have bit-equal features
and scores, so they make bit-equal contributions, and the row's sequence of
contributions does not depend on how the nodes are numbered. The kernel
reduces every row in that stored order: the softmax denominator with
``np.sum``, the weighted sum with one ``einsum``, which for d >= 2 adds each
coordinate's contributions one after another from 0.0. So outputs are
exactly equivariant under node permutation, with no sort per block, and do
not depend on BLAS threading.

Since scores depend on the key alone, rows that store the same column
sequence have bit-equal outputs: they are twins. Without the IoU bias the
kernel runs one row per twin class, projects only those rows, and copies
each to its whole class. A clique that is a whole connected component is
one class. With the bias no rows are shared.

Blocks run side by side on up to one thread per CPU the process may use,
the calling thread among them. Each output row is written by exactly one
block, and a row's arithmetic does not depend on its block, so the bytes do
not depend on the thread count or the block size. The analytic backward
pass is verified against central finite differences.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import InputError, NumericalError, check_float_count
from .graph import ProposalGraph, _stable_argsort

# Floor for IoU weights fed through log() when score biasing is enabled.
_LOG_WEIGHT_FLOOR = 1e-300
# Values per (r, k, d) array of one block (2 MB), which bounds attention's
# working memory; the forward kernel splits it evenly among its threads. On 2
# shared vCPUs, 5,000 proposals with 4 heads over 64 dims took a median 132 ms
# in multi_head_attend at this size, 222 ms at 2**16 and 100 ms at 2**20, which
# won 13 of 14 alternating fresh-process pairs against this size. 2**20 also
# raised the 5,000-proposal benchmark's peak RSS from 88 to 95 MB, so this size stays.
_BLOCK_FLOATS = 1 << 18


@dataclass(frozen=True, eq=False)
class AttentionParams:
    """Per-head key weights and optional shared output projection.

    ``key_weights`` has shape (heads, feature_dim): head h scores pair (i, j)
    by key_weights[h] . x_j. ``output_projection`` (heads * feature_dim,
    output_dim) mixes the concatenated head outputs.
    """

    key_weights: np.ndarray
    output_projection: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        weights = np.asarray(self.key_weights, dtype=np.float64)
        if weights.ndim != 2 or 0 in weights.shape:
            raise InputError(f"key_weights must have shape (heads >= 1, feature_dim >= 1), "
                             f"got {weights.shape}")
        if not np.all(np.isfinite(weights)):
            raise InputError("key_weights must be finite")
        projection = self.output_projection
        if projection is not None:
            projection = np.asarray(projection, dtype=np.float64)
            expected = weights.size
            if projection.ndim != 2 or projection.shape[0] != expected:
                raise InputError(
                    f"output_projection must have {expected} rows, got shape {projection.shape}"
                )
            if not np.all(np.isfinite(projection)):
                raise InputError("output_projection must be finite")
        object.__setattr__(self, "key_weights", weights)
        object.__setattr__(self, "output_projection", projection)

    @property
    def head_count(self) -> int:
        return self.key_weights.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.key_weights.shape[1]

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
        """Seeded uniform init in [-1/sqrt(2d), 1/sqrt(2d)] for every parameter.

        The stream still draws a query half beside each head's key weights,
        then one bias per head, and keeps neither, so every seed gives the
        key weights and projection it gave when params held them.
        """
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
        rng.uniform(-bound, bound, size=head_count)
        projection = None
        if output_dim is not None:
            projection = rng.uniform(-bound, bound, size=(head_count * feature_dim, output_dim))
        return cls(key_weights=weights[:, feature_dim:].copy(), output_projection=projection)


@dataclass(frozen=True, eq=False)
class AttendablePairs:
    """Attendable sets of one graph, rows grouped into buckets by degree.

    ``indptr``/``indices`` list each node and its graph neighbors in
    canonical order: by the content rank of each node's feature row, then
    by log-weight. ``log_weight`` is each listed pair's log-IoU score bias
    (-0.0, which adds exactly nothing, on self pairs and zero-weight edges),
    or None without IoU biasing. ``buckets`` holds (degree, ascending rows)
    by ascending degree.
    """

    indptr: np.ndarray
    indices: np.ndarray
    log_weight: Optional[np.ndarray]
    buckets: tuple[tuple[int, np.ndarray], ...]

    @property
    def num_nodes(self) -> int:
        return self.indptr.shape[0] - 1

    @property
    def degree(self) -> np.ndarray:
        return np.diff(self.indptr)


@dataclass
class AttentionDegrees:
    """Attendable-set sizes, self included, over the rows of one attention call.

    ``workers`` counts the threads the kernel ran on, the calling thread
    included: 1 when it ran inline. ``computed_rows`` counts the twin
    classes, the rows the kernel ran.
    """

    min_degree: int = 0
    median_degree: float = 0.0
    max_degree: int = 0
    buckets: int = 0
    workers: int = 0
    computed_rows: int = 0


@dataclass(frozen=True, eq=False)
class AttentionGradients:
    """Gradients of <upstream, output> for every input and parameter."""

    features: np.ndarray
    key_weights: np.ndarray
    output_projection: Optional[np.ndarray]


def _content_rank(feats: np.ndarray) -> np.ndarray:
    """Each row's rank in the lexicographic order of its bits read as uint64.

    ``feats`` holds float64 feature rows, or non-negative int64 column lists.

    Equal rows share a rank, so the ranks depend on row content alone. The
    first column's bits settle the order unless that column repeats; only
    then are all columns sorted.
    """
    m = feats.shape[0]
    rank = np.zeros(m, dtype=np.int64)
    if m == 0 or feats.shape[1] == 0:
        return rank
    bits = np.ascontiguousarray(feats).view(np.uint64)
    order = np.argsort(bits[:, 0], kind="stable")
    first = bits[order, 0]
    if np.any(first[1:] == first[:-1]):
        order = np.lexsort(bits.T[::-1])
    ordered = bits[order]
    rank[order[1:]] = np.cumsum(np.any(ordered[1:] != ordered[:-1], axis=1))
    return rank


def _check_rows(feats: np.ndarray, num_nodes: int) -> None:
    if feats.ndim != 2:
        raise InputError("features must be a 2-d matrix")
    if feats.shape[0] != num_nodes:
        raise InputError(f"{feats.shape[0]} feature rows for {num_nodes} graph nodes")


def attendable_pairs(g: ProposalGraph, features: np.ndarray,
                     iou_bias: bool = False) -> AttendablePairs:
    """Each node's neighbors plus itself in canonical order, with the log-IoU bias when asked.

    A row lists its columns by the content rank of their ``features`` rows,
    and columns of equal rank by ascending log-weight.
    """
    m = g.num_nodes
    feats = np.asarray(features, dtype=np.float64)
    _check_rows(feats, m)
    rank = _content_rank(feats)
    nodes = np.arange(m, dtype=np.int64)
    rows = np.concatenate([nodes, g.edge_index[:, 0], g.edge_index[:, 1]])
    cols = np.concatenate([nodes, g.edge_index[:, 1], g.edge_index[:, 0]])
    degree = np.bincount(rows, minlength=m)
    key = rows * m + rank[cols]
    del rows
    order = _stable_argsort(key, m * m)
    log_weight = None
    if iou_bias:
        bias = np.full(g.num_edges, -0.0)
        on_edge = g.edge_weight > 0.0
        bias[on_edge] = np.log(np.maximum(g.edge_weight[on_edge], _LOG_WEIGHT_FLOOR))
        log_weight = np.concatenate([np.full(m, -0.0), bias, bias])
        # Equal keys are equal-content columns of one row: order them by log-weight.
        key = key[order]
        repeats = np.flatnonzero(np.diff(key) == 0)
        tied = np.union1d(repeats, repeats + 1)
        order[tied] = order[tied][np.lexsort((log_weight[order[tied]], key[tied]))]
        log_weight = log_weight[order]
    by_degree = np.argsort(degree, kind="stable")
    starts = np.flatnonzero(np.diff(degree[by_degree], prepend=-1))
    buckets = tuple((int(degree[rows_k[0]]), rows_k)
                    for rows_k in np.split(by_degree, starts[1:]) if rows_k.size)
    indptr = np.concatenate([[0], np.cumsum(degree)])
    return AttendablePairs(indptr, cols[order], log_weight, buckets)


def _twin_classes(pairs: AttendablePairs) -> tuple[np.ndarray, tuple]:
    """Each row's twin class, and the buckets of the rows that stand for the classes.

    Without the IoU bias, twins are rows that store the same column sequence,
    so they share a degree bucket; each bucket's column lists are ranked
    exactly, rows of equal rank forming a class. Classes are numbered by
    their smallest row, which stands for the class. With the bias no row is
    shared: rows would need -0.0 at each other's self column, a zero-weight
    edge, which ``build_graph`` never emits.
    """
    m = pairs.num_nodes
    nodes = np.arange(m, dtype=np.int64)
    if pairs.log_weight is not None or m == 0:
        return nodes, pairs.buckets
    first = np.empty(m, dtype=np.int64)
    for k, rows in pairs.buckets:
        rank = _content_rank(np.take(pairs.indices, pairs.indptr[rows, None] + np.arange(k)))
        first[rows] = rows[np.unique(rank, return_index=True)[1]][rank]
    alone = first == nodes
    return (np.cumsum(alone) - 1)[first], tuple((k, rows[alone[rows]]) for k, rows in pairs.buckets)


def _rows_per_block(k: int, width: int, floats: int) -> int:
    return max(1, floats // (k * max(width, 1)))


def _blocks(pairs: AttendablePairs, width: int, floats: int,
            buckets: Optional[tuple] = None) -> Iterator[tuple]:
    """(rows, cols, log_weight) per block, each row of ``buckets`` once; (r, k) arrays.

    ``buckets`` defaults to ``pairs.buckets``, and may hold a subset of its
    rows. A block holds about ``floats`` values per (r, k, width) array, and
    at least one row.
    """
    for k, bucket in pairs.buckets if buckets is None else buckets:
        step = _rows_per_block(k, width, floats)
        for start in range(0, bucket.size, step):
            rows = bucket[start:start + step]
            positions = pairs.indptr[rows, None] + np.arange(k)
            log_weight = None
            if pairs.log_weight is not None:
                log_weight = np.take(pairs.log_weight, positions)
            yield rows, np.take(pairs.indices, positions), log_weight


def _head_terms(feats: np.ndarray, params: AttentionParams, num_nodes: int) -> list[np.ndarray]:
    """Each head's key scores: its score on pair (i, j) is right_j, plus log w_ij with the bias."""
    _check_rows(feats, num_nodes)
    if feats.shape[1] != params.feature_dim:
        raise InputError(
            f"feature dim {feats.shape[1]} does not match params dim {params.feature_dim}"
        )
    # A score that overflows is left to attention_weights' finiteness check.
    with np.errstate(over="ignore", invalid="ignore"):
        return [np.einsum("md,d->m", feats, weights) for weights in params.key_weights]


def _block_scores(right: np.ndarray, cols: np.ndarray,
                  log_weight: Optional[np.ndarray]) -> np.ndarray:
    """One head's scores on a block: right_j, plus log w_ij when given."""
    return right[cols] if log_weight is None else right[cols] + log_weight


def attention_weights(scores: np.ndarray) -> np.ndarray:
    """Softmax along the last axis; the denominator sums in stored order.

    Raises NumericalError when a score is not finite.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise NumericalError("non-finite attention score")
    shifted = np.exp(scores - np.max(scores, axis=-1, keepdims=True))
    return shifted / np.sum(shifted, axis=-1, keepdims=True)


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
            heads: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, int]:
    """The kernel: per block and head, softmax, weighted sums and the hull clip.

    Runs one row per twin class. Returns the head outputs side by side, one
    row per class, (classes, heads * d); each row's class; and the number of
    threads the blocks ran on. Workers pull numbered blocks from one
    generator under a lock, so no block list is built; the calling thread is
    one of them, and with one worker it runs every block itself. Each worker
    reuses one scratch array the calling thread allocates. A worker's
    exception, or a thread that fails to start, stops every worker after its
    current block. Once the started threads are joined, a start failure is
    raised, else the error of the first failing block: every block before it
    was taken and finished, so that is the error one worker would raise.
    """
    d = feats.shape[1]
    class_of, buckets = _twin_classes(pairs)
    out = np.empty((sum(rows.size for _, rows in buckets), len(heads) * d), dtype=np.float64)
    workers = _worker_count()
    floats = max(1, _BLOCK_FLOATS // workers)
    steps = [(k, bucket.size, _rows_per_block(k, d, floats)) for k, bucket in buckets]
    workers = max(1, min(workers, sum(-(-size // step) for _, size, step in steps)))
    capacity = max((k * min(size, step) * d for k, size, step in steps), default=0)
    blocks = _blocks(pairs, d, floats, buckets)
    taken = itertools.count()
    supply = threading.Lock()
    errors: list[tuple[int, BaseException]] = []

    def work(neighbors_buffer: np.ndarray) -> None:
        number = -1
        try:
            while not errors:
                with supply:
                    # Numbered before the generator runs, so its own error
                    # comes after every block already handed out.
                    number = next(taken)
                    block = next(blocks, None)
                if block is None:
                    return
                rows, cols, log_weight = block
                r, k = cols.shape
                # mode="clip" fills the buffer in place, where "raise" would fill a
                # temporary copy first; the columns are always in range.
                neighbors = np.take(feats, cols, axis=0, mode="clip",
                                    out=neighbors_buffer[:r * k * d].reshape(r, k, d))
                lo, hi = neighbors.min(axis=1), neighbors.max(axis=1)
                slots = class_of[rows]
                for h, right in enumerate(heads):
                    weights = _block_weights(_block_scores(right, cols, log_weight), rows, h)
                    # Each row's k contributions are added in stored order.
                    summed = np.einsum("rk,rkd->rd", weights, neighbors)
                    out[slots, h * d:(h + 1) * d] = np.minimum(np.maximum(summed, lo), hi)
        except BaseException as exc:  # handed to the calling thread, which raises it
            errors.append((number, exc))

    buffers = [np.empty(capacity) for _ in range(workers)]
    threads = [threading.Thread(target=work, args=(buffer,)) for buffer in buffers[1:]]
    try:
        for thread in threads:
            thread.start()
    except BaseException as exc:
        errors.append((-1, exc))
    work(buffers[0])
    for thread in threads:
        if thread.ident is not None:  # started
            thread.join()
    if errors:
        raise min(errors, key=lambda error: error[0])[1]
    return out, class_of, workers


def multi_head_attend(
    features: np.ndarray,
    params: AttentionParams,
    g: ProposalGraph,
    iou_bias: bool = False,
    degrees: Optional[AttentionDegrees] = None,
) -> np.ndarray:
    """All heads in parallel: per-head attention, concatenation, optional projection.

    The heads share one ``AttendablePairs``; ``degrees``, when given, receives
    its statistics. Twin rows are attended and projected once.
    """
    feats = np.asarray(features, dtype=np.float64)
    heads = _head_terms(feats, params, g.num_nodes)
    pairs = attendable_pairs(g, feats, iou_bias=iou_bias)
    computed, class_of, workers = _attend(feats, pairs, heads)
    if degrees is not None and pairs.buckets:
        degrees.min_degree, degrees.max_degree = pairs.buckets[0][0], pairs.buckets[-1][0]
        degrees.median_degree = float(np.median(pairs.degree))
        degrees.buckets = len(pairs.buckets)
        degrees.workers = workers
        degrees.computed_rows = computed.shape[0]
    if params.output_projection is not None:
        computed = np.einsum("mk,ko->mo", computed, params.output_projection)
    return computed[class_of]


def attention_gradients(
    features: np.ndarray,
    params: AttentionParams,
    g: ProposalGraph,
    upstream: np.ndarray,
    iou_bias: bool = False,
) -> AttentionGradients:
    """Analytic gradients of <upstream, multi_head_attend(...)>."""
    feats = np.asarray(features, dtype=np.float64)
    heads = _head_terms(feats, params, g.num_nodes)
    upstream = np.asarray(upstream, dtype=np.float64)
    m, d = feats.shape
    expected = (m, params.output_dim)
    if upstream.shape != expected:
        raise InputError(f"upstream must have shape {expected}, got {upstream.shape}")
    pairs = attendable_pairs(g, feats, iou_bias=iou_bias)

    grad_projection = None
    grad_concat = upstream
    if params.output_projection is not None:
        computed, class_of, _ = _attend(feats, pairs, heads)
        grad_projection = np.einsum("mk,mo->ko", computed[class_of], upstream)
        grad_concat = np.einsum("mo,ko->mk", upstream, params.output_projection)

    grad_features = np.zeros_like(feats)
    grad_key_weights = np.zeros_like(params.key_weights)
    for head, right in enumerate(heads):
        col_sums = np.zeros(m, dtype=np.float64)
        for rows, cols, log_weight in _blocks(pairs, d, _BLOCK_FLOATS):
            alpha = _block_weights(_block_scores(right, cols, log_weight), rows, head)
            grad_out = grad_concat[rows, head * d:(head + 1) * d]
            # Through the aggregation O = alpha X.
            np.add.at(grad_features, cols, alpha[:, :, None] * grad_out[:, None, :])
            grad_alpha = np.einsum("rd,rkd->rk", grad_out, feats[cols])
            # Softmax backward per row over its attendable set.
            inner = np.einsum("rk,rk->r", grad_alpha, alpha)
            grad_scores = alpha * (grad_alpha - inner[:, None])
            col_sums += np.bincount(cols.ravel(), weights=grad_scores.ravel(), minlength=m)
        grad_features += col_sums[:, None] * params.key_weights[head][None, :]
        grad_key_weights[head] = np.einsum("m,md->d", col_sums, feats)
    return AttentionGradients(
        features=grad_features,
        key_weights=grad_key_weights,
        output_projection=grad_projection,
    )
