"""Graph attention over proposal features.

Pairwise scores come from a learned linear functional on the concatenated
feature pair [x_i ; x_j]; a row-wise softmax over the attendable set (graph
neighbors plus self, or all pairs in dense mode) turns scores into weights,
and each node's refined feature is the weighted sum of attendable features.
Multiple heads concatenate and optionally project.

Reductions (softmax denominators, weighted sums) are performed in value-
sorted order, which makes the outputs exactly invariant under node
permutation and independent of thread count. The analytic backward pass is
verified against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError, NumericalError
from .graph import ProposalGraph

# Floor for IoU weights fed through log() when score biasing is enabled.
_LOG_WEIGHT_FLOOR = 1e-300


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
        if weights.ndim != 2 or weights.shape[1] % 2 != 0 or weights.shape[1] == 0:
            raise InputError("score_weights must have shape (heads, 2 * feature_dim)")
        if bias.shape[0] != weights.shape[0]:
            raise InputError("score_bias length must equal the head count")
        if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(bias))):
            raise InputError("attention parameters must be finite")
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
        rng = np.random.default_rng(seed)
        bound = 1.0 / np.sqrt(2.0 * feature_dim)
        weights = rng.uniform(-bound, bound, size=(head_count, 2 * feature_dim))
        bias = rng.uniform(-bound, bound, size=head_count)
        projection = None
        if output_dim is not None:
            projection = rng.uniform(-bound, bound, size=(head_count * feature_dim, output_dim))
        return cls(score_weights=weights, score_bias=bias, output_projection=projection)


@dataclass(frozen=True, eq=False)
class AffinityMatrix:
    """Pre-softmax pairwise scores plus the attendability mask."""

    scores: np.ndarray
    mask: np.ndarray

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=np.float64)
        mask = np.asarray(self.mask, dtype=bool)
        if scores.shape != mask.shape or scores.ndim != 2 or scores.shape[0] != scores.shape[1]:
            raise InputError("scores and mask must be matching square matrices")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "mask", mask)

    @property
    def num_nodes(self) -> int:
        return self.scores.shape[0]


@dataclass(frozen=True, eq=False)
class AttentionGradients:
    """Gradients of <upstream, output> for every input and parameter."""

    features: np.ndarray
    score_weights: np.ndarray
    score_bias: np.ndarray
    output_projection: Optional[np.ndarray]


def attendable_mask(g: ProposalGraph, dense_attention: bool = False) -> np.ndarray:
    """Boolean attendability: graph neighbors plus self, or everything in dense mode."""
    m = g.num_nodes
    if dense_attention:
        return np.ones((m, m), dtype=bool)
    mask = np.zeros((m, m), dtype=bool)
    np.fill_diagonal(mask, True)
    if g.num_edges:
        i, j = g.edge_index[:, 0], g.edge_index[:, 1]
        mask[i, j] = True
        mask[j, i] = True
    return mask


def similarity_scores(
    features: np.ndarray,
    params: AttentionParams,
    g: ProposalGraph,
    head: int = 0,
    dense_attention: bool = False,
    iou_bias: bool = False,
) -> AffinityMatrix:
    """Learned pairwise scores for one head over the attendable pairs.

    score(i, j) = w . [x_i ; x_j] + b. With ``iou_bias`` the log of the edge
    weight is added on graph edges (self pairs are unbiased).
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise InputError("features must be a 2-d matrix")
    if feats.shape[0] != g.num_nodes:
        raise InputError(f"{feats.shape[0]} feature rows for {g.num_nodes} graph nodes")
    if feats.shape[1] != params.feature_dim:
        raise InputError(
            f"feature dim {feats.shape[1]} does not match params dim {params.feature_dim}"
        )
    if not 0 <= head < params.head_count:
        raise InputError(f"head {head} out of range for {params.head_count} heads")
    d = params.feature_dim
    w_self = params.score_weights[head, :d]
    w_other = params.score_weights[head, d:]
    left = np.einsum("md,d->m", feats, w_self)
    right = np.einsum("md,d->m", feats, w_other)
    scores = left[:, None] + right[None, :] + params.score_bias[head]
    if iou_bias:
        on_edge = g.edge_weight > 0.0
        i, j = g.edge_index[on_edge, 0], g.edge_index[on_edge, 1]
        bias = np.log(np.maximum(g.edge_weight[on_edge], _LOG_WEIGHT_FLOOR))
        scores[i, j] += bias
        scores[j, i] += bias
    return AffinityMatrix(scores=scores, mask=attendable_mask(g, dense_attention))


def _sorted_sum(values: np.ndarray) -> float:
    """Sum in ascending value order: permutation-invariant and order-fixed."""
    return float(np.sum(np.sort(values, kind="stable")))


def attention_weights(aff: AffinityMatrix) -> np.ndarray:
    """Row-stochastic weights: softmax over each row's attendable entries.

    Masked entries are exactly zero. Raises NumericalError when an
    attendable score is not finite.
    """
    m = aff.num_nodes
    weights = np.zeros((m, m), dtype=np.float64)
    for i in range(m):
        idx = np.flatnonzero(aff.mask[i])
        if idx.size == 0:
            raise InputError(f"row {i} has no attendable entries")
        row = aff.scores[i, idx]
        if not np.all(np.isfinite(row)):
            raise NumericalError(f"non-finite attention score in row {i}")
        shifted = np.exp(row - np.max(row))
        weights[i, idx] = shifted / _sorted_sum(shifted)
    return weights


def attend(features: np.ndarray, aff: AffinityMatrix) -> np.ndarray:
    """Aggregate features with softmax attention weights.

    Every output row is a convex combination of its attendable input rows;
    per-coordinate sums run in value-sorted order and the result is clipped
    to the attendable min/max so rounding can never leave the convex hull.
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] != aff.num_nodes:
        raise InputError("features must be 2-d with one row per affinity node")
    weights = attention_weights(aff)
    out = np.empty_like(feats)
    for i in range(aff.num_nodes):
        idx = np.flatnonzero(aff.mask[i])
        contributions = weights[i, idx][:, None] * feats[idx]
        row = np.sum(np.sort(contributions, axis=0, kind="stable"), axis=0)
        lo = feats[idx].min(axis=0)
        hi = feats[idx].max(axis=0)
        out[i] = np.minimum(np.maximum(row, lo), hi)
    return out


def multi_head_attend(
    features: np.ndarray,
    params: AttentionParams,
    g: ProposalGraph,
    dense_attention: bool = False,
    iou_bias: bool = False,
) -> np.ndarray:
    """All heads in parallel: per-head attention, concatenation, optional projection.

    With one head and no projection this reduces exactly to ``attend``.
    """
    feats = np.asarray(features, dtype=np.float64)
    head_outputs = []
    for head in range(params.head_count):
        aff = similarity_scores(
            feats, params, g, head=head, dense_attention=dense_attention, iou_bias=iou_bias
        )
        head_outputs.append(attend(feats, aff))
    concatenated = np.concatenate(head_outputs, axis=1) if head_outputs else feats
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
    h = params.head_count
    expected = (m, params.output_dim)
    if upstream.shape != expected:
        raise InputError(f"upstream must have shape {expected}, got {upstream.shape}")

    head_weights = []
    head_outputs = []
    for head in range(h):
        aff = similarity_scores(
            feats, params, g, head=head, dense_attention=dense_attention, iou_bias=iou_bias
        )
        alpha = attention_weights(aff)
        head_weights.append(alpha)
        head_outputs.append(np.einsum("mn,nd->md", alpha, feats))
    concatenated = np.concatenate(head_outputs, axis=1) if h else feats

    if params.output_projection is not None:
        grad_projection = np.einsum("mk,mo->ko", concatenated, upstream)
        grad_concat = np.einsum("mo,ko->mk", upstream, params.output_projection)
    else:
        grad_projection = None
        grad_concat = upstream

    grad_features = np.zeros_like(feats)
    grad_score_weights = np.zeros_like(params.score_weights)
    grad_score_bias = np.zeros_like(params.score_bias)
    mask = attendable_mask(g, dense_attention)
    for head in range(h):
        alpha = head_weights[head]
        grad_out = grad_concat[:, head * d : (head + 1) * d]
        # Through the aggregation O = alpha X.
        grad_features += np.einsum("mn,md->nd", alpha, grad_out)
        grad_alpha = np.einsum("md,nd->mn", grad_out, feats)
        # Softmax backward per row, restricted to the attendable set.
        inner = np.einsum("mn,mn->m", grad_alpha, alpha)
        grad_scores = alpha * (grad_alpha - inner[:, None])
        grad_scores[~mask] = 0.0
        row_sums = grad_scores.sum(axis=1)
        col_sums = grad_scores.sum(axis=0)
        w_self = params.score_weights[head, :d]
        w_other = params.score_weights[head, d:]
        grad_features += row_sums[:, None] * w_self[None, :]
        grad_features += col_sums[:, None] * w_other[None, :]
        grad_score_weights[head, :d] = np.einsum("m,md->d", row_sums, feats)
        grad_score_weights[head, d:] = np.einsum("m,md->d", col_sums, feats)
        grad_score_bias[head] = grad_scores.sum()
    return AttentionGradients(
        features=grad_features,
        score_weights=grad_score_weights,
        score_bias=grad_score_bias,
        output_projection=grad_projection,
    )
