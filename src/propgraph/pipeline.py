"""End-to-end proposal refinement.

The forward pass composes the pieces: IoU graph construction, graph-cut
pooling with coarse-node injection, multi-head graph attention over the
augmented graph, and a residual normalization step that keeps the refined
features statistically close to the originals. Coarse nodes are internal:
the output always has one row per input proposal.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .attention import AttentionDegrees, AttentionParams, multi_head_attend
from .config import NORM_MODES, PipelineConfig
from .errors import InputError, NumericalError
from .graph import build_graph, connected_components
from .pooling import PseudoLabeling, augment_with_coarse, gcpool
from .spectral import SolveCounts


@dataclass(frozen=True, eq=False)
class PipelineDiagnostics:
    """Structure report for one forward run.

    ``labeling`` is pooling's result. Without pooling its ``labels`` are
    empty, it has 0 parts and zero solves, and it still counts the graph's
    components. ``attention`` covers every row attention ran on, coarse
    nodes included, and is all zeros with no nodes. ``timings_ms`` holds the
    wall milliseconds of the ``graph``, ``pool`` (component labelling alone
    without pooling), ``attend`` and ``normalize`` stages.
    """

    node_count: int
    edge_count: int
    labeling: PseudoLabeling
    attention: AttentionDegrees
    timings_ms: dict[str, float]


@dataclass(frozen=True, eq=False)
class RefinedProposals:
    """Refined per-proposal features, row-aligned with the input."""

    features: np.ndarray
    diagnostics: PipelineDiagnostics


def identical_normalize(
    refined: np.ndarray,
    original: np.ndarray,
    lambda_: float,
    epsilon: float,
    mode: str = "moment_match",
    per_channel: bool = False,
) -> np.ndarray:
    """Residual-mix refined features into the originals, then renormalize.

    Z = lambda_ * refined + original. ``literal`` mode returns
    (Z - mean(V)) / (var(V) + epsilon) with V the original matrix.
    ``moment_match`` standardizes Z and restores V's mean and standard
    deviation, so the output keeps the original statistics; epsilon only
    floors the standardizing scale, which keeps lambda_ = 0 an exact
    identity. Statistics are over all entries unless ``per_channel``.
    Raises NumericalError naming the first non-finite output row and every
    statistic that overflowed, which finite inputs near the float range can do.
    """
    refined = np.asarray(refined, dtype=np.float64)
    original = np.asarray(original, dtype=np.float64)
    if refined.shape != original.shape:
        raise InputError(f"shape mismatch: refined {refined.shape} vs original {original.shape}")
    for name, value in (("epsilon", epsilon), ("lambda", lambda_)):
        if not math.isfinite(value):
            raise InputError(f"{name} must be finite, got {value}")
    if epsilon <= 0.0:
        raise InputError(f"epsilon must be > 0, got {epsilon}")
    if lambda_ < 0.0:
        raise InputError(f"lambda must be >= 0, got {lambda_}")
    if mode not in NORM_MODES:
        raise InputError(f"unknown normalization mode {mode!r}")
    if refined.size == 0:
        return original.copy()
    axis = 0 if per_channel else None
    # Finite inputs can still overflow a square or a product; the check
    # below reports that instead of numpy's warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        mixed = lambda_ * refined + original
        if mode == "literal":
            statistics = {
                "original mean": original.mean(axis=axis),
                "original variance": original.var(axis=axis),
            }
            mean, var = statistics.values()
            output = (mixed - mean) / (var + epsilon)
        else:
            statistics = {
                "mixed mean": mixed.mean(axis=axis),
                "mixed std": mixed.std(axis=axis),
                "original mean": original.mean(axis=axis),
                "original std": original.std(axis=axis),
            }
            mixed_mean, mixed_std, mean, std = statistics.values()
            standardized = (mixed - mixed_mean) / np.maximum(mixed_std, epsilon)
            output = standardized * std + mean
    k = _first_non_finite_row(output)
    causes = [name for name, value in statistics.items() if not np.isfinite(value).all()]
    if k is not None or causes:
        problems = [f"output row {k} is not finite"] if k is not None else []
        problems += [f"overflowed: {', '.join(causes)}"] if causes else []
        raise NumericalError(f"{mode} normalization: {'; '.join(problems)}")
    return output


@contextlib.contextmanager
def _timed(timings_ms: dict, name: str) -> Iterator[None]:
    """Records the wall milliseconds of the block under ``name``."""
    start = time.perf_counter()
    yield
    timings_ms[name] = (time.perf_counter() - start) * 1000.0


def _first_non_finite_row(matrix: np.ndarray) -> Optional[int]:
    finite = np.isfinite(matrix).reshape(matrix.shape[0] if matrix.ndim else 1, -1).all(axis=1)
    return None if finite.all() else int(np.argmin(finite))


def forward(
    boxes: np.ndarray,
    features: np.ndarray,
    params: AttentionParams,
    config: PipelineConfig,
    use_gcpool: bool = True,
) -> RefinedProposals:
    """Full refinement pass; ``use_gcpool=False`` skips pooling and coarse injection.

    ``boxes`` is the (M, 4) array ``build_graph`` takes. Deterministic for
    fixed (inputs, params, config) regardless of thread count. The attention
    output dimension must equal the input feature dimension so the residual
    mix is well-defined.
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise InputError("features must be a 2-d matrix")
    if params.output_dim != feats.shape[1] and feats.shape[0] > 0:
        raise InputError(
            f"attention output dim {params.output_dim} must equal feature dim "
            f"{feats.shape[1]} for the residual mix"
        )
    timings_ms: dict[str, float] = {}
    with _timed(timings_ms, "graph"):
        g = build_graph(boxes, feats, config.iou_thr)
    m, edge_count = g.num_nodes, g.num_edges
    with _timed(timings_ms, "pool"):
        if use_gcpool:
            labeling, coarse = gcpool(
                g, min_size=config.min_size, stop_ncut=config.stop_ncut, min_part=config.min_part
            )
            augmented = augment_with_coarse(g, labeling.labels, coarse)
            # Attention reads only the augmented copy; holding both edge
            # lists through it would add the graph's size to the peak.
            del g
        else:
            labeling = PseudoLabeling(labels=np.empty(0, dtype=np.int64), part_count=0,
                                      component_count=connected_components(g).count,
                                      solves=SolveCounts())
            augmented = g
    degrees = AttentionDegrees()
    with _timed(timings_ms, "attend"):
        if m == 0:
            refined = np.zeros((0, feats.shape[1]), dtype=np.float64)
        else:
            refined_all = multi_head_attend(
                augmented.features,
                params,
                augmented,
                iou_bias=config.iou_bias,
                degrees=degrees,
            )
            refined = refined_all[:m]
            k = _first_non_finite_row(refined)
            if k is not None:
                raise NumericalError(f"attention: output row {k} is not finite")
    with _timed(timings_ms, "normalize"):
        output = identical_normalize(
            refined,
            feats,
            lambda_=config.lambda_,
            epsilon=config.epsilon,
            mode=config.norm_mode,
            per_channel=config.per_channel,
        )
    diagnostics = PipelineDiagnostics(
        node_count=m, edge_count=edge_count, labeling=labeling, attention=degrees,
        timings_ms=timings_ms,
    )
    return RefinedProposals(features=output, diagnostics=diagnostics)
