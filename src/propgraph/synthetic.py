"""Seeded synthetic proposal scenes.

Real proposal dumps come from a detector's region-proposal stage; for demos
and tests we fabricate them: anchor boxes sit in disjoint grid cells and
each cluster is a set of Gaussian-jittered copies of its anchor. Clusters
therefore overlap heavily internally and not at all across cells, which
gives scenes with a known component structure.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, check_float_count
from .io import ProposalDocument

# Fraction of a grid cell kept as margin so jittered boxes never leave it.
_CELL_MARGIN = 0.02


def generate_proposals(
    clusters: int,
    per_cluster: int,
    seed: int,
    image_width: int = 640,
    image_height: int = 480,
    feature_dim: int = 0,
    jitter: float = 0.02,
) -> ProposalDocument:
    """Build a synthetic scene of ``clusters`` disjoint proposal clusters.

    ``feature_dim`` = 0 omits features entirely (consumers fall back to the
    7-dim spatial descriptor); otherwise each cluster gets a Gaussian
    feature centroid and members scatter tightly around it.
    """
    if clusters < 1 or per_cluster < 1:
        raise InputError("clusters and per_cluster must be >= 1")
    if image_width < 2 or image_height < 2:
        raise InputError("image dimensions must be at least 2 pixels")
    if not 0.0 < jitter < 0.25:
        raise InputError(f"jitter must lie in (0, 0.25), got {jitter}")
    if feature_dim < 0:
        raise InputError(f"feature_dim must be >= 0, got {feature_dim}")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    check_float_count(clusters * per_cluster * (4 + feature_dim),
                      f"{clusters} clusters x {per_cluster} proposals x "
                      f"(4 box values + feature_dim {feature_dim})")
    rng = np.random.default_rng(seed)
    cols = math.ceil(math.sqrt(clusters))
    rows = math.ceil(clusters / cols)
    cell_w = image_width / cols
    cell_h = image_height / rows

    boxes = []
    features = [] if feature_dim > 0 else None
    scores = []
    for c in range(clusters):
        cell_x = (c % cols) * cell_w
        cell_y = (c // cols) * cell_h
        margin_x = _CELL_MARGIN * cell_w
        margin_y = _CELL_MARGIN * cell_h
        anchor_w = rng.uniform(0.35, 0.5) * cell_w
        anchor_h = rng.uniform(0.35, 0.5) * cell_h
        anchor_cx = cell_x + cell_w / 2.0 + rng.uniform(-0.05, 0.05) * cell_w
        anchor_cy = cell_y + cell_h / 2.0 + rng.uniform(-0.05, 0.05) * cell_h
        centroid = rng.normal(0.0, 1.0, size=feature_dim) if feature_dim > 0 else None
        for _ in range(per_cluster):
            cx = anchor_cx + rng.normal(0.0, jitter) * anchor_w
            cy = anchor_cy + rng.normal(0.0, jitter) * anchor_h
            w = anchor_w * math.exp(rng.normal(0.0, jitter))
            h = anchor_h * math.exp(rng.normal(0.0, jitter))
            x1 = max(cx - w / 2.0, cell_x + margin_x)
            y1 = max(cy - h / 2.0, cell_y + margin_y)
            x2 = min(cx + w / 2.0, cell_x + cell_w - margin_x)
            y2 = min(cy + h / 2.0, cell_y + cell_h - margin_y)
            boxes.append((x1, y1, x2, y2))
            scores.append(float(rng.uniform(0.05, 1.0)))
            if features is not None:
                features.append(centroid + rng.normal(0.0, 0.1, size=feature_dim))
    return ProposalDocument(
        image_id=f"synthetic-c{clusters}-n{per_cluster}-s{seed}",
        width=image_width,
        height=image_height,
        pixel_boxes=np.array(boxes, dtype=np.float64),
        features=np.array(features, dtype=np.float64) if features is not None else None,
        scores=tuple(scores),
    )
