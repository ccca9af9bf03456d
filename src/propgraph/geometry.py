"""Axis-aligned bounding-box arithmetic in normalized image coordinates.

All boxes live in the unit square as fractions of image width/height;
pixel-space inputs are converted once at ingestion (see ``propgraph.io``).
The pipeline carries boxes as (M, 4) float64 arrays of (x1, y1, x2, y2) rows;
``BoundingBox`` and ``iou`` are the scalar reference the tests hold them to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

# Smallest box extent the aspect-ratio division accepts (float64 epsilon).
_MIN_EXTENT = 2.220446049250313e-16


@dataclass(frozen=True)
class BoundingBox:
    """Corner-format box: (x1, y1) top-left, (x2, y2) bottom-right, in [0, 1]."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        for name in ("x1", "y1", "x2", "y2"):
            try:
                object.__setattr__(self, name, float(getattr(self, name)))
            except (TypeError, ValueError) as exc:
                raise InputError(f"box coordinate {name} must be a real number") from exc
        coords = (self.x1, self.y1, self.x2, self.y2)
        if not all(math.isfinite(c) for c in coords):
            raise InputError(f"box coordinates must be finite, got {coords}")
        if min(coords) < 0.0 or max(coords) > 1.0:
            raise InputError(f"box {coords} lies outside the unit square")
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            raise InputError(f"degenerate box {coords}: requires x1 < x2 and y1 < y2")

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes.

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


def first_invalid_box(boxes: np.ndarray, extent: float | np.ndarray = 1.0) -> int | None:
    """Index of the first row of ``boxes`` that breaks ``BoundingBox``'s rules, or None.

    A row must be finite with 0 <= x1 < x2 <= w and 0 <= y1 < y2 <= h, where
    ``extent`` is (w, h, w, h); the default is the unit square.
    """
    # NaN fails every comparison, so a non-finite corner breaks the rules too.
    valid = ((boxes >= 0.0) & (boxes <= extent)).all(axis=1)
    valid &= (boxes[:, :2] < boxes[:, 2:]).all(axis=1)
    return None if valid.all() else int(np.argmin(valid))


def first_flat_box(boxes: np.ndarray) -> int | None:
    """Index of the first (x1, y1, x2, y2) row too flat for ``spatial_descriptor``, or None."""
    flat = np.flatnonzero(boxes[:, 3] - boxes[:, 1] <= _MIN_EXTENT)
    return int(flat[0]) if flat.size else None


def spatial_descriptor(boxes: np.ndarray) -> np.ndarray:
    """(M, 7) rows (x1, y1, x2, y2, cx, cy, aspect) of (M, 4) boxes; a fallback node feature."""
    x1, y1, x2, y2 = boxes.T
    height = y2 - y1
    k = first_flat_box(boxes)
    if k is not None:
        raise InputError(f"boxes[{k}]: height {float(height[k])!r} too small for an aspect ratio")
    return np.stack([x1, y1, x2, y2, (x1 + x2) / 2.0, (y1 + y2) / 2.0, (x2 - x1) / height], axis=1)
