"""Axis-aligned bounding-box checks and descriptors in normalized image coordinates.

All boxes live in the unit square as fractions of image width/height;
pixel-space inputs are converted once at ingestion (see ``propgraph.io``).
The pipeline carries boxes as (M, 4) float64 arrays of (x1, y1, x2, y2) rows
and checks them with ``first_invalid_box``; the IoU weights themselves are
computed in ``graph.build_graph``.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

# Smallest box extent the aspect-ratio division accepts (float64 epsilon).
_MIN_EXTENT = 2.220446049250313e-16


def first_invalid_box(boxes: np.ndarray, extent: float | np.ndarray = 1.0) -> int | None:
    """Index of the first invalid (x1, y1, x2, y2) row of ``boxes``, or None.

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
