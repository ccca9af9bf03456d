"""File formats and deterministic JSON serialization.

Every interchange file is UTF-8 JSON. Serialization is canonical: fixed key
order, floats printed with 17 significant digits (lossless round-trip), and
atomic writes (temp file + rename) so a failed run never leaves a partial
output behind.

Formats:
  proposals  {"image_id", "width", "height", "proposals":
              [{"box": [x1,y1,x2,y2] pixels, "feature": [...]?, "score": f?}]}
  graph      {"nodes": M, "node_ids": [...], "edges": [[i, j, w], ...]}
  partition  {"labels": [int|null, ...], "coarse":
              [{"feature": [...], "members": [...]}]}
  features   {"ids": [...], "features": [[...], ...]}
  params     {"head_count", "score_weights", "score_bias", "output_projection"}
  config     PipelineConfig fields ("lambda_" spelled "lambda")
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from .attention import AttentionParams
from .config import PipelineConfig
from .errors import InputError
from .geometry import first_flat_box, first_invalid_box, spatial_descriptor
from .graph import ProposalGraph
from .pooling import CoarseNode, PseudoLabeling


# ----------------------------------------------------------------------
# Canonical JSON
# ----------------------------------------------------------------------

def _encode(value: Any, parts: list[str]) -> None:
    if value is None:
        parts.append("null")
    elif isinstance(value, (bool, np.bool_)):
        parts.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        parts.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        number = float(value)
        if not math.isfinite(number):
            raise InputError("cannot serialize a non-finite number")
        parts.append(format(number, ".17g"))
    elif isinstance(value, str):
        parts.append(json.dumps(value, ensure_ascii=False))
    elif isinstance(value, dict):
        parts.append("{")
        for k, item in enumerate(value.items()):
            if k:
                parts.append(",")
            parts.append(json.dumps(str(item[0]), ensure_ascii=False))
            parts.append(":")
            _encode(item[1], parts)
        parts.append("}")
    elif isinstance(value, (list, tuple)):
        parts.append("[")
        for k, item in enumerate(value):
            if k:
                parts.append(",")
            _encode(item, parts)
        parts.append("]")
    elif isinstance(value, np.ndarray) and value.dtype == np.float64 and value.ndim in (1, 2):
        _encode_floats(value, parts)
    elif isinstance(value, np.ndarray):
        _encode(value.tolist(), parts)
    else:
        raise InputError(f"cannot serialize value of type {type(value).__name__}")


def _encode_floats(array: np.ndarray, parts: list[str]) -> None:
    """A 1-d or 2-d float64 array, one %-format per 64 rows; same text as the scalar path."""
    if not np.all(np.isfinite(array)):
        raise InputError("cannot serialize a non-finite number")
    rows = array.reshape(1, -1) if array.ndim == 1 else array
    row = "[" + ",".join(["%.17g"] * rows.shape[1]) + "]"
    # Blocks of 64 rows: one string per row, or one for the whole array,
    # left freed strings in the malloc heap that raised the process's peak
    # RSS by 1.5-2 MB after writing 2000x64 and 5000x64 arrays.
    blocks = []
    for start in range(0, rows.shape[0], 64):
        block = rows[start:start + 64]
        blocks.append(",".join([row] * block.shape[0]) % tuple(block.ravel().tolist()))
    text = ",".join(blocks)
    parts.append(text if array.ndim == 1 else "[" + text + "]")


def dumps_canonical(value: Any) -> str:
    """Serialize to canonical JSON text (17-significant-digit floats)."""
    parts: list[str] = []
    _encode(value, parts)
    return "".join(parts)


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then rename into place."""
    directory = os.path.dirname(os.path.abspath(path))
    handle, temp_path = tempfile.mkstemp(prefix=".tmp-", dir=directory)
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            stream.write(text)
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise


def write_json(path: str, value: Any) -> str:
    """Atomically write canonical JSON; returns the SHA-256 digest of the bytes."""
    text = dumps_canonical(value) + "\n"
    atomic_write_text(path, text)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def read_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as stream:
            return json.load(stream)
    except FileNotFoundError as exc:
        raise InputError(f"{path}: file not found") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: byte {exc.start}: {exc.reason}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


# ----------------------------------------------------------------------
# Proposal documents
# ----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ProposalDocument:
    """One image's proposals: pixel boxes plus optional features and scores."""

    image_id: str
    width: int
    height: int
    pixel_boxes: np.ndarray = field(default_factory=lambda: np.zeros((0, 4)))
    features: Optional[np.ndarray] = None
    scores: Optional[tuple] = None

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise InputError("image width and height must be positive")
        # Python compares ints and floats exactly; numpy float64 against an
        # int beyond the float range raises OverflowError instead.
        if max(self.width, self.height) > sys.float_info.max:
            raise InputError("image width and height must fit in a float")
        boxes = np.asarray(self.pixel_boxes, dtype=np.float64).reshape(-1, 4)
        scale = np.array([self.width, self.height, self.width, self.height], dtype=np.float64)
        k = first_invalid_box(boxes, scale)
        if k is not None:
            raise InputError(
                f"proposals[{k}].box: expected finite 0 <= x1 < x2 <= width and "
                f"0 <= y1 < y2 <= height, got {boxes[k].tolist()}"
            )
        normalized = boxes / scale
        k = first_invalid_box(normalized)
        if k is not None:
            raise InputError(
                f"proposals[{k}].box: {boxes[k].tolist()} has x1 == x2 or y1 == y2 once "
                f"divided by the image size {self.width}x{self.height}"
            )
        features = self.features
        if features is None:
            # feature_matrix() will stand the spatial descriptor in for the
            # features; name the box here, where the file and field are known.
            k = first_flat_box(normalized)
            if k is not None:
                raise InputError(
                    f"proposals[{k}].box: {boxes[k].tolist()} is too flat once divided by "
                    f"the image height {self.height} for the aspect ratio of the spatial "
                    f"descriptor that stands in for the missing features"
                )
        else:
            features = np.asarray(features, dtype=np.float64)
            if features.ndim != 2 or features.shape[0] != boxes.shape[0]:
                raise InputError("features must be one row per proposal")
            finite = np.isfinite(features).all(axis=1)
            if not finite.all():
                raise InputError(f"proposals[{int(np.argmin(finite))}].feature: must be finite")
        scores = self.scores
        if scores is not None:
            scores = tuple(None if s is None else float(s) for s in scores)
            if len(scores) != boxes.shape[0]:
                raise InputError("scores must align with proposals")
            for k, s in enumerate(scores):
                if s is not None and not (math.isfinite(s) and 0.0 <= s <= 1.0):
                    raise InputError(f"proposals[{k}].score: must lie in [0, 1]")
        object.__setattr__(self, "pixel_boxes", boxes)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "scores", scores)

    @property
    def num_proposals(self) -> int:
        return self.pixel_boxes.shape[0]

    def normalized_boxes(self) -> np.ndarray:
        """(M, 4) pixel boxes divided by (width, height, width, height), in the unit square."""
        return self.pixel_boxes / np.array(
            [self.width, self.height, self.width, self.height], dtype=np.float64
        )

    def feature_matrix(self) -> np.ndarray:
        """Stored features, or the 7-dim spatial descriptor when absent."""
        if self.features is not None:
            return self.features
        return spatial_descriptor(self.normalized_boxes())

    def to_dict(self) -> dict:
        proposals = []
        for k in range(self.num_proposals):
            entry: dict[str, Any] = {"box": self.pixel_boxes[k]}
            if self.features is not None:
                entry["feature"] = self.features[k]
            if self.scores is not None and self.scores[k] is not None:
                entry["score"] = self.scores[k]
            proposals.append(entry)
        return {
            "image_id": self.image_id,
            "width": self.width,
            "height": self.height,
            "proposals": proposals,
        }


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InputError(message)


# Types json.load gives JSON numbers; bool is an int subclass but not a number.
_NUMBER_TYPES = {int, float}


def _numbers(values: list, where: str) -> list[float]:
    """JSON numbers (ints or floats, not bools) as floats; anything else is an InputError."""
    if not set(map(type, values)) <= _NUMBER_TYPES:
        bad = next(v for v in values if type(v) not in _NUMBER_TYPES)
        raise InputError(f"{where} must hold numbers, got {bad!r}")
    try:
        return [float(v) for v in values]
    except OverflowError as exc:
        raise InputError(f"{where}: number out of range") from exc


def document_from_dict(data: Any, source: str = "<proposals>") -> ProposalDocument:
    _require(isinstance(data, dict), f"{source}: top level must be an object")
    for key in ("image_id", "width", "height", "proposals"):
        _require(key in data, f"{source}: missing field {key!r}")
    width, height = data["width"], data["height"]
    _require(type(width) is int and type(height) is int, f"{source}: width/height must be integers")
    raw = data["proposals"]
    _require(isinstance(raw, list), f"{source}: proposals must be a list")
    boxes = []
    features: list | None = None
    scores = []
    feature_dim: int | None = None
    for k, item in enumerate(raw):
        where = f"{source}: proposals[{k}]"
        _require(isinstance(item, dict), f"{where} must be an object")
        box = item.get("box")
        _require(isinstance(box, list) and len(box) == 4, f"{where}.box must be [x1, y1, x2, y2]")
        boxes.append(_numbers(box, f"{where}.box"))
        feature = item.get("feature")
        if feature is not None:
            _require(isinstance(feature, list), f"{where}.feature must be a list")
            if features is None:
                if k > 0:
                    raise InputError(f"{where}.feature: earlier proposals had no feature")
                features = []
                feature_dim = len(feature)
            elif len(feature) != feature_dim:
                raise InputError(
                    f"{where}.feature: dimension {len(feature)} != {feature_dim}"
                )
            features.append(_numbers(feature, f"{where}.feature"))
        elif features is not None:
            raise InputError(f"{where}: missing feature while other proposals have one")
        score = item.get("score")
        scores.append(None if score is None else _numbers([score], f"{where}.score")[0])
    try:
        return ProposalDocument(
            image_id=str(data["image_id"]),
            width=width,
            height=height,
            pixel_boxes=np.array(boxes, dtype=np.float64).reshape(-1, 4),
            features=np.array(features, dtype=np.float64) if features is not None else None,
            scores=tuple(scores) if any(s is not None for s in scores) else None,
        )
    except InputError as exc:
        raise InputError(f"{source}: {exc}") from exc


def load_proposals(path: str) -> ProposalDocument:
    """Parse and validate a proposal dump; errors carry file and field context."""
    return document_from_dict(read_json(path), source=path)


def save_proposals(document: ProposalDocument, path: str) -> str:
    return write_json(path, document.to_dict())


# ----------------------------------------------------------------------
# Graph / partition / feature / parameter files
# ----------------------------------------------------------------------

def graph_to_dict(g: ProposalGraph) -> dict:
    return {
        "nodes": g.num_nodes,
        "node_ids": [int(n) for n in g.node_ids],
        "edges": [[int(i), int(j), float(w)] for (i, j), w in zip(g.edge_index, g.edge_weight)],
    }


def graph_from_dict(data: Any, source: str = "<graph>") -> ProposalGraph:
    _require(isinstance(data, dict), f"{source}: top level must be an object")
    for key in ("nodes", "node_ids", "edges"):
        _require(key in data, f"{source}: missing field {key!r}")
    nodes = data["nodes"]
    _require(type(nodes) is int and nodes >= 0, f"{source}: nodes must be a non-negative int")
    node_ids = data["node_ids"]
    _require(isinstance(node_ids, list) and len(node_ids) == nodes,
             f"{source}: node_ids must list {nodes} ids")
    for k, node_id in enumerate(node_ids):
        if not (type(node_id) is int and -2**63 <= node_id < 2**63):
            raise InputError(f"{source}: node_ids[{k}] must be a 64-bit integer, got {node_id!r}")
    edges = data["edges"]
    _require(isinstance(edges, list), f"{source}: edges must be a list")
    for k, edge in enumerate(edges):
        if not (isinstance(edge, list) and len(edge) == 3):
            raise InputError(f"{source}: edges[{k}] must be [i, j, w]")
        i, j, w = edge
        if not (type(i) is int and type(j) is int and 0 <= min(i, j) and max(i, j) < nodes):
            raise InputError(f"{source}: edges[{k}]: endpoints must be node indices "
                             f"in [0, {nodes}), got {[i, j]!r}")
        if type(w) not in _NUMBER_TYPES or abs(w) > sys.float_info.max:
            raise InputError(f"{source}: edges[{k}] weight must be a finite number, got {w!r}")
    try:
        edge_index = np.array([edge[:2] for edge in edges], dtype=np.int64).reshape(-1, 2)
        edge_weight = np.array([edge[2] for edge in edges], dtype=np.float64)
        return ProposalGraph(
            features=np.zeros((nodes, 0), dtype=np.float64),
            edge_index=edge_index,
            edge_weight=edge_weight,
            node_ids=np.array(node_ids, dtype=np.int64),
        )
    except InputError as exc:
        raise InputError(f"{source}: {exc}") from exc


def save_graph(g: ProposalGraph, path: str) -> str:
    return write_json(path, graph_to_dict(g))


def load_graph(path: str) -> ProposalGraph:
    return graph_from_dict(read_json(path), source=path)


def partition_to_dict(labeling: PseudoLabeling, coarse: list[CoarseNode]) -> dict:
    return {
        "labels": list(labeling.labels),
        "coarse": [
            {"feature": node.feature, "members": list(node.member_ids)}
            for node in coarse
        ],
    }


def features_to_dict(ids: tuple[int, ...], features: np.ndarray) -> dict:
    return {"ids": list(ids), "features": np.asarray(features)}


def save_features(ids: tuple[int, ...], features: np.ndarray, path: str) -> str:
    return write_json(path, features_to_dict(ids, features))


def params_to_dict(params: AttentionParams) -> dict:
    return {
        "head_count": params.head_count,
        "score_weights": params.score_weights,
        "score_bias": params.score_bias,
        "output_projection": params.output_projection,
    }


def _number_rows(value: Any, where: str) -> list[list[float]]:
    """A JSON list of lists of numbers, checked row by row with ``_numbers``."""
    _require(isinstance(value, list), f"{where} must be a list of rows")
    rows = []
    for k, row in enumerate(value):
        _require(isinstance(row, list) and len(row) == len(value[0]),
                 f"{where}[{k}] must be a list as long as row 0")
        rows.append(_numbers(row, f"{where}[{k}]"))
    return rows


def params_from_dict(data: Any, source: str = "<params>") -> AttentionParams:
    _require(isinstance(data, dict), f"{source}: top level must be an object")
    for key in ("score_weights", "score_bias"):
        _require(key in data, f"{source}: missing field {key!r}")
    declared = data.get("head_count")
    _require(declared is None or type(declared) is int,
             f"{source}: head_count must be an integer, got {declared!r}")
    weights = _number_rows(data["score_weights"], f"{source}: score_weights")
    _require(isinstance(data["score_bias"], list), f"{source}: score_bias must be a list")
    bias = _numbers(data["score_bias"], f"{source}: score_bias")
    projection = data.get("output_projection")
    if projection is not None:
        projection = _number_rows(projection, f"{source}: output_projection")
    try:
        params = AttentionParams(score_weights=weights, score_bias=bias,
                                 output_projection=projection)
    except InputError as exc:
        raise InputError(f"{source}: {exc}") from exc
    if declared is not None and declared != params.head_count:
        raise InputError(f"{source}: head_count {declared} != {params.head_count} weight rows")
    return params


def save_params(params: AttentionParams, path: str) -> str:
    return write_json(path, params_to_dict(params))


def load_params(path: str) -> AttentionParams:
    return params_from_dict(read_json(path), source=path)


def load_config(path: str) -> PipelineConfig:
    data = read_json(path)
    if not isinstance(data, dict):
        raise InputError(f"{path}: config must be a JSON object")
    try:
        return PipelineConfig.from_dict(data)
    except (InputError, TypeError) as exc:
        raise InputError(f"{path}: {exc}") from exc

