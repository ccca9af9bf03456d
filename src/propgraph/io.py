"""File formats and deterministic JSON serialization.

Every interchange file is UTF-8 JSON. Serialization is canonical: fixed key
order, floats printed with 17 significant digits (lossless round-trip), and
atomic writes (temp file + rename) so a failed run never leaves a partial
output behind.

Each float's text is exactly format(x, ".17g"). Float arrays are formatted
whole, about 8k floats per numpy pass: finite |x| in [1e-4, 1e16) get their
17 digits from an exact Dekker two-product, and every other element
(zeros, subnormals, values outside the range, a case the exactness check
cannot settle) goes through format() itself. The proposal loader checks
types with one scan per field and builds boxes and features with one
np.array call each, walking proposals one by one only to name a bad one.

Formats:
  proposals  {"image_id", "width", "height", "proposals":
              [{"box": [x1,y1,x2,y2] pixels, "feature": [...]?, "score": f?}]}
  graph      {"nodes": M, "node_ids": [...], "edges": [[i, j, w], ...]}
             (edges name nodes by index; only the reader returns the ids)
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
from itertools import chain, repeat
from typing import Any, Iterable, Iterator, Optional

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

class _Raw(bytes):
    """Canonical JSON text, already encoded; ``_encode`` copies it as is."""


def _encode(value: Any, parts: list[bytes]) -> None:
    if isinstance(value, _Raw):
        parts.append(value)
    elif value is None:
        parts.append(b"null")
    elif isinstance(value, (bool, np.bool_)):
        parts.append(b"true" if value else b"false")
    elif isinstance(value, (int, np.integer)):
        parts.append(str(int(value)).encode("ascii"))
    elif isinstance(value, (float, np.floating)):
        number = float(value)
        if not math.isfinite(number):
            raise InputError("cannot serialize a non-finite number")
        parts.append(format(number, ".17g").encode("ascii"))
    elif isinstance(value, str):
        parts.append(json.dumps(value, ensure_ascii=False).encode("utf-8"))
    elif isinstance(value, dict):
        parts.append(b"{")
        for k, item in enumerate(value.items()):
            if k:
                parts.append(b",")
            parts.append(json.dumps(str(item[0]), ensure_ascii=False).encode("utf-8"))
            parts.append(b":")
            _encode(item[1], parts)
        parts.append(b"}")
    elif isinstance(value, (list, tuple)) and value and set(map(type, value)) == {int}:
        # Ids and members: one C-level join instead of one call per int.
        parts.append(("[" + ",".join(map(str, value)) + "]").encode("ascii"))
    elif isinstance(value, (list, tuple)):
        parts.append(b"[")
        for k, item in enumerate(value):
            if k:
                parts.append(b",")
            _encode(item, parts)
        parts.append(b"]")
    elif isinstance(value, np.ndarray) and value.dtype == np.float64 and value.ndim in (1, 2):
        if value.ndim == 1:
            parts.extend(_row_chunks(value.reshape(1, -1), b","))
        else:
            parts.append(b"[")
            parts.extend(_row_chunks(value, b","))
            parts.append(b"]")
    elif isinstance(value, np.ndarray):
        _encode(value.tolist(), parts)
    else:
        raise InputError(f"cannot serialize value of type {type(value).__name__}")


# Whole-array float formatting. Each float gets a record of six uint64
# words whose bytes, once the NUL bytes are dropped, are its separator and
# exactly format(x, ".17g"). For finite |x| in [1e-4, 1e16) that text is
# fixed-point: the 17 correctly rounded digits N of |x| with the decimal
# point after digit E = floor(log10|x|) (or "0." and -E-1 zeros before
# them), trailing fraction zeros dropped. N is computed exactly: the Dekker
# (1971) two-product gives |x| * 10**(16 - E) as hi + lo with no rounding
# error (10**q is exact for q <= 22), hi >= 2**53 is an even integer, so
# hi + rint(lo) rounds half to even like the correctly rounded dtoa that
# format() uses. A record is used only when 10**16 <= hi + lo and
# N < 10**17, which also certifies E; every other value (zeros,
# subnormals, values outside the range, an E that log10 missed, a carry to
# 10**17) is formatted by format() itself.
#
# A record is two copies of the same 24 digit bytes (seven 0xff pad bytes,
# then the 17 digits), ANDed with one mask chosen by (E, sign, last
# significant digit). The first copy keeps the integer digits, the second
# the fraction digits; the masks' pad bytes spell the sign, the "0.000"
# prefix and the decimal point. The record's first byte is the separator.

# Floats per formatter pass: a 2.4 MB tracemalloc peak at any array size.
_CHUNK = 8192
_POW10 = 10.0 ** np.arange(23)
# Veltkamp's splitter for float64: 2**27 + 1.
_SPLIT = 134217729.0
# "%04d" of 0..9999 as uint32 words, whose little-endian bytes are the text.
_DIGIT_WORDS = np.frombuffer(b"".join(b"%04d" % k for k in range(10000)), dtype="<u4")
_TOP_WORDS = np.frombuffer(b"".join(b"\xff\xff\xff%d" % k for k in range(10)), dtype="<u4")
_TRAILING_ZEROS = np.array([4] + [len(s) - len(s.rstrip("0")) for s in
                                  ("%04d" % k for k in range(1, 10000))], dtype=np.int64)


def _digit_mask(pad: bytes, first: int, last: int) -> bytes:
    """24 mask bytes keeping digits first..last, with ``pad`` right before them."""
    return pad.rjust(7, b"\0") + bytes(255 if first <= j <= last else 0 for j in range(17))


_MASKS = np.frombuffer(b"".join(
    _digit_mask(b"-" * negative + (b"0.000"[:1 - e] if e < 0 else b""), 0, e)
    + _digit_mask(b"." if last > e >= 0 else b"", max(e + 1, 0), last)
    for e in range(-4, 16) for negative in (0, 1) for last in range(17)
), dtype="<u8").reshape(-1, 6)


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's exact product: hi = fl(a * b) and hi + lo == a * b."""
    hi = a * b
    t = _SPLIT * a
    a_hi = t - (t - a)
    a_lo = a - a_hi
    t = _SPLIT * b
    b_hi = t - (t - b)
    b_lo = b - b_hi
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _fill_records(block: np.ndarray, records: np.ndarray) -> None:
    """Write the ".17g" text of each finite float of a 2-d block into its 6-word record."""
    values = block.ravel()
    magnitude = np.abs(values)
    fast = (magnitude >= 1e-4) & (magnitude < 1e16)
    magnitude = np.where(fast, magnitude, 1.0)
    exponent = np.clip(np.floor(np.log10(magnitude)).astype(np.int64), -4, 15)
    hi, lo = _two_product(magnitude, _POW10[16 - exponent])
    exact = fast & ((hi > 1e16) | ((hi == 1e16) & (lo >= 0)))
    n = np.where(exact, hi, 1e16).astype(np.int64) + np.rint(lo).astype(np.int64)
    # No float64 carries here (the largest double below each power of ten
    # scales to at most 10**17 - 8), but the digits must not rest on that.
    exact &= n < 10**17
    n = np.where(exact, n, 10**16)
    # Digit groups of four, least significant last; n ends as the top digit.
    groups = np.empty((values.size, 4), dtype=np.int64)
    for g in (3, 2, 1, 0):
        quotient = n // 10000
        groups[:, g] = n - 10000 * quotient
        n = quotient
    digits = np.empty((values.size, 6), dtype="<u4")
    digits[:, 0] = 0xFFFFFFFF
    digits[:, 1] = _TOP_WORDS[n]
    digits[:, 2:] = _DIGIT_WORDS[groups]
    zeros = _TRAILING_ZEROS[groups[:, 3]]
    for g in (2, 1, 0):
        zeros = np.where(zeros == 4 * (3 - g), zeros + _TRAILING_ZEROS[groups[:, g]], zeros)
    key = (2 * (exponent + 4) + (values < 0)) * 17 + 16 - zeros
    np.bitwise_and(digits.view("<u8").reshape(block.shape + (1, 3)),
                   np.take(_MASKS, key, axis=0).reshape(block.shape + (2, 3)),
                   out=records.reshape(block.shape + (2, 3)))
    slow = np.flatnonzero(~exact)
    if slow.size:
        texts = [format(v, ".17g").encode("ascii").ljust(24, b"\0")
                 for v in values[slow].tolist()]
        row, column = np.divmod(slow, block.shape[1])
        text = records.view(np.uint8)
        text[row, column, 1:25] = np.frombuffer(b"".join(texts), dtype=np.uint8).reshape(-1, 24)
        text[row, column, 25:] = 0


def _row_chunks(rows: np.ndarray, row_sep: bytes) -> Iterator[bytes]:
    """The text "[a,b,...]" of each row of a 2-d float64 array, joined by ``row_sep``.

    Yields it in pieces of about ``_CHUNK`` floats; the same characters as
    formatting each element with format(x, ".17g").
    """
    if not np.all(np.isfinite(rows)):
        raise InputError("cannot serialize a non-finite number")
    count, width = rows.shape
    if count == 0:
        return
    if width == 0:
        yield row_sep.join([b"[]"] * count)
        return
    # Each row is a lead word ("[" or "]" + row_sep + "[") and its records.
    next_row, first_row = np.frombuffer(
        (b"]" + row_sep + b"[").ljust(8, b"\0") + b"[".ljust(8, b"\0"), dtype="<u8")
    step = max(1, _CHUNK // width)
    for start in range(0, count, step):
        block = rows[start:start + step]
        line = np.empty((block.shape[0], 1 + 6 * width), dtype="<u8")
        line[:, 0] = next_row
        if start == 0:
            line[0, 0] = first_row
        records = line[:, 1:].reshape(block.shape + (6,))
        _fill_records(block, records)
        records.view(np.uint8)[:, 1:, 0] = ord(",")
        text = line.view(np.uint8).ravel()
        yield text[text != 0].tobytes()
    yield b"]"


def _float_rows(matrix: np.ndarray) -> list[bytes]:
    """Each row's canonical text "[a,b,...]", from one formatter pass over the matrix."""
    if matrix.shape[0] == 0:
        return []
    return b"".join(_row_chunks(matrix, b"\n")).split(b"\n")


def _canonical_bytes(value: Any, end: bytes = b"") -> bytes:
    parts: list[bytes] = []
    _encode(value, parts)
    parts.append(end)
    return b"".join(parts)


def dumps_canonical(value: Any) -> str:
    """Serialize to canonical JSON text (17-significant-digit floats)."""
    return _canonical_bytes(value).decode("utf-8")


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write via a temp file in the same directory, then rename into place."""
    directory = os.path.dirname(os.path.abspath(path))
    handle, temp_path = tempfile.mkstemp(prefix=".tmp-", dir=directory)
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(data)
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise


def write_json(path: str, value: Any) -> str:
    """Atomically write canonical JSON; returns the SHA-256 digest of the bytes."""
    data = _canonical_bytes(value, b"\n")
    atomic_write_bytes(path, data)
    return hashlib.sha256(data).hexdigest()


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
    except RecursionError as exc:
        raise InputError(f"{path}: JSON nested too deeply") from exc
    except ValueError as exc:  # an integer literal past the int conversion limit
        raise InputError(f"{path}: JSON number too long to convert") from exc


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


def _all_numbers(values: Iterable) -> bool:
    return set(map(type, values)) <= _NUMBER_TYPES


def _numbers(values: list, where: str) -> list[float]:
    """JSON numbers (ints or floats, not bools) as floats; anything else is an InputError."""
    if not _all_numbers(values):
        bad = next(v for v in values if type(v) not in _NUMBER_TYPES)
        raise InputError(f"{where} must hold numbers, got {bad!r}")
    try:
        return [float(v) for v in values]
    except OverflowError as exc:
        raise InputError(f"{where}: number out of range") from exc


def _proposal_columns(raw: list) -> Optional[tuple]:
    """(boxes, features, scores) with one C-level scan per field and one array each.

    None when some proposal breaks a rule or holds an int beyond the float
    range; ``_walk_proposals`` then finds the first such proposal.
    """
    if not set(map(type, raw)) <= {dict}:
        return None
    boxes = list(map(dict.get, raw, repeat("box")))
    if not (set(map(type, boxes)) <= {list} and set(map(len, boxes)) <= {4}
            and _all_numbers(chain.from_iterable(boxes))):
        return None
    features: Optional[list] = list(map(dict.get, raw, repeat("feature")))
    kinds = set(map(type, features))
    if kinds <= {type(None)}:
        features = None
    elif not (kinds == {list} and len(set(map(len, features))) == 1
              and _all_numbers(chain.from_iterable(features))):
        return None
    scores = list(map(dict.get, raw, repeat("score")))
    if not set(map(type, scores)) <= _NUMBER_TYPES | {type(None)}:
        return None
    try:
        return (np.array(boxes, dtype=np.float64).reshape(-1, 4),
                None if features is None else np.array(features, dtype=np.float64),
                [None if s is None else float(s) for s in scores])
    except OverflowError:
        return None


def _walk_proposals(raw: list, source: str) -> tuple:
    """``_proposal_columns`` one proposal at a time; errors name the proposal and field."""
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
    return (np.array(boxes, dtype=np.float64).reshape(-1, 4),
            np.array(features, dtype=np.float64) if features is not None else None,
            scores)


def document_from_dict(data: Any, source: str = "<proposals>") -> ProposalDocument:
    _require(isinstance(data, dict), f"{source}: top level must be an object")
    for key in ("image_id", "width", "height", "proposals"):
        _require(key in data, f"{source}: missing field {key!r}")
    width, height = data["width"], data["height"]
    _require(type(width) is int and type(height) is int, f"{source}: width/height must be integers")
    raw = data["proposals"]
    _require(isinstance(raw, list), f"{source}: proposals must be a list")
    boxes, features, scores = _proposal_columns(raw) or _walk_proposals(raw, source)
    try:
        return ProposalDocument(
            image_id=str(data["image_id"]),
            width=width,
            height=height,
            pixel_boxes=boxes,
            features=features,
            scores=tuple(scores) if any(s is not None for s in scores) else None,
        )
    except InputError as exc:
        raise InputError(f"{source}: {exc}") from exc


def load_proposals(path: str) -> ProposalDocument:
    """Parse and validate a proposal dump; errors carry file and field context."""
    return document_from_dict(read_json(path), source=path)


def save_proposals(document: ProposalDocument, path: str) -> str:
    """Write ``document.to_dict()``'s bytes, formatting boxes and features one matrix each."""
    count = document.num_proposals
    boxes = _float_rows(document.pixel_boxes)
    features = [None] * count if document.features is None else _float_rows(document.features)
    scores = [None] * count if document.scores is None else document.scores
    proposals = []
    for box, feature, score in zip(boxes, features, scores):
        entry = [b'{"box":', box]
        if feature is not None:
            entry += [b',"feature":', feature]
        if score is not None:
            entry += [b',"score":']
            _encode(score, entry)
        entry.append(b"}")
        proposals.append(_Raw(b"".join(entry)))
    return write_json(path, {
        "image_id": document.image_id,
        "width": document.width,
        "height": document.height,
        "proposals": proposals,
    })


# ----------------------------------------------------------------------
# Graph / partition / feature / parameter files
# ----------------------------------------------------------------------

def graph_to_dict(g: ProposalGraph) -> dict:
    return {
        "nodes": g.num_nodes,
        "node_ids": list(range(g.num_nodes)),
        "edges": [[int(i), int(j), float(w)] for (i, j), w in zip(g.edge_index, g.edge_weight)],
    }


def graph_from_dict(data: Any, source: str = "<graph>") -> tuple[ProposalGraph, np.ndarray]:
    """The graph of a graph file and, beside it, the file's int64 id of each node."""
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
    ids = np.array(node_ids, dtype=np.int64)
    _require(np.unique(ids).size == nodes, f"{source}: node ids must be unique")
    try:
        edge_index = np.array([edge[:2] for edge in edges], dtype=np.int64).reshape(-1, 2)
        edge_weight = np.array([edge[2] for edge in edges], dtype=np.float64)
        return ProposalGraph(
            features=np.zeros((nodes, 0), dtype=np.float64),
            edge_index=edge_index,
            edge_weight=edge_weight,
        ), ids
    except InputError as exc:
        raise InputError(f"{source}: {exc}") from exc


def save_graph(g: ProposalGraph, path: str) -> str:
    """Write ``graph_to_dict(g)``'s bytes, formatting the edges as one (E, 3) float matrix.

    Node indices are integers far below 2**53, whose ".17g" text is their
    int text.
    """
    edges = np.column_stack([g.edge_index.astype(np.float64), g.edge_weight])
    return write_json(path, {"nodes": g.num_nodes, "node_ids": list(range(g.num_nodes)),
                             "edges": edges})


def load_graph(path: str) -> tuple[ProposalGraph, np.ndarray]:
    """``graph_from_dict`` of the file at ``path``: the graph and its node ids."""
    return graph_from_dict(read_json(path), source=path)


def partition_to_dict(labeling: PseudoLabeling, coarse: list[CoarseNode]) -> dict:
    """The partition file's value; coarse features are preformatted, one matrix pass."""
    features = _float_rows(np.array([node.feature for node in coarse], dtype=np.float64)) \
        if coarse else []
    return {
        "labels": list(labeling.labels),
        "coarse": [
            {"feature": _Raw(feature), "members": node.members.tolist()}
            for node, feature in zip(coarse, features)
        ],
    }


def save_features(features: np.ndarray, path: str) -> str:
    """Write a features file whose ids number the rows 0..M-1."""
    features = np.asarray(features)
    return write_json(path, {"ids": list(range(features.shape[0])), "features": features})


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

