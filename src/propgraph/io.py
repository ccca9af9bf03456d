"""File formats and deterministic JSON serialization.

Every interchange file is UTF-8 JSON. Serialization is canonical: fixed key
order, floats printed with 17 significant digits (lossless round-trip), and
atomic writes (temp file + rename) so a failed run never leaves a partial
output behind. A written file gets the mode open() would give it.

Each float's text is exactly format(x, ".17g"). Float arrays are formatted
whole, about 8k floats per numpy pass: finite |x| in [1e-4, 1e16) get their
17 digits from an exact Dekker two-product, and every other element
(zeros, subnormals, values outside the range, a case the exactness check
cannot settle) goes through format() itself.

A proposals file in the exact layout save_proposals writes (the header as
_encode writes it, each proposal with the first one's fields and feature
length) is read without json.load, in chunks of whole proposals: each byte
between numbers is checked against the layout and digits are parsed eight
to a 64-bit word. Each number is certified equal to float() of its text by
Clinger's exact case (below 2**53 over an exact 10**f) or by the exact
".17g" digits of the quotient or a neighbour one ulp away; others pass the
JSON grammar, then float(). json.load reads every other file; that loader
checks types with one scan per field and builds boxes and features with
one np.array call each, walking proposals one by one only to name a bad
one. Both routes give the same document or error.

Formats:
  proposals  {"image_id", "width", "height", "proposals":
              [{"box": [x1,y1,x2,y2] pixels, "feature": [...]?, "score": f?}]}
  graph      {"nodes": M, "node_ids": [...], "edges": [[i, j, w], ...]}
             (edges name nodes by index; only the reader returns the ids)
  partition  {"labels": [int|null, ...], "coarse":
              [{"feature": [...], "members": [...]}]}
  features   {"ids": [...], "features": [[...], ...]}
  params     {"head_count", "key_weights", "output_projection"}; a file in the
             earlier layout, with "score_weights" (query half, then key half)
             and "score_bias" in place of "key_weights", loads its key half
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
from json.scanner import NUMBER_RE
from typing import Any, Iterable, Iterator, Optional

import numpy as np

from .attention import AttentionParams
from .config import PipelineConfig
from .errors import InputError
from .geometry import first_flat_box, first_invalid_box, spatial_descriptor
from .graph import ProposalGraph
from .pooling import PseudoLabeling


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


# The process umask, read once at import: reading it means setting it, which
# must not happen while other threads create files.
_UMASK = os.umask(0o022)
os.umask(_UMASK)


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write via a temp file in the same directory, then rename into place.

    The file gets the mode open() would give a new file, 0o666 less the
    umask, not the 0o600 of ``mkstemp``.
    """
    directory = os.path.dirname(os.path.abspath(path))
    handle, temp_path = tempfile.mkstemp(prefix=".tmp-", dir=directory)
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(data)
        os.chmod(temp_path, 0o666 & ~_UMASK)
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
    """The decoded file; an object that repeats a key is an ``InputError``."""
    def unique_keys(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen: set = set()
            for key, _ in pairs:
                if key in seen:
                    raise InputError(f"{path}: duplicate key {json.dumps(key)}")
                seen.add(key)
        return obj

    try:
        with open(path, "r", encoding="utf-8") as stream:
            return json.load(stream, object_pairs_hook=unique_keys)
    except InputError:
        raise
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
    # True when load_proposals read the file through the canonical-layout reader.
    canonical_input: bool = False

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
    return _document(data, source)


def _document(data: Any, source: str, columns: Optional[tuple] = None) -> ProposalDocument:
    """``document_from_dict``; ``columns`` are the canonical reader's proposals."""
    _require(isinstance(data, dict), f"{source}: top level must be an object")
    for key in ("image_id", "width", "height", "proposals"):
        _require(key in data, f"{source}: missing field {key!r}")
    width, height = data["width"], data["height"]
    _require(type(width) is int and type(height) is int, f"{source}: width/height must be integers")
    raw = data["proposals"]
    _require(isinstance(raw, list), f"{source}: proposals must be a list")
    boxes, features, scores = columns or _proposal_columns(raw) or _walk_proposals(raw, source)
    try:
        return ProposalDocument(
            image_id=str(data["image_id"]),
            width=width,
            height=height,
            pixel_boxes=boxes,
            features=features,
            scores=tuple(scores) if any(s is not None for s in scores) else None,
            canonical_input=columns is not None,
        )
    except InputError as exc:
        raise InputError(f"{source}: {exc}") from exc


# Text per canonical-reader pass, cut after a proposal: less costs time, more memory.
_TEXT_CHUNK = 1 << 17
# 1 for each byte a JSON number is made of.
_NUMBER_BYTES = bytes(c in b"0123456789+-eE" for c in range(256))
# A run of number bytes after ",[:" is a token (1), after "." its fraction (2), else a key's.
_RUN_KIND = np.array([(c in b",[:") + 2 * (c == ord(".")) for c in range(256)], dtype=np.int8)
# Column k keeps the last k bytes of a 24-byte window, as three little-endian words.
_TAIL_MASKS = np.frombuffer(b"".join(bytes(24 - k) + b"\xff" * k for k in range(25)),
                            dtype="<u8").reshape(25, 3).T.copy()


def _chunk_numbers(text: bytes, pos: int, words: np.ndarray, template: np.ndarray,
                   slots: np.ndarray) -> Optional[np.ndarray]:
    """The numbers of ``text``: whole proposals, each followed by "," ("]" after the
    file's last), at byte ``pos`` of the file whose 8-byte words at every offset are
    ``words``. None unless the text is ``template`` with a JSON number in each slot."""
    chars = np.frombuffer(text, dtype=np.uint8)
    number = np.frombuffer(text.translate(_NUMBER_BYTES), dtype=np.bool_)
    edges = np.flatnonzero(number[1:] != number[:-1]) + 1
    starts, ends = edges[0::2], edges[1::2]
    kind = np.take(_RUN_KIND, chars[starts - 1])
    tokens = np.flatnonzero(kind == 1)
    has_fraction = np.append(kind[1:], 0)[tokens] == 2
    first, int_end, end = starts[tokens], ends[tokens], ends[tokens + has_fraction]
    count = tokens.size // slots.size
    # The text less its tokens must be the template's, with each token in a
    # slot. A "." that joins no integer run to a fraction stays in it; a key's
    # number letters ("feature", "score") are in it by their first byte alone.
    skeleton = ~number
    skeleton[starts[kind == 0]] = True
    skeleton[int_end[has_fraction]] = False
    expected = np.tile(template, count)
    expected[-1:] = chars[-1]  # "," or, after the file's last proposal, "]"
    lengths = end - first
    if not (np.array_equal(chars[skeleton], expected)
            and np.array_equal(first - np.cumsum(lengths) + lengths,
                               (slots + template.size * np.arange(count)[:, None]).ravel())):
        return None
    # The digits, right-aligned in 24 bytes: the fraction from a window ending with
    # the token, the integer part from it shifted one byte over the "." (an integer's
    # window ends a byte later). A 24th digit meets the shift's zero byte and fails.
    negative = chars[first] == ord("-")
    int_digits = int_end - first - negative
    frac_digits = np.where(has_fraction, end - int_end - 1, 0)
    window = words[np.arange(-24, 0, 8)[:, None] + (pos + end + 1 - has_fraction)]
    shifted = window << 8
    shifted[1:] |= window[:-1] >> 56
    low = np.take(_TAIL_MASKS, np.minimum(frac_digits, 24), axis=1)
    both = np.take(_TAIL_MASKS, np.minimum(int_digits + frac_digits, 24), axis=1)
    digits = (window & low) | (shifted & (both ^ low))
    bad = (digits & 0xF0F0F0F0F0F0F0F0) ^ (both & 0x3030303030303030)
    ok = (((bad[0] | bad[1] | bad[2]) == 0) & (int_digits >= 1)
          & ((int_digits == 1) | (chars[first + negative] != ord("0"))))
    # Eight digits per word at once (Lemire 2021): pairs, then fours, then eights.
    v = digits & 0x0F0F0F0F0F0F0F0F
    v = (v * 10 + (v >> 8)) & 0x00FF00FF00FF00FF
    v = (v * 100 + (v >> 16)) & 0x0000FFFF0000FFFF
    v = (v * 10000 + (v >> 32)) & 0xFFFFFFFF
    ok &= v[0] < 10
    n = np.where(ok, v[0] * 10**16 + v[1] * 10**8 + v[2], 0).astype(np.int64)
    # Clinger (1990): n < 2**53 over an exact 10**f is one correctly rounded division.
    certified = ok & (n < 2**53) & (frac_digits <= 22)
    values = n / _POW10[np.minimum(frac_digits, 22)]
    # Otherwise a double whose exact 17 ".17g" digits (as in _fill_records) are
    # the token's digits padded to 17 is float(token), since ".17g" round-trips
    # every double. The quotient is tried, then its neighbours one ulp away.
    short = n < 10**16
    target, scale = n * np.where(short, 10, 1), _POW10[np.minimum(frac_digits + short, 22)]
    k = np.flatnonzero(ok & ~certified & (frac_digits + short <= 22))
    for toward in (None, -np.inf, np.inf):
        y = values[k] if toward is None else np.nextafter(values[k], toward)
        hi, lo = _two_product(y, scale[k])
        hit = ((hi > 1e16) | ((hi == 1e16) & (lo >= 0))) & (
            hi.astype(np.int64) + np.rint(lo).astype(np.int64) == target[k])
        values[k[hit]], certified[k[hit]], k = y[hit], True, k[~hit]
    # An integer token reads "-0" as +0.0, as json.load's int does.
    values = np.where(negative & (has_fraction | (n > 0)), -values, values)
    for k in np.flatnonzero(~certified).tolist():
        token = text[first[k]:end[k]].decode("ascii")
        match = NUMBER_RE.fullmatch(token)
        if match is None:
            return None
        try:
            values[k] = float(token) if match.group(2) or match.group(3) else float(int(token))
        except (OverflowError, ValueError):  # an int past the float range or the digit limit
            return None
    return values


def _read_canonical(path: str) -> Optional[ProposalDocument]:
    """The document of a file in the exact layout ``save_proposals`` writes, read in
    chunks of whole proposals; None for any other file, which json.load then reads."""
    if not os.path.isfile(path):  # a pipe can be read only once, so json.load reads it
        return None
    try:
        with open(path, "rb") as stream:
            data = stream.read()
    except OSError:
        return None
    # The header ends where the first proposal starts; a file without one fails its check.
    start = data.find(b'"proposals":[{"box":[') + 13 if data.startswith(b'{"image_id":') else 0
    try:
        # What _encode writes for the header's value, which has no repeated key.
        header = json.loads(data[:start].decode("utf-8") + "]}")
        if list(header) != ["image_id", "width", "height", "proposals"] or (
                _canonical_bytes(header) != data[:start] + b"]}"):
            return None
    except (ValueError, InputError, RecursionError):
        return None
    # Every proposal must have the first one's fields and feature length.
    box_end = data.find(b"]", start) + 1
    feature_end = (data.find(b"]", box_end) + 1 if data.startswith(b',"feature":[', box_end)
                   else box_end)
    width = data.count(b",", box_end, feature_end)
    score = data.startswith(b',"score":', feature_end)
    gaps = ([b'{"box":['] + [b","] * 3 + [b'],"feature":['] * (width > 0) + [b","] * (width - 1)
            + ([b'],"score":', b"},"] if score else [b"]},"]))
    template = np.frombuffer(b"".join(gaps), dtype=np.uint8)
    slots = np.cumsum([len(gap) for gap in gaps[:-1]])
    words = np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))
    parts, pos = [], start
    while pos:
        # Up to the "," before the first proposal past a chunk's length, or to
        # the final "]", which must be followed by "}" and whitespace alone.
        cut = data.find(b',{"box":[', pos + _TEXT_CHUNK) + 1
        text = data[pos:cut] if cut else data[pos:].rstrip(b" \t\n\r")[:-1]
        parts.append(_chunk_numbers(text, pos, words, template, slots)
                     if cut or data.startswith(b"]}", pos + len(text) - 1) else None)
        if parts[-1] is None:
            return None
        pos = cut
    values = np.concatenate(parts).reshape(-1, slots.size)
    return _document(header, path, (values[:, :4].copy(),
                                    values[:, 4:4 + width].copy() if width else None,
                                    values[:, -1].tolist() if score else []))


def load_proposals(path: str) -> ProposalDocument:
    """Parse and validate a proposal dump; errors carry file and field context.

    ``_read_canonical`` reads a file in ``save_proposals``' layout and json.load
    any other, with the same result."""
    return _read_canonical(path) or document_from_dict(read_json(path), source=path)


def save_proposals(document: ProposalDocument, path: str) -> str:
    """Write ``document`` as a proposals file, formatting boxes and features one matrix each."""
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
    """Write ``g`` as a graph file with ids 0..M-1, formatting the edges as one (E, 3) matrix.

    Node indices are integers far below 2**53, whose ".17g" text is their
    int text.
    """
    edges = np.column_stack([g.edge_index.astype(np.float64), g.edge_weight])
    return write_json(path, {"nodes": g.num_nodes, "node_ids": list(range(g.num_nodes)),
                             "edges": edges})


def load_graph(path: str) -> tuple[ProposalGraph, np.ndarray]:
    """``graph_from_dict`` of the file at ``path``: the graph and its node ids."""
    return graph_from_dict(read_json(path), source=path)


def partition_to_dict(labeling: PseudoLabeling, coarse: np.ndarray) -> dict:
    """The partition file's value: null for label -1, part k's members from one stable
    argsort of the labels, and the coarse features preformatted in one matrix pass."""
    ends = np.cumsum(np.bincount(labeling.labels + 1, minlength=labeling.part_count + 1))
    members = np.split(np.argsort(labeling.labels, kind="stable"), ends[:-1])[1:]
    return {
        "labels": [None if label < 0 else label for label in labeling.labels.tolist()],
        "coarse": [
            {"feature": _Raw(feature), "members": part.tolist()}
            for feature, part in zip(_float_rows(coarse), members)
        ],
    }


def save_features(features: np.ndarray, path: str) -> str:
    """Write a features file whose ids number the rows 0..M-1."""
    features = np.asarray(features)
    return write_json(path, {"ids": list(range(features.shape[0])), "features": features})


def params_to_dict(params: AttentionParams) -> dict:
    return {
        "head_count": params.head_count,
        "key_weights": params.key_weights,
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


# The earlier params layout: each head's row holds query and key weights,
# and each head has a bias. Scores never read the query half or the bias.
_SCORE_FIELDS = ("score_weights", "score_bias")


def _key_half(weights: list, bias: list) -> np.ndarray:
    """The key half of earlier-layout ``score_weights``, once both fields pass
    the checks that layout always had."""
    weights, bias = np.array(weights, dtype=np.float64), np.array(bias, dtype=np.float64)
    if weights.ndim != 2 or weights.shape[1] % 2 != 0 or 0 in weights.shape:
        raise InputError(f"score_weights must have shape (heads >= 1, 2 * feature_dim >= 2), "
                         f"got {weights.shape}")
    if bias.shape[0] != weights.shape[0]:
        raise InputError("score_bias length must equal the head count")
    if not np.all(np.isfinite(weights)):
        raise InputError("score_weights must be finite")
    if not np.all(np.isfinite(bias)):
        raise InputError("score_bias must be finite")
    return weights[:, weights.shape[1] // 2:]


def params_from_dict(data: Any, source: str = "<params>") -> AttentionParams:
    """The params of a file in either layout, told apart by its keys: ``key_weights``,
    or the earlier ``score_weights`` and ``score_bias``, whose key half is kept."""
    _require(isinstance(data, dict), f"{source}: top level must be an object")
    earlier = any(key in data for key in _SCORE_FIELDS)
    _require(earlier != ("key_weights" in data),
             f"{source}: params need either key_weights or score_weights and score_bias, "
             f"{'not both' if earlier else 'found neither'}")
    if earlier:
        for key in _SCORE_FIELDS:
            _require(key in data, f"{source}: missing field {key!r}")
    declared = data.get("head_count")
    _require(declared is None or type(declared) is int,
             f"{source}: head_count must be an integer, got {declared!r}")
    if earlier:
        weights = _number_rows(data["score_weights"], f"{source}: score_weights")
        _require(isinstance(data["score_bias"], list), f"{source}: score_bias must be a list")
        bias = _numbers(data["score_bias"], f"{source}: score_bias")
    else:
        weights = _number_rows(data["key_weights"], f"{source}: key_weights")
    projection = data.get("output_projection")
    if projection is not None:
        projection = _number_rows(projection, f"{source}: output_projection")
    try:
        if earlier:
            weights = _key_half(weights, bias)
        params = AttentionParams(key_weights=weights, output_projection=projection)
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

