import contextlib
import dataclasses
import hashlib
import io as stdio
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from propgraph import (
    AttentionDegrees,
    AttentionParams,
    InputError,
    NumericalError,
    Partition,
    PipelineConfig,
    ProposalDocument,
    attention_gradients,
    build_graph,
    connected_components,
    gcpool,
    graph_from_edges,
    multi_head_attend,
    two_way_ncut,
)
from propgraph import attention, cli, geometry, graph, io, oracles, pipeline, spectral
from propgraph.cli import run_command
from propgraph.io import (
    document_from_dict,
    dumps_canonical,
    graph_from_dict,
    load_config,
    load_graph,
    load_params,
    load_proposals,
    params_to_dict,
    partition_to_dict,
    save_features,
    save_graph,
    save_params,
    save_proposals,
    write_json,
)
from propgraph.oracles import reference_augment_with_coarse, reference_gcpool
from propgraph.synthetic import generate_proposals

from conftest import document_to_dict, edge_triples, graph_to_dict, run_cli, score_layout_params


def reference_json(value) -> str:
    """Canonical JSON one Python value at a time, each float through format(x, ".17g")."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    if isinstance(value, dict):
        return "{" + ",".join(json.dumps(str(k), ensure_ascii=False) + ":" + reference_json(v)
                              for k, v in value.items()) + "}"
    return "[" + ",".join(map(reference_json, value)) + "]"


def _neighbours(x: float, ulps: int = 3) -> list[float]:
    """x and the floats up to ``ulps`` steps either side of it."""
    out = [x]
    below = above = x
    for _ in range(ulps):
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        out += [below, above]
    return out


def _halfway_ties() -> list[float]:
    """Floats m * 2**-k whose exact decimal has 18 significant digits, the last a 5.

    They lie exactly halfway between two 17-digit decimals, so ".17g" must
    round them half to even; e.g. 3 * 2**-24 = 1.78813934326171875e-07.
    """
    rng = np.random.default_rng(5)
    ties = [3 * 2.0**-24]
    for k in range(1, 64):
        low, high = -(-10**17 // 5**k), min((10**18 - 1) // 5**k, 2**53 - 1)
        for m in [low, high, *rng.integers(low, high, size=6).tolist()] if low <= high else []:
            m |= 1
            x = m * 2.0**-k
            if Fraction(x) == Fraction(m, 2**k) and len(str(m * 5**k)) == 18:
                ties.append(x)
    return ties


def _float_families() -> list[float]:
    """Floats where a whole-array formatter could part from format(x, ".17g")."""
    values = [v for e in range(-7, 18) for v in _neighbours(10.0**e)]
    values += _halfway_ties()
    values += _neighbours(1e-4) + _neighbours(1e16)
    values += [0.0, -0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
               1e-310, 1.7976931348623157e308]
    bits = np.random.default_rng(6).integers(0, 2**64, size=2000, dtype=np.uint64)
    values += [v for v in bits.view(np.float64).tolist() if math.isfinite(v)]
    return values + [-v for v in values]


FLOAT_FAMILIES = _float_families()


class TestCanonicalJson:
    def test_floats_survive_round_trip(self):
        values = [0.1, 1.0 / 3.0, 1e-300, 123456.789, -0.0, 2.0]
        text = dumps_canonical({"v": values})
        parsed = json.loads(text)
        assert parsed["v"] == values

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            dumps_canonical({"v": float("nan")})

    def test_stable_output(self):
        payload = {"b": [1, 2.5, None, True], "a": "text"}
        assert dumps_canonical(payload) == dumps_canonical(payload)

    @given(hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6),
        elements=st.one_of(
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([0.0, -0.0, 5e-324, -2.5e-308, 1e308, -1e308, 3.0, -7.0, 1e16]),
            st.sampled_from(FLOAT_FAMILIES),
            st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])
            .filter(math.isfinite),
        ),
    ))
    @settings(max_examples=200, deadline=None)
    def test_float_arrays_encode_like_their_elements(self, array):
        # The nested-list path formats one Python float at a time.
        assert dumps_canonical(array) == dumps_canonical(array.tolist())
        assert dumps_canonical({"f": array}) == dumps_canonical({"f": array.tolist()})
        assert dumps_canonical(array) == reference_json(array)

    def test_float_families_encode_like_format(self):
        values = np.array(FLOAT_FAMILIES)
        assert len(values) > 4000
        text = dumps_canonical(values)
        assert text == "[" + ",".join(format(v, ".17g") for v in FLOAT_FAMILIES) + "]"
        assert "1.7881393432617188e-07" in text  # 3 * 2**-24, rounded half to even

    def test_log_uniform_sweep_encodes_like_format(self):
        rng = np.random.default_rng(12)
        values = 10.0 ** rng.uniform(-5.0, 17.0, size=100_000)
        values *= rng.choice([-1.0, 1.0], size=values.size)
        for array in (values, values.reshape(-1, 40)):
            assert dumps_canonical(array) == reference_json(array)

    def test_float_array_text(self):
        array = np.array([[-0.0, 1.0, 5e-324], [0.1, -1e308, 2.0 ** 53]])
        assert dumps_canonical(array) == (
            "[[-0,1,4.9406564584124654e-324],[0.10000000000000001,-1e+308,9007199254740992]]"
        )
        rows = np.random.default_rng(0).normal(size=(130, 3))  # three blocks of rows
        assert dumps_canonical(rows) == dumps_canonical(rows.tolist())
        assert dumps_canonical(np.zeros((2, 0))) == "[[],[]]"
        assert dumps_canonical(np.zeros((0, 3))) == "[]"
        assert dumps_canonical(np.zeros(0)) == "[]"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(3,), (2, 3)])
    def test_non_finite_array_rejected(self, bad, shape):
        array = np.ones(shape)
        array.flat[-1] = bad
        with pytest.raises(InputError):
            dumps_canonical({"features": array})


class TestProposalDocuments:
    def test_pixel_normalization(self):
        doc = document_from_dict({
            "image_id": "img", "width": 200, "height": 200,
            "proposals": [{"box": [10, 10, 110, 110]}],
        })
        boxes = doc.normalized_boxes()
        assert boxes.shape == (1, 4) and boxes.dtype == np.float64
        assert tuple(boxes[0].tolist()) == (0.05, 0.05, 0.55, 0.55)

    def test_empty_document_valid(self):
        doc = document_from_dict(
            {"image_id": "x", "width": 10, "height": 10, "proposals": []}
        )
        assert doc.num_proposals == 0
        assert doc.feature_matrix().shape == (0, 7)

    def test_descriptor_substitution_when_features_absent(self):
        doc = generate_proposals(clusters=1, per_cluster=3, seed=0)
        assert doc.features is None
        assert doc.feature_matrix().shape == (3, 7)

    def test_mixed_feature_presence_rejected(self):
        with pytest.raises(InputError, match=r"proposals\[1\]"):
            document_from_dict({
                "image_id": "x", "width": 10, "height": 10,
                "proposals": [
                    {"box": [0, 0, 5, 5], "feature": [1.0, 2.0]},
                    {"box": [1, 1, 6, 6]},
                ],
            })

    def test_mixed_feature_dimension_rejected(self):
        with pytest.raises(InputError, match="dimension"):
            document_from_dict({
                "image_id": "x", "width": 10, "height": 10,
                "proposals": [
                    {"box": [0, 0, 5, 5], "feature": [1.0, 2.0]},
                    {"box": [1, 1, 6, 6], "feature": [1.0]},
                ],
            })

    def test_bad_box_rejected_with_context(self):
        with pytest.raises(InputError, match=r"proposals\[0\]\.box"):
            document_from_dict({
                "image_id": "x", "width": 10, "height": 10,
                "proposals": [{"box": [5, 0, 5, 5]}],
            })

    @pytest.mark.parametrize("side", ["width", "height"])
    def test_side_beyond_float_range_rejected(self, side):
        data = {"image_id": "x", "width": 10, "height": 10,
                "proposals": [{"box": [0, 0, 5, 5]}]}
        data[side] = 10**400
        with pytest.raises(InputError, match="fit in a float"):
            document_from_dict(data)

    def test_round_trip(self, tmp_path):
        doc = generate_proposals(clusters=2, per_cluster=4, seed=3, feature_dim=5)
        path = str(tmp_path / "doc.json")
        save_proposals(doc, path)
        loaded = load_proposals(path)
        assert loaded.image_id == doc.image_id
        assert loaded.width == doc.width and loaded.height == doc.height
        assert np.array_equal(loaded.pixel_boxes, doc.pixel_boxes)
        assert np.array_equal(loaded.features, doc.features)
        assert loaded.scores == doc.scores


class TestFileBytes:
    """Whole-array writers give the bytes of formatting one float at a time."""

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_proposal_files(self, tmp_path, seed):
        doc = generate_proposals(clusters=3, per_cluster=5, seed=seed, feature_dim=6)
        # Some proposals without a score, and features past the fast range.
        scores = list(doc.scores)
        scores[1::3] = [None] * len(scores[1::3])
        features = doc.features.copy()
        features[0, :3] = [0.0, -1e-300, 3e20]
        doc = dataclasses.replace(doc, features=features, scores=tuple(scores))
        plain = dataclasses.replace(doc, features=None, scores=None)
        for document in (doc, plain):
            path = tmp_path / "scene.json"
            digest = save_proposals(document, str(path))
            expected = (reference_json(document_to_dict(document)) + "\n").encode()
            assert path.read_bytes() == expected
            assert digest == hashlib.sha256(expected).hexdigest()

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_feature_params_and_partition_files(self, tmp_path, seed):
        doc = generate_proposals(clusters=4, per_cluster=6, seed=seed, feature_dim=5,
                                 jitter=0.2)
        features = doc.features * 10.0 ** np.random.default_rng(seed).integers(-6, 18, (1, 5))
        params = AttentionParams.initialize(5, head_count=2, output_dim=5, seed=seed)
        g = build_graph(doc.normalized_boxes(), features, 0.3)
        labeling, coarse = gcpool(g, min_size=2, stop_ncut=0.5)
        assert coarse.shape[0] > 0
        cases = [
            (save_features(features, str(tmp_path / "f.json")), "f.json",
             {"ids": list(range(len(features))), "features": features}),
            (save_params(params, str(tmp_path / "p.json")), "p.json", params_to_dict(params)),
            (write_json(str(tmp_path / "c.json"), partition_to_dict(labeling, coarse)), "c.json",
             {"labels": [None if label == -1 else label for label in labeling.labels.tolist()],
              "coarse": [{"feature": feature,
                          "members": np.flatnonzero(labeling.labels == k).tolist()}
                         for k, feature in enumerate(coarse)]}),
        ]
        cases.append((save_graph(g, str(tmp_path / "g.json")), "g.json", graph_to_dict(g)))
        empty = graph_from_edges(3, [])
        cases.append((save_graph(empty, str(tmp_path / "e.json")), "e.json",
                      graph_to_dict(empty)))
        for digest, name, value in cases:
            expected = (reference_json(value) + "\n").encode()
            assert (tmp_path / name).read_bytes() == expected
            assert digest == hashlib.sha256(expected).hexdigest()


class TestLoader:
    def test_columns_agree_with_the_row_walk(self):
        doc = generate_proposals(clusters=2, per_cluster=4, seed=3, feature_dim=3)
        data = json.loads(dumps_canonical(document_to_dict(doc)))
        proposals = data["proposals"]
        # Ints, ints past 2**53 and 2**64, and a proposal without a score.
        proposals[0]["box"] = [0, 1, 5, 7]
        proposals[1]["feature"] = [2**53 + 1, -(2**64) - 1, 2**70]
        del proposals[2]["score"]
        columns = io._proposal_columns(proposals)
        walked = io._walk_proposals(proposals, "<test>")
        assert columns is not None
        assert np.array_equal(columns[0], walked[0]) and np.array_equal(columns[1], walked[1])
        assert columns[1][1].tolist() == [float(2**53 + 1), float(-(2**64) - 1), float(2**70)]
        assert columns[2] == walked[2] and columns[2][2] is None
        loaded = document_from_dict(data)
        assert np.array_equal(loaded.features, walked[1])

    @pytest.mark.parametrize("edit", [
        lambda p: p[1].__setitem__("box", [0, 0, 5, 10**400]),
        lambda p: p[2].__setitem__("feature", [1.0, True, 0.0]),
        lambda p: p[0].pop("feature"),
        lambda p: p[3].__setitem__("feature", [1.0]),
        lambda p: p[1].__setitem__("score", "0.5"),
        lambda p: p.__setitem__(2, [0, 0, 1, 1]),
    ])
    def test_columns_leave_a_bad_proposal_to_the_row_walk(self, edit):
        doc = generate_proposals(clusters=1, per_cluster=4, seed=3, feature_dim=3)
        proposals = json.loads(dumps_canonical(document_to_dict(doc)))["proposals"]
        edit(proposals)
        assert io._proposal_columns(proposals) is None
        with pytest.raises(InputError, match=r"<test>: proposals\[\d\]"):
            io._walk_proposals(proposals, "<test>")


def _json_route(path: str) -> ProposalDocument:
    """The reader's oracle: the file read by json.load, as every file was before it."""
    return document_from_dict(io.read_json(path), source=path)


def _outcome(load, path: str):
    """The document's fields as bytes, or the InputError's text."""
    try:
        doc = load(path)
    except InputError as exc:
        return "InputError", str(exc)
    return (doc.image_id, doc.width, doc.height, doc.pixel_boxes.shape, doc.pixel_boxes.tobytes(),
            None if doc.features is None else (doc.features.shape, doc.features.tobytes()),
            None if doc.scores is None else [s if s is None else s.hex() for s in doc.scores])


# Coordinates at the edges of the formatter's fixed-point range, subnormals,
# integral floats, floats past 2**53 and values written with an exponent.
_EDGE_COORDINATES = [0.0, 5e-324, 2.2250738585072014e-308, 1e-5, math.nextafter(1e-4, 0), 1e-4,
                     0.5, 3.0, 2.0**53 + 2, math.nextafter(1e16, 0), 1e16, 2.0**60, 1e19]
_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(FLOAT_FAMILIES),
    st.sampled_from(_EDGE_COORDINATES + [-v for v in _EDGE_COORDINATES]),
    st.integers(-2**62, 2**62).map(float),
)


@st.composite
def proposal_documents(draw) -> ProposalDocument:
    width, height = draw(st.sampled_from([640, 2**60, 10**20])), draw(st.sampled_from([480, 2**60]))
    boxes = []
    for _ in range(draw(st.integers(1, 5))):
        corner = [draw(st.sampled_from([v for v in _EDGE_COORDINATES if v < side])
                       | st.floats(0, side, exclude_max=True)) for side in (width, height)]
        boxes.append(corner + [draw(st.floats(low, side, exclude_min=True))
                               for low, side in zip(corner, (width, height))])
    dim = draw(st.sampled_from([None, 1, 3]))
    features = None if dim is None else draw(hnp.arrays(np.float64, (len(boxes), dim),
                                                         elements=_FINITE))
    scores = draw(st.none() | st.lists(st.floats(0, 1) | st.sampled_from([-0.0, 5e-324, 1e-4]),
                                       min_size=len(boxes), max_size=len(boxes)))
    image_id = draw(st.text(max_size=6) | st.sampled_from(['say "hi"\\', "é 中 ", "\x00\n"]))
    try:
        return ProposalDocument(image_id, width, height, np.array(boxes), features,
                                None if scores is None else tuple(scores))
    except InputError:  # a box too thin once normalized
        assume(False)


def _canonical_file() -> bytes:
    doc = generate_proposals(clusters=2, per_cluster=3, seed=1, feature_dim=3, jitter=0.2)
    features = doc.features.copy()
    features[:, 0] = [1e-5, -3e20, 2.0, -0.0, 2.0**53 + 2, 0.1]
    doc = dataclasses.replace(doc, image_id='a "b" é', features=features)
    with tempfile.TemporaryDirectory() as directory:
        save_proposals(doc, os.path.join(directory, "scene.json"))
        with open(os.path.join(directory, "scene.json"), "rb") as stream:
            return stream.read()


CANONICAL_FILE = _canonical_file()
# The spans of its numbers after width and height.
_NUMBER_TOKENS = [m.span() for m in re.finditer(rb"-?[0-9][0-9.eE+-]*", CANONICAL_FILE)][2:]
# Text a JSON route accepts differently or rejects, put in place of a number.
_BAD_NUMBERS = [b"1.", b"01", b".5", b"-", b"1e400", b"-1e400", b"1" + b"0" * 400, b"1" + b"0" * 5000,
                b"-0", b"-0.0", b"+1", b"1E5", b"1e+5", b"0.1e1", b"1.5e", b"--1", b"1.5.5",
                b"0.00000000000000000000001", b"0.12345678901234567890123", b"12345678901234567890",
                b"-98765432109876543210.5", b"123456789012345678901234567890",
                b"2.4703282292062328e-324", b"9007199254740993", b"NaN", b"true", b'"1"']


def _in_last_proposal(old: bytes, new: bytes) -> bytes:
    at = CANONICAL_FILE.rindex(old)
    return CANONICAL_FILE[:at] + new + CANONICAL_FILE[at + len(old):]


def _move_last_box_number() -> bytes:
    """'{"box":[12,' as '{"box":12[,' in the last proposal: the same bytes
    between the numbers, one number moved."""
    start = CANONICAL_FILE.rindex(b'{"box":[') + 8
    end = CANONICAL_FILE.index(b",", start)
    return CANONICAL_FILE[:start - 1] + CANONICAL_FILE[start:end] + b"[" + CANONICAL_FILE[end:]


def _edit_number(text: bytes, k: int, number: bytes) -> bytes:
    start, end = _NUMBER_TOKENS[k]
    return text[:start] + number + text[end:]


EDITED_FILES = {
    "as written": CANONICAL_FILE,
    "no final newline": CANONICAL_FILE.replace(b"\n", b""),
    "trailing whitespace": CANONICAL_FILE + b" \t\r\n",
    "trailing text": CANONICAL_FILE.replace(b"}]}", b"}]} x"),
    "byte order mark": b"\xef\xbb\xbf" + CANONICAL_FILE,
    "space in the header": CANONICAL_FILE.replace(b'"width":', b'"width": '),
    "space between proposals": CANONICAL_FILE.replace(b',{"box"', b', {"box"', 1),
    "header key repeated first": CANONICAL_FILE.replace(b'{"image_id"', b'{"width":1,"image_id"'),
    "header key repeated in place": CANONICAL_FILE.replace(b'"height":', b'"width":640,"height":'),
    "longer feature key": _in_last_proposal(b'"feature"', b'"feeature"'),
    "longer score key": _in_last_proposal(b'"score"', b'"scoree"'),
    "number moved before its bracket": _move_last_box_number(),
    "box key repeated": CANONICAL_FILE.replace(b'{"box":[', b'{"box":[1,2,3,4],"box":[', 1),
    "score key renamed": CANONICAL_FILE.replace(b'"score"', b'"feature"', 1),
    "integer score": CANONICAL_FILE.replace(b',"score":0.', b',"score":0', 1),
    "empty proposals": CANONICAL_FILE.replace(b'"proposals":[', b'"proposals":[]}' + b" " * 40),
    "escaped image id": CANONICAL_FILE.replace(b'"a', b'"\\u0061'),
    "truncated tail": CANONICAL_FILE[:-30],
    "truncated header": CANONICAL_FILE[:200],
    **{f"number {k} as {number[:32].decode()} ({len(number)} bytes)":
       _edit_number(CANONICAL_FILE, k, number) for number in _BAD_NUMBERS for k in (1, 5)},
}


class TestCanonicalReader:
    """The canonical-layout reader gives what json.load gives, file by file."""

    def check_like_the_json_route(self, data: bytes) -> None:
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "scene.json")
            with open(path, "wb") as stream:
                stream.write(data)
            expected = _outcome(_json_route, path)
            assert _outcome(load_proposals, path) == expected
            err = stdio.StringIO()
            with contextlib.redirect_stdout(stdio.StringIO()), contextlib.redirect_stderr(err):
                code = run_command(["graph", "build", "--input", path, "--iou-thr", "0.3",
                                    "--output", os.path.join(directory, "g.json")])
            if expected[0] == "InputError":
                assert (code, err.getvalue()) == (1, f"error: {expected[1]}\n")
            else:
                assert code == 0

    @given(proposal_documents())
    @settings(max_examples=150, deadline=None)
    def test_round_trip_is_bit_equal(self, doc):
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "scene.json")
            save_proposals(doc, path)
            loaded = load_proposals(path)
            assert loaded.canonical_input
            assert _outcome(lambda _: loaded, path) == _outcome(_json_route, path)
        # -0.0 is written "-0", which JSON reads as the integer 0.
        assert loaded.image_id == doc.image_id
        assert loaded.pixel_boxes.tobytes() == (doc.pixel_boxes + 0.0).tobytes()
        assert (loaded.features is None) == (doc.features is None)
        if doc.features is not None:
            assert loaded.features.tobytes() == (doc.features + 0.0).tobytes()
        if doc.scores is not None:
            assert np.array(loaded.scores).tobytes() == (np.array(doc.scores) + 0.0).tobytes()

    def test_float_families_read_in_several_chunks(self, tmp_path, monkeypatch):
        features = np.array(FLOAT_FAMILIES[:len(FLOAT_FAMILIES) // 8 * 8]).reshape(-1, 8)
        doc = generate_proposals(clusters=1, per_cluster=len(features), seed=2, feature_dim=8)
        doc = dataclasses.replace(doc, features=features)
        path = str(tmp_path / "scene.json")
        save_proposals(doc, path)
        monkeypatch.setattr(io, "_TEXT_CHUNK", 4096)
        assert os.path.getsize(path) > 40 * io._TEXT_CHUNK
        loaded = load_proposals(path)
        assert loaded.canonical_input
        assert _outcome(lambda _: loaded, path) == _outcome(_json_route, path)
        assert loaded.features.tobytes() == (features + 0.0).tobytes()

    def test_writer_output_needs_no_per_token_fallback(self, tmp_path, monkeypatch):
        class NoFallback:
            def fullmatch(self, token):
                raise AssertionError(f"{token} was not certified")

        monkeypatch.setattr(io, "NUMBER_RE", NoFallback())
        for seed in (0, 123):
            doc = generate_proposals(clusters=8, per_cluster=20, seed=seed, feature_dim=16)
            save_proposals(doc, str(tmp_path / "scene.json"))
            assert load_proposals(str(tmp_path / "scene.json")).canonical_input

    def test_commands_report_the_route_and_write_the_same_bytes(self, tmp_path, capsys):
        doc = generate_proposals(clusters=3, per_cluster=8, seed=4, feature_dim=3, jitter=0.1)
        save_proposals(doc, str(tmp_path / "canonical.json"))
        text = json.dumps(json.loads((tmp_path / "canonical.json").read_text()), indent=4)
        (tmp_path / "reformatted.json").write_text(text)
        save_params(AttentionParams.initialize(3, seed=0), str(tmp_path / "params.json"))
        (tmp_path / "config.json").write_text("{}")
        for command in (["graph", "build", "--iou-thr", "0.3"],
                        ["pool", "gcpool", "--config", str(tmp_path / "config.json")],
                        ["attend", "--config", str(tmp_path / "config.json"),
                         "--params", str(tmp_path / "params.json")],
                        ["forward", "--config", str(tmp_path / "config.json"),
                         "--params", str(tmp_path / "params.json")]):
            outputs = {}
            for name in ("canonical", "reformatted"):
                output = tmp_path / f"{name}-out.json"
                assert run_command(command + ["--input", str(tmp_path / f"{name}.json"),
                                              "--output", str(output)]) == 0
                report = json.loads(capsys.readouterr().out)
                assert report["counts"]["canonical_input"] is (name == "canonical"), command
                outputs[name] = output.read_bytes()
            assert outputs["canonical"] == outputs["reformatted"], command

    def test_a_piped_input_goes_to_json_load_which_reads_it_once(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_bytes(CANONICAL_FILE)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(io.__file__)))
        outputs = []
        for source, stdin in ((str(path), None), ("/dev/stdin", CANONICAL_FILE)):
            output = tmp_path / f"out{len(outputs)}.json"
            proc = subprocess.run([sys.executable, "-m", "propgraph", "graph", "build", "--input",
                                   source, "--iou-thr", "0.3", "--output", str(output)],
                                  input=stdin, capture_output=True, env=env)
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout)["counts"]["canonical_input"] is (stdin is None)
            outputs.append(output.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("name", sorted(EDITED_FILES))
    def test_edited_files_load_or_fail_like_the_json_route(self, name):
        self.check_like_the_json_route(EDITED_FILES[name])

    @given(st.integers(0, len(CANONICAL_FILE) - 1),
           st.sampled_from(["replace", "insert", "delete", "number", "truncate"]),
           st.sampled_from(list(b'0123456789.-+eE,[]{}:" \n\x00\xff')) | st.integers(0, 255),
           st.sampled_from(_BAD_NUMBERS))
    @settings(max_examples=300, deadline=None)
    def test_mutated_files_load_or_fail_like_the_json_route(self, at, how, byte, number):
        data = CANONICAL_FILE
        edits = {"replace": lambda: data[:at] + bytes([byte]) + data[at + 1:],
                 "insert": lambda: data[:at] + bytes([byte]) + data[at:],
                 "delete": lambda: data[:at] + data[at + 1:],
                 "number": lambda: _edit_number(data, at % len(_NUMBER_TOKENS), number),
                 "truncate": lambda: data[:at]}
        self.check_like_the_json_route(edits[how]())


class TestGraphFiles:
    def test_round_trip(self, tmp_path):
        doc = generate_proposals(clusters=2, per_cluster=4, seed=1)
        g = build_graph(doc.normalized_boxes(), doc.feature_matrix(), 0.3)
        path = str(tmp_path / "graph.json")
        save_graph(g, path)
        loaded, node_ids = graph_from_dict(json.loads(open(path).read()))
        assert loaded.num_nodes == g.num_nodes
        assert edge_triples(loaded) == edge_triples(g)
        assert node_ids.tolist() == list(range(g.num_nodes))

    def test_schema_validation(self):
        with pytest.raises(InputError):
            graph_from_dict({"nodes": 2, "edges": []})
        with pytest.raises(InputError):
            graph_from_dict({"nodes": 1, "node_ids": [0], "edges": [[0, 0, 1.0]]})


def _set(path, value):
    """A params-document edit that puts ``value`` at ``path``."""
    def edit(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return edit


def _drop(*keys):
    """A params-document edit that deletes ``keys``."""
    def edit(doc):
        for key in keys:
            del doc[key]
    return edit


def _key_layout(edit):
    """``edit`` applied after turning an earlier-layout document into the
    key-weights layout."""
    def convert(doc):
        doc["key_weights"] = [row[len(row) // 2:] for row in doc.pop("score_weights")]
        del doc["score_bias"]
        edit(doc)
    return convert


class TestParamsFiles:
    @pytest.mark.parametrize("edit, field", [
        (_set(["head_count"], "x"), "head_count"),
        (_set(["head_count"], [1]), "head_count"),
        (_set(["head_count"], 1.5), "head_count"),
        (_set(["head_count"], True), "head_count"),
        (_set(["score_weights", 0, 1], 10**400), "score_weights[0]"),
        (_set(["score_weights", 0, 1], "1e400"), "score_weights"),
        (_set(["score_weights", 1, 0], True), "score_weights[1]"),
        (_set(["score_weights", 0, 2], "0.1"), "score_weights[0]"),
        (_set(["score_weights", 1], 0.5), "score_weights[1]"),
        (_set(["score_weights"], [0.5, 0.5]), "score_weights[0]"),
        (_set(["score_weights", 1], [0.5]), "score_weights[1]"),
        (_set(["score_bias", 0], True), "score_bias"),
        (_set(["score_bias", 1], "0.1"), "score_bias"),
        (_set(["score_bias"], 0.5), "score_bias"),
        (_set(["output_projection", 3, 0], False), "output_projection[3]"),
        (_set(["output_projection", 0], "row"), "output_projection[0]"),
        # The earlier layout keeps its checks on the query half and the bias.
        (_set(["score_weights", 0, 0], float("nan")), "score_weights must be finite"),
        (_set(["score_bias", 1], float("inf")), "score_bias must be finite"),
        (_set(["score_weights"], [[0.1, 0.2, 0.3]] * 2), "2 * feature_dim >= 2), got (2, 3)"),
        (_set(["score_bias"], [0.5]), "score_bias length must equal the head count"),
        (_drop("score_bias"), "missing field 'score_bias'"),
        (_set(["head_count"], 3), "head_count 3 != 2 weight rows"),
        # A file in neither layout, or in both.
        (_drop("score_weights", "score_bias"), "key_weights or score_weights and score_bias, "
                                               "found neither"),
        (_set(["key_weights"], [[0.5, 0.5]] * 2), "key_weights or score_weights and "
                                                  "score_bias, not both"),
        (_key_layout(_set(["key_weights", 1, 0], True)), "key_weights[1]"),
        (_key_layout(_set(["key_weights", 0, 1], float("nan"))), "key_weights must be finite"),
        (_key_layout(_set(["key_weights"], [[0.5]] * 2)), "output_projection must have 2 rows"),
    ])
    def test_malformed_params_rejected(self, tmp_path, capsys, edit, field):
        doc = generate_proposals(1, 4, seed=0, feature_dim=2)
        save_proposals(doc, str(tmp_path / "scene.json"))
        (tmp_path / "config.json").write_text("{}")
        data = json.loads(dumps_canonical(
            score_layout_params(2, head_count=2, output_dim=2, seed=0)))
        edit(data)
        # "1e400" stands for the JSON number 1e400, which json.load reads as inf.
        path = tmp_path / "params.json"
        path.write_text(json.dumps(data).replace('"1e400"', "1e400"))
        argv = ["forward", "--input", str(tmp_path / "scene.json"), "--params", str(path),
                "--config", str(tmp_path / "config.json"),
                "--output", str(tmp_path / "out.json")]
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: ") and field in captured.err
        assert sorted(os.listdir(tmp_path)) == ["config.json", "params.json", "scene.json"]

    def test_valid_params_round_trip(self, tmp_path):
        params = AttentionParams.initialize(3, head_count=2, output_dim=4, seed=1)
        save_params(params, str(tmp_path / "params.json"))
        loaded = load_params(str(tmp_path / "params.json"))
        assert set(json.loads((tmp_path / "params.json").read_text())) == {
            "head_count", "key_weights", "output_projection"}
        assert np.array_equal(loaded.key_weights, params.key_weights)
        assert np.array_equal(loaded.output_projection, params.output_projection)

    @pytest.mark.parametrize("config", ["{}", '{"iou_bias": true}'])
    def test_earlier_layout_forwards_like_its_resave(self, tmp_path, capsys, config):
        # The bytes `params init --feature-dim 4 --heads 2 --out-dim 4 --seed 3`
        # wrote in the earlier layout.
        earlier = str(tmp_path / "earlier.json")
        digest = write_json(earlier, score_layout_params(4, head_count=2, output_dim=4, seed=3))
        assert digest == "a3f4348e06794426acb58c79a4227365f0016e423ae97f1e151c30415c2a84cc"
        resaved, initialized = str(tmp_path / "resaved.json"), str(tmp_path / "init.json")
        save_params(load_params(earlier), resaved)
        assert run_command(["params", "init", "--feature-dim", "4", "--heads", "2",
                            "--out-dim", "4", "--seed", "3", "--output", initialized]) == 0
        assert open(resaved, "rb").read() == open(initialized, "rb").read()
        scene = str(tmp_path / "scene.json")
        assert run_command(["gen", "--clusters", "3", "--per-cluster", "8", "--seed", "7",
                            "--feature-dim", "4", "--output", scene]) == 0
        (tmp_path / "config.json").write_text(config)
        outputs = []
        for params in (earlier, resaved):
            outputs.append(tmp_path / f"out-{len(outputs)}.json")
            assert run_command(["forward", "--input", scene, "--params", params,
                                "--config", str(tmp_path / "config.json"),
                                "--output", str(outputs[-1])]) == 0
        assert outputs[0].read_bytes() == outputs[1].read_bytes()


class TestConfigFiles:
    def test_lambda_spelling_and_defaults(self, tmp_path):
        path = str(tmp_path / "config.json")
        write_json(path, {"lambda": 0.25, "min_size": 4})
        config = load_config(path)
        assert config.lambda_ == 0.25
        assert config.min_size == 4
        assert config.stop_ncut == PipelineConfig().stop_ncut

    @pytest.mark.parametrize("document", [
        {"lambda_": 0.5}, {"lambda": 1.0, "lambda_": 0.5}, {"lambda_": 0.5, "lambda": 1.0},
    ], ids=["alone", "after-lambda", "before-lambda"])
    def test_in_memory_lambda_spelling_rejected(self, tmp_path, capsys, document):
        with pytest.raises(InputError, match="^unknown config field 'lambda_'$"):
            PipelineConfig.from_dict(document)
        scene, params, config, output = (str(tmp_path / name) for name in
                                         ("scene.json", "params.json", "config.json", "out.json"))
        assert run_command(["gen", "--clusters", "1", "--per-cluster", "3", "--seed", "0",
                            "--feature-dim", "2", "--output", scene]) == 0
        save_params(AttentionParams.initialize(2, seed=0), params)
        (tmp_path / "config.json").write_text(json.dumps(document))
        capsys.readouterr()
        argv = ["forward", "--input", scene, "--params", params, "--config", config,
                "--output", output]
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {config}: unknown config field 'lambda_'\n"
        assert not os.path.exists(output)

    def test_unknown_key_rejected(self, tmp_path):
        path = str(tmp_path / "config.json")
        write_json(path, {"stop_cut": 0.4})
        with pytest.raises(InputError, match="stop_cut"):
            load_config(path)

    def test_to_dict_round_trips(self):
        config = PipelineConfig(lambda_=2.0, iou_bias=True)
        assert PipelineConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize("field", ["seed", "head_count", "eig_tol", "eig_max_sweeps",
                                       "dense_attention"])
    def test_removed_fields_rejected(self, tmp_path, capsys, field):
        with pytest.raises(InputError, match=field):
            PipelineConfig.from_dict({field: 0})
        scene, params, config, output = (str(tmp_path / name) for name in
                                         ("scene.json", "params.json", "config.json", "out.json"))
        assert run_command(["gen", "--clusters", "1", "--per-cluster", "3", "--seed", "0",
                            "--feature-dim", "2", "--output", scene]) == 0
        save_params(AttentionParams.initialize(2, seed=0), params)
        (tmp_path / "config.json").write_text(json.dumps({field: False}))
        capsys.readouterr()
        assert run_command(["forward", "--input", scene, "--params", params, "--config", config,
                            "--output", output]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {config}: unknown config field {field!r}\n"
        assert not os.path.exists(output)

    @pytest.mark.parametrize("field, value", [
        ("min_size", 2.5), ("min_part", True), ("stop_ncut", "0.5"),
        ("iou_thr", True), ("lambda", "1"), ("epsilon", None),
        ("min_size", 3.0), ("iou_bias", "true"), ("per_channel", 0.0),
        ("norm_mode", 1),
    ])
    def test_mistyped_values_rejected(self, tmp_path, field, value):
        with pytest.raises(InputError, match=field):
            PipelineConfig.from_dict({field: value})
        path = tmp_path / "config.json"
        path.write_text(json.dumps({field: value}))
        with pytest.raises(InputError, match=field):
            load_config(str(path))

    def test_accepted_values_are_not_coerced(self):
        config = PipelineConfig.from_dict({"iou_thr": 0, "lambda": 2})
        assert config.to_dict()["iou_thr"] == 0 and isinstance(config.iou_thr, int)
        assert isinstance(config.lambda_, int)


class TestCli:
    def test_graph_build_emits_expected_edge(self, tmp_path):
        scene = {
            "image_id": "pair", "width": 100, "height": 100,
            "proposals": [{"box": [0, 0, 20, 20]}, {"box": [10, 10, 30, 30]}],
        }
        inp = tmp_path / "pair.json"
        inp.write_text(json.dumps(scene))
        proc = run_cli(
            ["graph", "build", "--input", str(inp), "--iou-thr", "0.1",
             "--output", str(tmp_path / "g.json")],
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        data = json.loads((tmp_path / "g.json").read_text())
        assert data["nodes"] == 2
        assert len(data["edges"]) == 1
        i, j, w = data["edges"][0]
        assert (i, j) == (0, 1)
        assert abs(w - 1.0 / 7.0) < 1e-12
        report = json.loads(proc.stdout)
        assert report["command"] == "graph build"
        assert "timings_ms" in report

    def test_unknown_subcommand_exits_one_with_usage(self, tmp_path, capsys):
        assert run_command(["definitely-not-a-command"]) == 1
        captured = capsys.readouterr()
        assert "usage" in captured.err.lower()

    def test_one_parser_serves_every_call_as_a_fresh_one_would(self, tmp_path, capsys):
        scene, params, config, output = (
            str(tmp_path / name) for name in ("scene.json", "params.json", "config.json",
                                              "out.json"))
        assert run_command(["gen", "--clusters", "2", "--per-cluster", "4", "--seed", "0",
                            "--feature-dim", "3", "--output", scene]) == 0
        save_params(AttentionParams.initialize(3, seed=0), params)
        write_json(config, {})
        forward = ["forward", "--input", scene, "--params", params, "--config", config,
                   "--output", output]
        calls = [forward + ["--bogus"], ["--help"], forward]

        def run(argv):
            code = run_command(argv)
            captured = capsys.readouterr()
            out = captured.out
            if argv == calls[2]:
                report = json.loads(out)
                del report["timings_ms"]
                with open(output, "rb") as stream:
                    out = (report, stream.read())
            return code, out, captured.err

        capsys.readouterr()
        # A usage error, then --help, then a valid forward, on one parser.
        shared = [run(argv) for argv in calls]
        assert [code for code, _, _ in shared] == [1, 0, 0]
        assert "unrecognized arguments: --bogus" in shared[0][2]
        assert "usage: propgraph" in shared[1][1]
        fresh = []
        for argv in calls:
            cli._shared_parser.cache_clear()
            fresh.append(run(argv))
        assert fresh == shared

    def test_missing_input_exits_one(self, tmp_path):
        proc = run_cli(
            ["graph", "build", "--input", "absent.json", "--iou-thr", "0.3",
             "--output", "out.json"],
            cwd=tmp_path,
        )
        assert proc.returncode == 1
        assert "absent.json" in proc.stderr

    def test_malformed_input_leaves_no_output(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"image_id": "x", "width": 10,')
        out = tmp_path / "out.json"
        proc = run_cli(
            ["graph", "build", "--input", str(bad), "--iou-thr", "0.3",
             "--output", str(out)],
            cwd=tmp_path,
        )
        assert proc.returncode == 1
        assert not out.exists()
        assert "bad.json" in proc.stderr
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]
        assert leftovers == []

    def test_numerical_failure_exits_two(self, tmp_path, monkeypatch, capsys):
        scene_path = tmp_path / "scene.json"
        assert run_command(["gen", "--clusters", "1", "--per-cluster", "12", "--seed", "3",
                            "--output", str(scene_path)]) == 0
        # Every box twice: tied Fiedler entries deny LAPACK's vector its order
        # certificate, so the one-sweep Jacobi solve must run. lambda_2 <= 2
        # always, so stop_ncut 2 keeps the lambda_2 certificate from settling
        # the cluster first.
        scene = json.loads(scene_path.read_text())
        scene["proposals"] *= 2
        scene_path.write_text(json.dumps(scene))
        (tmp_path / "config.json").write_text('{"stop_ncut": 2.0}')
        monkeypatch.setattr(spectral, "_JACOBI_MAX_SWEEPS", 1)
        capsys.readouterr()
        code = run_command(["pool", "gcpool", "--input", str(scene_path),
                            "--config", str(tmp_path / "config.json"),
                            "--output", str(tmp_path / "parts.json")])
        stderr = capsys.readouterr().err
        assert code == 2
        assert "numerical" in stderr.lower()
        assert "24x24" in stderr and "1 sweep" in stderr

    @pytest.mark.parametrize("feature, params, stage", [
        # Finite features whose squares overflow the moments.
        (lambda k: [1e155 * k, 1.0], None,
         "moment_match normalization: output row 0 is not finite; overflowed: mixed std"),
        (lambda k: [1.5e308, 1.0], None,
         "pooling: the mean feature of part 0 (4 members) is not finite"),
        # Zero scores, and a projection that scales a feature near the float maximum.
        (lambda k: [1e308 if k == 1 else 1.0, 1.0],
         {"head_count": 1, "score_weights": [[0, 0, 0, 0]], "score_bias": [0],
          "output_projection": [[8, 0], [0, 1]]},
         "attention: output row 0 is not finite"),
        # A score that overflows in head 1 only, on proposal 0's key, which
        # proposal 0's row attends.
        (lambda k: [1e308 if k == 1 else 1.0, 1.0],
         {"head_count": 2, "score_weights": [[0, 0, 0, 0], [0, 0, 2, 0]], "score_bias": [0, 0],
          "output_projection": [[1, 0], [0, 1], [0, 0], [0, 0]]},
         "attention: head 1, row 0: non-finite attention score"),
    ])
    def test_overflowing_features_exit_two_without_output(self, tmp_path, feature, params, stage):
        proposals = [{"box": [10 * k, 10, 10 * k + 30, 40], "feature": feature(k)}
                     for k in range(1, 5)]
        (tmp_path / "in.json").write_text(json.dumps(
            {"image_id": "x", "width": 200, "height": 200, "proposals": proposals}))
        if params is None:
            save_params(AttentionParams.initialize(2, seed=0), str(tmp_path / "params.json"))
        else:
            (tmp_path / "params.json").write_text(json.dumps(params))
        (tmp_path / "config.json").write_text("{}")
        inputs = sorted(os.listdir(tmp_path))
        proc = run_cli(["forward", "--input", "in.json", "--params", "params.json",
                        "--config", "config.json", "--output", "out.json"], cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"numerical failure: {stage}")
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stdout == ""
        assert sorted(os.listdir(tmp_path)) == inputs

    def test_pooling_failure_names_its_component(self, tmp_path):
        # A lone box (filtered), then two symmetric chains of 4 equal boxes.
        # Their tied anchors send every sweep to the Jacobi solver, which a
        # sitecustomize module on the child's path makes fail.
        boxes = [[200, 200, 230, 230]] + [[10 * k, y, 10 * k + 30, y + 30]
                                          for y in (10, 100) for k in range(4)]
        proposals = [{"box": box, "feature": [1.0, float(k)]} for k, box in enumerate(boxes)]
        (tmp_path / "in.json").write_text(json.dumps(
            {"image_id": "x", "width": 300, "height": 300, "proposals": proposals}))
        save_params(AttentionParams.initialize(2, seed=0), str(tmp_path / "params.json"))
        (tmp_path / "config.json").write_text('{"stop_ncut": 1.0}')
        hooks = tmp_path / "hooks"
        hooks.mkdir()
        (hooks / "sitecustomize.py").write_text(
            "from propgraph import spectral\n"
            "from propgraph.errors import NumericalError\n"
            "def failing(matrix):\n"
            "    raise NumericalError(f'Jacobi eigensolver on a {len(matrix)}x{len(matrix)} "
            "matrix did not converge')\n"
            "spectral.symmetric_eigendecomposition = failing\n")
        inputs = sorted(os.listdir(tmp_path))
        for argv in (["forward", "--params", "params.json"], ["pool", "gcpool"]):
            proc = run_cli([*argv, "--input", "in.json", "--config", "config.json",
                            "--output", "out.json"],
                           cwd=tmp_path, env_extra={"PYTHONPATH": str(hooks)})
            assert proc.returncode == 2, proc.stderr
            assert proc.stderr == (
                "numerical failure: pooling: component 1 (4 proposals, first proposal 1): "
                "Jacobi eigensolver on a 4x4 matrix did not converge\n")
            assert proc.stdout == ""
            assert sorted(os.listdir(tmp_path)) == inputs

    def test_gen_is_seed_deterministic(self, tmp_path):
        for name in ("a.json", "b.json"):
            proc = run_cli(
                ["gen", "--clusters", "3", "--per-cluster", "5", "--seed", "11",
                 "--feature-dim", "4", "--output", name],
                cwd=tmp_path,
            )
            assert proc.returncode == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_cut_ncut_brute_force_agreement(self, tmp_path):
        g = graph_from_edges(
            6,
            [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0),
             (3, 4, 1.0), (3, 5, 1.0), (4, 5, 1.0), (0, 3, 0.1)],
        )
        save_graph(g, str(tmp_path / "g.json"))
        proc = run_cli(
            ["cut", "ncut", "--input", "g.json", "--stop-ncut", "0.5", "--brute-force"],
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        assert data["labels"] == [0, 0, 0, 1, 1, 1]
        assert data["set_count"] == 2
        assert data["components"][0]["two_way_matches_oracle"] is True

    def test_cut_ncut_brute_force_skips_oversized_components(self, tmp_path, capsys):
        scene = str(tmp_path / "scene.json")
        assert run_command(["gen", "--clusters", "6", "--per-cluster", "20", "--jitter", "0.2",
                            "--seed", "3", "--output", scene]) == 0
        sizes = {}
        for thr in ("0.3", "0.55"):
            graph_file = str(tmp_path / f"g{thr}.json")
            assert run_command(["graph", "build", "--input", scene, "--iou-thr", thr,
                                "--output", graph_file]) == 0
            sizes[thr] = connected_components(load_graph(graph_file)[0]).sizes.tolist()
            capsys.readouterr()
            assert run_command(["cut", "ncut", "--input", graph_file, "--brute-force"]) == 0
            data = json.loads(capsys.readouterr().out)
            marked = 0
            for entry, n in zip(data["components"], sizes[thr], strict=True):
                if n > 15:
                    assert entry["brute_force"] is None and entry["unchecked"] == "n > 15"
                    assert "two_way" not in entry
                    marked += 1
                elif n >= 2:
                    assert "unchecked" not in entry
                    assert entry["two_way_matches_oracle"] is True
                    assert entry["two_way"] == pytest.approx(entry["brute_force"], abs=1e-10)
            assert data["report"]["unchecked"] == marked
        # At 0.3 every multi-node component is too large to enumerate; at 0.55
        # components of 2 and 14 nodes are still compared.
        assert sorted(sizes["0.3"]) == [1, 19, 20, 20, 20, 20, 20]
        assert {2, 14} <= set(sizes["0.55"]) and max(sizes["0.55"]) == 20

    @pytest.mark.parametrize("command", ["graph build", "pool gcpool", "forward"])
    def test_edge_limit_exits_one_without_output(self, tmp_path, capsys, monkeypatch, command):
        scene = str(tmp_path / "scene.json")
        assert run_command(["gen", "--clusters", "2", "--per-cluster", "10", "--seed", "4",
                            "--feature-dim", "3", "--output", scene]) == 0
        save_params(AttentionParams.initialize(3, head_count=1, output_dim=3, seed=0),
                    str(tmp_path / "params.json"))
        (tmp_path / "config.json").write_text("{}")
        inputs = sorted(os.listdir(tmp_path))
        output = str(tmp_path / "out.json")
        argv = {
            "graph build": ["graph", "build", "--input", scene, "--iou-thr", "0.3",
                            "--output", output],
            "pool gcpool": ["pool", "gcpool", "--input", scene, "--config",
                            str(tmp_path / "config.json"), "--output", output],
            "forward": ["forward", "--input", scene, "--params", str(tmp_path / "params.json"),
                        "--config", str(tmp_path / "config.json"), "--output", output],
        }[command]
        monkeypatch.setattr(graph, "_EDGE_LIMIT", 5)
        capsys.readouterr()
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: 20 proposals reached ")
        assert "over the limit of 5 edges" in captured.err
        assert sorted(os.listdir(tmp_path)) == inputs

    def test_full_stage_pipeline(self, tmp_path):
        steps = [
            ["gen", "--clusters", "2", "--per-cluster", "5", "--seed", "4",
             "--feature-dim", "3", "--output", "scene.json"],
            ["params", "init", "--feature-dim", "3", "--heads", "2", "--out-dim", "3",
             "--seed", "0", "--output", "params.json"],
            ["graph", "build", "--input", "scene.json", "--iou-thr", "0.3",
             "--output", "graph.json"],
            ["graph", "components", "--input", "graph.json", "--min-size", "3"],
            ["pool", "gcpool", "--input", "scene.json", "--config", "config.json",
             "--output", "parts.json"],
            ["attend", "--input", "scene.json", "--params", "params.json",
             "--config", "config.json", "--output", "attended.json"],
            ["forward", "--input", "scene.json", "--params", "params.json",
             "--config", "config.json", "--output", "refined.json"],
            ["forward", "--input", "scene.json", "--params", "params.json",
             "--config", "config.json", "--output", "refined2.json", "--no-gcpool"],
        ]
        (tmp_path / "config.json").write_text('{"iou_thr": 0.3}')
        for argv in steps:
            proc = run_cli(argv, cwd=tmp_path)
            assert proc.returncode == 0, (argv, proc.stderr)
        refined = json.loads((tmp_path / "refined.json").read_text())
        assert len(refined["ids"]) == 10
        assert len(refined["features"][0]) == 3
        parts = json.loads((tmp_path / "parts.json").read_text())
        assert sorted({label for label in parts["labels"] if label is not None}) == [0, 1]
        assert len(parts["coarse"]) == 2
        attended = json.loads((tmp_path / "attended.json").read_text())
        assert len(attended["features"]) == 10

    def test_reports_count_the_spectral_decisions(self, tmp_path, capsys):
        doc = generate_proposals(2, 30, seed=5, feature_dim=3, jitter=0.24)
        save_proposals(doc, str(tmp_path / "scene.json"))
        save_params(AttentionParams.initialize(3, head_count=1, output_dim=3, seed=0),
                    str(tmp_path / "params.json"))
        (tmp_path / "config.json").write_text('{"iou_thr": 0.5}')
        labeling, _ = gcpool(build_graph(doc.normalized_boxes(), doc.feature_matrix(), 0.5),
                             min_size=3, stop_ncut=0.5)
        expected = dataclasses.asdict(labeling.solves)
        assert expected["fiedler_certified"] > 0 and expected["kept_whole"] > 0
        files = {"input": str(tmp_path / "scene.json"), "config": str(tmp_path / "config.json"),
                 "params": str(tmp_path / "params.json")}
        commands = {
            "pool": ["pool", "gcpool", "--input", files["input"], "--config", files["config"],
                     "--output", str(tmp_path / "parts.json")],
            "forward": ["forward", "--input", files["input"], "--params", files["params"],
                        "--config", files["config"], "--output", str(tmp_path / "out.json")],
        }
        commands["no-gcpool"] = commands["forward"] + ["--no-gcpool"]
        counts = {}
        for name, argv in commands.items():
            assert run_command(argv) == 0
            report = json.loads(capsys.readouterr().out)
            counts[name] = {key: report["counts"][key] for key in expected}
        assert counts["pool"] == counts["forward"] == expected
        assert counts["no-gcpool"] == dict.fromkeys(expected, 0)
        # the counts stay out of the output files
        assert set(json.loads((tmp_path / "parts.json").read_text())) == {"labels", "coarse"}

    def test_reports_attention_degree_statistics(self, tmp_path, capsys, monkeypatch):
        doc = generate_proposals(2, 30, seed=5, feature_dim=3, jitter=0.24)
        params = AttentionParams.initialize(3, head_count=1, output_dim=3, seed=0)
        save_proposals(doc, str(tmp_path / "scene.json"))
        save_params(params, str(tmp_path / "params.json"))
        g = build_graph(doc.normalized_boxes(), doc.feature_matrix(), 0.5)
        # Two usable CPUs: several degree buckets make several blocks.
        monkeypatch.setattr(attention, "_worker_count", lambda: 2)
        degrees = AttentionDegrees()
        multi_head_attend(g.features, params, g, degrees=degrees)
        expected = {f"attention_{key}": value
                    for key, value in dataclasses.asdict(degrees).items()}
        assert expected["attention_buckets"] > 1 and expected["attention_workers"] == 2
        inputs = ["--input", str(tmp_path / "scene.json"),
                  "--params", str(tmp_path / "params.json"),
                  "--config", str(tmp_path / "config.json")]
        (tmp_path / "config.json").write_text(json.dumps({"iou_thr": 0.5}))
        counts = {}
        for name, argv in {"attend": ["attend"], "forward": ["forward"],
                           "no-gcpool": ["forward", "--no-gcpool"]}.items():
            output = tmp_path / f"{name}.json"
            assert run_command(argv + inputs + ["--output", str(output)]) == 0
            report = json.loads(capsys.readouterr().out)
            counts[name] = {key: report["counts"][key] for key in expected}
            # the statistics stay out of the output files
            assert set(json.loads(output.read_text())) == {"ids", "features"}
        assert counts["attend"] == counts["no-gcpool"] == expected
        # pooling adds coarse nodes, which attend to their whole part
        pooled = counts["forward"]
        assert pooled["attention_workers"] == 2
        assert pooled["attention_max_degree"] > expected["attention_max_degree"]
        assert pooled["attention_min_degree"] <= pooled["attention_median_degree"] \
            <= pooled["attention_max_degree"]

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_written_files_get_the_mode_open_gives(self, tmp_path, umask):
        # The files are written through a temp file, whose own mode is 0o600.
        commands = {
            "scene.json": ["gen", "--clusters", "2", "--per-cluster", "6", "--seed", "1",
                           "--feature-dim", "3"],
            "params.json": ["params", "init", "--feature-dim", "3", "--out-dim", "3"],
            "graph.json": ["graph", "build", "--input", "scene.json", "--iou-thr", "0.3"],
            "parts.json": ["pool", "gcpool", "--input", "scene.json", "--config", "config.json"],
            "out.json": ["forward", "--input", "scene.json", "--params", "params.json",
                         "--config", "config.json"],
        }
        (tmp_path / "config.json").write_text("{}")
        for output, argv in commands.items():
            proc = run_cli(argv + ["--output", output], cwd=tmp_path,
                           preexec_fn=lambda: os.umask(umask))
            assert proc.returncode == 0, proc.stderr
            assert os.stat(tmp_path / output).st_mode & 0o777 == 0o666 & ~umask

    def test_oracle_commands_pass(self, tmp_path):
        proc = run_cli(
            ["oracle", "ncut", "--max-n", "10", "--trials", "200", "--seed", "7"],
            cwd=tmp_path,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["failures"] == 0
        proc = run_cli(["oracle", "grad", "--trials", "4", "--seed", "7"], cwd=tmp_path)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["max_relative_error"] < 1e-5

    @pytest.mark.parametrize("command", ["ncut", "grad"])
    def test_oracle_rejects_zero_trials(self, capsys, command):
        assert run_command(["oracle", command, "--trials", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: trials must be >= 1, got 0\n"

    def test_forward_seed_flag_rejected(self, capsys):
        argv = ["forward", "--input", "scene.json", "--params", "params.json",
                "--config", "config.json", "--output", "out.json", "--seed", "1"]
        assert run_command(argv) == 1
        assert "--seed" in capsys.readouterr().err

    def test_oracle_ncut_catches_a_flipped_partition(self, monkeypatch, capsys):
        def flipped(g, **kwargs):
            partition, report = two_way_ncut(g, **kwargs)
            return Partition(labels=1 - partition.labels, set_count=2), report

        monkeypatch.setattr(cli, "two_way_ncut", flipped)
        assert run_command(["oracle", "ncut", "--max-n", "6", "--trials", "5", "--seed", "7"]) == 1
        assert json.loads(capsys.readouterr().out)["failures"] > 0

    def test_oracle_grad_catches_perturbed_gradients(self, monkeypatch, capsys):
        def perturbed(*args, **kwargs):
            grads = attention_gradients(*args, **kwargs)
            return dataclasses.replace(grads, features=grads.features + 1e-3)

        monkeypatch.setattr(cli, "attention_gradients", perturbed)
        assert run_command(["oracle", "grad", "--trials", "2", "--seed", "7"]) == 1
        assert json.loads(capsys.readouterr().out)["failures"] > 0

    @pytest.mark.parametrize("command, document, field", [
        ("graph build", {"proposals": [{"box": ["a", 0, 5, 5]}]}, "proposals[0].box"),
        ("graph build", {"proposals": [{"box": [0, 0, 5, True]}]}, "proposals[0].box"),
        ("graph build", {"proposals": [{"box": [0, 0, 5, 5], "feature": [1.0, "x"]}]},
         "proposals[0].feature"),
        ("graph build", {"proposals": [{"box": [0, 0, 5, 5], "score": "0.5"}]},
         "proposals[0].score"),
        ("graph build", {"proposals": [{"box": [0, 0, 5, 5], "score": False}]},
         "proposals[0].score"),
        ("graph build", {"proposals": [{"box": [0, 0, 5, 10**400]}]}, "proposals[0].box"),
        ("graph components", {"edges": [[0, 1, "w"]]}, "edges[0]"),
        ("graph components", {"edges": [[0, 1, 10**400]]}, "edges[0]"),
        ("graph components", {"edges": [[0, 1, 0.5], [0, True, 0.5]]}, "edges[1]"),
        ("graph components", {"edges": [[0.0, 1, 0.5]]}, "edges[0]"),
        ("graph components", {"node_ids": [0, "1"]}, "node_ids[1]"),
        ("graph components", {"node_ids": [0, 1.5]}, "node_ids[1]"),
        ("graph components", {"node_ids": [-4, -4]}, "in.json: node ids must be unique\n"),
    ])
    def test_non_numeric_values_rejected(self, tmp_path, capsys, command, document, field):
        if command == "graph build":
            data = {"image_id": "x", "width": 10, "height": 10, **document}
            extra = ["--iou-thr", "0.3", "--output", str(tmp_path / "out.json")]
        else:
            data = {"nodes": 2, "node_ids": [0, 1], "edges": [], **document}
            extra = ["--min-size", "1"]
        path = tmp_path / "in.json"
        path.write_text(json.dumps(data))
        assert run_command([*command.split(), "--input", str(path), *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and field in captured.err
        assert sorted(os.listdir(tmp_path)) == ["in.json"]

    @pytest.mark.parametrize("width, proposal, field, shown", [
        (10, '{"box": [NaN, 0, 5, 5]}', "box", "got [nan, 0.0, 5.0, 5.0]"),
        (10, '{"box": [0, 0, 1e999, 5]}', "box", "got [0.0, 0.0, inf, 5.0]"),
        (10, '{"box": [0, 0, 5, 10.5]}', "box", "got [0.0, 0.0, 5.0, 10.5]"),
        # Distinct pixel corners whose quotients by the width 3 round equal.
        (3, '{"box": [1.7148085531751387, 0, 1.714808553175139, 5]}', "box",
         "[1.7148085531751387, 0.0, 1.714808553175139, 5.0] has x1 == x2"),
        (10, '{"box": [0, 0, 2, 2], "feature": [1.0, NaN]}', "feature", "must be finite"),
        (10, '{"box": [0, 0, 2, 2], "feature": [-1e999, 0.0]}', "feature", "must be finite"),
    ])
    def test_box_and_feature_rejections_name_the_file_and_field(self, tmp_path, capsys, width,
                                                               proposal, field, shown):
        valid = '{"box": [1, 1, 2, 2], "feature": [0.0, 0.0]}' if field == "feature" else \
            '{"box": [1, 1, 2, 2]}'
        path = tmp_path / "in.json"
        path.write_text(f'{{"image_id": "x", "width": {width}, "height": 10, '
                        f'"proposals": [{valid}, {proposal}]}}')
        argv = ["graph", "build", "--input", str(path), "--iou-thr", "0.3",
                "--output", str(tmp_path / "out.json")]
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: proposals[1].{field}: ")
        assert shown in captured.err and "np.float64" not in captured.err
        assert sorted(os.listdir(tmp_path)) == ["in.json"]

    @pytest.mark.parametrize("command", ["graph build", "pool gcpool", "forward"])
    def test_box_too_flat_for_the_descriptor_names_the_file_and_field(self, tmp_path, capsys,
                                                                      command):
        # Without features the 7-dim spatial descriptor stands in; its aspect
        # ratio divides by the normalized height, 1e-14 / 480 here.
        path = tmp_path / "in.json"
        path.write_text('{"image_id": "x", "width": 640, "height": 480, "proposals": '
                        '[{"box": [0, 0, 5, 5]}, {"box": [0, 0, 5, 1e-14]}]}')
        save_params(AttentionParams.initialize(7, seed=0), str(tmp_path / "params.json"))
        (tmp_path / "config.json").write_text("{}")
        inputs = sorted(os.listdir(tmp_path))
        output = ["--output", str(tmp_path / "out.json")]
        argv = {
            "graph build": ["graph", "build", "--input", str(path), "--iou-thr", "0.3", *output],
            "pool gcpool": ["pool", "gcpool", "--input", str(path), "--config",
                            str(tmp_path / "config.json"), *output],
            "forward": ["forward", "--input", str(path), "--params",
                        str(tmp_path / "params.json"), "--config",
                        str(tmp_path / "config.json"), *output],
        }[command]
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: proposals[1].box: [0.0, 0.0, 5.0, 1e-14]")
        assert "aspect ratio" in captured.err
        assert sorted(os.listdir(tmp_path)) == inputs

    def test_forward_pools_without_subgraphs_or_id_lookups(self, tmp_path, capsys, monkeypatch):
        scene, params, config = (str(tmp_path / name) for name in
                                 ("scene.json", "params.json", "config.json"))
        assert run_command(["gen", "--clusters", "6", "--per-cluster", "20", "--seed", "3",
                            "--jitter", "0.2", "--feature-dim", "4", "--output", scene]) == 0
        save_params(AttentionParams.initialize(4, seed=0), params)
        (tmp_path / "config.json").write_text('{"iou_thr": 0.5}')

        def forward_bytes():
            out = tmp_path / "out.json"
            capsys.readouterr()
            argv = ["forward", "--input", scene, "--params", params, "--config", config,
                    "--output", str(out)]
            assert run_command(argv) == 0, capsys.readouterr().err
            return out.read_bytes(), json.loads(capsys.readouterr().out)["counts"]

        with pytest.MonkeyPatch.context() as mp:  # the subgraph route, as the reference
            mp.setattr(pipeline, "gcpool", reference_gcpool)
            mp.setattr(pipeline, "augment_with_coarse", reference_augment_with_coarse)
            expected, expected_counts = forward_bytes()

        def refuse(*args, **kwargs):
            raise AssertionError("subgraph called on the forward path")

        monkeypatch.setattr(oracles, "subgraph", refuse)
        got, counts = forward_bytes()
        assert got == expected and counts == expected_counts
        # The scene sweeps components and filters proposals, so every pooling step ran.
        assert counts["fiedler_certified"] > 0 and counts["filtered"] > 0 and counts["coarse"] > 0

    @staticmethod
    def _reader_of(tmp_path, kind: str, content: bytes) -> tuple:
        """Valid input files, the ``kind`` one overwritten with ``content``; (path, argv)."""
        scene, params, config = (str(tmp_path / name) for name in
                                 ("scene.json", "params.json", "config.json"))
        assert run_command(["gen", "--clusters", "1", "--per-cluster", "3", "--seed", "0",
                            "--feature-dim", "2", "--output", scene]) == 0
        save_params(AttentionParams.initialize(2, seed=0), params)
        (tmp_path / "config.json").write_text("{}")
        save_graph(graph_from_edges(2, [(0, 1, 0.5)]), str(tmp_path / "graph.json"))
        bad = tmp_path / ("scene.json" if kind == "proposals" else f"{kind}.json")
        bad.write_bytes(content)
        output = ["--output", str(tmp_path / "out.json")]
        return bad, {
            "proposals": ["graph", "build", "--input", scene, "--iou-thr", "0.3", *output],
            "params": ["forward", "--input", scene, "--params", params, "--config", config,
                       *output],
            "config": ["pool", "gcpool", "--input", scene, "--config", config, *output],
            "graph": ["graph", "components", "--input", str(bad), "--min-size", "1"],
        }[kind]

    @pytest.mark.parametrize("kind", ["proposals", "params", "config", "graph"])
    def test_non_utf8_file_exits_one_naming_it(self, tmp_path, capsys, kind):
        bad, argv = self._reader_of(tmp_path, kind, b'{"image_id": "\xff"}')
        inputs = sorted(os.listdir(tmp_path))
        capsys.readouterr()
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}: not UTF-8")
        assert sorted(os.listdir(tmp_path)) == inputs

    @pytest.mark.parametrize("kind", ["proposals", "params", "config", "graph"])
    @pytest.mark.parametrize("content, reason", [
        (b"[" * 100_000, "JSON nested too deeply"),
        # Past CPython's int conversion limit; json.dumps cannot write it either.
        (b'{"width": ' + b"9" * 5001 + b"}", "JSON number too long to convert"),
    ], ids=["deep", "long-int"])
    def test_undecodable_json_exits_one_naming_it(self, tmp_path, capsys, kind, content,
                                                  reason):
        bad, argv = self._reader_of(tmp_path, kind, content)
        inputs = sorted(os.listdir(tmp_path))
        capsys.readouterr()
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad}: {reason}\n"
        assert sorted(os.listdir(tmp_path)) == inputs

    @pytest.mark.parametrize("kind, content, key", [
        ("proposals", b'{"image_id": "a", "width": 10, "height": 10, "width": 20, '
                      b'"proposals": []}', "width"),
        ("proposals", b'{"image_id": "a", "width": 10, "height": 10, "proposals": '
                      b'[{"box": [0, 0, 1, 1], "score": 0.5, "box": [0, 0, 2, 2]}]}', "box"),
        ("params", b'{"head_count": 1, "score_weights": [[0, 0]], "score_bias": [0], '
                   b'"score_bias": [1]}', "score_bias"),
        ("config", b'{"lambda": 0.5, "lambda": 2}', "lambda"),
        ("graph", b'{"nodes": 2, "node_ids": [0, 1], "edges": [], "nodes": 3}', "nodes"),
    ], ids=["proposals", "nested-proposal", "params", "config", "graph"])
    def test_duplicate_key_exits_one_naming_it(self, tmp_path, capsys, kind, content, key):
        bad, argv = self._reader_of(tmp_path, kind, content)
        inputs = sorted(os.listdir(tmp_path))
        capsys.readouterr()
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f'error: {bad}: duplicate key "{key}"\n'
        assert sorted(os.listdir(tmp_path)) == inputs

    def test_commands_run_without_the_reference_box_type(self, tmp_path, capsys):
        # The box rules live in geometry.first_invalid_box alone; the scalar
        # reference box is a test helper.
        assert not hasattr(geometry, "BoundingBox")
        (tmp_path / "config.json").write_text("{}")
        config = str(tmp_path / "config.json")
        for feature_dim, d in ((3, 3), (0, 7)):  # without features: the 7-dim descriptor
            scene, params = str(tmp_path / "scene.json"), str(tmp_path / "params.json")
            assert run_command(["gen", "--clusters", "2", "--per-cluster", "6", "--seed", "5",
                                "--feature-dim", str(feature_dim), "--output", scene]) == 0
            save_params(AttentionParams.initialize(d, output_dim=d, seed=0), params)
            output = ["--output", str(tmp_path / "out.json")]
            for argv in (
                ["forward", "--input", scene, "--params", params, "--config", config, *output],
                ["attend", "--input", scene, "--params", params, "--config", config, *output],
                ["pool", "gcpool", "--input", scene, "--config", config, *output],
                ["graph", "build", "--input", scene, "--iou-thr", "0.3", *output],
            ):
                assert run_command(argv) == 0, (argv, capsys.readouterr().err)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("flag, value", [("--min-part", "0"), ("--stop-ncut", "-1")])
    def test_cut_ncut_rejects_bad_options_on_an_edgeless_graph(self, tmp_path, capsys,
                                                               flag, value):
        # With 0 nodes no component is partitioned, so the command checks the options itself.
        for nodes in (3, 0):
            save_graph(graph_from_edges(nodes, []), str(tmp_path / "g.json"))
            argv = ["cut", "ncut", "--input", str(tmp_path / "g.json"), flag, value]
            assert run_command(argv) == 1, nodes
            captured = capsys.readouterr()
            assert captured.out == ""
            assert flag[2:].replace("-", "_") in captured.err

    @pytest.mark.parametrize("argv", [
        ["gen", "--clusters", "2", "--per-cluster", "2", "--seed", "-1", "--output", "s.json"],
        ["gen", "--clusters", "2", "--per-cluster", "2", "--seed", "0", "--feature-dim", "-3",
         "--output", "s.json"],
        ["params", "init", "--feature-dim", "2", "--seed", "-1", "--output", "p.json"],
        ["params", "init", "--feature-dim", "2", "--out-dim", "-1", "--output", "p.json"],
        ["params", "init", "--feature-dim", "2", "--out-dim", "0", "--output", "p.json"],
        ["oracle", "ncut", "--seed", "-1", "--trials", "1"],
        ["oracle", "grad", "--seed", "-1", "--trials", "1"],
        ["oracle", "ncut", "--max-n", "-5"],
        ["oracle", "ncut", "--max-n", "1"],
    ], ids=["gen-seed", "gen-feature-dim", "params-seed", "params-out-dim",
            "params-out-dim-zero", "ncut-seed", "grad-seed", "ncut-max-n", "ncut-max-n-one"])
    def test_negative_seeds_and_dimensions_exit_one(self, tmp_path, capsys, argv):
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("brute_force", [[], ["--brute-force"]], ids=["cut", "brute-force"])
    @pytest.mark.parametrize("document", [
        {"nodes": 2, "node_ids": [0, 1], "edges": [[0, 1, 0.0]]},
        {"nodes": 3, "node_ids": [0, 1, 2], "edges": [[0, 1, 0.0], [1, 2, 0.5]]},
    ], ids=["2-nodes", "3-nodes"])
    def test_cut_ncut_errors_name_the_file_and_component(self, tmp_path, capsys, document,
                                                         brute_force):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(document))
        assert run_command(["cut", "ncut", "--input", str(path), *brute_force]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {path}: component 0 ({document['nodes']} nodes): "
                                "normalized Laplacian undefined for zero-degree nodes\n")

    def test_cut_ncut_numerical_failure_keeps_exit_two(self, tmp_path, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise NumericalError("no convergence")

        monkeypatch.setattr(cli, "recursive_ncut", failing)
        path = str(tmp_path / "g.json")
        save_graph(graph_from_edges(3, [(0, 1, 0.5)]), path)
        assert run_command(["cut", "ncut", "--input", path]) == 2
        assert capsys.readouterr().err == \
            f"numerical failure: {path}: component 0 (2 nodes): no convergence\n"

    def test_cut_ncut_refuses_a_component_too_big_for_dense_blocks(self, tmp_path):
        # Each 12,000 x 12,000 float64 block is 1.15 GB: without the check the
        # capped process ends in a MemoryError traceback.
        import resource

        n = 12_000
        (tmp_path / "chain.json").write_text(json.dumps({
            "nodes": n, "node_ids": list(range(n)),
            "edges": [[i, i + 1, 0.5] for i in range(n - 1)],
        }))
        cap = 2 << 30
        proc = run_cli(["cut", "ncut", "--input", "chain.json"], cwd=tmp_path,
                       env_extra={"OPENBLAS_NUM_THREADS": "1"},
                       preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == "" and "Traceback" not in proc.stderr
        assert proc.stderr == (
            "error: chain.json: component 0 (12000 nodes): the dense blocks of a 12000-node "
            "connected set need 144000000 float64 values, over the limit of 134217728\n")

    def test_graph_components_checks_min_size_after_loading(self, tmp_path, capsys):
        path = str(tmp_path / "g.json")
        missing = str(tmp_path / "missing.json")
        save_graph(graph_from_edges(2, [(0, 1, 0.5)]), path)
        for input_path, message in ((missing, f"{missing}: file not found"),
                                    (path, "min_size must be >= 1, got 0")):
            argv = ["graph", "components", "--input", input_path, "--min-size", "0"]
            assert run_command(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"

    def test_cut_ncut_overflowing_degrees_exit_two(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(
            {"nodes": 3, "node_ids": [0, 1, 2], "edges": [[0, 1, 1e308], [1, 2, 1e308]]}))
        result = run_cli(["cut", "ncut", "--input", str(path)], tmp_path)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (f"numerical failure: {path}: component 0 (3 nodes): "
                                 "weighted degrees of 3 nodes overflow: their total is not finite\n")

    @pytest.mark.parametrize("argv, sizes", [
        (["gen", "--clusters", "1", "--per-cluster", "1", "--seed", "1",
          "--feature-dim", "1000000000000", "--output", "s.json"],
         "1 clusters x 1 proposals x (4 box values + feature_dim 1000000000000) "
         "need 1000000000004"),
        (["gen", "--clusters", "100000000000000000000", "--per-cluster", "1", "--seed", "1",
          "--output", "s.json"],
         "100000000000000000000 clusters x 1 proposals x (4 box values + feature_dim 0) "
         "need 400000000000000000000"),
        (["gen", "--clusters", "8192", "--per-cluster", "8192", "--seed", "1",
          "--feature-dim", "0", "--output", "s.json"],
         "8192 clusters x 8192 proposals x (4 box values + feature_dim 0) need 268435456"),
        (["params", "init", "--feature-dim", "1000000000000", "--output", "p.json"],
         "head_count 1, feature_dim 1000000000000 and output_dim None need 2000000000001"),
        (["params", "init", "--feature-dim", "4096", "--heads", "8", "--out-dim", "4096",
          "--output", "p.json"],
         "head_count 8, feature_dim 4096 and output_dim 4096 need 134283272"),
        (["oracle", "ncut", "--max-n", str(10**30), "--trials", "1"],
         f"max_n {10**30} x {10**30} adjacency weights need {10**60}"),
        (["oracle", "ncut", "--max-n", "100000", "--trials", "1"],
         "max_n 100000 x 100000 adjacency weights need 10000000000"),
    ], ids=["gen-feature-dim", "gen-clusters", "gen-proposals", "params-feature-dim",
            "params-projection", "oracle-ncut-max-n-huge", "oracle-ncut-max-n-dense"])
    def test_sizes_over_the_float_limit_exit_one_before_allocating(self, tmp_path, capsys,
                                                                   argv, sizes):
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {sizes} float64 values, "
                                f"over the limit of {2**27}\n")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("side", ["--image-width", "--image-height"])
    def test_gen_side_beyond_float_range_exits_one_without_output(self, tmp_path, capsys, side):
        argv = ["gen", "--clusters", "1", "--per-cluster", "1", "--seed", "1",
                side, str(10**400), "--output", str(tmp_path / "s.json")]
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: image width and height must fit in a float\n"
        assert os.listdir(tmp_path) == []

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_graph_components_removes_the_file_ids_of_small_components(self, data):
        n = data.draw(st.integers(min_value=0, max_value=12), label="nodes")
        ids = data.draw(st.lists(
            st.one_of(st.sampled_from([-2**63, 2**63 - 1, 0]),
                      st.integers(min_value=-2**63, max_value=2**63 - 1)),
            min_size=n, max_size=n, unique=True), label="node_ids")
        pairs = data.draw(st.lists(
            st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))),
            max_size=2 * n), label="pairs") if n else []
        edges = sorted({(min(i, j), max(i, j)) for i, j in pairs if i != j})
        weights = data.draw(st.lists(st.sampled_from([0.0, 0.25, 1.0]),
                                     min_size=len(edges), max_size=len(edges)), label="weights")
        min_size = data.draw(st.integers(min_value=1, max_value=5), label="min_size")
        # The expected ids, from a union-find of the test's own.
        root = list(range(n))

        def find(k):
            while root[k] != k:
                k = root[k]
            return k

        for i, j in edges:
            root[find(i)] = find(j)
        sizes = [0] * n
        for k in range(n):
            sizes[find(k)] += 1
        expected = sorted(ids[k] for k in range(n) if sizes[find(k)] < min_size)
        document = {"nodes": n, "node_ids": ids,
                    "edges": [[i, j, w] for (i, j), w in zip(edges, weights)]}
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "g.json")
            with open(path, "w") as stream:
                json.dump(document, stream)
            out = stdio.StringIO()
            with contextlib.redirect_stdout(out):
                code = run_command(["graph", "components", "--input", path,
                                    "--min-size", str(min_size)])
        assert code == 0
        result = json.loads(out.getvalue())
        assert result["removed"] == expected
        assert sorted(result["sizes"]) == sorted(sizes[k] for k in range(n) if find(k) == k)

    def test_help_exits_zero(self):
        assert run_command(["--help"]) == 0
