"""Fuzz the JSON loaders through the CLI.

Each example takes a valid proposal, params, config or graph document,
applies one mutation (swap a value's type, drop a key or list item, or put
in a number out of float range or a non-finite one), writes it and runs a
command that loads it. Whatever the mutation, the command must exit 0 or 1
with no exception, and a rejected run must leave no output or temp file.
A mutated proposal document is also written in the canonical layout, which
the proposal loader reads without json.load when the layout still holds.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from propgraph import AttentionParams, InputError, graph_from_edges
from propgraph.cli import run_command
from propgraph.io import dumps_canonical, params_to_dict
from propgraph.synthetic import generate_proposals

from conftest import document_to_dict, graph_to_dict

# Values that replace a drawn entry: other JSON types, then numbers that
# overflow a float or are not finite (json.dumps writes NaN and Infinity,
# which json.load reads back).
REPLACEMENTS = ["x", "0.5", True, False, None, [], [1], {}, {"a": 1}, 1.5, -1, 0,
                10**400, -(10**400), float("nan"), float("inf"), float("-inf")]


def valid_documents() -> dict:
    scene = document_to_dict(generate_proposals(2, 3, seed=1, feature_dim=2, jitter=0.2))
    scene["proposals"][0]["score"] = 0.5
    params = params_to_dict(AttentionParams.initialize(2, head_count=2, output_dim=2, seed=0))
    config = {"iou_thr": 0.3, "min_size": 2, "stop_ncut": 1.5, "min_part": 1, "lambda": 1.0,
              "epsilon": 1e-8, "norm_mode": "moment_match",
              "iou_bias": True, "per_channel": False}
    graph = graph_to_dict(graph_from_edges(
        4, [(0, 1, 0.9), (1, 2, 0.2), (2, 3, 0.8), (0, 2, 0.1)]))
    graph["node_ids"] = [5, 6, 7, 8]
    # Round-trip through text: the documents hold only what json.load returns.
    return {name: json.loads(dumps_canonical(doc)) for name, doc in
            {"proposals": scene, "params": params, "config": config, "graph": graph}.items()}


DOCUMENTS = valid_documents()


def paths(value, prefix=()):
    """Every path into a nested JSON value, the root included."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from paths(item, prefix + (key,))
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from paths(item, prefix + (k,))


@st.composite
def mutated(draw):
    name = draw(st.sampled_from(sorted(DOCUMENTS)))
    document = copy.deepcopy(DOCUMENTS[name])
    path = draw(st.sampled_from(list(paths(document))))
    if not path:
        return name, draw(st.sampled_from(REPLACEMENTS))
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(st.sampled_from(REPLACEMENTS))
    return name, document


def commands(directory: str, name: str) -> list[list[str]]:
    files = {key: os.path.join(directory, f"{key}.json") for key in DOCUMENTS}
    if name == "graph":
        return [["graph", "components", "--input", files["graph"], "--min-size", "2"],
                ["cut", "ncut", "--input", files["graph"], "--brute-force"]]
    output = ["--output", os.path.join(directory, "out.json")]
    forward = ["forward", "--input", files["proposals"], "--params", files["params"],
               "--config", files["config"]] + output
    if name == "params":
        return [forward]
    pool = ["pool", "gcpool", "--input", files["proposals"], "--config", files["config"]]
    return [forward, pool + output]


def texts(name: str, document) -> list[str]:
    """The document as json.dumps writes it and, for proposals, as save_proposals would."""
    if name != "proposals":
        return [json.dumps(document)]
    try:
        return [json.dumps(document), dumps_canonical(document)]
    except InputError:  # a non-finite number, which has no canonical text
        return [json.dumps(document)]


@given(mutated())
@settings(max_examples=300, deadline=None)
def test_malformed_documents_exit_cleanly(case):
    name, document = case
    for text in texts(name, document):
        exit_cleanly(name, text)


def exit_cleanly(name: str, text: str) -> None:
    with tempfile.TemporaryDirectory() as directory:
        for key, valid in DOCUMENTS.items():
            with open(os.path.join(directory, f"{key}.json"), "w", encoding="utf-8") as stream:
                stream.write(text if key == name else json.dumps(valid))
        inputs = sorted(os.listdir(directory))
        for argv in commands(directory, name):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                code = run_command(argv)
            assert code in (0, 1), (argv, err.getvalue())
            if code == 1:
                assert err.getvalue().startswith("error: ")
                assert sorted(os.listdir(directory)) == inputs
            elif "out.json" in os.listdir(directory):
                os.unlink(os.path.join(directory, "out.json"))
