import dataclasses
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from propgraph import (
    AttentionDegrees,
    AttentionParams,
    InputError,
    Partition,
    PipelineConfig,
    attention_gradients,
    build_graph,
    connected_components,
    gcpool,
    graph_from_edges,
    multi_head_attend,
    two_way_ncut,
)
from propgraph import attention, cli, geometry, graph, pipeline, spectral
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
    save_graph,
    save_params,
    save_proposals,
    write_json,
)
from propgraph.oracles import reference_augment_with_coarse, reference_gcpool
from propgraph.synthetic import generate_proposals

from conftest import run_cli


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
        ),
    ))
    @settings(max_examples=200, deadline=None)
    def test_float_arrays_encode_like_their_elements(self, array):
        # The nested-list path formats one Python float at a time.
        assert dumps_canonical(array) == dumps_canonical(array.tolist())
        assert dumps_canonical({"f": array}) == dumps_canonical({"f": array.tolist()})

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


class TestGraphFiles:
    def test_round_trip(self, tmp_path):
        doc = generate_proposals(clusters=2, per_cluster=4, seed=1)
        g = build_graph(doc.normalized_boxes(), doc.feature_matrix(), 0.3)
        path = str(tmp_path / "graph.json")
        save_graph(g, path)
        loaded = graph_from_dict(json.loads(open(path).read()))
        assert loaded.num_nodes == g.num_nodes
        assert loaded.edges() == g.edges()
        assert list(loaded.node_ids) == list(g.node_ids)

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
    ])
    def test_malformed_params_rejected(self, tmp_path, capsys, edit, field):
        doc = generate_proposals(1, 4, seed=0, feature_dim=2)
        save_proposals(doc, str(tmp_path / "scene.json"))
        (tmp_path / "config.json").write_text("{}")
        data = json.loads(dumps_canonical(
            params_to_dict(AttentionParams.initialize(2, head_count=2, output_dim=2, seed=0))))
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
        assert np.array_equal(loaded.score_weights, params.score_weights)
        assert np.array_equal(loaded.score_bias, params.score_bias)
        assert np.array_equal(loaded.output_projection, params.output_projection)


class TestConfigFiles:
    def test_lambda_spelling_and_defaults(self, tmp_path):
        path = str(tmp_path / "config.json")
        write_json(path, {"lambda": 0.25, "min_size": 4})
        config = load_config(path)
        assert config.lambda_ == 0.25
        assert config.min_size == 4
        assert config.stop_ncut == PipelineConfig().stop_ncut

    def test_unknown_key_rejected(self, tmp_path):
        path = str(tmp_path / "config.json")
        write_json(path, {"stop_cut": 0.4})
        with pytest.raises(InputError, match="stop_cut"):
            load_config(path)

    def test_to_dict_round_trips(self):
        config = PipelineConfig(lambda_=2.0, dense_attention=True)
        assert PipelineConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize("field", ["seed", "head_count", "eig_tol", "eig_max_sweeps"])
    def test_removed_fields_rejected(self, field):
        with pytest.raises(InputError, match=field):
            PipelineConfig.from_dict({field: 0})

    @pytest.mark.parametrize("field, value", [
        ("min_size", 2.5), ("min_part", True), ("eig_max_sweeps", "100"),
        ("iou_thr", True), ("lambda", "1"), ("eig_tol", None),
        ("dense_attention", 1), ("iou_bias", "true"), ("per_channel", 0.0),
        ("norm_mode", 1), ("eig_tol", float("inf")),
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
            sizes[thr] = connected_components(load_graph(graph_file)).sizes.tolist()
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
        counts = {}
        for dense in (False, True):
            (tmp_path / "config.json").write_text(
                json.dumps({"iou_thr": 0.5, "dense_attention": dense}))
            for name, argv in {"attend": ["attend"], "forward": ["forward"],
                               "no-gcpool": ["forward", "--no-gcpool"]}.items():
                output = tmp_path / f"{name}-{dense}.json"
                assert run_command(argv + inputs + ["--output", str(output)]) == 0
                report = json.loads(capsys.readouterr().out)
                counts[name, dense] = {key: report["counts"][key] for key in expected}
                # the statistics stay out of the output files
                assert set(json.loads(output.read_text())) == {"ids", "features"}
        assert counts["attend", False] == counts["no-gcpool", False] == expected
        # pooling adds coarse nodes, which attend to their whole part
        pooled = counts["forward", False]
        assert pooled["attention_workers"] == 2
        assert pooled["attention_max_degree"] > expected["attention_max_degree"]
        assert pooled["attention_min_degree"] <= pooled["attention_median_degree"] \
            <= pooled["attention_max_degree"]
        for name in ("attend", "no-gcpool"):
            assert counts[name, True] == {
                "attention_min_degree": 60, "attention_median_degree": 60.0,
                "attention_max_degree": 60, "attention_buckets": 1,
                # one dense block of 60 rows runs inline
                "attention_workers": 1,
            }

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
            raise AssertionError("subgraph or index_of called on the forward path")

        monkeypatch.setattr(graph.ProposalGraph, "subgraph", refuse)
        monkeypatch.setattr(graph.ProposalGraph, "index_of", refuse)
        got, counts = forward_bytes()
        assert got == expected and counts == expected_counts
        # The scene sweeps components and filters proposals, so every pooling step ran.
        assert counts["fiedler_certified"] > 0 and counts["filtered"] > 0 and counts["coarse"] > 0

    @pytest.mark.parametrize("kind", ["proposals", "params", "config", "graph"])
    def test_non_utf8_file_exits_one_naming_it(self, tmp_path, capsys, kind):
        scene, params, config = (str(tmp_path / name) for name in
                                 ("scene.json", "params.json", "config.json"))
        assert run_command(["gen", "--clusters", "1", "--per-cluster", "3", "--seed", "0",
                            "--feature-dim", "2", "--output", scene]) == 0
        save_params(AttentionParams.initialize(2, seed=0), params)
        (tmp_path / "config.json").write_text("{}")
        save_graph(graph_from_edges(2, [(0, 1, 0.5)]), str(tmp_path / "graph.json"))
        bad = tmp_path / ("scene.json" if kind == "proposals" else f"{kind}.json")
        bad.write_bytes(b'{"image_id": "\xff"}')
        inputs = sorted(os.listdir(tmp_path))
        output = ["--output", str(tmp_path / "out.json")]
        argv = {
            "proposals": ["graph", "build", "--input", scene, "--iou-thr", "0.3", *output],
            "params": ["forward", "--input", scene, "--params", params, "--config", config,
                       *output],
            "config": ["pool", "gcpool", "--input", scene, "--config", config, *output],
            "graph": ["graph", "components", "--input", str(bad), "--min-size", "1"],
        }[kind]
        capsys.readouterr()
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}: not UTF-8")
        assert sorted(os.listdir(tmp_path)) == inputs

    def test_commands_run_without_the_reference_box_type(self, tmp_path, capsys, monkeypatch):
        def refuse(self):
            raise AssertionError("BoundingBox built on the CLI path")

        monkeypatch.setattr(geometry.BoundingBox, "__post_init__", refuse)
        with pytest.raises(AssertionError):
            geometry.BoundingBox(0.0, 0.0, 1.0, 1.0)
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
        save_graph(graph_from_edges(3, []), str(tmp_path / "g.json"))
        assert run_command(["cut", "ncut", "--input", str(tmp_path / "g.json"), flag, value]) == 1
        assert flag[2:].replace("-", "_") in capsys.readouterr().err

    def test_help_exits_zero(self):
        assert run_command(["--help"]) == 0
