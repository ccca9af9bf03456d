"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one ``criterion N PASS/FAIL`` line (visible with
``pytest -s tests/test_acceptance.py``) and asserts the criterion itself,
so a red test is a failed criterion. Run times are desk-scale: the whole
module finishes in well under a minute.
"""

import json
import os
import time
from contextlib import contextmanager

import numpy as np

from propgraph import (
    AttentionParams,
    PipelineConfig,
    attendable_pairs,
    attention_gradients,
    brute_force_ncut,
    build_graph,
    finite_difference_gradients,
    forward,
    gcpool,
    generate_proposals,
    graph_from_edges,
    identical_normalize,
    ncut_value,
    normalized_laplacian,
    symmetric_eigendecomposition,
    two_way_ncut,
)
from propgraph import spectral
from propgraph.attention import multi_head_attend
from propgraph.io import ProposalDocument, save_params, save_proposals
from propgraph.oracles import (
    bridged_cliques,
    edge_enumeration_ncut,
    max_relative_error,
    random_connected_graph,
)
from propgraph.spectral import Partition

from conftest import (
    pair_matrix, pair_scores, permuted_graph, run_cli, shifted_row, spy_tie_route, weight_matrix,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL: {description}", flush=True)
        raise
    print(f"criterion {number} PASS: {description}", flush=True)


def test_criterion_1_ncut_oracle_agreement():
    with criterion(1, "spectral bipartition equals the exhaustive optimum on bridged cliques"):
        rng = np.random.default_rng(1001)
        start = time.perf_counter()
        for _ in range(100):
            k = int(rng.choice([3, 4, 5]))
            g = bridged_cliques(k, float(rng.uniform(0.01, 0.2)))
            partition, report = two_way_ncut(g)
            oracle_partition, oracle_report = brute_force_ncut(g)
            assert np.array_equal(partition.labels, oracle_partition.labels)
            assert abs(report.ncut_value - oracle_report.ncut_value) <= 1e-10
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"structured family took {elapsed:.2f}s"


def test_criterion_2_ncut_evaluation_correctness():
    with criterion(2, "objective evaluation matches direct edge enumeration"):
        rng = np.random.default_rng(1002)
        checked = 0
        while checked < 500:
            n = int(rng.integers(2, 11))
            g = random_connected_graph(rng, n)
            labels = np.asarray(rng.integers(0, 2, size=n), dtype=np.int64)
            if labels.min() == labels.max():
                continue
            partition = Partition(labels=np.where(labels == labels[0], 0, 1), set_count=2)
            report = ncut_value(g, partition)
            assert abs(report.ncut_value - edge_enumeration_ncut(g, partition)) <= 1e-12
            checked += 1
        # the path-of-4 optimum is exactly 2/3, by both routes
        path4 = graph_from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        _, spectral = two_way_ncut(path4)
        _, exhaustive = brute_force_ncut(path4)
        assert spectral.ncut_value == 2.0 / 3.0
        assert exhaustive.ncut_value == 2.0 / 3.0


def test_criterion_3_eigensolver_quality():
    with criterion(3, "eigensolver residual <= 1e-9, spectrum within [0, 2]"):
        rng = np.random.default_rng(1003)
        for _ in range(200):
            n = int(rng.integers(2, 65))
            g = random_connected_graph(rng, n)
            lap = normalized_laplacian(g)
            values, vectors = symmetric_eigendecomposition(lap)
            residual = np.max(np.abs(lap @ vectors - vectors * values))
            assert residual <= 1e-9
            assert abs(values[0]) <= 1e-9
            assert values[0] >= -1e-9 and values[-1] <= 2.0 + 1e-9


def test_criterion_4_attention_invariants():
    with criterion(4, "softmax rows, convex hull, shift invariance, permutation equivariance"):
        rng = np.random.default_rng(1004)
        for _ in range(100):
            m = int(rng.integers(2, 51))
            d = int(rng.integers(2, 6))
            g = random_connected_graph(rng, m, features=d)
            params = AttentionParams.initialize(d, seed=int(rng.integers(0, 2**31)))
            dense = bool(rng.integers(0, 2))
            pairs = attendable_pairs(g, dense_attention=dense)
            weights = weight_matrix(pairs, pair_scores(g.features, params, pairs))
            assert np.max(np.abs(weights.sum(axis=1) - 1.0)) <= 1e-9
            out = multi_head_attend(g.features, params, g, dense_attention=dense)
            mask = pair_matrix(pairs, True, fill=False)
            for i in range(m):
                idx = np.flatnonzero(mask[i])
                assert np.all(out[i] >= g.features[idx].min(axis=0))
                assert np.all(out[i] <= g.features[idx].max(axis=0))
            # shift invariance: of every score through the bias, then of one row
            shift = float(rng.uniform(-20, 20))
            moved = AttentionParams(score_weights=params.score_weights,
                                    score_bias=params.score_bias + shift)
            moved_out = multi_head_attend(g.features, moved, g, dense_attention=dense)
            assert np.max(np.abs(moved_out - out)) <= 1e-12
            row = int(rng.integers(0, m))
            with shifted_row(row, shift):
                shifted = multi_head_attend(g.features, params, g, dense_attention=dense)
            assert np.max(np.abs(shifted[row] - out[row])) <= 1e-12
            others = np.delete(np.arange(m), row)
            assert shifted[others].tobytes() == out[others].tobytes()
            # exact permutation equivariance
            perm = rng.permutation(m)
            permuted_g = permuted_graph(g, perm)
            permuted = multi_head_attend(permuted_g.features, params, permuted_g,
                                         dense_attention=dense)
            assert np.array_equal(permuted, out[perm])


def test_criterion_5_gradient_check():
    with criterion(5, "analytic gradients match central finite differences (<1e-5)"):
        rng = np.random.default_rng(1005)
        worst = 0.0
        for trial in range(50):
            m = int(rng.integers(2, 9))
            d = int(rng.integers(2, 7))
            heads = int(rng.choice([1, 2, 4]))
            g = random_connected_graph(rng, m, features=d)
            out_dim = int(rng.integers(2, 7)) if trial % 2 == 0 else None
            params = AttentionParams.initialize(
                d, head_count=heads, output_dim=out_dim, seed=int(rng.integers(0, 2**31))
            )
            upstream = rng.normal(size=(m, params.output_dim))
            analytic = attention_gradients(g.features, params, g, upstream)
            numeric = finite_difference_gradients(g.features, params, g, upstream, step=1e-5)
            worst = max(worst, max_relative_error(analytic, numeric))
        assert worst < 1e-5, f"worst relative gradient error {worst:.3e}"


def test_criterion_6_identical_normalization():
    with criterion(6, "moment matching preserves mean/variance; lambda=0 is identity"):
        rng = np.random.default_rng(1006)
        for _ in range(100):
            m = int(rng.integers(2, 40))
            d = int(rng.integers(1, 16))
            original = rng.normal(rng.uniform(-5, 5), rng.uniform(0.2, 4.0), size=(m, d))
            refined = rng.normal(size=(m, d))
            lam = float(rng.uniform(0.0, 4.0))
            out = identical_normalize(refined, original, lambda_=lam, epsilon=1e-8)
            assert abs(out.mean() - original.mean()) < 1e-9
            assert abs(out.var() / original.var() - 1.0) < 1e-6
            gated = identical_normalize(refined, original, lambda_=0.0, epsilon=1e-8)
            assert np.max(np.abs(gated - original)) < 1e-9


def test_criterion_7_gcpool_structural_recovery():
    with criterion(7, "gcpool recovers c clusters as c coarse nodes on >=95/100 scenes"):
        config = PipelineConfig()
        successes = 0
        for seed in range(100):
            c = 2 + seed % 3
            doc = generate_proposals(clusters=c, per_cluster=8, seed=seed, feature_dim=5)
            g = build_graph(doc.normalized_boxes(), doc.feature_matrix(), config.iou_thr)
            labeling, coarse = gcpool(
                g, min_size=config.min_size, stop_ncut=config.stop_ncut,
                min_part=config.min_part,
            )
            if labeling.part_count != c or coarse.shape[0] != c:
                continue
            exact = all(
                np.max(np.abs(feature
                              - g.features[labeling.labels == k].mean(axis=0))) <= 1e-12
                for k, feature in enumerate(coarse)
            )
            if exact:
                successes += 1
        assert successes >= 95, f"only {successes}/100 scenes recovered"


def test_criterion_8_forward_determinism(tmp_path):
    with criterion(8, "forward output files are byte-identical across reruns and thread counts"):
        proc = run_cli(
            ["gen", "--clusters", "25", "--per-cluster", "20", "--seed", "42",
             "--feature-dim", "16", "--output", "scene.json"],
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        proc = run_cli(
            ["params", "init", "--feature-dim", "16", "--heads", "1", "--out-dim", "16",
             "--seed", "0", "--output", "params.json"],
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        (tmp_path / "config.json").write_text("{}")
        runs = [("a.json", "1", None), ("b.json", "4", None), ("c.json", "2", None)]
        if hasattr(os, "sched_setaffinity"):
            # Pinned to one CPU, attention runs its blocks inline.
            cpu = min(os.sched_getaffinity(0))
            runs.append(("d.json", "2", lambda: os.sched_setaffinity(0, {cpu})))
        outputs = []
        for name, threads, preexec_fn in runs:
            proc = run_cli(
                ["forward", "--input", "scene.json", "--params", "params.json",
                 "--config", "config.json", "--output", name],
                cwd=tmp_path,
                env_extra={
                    "OMP_NUM_THREADS": threads,
                    "OPENBLAS_NUM_THREADS": threads,
                    "MKL_NUM_THREADS": threads,
                },
                preexec_fn=preexec_fn,
            )
            assert proc.returncode == 0, proc.stderr
            if preexec_fn is not None:
                assert json.loads(proc.stdout)["counts"]["attention_workers"] == 1
            outputs.append((tmp_path / name).read_bytes())
        assert all(output == outputs[0] for output in outputs[1:])
        assert len(json.loads(outputs[0])["ids"]) == 500


def test_criterion_8_certified_components_across_thread_counts(tmp_path, monkeypatch):
    with criterion(8, "scenes settled by LAPACK's certified lambda_2 and Fiedler vectors "
                      "are byte-identical across thread counts"):
        # Both 200-node tight components are settled by LAPACK's lambda_2
        # alone; the loose scene splits along certified LAPACK Fiedler vectors.
        # Twinning its first box ties Fiedler entries, and sets with those ties
        # are settled by sweeping every order of the tied nodes.
        loose = generate_proposals(clusters=4, per_cluster=60, seed=42, feature_dim=16,
                                   jitter=0.24)
        twinned = ProposalDocument(
            image_id=loose.image_id, width=loose.width, height=loose.height,
            pixel_boxes=np.vstack([loose.pixel_boxes, loose.pixel_boxes[:1]]),
            features=np.vstack([loose.features, loose.features[:1]]),
        )
        scenes = {
            "tight": (generate_proposals(clusters=2, per_cluster=200, seed=42, feature_dim=16),
                      PipelineConfig()),
            "loose": (loose, PipelineConfig(iou_thr=0.5)),
            "twinned": (twinned, PipelineConfig(iou_thr=0.5)),
        }
        params = AttentionParams.initialize(16, head_count=1, output_dim=16, seed=0)
        save_params(params, str(tmp_path / "params.json"))
        solves = []
        solver = spectral.symmetric_eigendecomposition

        def counting_solver(*args, **kwargs):
            solves.append(args[0].shape)
            return solver(*args, **kwargs)

        monkeypatch.setattr(spectral, "symmetric_eigendecomposition", counting_solver)
        tie_settled = spy_tie_route(monkeypatch)
        for name, (doc, config) in scenes.items():
            solves.clear()
            tie_settled.clear()
            save_proposals(doc, str(tmp_path / f"{name}.json"))
            (tmp_path / f"{name}-config.json").write_text(
                json.dumps({"iou_thr": config.iou_thr}))
            labeling = forward(doc.normalized_boxes(), doc.feature_matrix(), params,
                               config).diagnostics.labeling
            if name == "tight":
                assert labeling.part_count == 2 and solves == []
            else:
                # more parts than components: some split was accepted
                assert labeling.part_count > labeling.component_count
                assert labeling.solves.fiedler_certified > 0
            if name == "twinned":
                assert tie_settled and solves == []
                assert labeling.solves.jacobi_fallbacks == 0
            outputs = []
            for threads in ("1", "2"):
                output = f"{name}-{threads}.json"
                proc = run_cli(
                    ["forward", "--input", f"{name}.json", "--params", "params.json",
                     "--config", f"{name}-config.json", "--output", output],
                    cwd=tmp_path,
                    env_extra={"OMP_NUM_THREADS": threads, "OPENBLAS_NUM_THREADS": threads},
                )
                assert proc.returncode == 0, proc.stderr
                outputs.append((tmp_path / output).read_bytes())
            assert outputs[0] == outputs[1]
            assert len(json.loads(outputs[0])["ids"]) == doc.num_proposals


def test_criterion_9_throughput(tmp_path):
    with criterion(9, "forward on 2000 proposals with 64-dim features in under 10 s"):
        doc = generate_proposals(clusters=40, per_cluster=50, seed=123, feature_dim=64)
        params = AttentionParams.initialize(64, head_count=1, output_dim=64, seed=0)
        config = PipelineConfig()
        boxes, feats = doc.normalized_boxes(), doc.feature_matrix()

        start = time.perf_counter()
        result = forward(boxes, feats, params, config)
        elapsed = time.perf_counter() - start
        assert result.features.shape == (2000, 64)
        assert elapsed < 10.0, f"forward took {elapsed:.2f}s"
        # the CLI records per-stage timings in its run report
        save_proposals(doc, str(tmp_path / "scene.json"))
        save_params(params, str(tmp_path / "params.json"))
        (tmp_path / "config.json").write_text("{}")
        proc = run_cli(
            ["forward", "--input", "scene.json", "--params", "params.json",
             "--config", "config.json", "--output", "refined.json"],
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert "forward" in report["timings_ms"]
        assert report["timings_ms"]["forward"] < 10_000.0


def test_criterion_examples_multi_head_shape():
    # companion check for the attention configuration used at detector scale
    rng = np.random.default_rng(9)
    g = random_connected_graph(rng, 5, features=7)
    params = AttentionParams.initialize(7, head_count=8, output_dim=1024, seed=0)
    assert multi_head_attend(g.features, params, g).shape == (5, 1024)
