"""Tests of the benchmark itself: smoke runs, the oracle, the tracer, the guards.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
# Absolute paths, so the tests work from any working directory.
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import propgraph  # noqa: E402
import propgraph.pooling  # noqa: E402
import propgraph.spectral  # noqa: E402
from oracle import SceneOracle, content_problems, file_digest  # noqa: E402
from tracer import OpProfile, Tracer  # noqa: E402
from workloads import WORKLOADS, intent_problems  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "123", "--seconds", "0",
                     "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))


def test_run_without_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "split-scene", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _write_output(path: Path, features: np.ndarray, ids=None) -> None:
    ids = list(range(len(features))) if ids is None else ids
    path.write_text(json.dumps({"ids": ids, "features": features.tolist()}) + "\n")


def _report(path: Path) -> dict:
    return {"digests": {str(path): file_digest(str(path))}}


@pytest.fixture
def features():
    return np.random.default_rng(7).normal(size=(20, 4))


def test_oracle_accepts_moment_matched_output(tmp_path, features):
    out = tmp_path / "out.json"
    _write_output(out, features[::-1].copy(), ids=list(range(20)))
    assert content_problems(str(out), features) == []


@pytest.mark.parametrize("perturb", ["value", "nan", "ids", "shape"])
def test_oracle_rejects_perturbed_output(tmp_path, features, perturb):
    out = features.copy()
    ids = list(range(20))
    if perturb == "value":
        out[3, 1] += 1e-3
    elif perturb == "nan":
        out[0, 0] = float("nan")
    elif perturb == "ids":
        ids[0], ids[1] = ids[1], ids[0]
    else:
        out = out[:, :3]
    path = tmp_path / "out.json"
    path.write_text(json.dumps({"ids": ids, "features": out.tolist()}))
    assert content_problems(str(path), features)


def test_oracle_rejects_repeats_that_differ(tmp_path, features):
    oracle = SceneOracle(features)
    first = tmp_path / "first.json"
    _write_output(first, features)
    assert oracle.check(0, _report(first), str(first)) == []
    assert oracle.check(0, _report(first), str(first)) == []
    # Same values, other bytes: a repeat must reproduce the first output exactly.
    second = tmp_path / "second.json"
    second.write_text(json.dumps({"ids": list(range(20)), "features": features.tolist()},
                                  indent=1))
    problems = oracle.check(0, _report(second), str(second))
    assert any("differs from the first repeat" in p for p in problems)


def test_oracle_rejects_failed_exit_and_wrong_report_digest(tmp_path, features):
    path = tmp_path / "out.json"
    _write_output(path, features)
    assert SceneOracle(features).check(1, _report(path), str(path)) == ["exit code 1"]
    bad_report = {"digests": {str(path): "0" * 64}}
    assert SceneOracle(features).check(0, bad_report, str(path))


def test_tracer_wraps_every_namespace_and_restores_originals():
    original = propgraph.spectral.recursive_ncut
    assert propgraph.pooling.recursive_ncut is original
    g = propgraph.graph_from_edges(4, [(0, 1, 1.0), (1, 2, 0.1), (2, 3, 1.0)])
    tracer = Tracer("unit")
    with tracer:
        assert propgraph.pooling.recursive_ncut is not original
        assert propgraph.recursive_ncut is not original
        propgraph.pooling.gcpool(g, min_size=1, stop_ncut=0.5)
    assert propgraph.pooling.recursive_ncut is original
    assert propgraph.spectral.recursive_ncut is original
    assert propgraph.recursive_ncut is original
    profile = OpProfile(tracer.spans)
    assert profile.calls("spectral.recursive_ncut") == 1
    assert profile.calls("spectral.symmetric_eigendecomposition") >= 1
    assert profile.accepted_splits() == 1
    # Self times partition the root span's wall time.
    root = next(s for s in tracer.spans if s.parent is None)
    assert sum(profile.self_time.values()) == pytest.approx(root.duration)


def test_intent_guards_reject_a_changed_workload():
    counts = {"components": 40, "parts": 41, "filtered": 0}
    assert intent_problems(WORKLOADS["tight-clusters"], counts, 41, 1)
    assert intent_problems(WORKLOADS["split-scene"], {"filtered": 0}, 10, 3)
    assert intent_problems(WORKLOADS["split-scene"], {"filtered": 5}, 10, 0)
    assert intent_problems(WORKLOADS["wide-nopool"], {}, 1, 0)
    assert not intent_problems(WORKLOADS["tight-clusters"],
                               {"components": 40, "parts": 40, "filtered": 0}, 40, 0)
