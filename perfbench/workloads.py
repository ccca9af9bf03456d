"""Benchmark workloads: seeded scenes, their files, and intent guards.

Every workload is a closed loop with one caller and one CLI ``forward`` at a
time. A run sets up ``Workload.scenes`` scenes from its seed and cycles
through them, at least one op per scene. Cost varies from scene to scene
when components split, so split-scene averages over more scenes than the
two workloads whose clusters are alike. Scene 0 uses the run seed itself;
the others use seeds spawned from it, so runs with nearby seeds share no
scene.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from propgraph import AttentionParams, generate_proposals
from propgraph import io as pio

FEATURE_DIM = 64
DEFAULT_SEED = 123
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
# Report counts that must equal the recorded reference on the default seed.
REFERENCE_KEYS = ("edges", "components", "filtered", "parts", "coarse")
# Clusters per scene in the reduced runs the benchmark's own tests make.
TINY_CLUSTERS = 4


@dataclass(frozen=True)
class Workload:
    name: str
    clusters: int
    per_cluster: int
    jitter: float
    heads: int
    gcpool: bool = True
    config: dict = field(default_factory=dict)
    scenes: int = 2


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="tight-clusters",
        clusters=40, per_cluster=50, jitter=0.02, heads=1,
    ),
    Workload(
        name="split-scene",
        clusters=16, per_cluster=60, jitter=0.24, heads=1, config={"iou_thr": 0.5},
        scenes=4,
    ),
    Workload(
        name="wide-nopool",
        clusters=100, per_cluster=50, jitter=0.02, heads=4, gcpool=False,
    ),
)}


@dataclass
class Scene:
    index: int
    features: np.ndarray
    argv: list[str]
    output: str

    @property
    def proposals(self) -> int:
        return int(self.features.shape[0])


def scene_seeds(seed: int, count: int) -> list[int]:
    spawned = np.random.SeedSequence(seed).spawn(count - 1)
    return [seed] + [int(s.generate_state(1)[0]) for s in spawned]


def write_scene(workload: Workload, index: int, seed: int, directory: str,
                tiny: bool = False) -> Scene:
    """Generate one scene and write its proposal, params and config files."""
    doc = generate_proposals(
        clusters=TINY_CLUSTERS if tiny else workload.clusters,
        per_cluster=workload.per_cluster, seed=seed,
        feature_dim=FEATURE_DIM, jitter=workload.jitter,
    )
    params = AttentionParams.initialize(
        FEATURE_DIM, head_count=workload.heads,
        output_dim=FEATURE_DIM if workload.heads > 1 else None, seed=seed,
    )
    prefix = os.path.join(directory, f"scene{index}")
    paths = {kind: f"{prefix}-{kind}.json" for kind in ("input", "params", "config", "output")}
    pio.save_proposals(doc, paths["input"])
    pio.save_params(params, paths["params"])
    with open(paths["config"], "w", encoding="utf-8") as stream:
        json.dump(workload.config, stream)
    argv = ["forward", "--input", paths["input"], "--params", paths["params"],
            "--config", paths["config"], "--output", paths["output"]]
    if not workload.gcpool:
        argv.append("--no-gcpool")
    return Scene(index=index, features=doc.feature_matrix(), argv=argv, output=paths["output"])


def intent_problems(workload: Workload, counts: dict, eig_calls: int, accepted: int) -> list[str]:
    """Reasons a scene no longer exercises what its workload is for.

    ``counts`` is the CLI report's counts; ``eig_calls`` and ``accepted``
    come from a traced forward. A certified no-split early exit may skip
    eigensolves, so tight-clusters bounds eigensolves from above only.
    """
    problems = []
    if workload.name == "tight-clusters":
        if eig_calls > counts["components"]:
            problems.append(f"{eig_calls} eigensolves for {counts['components']} components")
        if accepted or counts["parts"] != counts["components"] or counts["filtered"]:
            problems.append(f"{accepted} accepted splits, {counts['parts']} parts for "
                            f"{counts['components']} components, {counts['filtered']} filtered")
    elif workload.name == "split-scene":
        if accepted < 1:
            problems.append("no split accepted")
        if counts["filtered"] < 1:
            problems.append("no proposal filtered")
    elif workload.name == "wide-nopool":
        if eig_calls:
            problems.append(f"{eig_calls} eigensolves without pooling")
    return problems


def load_reference() -> dict:
    with open(REFERENCE_FILE, "r", encoding="utf-8") as stream:
        return json.load(stream)


def reference_problems(reference: dict, workload: Workload, scene: Scene, counts: dict) -> list[str]:
    expected = reference[workload.name][scene.index]
    return [
        f"report {key} = {counts.get(key)}, reference {expected[key]}"
        for key in REFERENCE_KEYS if counts.get(key) != expected[key]
    ]
