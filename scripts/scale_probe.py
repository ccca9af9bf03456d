#!/usr/bin/env python3
"""Report CLI ``forward`` wall time, edge count and peak RSS as scenes grow.

Scenes ``CxN`` are C clusters of N tight proposals (jitter 0.02).
``loose16x60`` is 16 clusters of 60 loose proposals (jitter 0.24) whose
graph keeps IoU > 0.5: at a given seed, the benchmark's split-scene scene 0.
``chain100`` is 100 equal boxes, 0.001 of the image wide and high, each
0.0003 right of the last: one translation-symmetric component whose splits
all fall back to the Jacobi eigensolver. ``1x3000`` is one tight cluster
of 3,000 proposals: a near-clique that the edge-list lambda_2 bound keeps
whole without building its 3,000 x 3,000 dense blocks. ``tall400x50`` is
400x50 plus one box over the whole image: every box then lies in one strip
of the full image's height, so the IoU graph is swept on x alone, and the
line beside 400x50's shows what that costs. Every scene has
64-dim features and 4 projected attention heads. It runs in a fresh child process, once with
graph-cut pooling and once without, so each line's ``ru_maxrss`` belongs to
that run alone. Each line shows the CLI report's ``timings_ms``: ``load``
and ``write``, the JSON I/O share of the run, and the ``graph``, ``pool``,
``attend`` and ``normalize`` stages of the forward. ``2000x50`` (100,000
proposals, 2.45M edges, a 150 MB proposal file) runs only when named. The
probe reports and gates nothing.

Usage: PYTHONPATH=src python3 scripts/scale_probe.py [--scene 1x400 4x400 1x3000 400x50 tall400x50 chain100 loose16x60 2000x50] [--seed 123]
"""

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

SCENES = {"1x400": (1, 400), "4x400": (4, 400), "1x3000": (1, 3000), "400x50": (400, 50),
          "chain100": (1, 100), "loose16x60": (16, 60), "2000x50": (2000, 50),
          "tall400x50": (400, 50)}
DEFAULT_SCENES = ["1x400", "4x400", "400x50", "chain100", "loose16x60"]
# The loose scenes' jitter and config; every other scene has jitter 0.02 and
# the default config.
LOOSE = {"loose16x60": (0.24, {"iou_thr": 0.5})}
FEATURE_DIM = 64
HEADS = 4
# Image side, in pixels, of the chain scene.
CHAIN_IMAGE = 10000


def make_scene(scene: str, seed: int):
    """The scene's proposal document."""
    import numpy as np
    from propgraph import generate_proposals
    from propgraph.io import ProposalDocument

    clusters, per_cluster = SCENES[scene]
    if scene != "chain100":
        jitter = LOOSE[scene][0] if scene in LOOSE else 0.02
        doc = generate_proposals(clusters=clusters, per_cluster=per_cluster, seed=seed,
                                 feature_dim=FEATURE_DIM, jitter=jitter)
        if scene != "tall400x50":
            return doc
        whole = [[0.0, 0.0, doc.width, doc.height]]
        feature = np.random.default_rng(seed).normal(size=(1, FEATURE_DIM))
        return ProposalDocument(image_id=scene, width=doc.width, height=doc.height,
                                pixel_boxes=np.vstack([doc.pixel_boxes, whole]),
                                features=np.vstack([doc.features, feature]))
    x1 = 3.0 * np.arange(per_cluster)
    boxes = np.stack([x1, np.zeros_like(x1), x1 + 10.0, np.full_like(x1, 10.0)], axis=1)
    features = np.random.default_rng(seed).normal(size=(per_cluster, FEATURE_DIM))
    return ProposalDocument(image_id=scene, width=CHAIN_IMAGE, height=CHAIN_IMAGE,
                            pixel_boxes=boxes, features=features)


def run_scene(scene: str, seed: int, gcpool: bool) -> dict:
    """Write the scene's files, time one in-process CLI ``forward`` and read its report."""
    from propgraph import AttentionParams
    from propgraph import io as pio
    from propgraph.cli import run_command

    config = LOOSE[scene][1] if scene in LOOSE else {}
    with tempfile.TemporaryDirectory() as directory:
        paths = {kind: os.path.join(directory, f"{kind}.json")
                 for kind in ("input", "params", "config", "output")}
        doc = make_scene(scene, seed)
        pio.save_proposals(doc, paths["input"])
        pio.save_params(AttentionParams.initialize(FEATURE_DIM, head_count=HEADS,
                                                   output_dim=FEATURE_DIM, seed=seed),
                        paths["params"])
        with open(paths["config"], "w", encoding="utf-8") as stream:
            json.dump(config, stream)
        argv = ["forward", "--input", paths["input"], "--params", paths["params"],
                "--config", paths["config"], "--output", paths["output"]]
        if not gcpool:
            argv.append("--no-gcpool")
        stdout = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout):
            code = run_command(argv)
        wall = time.perf_counter() - start
    report = json.loads(stdout.getvalue()) if code == 0 else {}
    counts = report.get("counts", {})
    timings_ms = report.get("timings_ms", {})
    row = {
        "scene": scene,
        "gcpool": gcpool,
        "exit": code,
        "proposals": doc.num_proposals,
        "edges": counts.get("edges"),
        "jacobi_fallbacks": counts.get("jacobi_fallbacks"),
        "forward_s": round(wall, 3),
        "timings_ms": timings_ms,
        # Linux reports ru_maxrss in KiB.
        "maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }
    return row


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scene", nargs="+", choices=sorted(SCENES), default=DEFAULT_SCENES)
    parser.add_argument("--seed", type=int, default=123)
    parser.add_argument("--child", choices=("gcpool", "no-gcpool"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(run_scene(args.scene[0], args.seed, args.child == "gcpool")))
        return
    for scene in args.scene:
        for mode in ("gcpool", "no-gcpool"):
            child = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--scene", scene,
                 "--seed", str(args.seed), "--child", mode],
                capture_output=True, text=True,
            )
            if child.returncode != 0:
                print(f"{scene} {mode}: child failed with exit {child.returncode}\n{child.stderr}")
                continue
            row = json.loads(child.stdout)
            stages = "".join(f"  {name} {ms:.0f}" for name, ms in row["timings_ms"].items()
                             if name != "forward")
            print(f"{scene:>10} {mode:>9}: {row['proposals']:>6} proposals "
                  f"{row['edges']} edges  {row['jacobi_fallbacks']} Jacobi fallbacks  "
                  f"forward {row['forward_s']:.3f} s  "
                  f"maxrss {row['maxrss_mb']:.1f} MB  exit {row['exit']}"
                  f"{'  ms:' if stages else ''}{stages}")


if __name__ == "__main__":
    main()
