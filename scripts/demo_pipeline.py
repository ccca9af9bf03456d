#!/usr/bin/env python3
"""Walk one synthetic scene through every pipeline stage and print a summary.

Usage: python3 scripts/demo_pipeline.py [--clusters 3] [--per-cluster 8] [--seed 7]
"""

import argparse

import numpy as np

from propgraph import (
    AttentionParams,
    PipelineConfig,
    build_graph,
    connected_components,
    forward,
    gcpool,
    generate_proposals,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clusters", type=int, default=3)
    parser.add_argument("--per-cluster", type=int, default=8)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--feature-dim", type=int, default=16)
    args = parser.parse_args()

    config = PipelineConfig()
    doc = generate_proposals(
        clusters=args.clusters,
        per_cluster=args.per_cluster,
        seed=args.seed,
        feature_dim=args.feature_dim,
    )
    boxes = doc.normalized_boxes()
    features = doc.feature_matrix()
    print(f"scene: {doc.image_id} with {doc.num_proposals} proposals, d={features.shape[1]}")

    g = build_graph(boxes, features, config.iou_thr)
    comps = connected_components(g)
    print(f"graph: {g.num_edges} edges at IoU > {config.iou_thr}, "
          f"{comps.count} components of sizes {[int(s) for s in comps.sizes]}")

    labeling, coarse = gcpool(
        g, min_size=config.min_size, stop_ncut=config.stop_ncut, min_part=config.min_part
    )
    print(f"gcpool: {labeling.part_count} parts, "
          f"{sum(1 for v in labeling.labels if v is None)} proposals filtered")
    for part, node in enumerate(coarse):
        print(f"  part {part}: members {tuple(node.members.tolist())}, "
              f"|mean feature| = {np.linalg.norm(node.feature):.4f}")

    params = AttentionParams.initialize(
        features.shape[1], head_count=1, output_dim=features.shape[1], seed=args.seed,
    )
    result = forward(boxes, features, params, config)
    drift = np.abs(result.features - features)
    print(f"forward: refined {result.features.shape[0]} proposals; "
          f"mean |delta| = {drift.mean():.5f}, max |delta| = {drift.max():.5f}")
    print(f"moments: mean {features.mean():+.6f} -> {result.features.mean():+.6f}, "
          f"var {features.var():.6f} -> {result.features.var():.6f}")


if __name__ == "__main__":
    main()
