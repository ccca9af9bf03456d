"""Command-line surface.

Subcommands cover every pipeline stage plus self-checks and fixture
generation:

  graph build / graph components    IoU graph construction and components
  cut ncut                          normalized-cut partitioning of a graph
  pool gcpool                       graph-cut pooling to coarse nodes
  attend                            graph attention over a proposal dump
  forward                           the full refinement pipeline
  oracle ncut / oracle grad         randomized verification runs
  gen / params init                 synthetic fixtures and seeded parameters

Exit codes: 0 success, 1 input or usage error, 2 numerical failure.
Commands that write files print a run report (config echo, stage counts,
timings in milliseconds, output digests) to stdout; commands without an
output file print their result document instead.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from typing import Optional, Sequence

import numpy as np

from . import io as pio
from .attention import AttentionDegrees, AttentionParams, attention_gradients, multi_head_attend
from .config import PipelineConfig
from .errors import InputError, NumericalError, check_float_count
from .graph import build_graph, connected_components, induced_subgraphs
from .oracles import (
    BRUTE_FORCE_MAX_NODES,
    bridged_cliques,
    brute_force_ncut,
    edge_enumeration_ncut,
    finite_difference_gradients,
    max_relative_error,
    random_connected_graph,
)
from .pipeline import _timed, forward
from .pooling import gcpool
from .spectral import Partition, _check_split_rule, ncut_value, recursive_ncut, two_way_ncut
from .synthetic import generate_proposals


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _emit(value) -> None:
    sys.stdout.write(pio.dumps_canonical(value) + "\n")


def _report(command: str, config: Optional[PipelineConfig], counts: dict,
            timings_ms: dict, digests: dict) -> None:
    _emit({
        "command": command,
        "config": config.to_dict() if config is not None else None,
        "counts": counts,
        "timings_ms": timings_ms,
        "digests": digests,
    })


def _degree_counts(degrees: AttentionDegrees) -> dict:
    return {f"attention_{key}": value for key, value in dataclasses.asdict(degrees).items()}


def build_parser() -> _Parser:
    parser = _Parser(prog="propgraph", description="Proposal-graph refinement toolkit")
    commands = parser.add_subparsers(dest="command", required=True)

    graph = commands.add_parser("graph", help="graph construction and components")
    graph_sub = graph.add_subparsers(dest="subcommand", required=True)
    graph_build = graph_sub.add_parser("build", help="build the IoU graph from proposals")
    graph_build.add_argument("--input", required=True)
    graph_build.add_argument("--iou-thr", type=float, required=True, dest="iou_thr")
    graph_build.add_argument("--output", required=True)
    graph_build.set_defaults(handler=_cmd_graph_build)
    graph_components = graph_sub.add_parser("components", help="label connected components")
    graph_components.add_argument("--input", required=True)
    graph_components.add_argument("--min-size", type=int, required=True, dest="min_size")
    graph_components.set_defaults(handler=_cmd_graph_components)

    cut = commands.add_parser("cut", help="normalized-cut partitioning")
    cut_sub = cut.add_subparsers(dest="subcommand", required=True)
    cut_ncut = cut_sub.add_parser("ncut", help="recursively partition a graph file")
    cut_ncut.add_argument("--input", required=True)
    cut_ncut.add_argument("--stop-ncut", type=float, default=None, dest="stop_ncut")
    cut_ncut.add_argument("--min-part", type=int, default=1, dest="min_part")
    cut_ncut.add_argument("--brute-force", action="store_true", dest="brute_force")
    cut_ncut.set_defaults(handler=_cmd_cut_ncut)

    pool = commands.add_parser("pool", help="graph-cut pooling")
    pool_sub = pool.add_subparsers(dest="subcommand", required=True)
    pool_gcpool = pool_sub.add_parser("gcpool", help="filter, partition, average-pool")
    pool_gcpool.add_argument("--input", required=True)
    pool_gcpool.add_argument("--config", required=True)
    pool_gcpool.add_argument("--output", required=True)
    pool_gcpool.set_defaults(handler=_cmd_pool_gcpool)

    attend_cmd = commands.add_parser("attend", help="graph attention over proposals")
    attend_cmd.add_argument("--input", required=True)
    attend_cmd.add_argument("--params", required=True)
    attend_cmd.add_argument("--config", required=True)
    attend_cmd.add_argument("--output", required=True)
    attend_cmd.set_defaults(handler=_cmd_attend)

    forward_cmd = commands.add_parser("forward", help="full refinement pipeline")
    forward_cmd.add_argument("--input", required=True)
    forward_cmd.add_argument("--params", required=True)
    forward_cmd.add_argument("--config", required=True)
    forward_cmd.add_argument("--output", required=True)
    forward_cmd.add_argument("--no-gcpool", action="store_true", dest="no_gcpool")
    forward_cmd.set_defaults(handler=_cmd_forward)

    oracle = commands.add_parser("oracle", help="randomized self-checks")
    oracle_sub = oracle.add_subparsers(dest="subcommand", required=True)
    oracle_ncut = oracle_sub.add_parser("ncut", help="spectral cut vs exhaustive optimum")
    oracle_ncut.add_argument("--max-n", type=int, default=10, dest="max_n")
    oracle_ncut.add_argument("--trials", type=int, default=100)
    oracle_ncut.add_argument("--seed", type=int, default=0)
    oracle_ncut.set_defaults(handler=_cmd_oracle_ncut)
    oracle_grad = oracle_sub.add_parser("grad", help="analytic vs finite-difference gradients")
    oracle_grad.add_argument("--trials", type=int, default=50)
    oracle_grad.add_argument("--seed", type=int, default=0)
    oracle_grad.set_defaults(handler=_cmd_oracle_grad)

    gen = commands.add_parser("gen", help="generate a synthetic proposal fixture")
    gen.add_argument("--clusters", type=int, required=True)
    gen.add_argument("--per-cluster", type=int, required=True, dest="per_cluster")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--output", required=True)
    gen.add_argument("--image-width", type=int, default=640, dest="image_width")
    gen.add_argument("--image-height", type=int, default=480, dest="image_height")
    gen.add_argument("--feature-dim", type=int, default=0, dest="feature_dim")
    gen.add_argument("--jitter", type=float, default=0.02)
    gen.set_defaults(handler=_cmd_gen)

    params = commands.add_parser("params", help="attention parameter files")
    params_sub = params.add_subparsers(dest="subcommand", required=True)
    params_init = params_sub.add_parser("init", help="write seeded attention parameters")
    params_init.add_argument("--feature-dim", type=int, required=True, dest="feature_dim")
    params_init.add_argument("--heads", type=int, default=1)
    params_init.add_argument("--out-dim", type=int, default=None, dest="out_dim")
    params_init.add_argument("--seed", type=int, default=0)
    params_init.add_argument("--output", required=True)
    params_init.set_defaults(handler=_cmd_params_init)

    return parser


# ----------------------------------------------------------------------
# Command implementations
# ----------------------------------------------------------------------

def _load_scene(args, timings_ms: dict, iou_thr: float, with_params: bool = False):
    """The proposal document, its features, its IoU graph and, if asked, the params."""
    with _timed(timings_ms, "load"):
        document = pio.load_proposals(args.input)
        params = pio.load_params(args.params) if with_params else None
    with _timed(timings_ms, "build"):
        features = document.feature_matrix()
        g = build_graph(document.normalized_boxes(), features, iou_thr)
    return document, features, g, params


def _cmd_graph_build(args) -> int:
    timings_ms: dict = {}
    document, _, g, _ = _load_scene(args, timings_ms, args.iou_thr)
    with _timed(timings_ms, "write"):
        digest = pio.save_graph(g, args.output)
    config = PipelineConfig(iou_thr=args.iou_thr)
    _report("graph build", config,
            {"proposals": document.num_proposals, "canonical_input": document.canonical_input,
             "nodes": g.num_nodes, "edges": g.num_edges},
            timings_ms, {args.output: digest})
    return 0


def _cmd_graph_components(args) -> int:
    g, node_ids = pio.load_graph(args.input)
    if args.min_size < 1:
        raise InputError(f"min_size must be >= 1, got {args.min_size}")
    comp = connected_components(g)
    _emit({
        "labels": [int(label) for label in comp.labels],
        "sizes": [int(s) for s in comp.sizes],
        "removed": sorted(node_ids[comp.sizes[comp.labels] < args.min_size].tolist()),
        "report": {"nodes": g.num_nodes, "edges": g.num_edges,
                   "components": comp.count, "min_size": args.min_size},
    })
    return 0


def _cmd_cut_ncut(args) -> int:
    g, _ = pio.load_graph(args.input)
    stop = args.stop_ncut if args.stop_ncut is not None else PipelineConfig().stop_ncut
    _check_split_rule(stop, args.min_part)
    comp = connected_components(g)
    labels = np.empty(g.num_nodes, dtype=np.int64)
    per_component = []
    next_label = 0
    unchecked = 0
    for component, (idx, sub) in enumerate(induced_subgraphs(g, comp.labels, comp.count)):
        try:
            partition = recursive_ncut(sub, stop, min_part=args.min_part, connected=True)
            entry: dict = {"component": component, "sets": partition.set_count}
            if partition.set_count > 1:
                entry["ncut"] = ncut_value(sub, partition).ncut_value
            if args.brute_force and idx.size > BRUTE_FORCE_MAX_NODES:
                entry["brute_force"] = None
                entry["unchecked"] = f"n > {BRUTE_FORCE_MAX_NODES}"
                unchecked += 1
            elif args.brute_force and idx.size >= 2:
                best_partition, best_report = brute_force_ncut(sub)
                spectral_partition, spectral_report = two_way_ncut(sub)
                entry["two_way"] = spectral_report.ncut_value
                entry["brute_force"] = best_report.ncut_value
                entry["two_way_matches_oracle"] = bool(
                    np.array_equal(best_partition.labels, spectral_partition.labels)
                )
        except (InputError, NumericalError) as exc:
            where = f"{args.input}: component {component} ({idx.size} nodes)"
            raise type(exc)(f"{where}: {exc}") from exc
        labels[idx] = next_label + partition.labels
        per_component.append(entry)
        next_label += partition.set_count
    report = {"nodes": g.num_nodes, "edges": g.num_edges, "stop_ncut": stop}
    if args.brute_force:
        report["unchecked"] = unchecked
    _emit({
        "labels": labels.tolist(),
        "set_count": next_label,
        "components": per_component,
        "report": report,
    })
    return 0


def _cmd_pool_gcpool(args) -> int:
    timings_ms: dict = {}
    config = pio.load_config(args.config)
    document, _, g, _ = _load_scene(args, timings_ms, config.iou_thr)
    with _timed(timings_ms, "gcpool"):
        labeling, coarse = gcpool(
            g, min_size=config.min_size, stop_ncut=config.stop_ncut, min_part=config.min_part
        )
    with _timed(timings_ms, "write"):
        digest = pio.write_json(args.output, pio.partition_to_dict(labeling, coarse))
    _report("pool gcpool", config,
            {"proposals": document.num_proposals, "canonical_input": document.canonical_input,
             "edges": g.num_edges, "parts": labeling.part_count, "coarse": labeling.part_count,
             **dataclasses.asdict(labeling.solves)},
            timings_ms, {args.output: digest})
    return 0


def _cmd_attend(args) -> int:
    timings_ms: dict = {}
    config = pio.load_config(args.config)
    document, features, g, params = _load_scene(args, timings_ms, config.iou_thr,
                                                with_params=True)
    degrees = AttentionDegrees()
    with _timed(timings_ms, "attend"):
        refined = multi_head_attend(features, params, g, iou_bias=config.iou_bias,
                                    degrees=degrees)
    with _timed(timings_ms, "write"):
        digest = pio.save_features(refined, args.output)
    _report("attend", config,
            {"proposals": document.num_proposals, "canonical_input": document.canonical_input,
             "edges": g.num_edges, "heads": params.head_count, "output_dim": params.output_dim,
             **_degree_counts(degrees)},
            timings_ms, {args.output: digest})
    return 0


def _cmd_forward(args) -> int:
    timings_ms: dict = {}
    config = pio.load_config(args.config)
    with _timed(timings_ms, "load"):
        document = pio.load_proposals(args.input)
        params = pio.load_params(args.params)
    with _timed(timings_ms, "forward"):
        result = forward(
            document.normalized_boxes(), document.feature_matrix(), params, config,
            use_gcpool=not args.no_gcpool,
        )
    with _timed(timings_ms, "write"):
        digest = pio.save_features(result.features, args.output)
    diag = result.diagnostics
    timings_ms.update(diag.timings_ms)
    labeling = diag.labeling
    _report("forward", config,
            {"proposals": diag.node_count, "canonical_input": document.canonical_input,
             "edges": diag.edge_count, "components": labeling.component_count,
             "filtered": int(np.count_nonzero(labeling.labels == -1)),
             "parts": labeling.part_count, "coarse": labeling.part_count,
             "gcpool": not args.no_gcpool, **dataclasses.asdict(labeling.solves),
             **_degree_counts(diag.attention)},
            timings_ms, {args.output: digest})
    return 0


def _oracle_rng(args) -> np.random.Generator:
    """The oracle commands' generator, after checking ``--trials`` and ``--seed``."""
    if args.trials < 1:
        raise InputError(f"trials must be >= 1, got {args.trials}")
    if args.seed < 0:
        raise InputError(f"seed must be >= 0, got {args.seed}")
    return np.random.default_rng(args.seed)


def _cmd_oracle_ncut(args) -> int:
    rng = _oracle_rng(args)
    if args.max_n < 2:
        raise InputError(f"max_n must be >= 2, got {args.max_n}")
    check_float_count(args.max_n * args.max_n,
                      f"max_n {args.max_n} x {args.max_n} adjacency weights")
    worst_gap = 0.0
    worst_eval = 0.0
    failures = 0
    for _ in range(args.trials):
        k = int(rng.choice([3, 4, 5]))
        g = bridged_cliques(k, float(rng.uniform(0.01, 0.2)))
        expected = np.array([0] * k + [1] * k, dtype=np.int64)
        partition, report = two_way_ncut(g)
        oracle_partition, oracle_report = brute_force_ncut(g)
        gap = abs(report.ncut_value - oracle_report.ncut_value)
        worst_gap = max(worst_gap, gap)
        if gap > 1e-10 or not np.array_equal(partition.labels, oracle_partition.labels) \
                or not np.array_equal(partition.labels, expected):
            failures += 1
    for _ in range(args.trials):
        n = int(rng.integers(2, args.max_n + 1))
        g = random_connected_graph(rng, n)
        labels = rng.integers(0, 2, size=n)
        labels[int(rng.integers(0, n))] = 0
        labels[int(rng.integers(0, n))] = 1
        if labels.min() == labels.max():
            continue
        partition = Partition(labels=np.where(labels == labels[0], 0, 1), set_count=2)
        report = ncut_value(g, partition)
        direct = edge_enumeration_ncut(g, partition)
        gap = abs(report.ncut_value - direct)
        worst_eval = max(worst_eval, gap)
        if gap > 1e-12:
            failures += 1
    _emit({
        "trials": args.trials,
        "failures": failures,
        "max_partition_gap": worst_gap,
        "max_evaluation_gap": worst_eval,
    })
    return 0 if failures == 0 else 1


def _cmd_oracle_grad(args) -> int:
    rng = _oracle_rng(args)
    worst = 0.0
    failures = 0
    for trial in range(args.trials):
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
        numeric = finite_difference_gradients(g.features, params, g, upstream)
        worst = max(worst, max_relative_error(analytic, numeric))
    if worst >= 1e-5:
        failures += 1
    _emit({"trials": args.trials, "failures": failures, "max_relative_error": worst})
    return 0 if failures == 0 else 1


def _cmd_gen(args) -> int:
    document = generate_proposals(
        clusters=args.clusters,
        per_cluster=args.per_cluster,
        seed=args.seed,
        image_width=args.image_width,
        image_height=args.image_height,
        feature_dim=args.feature_dim,
        jitter=args.jitter,
    )
    digest = pio.save_proposals(document, args.output)
    _report("gen", None,
            {"clusters": args.clusters, "per_cluster": args.per_cluster,
             "proposals": document.num_proposals, "feature_dim": args.feature_dim},
            {}, {args.output: digest})
    return 0


def _cmd_params_init(args) -> int:
    params = AttentionParams.initialize(
        args.feature_dim, head_count=args.heads, output_dim=args.out_dim, seed=args.seed
    )
    digest = pio.save_params(params, args.output)
    _report("params init", None,
            {"heads": params.head_count, "feature_dim": params.feature_dim,
             "output_dim": params.output_dim},
            {}, {args.output: digest})
    return 0


@functools.cache
def _shared_parser() -> _Parser:
    """``build_parser()``, built on first use: ``parse_args`` returns a fresh
    namespace each call, so reusing the parser carries no state."""
    return build_parser()


def run_command(argv: Sequence[str]) -> int:
    """Dispatch one command; returns the process exit code."""
    parser = _shared_parser()
    try:
        args = parser.parse_args(list(argv))
    except _UsageError as exc:
        sys.stderr.write(str(exc) + "\n")
        return 1
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
