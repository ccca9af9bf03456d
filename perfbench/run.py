#!/usr/bin/env python3
"""propgraph benchmark: closed-loop CLI ``forward`` ops on seeded scenes.

Usage (from the repository root):

  python3 perfbench/run.py --workload tight-clusters --seed 123 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all

One run sets up its scenes (imports, scene/params/config files, one untimed
warm-up forward per scene), then calls ``propgraph.cli.run_command`` with
``forward`` in-process, one op at a time, for ``--seconds`` seconds. Every op
is checked by the output oracle. The last stdout line is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json with tracing
off. ``--trace 1`` alternates untraced and traced ops, reports the per-layer
metrics and writes the spans to ``.perfbench_work/``; its tracemalloc peaks
come from the warm-ups, so that timed traced ops run without tracemalloc.
``--workload all`` runs every workload in its own process, one after another,
and prints a table.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPEC_FILE = ROOT / "BENCHMARK.json"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NPROC = len(os.sched_getaffinity(0))
# Seconds a child run of ``--workload all`` may take before it is stopped.
CHILD_TIMEOUT_S = 900


class IntentError(Exception):
    """A seed produced a scene that no longer exercises its workload's mechanism."""


def cap_blas_threads() -> None:
    """Cap BLAS threads at the CPUs this process may use; call before numpy loads."""
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= NPROC):
            os.environ[var] = str(NPROC)


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": NPROC, "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_name, "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": git_commit(),
    }


def load_spec() -> dict:
    with open(SPEC_FILE, "r", encoding="utf-8") as stream:
        return json.load(stream)


def run_op(cli, argv: list[str]) -> tuple[int, dict | None, float]:
    """One CLI forward; returns (exit code, parsed report, wall seconds)."""
    gc.collect()
    captured = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        code = cli.run_command(argv)
    elapsed = time.perf_counter() - start
    try:
        report = json.loads(captured.getvalue())
    except ValueError:
        report = None
    return code, report, elapsed


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Set up, measure and check one workload; returns the result object."""
    cap_blas_threads()
    if not (SRC / "propgraph" / "__init__.py").is_file():
        raise FileNotFoundError(f"propgraph sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import numpy as np
    import propgraph.cli as cli
    from oracle import SceneOracle
    from tracer import MEMORY_METRICS, OpProfile, Tracer, layer_metrics
    import workloads as wl

    import_s = time.perf_counter() - _START
    spec = load_spec()
    workload = wl.WORKLOADS[name]
    reference = wl.load_reference() if seed == wl.DEFAULT_SEED and not tiny else None
    env = environment(np)
    print("env " + json.dumps(env))
    WORK.mkdir(exist_ok=True)
    directory = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    scenes, oracles, setup_times, memory_rows = [], [], [], []
    problems: list[str] = []
    attempted = failed = 0

    def check(scene, code, report) -> list[str]:
        found = oracles[scene.index].check(code, report, scene.output)
        if reference is not None and report is not None:
            found += wl.reference_problems(reference, workload, scene,
                                          report.get("counts", {}))
        return found

    try:
        for index, scene_seed in enumerate(wl.scene_seeds(seed, workload.scenes)):
            start = time.perf_counter()
            scene = wl.write_scene(workload, index, scene_seed, directory, tiny=tiny)
            # The warm-up is traced for the intent guards; in a traced run it
            # also takes the tracemalloc peaks, which would slow timed ops.
            counter = Tracer(name, memory=trace)
            with counter:
                code, report, _ = run_op(cli, scene.argv)
            setup_times.append(time.perf_counter() - start)
            scenes.append(scene)
            oracles.append(SceneOracle(scene.features))
            profile = OpProfile(counter.spans)
            memory_rows.append(layer_metrics(profile))
            warmup = check(scene, code, report)
            if warmup:
                problems += [f"scene {index} warm-up: {p}" for p in warmup]
                continue
            intent = wl.intent_problems(
                workload, report["counts"],
                profile.calls("spectral.symmetric_eigendecomposition"),
                profile.accepted_splits(),
            )
            if intent:
                raise IntentError(f"{name} scene {index} (seed {scene_seed}): " + "; ".join(intent))
            counts = {k: report["counts"][k] for k in ("proposals",) + wl.REFERENCE_KEYS}
            print(f"scene {index} seed {scene_seed}: {json.dumps(counts)} "
                  f"sha256 {oracles[index].digest}")

        timings, overheads, layer_rows = [], [], []
        tracer = Tracer(name)
        measure_start = time.perf_counter()
        op = 0
        while op < len(scenes) or time.perf_counter() - measure_start < seconds:
            scene = scenes[op % len(scenes)]
            code, report, elapsed = run_op(cli, scene.argv)
            found = check(scene, code, report)
            attempted += 1
            failed += bool(found)
            problems += [f"op {op} scene {scene.index}: {p}" for p in found]
            if trace:
                tracer.op = op
                with tracer:
                    code, report, traced = run_op(cli, scene.argv)
                found = check(scene, code, report)
                attempted += 1
                failed += bool(found)
                problems += [f"traced op {op} scene {scene.index}: {p}" for p in found]
                overheads.append(traced - elapsed)
                layer_rows.append(layer_metrics(OpProfile(tracer.op_spans(op))))
            timings.append((elapsed, scene.proposals))
            op += 1
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    if trace:
        trace_path = WORK / f"trace-{name}-seed{seed}.jsonl"
        tracer.write(str(trace_path))
        print(f"trace: {len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")
        values = {key: statistics.median(row[key] for row in layer_rows) for key in layer_rows[0]}
        values.update({key: statistics.median(row[key] for row in memory_rows)
                       for key in MEMORY_METRICS})
        values["trace.overhead_s"] = statistics.median(overheads)
        wanted = spec["per_layer"]
    else:
        values = {
            "forward_s": statistics.median(t for t, _ in timings),
            # Median per-op rate: one slow burst on a shared host moves a
            # total-time rate far more than it moves a median.
            "proposals_per_s": statistics.median(n / t for t, n in timings),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": import_s + statistics.median(setup_times),
        }
        wanted = spec["end_to_end"]
    for problem in problems:
        print(f"FAIL {problem}")
    error_rate = failed / attempted if attempted else 1.0
    print(f"{name}: {attempted} ops, {failed} failed, error_rate {error_rate!r} (share of ops)")
    for oracle in oracles:
        print(f"  output sha256 = {oracle.digest}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for key, entry in metrics.items():
        print(f"  {key} = {entry['value']!r} {entry['unit']}")
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args, names: list[str]) -> int:
    """Run every workload in its own process so that each peak RSS is its own."""
    rows = []
    for name in names:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            return proc.returncode or 1
        rows.append((name, json.loads(lines[-1])))
    print(f"\n{'workload':16} {'metric':28} value")
    for name, result in rows:
        print(f"{name:16} {'error_rate':28} {result['failed'] / result['attempted']!r} "
              f"({result['failed']}/{result['attempted']} ops, correct={result['correct']})")
        for key, entry in result["metrics"].items():
            print(f"{name:16} {key:28} {entry['value']!r} {entry['unit']}")
    return 0 if all(result["correct"] for _, result in rows) else 1


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="propgraph benchmark")
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=123)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="reduced scenes, for the benchmark's own smoke tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, names)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except (FileNotFoundError, IntentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
