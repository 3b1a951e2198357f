#!/usr/bin/env python3
"""The repository benchmark: six workloads over explore, scan, refute, serve and fuzz.

Run from the repository root::

    python3 perfbench/run.py --workload explore-inram --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with the program's own
tracing off (NULL tracer and metrics).  ``--trace 1`` first runs the
workload untraced for half of ``--seconds`` as a reference, then wraps
each layer's public functions (see :mod:`layers`) and runs it again,
reporting per-layer counts, busy and self time per operation, the
unattributed remainder and the tracing overhead.

Every metric is printed as ``name = value unit``, then one line with the
host's identity, and last one JSON object: ``correct`` (no output
disagreed with its check), ``attempted``/``failed`` operations and the
``metrics``.  ``--smoke`` shrinks every workload to a size that runs in
seconds (used by ``test_perfbench.py``).

All files go to a temporary directory under ``.perfbench/`` in the
checkout, which is removed at exit; the program's environment switches
that would change what is measured are cleared.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402
from layers import LAYERS, Recorder  # noqa: E402

SETUP_PROBES = 5
#: Environment switches of the program that change what a run does.
CLEARED_ENV = (
    "REPRO_ENGINE_WORKERS",
    "REPRO_ENGINE_STORE",
    "REPRO_CHAOS",
    "REPRO_PROGRESS",
    "REPRO_ENGINE_MAX_RESTARTS",
)
#: Per-layer metrics read from the recorder: ``(metric prefix, traced name)``.
RECORDED = (
    ("ioa.successors", "ioa.successors"),
    ("engine", "engine.run"),
    ("codec.encode", "codec.encode"),
    ("codec.decode", "codec.decode"),
    ("store.ops", "store.ops"),
    ("store.flush", "store.flush"),
    ("analysis.lemma4", "analysis.lemma4"),
    ("analysis.valence", "analysis.valence"),
    ("analysis.hook", "analysis.hook"),
    ("analysis.lemma8", "analysis.lemma8"),
    ("analysis.refutation", "analysis.refutation"),
    ("reduction.canon", "reduction.canon"),
    ("sim.simulate", "sim.simulate"),
    ("sim.shrink", "sim.shrink"),
    ("py.gc", "py.gc.collection"),
)
#: Per-layer metrics the workloads measure themselves (0 where unused).
FROM_OPS = (
    "parallel.coordinator_cpu_s",
    "parallel.coordinator_idle_s",
    "parallel.worker_cpu_s",
    "parallel.expand_s",
    "parallel.fingerprint_s",
    "parallel.merge_s",
    "parallel.serialize_s",
    "parallel.rounds",
    "parallel.degraded",
    "parallel.worker_rss_kb",
    "store.spilled_states",
    "sim.steps",
    "sim.found",
    "serve.submit_ms",
    "serve.queue_wait_ms",
    "serve.run_ms",
    "serve.cache_hit_ratio",
    "serve.cold_share",
    "serve.refused",
    "loadgen.lag_ms",
)
#: Workload-measured values that are medians or ratios, not per-op totals.
AVERAGED = {
    "serve.submit_ms",
    "serve.queue_wait_ms",
    "serve.run_ms",
    "serve.cache_hit_ratio",
    "serve.cold_share",
    "parallel.degraded",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=workloads.WORKLOADS + ("all",),
        help="one workload, or all of them one after another",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs (self-test)")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def hermetic_env(root: Path, tmp: Path) -> None:
    """Point every artifact into ``tmp``; clear run-changing switches."""
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    os.environ["REPRO_RUNS_DIR"] = str(tmp / "runs")
    os.environ["PYTHONPATH"] = str(root / "src")
    sys.path.insert(0, str(root / "src"))


def host_identity(root: Path) -> dict:
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    sources = hashlib.blake2b(digest_size=16)
    for path in sorted((root / "src").rglob("*.py")):
        sources.update(path.relative_to(root).as_posix().encode())
        sources.update(path.read_bytes())
    return {
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": commit,
        "src_digest": sources.hexdigest(),
        "loadavg_before": os.getloadavg(),
    }


def stop_multiprocessing() -> None:
    """Stop the processes multiprocessing started and wait until they end.

    The engine stops its own workers; any it left are terminated here.
    The parallel engine's shared-memory visited table also starts
    multiprocessing's resource tracker, a process of its own that would
    otherwise outlive this one; it ends once no worker holds its pipe.
    """
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is None:
        return
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def run_ops(workload, seconds: float) -> list:
    """Operations while one more, as long as the last, ends within ``seconds``.

    At least one runs.  An operation that raises counts as failed and the
    run goes on.
    """
    ops, start = [], perf_counter()
    while True:
        began = perf_counter()
        try:
            ops.append(workload.op())
        except Exception:  # noqa: BLE001 - reported, counted, and the run goes on
            traceback.print_exc()
            workload.trace(False)
            ops.append(workloads.Op(wall=perf_counter() - began, failed=1))
        now = perf_counter()
        if now - start + (now - began) > seconds:
            return ops


def tail_level(count: int) -> float:
    """The highest percentile with ten samples beyond it, kept in [p90, p99]."""
    return min(0.99, max(0.90, 1 - 10 / count))


def percentile(samples: list, level: float) -> float:
    """Percentile, interpolated between the two nearest samples.

    A run of a long operation has only a few samples, and the slowest of
    them alone moved from run to run by a third.
    """
    ordered = sorted(samples)
    position = level * (len(ordered) - 1)
    below = math.floor(position)
    above = min(below + 1, len(ordered) - 1)
    return ordered[below] + (position - below) * (ordered[above] - ordered[below])


def probe_setup(workload) -> tuple:
    """``(seconds, scale)`` of one set-up probe (see :mod:`speed`)."""
    before = speed.sample()
    seconds = workload.probe_setup()
    return seconds, speed.factor(before + speed.sample())


def end_to_end(ops: list, setup: list, scaled: bool = True) -> dict:
    """The end-to-end metrics; ``setup`` holds ``(seconds, scale)`` pairs.

    Times are at the reference speed, or as measured if not ``scaled``.
    """

    def scale(op, sample: bool = False) -> float:
        return op.scale if scaled and (sample or not op.paced) else 1.0

    samples = [s * scale(op, sample=True) for op in ops for s in op.samples] or [
        op.wall * scale(op) for op in ops
    ]
    rss_kb = max((op.rss_kb for op in ops if op.rss_kb), default=0) or (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    )
    attempted = sum(op.attempted for op in ops)
    return {
        "setup_s": statistics.median(s * (f if scaled else 1.0) for s, f in setup),
        "wall_s": statistics.median(op.wall * scale(op) for op in ops),
        "work_per_s": sum(op.work for op in ops)
        / max(sum(op.work_seconds * scale(op) for op in ops), 1e-9),
        "p50_ms": 1000 * statistics.median(samples),
        "tail_ms": 1000 * percentile(samples, tail_level(len(samples))),
        "peak_rss_mb": rss_kb / 1024,
        "ok_ratio": 1 - sum(op.failed for op in ops) / attempted,
    }


def seconds_per_work(ops: list, serve: bool) -> float:
    """Seconds at the reference speed per item of work."""
    if serve:
        return statistics.median(s * op.scale for op in ops for s in op.samples)
    return sum(op.wall * op.scale for op in ops) / max(sum(op.work for op in ops), 1)


def per_layer(recorder: Recorder, reference: list, traced: list, serve: bool) -> dict:
    count = len(traced)
    metrics = {}
    for metric, name in RECORDED:
        metrics[f"{metric}.calls"] = recorder.calls[name] / count
        metrics[f"{metric}.busy_s"] = recorder.busy[name] / count
    metrics["engine.runs"] = metrics.pop("engine.calls")
    reports = [r for r in recorder.engine_reports if r is not None]
    metrics["engine.states"] = sum(r.states for r in reports) / count
    metrics["engine.transitions"] = sum(r.transitions for r in reports) / count
    metrics["codec.encodes_per_state"] = (
        metrics["codec.encode.calls"] / metrics["engine.states"]
        if metrics["engine.states"]
        else 0.0
    )
    metrics["py.gc.collections"] = metrics.pop("py.gc.calls")
    for layer in LAYERS:
        if layer != "py.gc":  # a collection nests nothing: its self time is busy_s
            metrics[f"{layer}.self_s"] = recorder.self_time[layer] / count
    for name in FROM_OPS:
        values = [op.layer.get(name, 0.0) for op in traced]
        metrics[name] = (
            statistics.median(values) if name in AVERAGED else sum(values) / count
        )
    metrics["sim.hit_ratio"] = sum(op.layer.get("sim.found", 0) for op in traced) / sum(
        op.attempted for op in traced
    )
    if serve:
        latency = sum(op.layer["serve.latency_s"] for op in traced)
        metrics["serve.self_s"] = sum(op.layer["serve.self_s"] for op in traced) / count
        accounted = sum(op.layer["serve.self_s"] + op.layer["loadgen.self_s"] for op in traced)
        metrics["unattributed_share"] = 1 - accounted / latency if latency else 0.0
    else:
        metrics["serve.self_s"] = 0.0
        wall = sum(op.wall for op in traced)
        attributed = sum(recorder.self_time.values())
        metrics["unattributed_share"] = 1 - attributed / wall if wall else 0.0
    metrics["trace.overhead_ratio"] = seconds_per_work(traced, serve) / seconds_per_work(
        reference, serve
    )
    return metrics


def write_spans(recorder: Recorder, root: Path, args) -> Path:
    out = root / ".perfbench" / "spans"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}.jsonl"
    with path.open("w", encoding="utf-8") as stream:
        for span_id, parent, name, start, end in recorder.spans:
            stream.write(
                json.dumps({"id": span_id, "parent": parent, "name": name,
                            "start": start, "end": end}) + "\n"
            )
    return path


def declared_units(root: Path, section: str) -> dict:
    """``{metric: unit}`` of one section of ``BENCHMARK.json``."""
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in declared[section]}


def run_all(args) -> int:
    """Every workload in its own process; non-zero if any run failed."""
    options = ["--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
    status = 0
    for name in workloads.WORKLOADS:
        print(f"== {name}", flush=True)
        status |= subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, *options]
        ).returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (no src/repro here)", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    (root / ".perfbench").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=root / ".perfbench"))
    workload = None
    try:
        hermetic_env(root, tmp)
        workload = workloads.make(
            args.workload, seed=args.seed, smoke=args.smoke, tmp=tmp, golden=golden
        )
        workload.window_seconds = args.seconds
        if args.probe_setup:
            workload.setup()
            print("ready", flush=True)
            return 0
        host = host_identity(root)
        setup = [probe_setup(workload) for _ in range(SETUP_PROBES)]
        workload.setup()
        serve = args.workload == "serve-mix"
        if not args.trace:
            ops = run_ops(workload, args.seconds)
            metrics = end_to_end(ops, setup)
            raw = end_to_end(ops, setup, scaled=False)
            print("as measured: " + ", ".join(
                f"{name} = {raw[name]:.6g}" for name in ("setup_s", "wall_s", "p50_ms")
            ) + "; below, at the reference speed")
        else:
            reference = run_ops(workload, args.seconds / 2)
            recorder = Recorder()
            recorder.install()
            workload.recorder = recorder
            loops = speed.sample()
            try:
                traced = run_ops(workload, args.seconds)
            finally:
                recorder.uninstall()
            loops += speed.sample()
            ops = reference + traced
            metrics = per_layer(recorder, reference, traced, serve)
            metrics["host.reference_ms"] = 1000 * statistics.fmean(loops)
            print(f"spans: {write_spans(recorder, root, args)}")
        units = declared_units(root, "per_layer" if args.trace else "end_to_end")
        if set(metrics) != set(units):
            raise RuntimeError(
                f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}"
            )
        host["loadavg_after"] = os.getloadavg()
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units[name]}")
        samples = sum(len(op.samples) for op in ops)
        print(
            f"operations = {len(ops)}, samples = {samples}, "
            f"tail_ms is p{100 * tail_level(max(samples, 1)):.1f}"
        )
        print(json.dumps({"host": host}))
        print(
            json.dumps(
                {
                    "correct": not any(op.wrong for op in ops),
                    "attempted": sum(op.attempted for op in ops),
                    "failed": sum(op.failed for op in ops),
                    "metrics": {
                        name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()
                    },
                }
            )
        )
        return 0
    finally:
        if workload is not None:
            workload.close()
        stop_multiprocessing()
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
