"""Run one benchmark workload as a closed loop and report its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lm_train --seed 1 --seconds 20 --trace 0

One client in one process runs operations back to back for
``--seconds`` seconds (each starts when the previous one finishes),
then checks the outputs outside the timed region.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
runs every other operation with span wrappers installed, reports the
per-layer metrics and the tracing overhead (traced against untraced
operations of the same loop), and writes the spans to
``perfbench/out/`` as Chrome-trace JSON.

The last line of standard output is the result object; the line
before it is a fuller report (host, sample counts, tail percentile,
output checks, loss / planned step time, error rate).
"""

import os

#: BLAS threads, pinned before numpy loads so that the only threads a
#: workload runs are ep_overlap's two executor streams.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import List  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Units of the workloads' result figures (reported where they apply).
QUALITY_UNITS = {"loss": "nats", "plan_step_s": "s", "makespan_s": "s"}


def host_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
    }


@dataclass
class Loop:
    """Outcome of one timed closed loop."""

    tokens_per_op: int
    durations: List[float] = field(default_factory=list)
    failed: int = 0
    wall: float = 0.0

    @property
    def jobs_per_s(self) -> float:
        """Completed operations per second at the median operation time.

        The median rather than the wall-clock mean: on a shared host a
        neighbour's burst stretches a few operations, and the mean
        passes that straight into the throughput.
        """
        completed = 1.0 - self.failed / len(self.durations)
        return completed / statistics.median(self.durations)

    @property
    def tokens_per_s(self) -> float:
        return self.jobs_per_s * self.tokens_per_op

    @property
    def wall_tokens_per_s(self) -> float:
        """Tokens completed per second of the loop's wall time."""
        completed = len(self.durations) - self.failed
        return completed * self.tokens_per_op / self.wall


def run_op(workload, tracer=None, op_id=None) -> bool:
    """One operation; False on an exception or a non-finite result.

    With a tracer, the span wrappers are installed for this operation
    only and the operation runs inside a root span.
    """
    try:
        if tracer is None:
            return bool(workload.op())
        from tracing import OP_SPAN, install

        try:
            install(tracer)
            tracer.op = op_id
            return bool(tracer.call(OP_SPAN, workload.op))
        finally:
            tracer.op = None
            tracer.uninstall()
    except Exception:
        traceback.print_exc()
        return False


def closed_loop(workload, seconds: float, tracer=None):
    """Run operations back to back; returns (untraced, traced) loops.

    With a tracer every other operation runs traced, so traced and
    untraced operations share the workload's state (pools, allocator,
    host load) and their medians give the tracing overhead.
    """
    plain, traced = Loop(workload.tokens_per_op), Loop(workload.tokens_per_op)
    start = time.perf_counter()
    op_id = 0
    while True:
        loop = traced if tracer is not None and op_id % 2 else plain
        t0 = time.perf_counter()
        ok = run_op(workload, tracer if loop is traced else None, op_id)
        now = time.perf_counter()
        loop.durations.append(now - t0)
        loop.failed += not ok
        op_id += 1
        if now - start >= seconds and op_id >= workload.min_ops:
            break
    plain.wall = traced.wall = time.perf_counter() - start
    return plain, traced


def set_up(cls, seed: int):
    """Build a workload and run its warm-up operation; (workload, s, ok)."""
    gc.collect()
    t0 = time.perf_counter()
    workload = cls(seed)
    ok = run_op(workload)
    return workload, time.perf_counter() - t0, ok


def run_checks(workload):
    try:
        return [(name, bool(ok)) for name, ok in workload.checks()]
    except Exception:
        traceback.print_exc()
        return [("checks_completed", False)]


def tail(durations: List[float], pct: float):
    """Nearest-rank ``pct`` percentile and the samples beyond it."""
    ordered = sorted(durations)
    rank = min(len(ordered), max(1, math.ceil(pct / 100.0 * len(ordered))))
    return ordered[rank - 1], len(ordered) - rank


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    cls = WORKLOADS[args.workload]
    attempted = failed = 0

    if args.trace:
        from tracing import (
            TIMED_LAYERS,
            Tracer,
            layer_metrics,
            write_chrome_trace,
        )

        workload, _, ok = set_up(cls, args.seed)
        attempted, failed = 1, int(not ok)
        tracer = Tracer()
        plain, loop = closed_loop(workload, args.seconds, tracer)
        attempted += len(plain.durations)
        failed += plain.failed
        values = layer_metrics(tracer, len(loop.durations))
        step_ms = statistics.median(loop.durations) * 1e3
        attributed = values["other_ms"] + sum(
            values[f"{name}_ms"] for name in TIMED_LAYERS
        )
        values["trace.gap_pct"] = 100.0 * (step_ms - attributed) / step_ms
        values["trace.overhead_pct"] = 100.0 * (
            plain.jobs_per_s / loop.jobs_per_s - 1.0
        )
        extra = {
            "untraced": {
                "tokens_per_s": plain.tokens_per_s,
                "sim_jobs_per_s": plain.jobs_per_s,
            },
            "traced": {
                "tokens_per_s": loop.tokens_per_s,
                "sim_jobs_per_s": loop.jobs_per_s,
                "step_p50_ms": step_ms,
                "spans": len(tracer.spans),
            },
        }
        section = "per_layer"
    else:
        setups = []
        for _ in range(SETUP_REPEATS):
            workload = None  # free the previous build before the next
            workload, seconds, ok = set_up(cls, args.seed)
            setups.append(seconds)
            attempted += 1
            failed += int(not ok)
        loop, _ = closed_loop(workload, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        tail_s, beyond = tail(loop.durations, cls.tail_pct)
        values = {
            "setup_s": statistics.median(setups),
            "tokens_per_s": loop.tokens_per_s,
            "sim_jobs_per_s": loop.jobs_per_s,
            "step_p50_ms": statistics.median(loop.durations) * 1e3,
            "step_tail_ms": tail_s * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        extra = {
            "wall_tokens_per_s": loop.wall_tokens_per_s,
            "setup_runs_s": setups,
            "tail_percentile": cls.tail_pct,
            "tail_samples_beyond": beyond,
        }
        section = "end_to_end"

    checks = run_checks(workload)
    attempted += len(loop.durations) + len(checks)
    failed += loop.failed + sum(not ok for _, ok in checks)

    units = {m["name"]: m["unit"] for m in declared[section]}
    missing = set(units) ^ set(values)
    if missing:
        raise RuntimeError(
            f"metrics out of step with BENCHMARK.json: {sorted(missing)}"
        )
    metrics = {name: metric(values[name], unit) for name, unit in units.items()}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_info(),
        "samples": len(loop.durations),
        "error_rate": failed / attempted,
        "checks": dict(checks),
        "quality": {
            name: metric(value, QUALITY_UNITS[name])
            if name in QUALITY_UNITS
            else value
            for name, value in workload.quality().items()
        },
        **extra,
    }
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace_{args.workload}_seed{args.seed}.json"
        write_chrome_trace(tracer, path, report)
        report["trace_file"] = str(path.relative_to(ROOT))
    print(json.dumps({"report": report, "metrics": metrics}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
