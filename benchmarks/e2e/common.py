"""Helpers and the metric registry shared by the benchmark's processes."""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

import numpy as np

#: The checkout root: the benchmark lives at ``benchmarks/e2e``.
ROOT = Path(__file__).resolve().parents[2]
#: The package under test, imported from source.
SRC = ROOT / "src"
#: Per-run scratch space; everything the benchmark writes stays here.
WORK_ROOT = ROOT / ".bench_e2e"

WORKLOADS = ("paper_sweep", "serve_write_large", "serve_read_small")

#: How many times each run sets the system up; ``setup_s`` is the median.
SETUPS = 3

#: End-to-end metrics (reported by untraced runs), name -> unit.  Every
#: workload reports every one; README.md defines each per workload.
E2E_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics (reported by traced runs), name -> unit, named
#: after the module that owns the layer.  A workload that never enters
#: a layer reports 0 for it.
LAYER_UNITS: Dict[str, str] = {
    "workloads.generate_s": "s",
    "kernels.census_s": "s",
    "kernels.census_calls_per_trial": "count",
    "runtime.overhead_s": "s",
    "runtime.serial.trials_per_s": "1/s",
    "runtime.pool.trials_per_s": "1/s",
    "runtime.pool.speedup": "ratio",
    "runtime.pool.busy_fraction": "fraction",
    "runtime.pool.straggler_ratio": "ratio",
    "runtime.pool.chunks": "count",
    "runtime.pool.cpu_ms_per_trial": "ms",
    "core.solve_s": "s",
    "model.occupancy_measured_over_predicted": "ratio",
    "model.leaves_measured_over_predicted": "ratio",
    "service.protocol.decode_us": "us",
    "service.protocol.encode_us": "us",
    "service.writer.durable_wait_p50_ms": "ms",
    "service.writer.durable_wait_tail_ms": "ms",
    "service.wal.append_us": "us",
    "service.wal.sync_p50_ms": "ms",
    "service.wal.sync_tail_ms": "ms",
    "service.wal.syncs": "count",
    "service.group_commit.batch_mean": "count",
    "service.monitor.sample_max_ms": "ms",
    "service.monitor.sample_total_ms": "ms",
    "service.monitor.samples": "count",
    "service.monitor.pages_measured_over_predicted": "ratio",
    "service.monitor.occupancy_measured_over_predicted": "ratio",
    "service.server_share": "fraction",
    "service.cpu_ms_per_op": "ms",
    "storage.checkpoint_max_ms": "ms",
    "storage.checkpoint_total_ms": "ms",
    "storage.checkpoints": "count",
    "storage.checkpoint_write_amp": "ratio",
    "storage.pool.hit_rate": "fraction",
    "storage.pool.misses_per_op": "count",
    "storage.page_read_us": "us",
    "storage.tree.apply_us": "us",
    "storage.tree.range_us": "us",
    "storage.tree.nearest_us": "us",
    "storage.bulk_load_s": "s",
    "storage.open_s": "s",
    "loadgen.send_lag_p99_ms": "ms",
    "loadgen.backlog_max": "count",
    "loadgen.p99_ms": "ms",
    "loadgen.worst_rung_tail_ms": "ms",
    "loadgen.write_p50_ms": "ms",
    "loadgen.write_tail_ms": "ms",
    "loadgen.read_p50_ms": "ms",
    "loadgen.read_tail_ms": "ms",
    "loadgen.max_ok_rate": "ops/s",
    "budget.coverage": "ratio",
    "trace.overhead": "ratio",
}

#: Figures printed for a reader but not part of the JSON contract.
EXTRA_UNITS: Dict[str, str] = {
    "cpu_ms_per_op": "ms",
    "p99_ms": "ms",
    "pool_trials_per_s": "1/s",
    "write_p50_ms": "ms",
    "write_tail_ms": "ms",
    "read_p50_ms": "ms",
    "read_tail_ms": "ms",
    "error_ratio": "fraction",
    "send_lag_p99_ms": "ms",
}


def child_parser(description: str) -> argparse.ArgumentParser:
    """Flags every workload process takes from ``run.py``."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True,
                        help="scratch directory owned by this run")
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path, default=None)
    parser.add_argument("--launched-at", type=float, required=True,
                        help="time.perf_counter() just before launch")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--inject-census-mismatch", action="store_true")
    return parser


def child_env(work: Path) -> Dict[str, str]:
    """Environment of every process the benchmark starts: the package
    from source, no run database, temp files inside the run's dir."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["REPRO_NO_DB"] = "1"
    env["TMPDIR"] = str(work)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def usable_cpus() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def environment() -> Dict[str, Any]:
    """What the numbers were measured on."""
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu_count": usable_cpus(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_sha": sha,
    }


def percentile_ms(seconds: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``seconds``, in milliseconds (0.0 for
    no samples); warns when fewer than ten samples lie beyond it."""
    values = np.asarray(seconds, dtype=np.float64)
    if values.size == 0:
        return 0.0
    beyond = values.size * (100.0 - q) / 100.0
    if q > 50 and beyond < 10:
        print(f"warning: p{q:g} of {values.size} samples has only "
              f"{beyond:.1f} beyond it", file=sys.stderr)
    return float(np.percentile(values, q)) * 1e3


def tail_ms(seconds: Sequence[float]) -> float:
    """The highest percentile up to p99 (and at least p50) that has ten
    samples beyond it, in milliseconds: p99 from 1000 samples up."""
    values = np.asarray(seconds, dtype=np.float64)
    if values.size == 0:
        return 0.0
    q = min(99.0, max(50.0, 100.0 * (1.0 - 10.0 / values.size)))
    return float(np.percentile(values, q)) * 1e3


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when there is no base."""
    return numerator / denominator if denominator else 0.0


def proc_cpu_s(pid: int) -> float:
    """CPU seconds process ``pid``'s live threads have run so far, from
    their ``schedstat`` (nanoseconds, where ``stat`` counts 10 ms
    ticks)."""
    total = 0
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            total += int((task / "schedstat").read_text().split()[0])
        except OSError:  # thread exited while listing
            continue
    return total / 1e9


def child_pids() -> List[int]:
    """Live child processes of this process (pool workers, servers)."""
    pids: List[int] = []
    for task in Path("/proc/self/task").iterdir():
        try:
            pids += [int(p) for p in (task / "children").read_text().split()]
        except OSError:  # thread exited while listing
            continue
    return pids


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of process ``pid``, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def write_result(
    path: Path,
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, float],
    extra: Optional[Dict[str, float]] = None,
    info: Optional[Dict[str, Any]] = None,
) -> None:
    """The workload process's answer to ``run.py``."""
    path.write_text(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: float(v) for k, v in metrics.items()},
        "extra": {k: float(v) for k, v in (extra or {}).items()},
        "info": info or {},
    }), encoding="utf-8")
