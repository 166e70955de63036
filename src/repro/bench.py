"""The pinned performance suite — ``python -m repro bench``.

Seven stages exercise the hot paths the runtime owns, each under its
own :class:`~repro.obs.Tracer` so the snapshot records *where* the
time went, not just how much there was:

- **build** — cold serial tree construction (the harness's inner loop);
- **census** — occupancy + per-depth censuses over a prebuilt tree;
- **warm_cache** — cold store then warm load through the result cache,
  reporting hit latency;
- **storage** — cold build of a disk-backed tree (one bucket per page
  through the buffer pool), then the same nearest-neighbor queries
  against a cold and a warm pool, reporting the hit-rate shift, plus
  the sorted bulk-load path building the same point set in one
  sequential pass (census-checked against the incremental build);
- **kernels** — object-tree build+census vs. the vectorized
  Morton-code census engine on the same points, verifying the
  censuses match bit for bit while reporting the speedup;
- **queries** — object-tree walks vs. the batch query kernels
  (range / k-NN / partial match) on identical seeded query batches,
  with the bit-identical parity check on and per-op speedups
  reported;
- **serve** — an in-process :mod:`repro.service` server (WAL, group
  commit, periodic checkpoints) driven by the pipelined load generator
  over a real localhost socket, reporting durable-acknowledged ops/s,
  insert latency percentiles, and the group-commit batch shape.

Every stage runs one untimed warmup first (imports, allocator pools,
numpy dispatch) so first-call outliers stay out of the statistics, and
reports a uniform ``stage_wall_s`` that CI diffs against the committed
baseline (``benchmarks/compare_bench.py``) plus a ``stage_peak_rss_kb``
gauge (``resource.getrusage`` peak RSS, omitted on platforms without
``resource``).

``run_suite`` returns (and optionally writes) a machine-readable
snapshot — ``BENCH_10.json`` at the repo root is the committed
baseline; later PRs regenerate it and diff.  Next to the snapshot the
CLI writes a trace bundle (``BENCH_TRACE_10.json``) holding every
stage's tracer snapshot by name — the input ``repro obs diff`` /
``report`` / ``export`` consume, and the baseline CI's span-level
regression gate diffs against.  The suite is *pinned*: stage
parameters only change when the bench version bumps, so numbers stay
comparable across commits on the same machine.  ``--smoke`` runs a
down-scaled variant for CI, where the artifact records shape and
counters rather than stable timings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from .obs import Tracer, tracing
from .runtime import ExperimentSpec, ResultCache, RuntimeConfig, execute
from .workloads import UniformPoints
from .quadtree import PRQuadtree

#: Bump in lockstep with the BENCH_<N>.json this suite emits.
BENCH_VERSION = 10

#: Pinned stage parameters.  The smoke variant keeps the same shape at
#: CI-friendly sizes.  The storage pool is sized to hold the whole
#: tree, so the warm query pass measures pure hit latency.
PROFILES = {
    "full": {
        "build": {"capacity": 8, "n_points": 2000, "trials": 20},
        "census": {"capacity": 8, "n_points": 20000, "repeats": 20},
        "warm_cache": {"capacity": 8, "n_points": 1000, "trials": 5},
        "storage": {
            "capacity": 8, "n_points": 5000, "pool_pages": 1024,
            "queries": 200,
        },
        "kernels": {"capacity": 8, "sizes": [2000, 20000]},
        "queries": {
            "capacity": 8, "sizes": [2000, 20000], "queries": 256,
            "k": 8, "side": 0.1,
        },
        "serve": {
            "capacity": 4, "ops": 1000, "size": 300,
            "checkpoint_every": 400, "query_fraction": 0.2,
        },
    },
    "smoke": {
        "build": {"capacity": 8, "n_points": 400, "trials": 5},
        "census": {"capacity": 8, "n_points": 2000, "repeats": 5},
        "warm_cache": {"capacity": 8, "n_points": 300, "trials": 3},
        "storage": {
            "capacity": 8, "n_points": 1000, "pool_pages": 256,
            "queries": 50,
        },
        "kernels": {"capacity": 8, "sizes": [400, 2000]},
        "queries": {
            "capacity": 8, "sizes": [400, 2000], "queries": 64,
            "k": 4, "side": 0.1,
        },
        "serve": {
            "capacity": 4, "ops": 300, "size": 100,
            "checkpoint_every": 150, "query_fraction": 0.2,
        },
    },
}

SEED = 1987


def _peak_rss_kb() -> Optional[float]:
    """Peak resident set size in KiB, or ``None`` where the stdlib
    ``resource`` module is unavailable (e.g. Windows)."""
    try:
        import resource
    except ImportError:
        return None
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if maxrss <= 0:
        return None
    # ru_maxrss is KiB on Linux but bytes on macOS
    return maxrss / 1024.0 if sys.platform == "darwin" else float(maxrss)


def _snapshot(tracer: Tracer) -> Dict[str, Any]:
    """Serialize a stage tracer, stamping the peak-RSS gauge first."""
    rss = _peak_rss_kb()
    if rss is not None:
        tracer.gauge("stage_peak_rss_kb", rss)
    return tracer.to_dict()


def environment() -> Dict[str, Any]:
    """Metadata that contextualizes the numbers in a snapshot."""
    from .rundb import current_git_sha

    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "git_sha": current_git_sha(),
    }


def _spec(params: Dict[str, Any], seed: int = SEED) -> ExperimentSpec:
    return ExperimentSpec(
        capacity=params["capacity"],
        n_points=params["n_points"],
        trials=params["trials"],
        seed=seed,
    )


def _stage_build(params: Dict[str, Any]) -> Dict[str, Any]:
    """Cold serial construction through the executor."""
    # untimed warmup trial (throwaway tracer: the measured trace must
    # count exactly the timed trials)
    execute(
        _spec(params).with_trials(1),
        RuntimeConfig(workers=1, use_cache=False, engine="object",
                      tracer=Tracer()),
    )
    tracer = Tracer()
    config = RuntimeConfig(workers=1, use_cache=False, engine="object",
                           tracer=tracer)
    began = time.perf_counter()
    execute(_spec(params), config)
    elapsed = time.perf_counter() - began
    return {
        "params": dict(params),
        "wall_s": elapsed,
        "trees_per_s": params["trials"] / elapsed if elapsed > 0 else 0.0,
        "splits": tracer.counters.get("tree.splits", 0),
        "max_depth": tracer.gauges["tree.max_depth"].max
        if "tree.max_depth" in tracer.gauges else 0,
        "trace": _snapshot(tracer),
    }


def _stage_census(params: Dict[str, Any]) -> Dict[str, Any]:
    """Census throughput over one prebuilt tree."""
    tracer = Tracer()
    tree = PRQuadtree(capacity=params["capacity"])
    tree.insert_many(UniformPoints(seed=SEED).generate(params["n_points"]))
    # untimed warmup census, outside the tracing block — BENCH_3 showed
    # an 8x first-call outlier on census.depth polluting max/mean
    tree.occupancy_census()
    tree.depth_census()
    began = time.perf_counter()
    with tracing(tracer):
        for _ in range(params["repeats"]):
            with tracer.span("census.occupancy"):
                tree.occupancy_census()
            with tracer.span("census.depth"):
                tree.depth_census()
    elapsed = time.perf_counter() - began
    return {
        "params": dict(params),
        "wall_s": elapsed,
        "censuses_per_s": (
            2 * params["repeats"] / elapsed if elapsed > 0 else 0.0
        ),
        "leaves": tree.leaf_count(),
        "trace": _snapshot(tracer),
    }


def _stage_warm_cache(params: Dict[str, Any]) -> Dict[str, Any]:
    """Cold miss+store, then warm hit, against a throwaway cache dir."""
    # untimed warmup trial with caching *off*, so the measured cold
    # store stays genuinely cold while the code paths are warm
    execute(
        _spec(params).with_trials(1),
        RuntimeConfig(workers=1, use_cache=False, engine="object",
                      tracer=Tracer()),
    )
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        tracer = Tracer()
        spec = _spec(params)
        config = RuntimeConfig(
            workers=1, use_cache=True, cache_dir=tmp, engine="object",
            tracer=tracer,
        )
        began = time.perf_counter()
        execute(spec, config)
        cold_s = time.perf_counter() - began
        began = time.perf_counter()
        execute(spec, config)
        warm_s = time.perf_counter() - began
        leftovers = ResultCache(tmp).clear()
    return {
        "params": dict(params),
        "cold_s": cold_s,
        "warm_s": warm_s,
        "warmup_factor": cold_s / warm_s if warm_s > 0 else 0.0,
        "cache_hits": tracer.counters.get("cache.hit", 0),
        "cache_misses": tracer.counters.get("cache.miss", 0),
        "files_removed": leftovers,
        "trace": _snapshot(tracer),
    }


def _stage_storage(params: Dict[str, Any]) -> Dict[str, Any]:
    """Cold build on disk, then cold-pool vs. warm-pool query latency."""
    from .storage import PagedPRQuadtree

    # untimed warmup against a separate scratch file (the measured
    # build must stay cold on its own file); a small tree is enough to
    # warm the imports and page/pool code paths
    with tempfile.TemporaryDirectory(prefix="repro-bench-storage-") as tmp:
        warm_points = UniformPoints(seed=SEED).generate(
            min(params["n_points"], 200)
        )
        tree = PagedPRQuadtree.create(
            str(Path(tmp) / "warmup.pf"),
            capacity=params["capacity"],
            pool_pages=params["pool_pages"],
        )
        tree.insert_many(warm_points)
        tree.checkpoint()
        tree.nearest(warm_points[0], 3)
        tree.close()

    tracer = Tracer()
    with tempfile.TemporaryDirectory(prefix="repro-bench-storage-") as tmp:
        path = str(Path(tmp) / "bench.pf")
        points = UniformPoints(seed=SEED).generate(params["n_points"])
        with tracing(tracer):
            began = time.perf_counter()
            tree = PagedPRQuadtree.create(
                path,
                capacity=params["capacity"],
                pool_pages=params["pool_pages"],
            )
            tree.insert_many(points)
            tree.checkpoint()
            build_s = time.perf_counter() - began
        build_counters = dict(tree.pool.counters)
        pages = tree.pagefile.data_page_count
        file_bytes = tree.pagefile.stats().file_bytes
        tree.close()

        tree = PagedPRQuadtree.open(path, pool_pages=params["pool_pages"])
        queries = points[: params["queries"]]
        with tracing(tracer):
            began = time.perf_counter()
            for q in queries:
                tree.nearest(q, 3)
            cold_s = time.perf_counter() - began
            after_cold = dict(tree.pool.counters)
            began = time.perf_counter()
            for q in queries:
                tree.nearest(q, 3)
            warm_s = time.perf_counter() - began
        after_warm = dict(tree.pool.counters)

        # sorted bulk-load of the same point set: one sequential page
        # pass; census-checked against the incremental build (runs
        # after the query passes so the cold pass stays cold)
        from .storage.bulkload import bulk_load_paged

        bulk_path = str(Path(tmp) / "bench-bulk.pf")
        with tracing(tracer):
            began = time.perf_counter()
            bulk_tree = bulk_load_paged(
                bulk_path, points,
                capacity=params["capacity"],
                pool_pages=params["pool_pages"],
            )
            bulk_s = time.perf_counter() - began
        bulk_parity = (
            bulk_tree.occupancy_census() == tree.occupancy_census()
            and len(bulk_tree) == len(tree)
        )
        bulk_tree.close()
        tree.close()
    warm_hits = after_warm["hits"] - after_cold["hits"]
    warm_misses = after_warm["misses"] - after_cold["misses"]
    warm_total = warm_hits + warm_misses
    return {
        "params": dict(params),
        "build_s": build_s,
        "inserts_per_s": (
            params["n_points"] / build_s if build_s > 0 else 0.0
        ),
        "pages": pages,
        "file_bytes": file_bytes,
        "build_pool": build_counters,
        "cold_query_s": cold_s,
        "warm_query_s": warm_s,
        "warm_speedup": cold_s / warm_s if warm_s > 0 else 0.0,
        "cold_misses": after_cold["misses"],
        "warm_hit_rate": warm_hits / warm_total if warm_total else 0.0,
        "bulk_s": bulk_s,
        "bulk_speedup": build_s / bulk_s if bulk_s > 0 else 0.0,
        "bulk_parity": bulk_parity,
        "trace": _snapshot(tracer),
    }


def _stage_kernels(params: Dict[str, Any]) -> Dict[str, Any]:
    """Object-tree build+census vs. the vectorized census engine.

    Both engines consume the same pre-generated points at each size;
    the stage verifies the censuses agree bit for bit and reports the
    vector engine's speedup over building (and censusing) a real tree.
    """
    from .kernels import vector_census

    capacity = params["capacity"]
    # untimed warmup of both engines at a token size
    warm = UniformPoints(seed=SEED).generate(200)
    warm_tree = PRQuadtree(capacity=capacity)
    warm_tree.insert_many(warm)
    warm_tree.occupancy_census()
    warm_tree.depth_census()
    warm_part = vector_census(warm, capacity)
    warm_part.occupancy_census()
    warm_part.depth_census()

    tracer = Tracer()
    runs: Dict[str, Dict[str, Any]] = {}
    all_parity = True
    for index, size in enumerate(params["sizes"]):
        points = UniformPoints(seed=SEED + index).generate(size)

        began = time.perf_counter()
        tree = PRQuadtree(capacity=capacity)
        tree.insert_many(points)
        occ_obj = tree.occupancy_census()
        depth_obj = tree.depth_census()
        object_s = time.perf_counter() - began

        with tracing(tracer):
            began = time.perf_counter()
            partition = vector_census(points, capacity)
            occ_vec = partition.occupancy_census()
            depth_vec = partition.depth_census()
            vector_s = time.perf_counter() - began

        parity = occ_obj == occ_vec and depth_obj == depth_vec \
            and tree.leaf_count() == partition.leaf_count
        all_parity = all_parity and parity
        runs[str(size)] = {
            "object_s": object_s,
            "vector_s": vector_s,
            "speedup": object_s / vector_s if vector_s > 0 else 0.0,
            "leaves": partition.leaf_count,
            "parity": parity,
        }
    return {
        "params": dict(params),
        "runs": runs,
        "parity": all_parity,
        "trace": _snapshot(tracer),
    }


def _stage_queries(params: Dict[str, Any]) -> Dict[str, Any]:
    """Object-tree walks vs. the batch query kernels on identical
    seeded batches (range / k-NN / partial match), parity-verified.

    Build costs are reported separately — the per-op walls measure the
    query phase alone on both engines, which is what the batch kernels
    claim to accelerate.
    """
    from .experiments.queries import run_query_sweep

    capacity = params["capacity"]
    # untimed warmup at a token size (kernel build, numpy dispatch)
    run_query_sweep(
        n=200, capacity=capacity, n_queries=8, k=2, seed=SEED,
    )

    tracer = Tracer()
    runs: Dict[str, Dict[str, Any]] = {}
    all_parity = True
    for index, size in enumerate(params["sizes"]):
        with tracing(tracer):
            report = run_query_sweep(
                n=size, capacity=capacity, seed=SEED + index,
                n_queries=params["queries"], k=params["k"],
                side=params["side"],
            )
        summary = report.to_dict()
        runs[str(size)] = {
            "build_tree_s": summary["build_tree_s"],
            "build_kernel_s": summary["build_kernel_s"],
            "ops": summary["ops"],
            "verified": report.verified,
        }
        all_parity = all_parity and report.verified
    top = str(max(params["sizes"]))
    top_ops = runs[top]["ops"]
    return {
        "params": dict(params),
        "runs": runs,
        "parity": all_parity,
        "range_speedup": top_ops["range"].get("speedup", 0.0),
        "knn_speedup": top_ops["knn"].get("speedup", 0.0),
        "pm_speedup": top_ops["partial_match"].get("speedup", 0.0),
        "trace": _snapshot(tracer),
    }


def _stage_serve(params: Dict[str, Any]) -> Dict[str, Any]:
    """The serving layer end to end: an in-process server (real
    localhost socket, real WAL fsyncs, periodic checkpoints) driven by
    the pipelined load generator.  Reports durably-acknowledged ops/s
    and insert latency percentiles — every mutation counted was fsynced
    before its ack."""
    import asyncio

    from .service import SpatialIndexServer, open_state
    from .service.loadgen import run_load

    async def drive(root: Path, ops: int, size: int):
        tree, wal, _ = open_state(
            root / "serve.pf", create=True, capacity=params["capacity"]
        )
        server = SpatialIndexServer(
            tree, wal, port=0,
            checkpoint_every=params["checkpoint_every"],
        )
        await server.start()
        host, port = server.address
        try:
            return await run_load(
                host, port, ops=ops, size=size, seed=SEED,
                query_fraction=params["query_fraction"],
            )
        finally:
            await server.stop()

    # untimed warmup on a scratch state (event loop, sockets, service
    # imports); the measured run gets its own fresh state
    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as tmp:
        asyncio.run(drive(Path(tmp), ops=60, size=30))

    tracer = Tracer()
    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as tmp:
        with tracing(tracer):
            began = time.perf_counter()
            report = asyncio.run(
                drive(Path(tmp), ops=params["ops"], size=params["size"])
            )
            elapsed = time.perf_counter() - began
    insert_hist = report.latencies.get("insert")
    commits = tracer.counters.get("service.commits", 0)
    return {
        "params": dict(params),
        "wall_s": elapsed,
        "ops": report.ops,
        "mutations": report.mutations,
        "queries": report.queries,
        "failures": report.failures,
        "census_verified": report.census_verified,
        "achieved_qps": report.achieved_qps,
        "insert_p50_ms": insert_hist.p50 * 1e3 if insert_hist else 0.0,
        "insert_p99_ms": insert_hist.p99 * 1e3 if insert_hist else 0.0,
        # full per-op client-side percentiles — what the
        # --require-p99-ms gate in benchmarks/compare_bench.py reads
        "latency_ms": report.to_dict()["latency_ms"],
        "commits": commits,
        "mean_commit_batch": (
            report.mutations / commits if commits else 0.0
        ),
        "checkpoints": tracer.counters.get("service.checkpoints", 0),
        "wal_syncs": tracer.counters.get("service.wal.sync_calls", 0),
        "trace": _snapshot(tracer),
    }


def run_suite(smoke: bool = False) -> Dict[str, Any]:
    """Run every pinned stage; returns the snapshot dict.

    Each stage result carries a uniform ``stage_wall_s`` (the stage's
    total wall time, warmup included) — the number CI's regression
    check compares against the committed baseline.
    """
    profile = PROFILES["smoke" if smoke else "full"]
    began = time.time()
    stages = {}
    for name, runner in (
        ("build", lambda: _stage_build(profile["build"])),
        ("census", lambda: _stage_census(profile["census"])),
        ("warm_cache", lambda: _stage_warm_cache(profile["warm_cache"])),
        ("storage", lambda: _stage_storage(profile["storage"])),
        ("kernels", lambda: _stage_kernels(profile["kernels"])),
        ("queries", lambda: _stage_queries(profile["queries"])),
        ("serve", lambda: _stage_serve(profile["serve"])),
    ):
        stage_began = time.perf_counter()
        stages[name] = runner()
        stages[name]["stage_wall_s"] = time.perf_counter() - stage_began
        stages[name]["stage_peak_rss_kb"] = _peak_rss_kb()
    return {
        "bench_version": BENCH_VERSION,
        "profile": "smoke" if smoke else "full",
        "created_unix": began,
        "total_wall_s": time.time() - began,
        "env": environment(),
        "stages": stages,
    }


def summarize(snapshot: Dict[str, Any]) -> str:
    """Human-readable digest of a snapshot."""
    s = snapshot["stages"]
    env = snapshot["env"]
    lines: List[str] = [
        f"repro bench v{snapshot['bench_version']} "
        f"({snapshot['profile']} profile)",
        f"  env       : python {env['python']} on {env['platform']} "
        f"({env['cpu_count']} cpus)",
        f"  build     : {s['build']['trees_per_s']:8.1f} trees/s   "
        f"({s['build']['wall_s']:.3f}s, {s['build']['splits']} splits, "
        f"max depth {s['build']['max_depth']:g})",
        f"  census    : {s['census']['censuses_per_s']:8.1f} census/s  "
        f"({s['census']['wall_s']:.3f}s over {s['census']['leaves']} leaves)",
        f"  warm cache: {s['warm_cache']['warmup_factor']:8.1f}x warmup   "
        f"(cold {s['warm_cache']['cold_s']:.3f}s, "
        f"warm {s['warm_cache']['warm_s']:.4f}s)",
        f"  storage   : {s['storage']['inserts_per_s']:8.0f} inserts/s "
        f"({s['storage']['pages']} pages, warm pool "
        f"{s['storage']['warm_hit_rate']:.0%} hits, "
        f"{s['storage']['warm_speedup']:.1f}x vs cold, "
        f"bulk load {s['storage']['bulk_speedup']:.1f}x"
        + ("" if s["storage"]["bulk_parity"] else ", BULK PARITY BROKEN")
        + ")",
    ]
    kernels = s["kernels"]
    top = str(max(int(size) for size in kernels["runs"]))
    run = kernels["runs"][top]
    lines.append(
        f"  kernels   : {run['speedup']:8.1f}x vector   "
        f"(n={top}: object {run['object_s']:.3f}s vs "
        f"vector {run['vector_s']:.3f}s, "
        + ("censuses identical" if kernels["parity"] else "PARITY BROKEN")
        + ")"
    )
    queries = s["queries"]
    lines.append(
        f"  queries   : {queries['range_speedup']:8.1f}x range    "
        f"(knn {queries['knn_speedup']:.1f}x, "
        f"partial match {queries['pm_speedup']:.1f}x, "
        + ("answers identical" if queries["parity"]
           else "PARITY BROKEN")
        + ")"
    )
    serve = s["serve"]
    lines.append(
        f"  serve     : {serve['achieved_qps']:8.0f} ops/s    "
        f"(insert p50 {serve['insert_p50_ms']:.2f}ms "
        f"p99 {serve['insert_p99_ms']:.2f}ms, "
        f"batch ~{serve['mean_commit_batch']:.0f}, "
        f"{serve['checkpoints']} checkpoints"
        + ("" if serve["failures"] == 0 else
           f", {serve['failures']} FAILED OPS")
        + (", census verified" if serve["census_verified"]
           else ", CENSUS MISMATCH")
        + ")"
    )
    lines.append(f"  total     : {snapshot['total_wall_s']:.3f}s")
    return "\n".join(lines)


def write_snapshot(snapshot: Dict[str, Any], path: Path) -> Path:
    """Write the machine-readable snapshot (pretty JSON, stable keys)."""
    path = Path(path)
    path.write_text(
        json.dumps(snapshot, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def trace_bundle_path(snapshot_path: Path) -> Path:
    """Where the trace bundle lives relative to its snapshot —
    ``BENCH_10.json`` pairs with ``BENCH_TRACE_10.json``; any other name
    gets a ``_trace`` suffix."""
    snapshot_path = Path(snapshot_path)
    name = snapshot_path.name
    if name.startswith("BENCH_"):
        return snapshot_path.with_name("BENCH_TRACE_" + name[len("BENCH_"):])
    return snapshot_path.with_name(
        f"{snapshot_path.stem}_trace{snapshot_path.suffix}"
    )


def write_trace_bundle(snapshot: Dict[str, Any], path: Path) -> Path:
    """Write every stage tracer from ``snapshot`` as one trace bundle.

    The bundle is the ``{"stages": {name: Tracer.to_dict()}}`` shape
    ``repro obs report|diff|export`` consume directly.
    """
    from .obs.diff import extract_traces

    path = Path(path)
    bundle = {
        "bench_version": snapshot["bench_version"],
        "profile": snapshot["profile"],
        "stages": extract_traces(snapshot),
    }
    path.write_text(
        json.dumps(bundle, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def render_traces(snapshot: Dict[str, Any]) -> str:
    """Every stage's span tree rendered like ``--verbose`` renders the
    run report's."""
    from .obs.diff import extract_traces

    sections: List[str] = []
    for name, trace in sorted(extract_traces(snapshot).items()):
        sections.append(f"=== {name} ===\n{Tracer.from_dict(trace).render()}")
    return "\n\n".join(sections)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Run the pinned performance suite and snapshot it.",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="down-scaled CI profile (shape checks, not stable timings)",
    )
    parser.add_argument(
        "--out", default=f"BENCH_{BENCH_VERSION}.json", metavar="PATH",
        help="snapshot path (default: %(default)s; '-' to skip writing; "
             "a trace bundle is written next to it)",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="also print each stage's span tree",
    )
    parser.add_argument(
        "--db", default=None, metavar="PATH",
        help="run database recording the suite "
             "(default: $REPRO_DB or ~/.local/share/repro/runs.sqlite)",
    )
    parser.add_argument(
        "--no-db", action="store_true",
        help="do not record this suite into the run database "
             "(also: REPRO_NO_DB=1)",
    )
    args = parser.parse_args(argv)
    snapshot = run_suite(smoke=args.smoke)
    print(summarize(snapshot))
    if args.verbose:
        print()
        print(render_traces(snapshot))
    if args.out != "-":
        path = write_snapshot(snapshot, Path(args.out))
        print(f"  snapshot  : {path}")
        traces = write_trace_bundle(snapshot, trace_bundle_path(path))
        print(f"  traces    : {traces}")
    from .rundb import RunDB, record_bench_snapshot, resolve_db_path

    db_path = resolve_db_path(args.db, no_db=args.no_db)
    if db_path is not None:
        try:
            with RunDB(db_path) as db:
                run_id = record_bench_snapshot(
                    db, snapshot, label=f"bench --{snapshot['profile']}"
                )
            print(f"  run DB    : {db_path} (run #{run_id})")
        except Exception as exc:  # the suite's numbers already printed
            print(f"warning: run DB record failed: {exc}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
