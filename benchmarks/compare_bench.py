#!/usr/bin/env python
"""Compare a bench snapshot's stage wall times against a baseline.

CI runs the smoke bench, then::

    python benchmarks/compare_bench.py BENCH_10.json auto

and fails (exit 1) if any stage's ``stage_wall_s`` exceeds the
baseline's by more than ``--factor`` (default 3 — generous, because
shared CI runners are noisy; the committed full-profile baseline plus
this guard is meant to catch order-of-magnitude rot, not percent-level
drift).  Stages present on only one side are reported and skipped, so
adding or retiring a stage doesn't break older baselines.

The baseline argument accepts a literal path or ``auto``, which
resolves the committed ``BENCH_N.json`` with the **highest N** in
``--repo-root`` (default: this script's parent) — so a bench-version
bump stops requiring a lockstep CI edit.  When the run database holds
two or more bench runs, ``repro db diff`` is the richer check (span
level, median+MAD over history); this script stays as the dependency-
free file-vs-file gate.

``--require-parallel-speedup X`` additionally gates the parallel
stage's headline speedup: the pool must never again ship slower than
serial, so CI's 2-worker smoke leg passes ``1.0``.

``--require-query-speedup X`` gates the queries stage the same way:
the batch range kernel must report at least ``X`` speedup over the
object tree's walks at the stage's top size, and every size's parity
check must have passed — the kernels are only a win while they stay
bit-identical.

``--require-census-speedup X`` gates the kernels stage likewise: the
vector census must match the object tree's census at every size and
beat building the tree by at least ``X`` at the stage's top size.

``--require-p99-ms OP=MS`` (repeatable; a bare number gates
``insert``) is the SLO gate over the serve stage's per-op client-side
latency percentiles (``stages.serve.latency_ms``): the op must be
present with a nonzero count and its p99 must not exceed ``MS``.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Dict, List, Optional


def find_latest_baseline(root: Path) -> Optional[Path]:
    """The committed ``BENCH_N.json`` with the highest N under ``root``
    (trace bundles don't match), or ``None`` when none exists."""
    best: Optional[Path] = None
    best_version = -1
    for path in root.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match and int(match.group(1)) > best_version:
            best_version = int(match.group(1))
            best = path
    return best


def stage_walls(snapshot: dict) -> Dict[str, float]:
    """Map of stage name -> stage_wall_s for stages that report one."""
    walls = {}
    for name, stage in snapshot.get("stages", {}).items():
        wall = stage.get("stage_wall_s")
        if isinstance(wall, (int, float)) and wall > 0:
            walls[name] = float(wall)
    return walls


def compare(
    current: dict, baseline: dict, factor: float
) -> List[str]:
    """Regression messages, empty when every shared stage is within
    ``factor`` of the baseline."""
    cur = stage_walls(current)
    base = stage_walls(baseline)
    problems = []
    for name in sorted(set(cur) & set(base)):
        if cur[name] > base[name] * factor:
            problems.append(
                f"stage '{name}': {cur[name]:.3f}s exceeds "
                f"{factor:g}x baseline ({base[name]:.3f}s)"
            )
    return problems


def check_parallel_speedup(current: dict, minimum: float) -> List[str]:
    """Messages when the parallel stage missed ``minimum`` speedup (or
    degraded chunks mean the pool never actually ran)."""
    stage = current.get("stages", {}).get("parallel")
    if stage is None:
        return ["parallel stage missing from current snapshot"]
    problems = []
    speedup = stage.get("speedup", 0.0)
    if not isinstance(speedup, (int, float)) or speedup < minimum:
        problems.append(
            f"parallel speedup {speedup} below required {minimum:g}x "
            f"({stage.get('workers')} workers, "
            f"engine {stage.get('engine', 'object')})"
        )
    if stage.get("degraded"):
        problems.append(
            f"parallel stage degraded {stage['degraded']} chunk(s) "
            "to in-process execution — the pool did not actually run"
        )
    return problems


def check_query_speedup(current: dict, minimum: float) -> List[str]:
    """Messages when the queries stage missed ``minimum`` range
    speedup or any parity check failed."""
    stage = current.get("stages", {}).get("queries")
    if stage is None:
        return ["queries stage missing from current snapshot"]
    problems = []
    speedup = stage.get("range_speedup", 0.0)
    if not isinstance(speedup, (int, float)) or speedup < minimum:
        problems.append(
            f"batch range speedup {speedup} below required {minimum:g}x"
        )
    if not stage.get("parity"):
        problems.append(
            "query kernel parity check failed — batch answers are not "
            "bit-identical to the object tree's"
        )
    return problems


def check_census_speedup(current: dict, minimum: float) -> List[str]:
    """Messages when the kernels stage missed ``minimum`` census
    speedup at its top size or any size's parity check failed."""
    stage = current.get("stages", {}).get("kernels")
    if stage is None:
        return ["kernels stage missing from current snapshot"]
    runs = stage.get("runs") or {}
    if not runs:
        return ["kernels stage reports no runs"]
    problems = [
        f"vector census parity failed at n={size} — the census is not "
        "bit-identical to the object tree's"
        for size, run in sorted(runs.items(), key=lambda kv: int(kv[0]))
        if not run.get("parity")
    ]
    top = max(runs, key=int)
    speedup = runs[top].get("speedup", 0.0)
    if not isinstance(speedup, (int, float)) or speedup < minimum:
        problems.append(
            f"vector census speedup {speedup} at n={top} below "
            f"required {minimum:g}x"
        )
    return problems


def parse_p99_specs(specs: List[str]) -> Dict[str, float]:
    """``OP=MS`` gate specs (a bare number gates ``insert``).

    Raises ``ValueError`` on an unparsable MS so argparse error
    handling stays at the caller.
    """
    out: Dict[str, float] = {}
    for spec in specs:
        op, sep, ms = spec.partition("=")
        if sep:
            out[op.strip()] = float(ms)
        else:
            out["insert"] = float(spec)
    return out


def check_p99(current: dict, specs: Dict[str, float]) -> List[str]:
    """Messages when the serve stage's per-op p99 misses its SLO."""
    stage = current.get("stages", {}).get("serve")
    if stage is None:
        return ["serve stage missing from current snapshot"]
    latencies = stage.get("latency_ms", {})
    problems = []
    for op, limit_ms in sorted(specs.items()):
        entry = latencies.get(op)
        if not isinstance(entry, dict) or not entry.get("count"):
            problems.append(
                f"serve stage has no latency record for op '{op}' "
                "(p99 gate)"
            )
            continue
        p99 = entry.get("p99", 0.0)
        if not isinstance(p99, (int, float)) or p99 > limit_ms:
            problems.append(
                f"serve op '{op}' p99 {p99:.3f}ms exceeds the "
                f"{limit_ms:g}ms gate ({entry.get('count')} ops)"
            )
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when bench stage wall times regress vs a baseline."
    )
    parser.add_argument("current", help="snapshot from this run")
    parser.add_argument(
        "baseline",
        help="committed baseline snapshot, or 'auto' to use the "
             "highest-N BENCH_N.json in --repo-root",
    )
    parser.add_argument(
        "--repo-root", default=None, metavar="DIR",
        help="where 'auto' looks for BENCH_N.json "
             "(default: this script's parent directory)",
    )
    parser.add_argument(
        "--factor", type=float, default=3.0,
        help="allowed slowdown per stage (default: %(default)s)",
    )
    parser.add_argument(
        "--require-parallel-speedup", type=float, default=None,
        metavar="X",
        help="fail unless the current snapshot's parallel stage reports "
             "speedup >= X (and zero degraded chunks)",
    )
    parser.add_argument(
        "--require-query-speedup", type=float, default=None,
        metavar="X",
        help="fail unless the current snapshot's queries stage reports "
             "range speedup >= X (and all parity checks passed)",
    )
    parser.add_argument(
        "--require-census-speedup", type=float, default=None,
        metavar="X",
        help="fail unless the current snapshot's kernels stage reports "
             "parity at every size and a top-size speedup >= X",
    )
    parser.add_argument(
        "--require-p99-ms", action="append", default=[], metavar="OP=MS",
        help="fail when the serve stage's client-side p99 for OP "
             "exceeds MS (repeatable; bare MS gates insert)",
    )
    args = parser.parse_args(argv)
    try:
        p99_specs = parse_p99_specs(args.require_p99_ms)
    except ValueError:
        parser.error(
            f"--require-p99-ms expects OP=MS or a bare number of ms, "
            f"got {args.require_p99_ms}"
        )
    if args.factor <= 0:
        parser.error(f"--factor must be > 0, got {args.factor}")
    current = json.loads(Path(args.current).read_text(encoding="utf-8"))
    baseline_path = Path(args.baseline)
    if args.baseline == "auto":
        root = Path(args.repo_root) if args.repo_root \
            else Path(__file__).resolve().parent.parent
        found = find_latest_baseline(root)
        if found is None:
            print(f"no BENCH_N.json baseline under {root}", file=sys.stderr)
            return 2
        baseline_path = found
        print(f"baseline: {baseline_path} (resolved by highest N)")
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))

    cur, base = stage_walls(current), stage_walls(baseline)
    if current.get("profile") != baseline.get("profile"):
        print(
            f"note: comparing {current.get('profile')} run against "
            f"{baseline.get('profile')} baseline — only catastrophic "
            "regressions will trip the factor"
        )
    for name in sorted(set(cur) ^ set(base)):
        side = "current" if name in cur else "baseline"
        print(f"note: stage '{name}' only in {side} snapshot; skipped")
    shared = sorted(set(cur) & set(base))
    for name in shared:
        ratio = cur[name] / base[name]
        print(
            f"stage '{name}': {cur[name]:.3f}s vs baseline "
            f"{base[name]:.3f}s ({ratio:.2f}x)"
        )
    problems = compare(current, baseline, args.factor)
    if args.require_parallel_speedup is not None:
        problems.extend(check_parallel_speedup(
            current, args.require_parallel_speedup
        ))
    if args.require_query_speedup is not None:
        problems.extend(check_query_speedup(
            current, args.require_query_speedup
        ))
    if args.require_census_speedup is not None:
        problems.extend(check_census_speedup(
            current, args.require_census_speedup
        ))
    if p99_specs:
        problems.extend(check_p99(current, p99_specs))
    if problems:
        for problem in problems:
            print(f"REGRESSION: {problem}", file=sys.stderr)
        return 1
    print(f"ok: {len(shared)} shared stages within {args.factor:g}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
