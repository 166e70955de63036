"""The repository benchmark: the paper sweep and the durable server,
measured end to end and, in a traced run, layer by layer.

Usage::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed S]
        [--seconds N] [--trace 0|1 | --traced] [--out PATH]

Each workload runs in a fresh child process with its own scratch
directory under ``.bench_e2e/``.  The run prints every metric by name
with its unit, then, as its last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics (untraced) or the per-layer metrics
(``--trace 1``).  Without ``--workload`` every workload runs and the
metric names are prefixed with the workload's.  README.md describes
the workloads and defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from common import (
    E2E_UNITS,
    EXTRA_UNITS,
    LAYER_UNITS,
    SRC,
    WORK_ROOT,
    WORKLOADS,
    child_env,
)

HERE = Path(__file__).resolve().parent
#: Matches ``run_seconds`` in BENCHMARK.json.
DEFAULT_SECONDS = 20
#: A run must end within 180 s; the child gets what is left after
#: start-up and clean-up.
CHILD_TIMEOUT_S = 165
UNITS = {**E2E_UNITS, **LAYER_UNITS, **EXTRA_UNITS}


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark.",
    )
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: every workload)")
    parser.add_argument("--seed", type=int, default=1987,
                        help="source of every input (default: %(default)s)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured seconds per workload "
                             "(default: %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run reporting per-layer metrics")
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1, help="same as --trace 1")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the full result here (and the "
                             "spans of a traced run to PATH.trace.json)")
    # for the self-test: smaller serve preloads, and a wrong expected
    # census to prove a mismatch is reported
    parser.add_argument("--scale", type=float, default=1.0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--inject-census-mismatch", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def stop_group(child: subprocess.Popen) -> None:
    """Kill whatever is left of ``child``'s process group (the child
    leads it) and wait until it is gone."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    child.wait()
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(child.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_workload(
    workload: str, args: argparse.Namespace, out: Optional[Path]
) -> Dict[str, Any]:
    """Run one workload in a fresh process; its result dict."""
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    try:
        result_path = work / "result.json"
        script = "paper.py" if workload == "paper_sweep" else "serve.py"
        cmd = [
            sys.executable, str(HERE / script),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--work", str(work), "--result", str(result_path),
            "--scale", repr(args.scale),
        ]
        if args.inject_census_mismatch:
            cmd.append("--inject-census-mismatch")
        if args.trace and out is not None:
            cmd += ["--trace-out", f"{out}.trace.json"]
        # stdout carries only this script's report
        launched = time.perf_counter()
        child = subprocess.Popen(
            cmd + ["--launched-at", repr(launched)],
            stdout=sys.stderr, env=child_env(work), start_new_session=True,
        )
        try:
            code = child.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise SystemExit(
                f"error: {workload} did not finish in {CHILD_TIMEOUT_S} s"
            )
        finally:
            stop_group(child)
        if code != 0:
            raise SystemExit(f"error: {workload} exited with code {code}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if out is not None:
        out.write_text(json.dumps(dict(result, workload=workload,
                                       seed=args.seed, trace=args.trace),
                                  indent=2) + "\n", encoding="utf-8")
    return result


def report(workload: str, result: Dict[str, Any], names: List[str]) -> None:
    """Print one workload's metrics, with units, for a reader."""
    print(f"{workload}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    values = dict(result["metrics"], **result["extra"])
    for name in names + sorted(result["extra"]):
        print(f"  {name:<50} {values[name]:>14.6g} {UNITS[name]}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the package under test is missing ({SRC / 'repro'}); "
              "run from a full checkout", file=sys.stderr)
        return 2
    units = LAYER_UNITS if args.trace else E2E_UNITS
    names = list(units)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        out = args.out
        if out is not None and len(workloads) > 1:
            out = out.with_name(f"{out.stem}.{workload}{out.suffix}")
        result = run_workload(workload, args, out)
        missing = [n for n in names if n not in result["metrics"]]
        if missing:
            raise SystemExit(f"error: {workload} did not report {missing}")
        report(workload, result, names)
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = f"{workload}." if len(workloads) > 1 else ""
        for name in names:
            summary["metrics"][prefix + name] = {
                "value": result["metrics"][name], "unit": units[name],
            }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
