"""Command-line interface: regenerate the paper's tables and figures.

Usage::

    python -m repro table1 [--trials 10] [--seed 1987]
    python -m repro table2 | table3 | table4 | table5
    python -m repro figure1 | figure2 | figure3
    python -m repro all
    python -m repro model --capacity 4 [--dim 2]
    python -m repro bench [--smoke] [--out BENCH_10.json]
    python -m repro storage build|stat|validate PATH [...]
    python -m repro serve start|stat|top|load|stop [...]
    python -m repro query run|pm-law [...]
    python -m repro obs report|diff|export TRACE [...]
    python -m repro db init|ingest|ls|show|trend|occupancy|report|diff|gc [...]

Each table command reruns the paper's protocol and prints the table in
the paper's layout with the published values in brackets; ``model``
prints the population model's predictions for one configuration.

Execution flags (every table/figure command):

``--workers N``
    Build trial trees across N worker processes (default 1 = serial).
    Results are bit-identical to serial runs.
``--engine {object,vector}``
    Census engine for trial building.  ``vector`` (default) computes
    each trial's census with the Morton-code kernel
    (:mod:`repro.kernels`); ``object`` builds real PR quadtrees, the
    parity oracle — bit-identical numbers, much slower at large n.
    Specs that collect leaf areas fall back to the object engine (the
    kernel has no blocks to measure); the run counts
    ``runtime.engine_fallback`` and ``--verbose`` notes it.
``--cache-dir DIR`` / ``--no-cache``
    Results are cached on disk (default ``$REPRO_CACHE_DIR`` or
    ``~/.cache/repro``) keyed by the full experiment spec, so a rerun
    with identical parameters rebuilds nothing.  ``--no-cache``
    disables the cache for the run.
``--verbose``
    Print a run report (workers, chunks, trees/sec, cache hits) plus
    the instrumentation span tree (where the time went: build vs.
    census vs. cache I/O vs. pool) and its counters/gauges.

``bench`` runs the pinned performance suite (build, census,
warm-cache, storage, object-vs-vector kernels, batch queries, serve)
and writes a machine-readable ``BENCH_10.json`` snapshot plus a
``BENCH_TRACE_10.json`` trace bundle — see :mod:`repro.bench`.

``storage`` builds, inspects, and validates disk-backed PR quadtrees
(one bucket per page through a buffer pool) — see
:mod:`repro.storage.cli`.

``serve`` runs the durable async spatial-index server over a paged
tree (WAL + group commit, snapshot reads, drift monitoring, live
``metrics`` telemetry with a slow-op ring) and its load generator;
``serve top`` is the live metrics view — see
:mod:`repro.service.cli`.

``query`` times the batch query kernels against the object tree's
walks on identical seeded workloads (with a bit-identical parity
check) and fits the empirical partial-match exponent — see
:mod:`repro.experiments.query_cli`.

``obs`` renders, regression-diffs, and exports saved trace snapshots
(Chrome/Perfetto JSON, folded flamegraph stacks) — see
:mod:`repro.obs.cli`.

``db`` queries and maintains the run database every command records
into by default (``--no-db`` / ``REPRO_NO_DB`` opt out; ``--db`` /
``REPRO_DB`` choose the file); ``db report`` renders the history as
markdown with inline SVG charts — see :mod:`repro.rundb.cli`.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:
    from .runtime import RuntimeConfig

# The paper toolkit is imported inside the functions that use it: the
# subcommands :func:`main` hands off import only their own CLI, so
# ``repro serve`` starts without ``experiments``, ``runtime`` or scipy.


def _print_table1(trials: int, seed: int) -> None:
    from .experiments import format_table1, run_table1

    print(format_table1(run_table1(trials=trials, seed=seed)))


def _print_table2(trials: int, seed: int) -> None:
    from .experiments import format_table2, run_table2

    print(format_table2(run_table2(trials=trials, seed=seed)))


def _print_table3(trials: int, seed: int) -> None:
    from .experiments import format_table3, run_table3

    print(format_table3(run_table3(trials=trials, seed=seed)))


def _print_table4(trials: int, seed: int) -> None:
    from .experiments import format_phasing_table, run_table4

    print(
        format_phasing_table(
            run_table4(trials=trials, seed=seed),
            "Table 4 -- occupancy vs size, uniform, m=8 (paper in [])",
        )
    )


def _print_table5(trials: int, seed: int) -> None:
    from .experiments import format_phasing_table, run_table5

    print(
        format_phasing_table(
            run_table5(trials=trials, seed=seed),
            "Table 5 -- occupancy vs size, Gaussian, m=8 (paper in [])",
        )
    )


def _print_figure1(trials: int, seed: int) -> None:
    from .experiments import build_figure1_tree, render_quadtree_ascii

    print("Figure 1 -- PR quadtree for four points:")
    print(render_quadtree_ascii(build_figure1_tree(), resolution=32))


def _print_figure2(trials: int, seed: int) -> None:
    from .experiments import render_semilog_ascii, run_table4

    rows = run_table4(trials=trials, seed=seed)
    print("Figure 2 -- average occupancy vs n, uniform, m=8 (semi-log):")
    print(
        render_semilog_ascii(
            [r.n_points for r in rows], [r.occupancy for r in rows]
        )
    )


def _print_figure3(trials: int, seed: int) -> None:
    from .experiments import render_semilog_ascii, run_table5

    rows = run_table5(trials=trials, seed=seed)
    print("Figure 3 -- average occupancy vs n, Gaussian, m=8 (semi-log):")
    print(
        render_semilog_ascii(
            [r.n_points for r in rows], [r.occupancy for r in rows]
        )
    )


def _print_report(trials: int, seed: int) -> None:
    from .experiments import generate_report

    print(generate_report(trials=trials, seed=seed))


_COMMANDS = {
    "report": _print_report,
    "table1": _print_table1,
    "table2": _print_table2,
    "table3": _print_table3,
    "table4": _print_table4,
    "table5": _print_table5,
    "figure1": _print_figure1,
    "figure2": _print_figure2,
    "figure3": _print_figure3,
}


def _print_model(capacity: int, dim: int) -> None:
    from .core import PopulationModel

    model = PopulationModel(capacity=capacity, dim=dim)
    e = model.expected_distribution()
    print(f"population model: capacity m={capacity}, {1 << dim}-way splits")
    print(f"  expected distribution e = "
          f"({', '.join(f'{v:.4f}' for v in e)})")
    print(f"  average occupancy       = {model.average_occupancy():.4f}")
    print(f"  storage utilization     = {model.storage_utilization():.1%}")
    print(f"  growth rate a           = {model.growth_rate():.4f}")
    print(f"  post-split occupancy    = {model.post_split_occupancy():.4f}")
    print(f"  P(recursive split)      = {model.recursion_probability():.2e}")


def build_parser() -> argparse.ArgumentParser:
    from .runtime import ENGINES

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate Nelson & Samet (SIGMOD 1987) tables/figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in list(_COMMANDS) + ["all"]:
        cmd = sub.add_parser(name, help=f"regenerate {name}")
        cmd.add_argument(
            "--trials", type=int, default=10,
            help="trees per configuration (paper: 10)",
        )
        cmd.add_argument("--seed", type=int, default=1987, help="RNG seed")
        cmd.add_argument(
            "--workers", type=int, default=1,
            help="worker processes for trial building (1 = serial)",
        )
        cmd.add_argument(
            "--engine", choices=ENGINES, default="vector",
            help="census engine: the vectorized Morton-code kernel "
                 "(default) or object trees (the parity oracle; "
                 "bit-identical, slower).  Area-collecting specs fall "
                 "back to object trees — --verbose notes when that "
                 "happens",
        )
        cmd.add_argument(
            "--cache-dir", default=None, metavar="DIR",
            help="result cache directory "
                 "(default: $REPRO_CACHE_DIR or ~/.cache/repro)",
        )
        cmd.add_argument(
            "--no-cache", action="store_true",
            help="always rebuild; neither read nor write the result cache",
        )
        cmd.add_argument(
            "--db", default=None, metavar="PATH",
            help="run database recording the session "
                 "(default: $REPRO_DB or ~/.local/share/repro/runs.sqlite)",
        )
        cmd.add_argument(
            "--no-db", action="store_true",
            help="do not record this run into the run database "
                 "(also: REPRO_NO_DB=1)",
        )
        cmd.add_argument(
            "--verbose", action="store_true",
            help="print a run report (chunks, trees/sec, cache hits)",
        )
    model_cmd = sub.add_parser(
        "model", help="print the population model's predictions"
    )
    model_cmd.add_argument("--capacity", type=int, required=True,
                           help="node capacity m")
    model_cmd.add_argument("--dim", type=int, default=2,
                           help="space dimension (2 = quadtree)")
    sub.add_parser(
        "bench", add_help=False,
        help="run the pinned perf suite (see 'bench --help')",
    )
    sub.add_parser(
        "storage", add_help=False,
        help="disk-backed trees: build/stat/validate "
             "(see 'storage --help')",
    )
    sub.add_parser(
        "serve", add_help=False,
        help="durable spatial-index server: start/stat/top/load/stop "
             "(see 'serve --help')",
    )
    sub.add_parser(
        "query", add_help=False,
        help="batch query experiments: run/pm-law (see 'query --help')",
    )
    sub.add_parser(
        "obs", add_help=False,
        help="trace tooling: report/diff/export (see 'obs --help')",
    )
    sub.add_parser(
        "db", add_help=False,
        help="run database: init/ingest/ls/show/trend/report/diff/gc "
             "(see 'db --help')",
    )
    return parser


def runtime_config_from_args(args: argparse.Namespace) -> RuntimeConfig:
    """Lower parsed CLI flags to the engine's RuntimeConfig."""
    if args.workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {args.workers}")
    from .obs import Tracer
    from .rundb import resolve_db_path
    from .runtime import RuntimeConfig

    return RuntimeConfig(
        workers=args.workers,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        verbose=args.verbose,
        engine=getattr(args, "engine", "vector"),
        tracer=Tracer() if args.verbose else None,
        db_path=resolve_db_path(
            getattr(args, "db", None), no_db=getattr(args, "no_db", False)
        ),
        db_label=getattr(args, "command", None),
    )


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "bench":
        # bench owns its flags; hand the rest of the line straight over
        from .bench import main as bench_main
        return bench_main(argv[1:])
    if argv and argv[0] == "storage":
        from .storage.cli import main as storage_main
        return storage_main(argv[1:])
    if argv and argv[0] == "serve":
        from .service.cli import main as serve_main
        return serve_main(argv[1:])
    if argv and argv[0] == "query":
        from .experiments.query_cli import main as query_main
        return query_main(argv[1:])
    if argv and argv[0] == "obs":
        from .obs.cli import main as obs_main
        return obs_main(argv[1:])
    if argv and argv[0] == "db":
        from .rundb.cli import main as db_main
        return db_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.command == "model":
        _print_model(args.capacity, args.dim)
        return 0
    from .runtime import runtime_session

    config = runtime_config_from_args(args)
    with runtime_session(config):
        if args.command == "all":
            for name, fn in _COMMANDS.items():
                if name == "report":  # already a digest of everything else
                    continue
                fn(args.trials, args.seed)
                print()
        else:
            _COMMANDS[args.command](args.trials, args.seed)
    if config.verbose:
        print()
        print(config.report().summary())
    return 0


if __name__ == "__main__":
    sys.exit(main())
