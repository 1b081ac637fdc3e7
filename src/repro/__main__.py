"""``python -m repro`` — solver discovery, sweeps, shard merging and serving.

Four subcommands:

* ``solvers`` (the default, kept flag-compatible with the original CLI) —
  print every registered solver, its category, aliases and favorable
  situation (the Table 6 view)::

      python -m repro
      python -m repro --category dynamic
      python -m repro solvers --category portfolio

* ``sweep`` — build a :class:`repro.api.Study` from flags and run it, so
  the whole sweep engine (trace ensembles, solver/category specs, capacity
  ranges, arrivals, batching, execution backends) is drivable without
  writing Python::

      python -m repro sweep --workload mixed-intensity --traces 8 \\
          --solvers LCMR MAMR category:corrected \\
          --capacities 1.0 2.0 --steps 9 \\
          --backend processes --jobs 4 --output sweep.json

  A progress line is written to stderr while the sweep runs (``--quiet``
  disables it); the aggregate summary goes to stdout and ``--output``
  writes the full ``ResultSet`` as JSON, CSV or JSONL by file extension
  (``--output -`` streams rows to stdout as chunks merge).  Large sweeps
  scale out: ``--spill`` streams rows to an append-only JSONL file,
  ``--checkpoint DIR`` makes a killed sweep resumable, and ``--shard i/N``
  runs one deterministic slice of the job plane on this host::

      python -m repro sweep --workload ccsd --traces 64 --shard 0/4 \\
          --checkpoint ckpt/ --output shard0.jsonl

* ``merge`` — combine the shard files of one sweep back into a single
  ``ResultSet``, byte-identical to the unsharded run::

      python -m repro merge shard*.jsonl --output combined.csv

* ``serve`` — run the :mod:`repro.serve` scheduling daemon: an asyncio HTTP
  service multiplexing solve/sweep requests over a bounded worker pool with
  admission control, per-request deadlines, one shared result cache and
  live ``/metricsz`` metrics::

      python -m repro serve --port 8765 --workers 4 --queue-limit 32

``--version`` prints the package version.  Bad arguments exit with status 2
(argparse conventions) on every subcommand; unexpected runtime failures
exit 1.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from . import __version__
from .api import DEFAULT_CAPACITY_FACTORS, Study, UnknownSolverError, available_solvers
from .heuristics import Category
from .simulator.columnar import ENGINE_CHOICES


def render_solver_table(category: str | None = None) -> str:
    """The solver table as text (one row per registered solver)."""
    infos = list(available_solvers().values())
    if category is not None:
        wanted = Category(category.lower())
        infos = [info for info in infos if info.category is wanted]
        if not infos:
            raise ValueError(f"no registered solvers in category {wanted.value!r}")
    name_width = max(len(info.name) for info in infos)
    category_width = max(len(str(info.category)) for info in infos)
    lines = [
        f"{len(infos)} registered solvers (repro.solve accepts any name or alias)",
        "",
        f"{'solver':<{name_width}}  {'category':<{category_width}}  favorable situation",
    ]
    for info in infos:
        situation = info.favorable_situation or "-"
        lines.append(f"{info.name:<{name_width}}  {str(info.category):<{category_width}}  {situation}")
        if info.aliases:
            lines.append(f"{'':<{name_width}}  {'':<{category_width}}  aliases: {', '.join(info.aliases)}")
    return "\n".join(lines)


def _solvers_main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="List the registered solvers and their favorable situations (Table 6).",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument(
        "--category",
        choices=[c.value for c in Category],
        default=None,
        help="only show one solver family",
    )
    args = parser.parse_args(argv)
    print(render_solver_table(args.category))
    return 0


# --------------------------------------------------------------------- #
# sweep subcommand
# --------------------------------------------------------------------- #
def _sweep_parser() -> argparse.ArgumentParser:
    from .traces.generator import REGIMES

    parser = argparse.ArgumentParser(
        prog="python -m repro sweep",
        description="Build a Study from flags and run it on the chosen execution backend.",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    workload = parser.add_argument_group("workload")
    workload.add_argument(
        "--workload",
        default="mixed-intensity",
        choices=sorted(REGIMES) + ["hf", "ccsd"],
        help="synthetic regime, or a simulated chemistry ensemble (hf/ccsd); default: %(default)s",
    )
    workload.add_argument(
        "--traces", type=int, default=4, help="number of per-process traces to sweep (default: %(default)s)"
    )
    workload.add_argument(
        "--tasks", type=int, default=200, help="tasks per synthetic trace (default: %(default)s)"
    )
    workload.add_argument(
        "--processes",
        type=int,
        default=150,
        help="simulated run size for hf/ccsd workloads (default: %(default)s)",
    )
    workload.add_argument("--seed", type=int, default=0, help="workload seed (default: %(default)s)")
    workload.add_argument(
        "--task-limit", type=int, default=None, help="truncate every trace to its first N tasks"
    )

    shape = parser.add_argument_group("sweep shape")
    shape.add_argument(
        "--solvers",
        nargs="+",
        default=None,
        metavar="SPEC",
        help="solver names, aliases or 'category:<name>' specs "
        "(default: the paper's Figure 9/11 line-up)",
    )
    shape.add_argument(
        "--capacities",
        nargs="+",
        type=float,
        default=None,
        metavar="FACTOR",
        help="capacity factors (multiples of each trace's mc); with --steps, "
        "exactly two bounds of an inclusive range (default: 1.0..2.0 in 0.125 steps)",
    )
    shape.add_argument(
        "--steps", type=int, default=None, help="linear steps between the two --capacities bounds"
    )
    shape.add_argument(
        "--arrivals",
        type=float,
        default=None,
        metavar="LOAD",
        help="run on the streaming runtime under Poisson arrivals at this load",
    )
    shape.add_argument(
        "--arrival-seed", type=int, default=0, help="arrival sampling seed (default: %(default)s)"
    )
    shape.add_argument(
        "--batch-size", type=int, default=None, help="Section 6.3 batched execution window"
    )
    shape.add_argument(
        "--pipelined", action="store_true", help="drop the drain barrier between batches"
    )
    shape.add_argument(
        "--no-validate", action="store_true", help="skip per-schedule feasibility checking"
    )

    execution = parser.add_argument_group("execution")
    execution.add_argument(
        "--engine",
        choices=ENGINE_CHOICES,
        default=None,
        help="execution engine: 'auto' picks the columnar fast path wherever "
        "it applies, 'columnar' requests the per-instance fast path explicitly, "
        "'batched' stacks homogeneous fixed-order sweep lanes into one "
        "numpy step loop (both fall back when unsupported), 'object' "
        "forces the event kernel (default: auto)",
    )
    execution.add_argument(
        "--backend",
        choices=["serial", "processes"],
        default=None,
        help="execution backend (default: REPRO_BACKEND, else processes when --jobs > 1 "
        "and every solver travels by name)",
    )
    execution.add_argument(
        "--jobs", type=int, default=None, help="worker count (default: CPU count, capped by REPRO_NUM_JOBS)"
    )
    execution.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="jobs per shard (default: auto; implies parallel execution)",
    )

    scaling = parser.add_argument_group("scaling")
    scaling.add_argument(
        "--spill",
        default=None,
        metavar="PATH",
        help="stream results into an append-only JSONL spill at PATH instead of "
        "RAM (sweeps above REPRO_SPILL_THRESHOLD rows spill to a temporary "
        "file automatically)",
    )
    scaling.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="record every merged chunk in DIR; re-running with the same DIR "
        "skips completed chunks (sharded runs nest a shard-I-of-N/ subdirectory)",
    )
    scaling.add_argument(
        "--shard",
        default=None,
        metavar="I/N",
        help="run only jobs i, i+N, i+2N... of the sweep; combine the shard "
        "outputs with 'repro merge'",
    )

    output = parser.add_argument_group("output")
    output.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the full ResultSet to PATH (.json, .csv or .jsonl, by "
        "extension), or '-' to stream rows to stdout as chunks merge; with "
        "--shard, PATH is written in the mergeable shard format",
    )
    output.add_argument(
        "--format",
        choices=["csv", "jsonl"],
        default=None,
        help="row format for --output - (default: csv)",
    )
    output.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="trace the sweep with repro.obs and write a Chrome trace-event "
        "file to FILE (open in Perfetto or chrome://tracing); spans from "
        "process-backend workers are merged in",
    )
    output.add_argument(
        "--quiet", action="store_true", help="suppress the stderr progress line"
    )
    return parser


def _sweep_workload(args):
    if args.workload == "hf":
        from .chemistry import hf_ensemble

        return hf_ensemble(processes=args.processes, traces=args.traces, seed=args.seed)
    if args.workload == "ccsd":
        from .chemistry import ccsd_ensemble

        return ccsd_ensemble(processes=args.processes, traces=args.traces, seed=args.seed)
    from .traces.generator import synthetic_stream

    # Lazy stream, not an eager ensemble: traces are produced chunk by
    # chunk while the sweep runs (byte-identical results either way).
    return synthetic_stream(
        args.workload, processes=args.traces, tasks_per_process=args.tasks, seed=args.seed
    )


def _row_writer(fmt: str, stream):
    """A ``(job_index, records)`` callback streaming rows as chunks merge.

    The emitted bytes match ``ResultSet.to_csv``/``to_jsonl`` exactly (CSV
    header once, then rows), so piping ``--output -`` to a file equals
    writing the file after the sweep — without ever holding every row.
    """
    import csv as _csv

    from .api.results import COLUMNS, encode_record_line

    if fmt == "jsonl":

        def write(_job_index, records):
            for record in records:
                stream.write(encode_record_line(record))
            stream.flush()

        return write

    writer = _csv.writer(stream, lineterminator="\n")
    writer.writerow(COLUMNS)
    stream.flush()

    def write(_job_index, records):
        for record in records:
            writer.writerow([getattr(record, name) for name in COLUMNS])
        stream.flush()

    return write


def _format_eta(seconds: float) -> str:
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{int(seconds // 60)}m{int(seconds % 60):02d}s"
    return f"{seconds:.0f}s"


def _progress_line(stream=None, clock=None):
    """A ``(completed, total)`` callback rendering a one-line stderr ticker.

    Beyond the job count, the line reports throughput and an ETA from the
    elapsed wall-clock, plus — when the relevant machinery saw traffic since
    the callback was built — the result-cache hit rate and spill/checkpoint
    activity, all read from the shared :data:`repro.obs.REGISTRY` counters.
    """
    import time as _time

    from . import obs

    stream = stream if stream is not None else sys.stderr
    clock = clock if clock is not None else _time.monotonic
    started = clock()
    counters = (
        "cache_hits_total",
        "cache_misses_total",
        "spill_rows_total",
        "checkpoint_hits_total",
    )
    base = {name: obs.REGISTRY.counter_total(name) for name in counters}
    widest = 0

    def report(completed: int, total: int) -> None:
        nonlocal widest
        line = f"sweep: {completed}/{total} jobs"
        elapsed = clock() - started
        if completed and elapsed > 0:
            rate = completed / elapsed
            line += f" | {rate:.1f} jobs/s"
            if total > completed:
                line += f" | eta {_format_eta((total - completed) / rate)}"
        delta = {name: obs.REGISTRY.counter_total(name) - base[name] for name in counters}
        lookups = delta["cache_hits_total"] + delta["cache_misses_total"]
        if lookups:
            line += f" | cache {100.0 * delta['cache_hits_total'] / lookups:.0f}%"
        if delta["spill_rows_total"]:
            line += f" | spill {int(delta['spill_rows_total'])} rows"
        if delta["checkpoint_hits_total"]:
            line += f" | ckpt {int(delta['checkpoint_hits_total'])} resumed"
        widest = max(widest, len(line))
        stream.write("\r" + line.ljust(widest))
        if completed >= total:
            stream.write("\n")
        stream.flush()

    return report


def render_sweep_summary(results) -> str:
    """Mean ratio-to-OMIM per solver, best solver first — the CLI digest."""
    if not results:
        return "0 measurements — nothing to summarise (empty workload?)"
    means = results.aggregate("ratio_to_optimal", by=("heuristic",), how="mean")
    width = max(len("solver"), *(len(str(name)) for name in means))
    lines = [
        f"{len(results)} measurements "
        f"({len(set(results.column('trace')))} traces x "
        f"{len(set(results.column('capacity_factor')))} capacities x "
        f"{len(means)} solvers)",
        "",
        f"{'solver':<{width}}  mean ratio to OMIM",
    ]
    for name, value in sorted(means.items(), key=lambda item: item[1]):
        lines.append(f"{name:<{width}}  {value:.4f}")
    return "\n".join(lines)


def _sweep_main(argv: Sequence[str]) -> int:
    parser = _sweep_parser()
    args = parser.parse_args(argv)
    stream_rows = args.output == "-"
    if args.output and not stream_rows and not args.output.endswith(
        (".json", ".csv", ".jsonl")
    ):
        # Fail in milliseconds, not after a possibly hours-long sweep.
        parser.error(
            f"--output must end in .json, .csv or .jsonl (or be '-'), got {args.output!r}"
        )
    if args.format is not None and not stream_rows:
        parser.error("--format only applies to --output -")
    shard = None
    if args.shard is not None:
        from .api import parse_shard

        try:
            shard = parse_shard(args.shard)
        except ValueError as error:
            parser.error(str(error))
        if stream_rows:
            parser.error(
                "--shard writes the mergeable shard format; --output - streams "
                "plain rows — give --output a file path instead"
            )
    study = Study().traces(_sweep_workload(args))
    if args.capacities is not None:
        study.capacities(*args.capacities, steps=args.steps)
    elif args.steps is not None:
        study.capacities(DEFAULT_CAPACITY_FACTORS[0], DEFAULT_CAPACITY_FACTORS[-1], steps=args.steps)
    if args.solvers:
        study.solvers(*args.solvers)
    if args.arrivals is not None:
        from .simulator.arrivals import PoissonArrivals

        study.arrivals(PoissonArrivals(load=args.arrivals), seed=args.arrival_seed)
    if args.batch_size is not None:
        study.batched(args.batch_size, pipelined=args.pipelined)
    elif args.pipelined:
        parser.error("--pipelined requires --batch-size")
    if args.task_limit is not None:
        study.task_limit(args.task_limit)
    if args.no_validate:
        study.validate(False)
    if args.engine is not None:
        study.engine(args.engine)
    if args.jobs is not None or args.backend is not None or args.chunk_size is not None:
        study.parallel(args.jobs, backend=args.backend, chunk_size=args.chunk_size)
    if not args.quiet:
        study.on_progress(_progress_line())
    if args.trace:
        study.trace(args.trace)
    if args.spill:
        study.spill(args.spill)
    if args.checkpoint:
        checkpoint_dir = args.checkpoint
        if shard is not None:
            # Each shard resumes independently: its chunk plan covers only
            # its own slice of the job plane, so it needs its own directory.
            checkpoint_dir = os.path.join(
                checkpoint_dir, f"shard-{shard[0]}-of-{shard[1]}"
            )
        study.checkpoint(checkpoint_dir)
    shard_writer = None
    if shard is not None:
        study.shard(shard)
        if args.output:
            from .api.sharding import ShardWriter

            shard_writer = ShardWriter(
                args.output, shard[0], shard[1], jobs_total=args.traces
            )
            study.on_records(shard_writer.append)
    elif stream_rows:
        study.on_records(_row_writer(args.format or "csv", sys.stdout))

    results = study.run()

    if args.trace:
        print(f"wrote Chrome trace to {args.trace}", file=sys.stderr)
    if shard_writer is not None:
        shard_writer.close()
        print(
            f"wrote shard {shard[0]}/{shard[1]} ({shard_writer.jobs_written} jobs, "
            f"{len(results)} rows) to {args.output}; combine with 'repro merge'",
            file=sys.stderr,
        )
        return 0
    if stream_rows:
        print(f"streamed {len(results)} rows to stdout", file=sys.stderr)
        return 0
    if args.output:
        if args.output.endswith(".csv"):
            results.to_csv(args.output)
        elif args.output.endswith(".jsonl"):
            results.to_jsonl(args.output)
        else:
            results.to_json(args.output, indent=2)
        print(f"wrote {len(results)} rows to {args.output}", file=sys.stderr)
    print(render_sweep_summary(results))
    return 0


# --------------------------------------------------------------------- #
# merge subcommand
# --------------------------------------------------------------------- #
def _merge_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro merge",
        description="Combine shard files from 'repro sweep --shard i/N' into one "
        "ResultSet, byte-identical to the unsharded sweep.",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument(
        "shards",
        nargs="+",
        metavar="SHARD",
        help="shard files written by 'repro sweep --shard i/N --output FILE' "
        "(all N shards of one sweep)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the merged ResultSet to PATH (.json, .csv or .jsonl), or "
        "'-' to stream rows to stdout (default: print the summary only)",
    )
    parser.add_argument(
        "--format",
        choices=["csv", "jsonl"],
        default=None,
        help="row format for --output - (default: csv)",
    )
    return parser


def _merge_main(argv: Sequence[str]) -> int:
    parser = _merge_parser()
    args = parser.parse_args(argv)
    stream_rows = args.output == "-"
    if args.output and not stream_rows and not args.output.endswith(
        (".json", ".csv", ".jsonl")
    ):
        parser.error(
            f"--output must end in .json, .csv or .jsonl (or be '-'), got {args.output!r}"
        )
    if args.format is not None and not stream_rows:
        parser.error("--format only applies to --output -")
    from .api.sharding import merge_shards, merge_shards_to_result

    if stream_rows or (args.output and args.output.endswith((".csv", ".jsonl"))):
        # Streaming write: one job in memory per shard, rows out as merged.
        if stream_rows:
            fmt, handle, close = args.format or "csv", sys.stdout, False
        else:
            fmt = "jsonl" if args.output.endswith(".jsonl") else "csv"
            handle, close = open(args.output, "w", encoding="utf-8", newline=""), True
        try:
            write = _row_writer(fmt, handle)
            jobs = rows = 0
            for job_index, records in merge_shards(args.shards):
                write(job_index, records)
                jobs += 1
                rows += len(records)
        finally:
            if close:
                handle.close()
        target = "stdout" if stream_rows else args.output
        print(
            f"merged {len(args.shards)} shards ({jobs} jobs, {rows} rows) to {target}",
            file=sys.stderr,
        )
        return 0
    results = merge_shards_to_result(args.shards)
    if args.output:
        results.to_json(args.output, indent=2)
        print(f"wrote {len(results)} rows to {args.output}", file=sys.stderr)
    print(render_sweep_summary(results))
    return 0


# --------------------------------------------------------------------- #
# serve subcommand
# --------------------------------------------------------------------- #
def _serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Run the repro scheduling service (asyncio HTTP daemon).",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default: %(default)s)")
    parser.add_argument(
        "--port",
        type=int,
        default=8765,
        help="TCP port; 0 binds an ephemeral port, printed on startup (default: %(default)s)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="worker threads executing jobs (default: %(default)s)"
    )
    parser.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="admitted executing requests before queueing (default: --workers)",
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=16,
        help="admitted waiting requests beyond --max-inflight; more get HTTP 429 "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-request deadline applied when a request sends none",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="graceful-shutdown patience before giving up on in-flight work "
        "(default: %(default)s)",
    )
    cache = parser.add_mutually_exclusive_group()
    cache.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="shared result-cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro-dt)",
    )
    cache.add_argument("--no-cache", action="store_true", help="disable the shared result cache")
    parser.add_argument("--quiet", action="store_true", help="suppress per-request log lines")
    return parser


def _serve_main(argv: Sequence[str]) -> int:
    parser = _serve_parser()
    args = parser.parse_args(argv)
    from .serve import ServerConfig, serve_forever

    try:
        config = ServerConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            max_inflight=args.max_inflight,
            queue_limit=args.queue_limit,
            default_deadline_s=args.deadline,
            drain_timeout_s=args.drain_timeout,
            cache_dir="" if args.no_cache else args.cache_dir,
            quiet=args.quiet,
        )
    except ValueError as error:
        parser.error(str(error))
    try:
        return serve_forever(config)
    except KeyboardInterrupt:  # pragma: no cover - interactive ^C race
        return 0


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in ("--version", "-V"):
        print(f"repro {__version__}")
        return 0
    try:
        if argv and argv[0] == "sweep":
            return _sweep_main(argv[1:])
        if argv and argv[0] == "merge":
            return _merge_main(argv[1:])
        if argv and argv[0] == "serve":
            return _serve_main(argv[1:])
        if argv and argv[0] == "solvers":
            argv = argv[1:]
        return _solvers_main(argv)
    except (ValueError, UnknownSolverError) as error:
        # Late validation failures (bad category names, unknown solvers,
        # malformed studies) exit like argparse errors: message on stderr,
        # status 2.  UnknownSolverError is a KeyError whose str() is quoted.
        message = error.args[0] if error.args else error
        print(f"error: {message}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # `repro ... | head` must not traceback
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
