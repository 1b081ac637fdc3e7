"""One workload run in a fresh interpreter; ``run.py`` starts it.

Modes:

* ``setup``   build the input, report the set-up time and an input digest;
* ``measure`` set up, run one discarded warm-up sweep, then sweep the input
  back to back (closed loop) for ``--seconds``;
* ``trace``   set up and warm up, then alternate an untraced and a traced
  sweep of the input for ``--seconds``, and attribute the traced sweep's
  time to layers;
* ``digest``  sweep the input once and print its output digest (used by
  ``record_digests.py``).

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch directory for spill files; listed in the repository's .gitignore.
WORK_DIR = HERE / ".work"
DIGESTS = HERE / "digests.json"

#: Engine names counted per row (the ``engine`` result column).
ENGINES = ("object", "columnar", "batched")
#: Result columns read back after each sweep.
COLUMNS = (
    "trace",
    "heuristic",
    "capacity_factor",
    "makespan",
    "ratio_to_optimal",
    "engine",
    "kernel_events",
    "memory_wait_s",
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "measure", "trace", "digest"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument(
        "--t0", type=float, required=True, help="time.monotonic() just before the spawn"
    )
    return parser.parse_args(argv)


def input_digest(traces) -> str:
    """Digest of every task field of every input trace."""
    h = hashlib.sha256()
    for trace in traces:
        h.update(trace.label.encode())
        for task in trace.tasks:
            h.update(
                f"{task.name}|{task.volume_bytes.hex()}|{task.comm_seconds.hex()}|"
                f"{task.comp_seconds.hex()}|{task.release_seconds.hex()}\n".encode()
            )
    return h.hexdigest()[:16]


def output_digest(columns) -> str:
    """Digest of (trace, heuristic, capacity_factor, makespan, ratio), floats as hex."""
    h = hashlib.sha256()
    for trace, heuristic, factor, makespan, ratio in zip(
        columns["trace"],
        columns["heuristic"],
        columns["capacity_factor"],
        columns["makespan"],
        columns["ratio_to_optimal"],
    ):
        h.update(
            f"{trace}|{heuristic}|{float(factor).hex()}|{float(makespan).hex()}|"
            f"{float(ratio).hex()}\n".encode()
        )
    return h.hexdigest()[:16]


def _row_problems(columns, expected_rows: int) -> list[str]:
    """Invariants every sweep output must satisfy, whatever the seed."""
    problems = []
    rows = len(columns["ratio_to_optimal"])
    if rows != expected_rows:
        problems.append(f"{rows} rows, expected {expected_rows}")
    for ratio, makespan in zip(columns["ratio_to_optimal"], columns["makespan"]):
        # OMIM is a lower bound of every feasible makespan.
        if not (math.isfinite(makespan) and ratio >= 1.0 - 1e-9):
            problems.append(f"ratio {ratio!r} / makespan {makespan!r} out of range")
            break
    return problems


def run_sweep(workload, traces, spill: Path, expected_digest, tracer=None) -> dict:
    """Run one sweep; time ``Study.run()`` only, then check its rows."""
    from repro.obs import REGISTRY

    study = workload.study(traces, str(spill))
    lanes_before = REGISTRY.counter_total("sweep_batch_lanes_total")
    spill_before = REGISTRY.counter_total("spill_bytes_total")
    expected_rows = workload.expected_rows(traces)
    gc.collect()
    with tracer.installed() if tracer is not None else nullcontext():
        started = time.perf_counter()
        try:
            results = study.run()
        except Exception as exc:  # a failing sweep counts all its rows as failed
            wall = time.perf_counter() - started
            print(f"sweep failed: {exc!r}", file=sys.stderr)
            return {"wall_s": wall, "rows": expected_rows, "failed": expected_rows}
        wall = time.perf_counter() - started
    try:
        columns = {name: results.column(name) for name in COLUMNS}
    finally:
        if workload.spills:
            results.close()
            spill.unlink(missing_ok=True)
    digest = output_digest(columns)
    problems = _row_problems(columns, expected_rows)
    if expected_digest is not None and digest != expected_digest:
        problems.append(f"digest {digest} != committed {expected_digest}")
    for problem in problems:
        print(f"{workload.name}: {problem}", file=sys.stderr)
    engines = Counter(columns["engine"])
    ratios = columns["ratio_to_optimal"]
    return {
        "wall_s": wall,
        "rows": expected_rows,
        "failed": expected_rows if problems else 0,
        "digest": digest,
        "ratio_mean": math.fsum(ratios) / len(ratios) if ratios else math.nan,
        "dispatch": {
            **{f"rows_{name}": engines.get(name, 0) for name in ENGINES},
            "batched_lanes": REGISTRY.counter_total("sweep_batch_lanes_total") - lanes_before,
            "kernel_events": sum(columns["kernel_events"]),
            "memory_wait_s": math.fsum(w for w in columns["memory_wait_s"] if not math.isnan(w)),
            "spill_bytes": REGISTRY.counter_total("spill_bytes_total") - spill_before,
        },
    }


def _committed(workload: str, seed: int) -> str | None:
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    from repro.api.registry import solver_names

    solver_names()  # loading the registry built-ins is part of set-up
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    traces = workload.make_input(args.seed)
    setup_s = time.monotonic() - args.t0
    out = {"setup_s": setup_s, "input": input_digest(traces)}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    import numpy

    out["numpy"] = numpy.__version__
    committed = _committed(workload.name, args.seed)
    out["digest_committed"] = committed is not None
    WORK_DIR.mkdir(exist_ok=True)
    spill = WORK_DIR / f"spill-{os.getpid()}.jsonl"

    def sweep(tracer=None) -> dict:
        return run_sweep(workload, traces, spill, committed, tracer)

    if args.mode == "digest":
        out["digest"] = sweep()["digest"]
        print(json.dumps(out))
        return 0

    warmup = workload.warmup(traces, str(spill)).run()
    if workload.spills:
        warmup.close()
        spill.unlink(missing_ok=True)
    del warmup

    started = time.perf_counter()
    if args.mode == "measure":
        sweeps = []
        while not sweeps or time.perf_counter() - started < args.seconds:
            sweeps.append(sweep())
        if len({s.get("digest") for s in sweeps}) != 1:
            # One input swept again must give the same rows every time.
            print(f"{workload.name}: sweeps of one input disagree", file=sys.stderr)
            for s in sweeps:
                s["failed"] = s["rows"]
        out["sweeps"] = sweeps
    else:
        out.update(_traced(sweep, started, args.seconds, workload))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


def _traced(sweep, started: float, seconds: float, workload) -> dict:
    """Untraced/traced pairs of the input; per-layer figures per sweep.

    Trace sanity: the traced sweeps must reproduce the untraced outputs and
    dispatch exactly, repeat their call counts, and call every named layer.
    """
    from layers import LAYERS, LayerTracer

    plain, traced, reports, calls = [], [], [], []
    while not plain or time.perf_counter() - started < seconds:
        plain.append(sweep())
        tracer = LayerTracer()
        traced.append(sweep(tracer))
        reports.append(tracer.report(traced[-1]["wall_s"]))
        calls.append(tracer.calls)
    problems = []
    outputs = {(run.get("digest"), json.dumps(run.get("dispatch"))) for run in plain + traced}
    if len(outputs) != 1:
        problems.append("traced and untraced sweeps disagree on outputs or dispatch")
    if any(c != calls[0] for c in calls):
        problems.append("layer call counts differ between traced sweeps of one input")
    problems.extend(f"layer {layer} was never called" for layer in LAYERS if not calls[0][layer])
    dispatch = plain[0].get("dispatch", {})
    if workload.spills and not dispatch.get("spill_bytes"):
        problems.append("the spill wrote no bytes")
    for problem in problems:
        print(f"{workload.name}: trace sanity: {problem}", file=sys.stderr)

    layers = {
        name: (calls[0][name[: -len(".calls")]] if name.endswith(".calls")
               else statistics.fmean(r[name] for r in reports))
        for name in reports[0]
    }
    layers["trace.overhead_share"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in plain)
        - 1.0
    )
    for key, value in dispatch.items():
        layers[f"api.results.{key}" if key == "spill_bytes" else f"simulator.{key}"] = value
    rows = plain[0]["rows"]
    return {
        "layers": layers,
        "sweeps": plain + traced,
        "trace_failed": rows if problems else 0,
    }


if __name__ == "__main__":
    sys.exit(main())
