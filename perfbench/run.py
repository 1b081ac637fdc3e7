"""Sweep benchmark of repro-dt: three user sweeps through ``Study().run()``.

Run from the repository root::

    python3 perfbench/run.py --workload hf-paper-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a separate
traced run and prints the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed`` (result
rows) and ``metrics``.  The line before it records the host facts and every
sweep's figures.

Each run happens in fresh interpreters started from here: ``SETUP_REPEATS``
interpreters build the input (the set-up time is their median), and the
last of them goes on to warm up and measure.  This file imports only the
standard library, so it adds nothing to what is measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A seed no change is tuned on: confirm a claimed gain on it last.
HELD_OUT_SEED = 7919
#: Whole-run deadline; the interpreters still running then are killed.
DEADLINE_S = 170.0


def declared_metrics(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def child_env() -> dict[str, str]:
    """The caller's environment without repro overrides, single-threaded."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def spawn(mode: str, workload: str, seed: int, seconds: float, deadline: float, *extra) -> dict:
    """Run one child interpreter to completion and return its JSON line."""
    t0 = time.monotonic()
    command = [
        sys.executable,
        str(CHILD),
        "--mode", mode,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--t0", repr(t0),
        *extra,
    ]
    proc = subprocess.run(
        command,
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(deadline - t0, 1.0),
        check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{mode} interpreter exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_facts(load_at_start) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.exists() else ref
        commit = ref
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode())
        source.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit,
        "source_sha256": source.hexdigest()[:16],
        "loadavg_at_start": load_at_start,
        "held_out_seed": HELD_OUT_SEED,
    }


def end_to_end(setups: list[dict], measured: dict) -> tuple[dict, int, int]:
    sweeps = measured["sweeps"]
    attempted = sum(s["rows"] for s in sweeps)
    failed = sum(s["failed"] for s in sweeps)
    values = {
        "rows_per_s": statistics.median(s["rows"] / s["wall_s"] for s in sweeps),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": measured["peak_rss_mb"],
        # Every sweep covers the seed's one input, so this repeats exactly.
        "ratio_mean": sweeps[0].get("ratio_mean", float("nan")),
        "ok_share": 1.0 - failed / attempted,
    }
    return values, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    load_at_start = os.getloadavg()
    deadline = time.monotonic() + DEADLINE_S

    run = (args.workload, args.seed, args.seconds, deadline)
    try:
        if args.trace:
            setups = []
            measured = spawn("trace", *run)
        else:
            setups = [spawn("setup", *run) for _ in range(SETUP_REPEATS - 1)]
            measured = spawn("measure", *run)
    except subprocess.TimeoutExpired:
        print(f"run exceeded {DEADLINE_S:.0f} s", file=sys.stderr)
        return 1
    setups.append(measured)
    if len({s["input"] for s in setups}) != 1:
        print("set-ups of one seed built different inputs", file=sys.stderr)
        return 1

    if args.trace:
        values = measured["layers"]
        attempted = measured["sweeps"][0]["rows"]
        failed = max(measured["trace_failed"], *(s["failed"] for s in measured["sweeps"]))
    else:
        values, attempted, failed = end_to_end(setups, measured)
    units = declared_metrics(args.trace)
    info = {
        "host": {**host_facts(load_at_start), "numpy": measured["numpy"]},
        "workload": args.workload,
        "seed": args.seed,
        "digest_committed": measured["digest_committed"],
        "setup_s": [s["setup_s"] for s in setups],
        "sweeps": measured["sweeps"],
    }
    print(json.dumps(info))
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"no figures for {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
