"""Hartree–Fock capacity study (the workload behind Figures 9 and 10).

Simulates the HF (SiOSi, tile size 100) run on the Cascade-like machine model,
takes a couple of per-process traces, and studies how the memory capacity of
the target node changes the achievable communication/computation overlap:

* the workload characteristics of Figure 8 (sum comm / sum comp vs OMIM);
* the ratio-to-optimal of every heuristic for capacities mc .. 2 mc;
* the best variant of each heuristic category per capacity (Figure 10).

Run with::

    python examples/hartree_fock_capacity_study.py [--traces N] [--processes P]
"""

from __future__ import annotations

import argparse

from repro import Study
from repro.chemistry import hf_ensemble
from repro.experiments import best_variant_series
from repro.experiments.aggregate import summaries_by_capacity
from repro.traces.stats import characterise_ensemble, summarise
from repro.viz import render_series_table, render_summary_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--traces", type=int, default=2, help="number of per-process traces to study")
    parser.add_argument("--processes", type=int, default=150, help="size of the simulated HF run")
    parser.add_argument(
        "--capacities",
        type=float,
        nargs="*",
        default=[1.0, 1.25, 1.5, 1.75, 2.0],
        help="memory capacities as multiples of mc",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the sweep (default: one per CPU)",
    )
    args = parser.parse_args()

    ensemble = hf_ensemble(processes=args.processes, traces=args.traces)
    print(f"simulated {len(ensemble)} HF traces "
          f"({min(ensemble.task_counts)}-{max(ensemble.task_counts)} tasks per process)\n")

    # Workload characteristics (Figure 8).
    characteristics = characterise_ensemble(ensemble)
    print(
        render_summary_table(
            {
                "sum comm": summarise(c.sum_comm_ratio for c in characteristics),
                "sum comp": summarise(c.sum_comp_ratio for c in characteristics),
                "max(sum comm, sum comp)": summarise(c.area_bound_ratio for c in characteristics),
                "sum comm + sum comp": summarise(c.sequential_ratio for c in characteristics),
            },
            title="HF workload characteristics (ratios to OMIM)",
        )
    )
    mc = summarise(c.min_capacity_bytes for c in characteristics)
    print(f"\nminimum workable capacity mc: median {mc.median / 1e3:.0f} KB\n")

    # Heuristic comparison across capacities (Figures 9 and 10), with the
    # per-trace jobs fanned out over a process pool.
    records = (
        Study()
        .traces(ensemble)
        .capacities(*args.capacities)
        .parallel(args.jobs)
        .run()
    )
    for factor, groups in sorted(summaries_by_capacity(records).items()):
        print(render_summary_table(groups, title=f"capacity = {factor:g} mc"))
        print()
    print(
        render_series_table(
            best_variant_series(records),
            title="best variant of each category (Figure 10)",
            x_label="capacity (x mc)",
        )
    )


if __name__ == "__main__":
    main()
