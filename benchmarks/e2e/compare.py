#!/usr/bin/env python3
"""Compare two sets of benchmark runs: ``compare.py A.json B.json``.

A set is a file written by ``run.py`` (``{"runs": [...]}``; several
seeds per workload give the set its own spread).  A is the base, B the
candidate.  For every end-to-end (metric, workload) pair one row:

``ok``          B's median is no worse than A's by more than the bound
``worse``       it is worse by more than the bound
``unresolved``  a set's own spread (interquartile range / median) exceeds
                the bound, so the pair cannot be called unchanged

``failed_share`` has an absolute bound of 0.  Simulated quantities
(``sim_s``, every ``*.calls``, ``sim.messages``, ``sim.bytes``,
``core.reuse.*``, the boundary counters) are deterministic: for every
(workload, seed) present in both sets they must be identical
(``sim_s`` to 1e-9 relative), reported as ``exact`` rows.  ``--layers``
adds the per-layer medians side by side, without a verdict.

Exits 1 if any row is ``worse`` or any exact quantity differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
EXACT_NAMES = ("sim_s", "sim.messages", "sim.bytes", "sim.comm_s",
               "sim.compute_s", "core.inspector.refs_hashed",
               "core.executor.elements_moved", "core.reuse.hits",
               "core.reuse.builds", "core.reuse.delta_rebuilds",
               "core.reuse.evictions")


def load(path: str) -> list[dict]:
    data = json.loads(Path(path).read_text())
    runs = data["runs"] if isinstance(data, dict) and "runs" in data else data
    return runs if isinstance(runs, list) else [runs]


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def by_pair(runs: list[dict], trace: int) -> dict:
    out = defaultdict(list)
    for r in runs:
        if r["trace"] != trace:
            continue
        for metric, m in r["metrics"].items():
            out[r["workload"], metric].append(m["value"])
    return out


def is_exact(metric: str) -> bool:
    return metric in EXACT_NAMES or metric.endswith(".calls")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a")
    ap.add_argument("b")
    ap.add_argument("--layers", action="store_true",
                    help="also print per-layer medians (no verdict)")
    args = ap.parse_args()
    a_runs, b_runs = load(args.a), load(args.b)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in contract["end_to_end"]}
    status_count = defaultdict(int)

    print(f"{'workload':18s} {'metric':14s} {'A median':>12s} {'B median':>12s}"
          f" {'change':>8s} {'spread A':>9s} {'spread B':>9s} {'bound':>6s}"
          "  verdict")
    a_e2e, b_e2e = by_pair(a_runs, 0), by_pair(b_runs, 0)
    for (workload, metric), a_vals in sorted(a_e2e.items()):
        b_vals = b_e2e.get((workload, metric))
        if not b_vals or metric not in bounds:
            continue
        bound = bounds[metric]["bound"]
        sign = 1.0 if bounds[metric]["better"] == "lower" else -1.0
        a_med, b_med = statistics.median(a_vals), statistics.median(b_vals)
        change = sign * (b_med - a_med) / abs(a_med)
        sa, sb = spread(a_vals), spread(b_vals)
        verdict = ("worse" if change > bound
                   else "unresolved" if max(sa, sb) > bound else "ok")
        status_count[verdict] += 1
        print(f"{workload:18s} {metric:14s} {a_med:12.6g} {b_med:12.6g}"
              f" {change:+8.2%} {sa:9.2%} {sb:9.2%} {bound:6.2g}  {verdict}")

    # failed operations: absolute bound 0
    for workload in sorted({r["workload"] for r in a_runs}):
        fa = [r["failed_share"] for r in a_runs if r["workload"] == workload]
        fb = [r["failed_share"] for r in b_runs if r["workload"] == workload]
        if not fb:
            continue
        verdict = "worse" if max(fb) > max(fa) else "ok"
        status_count[verdict] += 1
        print(f"{workload:18s} {'failed_share':14s} {max(fa):12.6g} "
              f"{max(fb):12.6g} {'':8s} {'':9s} {'':9s} {0:6d}  {verdict}")

    # deterministic quantities: identical per (workload, seed, trace)
    index = {(r["workload"], r["seed"], r["trace"]): r for r in b_runs}
    differs = []
    checked = 0
    for r in a_runs:
        other = index.get((r["workload"], r["seed"], r["trace"]))
        if other is None:
            continue
        for metric, m in r["metrics"].items():
            if not is_exact(metric) or metric not in other["metrics"]:
                continue
            checked += 1
            va, vb = m["value"], other["metrics"][metric]["value"]
            if abs(va - vb) > 1e-9 * max(abs(va), abs(vb)):
                differs.append(f"{r['workload']} seed={r['seed']} {metric}: "
                               f"{va!r} vs {vb!r}")
    print(f"\nexact: {checked} simulated quantities compared on matching "
          f"(workload, seed); {len(differs)} differ")
    for line in differs:
        print(f"  differs  {line}")

    if args.layers:
        a_lay, b_lay = by_pair(a_runs, 1), by_pair(b_runs, 1)
        print(f"\n{'workload':18s} {'per-layer metric':32s} {'A median':>12s}"
              f" {'B median':>12s}")
        for (workload, metric), a_vals in sorted(a_lay.items()):
            b_vals = b_lay.get((workload, metric))
            a_med = statistics.median(a_vals)
            if b_vals and (a_med or statistics.median(b_vals)):
                print(f"{workload:18s} {metric:32s} {a_med:12.6g} "
                      f"{statistics.median(b_vals):12.6g}")

    print("\n" + ", ".join(f"{n} {v}" for v, n in sorted(status_count.items())))
    return 1 if status_count["worse"] or differs else 0


if __name__ == "__main__":
    sys.exit(main())
