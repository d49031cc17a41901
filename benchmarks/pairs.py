#!/usr/bin/env python3
"""Alternating parent/change pairs of one e2e workload, with verdicts.

``python3 benchmarks/pairs.py PARENT CHANGE WORKLOAD PAIRS [--seed S]``

``PARENT`` and ``CHANGE`` are two checkouts of the repository.  Pair
``k`` runs the contract form of ``benchmarks/e2e/run.py`` (``--workload
W --seed S+k --seconds T --trace 0``) once in each, one process at a
time, the parent first on even ``k`` and the change first on odd ``k``,
under the harness's ``CHILD_ENV``.  For every end-to-end metric of
``BENCHMARK.json`` it prints both sides' medians and quartiles, the
change's wins (ties count for neither side) and a verdict:

``better``      the change wins >= 9/10 of the pairs and the medians
                differ by more than the parent's interquartile distance
``worse``       the change's median is worse than the parent's by more
                than the metric's bound
``unresolved``  a side's interquartile distance over its median exceeds
                the bound (unless every change run beats every parent run)
``ok``          none of these: inside the bound

then whether ``sim_s`` was identical on every seed, and last the JSON of
the ``workloads`` section of a ``BENCH_e2e.json`` record.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE / "e2e"))
from compare import spread  # noqa: E402
from run import CHILD_ENV  # noqa: E402

SIDES = ("parent", "change")


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          env=dict(os.environ, **CHILD_ENV))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited "
                         f"{proc.returncode}")
    rec = json.loads(lines[-1])
    out = {k: rec[k] for k in ("correct", "attempted", "failed")}
    out.update({k: m["value"] for k, m in rec["metrics"].items()})
    return out


def summarize(pairs: list[dict], metric: dict) -> dict:
    name, bound = metric["name"], metric["bound"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    values = {s: [p[s][name] for p in pairs] for s in SIDES}
    med = {s: statistics.median(values[s]) for s in SIDES}
    quart = {s: (statistics.quantiles(values[s], n=4)
                 if len(pairs) > 1 else [med[s]] * 3) for s in SIDES}
    wins = sum(sign * (p["change"][name] - p["parent"][name]) < 0
               for p in pairs)
    ties = sum(p["change"][name] == p["parent"][name] for p in pairs)
    iqr = quart["parent"][2] - quart["parent"][0]
    widest = max(spread(values[s]) for s in SIDES)
    all_beat = (max(sign * v for v in values["change"])
                < min(sign * v for v in values["parent"]))
    if wins >= 0.9 * len(pairs) and sign * (med["parent"] - med["change"]) > iqr:
        verdict = "better"
    elif sign * (med["change"] - med["parent"]) > bound * abs(med["parent"]):
        verdict = "worse"
    elif widest > bound and not all_beat:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {
        "parent_median": med["parent"], "parent_q1": quart["parent"][0],
        "parent_q3": quart["parent"][2], "change_median": med["change"],
        "change_q1": quart["change"][0], "change_q3": quart["change"][2],
        "change_over_parent": med["change"] / med["parent"],
        "change_wins": wins, "ties": ties, "pairs": len(pairs),
        "bound": bound, "widest_iqr_over_median": widest, "verdict": verdict,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("workload")
    ap.add_argument("pairs", type=int)
    ap.add_argument("--seed", type=int, default=1, help="seed of pair 0")
    ap.add_argument("--seconds", type=float,
                    help="run length (default: BENCHMARK.json run_seconds)")
    args = ap.parse_args()
    contract = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or contract["run_seconds"]
    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}

    pairs = []
    for k in range(args.pairs):
        seed = args.seed + k
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_side(checkouts[side], args.workload, seed,
                                  seconds)
        print(f"pair {k} seed {seed}: " + "  ".join(
            f"{s} host_s={pair[s]['host_s']:.4f}" for s in SIDES),
            file=sys.stderr, flush=True)
        pairs.append(pair)

    summary = {m["name"]: summarize(pairs, m) for m in contract["end_to_end"]}
    print(f"{args.workload}: {len(pairs)} pairs, seeds "
          f"{args.seed}-{args.seed + len(pairs) - 1}")
    print(f"{'metric':12s} {'parent median [q1, q3]':>36s} "
          f"{'change median [q1, q3]':>36s} {'x':>7s} {'wins':>6s}  verdict")
    for name, s in summary.items():
        cols = [f"{s[f'{side}_median']:.5g} [{s[f'{side}_q1']:.5g}, "
                f"{s[f'{side}_q3']:.5g}]" for side in SIDES]
        print(f"{name:12s} {cols[0]:>36s} {cols[1]:>36s} "
              f"{s['change_over_parent']:7.3f} {s['change_wins']:>3d}/"
              f"{s['pairs']:<2d}  {s['verdict']}")
    same_sim = [p["parent"]["sim_s"] == p["change"]["sim_s"] for p in pairs]
    print("sim_s identical per seed: " + " ".join(
        f"{p['seed']}:{'yes' if same else 'NO'}"
        for p, same in zip(pairs, same_sim)))
    summary["failed"] = {
        **{s: sum(p[s]["failed"] for p in pairs) for s in SIDES},
        **{f"attempted_{s}": sum(p[s]["attempted"] for p in pairs)
           for s in SIDES},
    }
    summary["sim_s_identical_per_seed"] = all(same_sim)
    summary["all_correct"] = all(p[s]["correct"] for p in pairs for s in SIDES)
    print(json.dumps({args.workload: {"summary": summary, "pairs": pairs}},
                     indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
