#!/usr/bin/env python3
"""The repo benchmark: seven workloads, calibrated host time, exact
simulated time, outside-in layer trace.  See README.md beside this file.

Two ways to run it, both from the repository root, no environment needed:

``python3 benchmarks/e2e/run.py [--seed N] [--smoke] [--runs K]``
    every workload, untraced for the end-to-end metrics and then traced
    for the per-layer metrics, one subprocess each; prints every metric by
    name with its unit and writes ``benchmarks/e2e/results/``.

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace T``
    one workload in this process; the last line of stdout is one JSON
    object ``{"correct", "attempted", "failed", "metrics"}`` holding the
    end-to-end metrics (``--trace 0``) or the per-layer ones (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RESULTS = HERE / "results"

#: a retained glibc heap (no mmap per large array, no trimming) removes
#: the first-touch page faults that dominated sys time on this host, and
#: one thread per numeric library keeps the process within its CPUs
CHILD_ENV = {
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str((1 << 31) - 1),
    "MALLOC_TOP_PAD_": str(256 << 20),
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
REEXEC_FLAG = "REPRO_E2E_CHILD"

def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
def units_of(kind: str) -> dict[str, str]:
    """Name -> unit of the contract's ``end_to_end`` / ``per_layer``
    metrics: BENCHMARK.json is the one list of what a run reports."""
    return {m["name"]: m["unit"] for m in contract()[kind]}


def run_one(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool) -> dict:
    if not (ROOT / "src" / "repro").is_dir():
        log(f"the program under test is not at {ROOT / 'src' / 'repro'}")
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import harness
    import tracer as tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[name](smoke=smoke)
    t0 = harness.user_cpu()
    inputs = workload.inputs(seed)
    inputs_s = harness.user_cpu() - t0
    tracer = tracing.Tracer() if trace else None
    rec = harness.measure(workload, inputs, seconds, tracer=tracer)
    for line in rec["failures"]:
        log(line)
    passes = rec["passes"]
    out = {
        "workload": name, "seed": seed, "trace": int(trace), "smoke": smoke,
        "seconds": seconds, "attempted": rec["attempted"],
        "failed": rec["failed"], "correct": rec["failed"] == 0,
        "failed_share": rec["failed"] / rec["attempted"], "metrics": {},
        "detail": {},
    }
    if not passes:
        return out
    mid = harness.median_pass(passes)
    diag = {
        "bench.user_s": mid.setup_user + mid.host_user,
        "bench.sys_s": mid.sys, "bench.wall_s": mid.wall,
        "bench.cal_s": median(rec["cal_samples"]),
        "bench.inputs_s": inputs_s,
    }
    if not trace:
        host = [p.host_s for p in passes]
        values = {
            "setup_s": median(p.setup_s for p in passes),
            "host_s": median(host),
            "sim_s": passes[0].sim_s,
            "peak_rss_mb": harness.peak_rss_mib(),
        }
        out["metrics"] = {k: {"value": values[k], "unit": unit}
                          for k, unit in units_of("end_to_end").items()}
        out["detail"] = dict(
            diag, n=len(passes), host_s_min=min(host), host_s_max=max(host),
            raw=[[p.setup_user, p.host_user, p.scale, p.sys, p.wall]
                 for p in passes])
        return out

    # ---- per-layer metrics: the median traced pass, one coherent view --
    units = units_of("per_layer")
    values = dict.fromkeys(units, 0.0)  # 0 where a workload has no such layer
    tr = mid.trace
    for layer in tracing.LAYERS:
        ns = tr["self_ns"][layer]
        values[f"{layer}.self_s"] = ns / 1e9 * mid.scale
        values[f"{layer}.share"] = ns / mid.cpu_ns
        values[f"{layer}.calls"] = tr["calls"][layer]
    values["trace.untraced_share"] = (
        1.0 - sum(tr["self_ns"].values()) / mid.cpu_ns)
    values["trace.spans"] = len(tr["spans"])
    values.update(tr["counts"])
    values.update(mid.counters)
    # sub-phase marks, wall figures and the overhead base all come from
    # the untraced passes of this same process
    base = rec["baseline"]
    for key in {k for p in base for k in p.marks}:
        values[key] = median(p.marks[key] * p.scale for p in base)
    for key in {k for p in base for k in p.advisory}:
        values[key] = median(p.advisory[key] for p in base)
    base_total = median(p.total_s for p in base)
    values["trace.overhead"] = (median(p.total_s for p in passes)
                                / base_total - 1.0)
    values["trace.unresolved_probes"] = len(tracer.unresolved)
    if values["serve.inline_s"]:  # the same jobs, inline vs served
        values["serve.overhead_s"] = base_total - values["serve.inline_s"]
        values["serve.overhead_ratio"] = base_total / values["serve.inline_s"]
    values.update(diag)
    out["metrics"] = {k: {"value": values[k], "unit": units[k]}
                      for k in units}
    out["detail"] = {"n": len(passes), "n_untraced": len(base),
                     "probes": tracer.installed,
                     "unresolved": tracer.unresolved,
                     "counter_errors": tracer.counter_errors}
    write_spans(name, seed, tracer, tr["spans"])
    return out


def write_spans(name: str, seed: int, tracer, spans) -> None:
    """The reported traced pass's spans, one row each (see README.md)."""
    import numpy as np
    from tracer import LAYERS

    RESULTS.mkdir(exist_ok=True)
    table = np.asarray(spans, dtype=np.int64).reshape(-1, 6)
    np.savez_compressed(
        RESULTS / f"spans-{name}-seed{seed}.npz",
        layer=table[:, 0], name=table[:, 1], thread=table[:, 2],
        start_ns=table[:, 3], end_ns=table[:, 4], parent=table[:, 5],
        layers=np.array(LAYERS), names=np.array(tracer.names),
        workload=np.array(name),
    )


# ----------------------------------------------------------------------
# every workload, one subprocess each
# ----------------------------------------------------------------------
def run_child(name: str, seed: int, seconds: float, trace: int, smoke: bool,
              timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)] + (["--smoke"] if smoke else [])
    failed = {"workload": name, "seed": seed, "trace": trace, "smoke": smoke,
              "correct": False, "attempted": 1, "failed": 1,
              "failed_share": 1.0, "metrics": {}, "detail": {}}
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        failed["detail"]["error"] = f"timed out after {timeout}s"
        return failed
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        failed["detail"]["error"] = f"exit code {proc.returncode}"
        return failed
    path = RESULTS / record_name(name, seed, trace, smoke)
    return json.loads(path.read_text())


def record_name(name: str, seed: int, trace: int, smoke: bool) -> str:
    tag = "-smoke" if smoke else ""
    return f"{name}-seed{seed}-trace{trace}{tag}.json"


def print_run(rec: dict) -> None:
    label = "SMOKE (sizes ~1/20, not comparable) " if rec["smoke"] else ""
    print(f"\n== {rec['workload']}  seed={rec['seed']}  "
          f"{'traced' if rec['trace'] else 'untraced'}  {label}"
          f"failed_share={rec['failed_share']:g} "
          f"({rec['failed']}/{rec['attempted']})")
    if "error" in rec["detail"]:
        print(f"   FAILED: {rec['detail']['error']}")
    for key, m in rec["metrics"].items():
        if m["value"] or not rec["trace"]:
            print(f"   {key:32s} {m['value']:>16.6g} {m['unit']}")
    extra = {k: v for k, v in rec["detail"].items()
             if isinstance(v, (int, float))}
    if extra:
        print("   " + "  ".join(f"{k}={v:.4g}" for k, v in extra.items()))


def run_all(args) -> int:
    timeout = 60.0 if args.smoke else 180.0
    jobs = [(w["name"], seed, args.seconds, trace, args.smoke, timeout)
            for seed in range(args.seed, args.seed + args.runs)
            for w in contract()["workloads"] for trace in (0, 1)]
    # measured runs go one at a time; smoke only checks the harness, so
    # it may use both CPUs
    with ThreadPoolExecutor(max_workers=2 if args.smoke else 1) as pool:
        runs = []
        for rec in pool.map(lambda job: run_child(*job), jobs):
            print_run(rec)
            runs.append(rec)
    RESULTS.mkdir(exist_ok=True)
    tag = "-smoke" if args.smoke else ""
    path = args.out or RESULTS / f"run-seed{args.seed}x{args.runs}{tag}.json"
    Path(path).write_text(json.dumps({"runs": runs}, indent=1))
    bad = [r for r in runs if not r["correct"]]
    print(f"\n{len(runs)} runs, {len(bad)} incorrect; wrote {path}")
    print(json.dumps({"claim": None}))
    return 1 if bad else 0


def contract() -> dict:
    """BENCHMARK.json: the workload names and the run length live there."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="~1/20 sizes: checks the harness, not the program")
    ap.add_argument("--runs", type=int, default=1,
                    help="all-workloads mode: seeds seed..seed+runs-1")
    ap.add_argument("--out", help="all-workloads mode: result file")
    args = ap.parse_args()
    if args.seconds is None:
        args.seconds = 0.1 if args.smoke else contract()["run_seconds"]

    if args.workload is None:
        return run_all(args)

    if os.environ.get(REEXEC_FLAG) != "1":
        env = dict(os.environ, **CHILD_ENV, **{REEXEC_FLAG: "1"})
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    t0 = time.perf_counter()
    rec = run_one(args.workload, args.seed, args.seconds, bool(args.trace),
                  args.smoke)
    rec["detail"]["process_wall_s"] = time.perf_counter() - t0
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / record_name(args.workload, args.seed, args.trace, args.smoke)
     ).write_text(json.dumps(rec, indent=1))
    if not rec["metrics"]:
        log(f"{args.workload}: no pass completed")
        return 1
    print(json.dumps({k: rec[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
