"""Benchmark-regression gate: compare fresh results to committed baselines.

Wall-clock milliseconds differ wildly between machines, so the gate
compares *vectorized-vs-serial speedup ratios* — both backends run in the
same process on the same hardware, which makes the ratio a stable,
machine-independent measure of whether the vectorized engine's advantage
is eroding.  A gated check fails when a baseline ratio shrinks by more
than ``--max-slowdown`` (default 1.3x); the remaining per-phase ratios
are advisory (reported, never fatal) because short phases are too noisy
on shared CI runners to gate on individually.

Baselines are committed JSON files at the repository root
(``BENCH_inspector.json``, ``BENCH_backends.json``,
``BENCH_adaptive.json``, ``BENCH_lang.json``); fresh results are the
files the benchmark scripts write under ``benchmarks/results/``.  The
adaptive-caching gate extends the same idea to the incremental
inspector: its delta-vs-full rebuild speedup is a same-process ratio,
and its schedule-cache hit rate is deterministic, so both gate without
machine sensitivity.
``--update`` refreshes a baseline when the gated ratios improved or
stayed within a small drift tolerance: a sequence of sub-threshold
erosions cannot ratchet itself into the baseline, one lucky fast run
cannot pin the baseline out of reach, and an unchanged run produces no
file diff (so CI's refresh commit is skipped).  The compiler-path gate
(``bench_lang.py``) is the same kind of number: the sequential numpy
oracle against a compiled ``run_loop``, and one Figure-11 step at two
cell counts — both sides of each ratio from one process.

The gate degrades gracefully but never silently: a *missing* committed
baseline is a clear skip message (first run on a fresh fork), a metric
the current bench emits that the baseline predates (a newly registered
backend) is reported as "no baseline yet" and skipped, and a baseline
that exists but cannot be parsed fails the gate with a message — no
case tracebacks.

Usage::

    python benchmarks/check_regression.py --run      # run benches + gate
    PYTHONPATH=src python benchmarks/bench_inspector.py
    PYTHONPATH=src python benchmarks/bench_backends.py
    PYTHONPATH=src python benchmarks/bench_adaptive.py
    PYTHONPATH=src python benchmarks/bench_lang.py
    python benchmarks/check_regression.py            # gate (CI)
    python benchmarks/check_regression.py --update   # refresh baselines
                                                     # (main branch only)

``--run`` executes the gated benchmark scripts first.  The paper's
tables are not gated here: their cells are exact, and
``benchmarks/tables.py`` plus ``git diff --exit-code --
BENCH_tables.json`` gates them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_RESULTS = os.path.join(REPO_ROOT, "benchmarks", "results")

#: scripts whose JSON results the gate consumes, in run order
GATED_BENCH_SCRIPTS = ("bench_inspector.py", "bench_backends.py",
                       "bench_adaptive.py", "bench_lang.py")


def run_gated_benches() -> None:
    """Regenerate the gated results by running the benchmark scripts."""
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    for script in GATED_BENCH_SCRIPTS:
        path = os.path.join(REPO_ROOT, "benchmarks", script)
        print(f"running {script} ...", flush=True)
        subprocess.run([sys.executable, path], check=True, env=env)


def _inspector_ratios(payload: dict) -> dict[str, float]:
    """Per-phase serial/vectorized wall-clock ratios + the headline one."""
    ratios: dict[str, float] = {}
    wall = payload.get("wall_clock_s", {})
    serial, vec = wall.get("serial", {}), wall.get("vectorized", {})
    for phase in sorted(set(serial) & set(vec)):
        if vec[phase] > 0:
            ratios[phase] = serial[phase] / vec[phase]
    if "hash+schedule" in ratios:  # derived from the phases above
        del ratios["hash+schedule"]
    for key, name in (("speedup_hash_plus_schedule", "hash+schedule"),
                      ("speedup_hash_plus_schedule_p128",
                       "hash+schedule_p128"),
                      ("speedup_rehash_delta_p128", "rehash_delta_p128")):
        if key in payload:
            ratios[name] = float(payload[key])
    return ratios


def _speedups(payload: dict) -> dict[str, float]:
    return {k: float(v) for k, v in payload.get("speedups", {}).items()}


def _adaptive_ratios(payload: dict) -> dict[str, float]:
    """Delta-vs-full rebuild speedups and cache hit fractions.

    ``delta_speedup`` (P=16) and ``delta_speedup_p128`` are same-process
    wall-clock ratios (machine independent, like the other gated
    ratios); ``hit_rate`` is a pure
    function of the caching logic over a deterministic adaptive loop, so
    any erosion is a logic bug rather than noise.  The paged-translation
    hit rate stays advisory — it depends on the byte budget constant.
    """
    ratios: dict[str, float] = {}
    for key in ("delta_speedup", "delta_speedup_p128", "hit_rate"):
        if key in payload:
            ratios[key] = float(payload[key])
    paged = payload.get("paged", {})
    if "page_hit_rate" in paged:
        ratios["page_hit_rate"] = float(paged["page_hit_rate"])
    return ratios


#: (baseline file at repo root, result file under benchmarks/results/,
#:  ratio extractor, metrics that gate — the rest are advisory)
CHECKS = (
    ("BENCH_inspector.json", "bench_inspector.json", _inspector_ratios,
     frozenset({"hash+schedule", "hash+schedule_p128"})),
    ("BENCH_backends.json", "backend_ablation.json", _speedups,
     # sweep_p64 is the rank-count column: a Python loop over ranks in
     # the executor is invisible at P=16 and most of a round at P=64
     frozenset({"gather_scatter", "scatter_append", "halo_x4",
                "sweep_p64"})),
    ("BENCH_adaptive.json", "bench_adaptive.json", _adaptive_ratios,
     frozenset({"delta_speedup", "delta_speedup_p128", "hit_rate"})),
    # a Python loop over ranks x statements sinks the first ratio, one
    # over cells the second; the re-inspection ratio is mostly core's
    # hashing and stays advisory
    ("BENCH_lang.json", "bench_lang.json", _speedups,
     frozenset({"fig10_iter_p32", "fig11_cell_scaling"})),
)


#: sentinel for a file that exists but cannot be parsed — distinct from
#: "absent", because a *corrupt tracked baseline* must fail the gate
#: (silently skipping it would disable regression detection) while a
#: merely missing one is first-run ergonomics
_CORRUPT = object()


def _load(path: str):
    """Parse one result/baseline file.

    Returns the payload dict, ``None`` when the file is absent, or
    :data:`_CORRUPT` when it exists but cannot be read/parsed — never a
    traceback.
    """
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"warning: could not read {path}: {exc}", file=sys.stderr)
        return _CORRUPT


def _gated_mean(ratios: dict[str, float], gated: frozenset[str]) -> float:
    vals = [v for k, v in ratios.items() if k in gated]
    return sum(vals) / len(vals) if vals else 0.0


#: declines up to this factor are treated as run-to-run noise and still
#: refresh the baseline; it must stay well below the gate's
#: ``--max-slowdown`` so a genuine one-shot regression is never absorbed
DRIFT_TOLERANCE = 1.1


def _maybe_update(baseline_path: str, current: dict, extract,
                  gated: frozenset[str], result_path: str) -> None:
    """Refresh a baseline when gated ratios improved or merely drifted.

    Improvements always refresh.  Small declines (< ``DRIFT_TOLERANCE``)
    refresh too, so one lucky run cannot pin the baseline at a value
    typical runs can never reach again (which would turn the gate into a
    permanent failure).  Declines beyond the tolerance keep the old
    baseline: a sequence of just-under-the-gate erosions cannot ratchet
    itself in, because each must land within the much smaller drift
    tolerance of the *original* baseline to be absorbed.
    """
    name = os.path.basename(baseline_path)
    baseline = _load(baseline_path)
    if baseline is not None and baseline is not _CORRUPT:
        # compare over the metrics both sides have: a gated metric the
        # baseline predates (first run after registering it) must not
        # drag the current mean down and block its own adoption
        common = gated & set(extract(baseline)) & set(extract(current))
        old = _gated_mean(extract(baseline), common)
        new = _gated_mean(extract(current), common)
        if new < old and (new <= 0 or old / new > DRIFT_TOLERANCE):
            print(f"baseline kept: {name} (gated mean fell {old:.2f}x -> "
                  f"{new:.2f}x, beyond the {DRIFT_TOLERANCE}x drift "
                  "tolerance)")
            return
    shutil.copyfile(result_path, baseline_path)
    print(f"baseline refreshed: {name} <- {os.path.basename(result_path)}")


def check(results_dir: str, baseline_dir: str, max_slowdown: float,
          update: bool) -> int:
    failures: list[str] = []
    missing: list[str] = []
    for baseline_name, result_name, extract, gated in CHECKS:
        baseline_path = os.path.join(baseline_dir, baseline_name)
        result_path = os.path.join(results_dir, result_name)
        current = _load(result_path)
        if current is None or current is _CORRUPT:
            missing.append(
                f"{result_path} missing or unreadable — run the matching "
                f"benchmark first"
            )
            continue
        if update:
            _maybe_update(baseline_path, current, extract, gated,
                          result_path)
            continue
        baseline = _load(baseline_path)
        if baseline is None:
            # first-run ergonomics: no committed baseline is a skip, not
            # a failure — nothing to regress against yet
            print(f"skipping {baseline_name}: no committed baseline yet "
                  f"(run with --update on main to create it)")
            continue
        if baseline is _CORRUPT:
            # a baseline that exists but cannot be parsed means the gate
            # cannot do its job — fail loudly instead of going green
            failures.append(
                f"{baseline_name}: committed baseline is unreadable — fix "
                f"it or regenerate with --update on main"
            )
            continue
        base_ratios = extract(baseline)
        cur_ratios = extract(current)
        print(f"\n== {baseline_name} vs {result_name} "
              f"(gated metrics fail when the advantage shrinks > "
              f"{max_slowdown:.2f}x) ==")
        for key in sorted(base_ratios):
            if key not in cur_ratios:
                if key in gated:
                    failures.append(f"{baseline_name}: gated metric {key!r} "
                                    "vanished from current results")
                else:
                    print(f"  {key:28s} baseline {base_ratios[key]:6.2f}x  "
                          f"[advisory metric missing from current results]")
                continue
            base, cur = base_ratios[key], cur_ratios[key]
            slowdown = base / cur if cur > 0 else float("inf")
            ok = slowdown <= max_slowdown
            if key in gated:
                status = "OK" if ok else "REGRESSION"
            else:
                status = "advisory" if ok else "advisory-WARN"
            print(f"  {key:28s} baseline {base:6.2f}x  current {cur:6.2f}x"
                  f"  ratio {slowdown:5.2f}  [{status}]")
            if key in gated and not ok:
                failures.append(
                    f"{baseline_name}: {key} speedup fell {slowdown:.2f}x "
                    f"({base:.2f}x -> {cur:.2f}x)"
                )
        # new-backend ergonomics: a metric the current bench emits but
        # the committed baseline predates (e.g. a freshly registered
        # backend's ratios) is reported and skipped, never a crash
        for key in sorted(set(cur_ratios) - set(base_ratios)):
            print(f"  {key:28s} current {cur_ratios[key]:6.2f}x  "
                  f"[new metric — no baseline yet, skipped; refresh with "
                  f"--update]")
    if missing:
        print("\n".join(missing), file=sys.stderr)
        return 2
    if failures:
        print("\nbenchmark regressions detected:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    if not update:
        print("\nall gated benchmark ratios within tolerance")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--results", default=DEFAULT_RESULTS,
                    help="directory holding fresh benchmark JSON results")
    ap.add_argument("--baselines", default=REPO_ROOT,
                    help="directory holding committed BENCH_*.json baselines")
    ap.add_argument("--max-slowdown", type=float, default=1.3,
                    help="tolerated shrink factor of a gated speedup ratio")
    ap.add_argument("--update", action="store_true",
                    help="refresh the committed baselines from the fresh "
                         "results (only where the gated ratios improved) "
                         "instead of gating")
    ap.add_argument("--run", action="store_true",
                    help="run the gated benchmark scripts first, then gate")
    args = ap.parse_args(argv)
    if args.run:
        run_gated_benches()
    return check(args.results, args.baselines, args.max_slowdown,
                 args.update)


if __name__ == "__main__":
    raise SystemExit(main())
