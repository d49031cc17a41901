"""Inspector ablation: serial dict-walk vs vectorized inspector engine.

Times the *inspector phase* — the analysis work the paper's stamped hash
tables make cheap to repeat — under each backend at 16 simulated ranks
(and the headline phases again at 128 ranks, same total sizes, where any
work per *rank* shows):

* ``chaos_hash`` of a fresh indirection array (probe + translate +
  insert + stamp + localize);
* adaptive ``rehash`` of a mostly-unchanged array (the paper's §3.2.2
  reuse win: most indices are already in the table);
* ``build_schedule`` from the stamped entries (``CHAOS_schedule``);
* ``localize_only`` of an unchanged array (pure lookup);
* ``rehash_delta`` of only the touched positions (128 ranks).

Both backends charge identical virtual time and traffic — the difference
measured here is pure wall-clock interpreter cost: the serial backend
walks a Python dict one key at a time and visits every rank pair, the
vectorized engine looks every rank's keys up as one stream in the
table group's direct-address key map and charges exchanges from count
matrices.

The JSON result records the combined ``chaos_hash + build_schedule``
speedup at 16 ranks (the PR-2 acceptance metric: >= 3x) and at 128 ranks
(``hash+schedule_p128``, gated the same way), plus the advisory
``rehash_delta_p128`` ratio.
"""

from __future__ import annotations

import sys
import time

sys.path.insert(0, __file__.rsplit("/", 1)[0])

import numpy as np  # noqa: E402

from common import full_scale, print_table  # noqa: E402

from repro.core import (  # noqa: E402
    ExecutionContext,
    TranslationTable,
    build_schedule,
    chaos_hash,
    clear_stamp,
    localize_only,
    make_hash_tables,
    rehash_delta,
)
from repro.sim import Machine  # noqa: E402

N_RANKS = 16
N_RANKS_WIDE = 128  # the rank-count dimension: same sizes, 8x the ranks
BACKENDS = ("serial", "vectorized")


def workload():
    if full_scale():
        return dict(n_global=200_000, n_refs=800_000, churn=0.05, rounds=3)
    return dict(n_global=40_000, n_refs=160_000, churn=0.05, rounds=3)


def run_once(backend: str, cfg: dict, seed: int = 11,
             n_ranks: int = N_RANKS) -> dict[str, float]:
    """One full inspector cycle; returns wall-clock seconds per phase."""
    rng = np.random.default_rng(seed)
    n, n_refs = cfg["n_global"], cfg["n_refs"]
    m = Machine(n_ranks)
    ctx = ExecutionContext.resolve(m, backend)
    tt = TranslationTable.from_map(m, rng.integers(0, n_ranks, n))
    group = make_hash_tables(ctx, tt)
    refs = rng.integers(0, n, n_refs)
    per = n_refs // n_ranks
    idx = [refs[p * per:(p + 1) * per] for p in range(n_ranks)]

    t0 = time.perf_counter()
    chaos_hash(ctx, group, tt, idx, "nb")
    t_hash = time.perf_counter() - t0

    t0 = time.perf_counter()
    sched = build_schedule(ctx, group, "nb")
    t_sched = time.perf_counter() - t0
    del sched

    # adaptive step: a small fraction of references change
    n_churn = int(cfg["churn"] * per)
    idx2 = []
    for a in idx:
        b = a.copy()
        if n_churn:
            b[rng.integers(0, per, n_churn)] = rng.integers(0, n, n_churn)
        idx2.append(b)
    clear_stamp(ctx, group, "nb")
    t0 = time.perf_counter()
    chaos_hash(ctx, group, tt, idx2, "nb")
    t_rehash = time.perf_counter() - t0

    t0 = time.perf_counter()
    localize_only(ctx, group, idx2)
    t_localize = time.perf_counter() - t0

    # the same kind of step as a touched-subset update
    pos = rng.choice(per, size=n_churn, replace=False)
    t0 = time.perf_counter()
    rehash_delta(ctx, group, tt, "nb", [a[pos] for a in idx2],
                 [rng.integers(0, n, n_churn) for _ in idx2])
    t_delta = time.perf_counter() - t0

    return {"chaos_hash": t_hash, "build_schedule": t_sched,
            "rehash": t_rehash, "localize_only": t_localize,
            "rehash_delta": t_delta}


def best_of(cfg: dict, n_ranks: int) -> dict[str, dict[str, float]]:
    """Per backend, the fastest time of each phase over the rounds."""
    best: dict[str, dict[str, float]] = {b: {} for b in BACKENDS}
    for backend in BACKENDS:
        for r in range(cfg["rounds"]):
            t = run_once(backend, cfg, seed=11 + r, n_ranks=n_ranks)
            for phase, dt in t.items():
                best[backend][phase] = min(dt, best[backend].get(phase, dt))
    for phases in best.values():
        phases["hash+schedule"] = (phases["chaos_hash"]
                                   + phases["build_schedule"])
    return best


def main() -> None:
    cfg = workload()
    best = best_of(cfg, N_RANKS)
    wide = best_of(cfg, N_RANKS_WIDE)

    def row(label, table, phase):
        s, v = table["serial"][phase], table["vectorized"][phase]
        return [label, 1e3 * s, 1e3 * v, s / v if v else float("inf")]

    rows = [row(phase, best, phase) for phase in
            ("chaos_hash", "build_schedule", "rehash", "localize_only",
             "hash+schedule")]
    rows += [row(f"{phase}_p{N_RANKS_WIDE}", wide, phase)
             for phase in ("hash+schedule", "rehash_delta")]
    speedup, speedup_wide = rows[4][3], rows[5][3]
    print_table(
        f"Inspector phase ablation ({N_RANKS} ranks, "
        f"{cfg['n_refs']} references over {cfg['n_global']} elements; "
        f"_p{N_RANKS_WIDE}: the same over {N_RANKS_WIDE} ranks)",
        ["phase", "serial (ms)", "vectorized (ms)", "speedup"],
        rows,
        json_name="bench_inspector",
        extra={
            "n_ranks": N_RANKS,
            "config": cfg,
            "wall_clock_s": best,
            f"wall_clock_s_p{N_RANKS_WIDE}": wide,
            "speedup_hash_plus_schedule": speedup,
            f"speedup_hash_plus_schedule_p{N_RANKS_WIDE}": speedup_wide,
            f"speedup_rehash_delta_p{N_RANKS_WIDE}": rows[6][3],
        },
    )
    for label, value in ((f"{N_RANKS} ranks", speedup),
                         (f"{N_RANKS_WIDE} ranks", speedup_wide)):
        if value < 3.0:
            print(f"WARNING: hash+schedule speedup {value:.2f}x at {label} "
                  "below the 3x acceptance target", file=sys.stderr)


if __name__ == "__main__":
    main()
