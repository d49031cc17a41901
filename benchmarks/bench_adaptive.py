"""Adaptive caching benchmark: small-delta updates vs full rebuilds.

The paper's premise (§5.3.1) is that adaptive applications touch only a
small subset of an indirection array between inspector invocations — a
CHARMM non-bonded list regenerated every ``update_every`` steps changes
a few percent of its pair entries.  This benchmark times that regime at
16 and at 128 simulated ranks (same total sizes) under the vectorized
backend:

* **full path** — ``clear_stamp`` + ``chaos_hash`` of the whole updated
  array + ``build_schedule`` from scratch (what every adaptive step cost
  before incremental caching);
* **delta path** — ``rehash_delta`` over just the touched positions +
  ``delta_rebuild_schedule`` splicing the delta into the cached CSR
  schedule.

Both paths are run side by side from identical table states each round
and their schedules asserted array-equal, so the reported speedup can
never come from skipped work.  The JSON result records:

* ``delta_speedup`` — full-path / delta-path wall clock for a 2%-churn
  update (gated: >= 2x acceptance, erosion fails CI);
* ``delta_speedup_p128`` — the same ratio at 128 ranks, where any work
  per rank *pair* would show (gated the same way);
* ``hit_rate`` — schedule-cache hit fraction over a deterministic
  adaptive loop driven through ``IrregularReduction`` (gated — it is a
  pure function of the caching logic, so any erosion is a logic bug);
* paged-translation cache counters under a byte budget (advisory).
"""

from __future__ import annotations

import sys
import time

sys.path.insert(0, __file__.rsplit("/", 1)[0])

import numpy as np  # noqa: E402

from common import full_scale, print_table  # noqa: E402

from repro.core import (  # noqa: E402
    ChaosRuntime,
    ExecutionContext,
    IrregularDistribution,
    IrregularReduction,
    TranslationTable,
    build_schedule,
    chaos_hash,
    clear_stamp,
    delta_rebuild_schedule,
    make_hash_tables,
    rehash_delta,
)
from repro.sim import Machine  # noqa: E402

N_RANKS = 16
N_RANKS_WIDE = 128  # the rank-count dimension of the delta path
BACKEND = "vectorized"
CHURN = 0.02  # fraction of the non-bonded list touched per update
PAGE_BUDGET_BYTES = 1 << 18  # 256 KiB/rank for the paged-eviction probe


def workload():
    if full_scale():
        return dict(n_global=400_000, n_refs=1_600_000, rounds=3)
    return dict(n_global=160_000, n_refs=640_000, rounds=3)


def _split(a: np.ndarray, n_ranks: int = N_RANKS) -> list[np.ndarray]:
    per = a.size // n_ranks
    return [a[p * per:(p + 1) * per].copy() for p in range(n_ranks)]


def _schedules_equal(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in (
        (a.counts, b.counts), (a.send, b.send), (a.place, b.place),
        (a.extent, b.extent)))


def bench_delta_speedup(cfg: dict, seed: int = 23,
                        n_ranks: int = N_RANKS) -> dict[str, float]:
    """Time full-rebuild vs delta-rebuild adaptive steps side by side.

    Two identical runtimes start from the same cold inspector state; each
    round applies the same 2%-churn update to both — runtime A through
    the full clear/rehash/rebuild path, runtime B through the delta path
    — and the resulting schedules are asserted equal before timing
    counts.
    """
    rng = np.random.default_rng(seed)
    n, n_refs = cfg["n_global"], cfg["n_refs"]
    refs = rng.integers(0, n, n_refs)
    owner_map = rng.integers(0, n_ranks, n)

    ctxs, tables, groups, = [], [], []
    for _ in range(2):
        m = Machine(n_ranks)
        ctx = ExecutionContext.resolve(m, BACKEND)
        tt = TranslationTable.from_map(m, owner_map)
        group = make_hash_tables(ctx, tt)
        ctxs.append(ctx)
        tables.append(tt)
        groups.append(group)
    idx = _split(refs, n_ranks)
    for ctx, tt, group in zip(ctxs, tables, groups):
        chaos_hash(ctx, group, tt, [a.copy() for a in idx], "nb")
    sched_delta = build_schedule(ctxs[1], groups[1], "nb")

    t_full = t_delta = 0.0
    for r in range(cfg["rounds"]):
        per = idx[0].size
        n_churn = int(CHURN * per)
        positions, old_vals, new_vals, new_idx = [], [], [], []
        for a in idx:
            pos = rng.choice(per, size=n_churn, replace=False)
            nv = rng.integers(0, n, n_churn)
            b = a.copy()
            b[pos] = nv
            positions.append(pos)
            old_vals.append(a[pos])
            new_vals.append(nv)
            new_idx.append(b)

        t0 = time.perf_counter()
        clear_stamp(ctxs[0], groups[0], "nb")
        chaos_hash(ctxs[0], groups[0], tables[0],
                   [a.copy() for a in new_idx], "nb")
        sched_full = build_schedule(ctxs[0], groups[0], "nb")
        t_full += time.perf_counter() - t0

        t0 = time.perf_counter()
        rehash = rehash_delta(ctxs[1], groups[1], tables[1], "nb",
                              old_vals, new_vals)
        sched_delta = delta_rebuild_schedule(ctxs[1], groups[1], "nb",
                                             sched_delta, rehash)
        t_delta += time.perf_counter() - t0

        if not _schedules_equal(sched_full, sched_delta):
            raise AssertionError(
                f"round {r}: delta-rebuilt schedule diverged from the "
                "full rebuild"
            )
        idx = new_idx
    return {
        "t_full_s": t_full,
        "t_delta_s": t_delta,
        "delta_speedup": t_full / t_delta if t_delta > 0 else float("inf"),
    }


def bench_hit_rate(cfg: dict, seed: int = 29) -> dict[str, float]:
    """Deterministic adaptive loop through the ``IrregularReduction``
    facade: steady steps hit the schedule cache, periodic 2%-churn
    updates take the delta path, and one cold step builds.  The
    resulting hit fraction is a pure function of the caching logic."""
    rng = np.random.default_rng(seed)
    n = cfg["n_global"] // 4
    n_refs = cfg["n_refs"] // 4
    rounds, update_every = 12, 3
    m = Machine(N_RANKS)
    rt = ChaosRuntime(ExecutionContext.resolve(m, BACKEND))
    tt = rt.irregular_table(rng.integers(0, N_RANKS, n))
    ia = _split(rng.integers(0, n, n_refs))
    loop = IrregularReduction(rt, tt, "nb").bind(ia=ia)
    cur = [a.copy() for a in ia]
    for r in range(rounds):
        if r and r % update_every == 0:
            per = cur[0].size
            n_churn = int(CHURN * per)
            touched, nxt = [], []
            for a in cur:
                pos = rng.choice(per, size=n_churn, replace=False)
                b = a.copy()
                b[pos] = rng.integers(0, n, n_churn)
                touched.append(pos)
                nxt.append(b)
            loop.adapt("ia", nxt, touched=touched)
            cur = nxt
        else:
            loop.setup()
    st = rt.cache_stats("nb")
    rt.close()
    total = st.hits + st.builds + st.delta_rebuilds
    return {
        "hits": float(st.hits),
        "builds": float(st.builds),
        "delta_rebuilds": float(st.delta_rebuilds),
        "hit_rate": st.hits / total if total else 0.0,
    }


def bench_paged_budget(cfg: dict, seed: int = 31) -> dict[str, float]:
    """Paged translation lookups under a byte budget: LRU keeps resident
    bytes bounded while hit/miss/eviction counters stay observable."""
    rng = np.random.default_rng(seed)
    n = cfg["n_global"]
    m = Machine(N_RANKS)
    ctx = ExecutionContext.resolve(m, BACKEND)
    tt = TranslationTable(
        m, IrregularDistribution(rng.integers(0, N_RANKS, n), N_RANKS),
        storage="paged", page_budget_bytes=PAGE_BUDGET_BYTES)
    group = make_hash_tables(ctx, tt)
    for r in range(3):
        refs = rng.integers(0, n, cfg["n_refs"] // 4)
        chaos_hash(ctx, group, tt, _split(refs), f"nb{r}")
    stats = tt.page_stats()
    resident = max(tt.page_resident_bytes(p) for p in range(N_RANKS))
    if resident > PAGE_BUDGET_BYTES:
        raise AssertionError(
            f"resident page bytes {resident} exceed the "
            f"{PAGE_BUDGET_BYTES}-byte budget"
        )
    total = stats["hits"] + stats["misses"]
    return {
        "page_hits": float(stats["hits"]),
        "page_misses": float(stats["misses"]),
        "page_evictions": float(stats["evictions"]),
        "page_resident_bytes": float(stats["resident_bytes"]),
        "page_hit_rate": stats["hits"] / total if total else 0.0,
    }


def main() -> None:
    cfg = workload()
    delta = bench_delta_speedup(cfg)
    wide = bench_delta_speedup(cfg, n_ranks=N_RANKS_WIDE)
    hits = bench_hit_rate(cfg)
    paged = bench_paged_budget(cfg)
    rows = [
        ["full rebuild (s)", delta["t_full_s"]],
        ["delta rebuild (s)", delta["t_delta_s"]],
        ["delta_speedup", delta["delta_speedup"]],
        [f"full rebuild, P={N_RANKS_WIDE} (s)", wide["t_full_s"]],
        [f"delta rebuild, P={N_RANKS_WIDE} (s)", wide["t_delta_s"]],
        ["delta_speedup_p128", wide["delta_speedup"]],
        ["cache hit_rate", hits["hit_rate"]],
        ["page hit_rate", paged["page_hit_rate"]],
        ["page evictions", paged["page_evictions"]],
    ]
    print_table(
        f"Adaptive caching ({N_RANKS} ranks, {BACKEND}, "
        f"{int(100 * CHURN)}% churn, {cfg['n_refs']} references)",
        ["metric", "value"],
        rows,
        json_name="bench_adaptive",
        extra={
            "n_ranks": N_RANKS,
            "config": cfg,
            "churn": CHURN,
            "page_budget_bytes": PAGE_BUDGET_BYTES,
            "delta_speedup": delta["delta_speedup"],
            "delta_speedup_p128": wide["delta_speedup"],
            "hit_rate": hits["hit_rate"],
            "wall_clock_s": {"full": delta["t_full_s"],
                             "delta": delta["t_delta_s"],
                             "full_p128": wide["t_full_s"],
                             "delta_p128": wide["t_delta_s"]},
            "cache": hits,
            "paged": paged,
        },
    )
    for label, res in ((f"P={N_RANKS}", delta), (f"P={N_RANKS_WIDE}", wide)):
        if res["delta_speedup"] < 2.0:
            print(f"WARNING: delta speedup {res['delta_speedup']:.2f}x at "
                  f"{label} below the 2x acceptance target", file=sys.stderr)


if __name__ == "__main__":
    main()
