"""Ablation benchmarks for the design choices DESIGN.md calls out.

Each ablation turns one CHAOS mechanism off (or swaps a policy) and
measures the effect on virtual time / traffic:

* **hash-table reuse** — clear-and-rehash into a retained table vs.
  rebuilding fresh hash tables on every non-bonded-list change;
* **software caching** — deduplicated schedule volume vs. raw reference
  count (what would move without the hash table's duplicate removal);
* **communication vectorization** — message count with aggregated
  schedules vs. one message per element;
* **translation-table storage** — replicated vs. distributed vs. paged
  lookup costs;
* **iteration partitioning rule** — owner-computes vs.
  almost-owner-computes off-processor reference counts.
"""

from __future__ import annotations

import sys

sys.path.insert(0, __file__.rsplit("/", 1)[0])

from common import print_table  # noqa: E402

import numpy as np

from repro.core import (
    ChaosRuntime,
    ExecutionContext,
    TranslationTable,
    build_schedule,
    chaos_hash,
    clear_stamp,
    make_hash_tables,
    partition_iterations,
    split_by_block,
)
from repro.sim import Machine

P = 16
N_ELEMENTS = 4000
N_REFS = 40000
N_UPDATES = 6
SEED = 99


def _workload(rng_seed=SEED):
    rng = np.random.default_rng(rng_seed)
    maparr = rng.integers(0, P, N_ELEMENTS)
    # spatially-correlated references: mostly nearby elements, so
    # consecutive "list updates" overlap heavily (the CHARMM regime)
    base = rng.integers(0, N_ELEMENTS, N_REFS)
    updates = []
    for _ in range(N_UPDATES):
        drift = rng.integers(-40, 41, N_REFS)
        base = np.clip(base + drift, 0, N_ELEMENTS - 1)
        updates.append(base.copy())
    return maparr, updates


# ---------------------------------------------------------------------
def ablate_hash_reuse():
    """Retained stamped table vs. fresh tables per update.

    Uses a *distributed* translation table: the paper notes translation
    lookups are "another costly part of index analysis especially if a
    non-replicated translation table is used" — exactly the cost retained
    hash tables amortize away.
    """
    maparr, updates = _workload()

    def with_reuse():
        m = Machine(P)
        ctx = ExecutionContext.resolve(m)
        tt = TranslationTable.from_map(m, maparr, storage="distributed")
        group = make_hash_tables(ctx, tt)
        m.reset_clocks()
        for upd in updates:
            if "nb" in group.registry:
                clear_stamp(ctx, group, "nb")
            chaos_hash(ctx, group, tt, split_by_block(upd, m), "nb")
            build_schedule(ctx, group, group.expr("nb"))
        return m.clocks.mean_category("inspector")

    def without_reuse():
        m = Machine(P)
        ctx = ExecutionContext.resolve(m)
        tt = TranslationTable.from_map(m, maparr, storage="distributed")
        m.reset_clocks()
        for upd in updates:
            group = make_hash_tables(ctx, tt)  # fresh: all analysis redone
            chaos_hash(ctx, group, tt, split_by_block(upd, m), "nb")
            build_schedule(ctx, group, group.expr("nb"))
        return m.clocks.mean_category("inspector")

    reuse, fresh = with_reuse(), without_reuse()
    return ["hash-table reuse", reuse, fresh, fresh / reuse]


# ---------------------------------------------------------------------
def ablate_software_caching():
    """Elements moved with dedup vs. raw reference count."""
    maparr, updates = _workload()
    m = Machine(P)
    rt = ChaosRuntime(m)
    tt = rt.irregular_table(maparr)
    rt.hash_indirection(tt, split_by_block(updates[0], m), "s")
    sched = rt.build_schedule(tt, "s")
    deduped = sched.total_elements()
    raw_offproc = 0
    for p, part in enumerate(split_by_block(updates[0], m)):
        raw_offproc += int(np.count_nonzero(tt.owner_local(part) != p))
    return ["software caching (elements moved)", float(deduped),
            float(raw_offproc), raw_offproc / max(1, deduped)]


# ---------------------------------------------------------------------
def ablate_vectorization():
    """Messages per gather with aggregation vs. one per element."""
    maparr, updates = _workload()
    m = Machine(P)
    rt = ChaosRuntime(m)
    tt = rt.irregular_table(maparr)
    rt.hash_indirection(tt, split_by_block(updates[0], m), "s")
    sched = rt.build_schedule(tt, "s")
    aggregated = sched.total_messages()
    unvectorized = sched.total_elements()  # one message per fetched element
    cm = m.cost_model
    t_agg = aggregated * cm.alpha + sched.total_elements() * 8 * cm.beta
    t_raw = unvectorized * (cm.alpha + 8 * cm.beta)
    return ["communication vectorization (virtual s/gather)", t_agg, t_raw,
            t_raw / max(t_agg, 1e-12)]


# ---------------------------------------------------------------------
def ablate_translation_storage():
    """Dereference cost of the three storage policies."""
    maparr, updates = _workload()
    queries = split_by_block(updates[0], Machine(P))
    out = []
    for storage in ("replicated", "distributed", "paged"):
        m = Machine(P)
        tt = TranslationTable.from_map(m, maparr, storage=storage,
                                       page_size=256)
        ctx = ExecutionContext.resolve(m)
        m.reset_clocks()
        tt.dereference(ctx, queries)
        first = m.execution_time()
        m.reset_clocks()
        tt.dereference(ctx, queries)  # repeat: paged should now hit its cache
        second = m.execution_time()
        out.append((storage, first, second,
                    tt.memory_per_rank(0) / 1024.0))
    return out


# ---------------------------------------------------------------------
def ablate_iteration_rule():
    """Off-processor references under the two iteration rules.

    Uses three indirection arrays per iteration: the first (the LHS the
    owner-computes rule follows) is uncorrelated with the other two, which
    are co-located — so majority voting (almost-owner-computes) places
    iterations with the pair and wins on communication.
    """
    rng = np.random.default_rng(SEED)
    m = Machine(P)
    rt = ChaosRuntime(m)
    maparr = rng.integers(0, P, N_ELEMENTS)
    tt = rt.irregular_table(maparr)
    n_iter = 8000
    ia = rng.integers(0, N_ELEMENTS, n_iter)
    ib = rng.integers(0, N_ELEMENTS, n_iter)
    ic = np.clip(ib + rng.integers(-10, 11, n_iter), 0, N_ELEMENTS - 1)
    arrays = (ia, ib, ic)
    accesses = [
        list(parts) for parts in zip(*(split_by_block(a, m) for a in arrays))
    ]

    def offproc(rule):
        assign = partition_iterations(rt.ctx, tt, accesses, rule=rule)
        total = 0
        for a in arrays:
            new_a = assign.remap_iteration_data(rt.ctx, split_by_block(a, m))
            for p in m.ranks():
                total += int(np.count_nonzero(tt.owner_local(new_a[p]) != p))
        return total

    oc = offproc("owner-computes")
    aoc = offproc("almost-owner-computes")
    return ["iteration partitioning (off-proc refs)", float(aoc), float(oc),
            oc / max(1, aoc)]


# ---------------------------------------------------------------------
def generate_tables():
    rows = [
        ablate_hash_reuse(),
        ablate_software_caching(),
        ablate_vectorization(),
        ablate_iteration_rule(),
    ]
    print_table(
        "Ablations: each CHAOS mechanism on vs. off",
        ["Mechanism", "With", "Without", "Win factor"],
        rows,
        float_fmt="{:.4f}",
    )
    storage_rows = ablate_translation_storage()
    print_table(
        "Ablation: translation-table storage (dereference virtual s)",
        ["Storage", "First lookup", "Repeat lookup", "KiB/rank"],
        storage_rows,
        float_fmt="{:.5f}",
    )
    return rows, storage_rows


def check_shape(rows, storage_rows) -> list[str]:
    failures = []
    for name, with_, without, factor in rows:
        if not factor > 1.0:
            failures.append(f"{name}: no win ({factor:.2f}x)")
    by_storage = {r[0]: r for r in storage_rows}
    if not by_storage["replicated"][1] < by_storage["distributed"][1]:
        failures.append("replicated lookup not cheapest")
    # paged repeat lookups beat distributed repeat lookups (cache hits)
    if not by_storage["paged"][2] < by_storage["distributed"][2]:
        failures.append("paged cache did not help on repeat lookups")
    # distributed holds the least memory
    if not by_storage["distributed"][3] < by_storage["replicated"][3]:
        failures.append("distributed table not smaller than replicated")
    return failures


def test_ablations(benchmark):
    benchmark.pedantic(ablate_hash_reuse, rounds=1, iterations=1)
    rows, storage_rows = generate_tables()
    failures = check_shape(rows, storage_rows)
    assert not failures, failures


if __name__ == "__main__":
    rows, storage_rows = generate_tables()
    problems = check_shape(rows, storage_rows)
    print("\nshape check:", "OK" if not problems else problems)
