"""Figure 6, executably: stamps, merged and incremental schedules.

Reproduces the paper's worked example character for character:
processor 0 hashes three indirection arrays

    ia = 1, 3, 7, 9, 2
    ib = 1, 5, 7, 8, 2
    ic = 4, 3, 10, 8, 9

against data array y distributed with elements 1..5 on processor 0 and
6..10 on processor 1, then builds the four schedules of the figure:

    sched_A        (stamp a)      -> gathers elements 7, 9
    sched_B        (stamp b)      -> gathers elements 7, 8
    inc_schedB     (stamp b - a)  -> gathers element 8
    merged_shedABC (stamp a+b+c)  -> gathers elements 7, 9, 8, 10

then runs an adaptive gather loop through :func:`run_pipeline` with a
``loop_id``, showing the chain-reuse counter hit while the chain's
plans stay the same across iterations — and rebuild exactly once after
a stamp is cleared and re-hashed.

Run:  python examples/schedule_reuse.py
"""

import numpy as np

from repro.core import (
    ChaosRuntime,
    ExecutionContext,
    IrregularReduction,
    allocate_ghosts,
    gather_phase,
    run_pipeline,
)
from repro.sim import Machine


def main() -> None:
    # one ExecutionContext per run: machine + resolved backend + per-run
    # services, shared by every primitive the runtime touches
    ctx = ExecutionContext.resolve(Machine(2))
    rt = ChaosRuntime(ctx)

    # y(1..10): elements 1-5 on processor 0, 6-10 on processor 1.
    ttable = rt.irregular_table([0] * 5 + [1] * 5)

    z = np.zeros(0, dtype=np.int64)
    to0 = lambda one_based: [np.array(one_based) - 1, z]  # noqa: E731

    rt.hash_indirection(ttable, to0([1, 3, 7, 9, 2]), "a")
    rt.hash_indirection(ttable, to0([1, 5, 7, 8, 2]), "b")
    rt.hash_indirection(ttable, to0([4, 3, 10, 8, 9]), "c")
    tables = rt.hash_tables(ttable)
    print(f"processor 0 hash table: {tables.n_entries[0]} entries, "
          f"{tables.n_ghost[0]} ghost slots, stamps {tables.registry.names()}")

    def fetched(expr) -> list[int]:
        sched = rt.build_schedule(ttable, expr)
        # what processor 1 sends to processor 0, as 1-based element ids
        return [6 + int(off) for off in sched.send_view(1, 0)]

    e = tables.expr
    cases = [
        ("sched_A   = CHAOS_schedule(stamp = a)", e("a"), [7, 9]),
        ("sched_B   = CHAOS_schedule(stamp = b)", e("b"), [7, 8]),
        ("inc_schedB = CHAOS_schedule(stamp = b-a)", e("b") - e("a"), [8]),
        ("merged_shedABC = CHAOS_schedule(stamp = a+b+c)",
         e("a", "b", "c"), [7, 8, 9, 10]),
    ]
    for label, expr, expected in cases:
        got = sorted(fetched(expr))
        status = "OK" if got == sorted(expected) else "MISMATCH"
        print(f"{label:48s} gathers {got}  [{status}]")
        assert got == sorted(expected)

    # the adaptive trick: clear stamp b, rehash a *changed* ib — unchanged
    # entries (1, 7, 2) are reused, only 6 is translated anew
    entries_before = tables.n_entries[0]
    rt.clear_stamp(ttable, "b")
    rt.hash_indirection(ttable, to0([1, 6, 7, 2]), "b")
    print(f"\nafter re-hashing a modified ib: {tables.n_entries[0]} entries "
          f"({tables.n_entries[0] - entries_before} new), "
          f"sched_B now gathers {sorted(fetched(e('b')))}")

    # a pipeline in an adaptive loop: two gathers over sched_A, run
    # stage after stage and counted under the loop id.  Iteration 1
    # builds the chain entry, iterations 2-3 hit.
    y = rt.distribute(np.arange(1.0, 11.0), ttable)
    w = rt.distribute(np.arange(1.0, 11.0) ** 2, ttable)
    sched = rt.build_schedule(ttable, e("a"))
    for _ in range(3):
        run_pipeline(
            rt.ctx,
            [gather_phase(sched, y.local, allocate_ghosts(sched, y.local)),
             gather_phase(sched, w.local, allocate_ghosts(sched, w.local))],
            loop_id="example:field_gather",
        )
    st = rt.cache_stats("example:field_gather", fused=True)
    print(f"\npipeline chain reuse after 3 iterations: "
          f"{st.hits} hits, {st.builds} builds")

    # re-hash stamp a (the mesh adapted): the next pipeline run detects
    # the stale chain and rebuilds its entry exactly once
    rt.clear_stamp(ttable, "a")
    rt.hash_indirection(ttable, to0([1, 3, 7, 9, 2]), "a")
    sched = rt.build_schedule(ttable, e("a"))
    run_pipeline(
        rt.ctx,
        [gather_phase(sched, y.local, allocate_ghosts(sched, y.local)),
         gather_phase(sched, w.local, allocate_ghosts(sched, w.local))],
        loop_id="example:field_gather",
    )
    st = rt.cache_stats("example:field_gather", fused=True)
    print(f"after a stamp change + rebuild:          "
          f"{st.hits} hits, {st.builds} builds")
    assert (st.hits, st.builds) == (2, 2)

    # incremental delta rebuilds: an adapt() that names the *touched
    # positions* repairs the cached schedule in place (rehash_delta +
    # delta_rebuild_schedule) instead of re-running the full inspector.
    # ia changes one entry per step — exactly the paper's few-percent
    # non-bonded-list churn, at toy scale.
    loop = IrregularReduction(rt, ttable, "example:adaptive")
    ia = to0([1, 3, 7, 9, 2])
    loop.bind(ia=ia)
    loop.setup()                      # cold build
    loop.execute(y, "ia", lambda wv: wv, {"w": (w, "ia")})
    for step, replacement in enumerate([8, 10, 4]):
        nxt = [ia[0].copy(), z]
        nxt[0][step] = replacement - 1          # one touched position
        loop.adapt("ia", nxt, touched=[np.array([step]), z])
        loop.execute(y, "ia", lambda wv: wv, {"w": (w, "ia")})
        ia = nxt
    st = rt.cache_stats("example:adaptive")
    print(f"\nadaptive loop cache: {st.builds} full build, "
          f"{st.delta_rebuilds} delta rebuilds "
          f"({st.resident_bytes} cached bytes)")
    assert (st.builds, st.delta_rebuilds) == (1, 3)
    print("OK")


if __name__ == "__main__":
    main()
