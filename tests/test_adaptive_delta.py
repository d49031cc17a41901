"""Incremental delta rebuilds vs full inspector reruns.

The contract of :func:`rehash_delta` + :func:`delta_rebuild_schedule` is
*bitwise equivalence*: after any touched-subset update, the spliced
schedule, the localized indices, and the table occupancy must be
indistinguishable from running the full clear/rehash/rebuild path over
the same tables — under every backend, including updates that introduce
never-seen global indices (fresh ghost slots) and ones that drop the
last reference to an index (ghost-slot retirement).  The oracle
(``tests/oracle.py``) runs both on its delta axis, and a gather through
the final schedule moves the same messages either way.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ChaosRuntime,
    DeltaRehash,
    ExecutionContext,
    IrregularReduction,
    RankArena,
    Schedule,
    TranslationTable,
    allocate_ghosts,
    build_schedule,
    chaos_hash,
    clear_stamp,
    delta_rebuild_schedule,
    gather,
    make_hash_tables,
    rehash_delta,
    split_by_block,
)
from repro.core.compiled import offsets_from_counts
from repro.sim import Machine

from conftest import ALL_BACKENDS as BACKENDS
from csr_helpers import empty_schedule
from oracle import (
    assert_fetches,
    check,
    check_hash_tables,
    cold_build,
    observe,
    stacked_reference,
)


def _cold_env(ctx, seed, n, per_rank):
    """Tables + cold-hashed indirection array + its schedule."""
    rng = np.random.default_rng(seed)
    m = ctx.machine
    tt = TranslationTable.from_map(m, rng.integers(0, ctx.n_ranks, n))
    hts = make_hash_tables(ctx, tt)
    idx = [rng.integers(0, n, per_rank) for _ in range(ctx.n_ranks)]
    chaos_hash(ctx, hts, tt, [a.copy() for a in idx], "s")
    sched = build_schedule(ctx, hts, "s")
    return tt, hts, idx, sched


def _churn(rng, idx, n, frac):
    """Touch ``frac`` of each rank's slice with fresh random values."""
    positions, old_vals, new_vals, nxt = [], [], [], []
    for a in idx:
        k = int(frac * a.size)
        pos = (rng.choice(a.size, size=k, replace=False)
               if k else np.zeros(0, dtype=np.int64))
        nv = rng.integers(0, n, k)
        b = a.copy()
        b[pos] = nv
        positions.append(pos)
        old_vals.append(a[pos])
        new_vals.append(nv)
        nxt.append(b)
    return positions, old_vals, new_vals, nxt


def _churn_round(run, tt, hts, sched, idx, rng, n, frac):
    """One round of churn through the delta path or the full path (the
    delta axis): the next slices, the schedule, and the localized
    indices at the touched positions."""
    ctx = run.ctx
    positions, old_vals, new_vals, idx = _churn(rng, idx, n, frac)
    if run.delta:
        rehash = rehash_delta(ctx, hts, tt, "s", old_vals, new_vals)
        return (idx, delta_rebuild_schedule(ctx, hts, "s", sched, rehash),
                rehash.localized)
    clear_stamp(ctx, hts, "s")
    full = chaos_hash(ctx, hts, tt, [a.copy() for a in idx], "s")
    return (idx, build_schedule(ctx, hts, "s"),
            [a[t] for a, t in zip(full, positions)])


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_ranks=st.integers(1, 5),
    n=st.integers(1, 60),
    per_rank=st.integers(0, 40),
    frac=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
)
def test_delta_rebuild_matches_full_rebuild(seed, n_ranks, n, per_rank,
                                            frac):
    """Two rounds of churn: the delta path tracks the full path bitwise
    — schedule, the localized indices at the touched positions, and
    table occupancy — and a gather through the final schedule moves the
    same messages."""
    def workload(run):
        tt, hts, idx, sched = _cold_env(run.ctx, seed, n, per_rank)
        rng = np.random.default_rng(seed + 1)
        rounds = []
        for _ in range(2):
            idx, sched, loc = _churn_round(run, tt, hts, sched, idx, rng, n,
                                           frac)
            rounds.append(observe((sched, loc, hts.n_entries, hts.n_ghost)))
        run.mark()
        x = [np.random.default_rng(99).standard_normal(
            tt.dist.local_size(p)) for p in range(n_ranks)]
        return rounds, gather(run.ctx, sched, x, allocate_ghosts(sched, x))

    check(workload, n_ranks, delta=True)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_delta_schedules_identical_across_backends(seed):
    """The spliced schedule (and the rehash's localized patches) must
    not depend on which backend performed the update."""
    def workload(run):
        tt, hts, idx, sched = _cold_env(run.ctx, seed, 50, 30)
        return _churn_round(run, tt, hts, sched, idx,
                            np.random.default_rng(seed + 1), 50, 0.3)[1:]

    check(workload, delta=True)


@pytest.mark.parametrize("backend", BACKENDS)
def test_delta_schedule_traffic_identity(backend):
    """A gather driven by the delta-rebuilt schedule moves exactly the
    bytes (and messages) of one driven by the full rebuild."""
    def workload(run):
        tt, hts, idx, sched = _cold_env(run.ctx, 7, 80, 60)
        _, sched, _ = _churn_round(run, tt, hts, sched, idx,
                                   np.random.default_rng(8), 80, 0.25)
        run.mark()
        data_rng = np.random.default_rng(99)
        x = [data_rng.standard_normal(tt.dist.local_size(p))
             for p in range(4)]
        return sched, gather(run.ctx, sched, x, allocate_ghosts(sched, x))

    check(workload, backends=[backend], delta=True)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000), rounds=st.integers(1, 3))
def test_adaptive_loop_steps_agree(seed, rounds):
    """An ``IrregularReduction`` through set-up, executes and adapts
    (targeted or not: the delta axis), a stamp cleared behind its back
    and its tables dropped, each followed by ``setup``: the loop's
    schedule is a full build of its live tables after every step."""
    n, refs = 60, 120

    def workload(run):
        rng = np.random.default_rng(seed)
        rt = ChaosRuntime(run.ctx)
        tt = rt.irregular_table(rng.integers(0, 4, n))
        ib = split_by_block(rng.integers(0, n, refs), run.machine)
        loop = IrregularReduction(rt, tt, "v").bind(
            ia=split_by_block(rng.integers(0, n, refs), run.machine), ib=ib)
        x = rt.distribute(rng.standard_normal(n), tt)
        y = rt.distribute(rng.standard_normal(n), tt)
        seen = []

        def step():
            loop.execute(x, "ia", lambda v: 0.5 * v, {"y": (y, "ib")})
            assert observe(loop.schedule) == observe(
                cold_build(rt, tt, "v:ia", "v:ib"))
            seen.append(observe((loop.schedule, loop.localized("ia"),
                                 loop.localized("ib"), x.to_global())))

        loop.setup()
        step()
        for _ in range(rounds):
            touched = [rng.choice(a.size, size=5, replace=False) for a in ib]
            for a, pos in zip(ib, touched):
                a[pos] = rng.integers(0, n, 5)
            loop.adapt("ib", [a.copy() for a in ib],
                       touched=run.touched(touched))
            step()
        rt.clear_stamp(tt, "v:ia")
        loop.setup()
        step()
        rt.drop_hash_tables(tt)
        loop.setup()
        step()
        return seen

    check(workload, delta=True)


# ---------------------------------------------------------------------
# the splice as an edit script: named cases, wide machines, accounting
# ---------------------------------------------------------------------
SPLICE_CASES = (
    "empty_delta", "drop_only", "insert_only", "segment_emptied",
    "segment_created", "empty_rank", "fresh_ghosts", "cleared_rows",
    "mixed",
)


def _splice_scenario(case, n_ranks, seed):
    """``(owner map, per-rank slices, touched positions, new values)``.

    Global indices ``< n_seen`` may be referenced initially, the upper
    half never is; ownership is cyclic, so ``g % n_ranks`` owns ``g``.
    """
    rng = np.random.default_rng(seed)
    P = n_ranks
    n_seen = 12 * P
    n = 2 * n_seen
    idx = [rng.integers(0, n_seen, 30) for _ in range(P)]
    far = P - 1  # rank 0's partner in the single-segment cases
    if case == "empty_rank":
        idx[far] = np.zeros(0, dtype=np.int64)
    if case in ("segment_emptied", "segment_created"):
        idx[0][idx[0] % P == far] = 0  # rank 0 owns global index 0
    if case == "segment_emptied":
        idx[0][7] = far  # the one reference rank 0 makes to ``far``
    pos, new = [], []
    for p, a in enumerate(idx):
        uniq, first, cnt = np.unique(a, return_index=True,
                                     return_counts=True)
        if case == "empty_delta" or a.size == 0:
            t, v = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        elif case == "drop_only":
            # singly referenced values give way to the most referenced
            t = first[cnt == 1]
            v = np.full(t.size, uniq[np.argmax(cnt)])
        elif case == "insert_only":
            # one of several references moves to a never-seen value
            t = first[cnt > 1]
            v = n_seen + rng.choice(n_seen, size=t.size, replace=False)
        elif case == "segment_emptied":
            t, v = np.array([7]), np.array([0])
            t, v = (t, v) if p == 0 else (t[:0], v[:0])
        elif case == "segment_created":
            t, v = np.array([7]), np.array([n_seen + far])
            t, v = (t, v) if p == 0 else (t[:0], v[:0])
        else:
            t = rng.choice(a.size, size=a.size // 3, replace=False)
            lo = n_seen if case == "fresh_ghosts" else 0
            v = rng.integers(lo, n, t.size)
        pos.append(t)
        new.append(v)
    return np.arange(n) % P, idx, pos, new


def _hashed_env(ctx, owner, idx, cleared):
    tt = TranslationTable.from_map(ctx.machine, owner)
    hts = make_hash_tables(ctx, tt)
    chaos_hash(ctx, hts, tt, [a.copy() for a in idx], "s")
    if cleared:
        # a cleared stamp over never-seen values leaves unstamped rows
        # holding ghost slots that no schedule reads
        half = owner.size // 2
        extra = [half + (p + np.arange(40)) % half
                 for p in range(ctx.n_ranks)]
        chaos_hash(ctx, hts, tt, extra, "t")
        clear_stamp(ctx, hts, "t")
    return tt, hts


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n_ranks", [1, 2, 3, 8, 64])
@pytest.mark.parametrize("case", SPLICE_CASES)
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_splice_edit_script_matches_cold_build(case, n_ranks, backend, seed):
    """``delta_rebuild_schedule`` against a cold clear/rehash/build:
    identical CSR buffers, no message, and exactly the two per-rank
    ``memops`` charges (table scan, merged buffer) of one splice."""
    from unittest import mock

    import repro.core.schedule as schedule_mod

    owner, idx, pos, new = _splice_scenario(case, n_ranks, seed)
    nxt = [a.copy() for a in idx]
    for a, t, v in zip(nxt, pos, new):
        a[t] = v
    ctx_f = ExecutionContext.resolve(Machine(n_ranks), backend)
    ctx_d = ExecutionContext.resolve(Machine(n_ranks), backend)
    tt_f, hts_f = _hashed_env(ctx_f, owner, idx, case == "cleared_rows")
    tt_d, hts_d = _hashed_env(ctx_d, owner, idx, case == "cleared_rows")
    base = build_schedule(ctx_d, hts_d, "s")
    old_capacity = hts_d.n_ghost.copy()

    clear_stamp(ctx_f, hts_f, "s")
    chaos_hash(ctx_f, hts_f, tt_f, nxt, "s")
    cold = build_schedule(ctx_f, hts_f, "s")

    # bracket the one splice call: clocks and traffic around it
    m = ctx_d.machine
    seen = {}
    splice = schedule_mod._splice

    def bracketed(*args, **kwargs):
        seen["clock"] = [c.time for c in m.clocks]
        seen["traffic"] = m.traffic.snapshot()
        seen["entries"] = hts_d.n_entries.copy()
        out = splice(*args, **kwargs)
        seen["after"] = [c.time for c in m.clocks]
        return out

    with mock.patch.object(schedule_mod, "_splice", bracketed):
        rehash = rehash_delta(ctx_d, hts_d, tt_d, "s",
                              [a[t] for a, t in zip(idx, pos)], new)
        got = delta_rebuild_schedule(ctx_d, hts_d, "s", base, rehash)
    assert observe(cold) == observe(got)
    assert m.traffic.snapshot() == seen["traffic"]
    for p in range(n_ranks):
        t = seen["clock"][p]
        t += m.cost_model.memory_time(seen["entries"][p])
        t += m.cost_model.memory_time(got.recv_slots[p].size)
        assert seen["after"][p] == t

    # each named case really exercises what it is named after
    before, after = base.counts, got.counts
    if case == "empty_delta":
        assert np.array_equal(before, after)
    if n_ranks > 1:
        if case == "drop_only":
            assert (after <= before).all() and after.sum() < before.sum()
        if case == "insert_only":
            assert (after >= before).all() and after.sum() > before.sum()
        if case == "segment_emptied":
            assert (before[-1, 0], after[-1, 0]) == (1, 0)
        if case == "segment_created":
            assert (before[-1, 0], after[-1, 0]) == (0, 1)
        if case == "empty_rank":
            assert hts_d.n_entries[-1] == 0
        if case == "fresh_ghosts":
            assert (hts_d.n_ghost > old_capacity).any()
        if case == "cleared_rows":
            in_use = np.arange(hts_d.rows_cap) < hts_d.n_entries[:, None]
            assert ((hts_d.mask == 0) & (hts_d.buf >= 0) & in_use).any()


def test_splice_never_walks_rank_pairs(monkeypatch):
    """Structural guard: the splice edits whole CSR buffers; it must not
    fall back to visiting ``(receiver, source)`` pairs one view at a
    time (16 384 of them at P=128)."""
    from repro.core import Schedule

    n_ranks = 32
    ctx = ExecutionContext.resolve(Machine(n_ranks), "vectorized")
    tt, hts, idx, base = _cold_env(ctx, 5, 40 * n_ranks, 60)
    _, old_vals, new_vals, _ = _churn(np.random.default_rng(6), idx,
                                      40 * n_ranks, 0.2)
    rehash = rehash_delta(ctx, hts, tt, "s", old_vals, new_vals)
    views = []
    for name in ("send_view", "recv_view"):
        monkeypatch.setattr(
            Schedule, name,
            lambda self, rank, other, name=name: views.append(name))
    spliced = delta_rebuild_schedule(ctx, hts, "s", base, rehash)
    assert views == []
    assert spliced.total_elements() != base.total_elements()


def test_stale_base_schedule_is_rejected():
    """A base that does not describe the live tables (it was built
    against other tables, which assigned the ghost slots differently)
    must not be spliced."""
    ctx = ExecutionContext.resolve(Machine(4), "vectorized")
    tt, _, idx, base = _cold_env(ctx, 3, 60, 30)
    hts = make_hash_tables(ctx, tt)
    fresh = [np.arange(p, 60, 4) for p in range(4)]
    chaos_hash(ctx, hts, tt, fresh, "s")
    _, old_vals, new_vals, _ = _churn(np.random.default_rng(4), fresh,
                                      60, 0.3)
    rehash = rehash_delta(ctx, hts, tt, "s", old_vals, new_vals)
    with pytest.raises(ValueError, match="does not match the live tables"):
        delta_rebuild_schedule(ctx, hts, "s", base, rehash)


@pytest.mark.parametrize("rank", [0, 3])
def test_base_slot_past_its_ghost_slots_is_rejected(rank):
    """A slot past rank p's ghost slots is held by none of p's entries
    (it may be below another rank's count): such a base cannot be
    built, so the splice never edits another receiver's segment."""
    ctx = ExecutionContext.resolve(Machine(4), "vectorized")
    tt, hts, idx, base = _cold_env(ctx, 3, 60, 30)
    assert base.recv_slots[rank].size
    # the stored order's last slot of ``rank``, in the global ghost layout
    slots = base.order.slots.copy()
    slots[base.recv_base[rank + 1] - 1] = (
        offsets_from_counts(base.extent)[rank] + hts.n_ghost[rank])
    with pytest.raises(ValueError, match="inside its extent"):
        Schedule.from_slot_order(base.counts, base.order.rows, slots,
                                 base.extent, base.order.local)


def test_base_slots_out_of_order_are_rejected():
    """A cold build lists each receiver's ghost slots ascending, because
    slots number a rank's off-processor rows in row order: a base with
    two slots of one receiver swapped cannot be built."""
    ctx = ExecutionContext.resolve(Machine(4), "vectorized")
    tt, hts, idx, base = _cold_env(ctx, 3, 60, 30)
    seg = np.diff(base.recv_base)
    at = base.recv_base[np.flatnonzero(seg >= 2)[0]]
    slots = base.order.slots.copy()
    slots[at:at + 2] = slots[at:at + 2][::-1].copy()
    with pytest.raises(ValueError, match="ascend strictly"):
        Schedule.from_slot_order(base.counts, base.order.rows, slots,
                                 base.extent, base.order.local)


def test_stale_base_is_rejected_where_only_its_order_shows_it():
    """A stale base no dropped entry gives away: a base two updates
    behind, spliced with an update that drops the entries the skipped
    one added to rank 0.  Their slots lie past the base's extents, so
    looked up in the base they would name rank 1's entries.  (A base
    whose own slots are out of order cannot be built.)"""
    ctx = ExecutionContext.resolve(Machine(4), "vectorized")
    tt, hts, idx, base = _cold_env(ctx, 3, 60, 30)
    none = [a[:0] for a in idx]
    fresh = np.setdiff1d(np.arange(60), idx[0])
    fresh = fresh[tt.dist.owner(fresh) != 0][:3]
    old = [idx[0][:fresh.size]] + none[1:]
    new = [fresh] + none[1:]
    rehash_delta(ctx, hts, tt, "s", old, new)   # never spliced
    assert hts.n_ghost[0] > base.extent[0]
    back = rehash_delta(ctx, hts, tt, "s", new, old)
    with pytest.raises(ValueError, match="does not match the live tables"):
        delta_rebuild_schedule(ctx, hts, "s", base, back)


def test_rejected_splice_leaves_no_scratch_stamp_behind():
    """A splice that raises leaves the tables' stamps and masks as they
    were, so a later delta rebuild is neither blocked nor polluted."""
    ctx = ExecutionContext.resolve(Machine(4), "vectorized")
    tt, hts, idx, base = _cold_env(ctx, 3, 60, 30)
    stale = empty_schedule(4)
    _, old_vals, new_vals, idx = _churn(np.random.default_rng(4), idx,
                                        60, 0.5)
    rehash = rehash_delta(ctx, hts, tt, "s", old_vals, new_vals)
    masks = hts.mask.copy()
    stamps = sorted(hts.registry._bits)
    with pytest.raises(ValueError, match="does not match the live tables"):
        delta_rebuild_schedule(ctx, hts, "s", stale, rehash)
    assert sorted(hts.registry._bits) == stamps
    assert np.array_equal(hts.mask, masks)
    # the same rehash still splices into the right base
    assert observe(delta_rebuild_schedule(ctx, hts, "s", base, rehash)) \
        == observe(build_schedule(ctx, hts, "s"))


def _rejected_untouched(ctx, hts, repair, match):
    """``repair()`` raises ``ValueError`` matching ``match`` before it
    charges the machine or writes the tables."""
    m = ctx.machine
    clocks, traffic = [c.time for c in m.clocks], m.traffic.snapshot()
    tables = [getattr(hts, c).copy() for c in hts._COLUMNS]
    with pytest.raises(ValueError, match=match):
        repair()
    assert [c.time for c in m.clocks] == clocks
    assert m.traffic.snapshot() == traffic
    for c, before in zip(hts._COLUMNS, tables):
        assert np.array_equal(getattr(hts, c), before)


def _edit_rank1(rehash, edit):
    """``rehash`` with rank 1's affected rows and their masks replaced by
    ``edit(rows, masks)``."""
    rows = list(rehash.affected_slots)
    masks = np.split(rehash.pre_masks,
                     np.cumsum(rehash.affected_slots.sizes)[:-1])
    rows[1], masks[1] = edit(rows[1], masks[1])
    return DeltaRehash(RankArena(np.concatenate(rows),
                                 [r.size for r in rows]),
                       np.concatenate(masks), rehash.localized)


def _rehash_of_larger_tables(ctx, tt, hts, rehash):
    """A rehash taken on a second group of the same translation table
    that holds every index on every rank: its rows run past ``hts``'s."""
    other = make_hash_tables(ctx, tt)
    every = [np.arange(60) for _ in range(ctx.n_ranks)]
    chaos_hash(ctx, other, tt, every, "s")
    return rehash_delta(ctx, other, tt, "s", [a[40:] for a in every],
                        [a[:20] for a in every])


BAD_REHASHES = {
    "other_tables": _rehash_of_larger_tables,
    "past_rows_in_use": lambda ctx, tt, hts, r: _edit_rank1(
        r, lambda rows, pre: (np.append(rows, hts.n_entries[1]),
                              np.append(pre, 1))),
    "past_rows_cap": lambda ctx, tt, hts, r: _edit_rank1(
        r, lambda rows, pre: (np.append(rows, hts.rows_cap),
                              np.append(pre, 1))),
    "negative": lambda ctx, tt, hts, r: _edit_rank1(
        r, lambda rows, pre: (np.insert(rows, 0, -1), np.insert(pre, 0, 1))),
    "descending": lambda ctx, tt, hts, r: _edit_rank1(
        r, lambda rows, pre: (rows[::-1], pre[::-1])),
    "duplicate": lambda ctx, tt, hts, r: _edit_rank1(
        r, lambda rows, pre: (np.insert(rows, 0, rows[0]),
                              np.insert(pre, 0, pre[0]))),
    "misaligned_masks": lambda ctx, tt, hts, r: _edit_rank1(
        r, lambda rows, pre: (rows, pre[1:])),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("bad", sorted(BAD_REHASHES))
def test_rehash_of_other_tables_is_rejected(bad, backend):
    """A repair reads the entering entries at the arena positions of the
    rehash's affected rows, so a rehash that is not of these tables —
    rows past a rank's rows in use or its arenas, rows out of order, or
    masks that do not align with them — is rejected before anything is
    charged or written (a position past a rank's rows would read the
    next rank's).  The same repair with the real rehash succeeds."""
    ctx = ExecutionContext.resolve(Machine(4), backend)
    tt, hts, idx, base = _cold_env(ctx, 3, 60, 30)
    _, old_vals, new_vals, _ = _churn(np.random.default_rng(4), idx, 60, 0.3)
    rehash = rehash_delta(ctx, hts, tt, "s", old_vals, new_vals)
    assert rehash.affected_slots[1].size >= 2
    wrong = BAD_REHASHES[bad](ctx, tt, hts, rehash)
    _rejected_untouched(
        ctx, hts, lambda: delta_rebuild_schedule(ctx, hts, "s", base, wrong),
        "affected row|pre_masks")
    assert observe(delta_rebuild_schedule(ctx, hts, "s", base, rehash)) \
        == observe(build_schedule(ctx, hts, "s"))


@pytest.mark.parametrize("backend", BACKENDS)
def test_base_of_another_rank_count_is_rejected(backend):
    """A base schedule of another machine is rejected before anything
    is charged or written."""
    ctx = ExecutionContext.resolve(Machine(4), backend)
    tt, hts, idx, _ = _cold_env(ctx, 3, 60, 30)
    other = _cold_env(ExecutionContext.resolve(Machine(3), backend),
                      3, 60, 30)[3]
    _, old_vals, new_vals, _ = _churn(np.random.default_rng(4), idx, 60, 0.3)
    rehash = rehash_delta(ctx, hts, tt, "s", old_vals, new_vals)
    _rejected_untouched(
        ctx, hts, lambda: delta_rebuild_schedule(ctx, hts, "s", other, rehash),
        "spans 3 ranks")


@pytest.mark.parametrize("backend", BACKENDS)
def test_repair_sends_the_entering_entries_requests(backend):
    """The messages a repair adds are the request exchange of exactly the
    entries that entered the selection, counted here independently of
    the tables: per (receiver, owner) pair, the ghost slots of the cold
    rebuild that the base does not hold.  Each non-empty pair sends one
    8-byte ``sched_sizes`` message and one ``sched_requests`` message of
    8 bytes per entering entry, receiver to owner, the sizes first, the
    pairs in row-major order."""
    m = Machine(4, record_messages=True)
    ctx = ExecutionContext.resolve(m, backend)
    tt, hts, idx, base = _cold_env(ctx, 7, 80, 60)
    _, old_vals, new_vals, _ = _churn(np.random.default_rng(8), idx, 80,
                                      0.25)
    rehash = rehash_delta(ctx, hts, tt, "s", old_vals, new_vals)
    before = len(m.traffic.messages)
    got = delta_rebuild_schedule(ctx, hts, "s", base, rehash)
    added = [(msg.src, msg.dst, msg.nbytes, msg.tag)
             for msg in m.traffic.messages[before:]]
    cold = build_schedule(ctx, hts, "s")
    assert observe(got) == observe(cold)

    entering = {}
    for p in range(4):
        for q in range(4):
            k = np.setdiff1d(cold.recv_view(p, q), base.recv_view(p, q)).size
            if k:
                entering[p, q] = k
    assert len(entering) > 1
    assert added == (
        [(p, q, 8, "sched_sizes") for p, q in sorted(entering)]
        + [(p, q, 8 * k, "sched_requests")
           for (p, q), k in sorted(entering.items())])


def _nb_loop(seed, n=60, refs=120):
    """Loop ``nb`` over ``ia`` and ``ib`` on four ranks, set up; the
    host slices are returned for the caller to change."""
    rng = np.random.default_rng(seed)
    m = Machine(4)
    rt = ChaosRuntime(ExecutionContext.resolve(m, "vectorized"))
    tt = rt.irregular_table(rng.integers(0, 4, n))
    ia = split_by_block(rng.integers(0, n, refs), m)
    ib = [a.copy() for a in split_by_block(rng.integers(0, n, refs), m)]
    loop = IrregularReduction(rt, tt, "nb").bind(
        ia=ia, ib=[a.copy() for a in ib])
    loop.setup()
    return rng, rt, tt, loop, ia, ib


def _adapt_ib(rng, loop, ib, n=60, k=5):
    """Change ``k`` positions of every rank's ``ib`` slice, then adapt
    the loop naming them."""
    touched = []
    for a in ib:
        pos = rng.choice(a.size, size=k, replace=False)
        a[pos] = rng.integers(0, n, k)
        touched.append(pos)
    loop.adapt("ib", [a.copy() for a in ib], touched=touched)


def _assert_reduces(rt, tt, loop, ia, ib, rng):
    """``x[ia] += y[ib]`` through the loop equals ``np.add.at``."""
    n = tt.dist.n_global
    x_g, y_g = rng.standard_normal(n), rng.standard_normal(n)
    x, y = rt.distribute(x_g, tt), rt.distribute(y_g, tt)
    loop.execute(x, "ia", lambda v: v, {"y": (y, "ib")})
    np.add.at(x_g, np.concatenate(ia), y_g[np.concatenate(ib)])
    assert np.allclose(x.to_global(), x_g, rtol=1e-10)


def _assert_full_build(rt, tt, loop, ia, ib):
    """The last adapt ran the full build: the loop's schedule is a cold
    build of its live tables, counted as a build, and fetches the
    distinct off-processor references of ``ia`` and ``ib``."""
    st = rt.cache_stats("nb")
    assert (st.builds, st.delta_rebuilds) == (2, 0)
    assert observe(loop.schedule) == observe(
        cold_build(rt, tt, "nb:ia", "nb:ib"))
    assert check_hash_tables(rt.hash_tables(tt)) == []
    assert_fetches(loop.schedule, tt.dist, [ia, ib])


def test_external_clear_between_build_and_delta_falls_back_to_full_build():
    """A stamp of the loop cleared behind its back between a build and a
    targeted adapt moves a second dependency of the cached schedule: the
    adapt recovers through the full inspector, the result is right, and
    the cache counts a build, not a delta rebuild."""
    rng, rt, tt, loop, ia, ib = _nb_loop(11)
    rt.clear_stamp(tt, "nb:ia")
    _adapt_ib(rng, loop, ib)
    _assert_full_build(rt, tt, loop, ia, ib)
    _assert_reduces(rt, tt, loop, ia, ib, rng)


def test_targeted_adapt_after_a_repair_that_raised_runs_full_build(
        monkeypatch):
    """A repair that raised (here a ``TypeError``, which is no
    ``DeltaFallback``) leaves the cached schedule two touches behind the
    next targeted adapt, which therefore runs the full build."""
    import repro.core.api as api

    rng, rt, tt, loop, ia, ib = _nb_loop(21)

    def broken(*args, **kwargs):
        raise TypeError("rehash failed")

    with monkeypatch.context() as patch:
        patch.setattr(api, "rehash_delta", broken)
        with pytest.raises(TypeError, match="rehash failed"):
            _adapt_ib(rng, loop, ib)
    _adapt_ib(rng, loop, ib)
    _assert_full_build(rt, tt, loop, ia, ib)
    _assert_reduces(rt, tt, loop, ia, ib, rng)


def test_targeted_adapt_after_binding_the_other_array_runs_full_build():
    """A ``bind`` of ``ia`` moves a second dependency of the cached
    schedule, so a targeted adapt of ``ib`` cannot repair it alone."""
    rng, rt, tt, loop, _, ib = _nb_loop(22)
    ia = split_by_block(rng.integers(0, 60, 120), rt.machine)
    loop.bind(ia=ia)
    _adapt_ib(rng, loop, ib)
    _assert_full_build(rt, tt, loop, ia, ib)
    _assert_reduces(rt, tt, loop, ia, ib, rng)


def test_targeted_adapt_of_an_arena_changed_in_place_is_rejected():
    """A bound arena is held as it is: changed in place, it no longer
    holds the old values a targeted adapt must remove from the tables,
    so that adapt is a ``ValueError`` before anything changes.  An
    untargeted adapt of the same arena is right."""
    rng = np.random.default_rng(23)
    n, per, k = 400, 50, 10
    m = Machine(4)
    rt = ChaosRuntime(ExecutionContext.resolve(m, "vectorized"))
    tt = rt.irregular_table(rng.integers(0, 4, n))
    ia = split_by_block(rng.integers(0, n, 4 * per), m)
    ib = RankArena(rng.integers(0, n, 4 * per), np.full(4, per))
    loop = IrregularReduction(rt, tt, "nb").bind(ia=ia, ib=ib)
    loop.setup()
    touched = [rng.choice(per, size=k, replace=False) for _ in range(4)]
    for a, pos in zip(ib, touched):
        a[pos] = rng.integers(0, n, k)
    version = rt.modification_record.version("nb:ib")
    with pytest.raises(ValueError, match="changed in place"):
        loop.adapt("ib", ib, touched=touched)
    assert rt.modification_record.version("nb:ib") == version
    loop.adapt("ib", ib)
    _assert_reduces(rt, tt, loop, ia, ib, rng)


def test_targeted_adapt_of_a_copy_of_an_arena_changed_in_place_is_rejected():
    """The bound arena changed in place and a *copy* of it passed: the
    bound buffer no longer holds the old values, though the two arrays
    share no memory, so the adapt is a ``ValueError`` before anything
    changes (it used to give a result that disagreed with ``np.add.at``
    and no error).  An untargeted adapt of the copy is right."""
    rng = np.random.default_rng(23)
    n, per, k = 400, 50, 10
    m = Machine(4)
    rt = ChaosRuntime(ExecutionContext.resolve(m, "vectorized"))
    tt = rt.irregular_table(rng.integers(0, 4, n))
    ia = split_by_block(rng.integers(0, n, 4 * per), m)
    ib = RankArena(rng.integers(0, n, 4 * per), np.full(4, per))
    loop = IrregularReduction(rt, tt, "nb").bind(ia=ia, ib=ib)
    loop.setup()
    touched = [rng.choice(per, size=k, replace=False) for _ in range(4)]
    for a, pos in zip(ib, touched):
        a[pos] = rng.integers(0, n, k)
    copy = [a.copy() for a in ib]
    version = rt.modification_record.version("nb:ib")
    with pytest.raises(ValueError, match="changed in place"):
        loop.adapt("ib", copy, touched=touched)
    assert rt.modification_record.version("nb:ib") == version
    loop.adapt("ib", copy)
    _assert_reduces(rt, tt, loop, ia, copy, rng)


@pytest.mark.parametrize("backend", BACKENDS)
def test_targeted_adapt_passing_the_bound_arena_unchanged_repairs(backend):
    """The bound arena itself, unchanged, passed with touched positions
    (which only *may* differ) is a valid targeted adapt: it repairs the
    schedule, and the repair equals a cold build."""
    rng = np.random.default_rng(23)
    n, per, k = 400, 50, 10
    m = Machine(4)
    rt = ChaosRuntime(ExecutionContext.resolve(m, backend))
    tt = rt.irregular_table(rng.integers(0, 4, n))
    ia = split_by_block(rng.integers(0, n, 4 * per), m)
    ib = RankArena(rng.integers(0, n, 4 * per), np.full(4, per))
    loop = IrregularReduction(rt, tt, "nb").bind(ia=ia, ib=ib)
    loop.setup()
    touched = [rng.choice(per, size=k, replace=False) for _ in range(4)]
    loop.adapt("ib", ib, touched=touched)
    assert rt.cache_stats("nb").delta_rebuilds == 1
    assert observe(loop.schedule) == observe(
        cold_build(rt, tt, "nb:ia", "nb:ib"))
    _assert_reduces(rt, tt, loop, ia, ib, rng)


@pytest.mark.parametrize("backend", BACKENDS)
def test_validators_hold_after_every_adaptive_step(backend):
    """The oracle's table invariants hold on the live tables, and the
    loop's schedule fetches the distinct off-processor references of
    its current arrays, after each step of an adaptive run: a cold
    build, a delta splice, an untargeted rebuild, a setup after an
    external stamp clear and a setup after the tables were dropped."""
    rng = np.random.default_rng(7)
    n, refs = 60, 120
    m = Machine(4)
    rt = ChaosRuntime(ExecutionContext.resolve(m, backend))
    tt = rt.irregular_table(rng.integers(0, 4, n))
    ib = split_by_block(rng.integers(0, n, refs), m)
    arrays = {"ia": split_by_block(rng.integers(0, n, refs), m), "ib": ib}
    loop = IrregularReduction(rt, tt, "v").bind(**arrays)

    def targeted():
        touched = []
        for a in ib:
            pos = rng.choice(a.size, size=5, replace=False)
            a[pos] = rng.integers(0, n, 5)
            touched.append(pos)
        loop.adapt("ib", [a.copy() for a in ib], touched=touched)

    def untargeted():
        arrays["ia"] = split_by_block(rng.integers(0, n, refs), m)
        loop.adapt("ia", arrays["ia"])

    def clear_then_setup():
        rt.clear_stamp(tt, "v:ia")
        loop.setup()

    def drop_then_setup():
        rt.drop_hash_tables(tt)
        loop.setup()

    steps = [
        (loop.setup, (1, 0)),
        (targeted, (1, 1)),
        (untargeted, (2, 1)),
        (clear_then_setup, (3, 1)),
        (drop_then_setup, (4, 1)),
    ]
    for step, (builds, deltas) in steps:
        step()
        assert check_hash_tables(rt.hash_tables(tt)) == []
        assert_fetches(loop.schedule, tt.dist, list(arrays.values()))
        st = rt.cache_stats("v")
        assert (st.builds, st.delta_rebuilds) == (builds, deltas)


@pytest.mark.parametrize("backend", BACKENDS)
def test_loop_positions_follow_every_step(backend):
    """The loop keeps each localized stream's stacked positions itself:
    after every step of an adaptive run they equal the oracle's, laid
    out for the current schedule, and the reduction equals a fresh
    loop's over the same arrays bit for bit.  The steps: a cold build,
    a hit, a targeted adapt into fresh ghost slots (its new references
    lie past their ranks' old extents), an untargeted adapt, a repair
    declined on a stale base, a setup after an external stamp clear, a
    setup after the tables were dropped, and a targeted adapt of a
    degraded localized arena."""
    rng = np.random.default_rng(31)
    n, per, k = 400, 40, 5
    m = Machine(4)
    rt = ChaosRuntime(ExecutionContext.resolve(m, backend))
    owner = rng.integers(0, 4, n)
    tt = rt.irregular_table(owner)
    # ``ib`` starts on the low quarter, so a targeted adapt to the upper
    # half enters fresh ghost slots
    arrays = {"ia": split_by_block(rng.integers(0, n, 4 * per), m),
              "ib": split_by_block(rng.integers(0, n // 4, 4 * per), m)}
    x_g = rng.standard_normal(n)
    loop = IrregularReduction(rt, tt, "v").bind(**arrays)

    def targeted():
        touched = [rng.choice(per, size=k, replace=False) for _ in range(4)]
        new = [a.copy() for a in arrays["ib"]]
        for a, t in zip(new, touched):
            a[t] = rng.integers(n // 2, n, k)
        arrays["ib"] = new
        loop.adapt("ib", [a.copy() for a in new], touched=touched)

    def untargeted():
        arrays["ia"] = split_by_block(rng.integers(0, n, 4 * per), m)
        loop.adapt("ia", arrays["ia"])

    def stale_base():
        # the cached schedule replaced by one of other tables: the
        # repair's splice rejects it and the full build runs
        rt.modification_record.touch("v:ia")
        rt.schedule_cache.get_or_build("v", ("v:ia", "v:ib"),
                                       lambda: empty_schedule(4))
        targeted()

    def clear_then_setup():
        rt.clear_stamp(tt, "v:ia")
        loop.setup()

    def drop_then_setup():
        rt.drop_hash_tables(tt)
        loop.setup()

    def degraded_then_targeted():
        loc = loop.localized("ib")
        loc[1] = loc[1].copy()
        targeted()

    def reduce(a_loop, runtime, ttable):
        y = runtime.zeros_like_table(ttable)
        a_loop.execute(y, "ia", np.sin, {"x": (runtime.distribute(
            x_g, ttable), "ib")})
        return y.to_global()

    steps = [
        (loop.setup, (0, 1, 0)),
        (loop.setup, (1, 1, 0)),
        (targeted, (1, 1, 1)),
        (untargeted, (1, 2, 1)),
        (stale_base, (1, 4, 1)),
        (clear_then_setup, (1, 5, 1)),
        (drop_then_setup, (1, 6, 1)),
        (degraded_then_targeted, (1, 6, 2)),
    ]
    extents = []
    for step, counts in steps:
        step()
        st = rt.cache_stats("v")
        assert (st.hits, st.builds, st.delta_rebuilds) == counts, step
        extent = loop.schedule.extent
        for name in arrays:
            laid = loop.positions(name)
            assert laid.extent is extent
            assert np.array_equal(laid.flat, stacked_reference(
                loop.localized(name), tt.dist.layout.sizes, extent)), \
                (step, name)
        fresh_rt = ChaosRuntime(ExecutionContext.resolve(Machine(4),
                                                         backend))
        fresh_tt = fresh_rt.irregular_table(owner)
        fresh = IrregularReduction(fresh_rt, fresh_tt, "v").bind(**arrays)
        fresh.setup()
        assert reduce(loop, rt, tt).tobytes() == reduce(
            fresh, fresh_rt, fresh_tt).tobytes(), step
        extents.append(extent)
    # the targeted and the untargeted adapt moved ghost starts
    assert (extents[2] > extents[1]).any()
    assert (extents[3] > extents[2]).any()
