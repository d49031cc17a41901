"""Unit tests: communication schedules and the Figure 6 worked example."""

import dataclasses

import numpy as np
import pytest

from repro.apps.charmm import ParallelMD, build_small_system
from repro.core import (
    BlockDistribution,
    ChaosRuntime,
    CommPlan,
    CyclicDistribution,
    ExecutionContext,
    IrregularDistribution,
    IrregularReduction,
    LightweightSchedule,
    RankArena,
    RemapPlan,
    Schedule,
    TranslationTable,
    build_lightweight_schedule,
    build_schedule,
    chaos_hash,
    delta_rebuild_schedule,
    gather,
    make_hash_tables,
    rehash_delta,
    remap,
    scatter_op,
    split_by_block,
)
from repro.sim import Machine

from csr_helpers import assert_read_only, compose_from_streams, empty_schedule
from oracle import observe


def make_env(n_ranks=2, map_array=None):
    m = Machine(n_ranks)
    rt = ChaosRuntime(m)
    if map_array is None:
        map_array = [0] * 5 + [1] * 5
    tt = rt.irregular_table(map_array)
    return m, rt, tt


class TestScheduleStructure:
    def test_empty(self):
        s = empty_schedule(3)
        assert s.total_messages() == 0
        assert s.total_elements() == 0
        assert s.send_indices[0].size == 0
        assert s.recv_slots[1].size == 0

    def test_inconsistent_rejected(self):
        # rank 0 sends 2 elements to rank 1 but rank 1 expects none
        from csr_helpers import schedule_from_pairs

        z = np.zeros(0, dtype=np.int64)
        with pytest.raises(ValueError):
            schedule_from_pairs(
                n_ranks=2,
                send_indices=[[z, np.array([1, 2])], [z, z]],
                recv_slots=[[z, z], [z, z]],
                ghost_size=[0, 0],
                local=[3, 0],
            )

    def test_csr_offsets_validated(self):
        # one malformed plan per message of the constructor's validation
        good = dict(counts=np.array([[0, 2], [1, 0]]),
                    rows=np.array([2, 0, 1]), slots=np.array([0, 1, 2]),
                    extent=np.array([1, 2]), local=np.array([2, 3]))
        Schedule.from_slot_order(**good)
        cases = [
            (dict(counts=np.zeros((2, 3), np.int64)), r"\(P, P\)"),
            (dict(counts=np.array([[0, 4], [-1, 0]])), "negative"),
            (dict(rows=np.array([0, 1])), "2 rows and 3 slots"),
            (dict(slots=np.arange(4)), "3 rows and 4 slots"),
            (dict(extent=np.array([1, 2, 3])), "extent vector"),
            (dict(local=np.array([2, -1])), "local vector"),
            (dict(rows=np.array([0.0, 1.0, 2.0])), "integers"),
            (dict(slots=np.array([True, False, True])), "integers"),
            (dict(rows=np.array([2, 0, 5])), "outside the local layout"),
            # descending, shared and out-of-extent slots
            (dict(slots=np.array([0, 2, 1])), "ascend strictly"),
            (dict(slots=np.array([0, 1, 1])), "ascend strictly"),
            (dict(slots=np.array([0, 1, 3])), "ascend strictly"),
            # rank 1's first slot is rank 0's last
            (dict(extent=np.array([2, 2])), "ascend strictly"),
        ]
        for bad, message in cases:
            with pytest.raises(ValueError, match=message):
                Schedule.from_slot_order(**{**good, **bad})

    def test_streams_build_no_schedule(self):
        # every plan is stored in slot order: built from streams,
        # directly or as a modified copy, it is a TypeError
        good = dict(counts=np.array([[0, 2], [1, 0]]), send=[0, 1, 2],
                    place=[0, 0, 1], extent=[1, 2])
        for kind in (CommPlan, Schedule, RemapPlan, LightweightSchedule):
            with pytest.raises(TypeError, match="from_slot_order"):
                kind(**good)
        with pytest.raises(TypeError, match="from_slot_order"):
            dataclasses.replace(empty_schedule(2), extent=[1, 1])

    def test_sizes(self):
        m, rt, tt = make_env()
        rt.hash_indirection(tt, [np.array([7, 8]), np.array([1])], "s")
        sched = rt.build_schedule(tt, "s")
        # rank0 fetches 7,8 from rank1; rank1 fetches 1 from rank0
        assert sched.counts[1, 0] == 2
        assert sched.counts[0, 1] == 1
        assert sched.send_sizes(1)[0] == 2
        assert sched.total_messages() == 2
        assert sched.total_elements() == 3


class TestReadOnly:
    """A schedule is immutable: a write through its buffers or per-rank
    views (a slot past the ghost buffer, a repeated slot, a send row past
    the local size) raises, so what its constructor checked stays true."""

    @pytest.mark.parametrize("backend", ["serial", "vectorized"])
    def test_built_and_repaired_schedules(self, backend):
        rng = np.random.default_rng(5)
        rt = ChaosRuntime(ExecutionContext.resolve(Machine(4), backend))
        tt = rt.irregular_table(rng.integers(0, 4, 60))
        ib = split_by_block(rng.integers(0, 60, 120), rt.machine)
        loop = IrregularReduction(rt, tt, "r").bind(
            ib=[a.copy() for a in ib])
        assert_read_only(loop.setup(), "send_indices", "recv_slots")
        touched = [rng.choice(a.size, size=5, replace=False) for a in ib]
        for a, t in zip(ib, touched):
            a[t] = rng.integers(0, 60, t.size)
        loop.adapt("ib", ib, touched=touched)
        assert rt.cache_stats("r").delta_rebuilds == 1
        assert_read_only(loop.schedule, "send_indices", "recv_slots")


class TestFigure6:
    """The paper's worked example, exactly (1-based elements 1..10;
    y(1..5) on proc0, y(6..10) on proc1; proc0 hashes ia, ib, ic)."""

    def setup_method(self):
        self.m, self.rt, self.tt = make_env()
        z = np.zeros(0, dtype=np.int64)
        self.ia = [np.array([1, 3, 7, 9, 2]) - 1, z]
        self.ib = [np.array([1, 5, 7, 8, 2]) - 1, z]
        self.ic = [np.array([4, 3, 10, 8, 9]) - 1, z]
        self.rt.hash_indirection(self.tt, self.ia, "a")
        self.rt.hash_indirection(self.tt, self.ib, "b")
        self.rt.hash_indirection(self.tt, self.ic, "c")
        self.e = self.rt.hash_tables(self.tt).expr

    def fetched(self, expr) -> list[int]:
        s = self.rt.build_schedule(self.tt, expr)
        return sorted(5 + off + 1 for off in s.send_view(1, 0).tolist())

    def test_sched_a(self):
        assert self.fetched(self.e("a")) == [7, 9]

    def test_sched_b(self):
        assert self.fetched(self.e("b")) == [7, 8]

    def test_incremental_b_minus_a(self):
        assert self.fetched(self.e("b") - self.e("a")) == [8]

    def test_merged_abc(self):
        assert self.fetched(self.e("a", "b", "c")) == [7, 8, 9, 10]

    def test_merged_smaller_than_sum_of_parts(self):
        merged = self.rt.build_schedule(self.tt, self.e("a", "b", "c"))
        separate = sum(
            self.rt.build_schedule(self.tt, self.e(s)).total_elements()
            for s in "abc"
        )
        assert merged.total_elements() < separate  # duplicates removed


class TestBuildSchedule:
    def test_software_caching_removes_duplicates(self):
        m, rt, tt = make_env()
        # same off-proc element referenced 100 times: fetched once
        idx = [np.full(100, 9, dtype=np.int64), np.zeros(0, dtype=np.int64)]
        rt.hash_indirection(tt, idx, "dup")
        sched = rt.build_schedule(tt, "dup")
        assert sched.total_elements() == 1

    def test_schedule_build_charges_time(self):
        m, rt, tt = make_env()
        rt.hash_indirection(tt, [np.array([9]), np.array([0])], "s")
        t0 = m.execution_time()
        rt.build_schedule(tt, "s")
        assert m.execution_time() > t0

    def test_ghost_size_covers_buffer(self):
        m, rt, tt = make_env()
        rt.hash_indirection(tt, [np.array([5, 6, 7]), np.array([0, 1])], "s")
        sched = rt.build_schedule(tt, "s")
        assert sched.ghost_size[0] == rt.hash_tables(tt).n_ghost[0] == 3
        assert sched.ghost_size[1] == 2

    def test_string_expr_accepted(self):
        m, rt, tt = make_env()
        rt.hash_indirection(tt, [np.array([9]), None], "s")
        sched = build_schedule(rt.ctx, rt.hash_tables(tt), "s")
        assert sched.total_elements() == 1



class TestSlotOrder:
    """A plan stores the executor's slot order and derives the paper's
    streams from it: the stored order must be the pair the streams
    compose to, and a schedule's derived streams the serial builder's,
    after a cold build and after every delta repair of a chain — one
    that empties a (receiver, owner) segment, one that re-activates the
    rows it dropped, one that adds new entries — with a rank that holds
    no ghosts, on one rank and on four, under both backends."""

    @staticmethod
    def check_pair(plan):
        """The executor pair for the plan's own layouts, and for longer
        local arrays or placed buffers, is the one composed from its
        streams."""
        local, placed = plan.order.local, tuple(plan.extent.tolist())
        longer = tuple(n + 1 for n in local), tuple(n + 1 for n in placed)
        for layout in ((local, placed), (longer[0], placed),
                       (local, longer[1])):
            got = plan._compose(*layout)
            want = compose_from_streams(plan, *layout)
            for g, w in zip(got, want):
                assert (g is None) == (w is None)
                if g is not None:
                    assert g.dtype == np.int64 and np.array_equal(g, w)

    @pytest.mark.parametrize("n_ranks", [1, 4])
    def test_remap_and_append_pairs_are_their_streams(self, n_ranks):
        """The other two plan kinds, the last of four ranks empty."""
        rng = np.random.default_rng(6)
        ctx = ExecutionContext.resolve(Machine(n_ranks))
        some = IrregularDistribution(
            rng.integers(0, max(1, n_ranks - 1), 50), n_ranks)
        for old, new in ((some, BlockDistribution(50, n_ranks)),
                         (CyclicDistribution(50, n_ranks), some)):
            self.check_pair(remap(ctx, old, new))
        self.check_pair(build_lightweight_schedule(
            ctx, [rng.integers(0, n_ranks, n) for n in some.layout.sizes]))

    @pytest.mark.parametrize("n_ranks", [1, 4])
    @pytest.mark.parametrize("backend", ["serial", "vectorized"])
    def test_stored_order_matches_the_streams(self, backend, n_ranks):
        rng = np.random.default_rng(5)
        n = 16 * n_ranks
        owner = np.arange(n) % n_ranks
        m = Machine(n_ranks)
        ctx = ExecutionContext.resolve(m, backend)
        reference = ExecutionContext.resolve(Machine(n_ranks), "serial")
        tt = TranslationTable.from_map(m, owner)
        group = make_hash_tables(ctx, tt)
        # rank 0 references only elements it owns: it holds no ghosts
        idx = [rng.choice(np.flatnonzero(owner == 0), 20)] + [
            rng.integers(0, n, 20) for _ in range(1, n_ranks)]
        chaos_hash(ctx, group, tt, [a.copy() for a in idx], "s")
        assert group.n_ghost[0] == 0

        def check(sched):
            self.check_pair(sched)
            assert observe(sched) == observe(
                build_schedule(reference, group, "s"))
            return sched

        cold = check(build_schedule(ctx, group, "s"))

        def splice(sched, new_idx):
            pos = [np.flatnonzero(a != b) for a, b in zip(idx, new_idx)]
            rehash = rehash_delta(ctx, group, tt, "s",
                                  [a[t] for a, t in zip(idx, pos)],
                                  [b[t] for b, t in zip(new_idx, pos)])
            return check(delta_rebuild_schedule(ctx, group, "s", sched,
                                                rehash))

        # rank r's references to owner q all become its own elements
        r, q = (1, 2) if n_ranks > 1 else (0, 0)
        emptied = [a.copy() for a in idx]
        emptied[r][owner[idx[r]] == q] = np.flatnonzero(owner == r)[0]
        sched = splice(cold, emptied)
        if n_ranks > 1:
            assert cold.counts[q, r] > 0 and sched.counts[q, r] == 0
        idx, saved = emptied, idx
        # ... and back: the dropped rows come back with their old slots
        sched = splice(sched, saved)
        assert observe(sched) == observe(cold)
        idx = saved
        # fresh values: new entries, new ghost slots, wider extents
        grown = [a.copy() for a in idx]
        for a in grown[1:]:
            a[:5] = rng.integers(0, n, 5)
        extent = sched.extent
        splice(sched, grown)
        assert n_ranks == 1 or (group.n_ghost > extent).any()


class TestOneForm:
    """Every plan is stored in slot order and composes the executor's
    pair from it, whichever backend built it and whatever layout it runs
    on."""

    @staticmethod
    def run_both_layouts(ctx, sched):
        """A gather into fresh ghost buffers and into longer ones (another
        placed layout), and a ``scatter_op`` from the longer ones."""
        x = RankArena(np.arange(sum(sched.order.local), dtype=np.float64),
                      sched.order.local)
        fresh = gather(ctx, sched, x)
        longer = RankArena.zeros(sched.extent + 1)
        gather(ctx, sched, x, longer)
        for a, b in zip(fresh, longer):
            assert np.array_equal(a, b[:a.size])
        scatter_op(ctx, sched, x, longer)
        return x

    @pytest.mark.parametrize("backend", ["serial", "vectorized"])
    def test_nothing_composes_from_streams(self, backend):
        # one composition, the stored order's: no plan kind composes or
        # stores streams of its own
        kinds, seen = [CommPlan], set()
        while kinds:
            kind = kinds.pop()
            seen.add(kind)
            kinds += kind.__subclasses__()
        assert {Schedule, RemapPlan, LightweightSchedule} <= seen
        for kind in seen - {CommPlan}:
            assert not {"_compose", "send", "place"} & set(vars(kind))

        rng = np.random.default_rng(3)
        n = 64
        owner = rng.integers(0, 4, n)
        idx = [rng.integers(0, n, 30) for _ in range(4)]
        m = Machine(4)
        ctx = ExecutionContext.resolve(m, backend)
        results = []
        for builder in ("serial", "vectorized"):
            bctx = ctx.with_backend(builder)
            tt = TranslationTable.from_map(m, owner)
            group = make_hash_tables(bctx, tt)
            chaos_hash(bctx, group, tt, [a.copy() for a in idx], "s")
            results.append(self.run_both_layouts(
                ctx, build_schedule(bctx, group, "s")))
        for a, b in zip(*results):
            assert np.array_equal(a, b)

        # Table 3's "multiple" mode: the bonded gather fills the longer
        # ghost buffers of the whole table
        md = ParallelMD(build_small_system(60, seed=7),
                        ExecutionContext.resolve(Machine(4), backend),
                        dt=0.002, schedule_mode="multiple")
        md.run(1)

        # a targeted adapt that repairs a serial-built base
        rt = ChaosRuntime(ExecutionContext.resolve(Machine(4), "serial"))
        tt = rt.irregular_table(owner)
        ib = [a.copy() for a in idx]
        loop = IrregularReduction(rt, tt, "nb").bind(
            ia=split_by_block(rng.integers(0, n, 120), rt.machine),
            ib=[a.copy() for a in ib])
        loop.setup()
        touched = [rng.choice(a.size, size=5, replace=False) for a in ib]
        for a, t in zip(ib, touched):
            a[t] = rng.integers(0, n, t.size)
        loop.adapt("ib", ib, touched=touched)
        assert rt.cache_stats("nb").delta_rebuilds == 1
        self.run_both_layouts(rt.ctx.with_backend(backend), loop.schedule)

    def test_resident_bytes_agree_across_backends(self):
        """A cached schedule holds the same buffers whichever backend
        built it."""
        rng = np.random.default_rng(9)
        owner, refs = rng.integers(0, 4, 64), rng.integers(0, 64, (2, 120))
        resident = []
        for backend in ("serial", "vectorized"):
            m = Machine(4)
            rt = ChaosRuntime(ExecutionContext.resolve(m, backend))
            tt = rt.irregular_table(owner)
            IrregularReduction(rt, tt, "nb").bind(
                ia=split_by_block(refs[0], m),
                ib=split_by_block(refs[1], m)).setup()
            resident.append(rt.cache_stats("nb").resident_bytes)
        assert resident[0] == resident[1] > 0
