"""Unit tests: DistributedArray, ChaosRuntime facade, IrregularReduction."""

import hashlib

import numpy as np
import pytest

from repro.core import (
    ChaosRuntime,
    DistributedArray,
    ExecutionContext,
    IrregularReduction,
    remap,
    remap_array,
    run_reduction,
    split_by_block,
)
from repro.core.executor import StackedPositions
from repro.sim import Machine

from conftest import ALL_BACKENDS, block_table, count_calls, cyclic_table
from oracle import observe


class TestDistributedArray:
    def test_roundtrip(self, machine4, rng):
        rt = ChaosRuntime(machine4)
        tt = rt.irregular_table(rng.integers(0, 4, 20))
        x_g = rng.standard_normal(20)
        x = rt.distribute(x_g, tt)
        assert np.array_equal(x.to_global(), x_g)

    def test_2d_roundtrip(self, machine4, rng):
        rt = ChaosRuntime(machine4)
        tt = rt.irregular_table(rng.integers(0, 4, 20))
        pos_g = rng.standard_normal((20, 3))
        pos = rt.distribute(pos_g, tt)
        assert np.array_equal(pos.to_global(), pos_g)

    def test_round_trip_calls_independent_of_ranks(self, rng):
        """Scatter and assembly are one take and one put through the
        layout: the same C calls at P=16 as at P=128."""
        g = rng.standard_normal((5000, 3))
        got = []
        for p in (16, 128):
            m = Machine(p)
            tt = ChaosRuntime(m).irregular_table(rng.integers(0, p, 5000))
            got.append(count_calls(
                lambda: DistributedArray.from_global(m, tt, g).to_global()))
        assert got[0] == got[1]

    def test_wrong_size_rejected(self, machine4, rng):
        rt = ChaosRuntime(machine4)
        tt = rt.irregular_table(rng.integers(0, 4, 20))
        with pytest.raises(ValueError):
            rt.distribute(np.zeros(19), tt)

    def test_wrong_local_shape_rejected(self, machine4, rng):
        rt = ChaosRuntime(machine4)
        tt = rt.irregular_table(rng.integers(0, 4, 8))
        bad = [np.zeros(100) for _ in range(4)]
        with pytest.raises(ValueError):
            DistributedArray(machine4, tt, bad)

    def test_redistribute_preserves_values(self, machine4, rng):
        """Phase B: a remap plan between two tables' distributions moves
        the array to the second one."""
        rt = ChaosRuntime(machine4)
        tt1 = rt.irregular_table(rng.integers(0, 4, 30))
        tt2 = rt.irregular_table(rng.integers(0, 4, 30))
        x_g = rng.standard_normal(30)
        x = rt.distribute(x_g, tt1)
        plan = remap(rt.ctx, tt1.dist, tt2.dist)
        y = DistributedArray(machine4, tt2, remap_array(rt.ctx, plan, x.local))
        assert np.array_equal(y.to_global(), x_g)

    def test_zeros_like_table(self, machine4, rng):
        rt = ChaosRuntime(machine4)
        tt = rt.irregular_table(rng.integers(0, 4, 12))
        z = rt.zeros_like_table(tt, trailing=(3,))
        assert z.to_global().shape == (12, 3)


class TestIrregularReduction:
    def make(self, rng, n=40, e=100, p=4):
        m = Machine(p)
        rt = ChaosRuntime(m)
        tt = rt.irregular_table(rng.integers(0, p, n))
        x_g = rng.standard_normal(n)
        y_g = rng.standard_normal(n)
        ia_g = rng.integers(0, n, e)
        ib_g = rng.integers(0, n, e)
        return m, rt, tt, x_g, y_g, ia_g, ib_g

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_delta_beside_an_array_with_no_references(self, backend, rng):
        """An array no rank references is still hashed with counts, so a
        targeted adapt of another array is spliced on every backend."""
        m, _, tt, _, _, _, ib_g = self.make(rng)
        rt = ChaosRuntime(ExecutionContext.resolve(m, backend))
        ib = split_by_block(ib_g, m)
        loop = IrregularReduction(rt, tt, "e").bind(
            ia=[np.zeros(0, dtype=np.int64)] * 4, ib=ib)
        loop.setup()
        nxt = [a.copy() for a in ib]
        for a in nxt:
            a[0] = (a[0] + 1) % 40
        loop.adapt("ib", nxt, touched=[np.array([0])] * 4)
        st = rt.cache_stats("e")
        assert (st.builds, st.delta_rebuilds) == (1, 1)

    def test_figure1_loop(self, rng):
        """x(ia(i)) += y(ib(i)) — the paper's canonical irregular loop."""
        m, rt, tt, x_g, y_g, ia_g, ib_g = self.make(rng)
        x = rt.distribute(x_g, tt)
        y = rt.distribute(y_g, tt)
        loop = IrregularReduction(rt, tt, "fig1").bind(
            ia=split_by_block(ia_g, m), ib=split_by_block(ib_g, m)
        )
        loop.setup()
        loop.execute(x, "ia", lambda yv: yv, {"y": (y, "ib")})
        expected = x_g.copy()
        np.add.at(expected, ia_g, y_g[ib_g])
        assert np.allclose(x.to_global(), expected)

    def test_executes_repeatedly_with_one_schedule(self, rng):
        m, rt, tt, x_g, y_g, ia_g, ib_g = self.make(rng)
        x = rt.distribute(x_g, tt)
        y = rt.distribute(y_g, tt)
        loop = IrregularReduction(rt, tt, "L").bind(
            ia=split_by_block(ia_g, m), ib=split_by_block(ib_g, m)
        )
        s1 = loop.setup()
        for _ in range(3):
            loop.execute(x, "ia", lambda v: v, {"y": (y, "ib")})
        expected = x_g.copy()
        for _ in range(3):
            np.add.at(expected, ia_g, y_g[ib_g])
        assert np.allclose(x.to_global(), expected)
        assert loop.schedule is s1  # never rebuilt

    def test_adapt_rebuilds_only_changed_stamp(self, rng):
        m, rt, tt, x_g, y_g, ia_g, ib_g = self.make(rng)
        x = rt.distribute(x_g, tt)
        y = rt.distribute(y_g, tt)
        loop = IrregularReduction(rt, tt, "L").bind(
            ia=split_by_block(ia_g, m), ib=split_by_block(ib_g, m)
        )
        loop.setup()
        ib2_g = rng.integers(0, x_g.size, ib_g.size)
        loop.adapt("ib", split_by_block(ib2_g, m))
        loop.execute(x, "ia", lambda v: v, {"y": (y, "ib")})
        expected = x_g.copy()
        np.add.at(expected, ia_g, y_g[ib2_g])
        assert np.allclose(x.to_global(), expected)

    def test_adapt_touched_takes_delta_path(self, rng):
        """A targeted adapt records a delta payload and repairs the
        cached schedule incrementally — one build, then delta rebuilds,
        with results identical to a full re-run."""
        m, rt, tt, x_g, y_g, ia_g, ib_g = self.make(rng)
        x = rt.distribute(x_g, tt)
        y = rt.distribute(y_g, tt)
        loop = IrregularReduction(rt, tt, "app:L").bind(
            ia=split_by_block(ia_g, m), ib=split_by_block(ib_g, m)
        )
        loop.setup()
        ib = split_by_block(ib_g, m)
        ib2_g = ib_g.copy()
        touched, nxt = [], []
        for p in m.ranks():
            k = max(1, ib[p].size // 10)
            pos = rng.choice(ib[p].size, size=k, replace=False)
            b = ib[p].copy()
            b[pos] = rng.integers(0, x_g.size, k)
            touched.append(pos)
            nxt.append(b)
        lo = 0
        for p in m.ranks():
            ib2_g[lo + touched[p]] = nxt[p][touched[p]]
            lo += ib[p].size
        loop.adapt("ib", nxt, touched=touched)
        st = rt.cache_stats("app:L")
        assert (st.builds, st.delta_rebuilds) == (1, 1)
        loop.execute(x, "ia", lambda v: v, {"y": (y, "ib")})
        expected = x_g.copy()
        np.add.at(expected, ia_g, y_g[ib2_g])
        assert np.allclose(x.to_global(), expected)
        # the loop name contains a colon on purpose: the delta replay
        # must still recover the array name from the stamp
        assert loop.localized("ib") is not None

    def test_adapt_repeated_touched_position(self, rng):
        """A position listed twice must move its stamp references once.
        Counted twice, the old value loses the reference another
        position still holds, its entry leaves the schedule and its
        ghost is no longer gathered — silently."""
        m, rt, tt, x_g, y_g, ia_g, ib_g = self.make(rng, n=40, e=40)
        ia = split_by_block(ia_g, m)
        ib = [a.copy() for a in split_by_block(ib_g, m)]
        # two global indices rank 0 neither owns nor references
        unseen = np.setdiff1d(
            np.flatnonzero(tt.dist.owner(np.arange(40)) != 0),
            np.concatenate([ia[0], ib[0]]))
        twice, fresh = int(unseen[0]), int(unseen[1])
        ib[0][[3, 5]] = twice
        loop = IrregularReduction(rt, tt, "L").bind(
            ia=ia, ib=[a.copy() for a in ib])
        loop.setup()
        y = rt.distribute(y_g, tt)
        none = np.zeros(0, np.int64)
        for value in (fresh, twice):  # position 3 moves away, then back
            ib[0][3] = value
            loop.adapt("ib", [a.copy() for a in ib],
                       touched=[np.array([3, 3])] + [none] * 3)
            x = rt.distribute(x_g, tt)
            loop.execute(x, "ia", lambda v: v, {"y": (y, "ib")})
            expected = x_g.copy()
            np.add.at(expected, ia_g, y_g[np.concatenate(ib)])
            assert np.allclose(x.to_global(), expected)
        assert rt.cache_stats("L").delta_rebuilds == 2

    @pytest.mark.parametrize("bad", [-1, 10])
    def test_adapt_touched_out_of_range_rejected(self, rng, bad):
        m, rt, tt, x_g, y_g, ia_g, ib_g = self.make(rng, n=40, e=40)
        ia = split_by_block(ia_g, m)
        loop = IrregularReduction(rt, tt, "L").bind(ia=ia)
        loop.setup()
        none = np.zeros(0, np.int64)
        with pytest.raises(ValueError, match="rank 2"):
            loop.adapt("ia", ia, touched=[none, none, np.array([0, bad]),
                                          none])

    def test_adapt_change_outside_touched_rejected(self, rng):
        """A wrong ``touched`` used to corrupt the schedule silently: the
        changed position's old value kept its stamp references."""
        m, rt, tt, x_g, y_g, ia_g, ib_g = self.make(rng, n=40, e=40)
        ib = split_by_block(ib_g, m)
        loop = IrregularReduction(rt, tt, "L").bind(ib=ib)
        sched = loop.setup()
        nxt = [a.copy() for a in ib]
        nxt[1][2] = (nxt[1][2] + 1) % 40
        nxt[2][0] = (nxt[2][0] + 1) % 40   # touched, so allowed
        nxt[2][5] = (nxt[2][5] + 1) % 40   # the first untouched change
        none = np.zeros(0, np.int64)
        with pytest.raises(ValueError, match="rank 2: position 5 of 'ib'"):
            loop.adapt("ib", nxt, touched=[none, np.array([2]),
                                           np.array([0]), none])
        with pytest.raises(ValueError, match="rank 3: a targeted adapt"):
            loop.adapt("ib", ib[:3] + [ib[3][:-1]], touched=[none] * 4)
        # a rejected adapt changes nothing: the cached schedule still holds
        assert rt.cache_stats("L").builds == 1
        assert loop.setup() is sched

    def test_adapt_untouched_positions_must_not_change(self, rng):
        m, rt, tt, x_g, y_g, ia_g, ib_g = self.make(rng)
        loop = IrregularReduction(rt, tt, "L").bind(
            ia=split_by_block(ia_g, m)
        )
        sched1 = loop.setup()
        same = split_by_block(ia_g, m)
        # empty touched set with unchanged values: schedule survives as-is
        sched2 = loop.adapt(
            "ia", same, touched=[np.zeros(0, np.int64)] * m.n_ranks
        )
        assert sched2 is not None
        for p in m.ranks():
            assert np.array_equal(sched1.recv_slots[p],
                                  sched2.recv_slots[p])

    def test_setup_requires_bind(self, rng):
        m = Machine(2)
        rt = ChaosRuntime(m)
        tt = rt.irregular_table([0, 1])
        with pytest.raises(RuntimeError):
            IrregularReduction(rt, tt).setup()

    def test_schedule_before_setup_rejected(self, rng):
        m = Machine(2)
        rt = ChaosRuntime(m)
        tt = rt.irregular_table([0, 1])
        loop = IrregularReduction(rt, tt)
        with pytest.raises(RuntimeError):
            _ = loop.schedule

    def test_adapt_unknown_name_rejected(self, rng):
        m, rt, tt, x_g, y_g, ia_g, ib_g = self.make(rng)
        loop = IrregularReduction(rt, tt, "L").bind(
            ia=split_by_block(ia_g, m)
        )
        loop.setup()
        with pytest.raises(KeyError):
            loop.adapt("nope", [np.zeros(0, np.int64)] * m.n_ranks)

    def test_single_rank_machine(self, rng):
        m = Machine(1)
        rt = ChaosRuntime(m)
        tt = block_table(rt.machine, 10)
        x = rt.distribute(np.zeros(10), tt)
        y = rt.distribute(np.ones(10), tt)
        ia = [np.arange(10, dtype=np.int64)]
        loop = IrregularReduction(rt, tt, "L").bind(ia=ia, ib=ia)
        loop.setup()
        loop.execute(x, "ia", lambda v: 2 * v, {"y": (y, "ib")})
        assert np.allclose(x.to_global(), 2.0)

    @pytest.mark.parametrize("wrong", ["lhs", "rhs"])
    def test_execute_rejects_another_distribution(self, rng, wrong):
        """A block loop handed a cyclic array of the same size used to
        fold at the wrong elements without an error."""
        m = Machine(4)
        rt = ChaosRuntime(m)
        n = 16
        block, cyclic = block_table(m, n), cyclic_table(m, n)
        x = rt.distribute(np.zeros(n), cyclic if wrong == "lhs" else block)
        y = rt.distribute(rng.standard_normal(n),
                          cyclic if wrong == "rhs" else block)
        idx = split_by_block(rng.integers(0, n, 40), m)
        loop = IrregularReduction(rt, block, "L").bind(ia=idx, ib=idx)
        loop.setup()
        with pytest.raises(ValueError, match=wrong):
            loop.execute(x, "ia", lambda v: v, {"y": (y, "ib")})

    def test_execute_accepts_an_equal_distribution(self, rng):
        """A second table over the same distribution is the same layout."""
        m, rt, tt, x_g, y_g, ia_g, ib_g = self.make(rng)
        same = rt.irregular_table(tt.dist.layout.owners)
        assert same is not tt
        x = rt.distribute(x_g, same)
        y = rt.distribute(y_g, tt)
        loop = IrregularReduction(rt, tt, "L").bind(
            ia=split_by_block(ia_g, m), ib=split_by_block(ib_g, m))
        loop.setup()
        loop.execute(x, "ia", lambda v: v, {"y": (y, "ib")})
        expected = x_g.copy()
        np.add.at(expected, ia_g, y_g[ib_g])
        assert np.allclose(x.to_global(), expected)

    def test_a_new_table_never_gets_a_freed_tables_group(self):
        """Groups were keyed by ``id(ttable)``: a table created after
        another was freed could receive the freed table's group, sized
        for the old distribution, and a loop over it raised or read the
        wrong elements."""
        m = Machine(4)
        rt = ChaosRuntime(m)
        rng = np.random.default_rng(2911)
        groups = []
        for k in range(20):
            tt = rt.irregular_table(rng.integers(0, 4, 40))
            group = rt.hash_tables(tt)
            assert all(group is not g for g in groups), k
            groups.append(group)
            ia_g = rng.integers(0, 40, 100)
            y_g = rng.standard_normal(40)
            x = rt.zeros_like_table(tt)
            loop = IrregularReduction(rt, tt, f"L{k}").bind(
                ia=split_by_block(ia_g, m))
            loop.setup()
            loop.execute(x, "ia", lambda v: v,
                         {"y": (rt.distribute(y_g, tt), "ia")})
            expected = np.zeros(40)
            np.add.at(expected, ia_g, y_g[ia_g])
            assert np.allclose(x.to_global(), expected), k
            del tt, x, loop

    @pytest.mark.parametrize("fail_at", [1, 2])
    def test_failed_translation_in_setup(self, backend_name, fail_at,
                                         monkeypatch):
        """A translation-table lookup that raises inside ``setup()`` (in
        the first or the second array's hash) propagates; the next
        ``setup()`` builds, and the loop equals a cold one."""
        from repro.core.translation import TranslationTable

        rng = np.random.default_rng(2912)
        owner = rng.integers(0, 4, 40)
        ia_g, ib_g = rng.integers(0, 40, (2, 100))
        y_g = rng.standard_normal(40)
        real, calls = TranslationTable.dereference, []

        def fails_once(self, *args, **kwargs):
            calls.append(1)
            if len(calls) == fail_at:
                raise RuntimeError("injected lookup failure")
            return real(self, *args, **kwargs)

        monkeypatch.setattr(TranslationTable, "dereference", fails_once)
        runs = []
        for inject in (True, False):  # the failing loop, then a cold one
            m = Machine(4)
            rt = ChaosRuntime(ExecutionContext.resolve(m, backend_name))
            tt = rt.irregular_table(owner)
            loop = IrregularReduction(rt, tt, "L").bind(
                ia=split_by_block(ia_g, m), ib=split_by_block(ib_g, m))
            if inject:
                with pytest.raises(RuntimeError, match="injected"):
                    loop.setup()
                assert rt.cache_stats("L").builds == 0
            loop.setup()
            assert rt.cache_stats("L").builds == 1
            x = rt.zeros_like_table(tt)
            loop.execute(x, "ia", lambda v: v,
                         {"y": (rt.distribute(y_g, tt), "ib")})
            runs.append((loop, x.to_global()))
        (loop, got), (cold, want) = runs
        for part in ("counts", "send", "place", "extent"):
            assert np.array_equal(getattr(loop.schedule, part),
                                  getattr(cold.schedule, part)), part
        for nm in ("ia", "ib"):
            assert np.array_equal(loop.localized(nm).flat,
                                  cold.localized(nm).flat), nm
        assert got.tobytes() == want.tobytes()


class TestReductionExecutor:
    """``IrregularReduction.execute`` through the one reduction
    executor: every op folds only real contributions, a bad op or a
    raising kernel changes nothing, and the host work does not grow
    with the rank count."""

    def tiny(self, backend, start):
        """Two ranks, ``owner = [0, 0, 1, 1]``: rank 0's one iteration
        reads element 2, which only its rhs subscript references."""
        m = Machine(2)
        rt = ChaosRuntime(ExecutionContext.resolve(m, backend))
        tt = rt.irregular_table(np.array([0, 0, 1, 1]))
        loop = IrregularReduction(rt, tt, "tiny").bind(
            ia=[np.array([0]), np.array([3])],
            ib=[np.array([2]), np.array([3])])
        loop.setup()
        y = rt.distribute(np.full(4, start), tt)
        x = rt.distribute(np.array([1.0, 2.0, 3.0, 4.0]), tt)
        return m, loop, x, y

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("op, start", [(np.maximum, -10.0),
                                           (np.minimum, 10.0),
                                           (np.multiply, 2.0)])
    def test_non_add_ops_fold_only_real_contributions(self, backend, op,
                                                      start):
        """A ghost slot no iteration wrote must fold as ``op``'s
        identity, not as 0: element 2 keeps its value."""
        _, loop, x, y = self.tiny(backend, start)
        loop.execute(y, "ia", lambda v: v, {"x": (x, "ib")}, op=op)
        expected = np.full(4, start)
        op.at(expected, [0, 3], [3.0, 4.0])
        assert y.to_global().tobytes() == expected.tobytes()

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_unsupported_op_raises_before_anything_moves(self, backend):
        m, loop, x, y = self.tiny(backend, -10.0)
        before = y.to_global().tobytes()
        messages, clock = m.traffic.n_messages, m.execution_time()
        with pytest.raises(TypeError, match="np.add"):
            loop.execute(y, "ia", lambda v: v, {"x": (x, "ib")},
                         op=np.subtract)
        assert y.to_global().tobytes() == before
        assert (m.traffic.n_messages, m.execution_time()) == (messages,
                                                              clock)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("wrong", ["n_local", "extent"])
    def test_positions_of_another_layout_are_rejected(self, backend, wrong):
        """Positions laid out for other local rows or other ghost
        extents would read and fold the wrong rows: ``run_reduction``
        raises before anything moves."""
        m, loop, x, y = self.tiny(backend, 0.0)
        n_local, extent = x.local.sizes, loop.schedule.extent
        layout = {"n_local": (n_local + 1, extent),
                  "extent": (n_local, extent + 1)}[wrong]
        positions = {nm: StackedPositions(loop.localized(nm), *layout)
                     for nm in ("ia", "ib")}
        before = y.to_global().tobytes()
        messages = m.traffic.n_messages
        with pytest.raises(ValueError, match="laid out for"):
            run_reduction(loop.rt.ctx, loop.schedule, positions,
                          {"x": x.local}, {"y": (y.local, np.add)},
                          lambda take: iter([("y", "ia", take("x", "ib"))]),
                          np.ones(2))
        assert y.to_global().tobytes() == before
        assert m.traffic.n_messages == messages

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_raising_kernel_leaves_lhs_then_next_equals_cold(self, rng,
                                                             backend):
        n, e, p = 60, 240, 4
        owner = rng.integers(0, p, n)
        x_g, y_g = rng.standard_normal(n), rng.standard_normal(n)
        ia_g, ib_g = rng.integers(0, n, e), rng.integers(0, n, e)
        runs = []
        for fail_first in (True, False):
            m = Machine(p)
            rt = ChaosRuntime(ExecutionContext.resolve(m, backend))
            tt = rt.irregular_table(owner)
            loop = IrregularReduction(rt, tt, "L").bind(
                ia=split_by_block(ia_g, m), ib=split_by_block(ib_g, m))
            loop.setup()
            x, y = rt.distribute(x_g, tt), rt.distribute(y_g, tt)
            if fail_first:
                def boom(v):
                    raise RuntimeError("kernel failed")
                with pytest.raises(RuntimeError, match="kernel failed"):
                    loop.execute(x, "ia", boom, {"y": (y, "ib")})
                assert x.to_global().tobytes() == x_g.tobytes()
            loop.execute(x, "ia", lambda v: 2.0 * v, {"y": (y, "ib")})
            runs.append(x.to_global().tobytes())
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_degraded_lhs_folds_into_the_rebound_arrays(self, backend):
        """An ``lhs`` whose per-rank list had an element rebound is no
        longer one buffer: the fold reaches the arrays it now holds."""
        _, loop, x, y = self.tiny(backend, 1.0)
        y.local[1] = y.local[1].copy()
        loop.execute(y, "ia", lambda v: v, {"x": (x, "ib")})
        assert y.to_global().tolist() == [4.0, 1.0, 1.0, 5.0]

    def test_execute_calls_do_not_grow_with_ranks(self):
        """The same stream at 4 and at 64 ranks: one pass over the
        machine, no loop over ranks."""
        n, e = 2048, 8192
        calls = []
        for p in (4, 64):
            rng = np.random.default_rng(11)
            m = Machine(p)
            rt = ChaosRuntime(ExecutionContext.resolve(m, "vectorized"))
            m.hop_matrix()  # the machine's own one-time set-up
            tt = rt.irregular_table(rng.integers(0, p, n))
            x = rt.distribute(rng.standard_normal(n), tt)
            y = rt.distribute(rng.standard_normal(n), tt)
            loop = IrregularReduction(rt, tt, "L").bind(
                ia=split_by_block(rng.integers(0, n, e), m),
                ib=split_by_block(rng.integers(0, n, e), m))
            loop.setup()

            def run():
                loop.execute(x, "ia", lambda v: 0.5 * v, {"y": (y, "ib")})
            run()  # first call: the per-schedule caches fill
            calls.append(count_calls(run))
        assert calls[0] == calls[1]


class TestPerArrayReuse:
    """A full rebuild clears and re-hashes only the arrays that changed.

    Each test drives one hazard that must (or need not) force a re-hash
    of an array that did not change, then checks the loop against a cold
    ``IrregularReduction`` over the same final arrays: schedule streams,
    localized indices and one ``execute`` result bitwise equal, and the
    ``chaos_hash`` calls made.  New values permute each rank's slice
    (all of it, or the touched positions), so every rank references the
    same indices before and after and a cold build is comparable slot
    for slot."""

    N, E, P = 120, 480, 4

    @pytest.fixture
    def world(self, backend_name, monkeypatch):
        import repro.core.api as api

        rng = np.random.default_rng(2901)
        owner = rng.integers(0, self.P, self.N)
        m = Machine(self.P)
        rt = ChaosRuntime(ExecutionContext.resolve(m, backend_name))
        tt = rt.irregular_table(owner)
        arrays = {nm: split_by_block(rng.integers(0, self.N, self.E), m)
                  for nm in ("ia", "ib")}
        loop = IrregularReduction(rt, tt, "nb").bind(**arrays)
        loop.setup()
        hashed = []   # the stamp of every chaos_hash of rt after set-up
        real = api.chaos_hash

        def counted(*args, **kwargs):
            if args[0] is rt.ctx:
                hashed.append(args[4])
            return real(*args, **kwargs)

        monkeypatch.setattr(api, "chaos_hash", counted)
        return rng, owner, rt, tt, loop, arrays, hashed

    def check_cold(self, world):
        rng, owner, rt, tt, loop, arrays, _ = world
        cold_rt = ChaosRuntime(ExecutionContext.resolve(Machine(self.P),
                                                        rt.ctx.backend))
        cold_tt = cold_rt.irregular_table(owner)
        cold = IrregularReduction(cold_rt, cold_tt, "nb").bind(**arrays)
        cold.setup()
        assert (observe([loop.schedule, *map(loop.localized, arrays)])
                == observe([cold.schedule, *map(cold.localized, arrays)]))
        y_g = np.random.default_rng(7).standard_normal(self.N)
        out = []
        for r, t, lp in ((rt, tt, loop), (cold_rt, cold_tt, cold)):
            x = r.zeros_like_table(t)
            lp.execute(x, "ia", lambda v: v, {"y": (r.distribute(y_g, t),
                                                    "ib")})
            out.append(x.to_global())
        assert out[0].tobytes() == out[1].tobytes()

    @staticmethod
    def shuffled(rng, per_rank):
        return [rng.permutation(a) for a in per_rank]

    def test_rebind(self, world):
        rng, _, _, _, loop, arrays, hashed = world
        arrays["ia"] = self.shuffled(rng, arrays["ia"])
        loop.bind(ia=arrays["ia"])
        loop.setup()
        assert hashed == ["nb:ia"]
        self.check_cold(world)

    def test_rebind_of_two_arrays_is_one_clearing_scan(self, world,
                                                       monkeypatch):
        """Re-binding k > 1 arrays at once clears their stamps in one
        scan of the tables; a loop's first build is charged to
        ``"inspector"``, every later one to ``"schedule_regen"``."""
        import repro.core.api as api

        rng, _, rt, _, loop, arrays, hashed = world
        m = rt.machine
        scans = []
        real = api.clear_stamp

        def counted(ctx, group, *stamps, **kwargs):
            before = np.array([c.time for c in m.clocks])
            n_entries = group.n_entries.copy()
            out = real(ctx, group, *stamps, **kwargs)
            scans.append((stamps, kwargs["category"], n_entries,
                          np.array([c.time for c in m.clocks]) - before))
            return out

        monkeypatch.setattr(api, "clear_stamp", counted)
        inspector = m.mean_category_time("inspector")
        assert m.mean_category_time("schedule_regen") == 0
        for nm in arrays:
            arrays[nm] = self.shuffled(rng, arrays[nm])
        loop.bind(**arrays)
        loop.setup()
        assert hashed == ["nb:ia", "nb:ib"]
        [(stamps, category, n_entries, charged)] = scans
        assert (stamps, category) == (("nb:ia", "nb:ib"), "schedule_regen")
        assert charged == pytest.approx(
            [m.cost_model.memory_time(n) for n in n_entries])
        assert m.mean_category_time("inspector") == inspector
        assert m.mean_category_time("schedule_regen") > 0
        self.check_cold(world)

    @pytest.mark.parametrize("targeted", [False, True])
    def test_external_clear_stamp(self, world, targeted):
        """A targeted adapt cannot splice once ``ia``'s stamp lost its
        counts: it falls back to the full build, like an untargeted one."""
        rng, _, rt, tt, loop, arrays, hashed = world
        rt.clear_stamp(tt, "nb:ia")
        arrays["ib"] = self.shuffled(rng, arrays["ib"])
        touched = [np.arange(a.size) for a in arrays["ib"]]
        loop.adapt("ib", arrays["ib"], touched=touched if targeted else None)
        assert hashed == ["nb:ia", "nb:ib"]
        st = rt.cache_stats("nb")
        assert (st.builds, st.delta_rebuilds) == (2, 0)
        self.check_cold(world)

    def test_drop_hash_tables(self, world):
        rng, _, rt, tt, loop, arrays, hashed = world
        rt.drop_hash_tables(tt)
        arrays["ib"] = self.shuffled(rng, arrays["ib"])
        loop.adapt("ib", arrays["ib"])
        assert hashed == ["nb:ia", "nb:ib"]
        self.check_cold(world)

    def test_delta_fallback_after_partly_applied_chain(self, world,
                                                       monkeypatch):
        """The splice raises after ``rehash_delta`` moved ``ib``'s
        reference counts: ``ib`` stays marked and is re-hashed in full,
        ``ia`` is not."""
        import repro.core.api as api

        rng, _, rt, _, loop, arrays, hashed = world
        touched, nxt = [], []
        for a in arrays["ib"]:
            pos = rng.choice(a.size, size=a.size // 4, replace=False)
            b = a.copy()
            b[pos] = a[rng.permutation(pos)]
            touched.append(pos)
            nxt.append(b)
        arrays["ib"] = nxt

        def splice_fails(*args, **kwargs):
            raise RuntimeError("injected splice failure")

        monkeypatch.setattr(api, "delta_rebuild_schedule", splice_fails)
        loop.adapt("ib", nxt, touched=touched)
        st = rt.cache_stats("nb")
        assert (st.builds, st.delta_rebuilds) == (2, 0)
        assert hashed == ["nb:ib"]
        self.check_cold(world)

    def test_untargeted_adapt_of_each_array_in_turn(self, world):
        rng, _, _, _, loop, arrays, hashed = world
        for nm in ("ia", "ib"):
            arrays[nm] = self.shuffled(rng, arrays[nm])
            loop.adapt(nm, arrays[nm])
            assert hashed[-1:] == [f"nb:{nm}"]
            self.check_cold(world)
        assert hashed == ["nb:ia", "nb:ib"]


class TestPinnedSimulatedCost:
    """Virtual time, messages, bytes and the sha256 of the result of an
    ``IrregularReduction`` static sweep and of one targeted ``adapt``
    round, recorded while the executor kernel still ran over rank-range
    bounds and contexts still owned resources: those went without
    changing a charge, and later changes must not move one either.  The
    untargeted ``adapt`` round was recorded when a full rebuild stopped
    re-hashing the arrays that had not changed.  All three times were
    re-recorded when ``setup()`` stopped charging a clearing scan of the
    tables for a stamp that was never hashed (``ib``'s, on the fresh
    tables ``ia`` was just hashed into): each fell by exactly 4.0e-5 s
    (0.01571776, 0.01325693 and 0.01562338 s before), with the same
    messages, bytes and results.  All three results were re-recorded when
    the executor began folding into identity-initialised accumulators
    (the compiled loops' order) instead of into a copy of the target:
    ``083dc866…``, ``834a7f33…`` and ``6c42ac40…`` before, with the same
    messages, bytes and times."""

    N, E, P = 200, 800, 8

    def check(self, machine, x, n_messages, total_bytes, seconds, sha):
        assert machine.traffic.n_messages == n_messages
        assert machine.traffic.total_bytes == total_bytes
        assert machine.execution_time() == pytest.approx(seconds, rel=1e-12)
        assert hashlib.sha256(x.to_global().tobytes()).hexdigest() == sha

    def make(self, backend):
        rng = np.random.default_rng(2801)
        m = Machine(self.P)
        rt = ChaosRuntime(ExecutionContext.resolve(m, backend))
        tt = rt.irregular_table(rng.integers(0, self.P, self.N))
        x = rt.distribute(rng.standard_normal(self.N), tt)
        y = rt.distribute(rng.standard_normal(self.N), tt)
        ib = split_by_block(rng.integers(0, self.N, self.E), m)
        loop = IrregularReduction(rt, tt, "sweep").bind(
            ia=split_by_block(rng.integers(0, self.N, self.E), m), ib=ib)
        loop.setup()
        return rng, m, rt, loop, x, y, ib

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_static_sweep(self, backend):
        _, m, _, loop, x, y, _ = self.make(backend)
        for _ in range(3):
            loop.execute(x, "ia", lambda v: 0.5 * v, {"y": (y, "ib")})
        self.check(m, x, 472, 60424, 0.015677759999999995,
                   "2a515ae68fb17b747f52511f4236bfc4"
                   "53fbb3b9e9067722552093b25ceafc14")

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_adapt_touched_delta_round(self, backend):
        rng, m, rt, loop, x, y, ib = self.make(backend)
        loop.execute(x, "ia", lambda v: v, {"y": (y, "ib")})
        touched = [rng.choice(a.size, size=a.size // 10, replace=False)
                   for a in ib]
        nxt = [a.copy() for a in ib]
        for a, pos in zip(nxt, touched):
            a[pos] = rng.integers(0, self.N, pos.size)
        loop.adapt("ib", nxt, touched=touched)
        st = rt.cache_stats("sweep")
        assert (st.builds, st.delta_rebuilds) == (1, 1)
        loop.execute(x, "ia", lambda v: v, {"y": (y, "ib")})
        self.check(m, x, 398, 46744, 0.01321693,
                   "18b6e9467cacfae45c5a9eb06aa71ef4"
                   "c34dc73a5896cfb6e7ceb56b17e8c412")

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_adapt_untargeted_round(self, backend):
        """A payload-less adapt clears and re-hashes ``ib`` only.  While
        it re-hashed ``ia`` as well the same round took 0.01577793 s, with
        the same messages, bytes and result."""
        rng, m, rt, loop, x, y, ib = self.make(backend)
        loop.execute(x, "ia", lambda v: v, {"y": (y, "ib")})
        loop.adapt("ib", [rng.integers(0, self.N, a.size) for a in ib])
        st = rt.cache_stats("sweep")
        assert (st.builds, st.delta_rebuilds) == (2, 0)
        loop.execute(x, "ia", lambda v: v, {"y": (y, "ib")})
        self.check(m, x, 472, 54264, 0.015583379999999997,
                   "c21c12c71b15e8868f7a1477e76f513c"
                   "3f904bcbd85013922d0caab55be4c847")
