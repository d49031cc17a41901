"""Tests for the consistency validators (and, transitively, another sweep
over every builder's invariants).  Light-weight schedules and remap
plans have no validator: their constructor checks what one would, and
the tests of those checks stay here."""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    BlockDistribution,
    ChaosRuntime,
    IrregularDistribution,
    LightweightSchedule,
    RemapPlan,
    build_lightweight_schedule,
    remap,
    split_by_block,
)
from repro.core.verify import (
    check_distribution,
    check_hash_tables,
    check_schedule,
    check_schedule_against_hash_tables,
    check_translation_table,
)
from repro.sim import Machine

from csr_helpers import empty_schedule


class TestDistributionChecks:
    def test_valid_distributions_pass(self, rng):
        assert check_distribution(BlockDistribution(17, 4)) == []
        assert check_distribution(
            IrregularDistribution(rng.integers(0, 5, 40), 5)
        ) == []
        assert check_distribution(BlockDistribution(0, 3)) == []

    def damaged(self, rng, damage):
        """An irregular distribution whose layout ``order`` went through
        ``damage(order, lo)`` (``lo``: its largest rank's segment start),
        and that rank."""
        dist = IrregularDistribution(rng.integers(0, 4, 40), 4)
        layout = dist.layout
        p = int(np.argmax(layout.sizes))
        order = layout.order.copy()
        damage(order, int(layout.starts[p]))
        dist.layout = dataclasses.replace(layout, order=order)
        return dist, p

    def test_swapped_segment_entries_fail(self, rng):
        """Two entries of one rank's segment swapped: still that rank's
        elements and still a permutation, out of local-offset order."""
        def swap(order, lo):
            order[[lo, lo + 1]] = order[[lo + 1, lo]]
        dist, p = self.damaged(rng, swap)
        assert check_distribution(dist) == [
            f"rank {p}: global_indices out of offset order"]

    def test_duplicate_entry_fails(self, rng):
        def duplicate(order, lo):
            order[lo] = order[lo + 1]
        dist, _ = self.damaged(rng, duplicate)
        assert "layout order is not a permutation of the elements" in \
            check_distribution(dist)

    def test_translation_table_passes(self, ctx4, rng):
        rt = ChaosRuntime(ctx4)
        tt = rt.irregular_table(rng.integers(0, 4, 25))
        assert check_translation_table(tt) == []


class TestScheduleChecks:
    def make(self, rng, n=40, refs=100):
        m = Machine(4)
        rt = ChaosRuntime(m)
        tt = rt.irregular_table(rng.integers(0, 4, n))
        idx = split_by_block(rng.integers(0, n, refs), m)
        rt.hash_indirection(tt, idx, "s")
        sched = rt.build_schedule(tt, "s")
        return m, rt, tt, sched

    def test_built_schedule_passes(self, rng):
        m, rt, tt, sched = self.make(rng)
        assert check_schedule(sched, tt.dist) == []
        assert check_schedule_against_hash_tables(
            sched, rt.hash_tables(tt)
        ) == []

    def test_empty_schedule_passes(self):
        assert check_schedule(empty_schedule(3)) == []

    def test_corrupted_slot_detected(self, rng):
        m, rt, tt, sched = self.make(rng)
        # find a nonempty recv buffer and poke an out-of-range slot into it
        for p in range(4):
            if sched.recv_slots[p].size:
                sched.recv_slots[p][0] = sched.ghost_size[p] + 10
                problems = check_schedule(sched, tt.dist)
                assert any("out of range" in msg for msg in problems)
                return
        pytest.skip("no off-processor traffic in this draw")

    def test_repeated_slot_within_one_source_detected(self, rng):
        """A slot written twice inside one source's segment is caught;
        the check used to allow repeats within a source."""
        m, rt, tt, sched = self.make(rng, refs=400)
        recv_counts = np.diff(sched.recv_offsets, axis=1)
        p, q = np.argwhere(recv_counts >= 2)[0]
        seg = sched.recv_slots[p][sched.recv_offsets[p, q]:][:2]
        seg[1] = seg[0]
        problems = check_schedule(sched, tt.dist)
        assert any("repeated" in msg for msg in problems), problems

    def test_send_index_range_detected(self, rng):
        m, rt, tt, sched = self.make(rng)
        for p in range(4):
            if sched.send_indices[p].size:
                sched.send_indices[p][0] = tt.dist.local_size(p) + 99
                problems = check_schedule(sched, tt.dist)
                assert any("beyond local size" in msg for msg in problems)
                return
        pytest.skip("no off-processor traffic in this draw")


class TestHashTableChecks:
    def make(self, rng):
        m = Machine(4)
        rt = ChaosRuntime(m)
        tt = rt.irregular_table(rng.integers(0, 4, 40))
        rt.hash_indirection(tt, split_by_block(rng.integers(0, 40, 100), m),
                            "s")
        rt.hash_indirection(tt, split_by_block(rng.integers(0, 40, 60), m),
                            "t")
        rt.clear_stamp(tt, "t")  # leaves unstamped rows behind
        return rt.hash_tables(tt)

    def test_live_tables_pass(self, rng):
        assert check_hash_tables(self.make(rng)) == []

    @pytest.mark.parametrize("damage, symptom", [
        (lambda g, buf, mask, n: g.__setitem__(0, 39 - g[0]),
         "probe back"),
        (lambda g, buf, mask, n: buf.__setitem__(
            np.flatnonzero(buf[:n] >= 0)[:2], 0),
         "ghost slots"),
        (lambda g, buf, mask, n: mask.__setitem__(slice(0, n), 0),
         "refcounts and mask bits"),
    ])
    def test_damage_is_reported(self, rng, damage, symptom):
        """Damage rank 1's table (its rows of the group's arenas)."""
        group = self.make(rng)
        damage(group.g[1], group.buf[1], group.mask[1], group.n_entries[1])
        problems = check_hash_tables(group)
        assert any("rank 1" in p and symptom in p for p in problems), problems

    @staticmethod
    def _unorder_slots(group):
        ghost = np.flatnonzero(group.buf[1, :group.n_entries[1]] >= 0)
        group.buf[1, ghost[:2]] = group.buf[1, ghost[1::-1]]

    @pytest.mark.parametrize("damage, symptom", [
        (lambda t: t.g[1].__setitem__(0, t.store.n_keys),
         "global index outside"),
        (lambda t: t.g[1].__setitem__(0, -1), "global index outside"),
        (lambda t: t.proc[1].__setitem__(0, t.n_ranks), "owner outside"),
        (lambda t: t.off[1].__setitem__(0, t.n_local[t.proc[1, 0]]),
         "offset outside"),
        (lambda t: t.off[1].__setitem__(0, -1), "offset outside"),
        (lambda t: t.ref_plane("s")[1].__setitem__(0, -1),
         "negative refcount"),
        (_unorder_slots, "in row order"),
    ])
    def test_narrow_column_damage_is_reported(self, rng, damage, symptom):
        """The value ranges the narrow columns rely on, and the slot
        order the schedule splice relies on (two ghost slots swapped
        stay distinct ids below ``n_ghost``)."""
        group = self.make(rng)
        damage(group)
        problems = check_hash_tables(group)
        assert any("rank 1" in p and symptom in p for p in problems), problems


class TestLightweightChecks:
    """What a validator checked of a light-weight schedule — counts
    symmetric, every element selected once — is a constructor check."""

    def test_built_passes(self, ctx4, rng):
        dest = [rng.integers(0, 4, 12) for _ in range(4)]
        sched = build_lightweight_schedule(ctx4, dest)
        again = LightweightSchedule.from_slot_order(
            sched.counts, *sched.order[:2], sched.extent, sched.order.local)
        assert np.array_equal(again.send, sched.send)

    def test_count_mismatch_detected(self, ctx4, rng):
        dest = [rng.integers(0, 4, 12) for _ in range(4)]
        sched = build_lightweight_schedule(ctx4, dest)
        # one element dropped from the selection: its last entry now
        # repeats the first, the counts still promise all twelve
        rows = sched.order.rows.copy()
        rows[rows == 11] = 0
        with pytest.raises(ValueError, match="every local row once"):
            LightweightSchedule.from_slot_order(
                sched.counts, rows, sched.order.slots, sched.extent,
                sched.order.local)

    def test_double_send_detected(self, ctx4, rng):
        dest = [rng.integers(0, 4, 12) for _ in range(4)]
        sched = build_lightweight_schedule(ctx4, dest)
        # send element 0 of rank 0 to a second destination too
        pairs = [[sched.send_view(p, q).copy() for q in range(4)]
                 for p in range(4)]
        recv_counts = sched.recv_counts.copy()
        for q in range(4):
            if not np.any(pairs[0][q] == 0):
                pairs[0][q] = np.concatenate(
                    [pairs[0][q], np.array([0], dtype=np.int64)]
                )
                recv_counts[q][0] += 1
                break
        from csr_helpers import lightweight_from_pairs

        with pytest.raises(ValueError, match="every local row once"):
            lightweight_from_pairs(4, pairs, recv_counts)


class TestRemapChecks:
    """What a validator checked of a remap plan — every new row filled
    exactly once — is a constructor check."""

    def test_built_plan_passes(self, ctx4, rng):
        old = BlockDistribution(30, 4)
        new = IrregularDistribution(rng.integers(0, 4, 30), 4)
        plan = remap(ctx4, old, new)
        again = RemapPlan.from_slot_order(
            plan.counts, *plan.order[:2], plan.new_sizes, plan.order.local)
        assert np.array_equal(again.place, plan.place)

    def test_unfilled_slot_detected(self, ctx4, rng):
        old = BlockDistribution(30, 4)
        new = IrregularDistribution(rng.integers(0, 4, 30), 4)
        plan = remap(ctx4, old, new)
        # the last rank expects one more element than it is sent
        sizes = plan.new_sizes.copy()
        sizes[-1] += 1
        with pytest.raises(ValueError, match="fills every placed row"):
            RemapPlan.from_slot_order(plan.counts, *plan.order[:2], sizes,
                                      plan.order.local)
