"""Tests of the test oracle's own checks (``tests/oracle.py``): the
hash-table invariants hold on live tables and name each kind of
damage, and the fetch-set reference tells a schedule that fetches
something else."""

import numpy as np
import pytest

from repro.core import ChaosRuntime, split_by_block
from repro.sim import Machine

from csr_helpers import schedule_from_pairs
from oracle import assert_fetches, check_hash_tables, fetch_reference


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


class TestFetchReference:
    def make(self):
        """Four elements on two ranks (rank 0 owns 0 and 1); rank 0
        references 1, 2, 3 and 3 under ``a`` and 2 under ``b``, rank 1
        references 0 under ``a``."""
        rt = ChaosRuntime(Machine(2))
        tt = rt.irregular_table([0, 0, 1, 1])
        a = [np.array([1, 2, 3, 3]), np.array([0])]
        b = [np.array([2]), np.zeros(0, np.int64)]
        rt.hash_indirection(tt, a, "a")
        rt.hash_indirection(tt, b, "b")
        return rt, tt, a, b

    def test_reference_is_the_distinct_off_processor_refs(self):
        rt, tt, a, b = self.make()
        assert [r.tolist() for r in fetch_reference(tt.dist, [a])] == \
            [[2, 3], [0]]
        assert [r.tolist() for r in fetch_reference(tt.dist, [a], [b])] \
            == [[3], [0]]
        assert [r.tolist() for r in fetch_reference(tt.dist, [b], [a])] \
            == [[], []]

    def test_built_schedules_pass(self):
        rt, tt, a, b = self.make()
        assert_fetches(rt.build_schedule(tt, "a"), tt.dist, [a])
        assert_fetches(rt.build_schedule(tt, rt.stamp_expr(tt, "a", "b")),
                       tt.dist, [a, b])
        assert_fetches(rt.build_schedule(
            tt, rt.stamp_expr(tt, "a") - rt.stamp_expr(tt, "b")),
            tt.dist, [a], [b])

    def test_schedule_of_other_stamps_fails(self):
        rt, tt, a, b = self.make()
        with pytest.raises(AssertionError, match="rank 0 fetches"):
            assert_fetches(rt.build_schedule(tt, "b"), tt.dist, [a])

    def test_element_fetched_twice_fails(self):
        """A plan that fetches element 2 into two ghost slots of rank 0
        (it can be built: a schedule's rows may repeat)."""
        rt, tt, a, b = self.make()
        z = np.zeros(0, dtype=np.int64)
        twice = schedule_from_pairs(
            2, [[z, np.array([0])], [np.array([0, 0, 1]), z]],
            [[z, np.array([0, 1, 2])], [np.array([0]), z]], [3, 1], [2, 2])
        with pytest.raises(AssertionError, match="twice"):
            assert_fetches(twice, tt.dist, [a])
