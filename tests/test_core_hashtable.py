"""Unit tests: stamped index hash tables and stamp algebra.

``TestIndexHashTable`` runs once per key store — the dict *reference*
and the direct-address map behind every real table *group* — the
store must be invisible to table behaviour.
"""

import numpy as np
import pytest

from repro.core import (
    DictKeyStore,
    DirectKeyStore,
    HashTableGroup,
    IndexHashTable,
    StampExpr,
    StampRegistry,
)


class TestStampRegistry:
    def test_acquire_idempotent(self):
        r = StampRegistry()
        m1 = r.acquire("a")
        m2 = r.acquire("a")
        assert m1 == m2

    def test_distinct_bits(self):
        r = StampRegistry()
        assert r.acquire("a") != r.acquire("b")

    def test_mask_of_unknown_rejected(self):
        with pytest.raises(KeyError):
            StampRegistry().mask_of("nope")

    def test_exhaustion(self):
        r = StampRegistry()
        for i in range(StampRegistry.MAX_STAMPS):
            r.acquire(f"s{i}")
        with pytest.raises(RuntimeError):
            r.acquire("one-too-many")

    def test_names_sorted(self):
        r = StampRegistry()
        r.acquire("b")
        r.acquire("a")
        assert r.names() == ["a", "b"]


class TestStampExpr:
    def test_union(self):
        e = StampExpr(0b01) | StampExpr(0b10)
        assert e.include == 0b11

    def test_difference(self):
        e = StampExpr(0b10) - StampExpr(0b01)
        masks = np.array([0b01, 0b10, 0b11, 0b00])
        assert np.array_equal(e.matches(masks), [False, True, False, False])

    def test_matches_union(self):
        e = StampExpr(0b011)
        masks = np.array([0b001, 0b010, 0b100, 0b110])
        assert np.array_equal(e.matches(masks), [True, True, False, True])


#: the global-index range of the tables below
KEYS = 5000


@pytest.fixture(params=[DictKeyStore, DirectKeyStore],
                ids=["reference", "group"])
def store_cls(request):
    return request.param


def _table_state(ht):
    """Everything observable about one rank's table."""
    n = ht.n_entries
    group = ht.group
    return (n, ht.n_ghost, len(ht),
            *(getattr(group, c)[ht.rank, :n].tolist()
              for c in group._COLUMNS),
            group.store.live().tolist())


class TestIndexHashTable:
    @pytest.fixture(autouse=True)
    def _bind_store(self, store_cls):
        self.store_cls = store_cls

    def make(self, rank=0, n_local=10):
        n_ranks = 3
        group = HashTableGroup([n_local] * n_ranks,
                               store=self.store_cls(n_ranks, KEYS))
        return group.views()[rank]

    def test_insert_and_lookup(self):
        ht = self.make()
        slots = ht.insert_translated(
            np.array([5, 17, 3]), np.array([0, 1, 2]), np.array([5, 7, 3])
        )
        assert slots.tolist() == [0, 1, 2]
        assert np.array_equal(ht.lookup_slots(np.array([17, 5])), [1, 0])
        assert ht.lookup_slots(np.array([99]))[0] == -1
        assert len(ht) == 3
        assert 17 in ht and 99 not in ht

    def test_ranks_do_not_see_each_other(self):
        ht = self.make(rank=1)
        other = ht.group.views()[0]
        ht.insert_translated(np.array([4]), np.array([1]), np.array([0]))
        assert 4 in ht and 4 not in other
        assert (len(ht), len(other)) == (1, 0)
        assert other.insert_translated(
            np.array([4]), np.array([1]), np.array([0])).tolist() == [0]

    def test_ghost_slots_only_for_offproc(self):
        ht = self.make(rank=1)
        ht.insert_translated(
            np.array([1, 2, 3]), np.array([1, 0, 1]), np.array([0, 0, 1])
        )
        # element 1, 3 owned by rank1: no ghost slot; element 2 gets slot 0
        slots = ht.lookup_slots(np.array([1, 2, 3]))
        assert ht.buf[slots[0]] == -1
        assert ht.buf[slots[1]] == 0
        assert ht.n_ghost == 1

    def test_duplicate_insert_rejected(self):
        ht = self.make()
        ht.insert_translated(np.array([1]), np.array([0]), np.array([1]))
        with pytest.raises(ValueError):
            ht.insert_translated(np.array([1]), np.array([0]), np.array([1]))

    @pytest.mark.parametrize("batch", [[9, 7], [9, 9], [11, 9, 7, 12]])
    def test_failed_insert_changes_nothing(self, batch):
        """A rejected batch (a key already present, or repeated within
        the batch) must leave table, stamps and key store exactly as
        they were: the retry of its valid part then behaves as if the
        failure never happened."""
        def prepared():
            ht = self.make(rank=1)
            s = ht.insert_translated(np.array([3, 5, 7]), np.array([0, 1, 2]),
                                     np.array([3, 5, 7]))
            ht.stamp_slots(s[:1], "gone")
            ht.stamp_slots(s[1:], "kept")
            ht.group.clear_stamp("gone")  # an unstamped row + ghost
            return ht

        failed, clean = prepared(), prepared()
        owners = np.zeros(len(batch), dtype=np.int64)
        with pytest.raises(ValueError, match="duplicate insert"):
            failed.insert_translated(np.array(batch), owners, owners)
        assert _table_state(failed) == _table_state(clean)
        for ht in (failed, clean):
            ht.insert_translated(np.array([9, 12]), np.array([0, 1]),
                                 np.array([9, 12]))
        assert _table_state(failed) == _table_state(clean)
        assert failed.localize(np.array([9, 12, 7])).tolist() == \
            clean.localize(np.array([9, 12, 7])).tolist()

    def test_length_mismatch_rejected(self):
        ht = self.make()
        with pytest.raises(ValueError):
            ht.insert_translated(np.array([1, 2]), np.array([0]), np.array([1]))

    def test_missing_uniques(self):
        ht = self.make()
        ht.insert_translated(np.array([4]), np.array([0]), np.array([4]))
        missing = ht.missing_uniques(np.array([4, 5, 5, 6]))
        assert missing.tolist() == [5, 6]

    def test_localize_owned_and_ghost(self):
        ht = self.make(rank=0, n_local=10)
        ht.insert_translated(
            np.array([2, 50]), np.array([0, 1]), np.array([2, 7])
        )
        out = ht.localize(np.array([2, 50, 2]))
        assert out.tolist() == [2, 10, 2]  # 50 -> n_local + slot0

    def test_localize_unhashed_rejected(self):
        ht = self.make()
        with pytest.raises(KeyError):
            ht.localize(np.array([1]))

    def test_stamps_and_select(self):
        ht = self.make(rank=0)
        s = ht.insert_translated(
            np.array([20, 21, 22]), np.array([1, 1, 2]), np.array([0, 1, 0])
        )
        ht.stamp_slots(s[:2], "a")
        ht.stamp_slots(s[1:], "b")
        sel_a = ht.select(ht.expr("a"))
        sel_b_minus_a = ht.select(ht.expr("b") - ht.expr("a"))
        sel_union = ht.select(ht.expr("a", "b"))
        assert sel_a.tolist() == [0, 1]
        assert sel_b_minus_a.tolist() == [2]
        assert sel_union.tolist() == [0, 1, 2]
        # the group's machine-wide selection is the same, owner-grouped
        counts, off, buf = ht.group.requests(ht.expr("a", "b"))
        assert counts.tolist() == [[0, 2, 1], [0, 0, 0], [0, 0, 0]]
        assert (off.tolist(), buf.tolist()) == ([0, 1, 0], [0, 1, 2])

    def test_select_off_processor_only(self):
        ht = self.make(rank=1)
        s = ht.insert_translated(
            np.array([1, 2]), np.array([1, 0]), np.array([0, 0])
        )
        ht.stamp_slots(s, "x")
        assert ht.select(ht.expr("x"), off_processor_only=True).tolist() == [1]
        assert ht.select(ht.expr("x"), off_processor_only=False).tolist() == [0, 1]

    def test_clear_stamp_keeps_entries(self):
        ht = self.make()
        s = ht.insert_translated(np.array([9]), np.array([1]), np.array([0]))
        ht.stamp_slots(s, "nb")
        n = ht.group.clear_stamp("nb")
        assert n == 1
        assert ht.select(ht.expr("nb")).size == 0
        assert len(ht) == 1  # entry retained for reuse
        assert ht.ghost_capacity() == 1  # slot retained

    def test_clear_several_stamps_in_one_pass(self):
        ht = self.make()
        s = ht.insert_translated(np.array([9, 4, 6]), np.array([1, 1, 2]),
                                 np.array([0, 1, 2]))
        for slot, name in zip(s, ("a", "b", "kept")):
            ht.stamp_slots([slot], name, counts=np.array([1]))
        assert ht.group.clear_stamp("a", "b") == 2
        assert ht.mask[:3].tolist() == [0, 0, ht.registry.mask_of("kept")]
        assert not ht.group.counted("a") and not ht.group.counted("b")
        assert ht.group.counted("kept")
        assert len(ht) == 3 and ht.ghost_capacity() == 3

    def test_uncounted_stamp_drops_refcounts(self):
        ht = self.make()
        s = ht.insert_translated(np.array([9]), np.array([1]), np.array([0]))
        ht.stamp_slots(s, "nb", counts=np.array([3]))
        assert ht.group.ref_plane("nb")[ht.rank, s[0]] == 3
        ht.stamp_slots(s, "nb")
        assert not ht.group.counted("nb")

    def test_growth_beyond_initial_capacity(self):
        ht = self.make(n_local=0)
        n = 5000
        ht.insert_translated(
            np.arange(n), np.ones(n, dtype=np.int64), np.arange(n)
        )
        assert len(ht) == n
        assert ht.n_ghost == n
        assert ht.g[:n].tolist() == list(range(n))
        assert len(ht.group.views()[1]) == 0

    def test_growth_keeps_rows_and_fills_the_tail(self):
        """After a growth, and after a second one: the old rows of every
        column and refcount plane are intact, and the new tail reads as
        fresh rows (no ghost slot -1, everything else 0)."""
        group = HashTableGroup([0] * 3, store=self.store_cls(3, KEYS))
        rng = np.random.default_rng(5)

        def fill(lo, hi):
            keys = np.arange(lo, hi)
            for ht in group.views():
                slots = ht.insert_translated(keys, rng.integers(0, 3, keys.size),
                                             keys)
                ht.stamp_slots(slots[::2], "a",
                               counts=rng.integers(1, 4, slots[::2].size))
                ht.stamp_slots(slots[1::3], "b",
                               counts=np.ones(slots[1::3].size, dtype=int))

        def arenas():
            return {**{c: getattr(group, c) for c in group._COLUMNS},
                    **{k: group.ref_plane(k) for k in ("a", "b")}}

        fill(0, 700)
        for lo, hi in ((700, 1500), (1500, 4000)):
            old_cap = group.rows_cap
            before = {k: a.copy() for k, a in arenas().items()}
            group._grow_rows(hi)
            assert group.rows_cap >= hi > old_cap
            for name, arena in arenas().items():
                assert arena.shape == (3, group.rows_cap)
                assert np.array_equal(arena[:, :old_cap], before[name])
                assert (arena[:, old_cap:] == (-1 if name == "buf" else 0)
                        ).all()
            fill(lo, hi)
        assert len(group.views()[2]) == 4000

    def test_bad_init(self):
        with pytest.raises(ValueError):
            HashTableGroup([], store=self.store_cls(0, KEYS))
        with pytest.raises(ValueError):
            HashTableGroup([3, -1], store=self.store_cls(2, KEYS))
        with pytest.raises(ValueError):
            IndexHashTable(self.make().group, 7)
