"""Unit tests: stamped index hash tables and stamp algebra.

``TestIndexHashTable`` drives one rank's table of a
:class:`HashTableGroup` through one-rank streams, once per key store —
the dict *reference* and the direct-address map — and the store must be
invisible to table behaviour.
"""

import numpy as np
import pytest

from repro.core import (
    DictKeyStore,
    DirectKeyStore,
    ExecutionContext,
    HashTableGroup,
    StampExpr,
    StampRegistry,
    localize_only,
)
from repro.sim import Machine


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


def _on(group, rank, n):
    """``sizes`` of a stream whose ``n`` elements all live on ``rank``."""
    sizes = np.zeros(group.n_ranks, dtype=np.int64)
    sizes[rank] = n
    return sizes


def _insert(group, rank, keys, owners, offsets):
    keys = np.asarray(keys)
    return group.insert(keys, _on(group, rank, keys.size), owners, offsets)


def _lookup(group, rank, keys):
    keys = np.asarray(keys)
    return group.store.lookup(keys, _on(group, rank, keys.size))


def _stamp(group, rank, rows, name, counts=None):
    """Stamp ``rows`` of one rank, each referenced ``counts`` times."""
    refs = np.repeat(rows, 1 if counts is None else counts)
    group.stamp_references(name, refs, _on(group, rank, refs.size))


def _selected(group, rank, expr, off_processor_only=True):
    """The rank's rows an expression selects, ascending."""
    n = group.n_entries[rank]
    sel = expr.matches(group.mask[rank, :n])
    if off_processor_only:
        sel &= group.proc[rank, :n] != rank
    return np.flatnonzero(sel).tolist()


def _table_state(group, rank):
    """Everything observable about one rank's table."""
    n = group.n_entries[rank]
    return (n, group.n_ghost[rank],
            *(getattr(group, c)[rank, :n].tolist()
              for c in group._COLUMNS),
            group.store.live().tolist())


class TestIndexHashTable:
    @pytest.fixture(autouse=True)
    def _bind_store(self, store_cls):
        self.store_cls = store_cls

    def make(self, n_local=10):
        n_ranks = 3
        return HashTableGroup([n_local] * n_ranks,
                              store=self.store_cls(n_ranks, KEYS))

    def test_insert_and_lookup(self):
        group = self.make()
        rows = _insert(group, 0, [5, 17, 3], [0, 1, 2], [5, 7, 3])
        assert rows.tolist() == [0, 1, 2]
        assert _lookup(group, 0, [17, 5]).tolist() == [1, 0]
        assert _lookup(group, 0, [99]).tolist() == [-1]
        assert group.n_entries.tolist() == [3, 0, 0]

    def test_ranks_do_not_see_each_other(self):
        group = self.make()
        _insert(group, 1, [4], [1], [0])
        assert _lookup(group, 1, [4]).tolist() == [0]
        assert _lookup(group, 0, [4]).tolist() == [-1]
        assert group.n_entries.tolist() == [0, 1, 0]
        assert _insert(group, 0, [4], [1], [0]).tolist() == [0]

    def test_ghost_slots_only_for_offproc(self):
        group = self.make()
        _insert(group, 1, [1, 2, 3], [1, 0, 1], [0, 0, 1])
        # element 1, 3 owned by rank1: no ghost slot; element 2 gets slot 0
        rows = _lookup(group, 1, [1, 2, 3])
        assert group.buf[1, rows].tolist() == [-1, 0, -1]
        assert group.n_ghost.tolist() == [0, 1, 0]

    def test_duplicate_insert_rejected(self):
        group = self.make()
        _insert(group, 0, [1], [0], [1])
        with pytest.raises(ValueError):
            _insert(group, 0, [1], [0], [1])

    @pytest.mark.parametrize("batch", [[9, 7], [9, 9], [11, 9, 7, 12]])
    def test_failed_insert_changes_nothing(self, batch):
        """A rejected batch (a key already present, or repeated within
        the batch) must leave table, stamps and key store exactly as
        they were: the retry of its valid part then behaves as if the
        failure never happened."""
        def prepared():
            group = self.make()
            rows = _insert(group, 1, [3, 5, 7], [0, 1, 2], [3, 5, 7])
            _stamp(group, 1, rows[:1], "gone")
            _stamp(group, 1, rows[1:], "kept")
            group.clear_stamp("gone")  # an unstamped row + ghost
            return group

        failed, clean = prepared(), prepared()
        owners = np.zeros(len(batch), dtype=np.int64)
        with pytest.raises(ValueError, match="duplicate insert"):
            _insert(failed, 1, batch, owners, owners)
        assert _table_state(failed, 1) == _table_state(clean, 1)
        for group in (failed, clean):
            _insert(group, 1, [9, 12], [0, 1], [9, 12])
        assert _table_state(failed, 1) == _table_state(clean, 1)
        localized = [group.localize(_lookup(group, 1, [9, 12, 7]),
                                    _on(group, 1, 3)).tolist()
                     for group in (failed, clean)]
        assert localized[0] == localized[1]

    def test_length_mismatch_rejected(self):
        group = self.make()
        with pytest.raises(ValueError):
            _insert(group, 0, [1, 2], [0], [1])

    def test_missing_uniques(self):
        group = self.make()
        _insert(group, 0, [4], [0], [4])
        uniq = np.unique([4, 5, 5, 6])
        assert uniq[_lookup(group, 0, uniq) < 0].tolist() == [5, 6]

    def test_localize_owned_and_ghost(self):
        group = self.make(n_local=10)
        _insert(group, 0, [2, 50], [0, 1], [2, 7])
        out = group.localize(_lookup(group, 0, [2, 50, 2]), _on(group, 0, 3))
        assert out.tolist() == [2, 10, 2]  # 50 -> n_local + slot0

    def test_localize_unhashed_rejected(self):
        group = self.make()
        ctx = ExecutionContext.resolve(Machine(3), "serial")
        with pytest.raises(KeyError, match="not hashed"):
            localize_only(ctx, group, [np.array([1]), None, None])

    def test_stamps_and_select(self):
        group = self.make()
        rows = _insert(group, 0, [20, 21, 22], [1, 1, 2], [0, 1, 0])
        _stamp(group, 0, rows[:2], "a")
        _stamp(group, 0, rows[1:], "b")
        e = group.expr
        assert _selected(group, 0, e("a")) == [0, 1]
        assert _selected(group, 0, e("b") - e("a")) == [2]
        assert _selected(group, 0, e("a", "b")) == [0, 1, 2]
        # the group's machine-wide selection is the same, owner-grouped
        counts, off, buf = group.requests(e("a", "b"))
        assert counts.tolist() == [[0, 2, 1], [0, 0, 0], [0, 0, 0]]
        assert (off.tolist(), buf.tolist()) == ([0, 1, 0], [0, 1, 2])

    def test_select_off_processor_only(self):
        group = self.make()
        rows = _insert(group, 1, [1, 2], [1, 0], [0, 0])
        _stamp(group, 1, rows, "x")
        assert _selected(group, 1, group.expr("x")) == [1]
        assert _selected(group, 1, group.expr("x"), False) == [0, 1]
        counts, _, buf = group.requests(group.expr("x"))
        assert (counts[1].tolist(), buf.tolist()) == ([1, 0, 0], [0])

    def test_clear_stamp_keeps_entries(self):
        group = self.make()
        _stamp(group, 0, _insert(group, 0, [9], [1], [0]), "nb")
        assert group.clear_stamp("nb") == 1
        assert _selected(group, 0, group.expr("nb")) == []
        assert group.n_entries[0] == 1  # entry retained for reuse
        assert group.n_ghost[0] == 1  # slot retained

    def test_clear_several_stamps_in_one_pass(self):
        group = self.make()
        rows = _insert(group, 0, [9, 4, 6], [1, 1, 2], [0, 1, 2])
        for row, name in zip(rows, ("a", "b", "kept")):
            _stamp(group, 0, [row], name)
        assert group.clear_stamp("a", "b") == 2
        assert group.mask[0, :3].tolist() == [
            0, 0, group.registry.mask_of("kept")]
        assert not group.counted("a") and not group.counted("b")
        assert group.counted("kept")
        assert group.n_entries[0] == 3 and group.n_ghost[0] == 3

    def test_growth_beyond_initial_capacity(self):
        group = self.make(n_local=0)
        n = 5000
        _insert(group, 0, np.arange(n), np.ones(n, dtype=np.int64),
                np.arange(n))
        assert group.n_entries.tolist() == [n, 0, 0]
        assert group.n_ghost[0] == n
        assert group.g[0, :n].tolist() == list(range(n))

    def test_growth_keeps_rows_and_fills_the_tail(self):
        """After a growth, and after a second one: the old rows of every
        column and refcount plane are intact, and the new tail reads as
        fresh rows (no ghost slot -1, everything else 0)."""
        group = HashTableGroup([0] * 3, store=self.store_cls(3, KEYS))
        rng = np.random.default_rng(5)

        def fill(lo, hi):
            keys = np.arange(lo, hi)
            for rank in range(3):
                rows = _insert(group, rank, keys,
                               rng.integers(0, 3, keys.size), keys)
                _stamp(group, rank, rows[::2], "a",
                       rng.integers(1, 4, rows[::2].size))
                _stamp(group, rank, rows[1::3], "b")

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
        assert group.n_entries[2] == 4000

    def test_bad_init(self):
        with pytest.raises(ValueError):
            HashTableGroup([], store=self.store_cls(0, KEYS))
        with pytest.raises(ValueError):
            HashTableGroup([3, -1], store=self.store_cls(2, KEYS))
        with pytest.raises(ValueError):
            HashTableGroup([[3, 1]], store=self.store_cls(2, KEYS))
