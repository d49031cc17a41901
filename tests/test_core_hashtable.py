"""Unit tests: stamped index hash tables and stamp algebra.

``TestIndexHashTable`` drives one rank's table of a
:class:`HashTableGroup` through one-rank streams, once per key store —
the dict *reference* and the direct-address map — and the store must be
invisible to table behaviour.  ``TestNarrowKeyMap`` and the tests after
it hold the tables' cell widths: a ``uint16`` key map widened once to
``int32``, ``int32`` entry columns and refcount planes, and ``int64``
for everything that leaves the tables.
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
    TranslationTable,
    build_schedule,
    chaos_hash,
    delta_rebuild_schedule,
    localize_only,
    make_hash_tables,
    rehash_delta,
)
from repro.sim import Machine

from conftest import ALL_BACKENDS as BACKENDS
from oracle import check, live_keys


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
            live_keys(group.store).tolist())


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
        # the group's machine-wide selection is the same, in slot
        # order: owner rows over the local sizes 10, 10, 10 and global
        # slots over the ghost sizes 3, 0, 0
        counts, rows, slots = group.by_slot(e("a", "b"))
        assert counts.tolist() == [[0, 2, 1], [0, 0, 0], [0, 0, 0]]
        assert (rows.tolist(), slots.tolist()) == ([10, 11, 20], [0, 1, 2])

    def test_select_off_processor_only(self):
        group = self.make()
        rows = _insert(group, 1, [1, 2], [1, 0], [0, 0])
        _stamp(group, 1, rows, "x")
        assert _selected(group, 1, group.expr("x")) == [1]
        assert _selected(group, 1, group.expr("x"), False) == [0, 1]
        counts, rows, slots = group.by_slot(group.expr("x"))
        assert (counts[1].tolist(), rows.tolist(), slots.tolist()) == (
            [1, 0, 0], [0], [0])

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


class TestNarrowKeyMap:
    """The direct map holds ``row + 1`` as ``uint16`` while every entry
    fits (rows up to 65 534), and is widened once to ``int32`` by the
    first insert of a larger row; nothing else about the store moves."""

    N_RANKS, N_KEYS = 2, 10
    SMALL = (np.array([1, 7, 2]), np.array([2, 1]), np.array([0, 5, 3]))
    PROBE = (np.array([1, 7, 3, 4, -1, 2]), np.array([5, 1]))

    def make(self):
        s = DirectKeyStore(self.N_RANKS, self.N_KEYS)
        s.insert(*self.SMALL)
        return s

    def map_bytes(self, itemsize):
        return itemsize * (self.N_RANKS * self.N_KEYS + 1)

    @pytest.mark.parametrize("row, itemsize", [
        (65_533, 2), (65_534, 2), (65_535, 4)])
    def test_promotion_boundary(self, row, itemsize):
        s = self.make()
        assert s._rows.nbytes == self.map_bytes(2)
        assert s.lookup(*self.PROBE).tolist() == [0, 5, -1, -1, -1, 3]
        s.insert(np.array([3]), np.array([1, 0]), np.array([row]))
        assert s._rows.nbytes == self.map_bytes(itemsize)
        assert s.lookup(*self.PROBE).tolist() == [0, 5, row, -1, -1, 3]
        assert live_keys(s).tolist() == [3, 1]
        # a widened map keeps taking rows, small and large
        s.insert(np.array([4, 9]), np.array([0, 2]),
                 np.array([row + 1, 6]))
        assert s.lookup(np.array([4, 9]), np.array([0, 2])).tolist() \
            == [row + 1, 6]

    @pytest.mark.parametrize("widened", [False, True])
    def test_rejected_inserts_change_nothing(self, widened):
        """The duplicate, negative-row and ``row + 1 >= 2**31`` errors
        are the same on either width, and a rejected insert neither
        lands nor widens the map."""
        s = self.make()
        if widened:
            s.insert(np.array([9]), np.array([1, 0]), np.array([70_000]))
        live, nbytes = live_keys(s).tolist(), s._rows.nbytes
        probe = s.lookup(*self.PROBE).tolist()
        for keys, sizes, rows, match in [
                ([5, 5], [2, 0], [70_000, 70_001], "duplicate insert"),
                ([1], [1, 0], [70_000], "duplicate insert"),
                ([4, 6], [0, 2], [70_000, -1], "negative row"),
                ([4], [1, 0], [(1 << 31) - 1], "int32")]:
            with pytest.raises(ValueError, match=match):
                s.insert(np.array(keys), np.array(sizes), np.array(rows))
            assert live_keys(s).tolist() == live
            assert s._rows.nbytes == nbytes
            assert s.lookup(*self.PROBE).tolist() == probe
        s.insert(np.array([4]), np.array([1, 0]), np.array([(1 << 31) - 2]))
        assert s._rows.nbytes == self.map_bytes(4)
        assert s.lookup(np.array([4]), np.array([1, 0])).tolist() \
            == [(1 << 31) - 2]


def _hashed(backend, owner_map, refs, n_ranks):
    """A machine and its tables after one ``chaos_hash`` of ``refs``."""
    m = Machine(n_ranks)
    ctx = ExecutionContext.resolve(m, backend)
    tt = TranslationTable.from_map(m, owner_map)
    group = make_hash_tables(ctx, tt)
    localized = chaos_hash(ctx, group, tt, [a.copy() for a in refs], "s")
    return m, ctx, tt, group, localized


def _buffers(sched):
    return sched.counts, sched.send, sched.place, sched.extent


@pytest.mark.parametrize("backend", BACKENDS)
def test_tables_are_narrow_and_what_leaves_them_is_int64(backend):
    """The tables' cells are int32 (the stamp mask int64); localized
    indices and every schedule buffer, cold or spliced, are int64."""
    rng = np.random.default_rng(11)
    n = 200
    refs = [rng.integers(0, n, 100) for _ in range(4)]
    _, ctx, tt, group, localized = _hashed(
        backend, rng.integers(0, 4, n), refs, 4)
    assert {c: getattr(group, c).dtype for c in group._COLUMNS} == {
        "g": np.int32, "proc": np.int32, "off": np.int32,
        "buf": np.int32, "mask": np.int64}
    assert group.ref_plane("s").dtype == np.int32
    base = build_schedule(ctx, group, "s")
    old = [a[:10] for a in refs]
    rehash = rehash_delta(ctx, group, tt, "s", old,
                          [rng.integers(0, n, 10) for _ in old])
    spliced = delta_rebuild_schedule(ctx, group, "s", base, rehash)
    for out in (localized.flat, localize_only(ctx, group, refs).flat,
                rehash.localized.flat):
        assert out.dtype == np.int64
    for sched in (base, spliced):
        for buf in _buffers(sched):
            assert buf.dtype == np.int64


def test_global_index_and_offset_columns_widen_past_int32():
    """``g`` (``off``) is int64 only when the key range (a local size)
    does not fit int32."""
    fits = HashTableGroup([1 << 31, 3], store=DictKeyStore(2, 1 << 31))
    wide = HashTableGroup([(1 << 31) + 1, 3],
                          store=DictKeyStore(2, (1 << 31) + 1))
    assert (fits.g.dtype, fits.off.dtype) == (np.int32, np.int32)
    assert (wide.g.dtype, wide.off.dtype) == (np.int64, np.int64)
    assert wide.proc.dtype == wide.buf.dtype == np.int32
    key = (1 << 31)  # the largest key of the wide range
    wide.insert(np.array([key]), np.array([0, 1]), np.array([0]),
                np.array([key]))
    assert (wide.g[1, 0], wide.off[1, 0]) == (key, key)


def test_serial_and_vectorized_agree_past_the_narrow_map():
    """A rank holding more rows than the uint16 map can number (65 536
    here) widens the vectorized store; the tables, localized indices,
    schedules, traffic and clocks still match the serial reference."""
    rng = np.random.default_rng(3)
    n = 70_000
    owner_map = rng.integers(0, 2, n)
    refs = [rng.permutation(n)[:65_536], rng.integers(0, n, 500)]
    old = [a[:300] for a in refs]
    new = [rng.integers(0, n, 300) for _ in old]

    def workload(run):
        ctx = run.ctx
        tt = TranslationTable.from_map(run.machine, owner_map)
        group = make_hash_tables(ctx, tt)
        localized = chaos_hash(ctx, group, tt, [a.copy() for a in refs], "s")
        base = build_schedule(ctx, group, "s")
        rehash = rehash_delta(ctx, group, tt, "s", old, new)
        spliced = delta_rebuild_schedule(ctx, group, "s", base, rehash)
        if run.backend == "vectorized":
            assert group.n_entries[0] > 65_536  # the touches added rows too
            assert group.store._rows.nbytes == 4 * (2 * n + 1)
        used = int(group.n_entries.max())
        return (localized, rehash.localized, base, spliced, group.n_entries,
                [getattr(group, c)[:, :used] for c in group._COLUMNS])

    check(workload, 2)


def test_nbytes_of_a_fixed_configuration():
    """The tables' resident bytes (entry columns, refcount planes and
    key map) for one deterministic set-up: four ranks each referencing
    all 4 000 keys (4 000 rows, growing the arenas once to 5 000 rows),
    one counted stamp, the vectorized store.  A widened column or map
    fails here."""
    n = 4000
    keys = np.arange(n)
    *_, group, _ = _hashed("vectorized", keys * 4 // n, [keys] * 4, 4)
    assert group.rows_cap == 5000
    cells = 4 * 5000
    nbytes = (sum(getattr(group, c).nbytes for c in group._COLUMNS)
              + sum(plane.nbytes for plane in group._refs.values())
              + group.store._rows.nbytes)
    assert nbytes == (4 * 4 * cells      # g, proc, off, buf: int32
                      + 8 * cells        # mask: int64
                      + 4 * cells        # the stamp's refcounts
                      + 2 * (4 * n + 1))  # the uint16 key map
    assert nbytes == 592_002
