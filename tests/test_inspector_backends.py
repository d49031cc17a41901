"""Inspector-phase backend equivalence: serial vs vectorized engine.

The serial backend (dict key store, per-rank and per-pair Python loops)
defines the semantics; the vectorized inspector engine (one rank-major
stream through the group's direct-address key map, one stable sort per
schedule, count-matrix accounting) must be observationally identical on
randomized adaptive workloads, through the oracle (``tests/oracle.py``):
localized indices, ghost-slot assignment, hash-table entry state and
schedules for plain, merged (``a | b``) and incremental (``b - a``)
stamp expressions, through stamp clear/re-hash cycles, delta re-hashes
and splices, under every translation-table storage policy.  The key
stores, the stamp registry and the translation tables' edge cases are
checked here on their own.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DictKeyStore,
    DirectKeyStore,
    ExecutionContext,
    StampRegistry,
    TranslationTable,
    build_schedule,
    chaos_hash,
    clear_stamp,
    delta_rebuild_schedule,
    localize_only,
    make_hash_tables,
    rehash_delta,
    split_by_block,
)
from repro.sim import Machine

from conftest import ALL_BACKENDS as BACKENDS
from oracle import STORAGES, check, check_hash_tables, live_keys, observe


def _table_state(group):
    """Every rank's entries (g/proc/off/buf/mask) and ghost count."""
    return [[getattr(group, c)[p, :n] for c in ("g", "proc", "off", "buf",
                                                 "mask")]
            + [group.n_ghost[p]] for p, n in enumerate(group.n_entries)]


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_ranks=st.integers(1, 6),
    n=st.integers(1, 120),
    n_ref=st.integers(0, 300),
)
def test_inspector_pipeline_equivalence(seed, n_ranks, n, n_ref):
    """Hash two indirection arrays, adapt one, build plain / merged /
    incremental schedules, localize."""
    def workload(run):
        rng = np.random.default_rng(seed)
        ctx, m = run.ctx, run.machine
        tt = TranslationTable.from_map(m, rng.integers(0, n_ranks, n),
                                       storage=run.storage, page_size=16)
        hts = make_hash_tables(ctx, tt)
        idx_a = split_by_block(rng.integers(0, n, n_ref), m)
        idx_b = split_by_block(rng.integers(0, n, n_ref // 2), m)
        loc_a = chaos_hash(ctx, hts, tt, idx_a, "a")
        loc_b = chaos_hash(ctx, hts, tt, idx_b, "b")
        schedules = [build_schedule(ctx, hts, e) for e in (
            "a", hts.expr("a", "b"), hts.expr("b") - hts.expr("a"))]
        # adaptive step: array b changes, stamp cleared and re-hashed
        clear_stamp(ctx, hts, "b")
        idx_b2 = split_by_block(rng.integers(0, n, n_ref // 3), m)
        loc_b2 = chaos_hash(ctx, hts, tt, idx_b2, "b")
        schedules.append(build_schedule(ctx, hts, hts.expr("a", "b")))
        loc_again = localize_only(ctx, hts, idx_a)
        return (loc_a, loc_b, loc_b2, loc_again, _table_state(hts),
                schedules)

    check(workload, n_ranks, storage=True)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_ranks=st.integers(1, 5),
    n=st.integers(1, 100),
    rounds=st.integers(1, 3),
)
def test_stamp_clear_rehash_cycles_agree(seed, n_ranks, n, rounds):
    """The paper's stamp-reuse pattern: clear the non-bonded stamp each
    regeneration, re-hash the new list under it, rebuild merged and
    incremental schedules — identical across backends every round."""
    def workload(run):
        rng = np.random.default_rng(seed)
        ctx, m = run.ctx, run.machine
        tt = TranslationTable.from_map(m, rng.integers(0, n_ranks, n))
        hts = make_hash_tables(ctx, tt)
        chaos_hash(ctx, hts, tt, split_by_block(rng.integers(0, n, 2 * n),
                                                m), "bonds")
        per_round = []
        for _ in range(rounds):
            nb = split_by_block(rng.integers(0, n, 3 * n), m)
            per_round.append((
                chaos_hash(ctx, hts, tt, nb, "nb"),
                build_schedule(ctx, hts, hts.expr("bonds", "nb")),
                build_schedule(ctx, hts, hts.expr("nb") - hts.expr("bonds"))))
            clear_stamp(ctx, hts, "nb")
        return per_round

    check(workload, n_ranks)


# ---------------------------------------------------------------------
# the table group against P independent dict tables, step by step
# ---------------------------------------------------------------------
SHAPES = ("even", "empty_ranks", "one_huge")
STEPS = ("hash", "delta", "clear")


def _rank_sizes(rng, n_ranks, shape, per_rank):
    sizes = np.full(n_ranks, per_rank)
    if shape == "empty_ranks":
        sizes[rng.random(n_ranks) < 0.4] = 0
    if shape == "one_huge":  # forces common-capacity and row-arena growth
        sizes[rng.integers(n_ranks)] = 100 * max(per_rank, 12)
    return sizes


def _step(ctx, tt, hts, arrays, schedules, kind, stamp, fresh, touched):
    """Apply one step to the tables and the arrays hashed so far (stamp
    -> per-rank global indices); returns what it produced (localized
    indices, a spliced schedule)."""
    out = []
    if kind == "hash":
        if stamp in hts.registry:
            clear_stamp(ctx, hts, stamp)
        arrays[stamp] = [a.copy() for a in fresh]
        out.append(chaos_hash(ctx, hts, tt, fresh, stamp))
    elif kind == "delta" and stamp in arrays:
        cur = arrays[stamp]
        pos = [t[t < a.size] for t, a in zip(touched, cur)]
        # any function of the old values will do: seen and unseen
        new = [(a[t] * 3 + 1) % tt.dist.n_global for a, t in zip(cur, pos)]
        rehash = rehash_delta(ctx, hts, tt, stamp,
                              [a[t] for a, t in zip(cur, pos)], new)
        for a, t, v in zip(cur, pos, new):
            a[t] = v
        out.append(rehash.localized)
        spliced = delta_rebuild_schedule(ctx, hts, stamp, schedules[stamp],
                                         rehash)
        assert observe(spliced) == observe(build_schedule(ctx, hts, stamp))
        out.append(spliced)
    elif kind == "clear" and stamp in hts.registry:
        clear_stamp(ctx, hts, stamp)
        arrays.pop(stamp, None)
    live = sorted(arrays)
    schedules.clear()
    schedules.update((s, build_schedule(ctx, hts, s)) for s in live)
    if len(live) == 2:
        out.append(build_schedule(ctx, hts, hts.expr(*live)))
    return out


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_ranks=st.sampled_from([1, 3, 16, 64]),
    shape=st.sampled_from(SHAPES),
    per_rank=st.integers(0, 30),
    steps=st.lists(st.tuples(st.sampled_from(STEPS),
                             st.sampled_from(["a", "b"])),
                   min_size=2, max_size=7),
)
def test_group_tracks_independent_dict_tables(seed, n_ranks, shape,
                                              per_rank, steps):
    """Interleaved hashes, delta re-hashes and stamp clears: after every
    step the group behind the vectorized backend must equal P
    dict-backed tables driven rank by rank through serial -- rows, ghost
    slots, masks, refcounts, localized arrays, built and spliced
    schedules, clocks and traffic (one segment per step) -- and satisfy
    its own invariants (probe-back, ghost slots, refcounts)."""
    n = 40 * n_ranks

    def workload(run):
        rng = np.random.default_rng(seed)
        tt = TranslationTable.from_map(
            run.machine, np.random.default_rng(seed).integers(0, n_ranks, n))
        hts = make_hash_tables(run.ctx, tt)
        arrays, schedules, seen = {}, {}, []
        for kind, stamp in [("hash", "a")] + steps:
            sizes = _rank_sizes(rng, n_ranks, shape, per_rank)
            fresh = [rng.integers(0, n, k) for k in sizes]
            for a in fresh[:2]:
                a[:2] = [0, n - 1][:a.size]  # the extreme keys
            touched = [np.flatnonzero(rng.random(k) < 0.3) for k in sizes]
            out = _step(run.ctx, tt, hts, arrays, schedules, kind, stamp,
                        fresh, touched)
            assert check_hash_tables(hts) == []
            # a plane nobody counted into yet (every rank's slice was
            # empty) is the same as no plane
            refs = [(name, [plane[p, :k].tolist()
                            for p, k in enumerate(hts.n_entries)])
                    for name, plane in sorted(hts._refs.items())
                    if plane.any()]
            seen.append(observe((out, _table_state(hts), refs,
                                 [schedules[s] for s in sorted(schedules)])))
            run.mark()
        return seen

    check(workload, n_ranks)


def test_kernel_entries_do_not_depend_on_the_rank_count(monkeypatch):
    """The "no Python loop over ranks" guarantee, stated as a test: the
    same workload (same references, same table) enters the key store's
    lookup and insert equally often on 4 and on 64 ranks."""
    def kernel_entries(n_ranks):
        calls = {"lookup": 0, "insert": 0}
        for name in calls:
            kernel = getattr(DirectKeyStore, name)

            def counted(self, *args, _name=name, _kernel=kernel):
                calls[_name] += 1
                return _kernel(self, *args)
            monkeypatch.setattr(DirectKeyStore, name, counted)
        rng = np.random.default_rng(5)
        n, refs = 2560, 2816
        m = Machine(n_ranks)
        ctx = ExecutionContext.resolve(m, "vectorized")
        tt = TranslationTable.from_map(m, rng.integers(0, n_ranks, n))
        hts = make_hash_tables(ctx, tt)
        idx = np.array_split(rng.integers(0, n, refs), n_ranks)
        chaos_hash(ctx, hts, tt, idx, "s")
        base = build_schedule(ctx, hts, "s")
        localize_only(ctx, hts, idx)
        old = [a[:a.size // 20] for a in idx]
        rehash = rehash_delta(ctx, hts, tt, "s", old,
                              [(a + 7) % n for a in old])
        delta_rebuild_schedule(ctx, hts, "s", base, rehash)
        clear_stamp(ctx, hts, "s")
        monkeypatch.undo()
        return calls

    few, many = kernel_entries(4), kernel_entries(64)
    assert few == many
    assert few["lookup"] >= 4 and few["insert"] >= 2


# ---------------------------------------------------------------------
# key stores
# ---------------------------------------------------------------------
#: the global-index range of the key stores below
N_KEYS = 1 << 16
#: keys no store holds: below the range, at its end, and far above it
OUTSIDE = np.array([-(1 << 62), -2, -1, N_KEYS, N_KEYS + 1, 1 << 40,
                    (1 << 62) + 3])


def _random_stream(rng, n_ranks, batch, key_bits, distinct):
    """A rank-major stream with uneven (possibly empty) rank segments."""
    parts = [rng.integers(0, 1 << key_bits, rng.integers(0, batch + 1))
             for _ in range(n_ranks)]
    if distinct:
        parts = [np.unique(a) for a in parts]
    return (np.concatenate(parts),
            np.array([a.size for a in parts], dtype=np.int64))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    n_ranks=st.sampled_from([1, 3, 16]),
    n_batches=st.integers(1, 5),
    batch=st.integers(0, 200),
    key_bits=st.sampled_from([4, 10, 16]),
)
def test_key_stores_agree(seed, n_ranks, n_batches, batch, key_bits):
    """The direct map returns exactly what the dict reference does,
    across empty ranks, dense and sparse keys, and lookups of keys
    outside the stores' range mixed into every probe."""
    rng = np.random.default_rng(seed)
    ref = DictKeyStore(n_ranks, N_KEYS)
    fast = DirectKeyStore(n_ranks, N_KEYS)
    next_row, n_live = 0, np.zeros(n_ranks, dtype=np.int64)
    for _ in range(n_batches):
        keys, sizes = _random_stream(rng, n_ranks, batch, key_bits, True)
        found = ref.lookup(keys, sizes)
        assert np.array_equal(found, fast.lookup(keys, sizes))
        ranks = np.repeat(np.arange(n_ranks), sizes)[found < 0]
        new, n_new = keys[found < 0], np.bincount(ranks, minlength=n_ranks)
        rows = np.arange(next_row, next_row + new.size, dtype=np.int64)
        next_row += new.size
        ref.insert(new, n_new, rows)
        fast.insert(new, n_new, rows)
        n_live += n_new
        probe, n_probe = _random_stream(rng, n_ranks, batch, key_bits, False)
        # a few out-of-range keys into every rank's segment
        stray = rng.choice(OUTSIDE, (n_ranks, 2))
        probe = np.concatenate([np.concatenate([seg, s]) for seg, s in zip(
            np.split(probe, np.cumsum(n_probe)[:-1]), stray)])
        n_probe = n_probe + 2
        got = fast.lookup(probe, n_probe)
        assert np.array_equal(ref.lookup(probe, n_probe), got)
        assert np.all(got[np.isin(probe, OUTSIDE)] == -1)
    # every key inserted lies below 1 << key_bits; the dict store is
    # scanned only there, the direct map everywhere
    assert np.array_equal(live_keys(fast), n_live)
    assert np.array_equal(live_keys(ref, 1 << key_bits), n_live)


@pytest.mark.parametrize("store_cls", [DictKeyStore, DirectKeyStore])
@pytest.mark.parametrize("key", OUTSIDE.tolist())
def test_out_of_range_insert_rejected(store_cls, key):
    """Inserting a key outside ``[0, n_keys)`` is an error on both
    stores, and the valid keys of the batch do not land either."""
    s = store_cls(2, N_KEYS)
    with pytest.raises(ValueError, match="outside the key range"):
        s.insert(np.array([3, key, 5]), np.array([1, 2]), np.arange(3))
    assert live_keys(s).tolist() == [0, 0]
    assert s.lookup(np.array([3, 5]), np.array([1, 1])).tolist() == [-1, -1]


@pytest.mark.parametrize("store_cls", [DictKeyStore, DirectKeyStore])
def test_sizes_must_split_the_lookup_stream(store_cls):
    """Three keys split by one size over two ranks is no stream."""
    with pytest.raises(ValueError, match="sizes must split the stream"):
        store_cls(2, 10).lookup(np.array([1, 2, 3]), np.array([1]))


@pytest.mark.parametrize("store_cls", [DictKeyStore, DirectKeyStore])
def test_insert_needs_one_row_per_key(store_cls):
    s = store_cls(2, 10)
    with pytest.raises(ValueError, match="one row per key"):
        s.insert(np.array([1, 2, 3]), np.array([2, 1]), np.arange(2))
    assert live_keys(s).tolist() == [0, 0]


@pytest.mark.parametrize("store_cls", [DictKeyStore, DirectKeyStore])
def test_negative_row_rejected(store_cls):
    s = store_cls(2, 10)
    with pytest.raises(ValueError, match="negative row"):
        s.insert(np.array([1, 2]), np.array([1, 1]), np.array([0, -1]))
    assert live_keys(s).tolist() == [0, 0]
    assert s.lookup(np.array([1, 2]), np.array([1, 1])).tolist() == [-1, -1]


class TestRankKeyArena:
    """The direct-address key store's contract, on its own."""

    ONE = np.array([1])

    def test_growth_preserves_entries(self):
        s = DirectKeyStore(2, 10_000)
        keys = np.arange(0, 10_000, 7, dtype=np.int64)
        sizes = np.array([keys.size, 0])
        s.insert(keys, sizes, np.arange(keys.size, dtype=np.int64))
        assert np.array_equal(s.lookup(keys, sizes),
                              np.arange(keys.size, dtype=np.int64))
        assert s.lookup(np.array([1, 8, 15]), np.array([3, 0]))[0] == -1
        # the other rank's slice holds none of them
        assert np.all(s.lookup(keys, sizes[::-1]) == -1)

    def test_duplicate_insert_rejected(self):
        s = DirectKeyStore(1, 10)
        s.insert(np.array([5]), self.ONE, np.array([0]))
        with pytest.raises(ValueError, match="duplicate insert"):
            s.insert(np.array([5]), self.ONE, np.array([1]))

    def test_intra_batch_duplicate_rejected(self):
        s = DirectKeyStore(2, 10)
        with pytest.raises(ValueError, match="duplicate insert"):
            s.insert(np.array([3, 4, 3]), np.array([3, 0]), np.arange(3))
        assert live_keys(s).tolist() == [0, 0]
        # the same key on two ranks is two keys
        s.insert(np.array([3, 4, 3]), np.array([2, 1]), np.arange(3))
        assert live_keys(s).tolist() == [2, 1]

    def test_negative_keys_rejected(self):
        s = DirectKeyStore(1, 10)
        with pytest.raises(ValueError, match="outside the key range"):
            s.insert(np.array([-1]), self.ONE, np.array([0]))

    def test_negative_keys_lookup_absent(self):
        # rank 1's key 8 sits at entry 1 * 10 + 8 of the map, which is
        # where rank 2's key -2 would land: a lookup of an out-of-range
        # key must not alias into another rank's slice
        s = DirectKeyStore(3, 10)
        s.insert(np.array([5, 7, 9, 8]), np.array([3, 1, 0]),
                 np.array([0, 1, 2, 3]))
        assert s.lookup(np.array([-1, 5, -2, 9, 10, -2]),
                        np.array([5, 0, 1])).tolist() == [-1, 0, -1, 2, -1, -1]

    def test_empty_ops(self):
        s = DirectKeyStore(3, 10)
        empty = np.zeros(0, dtype=np.int64)
        none = np.zeros(3, dtype=np.int64)
        s.insert(empty, none, empty)
        assert s.lookup(empty, none).size == 0
        assert live_keys(s).tolist() == [0, 0, 0]

    def test_lookup_before_any_insert(self):
        s = DirectKeyStore(2, 100)
        assert s.lookup(np.array([0, 99]), np.array([1, 1])).tolist() == [-1, -1]

    def test_sizes_must_cover_the_stream(self):
        with pytest.raises(ValueError, match="sizes"):
            DirectKeyStore(2, 10).lookup(np.array([1, 2, 3]), np.array([1, 1]))

    def test_rows_must_fit_int32(self):
        # an entry holds row + 1
        s = DirectKeyStore(1, 10)
        for big in (1 << 31, (1 << 31) - 1):
            with pytest.raises(ValueError, match="int32"):
                s.insert(np.array([1, 2]), np.array([2]),
                         np.array([0, big]))
            assert live_keys(s).tolist() == [0]
        s.insert(np.array([3]), np.array([1]), np.array([(1 << 31) - 2]))
        assert s.lookup(np.array([3]), np.array([1])).tolist() == [(1 << 31) - 2]

    def test_empty_key_range(self):
        s = DirectKeyStore(2, 0)
        assert s.lookup(np.array([0, -1, 5]), np.array([2, 1])).tolist() \
            == [-1, -1, -1]
        with pytest.raises(ValueError, match="outside the key range"):
            s.insert(np.array([0]), np.array([1, 0]), np.array([0]))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("bad", [40, 10**12, -1])
def test_out_of_range_reference_reaches_the_bounds_check(backend, bad):
    """``chaos_hash`` looks raw references up before the translation
    table bounds-checks them: an index outside the table must stay a
    miss and raise there, not alias into a stored key."""
    m = Machine(4)
    ctx = ExecutionContext.resolve(m, backend)
    tt = TranslationTable.from_map(m, np.arange(40) % 4)
    hts = make_hash_tables(ctx, tt)
    chaos_hash(ctx, hts, tt, [np.arange(40) for _ in range(4)], "s")
    idx = [np.array([1, 2]), np.array([bad]), np.array([3]), None]
    with pytest.raises(IndexError, match="out of range"):
        chaos_hash(ctx, hts, tt, idx, "t")
    with pytest.raises(KeyError, match="not hashed"):
        localize_only(ctx, hts, idx)


@pytest.mark.parametrize("backend", BACKENDS)
def test_localize_only_of_an_unhashed_index_rejected(backend):
    m = Machine(2)
    ctx = ExecutionContext.resolve(m, backend)
    tt = TranslationTable.from_map(m, np.arange(10) % 2)
    hts = make_hash_tables(ctx, tt)
    chaos_hash(ctx, hts, tt, [np.array([1, 2]), np.array([3])], "s")
    with pytest.raises(KeyError, match="not hashed"):
        localize_only(ctx, hts, [np.array([1, 2]), np.array([4])])
    # a key hashed on one rank is not hashed on another
    with pytest.raises(KeyError, match="not hashed"):
        localize_only(ctx, hts, [np.array([3]), np.array([3])])


def test_make_hash_tables_uses_backend_key_store():
    m = Machine(3)
    tt = TranslationTable.from_map(m, np.array([0, 1, 2, 0, 1, 2]))
    serial = make_hash_tables(ExecutionContext.resolve(m, "serial"), tt)
    vec = make_hash_tables(ExecutionContext.resolve(m, "vectorized"), tt)
    assert serial.store.kind == "dict"
    assert vec.store.kind == "direct"
    # one group (one registry) holds every rank's table
    assert serial.n_ranks == vec.n_ranks == 3


def test_tables_of_two_groups_cannot_be_mixed():
    """Every primitive takes one group of the machine's rank count: a
    list of groups, or a group of another machine, is rejected."""
    m = Machine(2)
    tt = TranslationTable.from_map(m, np.array([0, 1, 0, 1]))
    ctx = ExecutionContext.resolve(m, "vectorized")
    a, b = make_hash_tables(ctx, tt), make_hash_tables(ctx, tt)
    with pytest.raises(ValueError, match="one HashTableGroup of 2 ranks"):
        chaos_hash(ctx, [a, b], tt, [np.array([1]), None], "s")
    other = make_hash_tables(
        ExecutionContext.resolve(Machine(3), "vectorized"),
        TranslationTable.from_map(Machine(3), np.array([0, 1, 2])))
    for call in (lambda: build_schedule(ctx, other, "s"),
                 lambda: localize_only(ctx, other, [None, None]),
                 lambda: clear_stamp(ctx, other, "s")):
        with pytest.raises(ValueError, match="one HashTableGroup of 2"):
            call()


# ---------------------------------------------------------------------
# stamp registry bit bookkeeping
# ---------------------------------------------------------------------
class TestStampRegistryBits:
    def test_lowest_free_bit_first(self):
        r = StampRegistry()
        assert r.acquire("a") == 1 << 0
        assert r.acquire("b") == 1 << 1
        assert r.acquire("c") == 1 << 2
        assert r.acquire("b") == 1 << 1  # a known stamp keeps its bit
        assert r.acquire("d") == 1 << 3

    def test_exhaustion_after_churn(self):
        r = StampRegistry()
        for i in range(StampRegistry.MAX_STAMPS):
            r.acquire(f"s{i}")
        for _ in range(200):  # re-acquiring a known stamp takes no bit
            assert r.acquire("s30") == 1 << 30
        with pytest.raises(RuntimeError):
            r.acquire("one-too-many")


# ---------------------------------------------------------------------
# translation-table edge cases
# ---------------------------------------------------------------------
class TestTranslationZeroSize:
    @pytest.mark.parametrize("storage", STORAGES)
    def test_empty_distribution_builds_free(self, storage):
        m = Machine(4, record_messages=True)
        tt = TranslationTable.from_map(m, np.zeros(0, dtype=np.int64),
                                       storage=storage)
        assert m.traffic.n_messages == 0
        assert m.traffic.total_bytes == 0
        assert tt.memory_per_rank(0) == 0

    @pytest.mark.parametrize("storage", STORAGES)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_queries_cost_no_messages(self, storage, backend):
        m = Machine(4, record_messages=True)
        tt = TranslationTable.from_map(m, np.arange(8) % 4, storage=storage)
        m.reset_traffic()
        owners, offsets = tt.dereference(ExecutionContext.resolve(m, backend),
                                        [None] * 4)
        assert m.traffic.n_messages == 0
        assert all(o.size == 0 for o in owners)
        assert all(o.size == 0 for o in offsets)
