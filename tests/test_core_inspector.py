"""Unit tests: chaos_hash, localize_only, stamp clearing, hash reuse."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.api as api
from repro.core import (
    BlockDistribution,
    ChaosRuntime,
    DictKeyStore,
    DirectKeyStore,
    ExecutionContext,
    HashTableGroup,
    IrregularReduction,
    RankArena,
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
from repro.core.compiled import offsets_from_counts
from repro.core.hashtable import stream_of
from repro.core.inspector import translate_missing
from repro.sim import Machine

from conftest import ALL_BACKENDS, count_calls


def env(rng, n=30, p=4):
    m = Machine(p)
    rt = ChaosRuntime(m)
    tt = rt.irregular_table(rng.integers(0, p, n))
    hts = make_hash_tables(rt.ctx, tt)
    return m, rt, tt, hts


class TestChaosHash:
    def test_localized_indices_resolve_correctly(self, rng):
        m, rt, tt, hts = env(rng)
        idx_g = rng.integers(0, 30, 80)
        loc = chaos_hash(rt.ctx, hts, tt, split_by_block(idx_g, m), "s")
        # owned references point at local offsets; ghost refs past n_local
        for p in m.ranks():
            part = split_by_block(idx_g, m)[p]
            owners = tt.owner_local(part)
            offsets = tt.dist.layout.offsets[part]
            n_local = tt.dist.local_size(p)
            owned = owners == p
            assert np.array_equal(loc[p][owned], offsets[owned])
            assert np.all(loc[p][~owned] >= n_local)

    def test_shared_registry_across_ranks(self, rng):
        m, rt, tt, hts = env(rng)
        chaos_hash(rt.ctx, hts, tt, [np.array([1])] + [None] * 3, "s")
        # one registry for every rank; the stamp is counted on the ranks
        # that hashed nothing too
        assert "s" in hts.registry and hts.counted("s")

    def test_rehash_unchanged_is_cheap(self, rng):
        """Second hash of the same indices does no translation traffic."""
        m, rt, tt, hts = env(rng)
        idx = split_by_block(rng.integers(0, 30, 60), m)
        chaos_hash(rt.ctx, hts, tt, idx, "a")
        m.reset_traffic()
        chaos_hash(rt.ctx, hts, tt, idx, "b")  # same indices, new stamp
        # replicated table: no traffic either way; but no new entries:
        assert hts.n_entries.tolist() == [len({int(g) for g in part})
                                          for part in idx]

    def test_none_indices_allowed(self, rng):
        m, rt, tt, hts = env(rng)
        loc = chaos_hash(rt.ctx, hts, tt, [None] * 4, "s")
        assert all(a.size == 0 for a in loc)

    def test_partial_overlap_inserts_only_new(self, rng):
        m, rt, tt, hts = env(rng)
        chaos_hash(rt.ctx, hts, tt, [np.array([0, 1, 2]), None, None, None], "a")
        before = hts.n_entries[0]
        chaos_hash(rt.ctx, hts, tt, [np.array([1, 2, 3]), None, None, None], "b")
        assert hts.n_entries[0] == before + 1


class TestLocalizeOnly:
    def test_matches_chaos_hash(self, rng):
        m, rt, tt, hts = env(rng)
        idx = split_by_block(rng.integers(0, 30, 40), m)
        loc1 = chaos_hash(rt.ctx, hts, tt, idx, "s")
        loc2 = localize_only(rt.ctx, hts, idx)
        for a, b in zip(loc1, loc2):
            assert np.array_equal(a, b)

    def test_unhashed_rejected(self, rng):
        m, rt, tt, hts = env(rng)
        with pytest.raises(KeyError):
            localize_only(rt.ctx, hts, [np.array([5])] + [None] * 3)


class TestClearStamp:
    def test_counts_cleared_entries(self, rng):
        m, rt, tt, hts = env(rng)
        idx = split_by_block(rng.integers(0, 30, 40), m)
        chaos_hash(rt.ctx, hts, tt, idx, "nb")
        total = clear_stamp(rt.ctx, hts, "nb")
        uniq = sum(len({int(g) for g in part}) for part in idx)
        assert total == uniq

    def test_several_stamps_in_one_scan(self, rng):
        """Clearing k stamps charges one scan of the tables, not k, and
        leaves the same masks as clearing them one by one; the count is
        of entries carrying any of them."""
        idx = {name: rng.integers(0, 30, 40) for name in ("a", "b", "c")}
        masks, clocks = [], []
        for together in (True, False):
            m, rt, tt, hts = env(np.random.default_rng(3))
            for name, g in idx.items():
                chaos_hash(rt.ctx, hts, tt, split_by_block(g, m), name)
            either = hts.mask & hts.expr("a", "b").include
            t0 = np.array([c.time for c in m.clocks])
            if together:
                total = clear_stamp(rt.ctx, hts, "a", "b", "unknown")
                assert total == np.count_nonzero(either)
            else:
                clear_stamp(rt.ctx, hts, "a")
                clear_stamp(rt.ctx, hts, "b")
            masks.append(hts.mask.tolist())
            clocks.append(np.array([c.time for c in m.clocks]) - t0)
            scan = [m.cost_model.memory_time(n) for n in hts.n_entries]
        assert masks[0] == masks[1]
        assert clocks[0] == pytest.approx(scan)
        assert clocks[1] == pytest.approx(2 * np.array(scan))

    def test_clear_then_rehash_reuses_entries(self, rng):
        """The paper's non-bonded-list update pattern: clear + rehash a
        mostly-overlapping list touches no new table entries."""
        m, rt, tt, hts = env(rng)
        idx1 = rng.integers(0, 30, 50)
        chaos_hash(rt.ctx, hts, tt, split_by_block(idx1, m), "nb")
        entries_before = hts.n_entries.tolist()
        clear_stamp(rt.ctx, hts, "nb")
        chaos_hash(rt.ctx, hts, tt, split_by_block(idx1, m), "nb")
        assert hts.n_entries.tolist() == entries_before


class TestChaosRuntimeFacade:
    def test_hash_tables_cached_per_ttable(self, rng):
        m = Machine(4)
        rt = ChaosRuntime(m)
        tt = rt.irregular_table(rng.integers(0, 4, 10))
        assert rt.hash_tables(tt) is rt.hash_tables(tt)
        rt.drop_hash_tables(tt)
        # dropped: next call makes new ones
        assert rt.hash_tables(tt) is not None

    def test_stamp_expr_union(self, rng):
        m = Machine(2)
        rt = ChaosRuntime(m)
        tt = rt.irregular_table([0, 0, 1, 1])
        rt.hash_indirection(tt, [np.array([2]), np.array([0])], "a")
        rt.hash_indirection(tt, [np.array([3]), np.array([1])], "b")
        expr = rt.stamp_expr(tt, "a", "b")
        sched = rt.build_schedule(tt, expr)
        # each stamp fetched one off-processor element on each of 2 ranks
        assert sched.total_elements() == 4

    def test_clear_keeps_entries_under_other_stamps(self, rng):
        m, rt, tt, hts = env(rng)
        shared = [np.array([0, 1, 2]), None, None, None]
        chaos_hash(rt.ctx, hts, tt, shared, "a")
        chaos_hash(rt.ctx, hts, tt, shared, "b")
        chaos_hash(rt.ctx, hts, tt, [np.array([3, 4]), None, None, None],
                   "b")
        clear_stamp(rt.ctx, hts, "b")
        # every entry stays; only "a" still selects
        assert hts.n_entries[0] == 5
        assert not hts.expr("b").matches(hts.mask[0, :5]).any()
        assert np.array_equal(
            localize_only(rt.ctx, hts, shared)[0],
            chaos_hash(rt.ctx, hts, tt, shared, "a")[0],
        )


class TestInspectorSeamShape:
    """The inspector seam is rank-major: with ``vectorized``, each call
    makes the same C-level calls at 16 and at 128 ranks on the same data
    volume (a loop over ranks would multiply them by the rank count),
    whether the indices arrive as per-rank lists or as an arena."""

    N = 4096  # elements, and references per indirection array

    def _world(self, n_ranks, storage="replicated"):
        rng = np.random.default_rng(29)
        ctx = ExecutionContext.resolve(Machine(n_ranks), "vectorized")
        ctx.machine.hop_matrix()  # the machine's own one-time set-up
        tt = TranslationTable.from_map(
            ctx.machine, rng.integers(0, n_ranks, self.N), storage=storage)
        idx = split_by_block(rng.integers(0, self.N, self.N), ctx.machine)
        return rng, ctx, tt, make_hash_tables(ctx, tt), idx

    def _same_at_16_and_128(self, run, storage="replicated",
                            prepare=None):
        """``run(rng, ctx, tt, hts, idx, *prepare(...))`` is counted; a
        first pass runs one-time lazy initialisation (imports, regex
        compilation) out of the way.  Returns the counts at 4, 16 and
        128 ranks."""
        calls = []
        for n_ranks in (4, 16, 128):
            world = self._world(n_ranks, storage)
            extra = prepare(*world) if prepare else ()
            calls.append(count_calls(lambda: run(*world, *extra)))
        assert calls[1] == calls[2]
        return calls

    @staticmethod
    def _hashed(rng, ctx, tt, hts, idx):
        chaos_hash(ctx, hts, tt, idx, "s")
        return (build_schedule(ctx, hts, "s"),)

    def test_chaos_hash(self):
        calls = self._same_at_16_and_128(
            lambda rng, ctx, tt, hts, idx: chaos_hash(ctx, hts, tt, idx, "s"))
        # a cold hash dedupes its misses with one sort, no argsort
        assert [c["argsort"] for c in calls] == [0, 0, 0]

    def test_chaos_hash_of_an_arena(self):
        self._same_at_16_and_128(
            lambda rng, ctx, tt, hts, idx, arena: chaos_hash(
                ctx, hts, tt, arena, "s"),
            prepare=lambda rng, ctx, tt, hts, idx: (RankArena.adopt(idx),))

    def test_localize_only(self):
        self._same_at_16_and_128(
            lambda rng, ctx, tt, hts, idx, base: localize_only(ctx, hts, idx),
            prepare=self._hashed)

    def test_rehash_delta_and_splice(self):
        def prepare(rng, ctx, tt, hts, idx):
            old = [a[:a.size // 8] for a in idx]
            new = [rng.integers(0, self.N, a.size) for a in old]
            return (*self._hashed(rng, ctx, tt, hts, idx), old, new)

        def run(rng, ctx, tt, hts, idx, base, old, new):
            rehash = rehash_delta(ctx, hts, tt, "s", old, new)
            return delta_rebuild_schedule(ctx, hts, "s", base, rehash)

        self._same_at_16_and_128(run, prepare=prepare)

    @pytest.mark.parametrize("storage", ["replicated", "distributed"])
    def test_dereference(self, storage):
        self._same_at_16_and_128(
            lambda rng, ctx, tt, hts, idx: tt.dereference(ctx, idx), storage)

    def test_irregular_reduction_adapt_touched(self):
        def prepare(rng, ctx, tt, hts, idx):
            rt = ChaosRuntime(ctx)
            loop = IrregularReduction(rt, tt, "L").bind(ia=idx, ib=idx)
            loop.setup()
            touched = [rng.choice(a.size, a.size // 8, replace=False)
                       for a in idx]
            new = [a.copy() for a in idx]
            for a, t in zip(new, touched):
                a[t] = rng.integers(0, self.N, t.size)
            return rt, loop, new, touched

        def run(rng, ctx, tt, hts, idx, rt, loop, new, touched):
            loop.adapt("ib", new, touched=touched)
            assert rt.cache_stats("L").delta_rebuilds == 1

        self._same_at_16_and_128(run, prepare=prepare)


def _translate_missing_unique(ctx, group, ttable, keys, sizes, miss,
                              category):
    """``translate_missing`` as it was before its one-sort dedupe,
    verbatim: the distinct keys and the missing references' rows from
    ``np.unique(..., return_inverse=True)``."""
    n, span = group.n_ranks, max(1, ttable.dist.n_global)
    new = ttable.dist.check_indices(keys[miss])
    # rank p's keys made distinct from every other rank's: p * span + key
    base = np.arange(n + 1) * span
    n_miss = np.diff(miss.searchsorted(offsets_from_counts(sizes)))
    new += np.repeat(base[:n], n_miss)
    new, inverse = np.unique(new, return_inverse=True)
    n_new = np.diff(new.searchsorted(base))
    new -= np.repeat(base[:n], n_new)
    owners, offsets = ttable.dereference(ctx, RankArena(new, n_new),
                                         category=category)
    rows = group.insert(new, n_new, owners.flat, offsets.flat)
    return rows[inverse], n_new


@st.composite
def _streams(draw):
    """A machine, an owner map and per-rank key streams: duplicates within
    and across ranks, empty ranks, and the keys 0 and ``n_global - 1``
    drawn often."""
    n_ranks = draw(st.integers(1, 5))
    n_global = draw(st.integers(1, 40))
    owner = draw(st.lists(st.integers(0, n_ranks - 1), min_size=n_global,
                          max_size=n_global))
    key = st.one_of(st.just(0), st.just(n_global - 1),
                    st.integers(0, n_global - 1))
    per_rank = st.lists(st.lists(key, max_size=12), min_size=n_ranks,
                        max_size=n_ranks)
    return n_ranks, owner, [draw(per_rank), draw(per_rank)]


class TestTranslateMissingReference:
    """The one-sort ``translate_missing`` against the ``np.unique``
    version it replaced, with both key stores: the same rows, new-entry
    counts, arenas, ghost slots and key-store contents after every hash,
    and the same error with an untouched table on a bad key."""

    @staticmethod
    def _world(store_cls, n_ranks, owner):
        ctx = ExecutionContext.resolve(Machine(n_ranks), "vectorized")
        tt = TranslationTable.from_map(ctx.machine, np.array(owner))
        group = HashTableGroup(
            [tt.dist.local_size(p) for p in range(n_ranks)],
            store=store_cls(n_ranks, tt.dist.n_global))
        return ctx, tt, group

    @staticmethod
    def _state(ctx, group):
        n, n_keys = group.n_ranks, group.store.n_keys
        every_key = np.tile(np.arange(n_keys), n)
        return (group.rows_cap, group.n_entries.tolist(),
                group.n_ghost.tolist(),
                *(getattr(group, c).tolist() for c in group._COLUMNS),
                group.store.lookup(every_key, np.full(n, n_keys)).tolist(),
                ctx.machine.traffic.n_messages,
                [c.time for c in ctx.machine.clocks])

    @staticmethod
    def _hash(impl, ctx, tt, group, per_rank):
        keys, sizes = stream_of([np.array(a, dtype=np.int64)
                                 for a in per_rank])
        rows = group.store.lookup(keys, sizes)
        miss = np.flatnonzero(rows < 0)
        got, n_new = impl(ctx, group, tt, keys, sizes, miss, "inspector")
        rows[miss] = got
        return got.tolist(), n_new.tolist(), rows.tolist()

    def _run(self, impl, store_cls, n_ranks, owner, streams):
        """Hash each stream, then the first again (all hits); the first
        hash into the empty table is all misses."""
        ctx, tt, group = self._world(store_cls, n_ranks, owner)
        return [(self._hash(impl, ctx, tt, group, s), self._state(ctx, group))
                for s in (*streams, streams[0])]

    @pytest.mark.parametrize("store_cls", [DictKeyStore, DirectKeyStore],
                             ids=["dict", "direct"])
    @settings(max_examples=60, deadline=None)
    @given(case=_streams())
    def test_same_tables_as_unique(self, store_cls, case):
        assert self._run(translate_missing, store_cls, *case) == \
            self._run(_translate_missing_unique, store_cls, *case)

    @pytest.mark.parametrize("store_cls", [DictKeyStore, DirectKeyStore],
                             ids=["dict", "direct"])
    @settings(max_examples=30, deadline=None)
    @given(case=_streams(), data=st.data())
    def test_out_of_range_key_same_error_table_untouched(self, store_cls,
                                                        case, data):
        n_ranks, owner, streams = case
        n_global = len(owner)
        bad = data.draw(st.one_of(st.integers(n_global, n_global + 5),
                                  st.integers(-5, -1)))
        rank = data.draw(st.integers(0, n_ranks - 1))
        second = [list(a) for a in streams[1]]
        at = data.draw(st.integers(0, len(second[rank])))
        second[rank].insert(at, bad)
        errors = []
        for impl in (translate_missing, _translate_missing_unique):
            ctx, tt, group = self._world(store_cls, n_ranks, owner)
            self._hash(impl, ctx, tt, group, streams[0])
            before = self._state(ctx, group)
            with pytest.raises(IndexError) as err:
                self._hash(impl, ctx, tt, group, second)
            assert self._state(ctx, group) == before
            errors.append(str(err.value))
        assert errors[0] == errors[1]


class _ComputedTable:
    """What ``translate_missing`` reads of a translation table, for a
    BLOCK distribution too large to hold a directory for: owners and
    offsets computed, no traffic charged."""

    def __init__(self, n_global, n_ranks):
        self.dist = BlockDistribution(n_global, n_ranks)

    def dereference(self, ctx, queries, category):
        keys = self.dist.check_indices(queries.flat)
        return (RankArena(self.dist.owner(keys), queries.sizes),
                RankArena(self.dist.local_index(keys), queries.sizes))


class TestTranslateMissingWidth:
    """The rank-offset keys ``p * n_global + key`` are sorted in int32
    while they fit, in int64 once they may not: with two ranks the
    largest key is below 2**31 at ``n_global = 2**30 - 1`` and above it
    at ``2**30 + 1``, and either way the result equals the ``np.unique``
    version's."""

    @pytest.mark.parametrize("n_global", [(1 << 30) - 1, (1 << 30) + 1])
    def test_either_side_of_the_int32_edge(self, n_global):
        top = n_global - 1
        per_rank = [np.array([top, 7, 0, top, 7]),
                    np.array([top, 0, top - 1, top])]
        keys, sizes = stream_of(per_rank)
        results = []
        for impl in (translate_missing, _translate_missing_unique):
            ctx = ExecutionContext.resolve(Machine(2), "vectorized")
            tt = _ComputedTable(n_global, 2)
            group = HashTableGroup([tt.dist.local_size(p) for p in (0, 1)],
                                   store=DictKeyStore(2, n_global))
            rows, n_new = impl(ctx, group, tt, keys, sizes,
                               np.arange(keys.size), "inspector")
            results.append((rows.tolist(), n_new.tolist(),
                            group.g[:, :3].tolist(),
                            group.buf[:, :3].tolist()))
        assert results[0] == results[1]
        assert results[0][2] == [[0, 7, top], [0, top - 1, top]]


class TestNonIntegerIndices:
    """A float or bool index array is a ``TypeError`` at every entry
    point, on every backend, and changes nothing; an empty array of any
    dtype is no indices."""

    BAD = {
        "float": [np.array([0.0, 2.9]), np.array([1.5])],
        "bool": [np.array([0, 2]), np.array([True])],
        "float-list": [None, [0.5]],
    }

    @pytest.fixture(params=ALL_BACKENDS)
    def rt(self, request):
        return ChaosRuntime(ExecutionContext.resolve(Machine(2),
                                                     request.param))

    @pytest.fixture(params=sorted(BAD))
    def bad(self, request):
        return self.BAD[request.param]

    @staticmethod
    def _entries(rt, tt):
        return rt.hash_tables(tt).n_entries.tolist()

    def test_hash_indirection(self, rt, bad):
        tt = rt.irregular_table([0, 1, 0, 1])
        with pytest.raises(TypeError, match="must be integers"):
            rt.hash_indirection(tt, bad, "a")
        assert self._entries(rt, tt) == [0, 0]

    def test_empty_of_any_dtype_is_no_indices(self, rt):
        tt = rt.irregular_table([0, 1, 0, 1])
        want = rt.hash_indirection(
            tt, [np.zeros(0, dtype=np.int64), np.array([2, 3])], "a")
        for empty in (np.zeros(0), np.zeros(0, dtype=bool), []):
            got = rt.hash_indirection(tt, [empty, np.array([2, 3])], "b")
            assert [a.tolist() for a in got] == [a.tolist() for a in want]

    def test_bind_and_adapt(self, rt, bad):
        tt = rt.irregular_table([0, 1, 0, 1])
        loop = IrregularReduction(rt, tt, "L")
        with pytest.raises(TypeError, match="must be integers"):
            loop.bind(ia=bad)
        good = [np.array([0, 2]), np.array([1, 3])]
        loop.bind(ia=good).setup()
        before = [a.tolist() for a in loop.localized("ia")]
        with pytest.raises(TypeError, match="must be integers"):
            loop.adapt("ia", bad)
        same_length = [np.array([0.0, 2.0]), np.array([1.0, 3.5])]
        with pytest.raises(TypeError, match="must be integers"):
            loop.adapt("ia", same_length,
                       touched=[np.array([0]), np.array([1])])
        loop.setup()
        assert [a.tolist() for a in loop.localized("ia")] == before
        assert rt.cache_stats("L").builds == 1

    def test_localize_only(self, rt, bad):
        tt = rt.irregular_table([0, 1, 0, 1])
        rt.hash_indirection(tt, [np.array([0, 2]), np.array([1, 3])], "a")
        with pytest.raises(TypeError, match="must be integers"):
            localize_only(rt.ctx, rt.hash_tables(tt), bad)


class TestColdSetupGrowth:
    """A cold ``setup()`` of two arrays widens the table arenas exactly as
    often as the growth policy always did: pinned ``rows_cap`` before and
    after each hash (serial inserts rank by rank, so it grows in other
    steps than the one machine-wide insert of vectorized)."""

    CAPS = {"serial": [(1024, 9522), (9522, 19044)],
            "vectorized": [(1024, 9567), (9567, 19134)]}

    def test_rows_cap_per_hash(self, backend_name, monkeypatch):
        rng = np.random.default_rng(38)
        m = Machine(4)
        rt = ChaosRuntime(ExecutionContext.resolve(m, backend_name))
        n = 12000
        tt = rt.irregular_table(rng.integers(0, 4, n))
        caps = []

        def hash_and_record(ctx, group, *args, **kwargs):
            before = group.rows_cap
            out = chaos_hash(ctx, group, *args, **kwargs)
            caps.append((before, group.rows_cap))
            return out

        monkeypatch.setattr(api, "chaos_hash", hash_and_record)
        IrregularReduction(rt, tt, "g").bind(
            ia=split_by_block(rng.integers(0, n, 4 * n), m),
            ib=split_by_block(rng.integers(0, n, 8 * n), m)).setup()
        assert caps == self.CAPS[backend_name]


def test_reference_counting_argument_positions():
    """The end-to-end tracer (``benchmarks/e2e/tracer.py``) counts the
    references an inspector call hashes by argument *position*: if one
    moved, it would count the characters of a stamp name instead."""
    for fn, at, name in ((chaos_hash, 3, "indices"),
                         (localize_only, 2, "indices"),
                         (rehash_delta, 5, "new_indices")):
        assert list(inspect.signature(fn).parameters)[at] == name, fn
