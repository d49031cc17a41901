"""Unit tests: chaos_hash, localize_only, stamp clearing, hash reuse."""

import numpy as np
import pytest

from repro.core import (
    ChaosRuntime,
    ExecutionContext,
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
from repro.sim import Machine

from conftest import count_calls


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
            offsets = tt.offset_local(part)
            n_local = tt.dist.local_size(p)
            owned = owners == p
            assert np.array_equal(loc[p][owned], offsets[owned])
            assert np.all(loc[p][~owned] >= n_local)

    def test_shared_registry_across_ranks(self, rng):
        m, rt, tt, hts = env(rng)
        chaos_hash(rt.ctx, hts, tt, [np.array([1])] + [None] * 3, "s")
        # stamp exists on every rank's registry even if it hashed nothing
        for ht in hts:
            assert "s" in ht.registry

    def test_rehash_unchanged_is_cheap(self, rng):
        """Second hash of the same indices does no translation traffic."""
        m, rt, tt, hts = env(rng)
        idx = split_by_block(rng.integers(0, 30, 60), m)
        chaos_hash(rt.ctx, hts, tt, idx, "a")
        m.reset_traffic()
        chaos_hash(rt.ctx, hts, tt, idx, "b")  # same indices, new stamp
        # replicated table: no traffic either way; but no new entries:
        assert all(ht.n_entries == len({int(g) for g in part})
                   for ht, part in zip(hts, idx))

    def test_none_indices_allowed(self, rng):
        m, rt, tt, hts = env(rng)
        loc = chaos_hash(rt.ctx, hts, tt, [None] * 4, "s")
        assert all(a.size == 0 for a in loc)

    def test_partial_overlap_inserts_only_new(self, rng):
        m, rt, tt, hts = env(rng)
        chaos_hash(rt.ctx, hts, tt, [np.array([0, 1, 2]), None, None, None], "a")
        before = hts[0].n_entries
        chaos_hash(rt.ctx, hts, tt, [np.array([1, 2, 3]), None, None, None], "b")
        assert hts[0].n_entries == before + 1


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
            either = hts[0].group.mask & hts[0].expr("a", "b").include
            t0 = np.array([c.time for c in m.clocks])
            if together:
                total = clear_stamp(rt.ctx, hts, "a", "b", "unknown")
                assert total == np.count_nonzero(either)
            else:
                clear_stamp(rt.ctx, hts, "a")
                clear_stamp(rt.ctx, hts, "b")
            masks.append(hts[0].group.mask.tolist())
            clocks.append(np.array([c.time for c in m.clocks]) - t0)
            scan = [m.cost_model.memory_time(ht.n_entries) for ht in hts]
        assert masks[0] == masks[1]
        assert clocks[0] == pytest.approx(scan)
        assert clocks[1] == pytest.approx(2 * np.array(scan))

    def test_clear_then_rehash_reuses_entries(self, rng):
        """The paper's non-bonded-list update pattern: clear + rehash a
        mostly-overlapping list touches no new table entries."""
        m, rt, tt, hts = env(rng)
        idx1 = rng.integers(0, 30, 50)
        chaos_hash(rt.ctx, hts, tt, split_by_block(idx1, m), "nb")
        entries_before = [ht.n_entries for ht in hts]
        clear_stamp(rt.ctx, hts, "nb")
        chaos_hash(rt.ctx, hts, tt, split_by_block(idx1, m), "nb")
        assert [ht.n_entries for ht in hts] == entries_before


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
        assert len(hts[0]) == 5
        assert hts[0].select(hts[0].expr("b"), False).size == 0
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
        compilation) out of the way."""
        calls = []
        for n_ranks in (4, 16, 128):
            world = self._world(n_ranks, storage)
            extra = prepare(*world) if prepare else ()
            calls.append(count_calls(lambda: run(*world, *extra)))
        assert calls[1] == calls[2]

    @staticmethod
    def _hashed(rng, ctx, tt, hts, idx):
        chaos_hash(ctx, hts, tt, idx, "s")
        return (build_schedule(ctx, hts, "s"),)

    def test_chaos_hash(self):
        self._same_at_16_and_128(
            lambda rng, ctx, tt, hts, idx: chaos_hash(ctx, hts, tt, idx, "s"))

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
