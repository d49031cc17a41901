"""Unit tests: translation tables (all three storage policies)."""

import numpy as np
import pytest

from repro.core import (
    BlockDistribution,
    ExecutionContext,
    IrregularDistribution,
    TranslationTable,
)
from repro.sim import Machine


@pytest.fixture
def maparr(rng):
    return rng.integers(0, 4, 64)


class TestConstruction:
    def test_from_map(self, machine4, maparr):
        tt = TranslationTable.from_map(machine4, maparr)
        assert tt.dist.n_global == 64
        assert np.array_equal(tt.owner_local(np.arange(64)), maparr)

    def test_bad_storage_rejected(self, machine4, maparr):
        with pytest.raises(ValueError):
            TranslationTable.from_map(machine4, maparr, storage="magic")

    def test_bad_page_size_rejected(self, machine4, maparr):
        with pytest.raises(ValueError):
            TranslationTable.from_map(machine4, maparr, page_size=0)
        with pytest.raises(ValueError, match="page_budget_bytes"):
            TranslationTable(machine4, BlockDistribution(64, 4),
                             page_budget_bytes=-1)

    def test_build_charges_communication(self, maparr):
        m = Machine(4)
        TranslationTable.from_map(m, maparr)
        assert m.execution_time() > 0

    def test_from_distribution(self, machine4):
        tt = TranslationTable(machine4, BlockDistribution(10, 4))
        assert tt.dist.layout.offsets[4] == 1


class TestDereference:
    @pytest.mark.parametrize("storage", ["replicated", "distributed", "paged"])
    def test_correct_owners_offsets(self, maparr, storage):
        m = Machine(4)
        tt = TranslationTable.from_map(m, maparr, storage=storage)
        queries = [np.array([0, 5, 63]), None, np.array([10]), np.zeros(0, np.int64)]
        owners, offsets = tt.dereference(ExecutionContext.resolve(m), queries)
        assert np.array_equal(owners[0], maparr[[0, 5, 63]])
        assert owners[1].size == 0
        dist = tt.dist
        assert np.array_equal(offsets[2], dist.local_index(np.array([10])))

    def test_replicated_lookup_is_local(self, maparr):
        m = Machine(4)
        tt = TranslationTable.from_map(m, maparr, storage="replicated")
        m.reset_traffic()
        tt.dereference(ExecutionContext.resolve(m), [np.arange(10)] * 4)
        assert m.traffic.n_messages == 0

    def test_distributed_lookup_communicates(self, maparr):
        m = Machine(4)
        tt = TranslationTable.from_map(m, maparr, storage="distributed")
        m.reset_traffic()
        tt.dereference(ExecutionContext.resolve(m), [np.arange(64)] * 4)
        assert m.traffic.n_messages > 0

    def test_paged_caches_pages(self, maparr):
        m = Machine(4)
        tt = TranslationTable.from_map(m, maparr, storage="paged", page_size=16)
        ctx = ExecutionContext.resolve(m)
        tt.dereference(ctx, [np.arange(64)] + [None] * 3)
        m.reset_traffic()
        # repeat lookups hit the cache: no new traffic
        tt.dereference(ctx, [np.arange(64)] + [None] * 3)
        assert m.traffic.n_messages == 0

    def test_out_of_range_query_rejected(self, machine4, maparr):
        tt = TranslationTable.from_map(machine4, maparr)
        with pytest.raises(IndexError):
            tt.dereference(ExecutionContext.resolve(machine4),
                           [np.array([64]), None, None, None])


class TestMemory:
    def test_replicated_holds_everything(self, machine4, maparr):
        tt = TranslationTable.from_map(machine4, maparr, storage="replicated")
        assert tt.memory_per_rank(0) == 64 * 12

    def test_distributed_holds_share(self, machine4, maparr):
        tt = TranslationTable.from_map(machine4, maparr, storage="distributed")
        assert tt.memory_per_rank(0) == 16 * 12

    def test_paged_grows_with_cache(self, maparr):
        m = Machine(4)
        tt = TranslationTable.from_map(m, maparr, storage="paged", page_size=16)
        before = tt.memory_per_rank(0)
        tt.dereference(ExecutionContext.resolve(m), [np.arange(64)] + [None] * 3)
        assert tt.memory_per_rank(0) > before


class TestPageBudget:
    """Byte-budgeted LRU eviction on the paged storage policy."""

    def _paged(self, maparr, budget_bytes, page_size=8):
        m = Machine(4)
        tt = TranslationTable(m, IrregularDistribution(maparr, 4),
                              storage="paged", page_size=page_size,
                              page_budget_bytes=budget_bytes)
        return m, ExecutionContext.resolve(m), tt

    def test_budget_bounds_resident_bytes(self, maparr):
        budget = 2 * 8 * 12  # two 8-entry pages per rank
        m, ctx, tt = self._paged(maparr, budget)
        rng = np.random.default_rng(3)
        for _ in range(6):
            refs = [rng.integers(0, 64, 20) for _ in range(4)]
            tt.dereference(ctx, refs)
            for p in range(4):
                assert tt.page_resident_bytes(p) <= budget
        assert tt.page_stats()["evictions"] > 0

    def test_evicted_page_recharges_traffic(self, maparr):
        # budget of one page: the second page's fetch evicts the first,
        # so re-touching the first must communicate again (pages from a
        # remote rank's table segment — local segments never message)
        m, ctx, tt = self._paged(maparr, 1 * 8 * 12)
        page0 = [np.arange(32, 40), None, None, None]
        page1 = [np.arange(40, 48), None, None, None]
        tt.dereference(ctx, page0)
        m.reset_traffic()
        tt.dereference(ctx, page0)  # resident: free
        assert m.traffic.n_messages == 0
        tt.dereference(ctx, page1)  # evicts page 0
        m.reset_traffic()
        tt.dereference(ctx, page0)  # miss again: re-charged
        assert m.traffic.n_messages > 0

    def test_lru_prefers_recent_pages(self, maparr):
        m, ctx, tt = self._paged(maparr, 2 * 8 * 12)
        one = lambda lo: [np.arange(lo, lo + 8), None, None, None]  # noqa: E731
        tt.dereference(ctx, one(0))   # page 0
        tt.dereference(ctx, one(8))   # page 1
        tt.dereference(ctx, one(0))   # page 0 most recent
        tt.dereference(ctx, one(16))  # page 2 evicts LRU = page 1
        assert tt._page_cache[0]._arr.tolist() == [0, 2]

    def test_no_budget_never_evicts(self, maparr):
        m = Machine(4)
        ctx = ExecutionContext.resolve(m)
        tt = TranslationTable.from_map(m, maparr, storage="paged",
                                       page_size=8)
        tt.dereference(ctx, [np.arange(64)] * 4)
        stats = tt.page_stats()
        assert stats["evictions"] == 0
        assert tt.page_resident_bytes(0) == 8 * 8 * 12  # all pages held

    def test_page_budget_conversion(self, maparr):
        _, _, tt = self._paged(maparr, 3 * 8 * 12 + 5)
        assert tt._page_cache[0].max_pages == 3  # floor to whole pages
        _, _, tt = self._paged(maparr, None)
        assert tt._page_cache[0].max_pages is None
