"""Unit tests: modification records and the schedule cache (§5.3.1)."""

import numpy as np
import pytest

from repro.core import (
    CacheStats,
    DeltaFallback,
    ModificationRecord,
    ScheduleCache,
    value_nbytes,
)


class TestModificationRecord:
    def test_touch_bumps_version(self):
        r = ModificationRecord()
        assert r.version("jnb") == 0
        assert r.touch("jnb") == 1
        assert r.touch("jnb") == 2
        assert r.version("jnb") == 2

    def test_versions_of(self):
        r = ModificationRecord()
        r.touch("a")
        assert r.versions_of(("a", "b")) == {"a": 1, "b": 0}


class TestScheduleCache:
    def test_builds_once_then_hits(self):
        cache = ScheduleCache()
        calls = []

        def builder():
            calls.append(1)
            return "sched"

        v1, rebuilt1 = cache.get_or_build("L2", ("jnb",), builder)
        v2, rebuilt2 = cache.get_or_build("L2", ("jnb",), builder)
        assert v1 == v2 == "sched"
        assert rebuilt1 and not rebuilt2
        assert len(calls) == 1
        st = cache.stats("L2")
        assert (st.hits, st.builds) == (1, 1)

    def test_rebuild_on_dependency_touch(self):
        cache = ScheduleCache()
        counter = {"n": 0}

        def builder():
            counter["n"] += 1
            return counter["n"]

        cache.get_or_build("L", ("jnb", "ia"), builder)
        cache.record.touch("ia")
        v, rebuilt = cache.get_or_build("L", ("jnb", "ia"), builder)
        assert rebuilt and v == 2

    def test_unrelated_touch_does_not_rebuild(self):
        cache = ScheduleCache()
        cache.get_or_build("L", ("jnb",), lambda: "x")
        cache.record.touch("other")
        _, rebuilt = cache.get_or_build("L", ("jnb",), lambda: "y")
        assert not rebuilt

    def test_independent_loops(self):
        cache = ScheduleCache()
        cache.get_or_build("L1", ("a",), lambda: 1)
        cache.get_or_build("L2", ("b",), lambda: 2)
        cache.record.touch("a")
        _, r1 = cache.get_or_build("L1", ("a",), lambda: 10)
        _, r2 = cache.get_or_build("L2", ("b",), lambda: 20)
        assert r1 and not r2

    def test_shared_record(self):
        r = ModificationRecord()
        cache = ScheduleCache(r)
        cache.get_or_build("L", ("x",), lambda: 1)
        r.touch("x")
        _, rebuilt = cache.get_or_build("L", ("x",), lambda: 2)
        assert rebuilt

    def test_peek_does_not_count_hit(self):
        cache = ScheduleCache()
        cache.get_or_build("L", (), lambda: "v")
        assert cache.peek("L") == "v"
        assert cache.peek("missing") is None
        assert cache.stats("L").hits == 0


class TestCacheStats:
    def test_counters_are_attributes(self):
        st = CacheStats(hits=3, builds=2, delta_rebuilds=1)
        assert (st.hits, st.builds, st.delta_rebuilds) == (3, 2, 1)
        # a record, not a tuple: it neither unpacks nor equals one
        assert st != (3, 2)
        with pytest.raises(TypeError):
            tuple(st)

    def test_add_and_as_dict(self):
        a = CacheStats(hits=1, builds=2, delta_rebuilds=3, evictions=4,
                       resident_bytes=5)
        b = CacheStats(hits=10, builds=20, delta_rebuilds=30,
                       evictions=40, resident_bytes=50)
        assert (a + b).as_dict() == {
            "hits": 11, "builds": 22, "delta_rebuilds": 33,
            "evictions": 44, "resident_bytes": 55,
        }

    def test_resident_bytes_tracks_value(self):
        cache = ScheduleCache()
        arr = np.zeros(100, dtype=np.int64)
        cache.get_or_build("L", (), lambda: [arr])
        assert cache.stats("L").resident_bytes == arr.nbytes
        assert cache.total_stats().resident_bytes == arr.nbytes

    def test_total_stats_prefix(self):
        cache = ScheduleCache()
        cache.get_or_build("a:L1", (), lambda: 1)
        cache.get_or_build("a:L2", (), lambda: 2)
        cache.get_or_build("b:L1", (), lambda: 3)
        assert cache.total_stats(prefix="a:").builds == 2
        assert cache.total_stats().builds == 3


class TestValueNbytes:
    def test_ndarray_and_containers(self):
        a = np.zeros(10, dtype=np.float64)
        assert value_nbytes(a) == 80
        assert value_nbytes([a, a]) == 160
        assert value_nbytes({"x": a, "y": (a,)}) == 160
        assert value_nbytes(None) == 0
        assert value_nbytes(42) == 0

    def test_cached_plans_count_their_buffers(self, ctx4, rng):
        """Every plan kind is resident with its stored order, count
        matrix and extents — not only the kinds a duck-typed attribute
        list happens to name."""
        from repro.core import (
            BlockDistribution,
            IrregularDistribution,
            build_lightweight_schedule,
            remap,
        )

        plan = remap(ctx4, BlockDistribution(40, 4),
                     IrregularDistribution(rng.integers(0, 4, 40), 4))
        lw = build_lightweight_schedule(
            ctx4, [rng.integers(0, 4, 9) for _ in range(4)])
        cache = ScheduleCache()
        cache.get_or_build("remap", (), lambda: plan)
        cache.get_or_build("lw", (), lambda: lw)
        # 40 int32 rows and slots, a 4 x 4 count matrix, 4 extents
        assert cache.stats("remap").resident_bytes == (
            4 * (40 + 40) + 8 * (16 + 4))
        for key, p in (("remap", plan), ("lw", lw)):
            assert cache.stats(key).resident_bytes == (
                p.order.rows.nbytes + p.order.slots.nbytes
                + p.counts.nbytes + p.extent.nbytes)


class TestDeltaChains:
    """``repair=(dep, fn)`` updates a value exactly one touch of ``dep``
    behind; anything else runs the full builder."""

    @staticmethod
    def _cache(deps=("ia",)):
        cache, calls = ScheduleCache(), []

        def build():
            calls.append("full")
            return f"v{len(calls)}"

        def repair(old):
            calls.append(("repair", old))
            return old + "+"

        cache.get_or_build("L", deps, build)
        return cache, calls, build, repair

    def test_delta_rebuild_path(self):
        cache, calls, build, repair = self._cache()
        cache.record.touch("ia")
        v, rebuilt = cache.get_or_build("L", ("ia",), build,
                                        repair=("ia", repair))
        assert rebuilt and v == "v1+"
        assert calls == ["full", ("repair", "v1")]
        st = cache.stats("L")
        assert (st.builds, st.delta_rebuilds, st.hits) == (1, 1, 0)
        # the repaired entry is current: next lookup is a plain hit
        v, rebuilt = cache.get_or_build("L", ("ia",), build,
                                        repair=("ia", repair))
        assert (v, rebuilt) == ("v1+", False)

    def test_payloadless_touch_forces_full_build(self):
        cache, calls, build, _ = self._cache()
        cache.record.touch("ia")
        v, _ = cache.get_or_build("L", ("ia",), build)
        assert v == "v2" and calls == ["full", "full"]

    def test_delta_fallback_runs_full_build(self):
        cache, _, build, _ = self._cache()

        def repair(old):
            raise DeltaFallback("substrate purged")

        cache.record.touch("ia")
        v, rebuilt = cache.get_or_build("L", ("ia",), build,
                                        repair=("ia", repair))
        assert rebuilt and v == "v2"
        st = cache.stats("L")
        assert (st.builds, st.delta_rebuilds) == (2, 0)

    def test_repair_ignored_two_touches_behind(self):
        cache, calls, build, repair = self._cache()
        cache.record.touch("ia")
        cache.record.touch("ia")
        v, _ = cache.get_or_build("L", ("ia",), build, repair=("ia", repair))
        assert v == "v2" and calls == ["full", "full"]

    def test_repair_ignored_when_another_dep_moved(self):
        cache, calls, build, repair = self._cache(("ia", "ib"))
        cache.record.touch("ia")
        cache.record.touch("ib")
        v, _ = cache.get_or_build("L", ("ia", "ib"), build,
                                  repair=("ia", repair))
        assert v == "v2" and calls == ["full", "full"]
