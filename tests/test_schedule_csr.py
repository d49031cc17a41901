"""Property tests: the flat plan layout and its nested views.

A plan stores its slot order and derives flat int64 send / placement
streams from it; per-rank and per-pair views (``send_indices[p]``,
``send_view`` / ``recv_view``, plus the nested test helpers in
``csr_helpers.py``) are derived, zero-copy.  These tests pin down that
the two presentations agree exactly — round-trip through nested pair
lists, merged and incremental schedules, empty ranks and
``n_global == 0`` — under every backend.
"""

import numpy as np
import pytest
from csr_helpers import (
    empty_schedule,
    lightweight_from_pairs,
    place_pair_views,
    recv_pair_views,
    remap_from_pairs,
    schedule_from_pairs,
    send_pair_views,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ChaosRuntime,
    CommPlan,
    ExecutionContext,
    build_lightweight_schedule,
    build_schedule,
    chaos_hash,
    make_hash_tables,
    split_by_block,
)
from repro.core.distribution import BlockDistribution, IrregularDistribution
from repro.core.remap import remap
from repro.core.translation import TranslationTable
from repro.sim import Machine

from conftest import ALL_BACKENDS as BACKENDS
from conftest import count_calls
from oracle import check, observe


def _check_csr_invariants(plan: CommPlan) -> None:
    n = plan.n_ranks
    counts = plan.counts
    for p in range(n):
        assert plan.send_offsets[p][0] == 0
        assert plan.send_offsets[p][-1] == plan.send_rows[p].size
        assert np.all(np.diff(plan.send_offsets[p]) >= 0)
        assert plan.send_rows[p].dtype == np.int64
        assert plan.place_rows[p].dtype == np.int64
        for q in range(n):
            # symmetry: what p sends q is what q expects from p
            assert plan.send_view(p, q).size == plan.place_view(q, p).size
            assert counts[p, q] == plan.send_view(p, q).size


def _pipeline(backend, n_ranks=4, n=64, n_ref=96, seed=0):
    rng = np.random.default_rng(seed)
    m = Machine(n_ranks)
    ctx = ExecutionContext.resolve(m, backend)
    tt = TranslationTable.from_map(m, rng.integers(0, n_ranks, n))
    hts = make_hash_tables(ctx, tt)
    idx_a = split_by_block(rng.integers(0, n, n_ref), m)
    idx_b = split_by_block(rng.integers(0, n, n_ref // 2), m)
    chaos_hash(ctx, hts, tt, idx_a, "a")
    chaos_hash(ctx, hts, tt, idx_b, "b")
    return ctx, tt, hts


@pytest.mark.parametrize("backend", BACKENDS)
class TestScheduleCSR:
    def test_round_trip_through_pair_lists(self, backend):
        ctx, tt, hts = _pipeline(backend)
        sched = build_schedule(ctx, hts, "a")
        _check_csr_invariants(sched)
        rebuilt = schedule_from_pairs(
            sched.n_ranks, send_pair_views(sched), recv_pair_views(sched),
            list(sched.ghost_size), sched.order.local,
        )
        assert observe(sched) == observe(rebuilt)

    def test_views_are_zero_copy(self, backend):
        ctx, tt, hts = _pipeline(backend)
        sched = build_schedule(ctx, hts, "a")
        for p in range(sched.n_ranks):
            for q in range(sched.n_ranks):
                view = sched.send_view(p, q)
                if view.size:
                    assert view.base is not None
                    assert (view.base is sched.send_indices[p]
                            or view.base is sched.send_indices[p].base)

    def test_merged_schedule_csr(self, backend):
        ctx, tt, hts = _pipeline(backend)
        merged = build_schedule(ctx, hts, hts.expr("a", "b"))
        _check_csr_invariants(merged)
        sa = build_schedule(ctx, hts, "a")
        sb = build_schedule(ctx, hts, "b")
        # stamp-union semantics: per pair, merged fetch set == set union
        for p in range(ctx.n_ranks):
            for q in range(ctx.n_ranks):
                got = set(merged.send_view(p, q).tolist())
                want = (set(sa.send_view(p, q).tolist())
                        | set(sb.send_view(p, q).tolist()))
                assert got == want

    def test_incremental_schedule_csr(self, backend):
        ctx, tt, hts = _pipeline(backend)
        inc = build_schedule(ctx, hts, hts.expr("b") - hts.expr("a"))
        _check_csr_invariants(inc)
        sa = build_schedule(ctx, hts, "a")
        sb = build_schedule(ctx, hts, "b")
        for p in range(ctx.n_ranks):
            for q in range(ctx.n_ranks):
                got = set(inc.send_view(p, q).tolist())
                want = (set(sb.send_view(p, q).tolist())
                        - set(sa.send_view(p, q).tolist()))
                assert got == want

    def test_concatenation_merge_csr(self, backend):
        # a duplicate-keeping merge (each pair's segments concatenated)
        # names the slots both stamps share twice: no plan holds that
        # (the stamp union of test_merged_schedule_csr is the merge)
        ctx, tt, hts = _pipeline(backend)
        sa = build_schedule(ctx, hts, "a")
        sb = build_schedule(ctx, hts, "b")
        assert np.intersect1d(sa.order.slots, sb.order.slots).size
        pairs = [send_pair_views(s) for s in (sa, sb)]
        recvs = [recv_pair_views(s) for s in (sa, sb)]
        n = ctx.n_ranks
        with pytest.raises(ValueError, match="ascend strictly"):
            schedule_from_pairs(
                n,
                [[np.concatenate([x[p][q] for x in pairs]) for q in range(n)]
                 for p in range(n)],
                [[np.concatenate([x[p][q] for x in recvs]) for q in range(n)]
                 for p in range(n)],
                list(hts.n_ghost), sa.order.local)

    def test_empty_rank_edges(self, backend):
        # all references live on rank 0's slice; ranks 2..3 hash nothing
        m = Machine(4)
        ctx = ExecutionContext.resolve(m, backend)
        tt = TranslationTable.from_map(m, np.zeros(16, dtype=np.int64))
        hts = make_hash_tables(ctx, tt)
        z = np.zeros(0, dtype=np.int64)
        idx = [np.arange(8, dtype=np.int64), np.arange(16, dtype=np.int64),
               z, z]
        chaos_hash(ctx, hts, tt, idx, "s")
        sched = build_schedule(ctx, hts, "s")
        _check_csr_invariants(sched)
        for p in (2, 3):
            assert sched.send_indices[p].size == 0
            assert sched.recv_slots[p].size == 0
            assert np.array_equal(sched.send_offsets[p],
                                  np.zeros(5, dtype=np.int64))
        rebuilt = schedule_from_pairs(
            4, send_pair_views(sched), recv_pair_views(sched),
            list(sched.ghost_size), sched.order.local,
        )
        assert observe(sched) == observe(rebuilt)

    def test_n_global_zero(self, backend):
        m = Machine(4)
        ctx = ExecutionContext.resolve(m, backend)
        tt = TranslationTable.from_map(m, np.zeros(0, dtype=np.int64))
        hts = make_hash_tables(ctx, tt)
        z = np.zeros(0, dtype=np.int64)
        chaos_hash(ctx, hts, tt, [z, z, z, z], "s")
        sched = build_schedule(ctx, hts, "s")
        _check_csr_invariants(sched)
        assert sched.total_elements() == 0
        assert sched.total_messages() == 0
        assert observe(sched) == observe(empty_schedule(4))


class TestLightweightCSR:
    def test_round_trip(self, rng):
        m = Machine(4)
        dest = [rng.integers(0, 4, 20) for _ in range(4)]
        sched = build_lightweight_schedule(ExecutionContext.resolve(m), dest)
        rebuilt = lightweight_from_pairs(
            4, send_pair_views(sched), sched.recv_counts.copy()
        )
        for p in range(4):
            assert np.array_equal(sched.send_sel[p], rebuilt.send_sel[p])
            assert np.array_equal(sched.send_offsets[p],
                                  rebuilt.send_offsets[p])
        assert np.array_equal(sched.recv_counts, rebuilt.recv_counts)

    def test_every_element_selected_once(self, rng):
        m = Machine(4)
        dest = [rng.integers(0, 4, 20) for _ in range(4)]
        sched = build_lightweight_schedule(ExecutionContext.resolve(m), dest)
        for p in range(4):
            assert np.array_equal(np.sort(sched.send_sel[p]),
                                  np.arange(20, dtype=np.int64))
            # segment q holds exactly the elements destined for q
            for q in range(4):
                sel = sched.send_view(p, q)
                assert np.all(dest[p][sel] == q)


class TestRemapCSR:
    def test_round_trip(self, rng):
        m = Machine(4)
        n = 40
        old = BlockDistribution(n, 4)
        new = IrregularDistribution(rng.integers(0, 4, n), 4)
        plan = remap(ExecutionContext.resolve(m), old, new)
        rebuilt = remap_from_pairs(
            4, send_pair_views(plan), place_pair_views(plan),
            list(plan.new_sizes)
        )
        for p in range(4):
            assert np.array_equal(plan.send_sel[p], rebuilt.send_sel[p])
            assert np.array_equal(plan.place_sel[p], rebuilt.place_sel[p])
            assert np.array_equal(plan.send_offsets[p],
                                  rebuilt.send_offsets[p])
            assert np.array_equal(plan.place_offsets[p],
                                  rebuilt.place_offsets[p])

    def test_placements_cover_new_distribution(self, rng):
        m = Machine(4)
        n = 40
        old = BlockDistribution(n, 4)
        new = IrregularDistribution(rng.integers(0, 4, n), 4)
        plan = remap(ExecutionContext.resolve(m), old, new)
        for p in range(4):
            assert np.array_equal(np.sort(plan.place_sel[p]),
                                  np.arange(plan.new_sizes[p],
                                            dtype=np.int64))


@settings(max_examples=40, deadline=None)
@given(refs=st.lists(st.integers(0, 15), min_size=0, max_size=40))
def test_backends_agree_on_csr_buffers(refs):
    """Every registered builder emits byte-identical CSR buffers."""
    def workload(run):
        m = run.machine
        tt = TranslationTable.from_map(m, np.arange(16, dtype=np.int64) % 4)
        hts = make_hash_tables(run.ctx, tt)
        chaos_hash(run.ctx, hts, tt,
                   split_by_block(np.asarray(refs, dtype=np.int64), m), "s")
        return build_schedule(run.ctx, hts, "s")

    check(workload)


def test_runtime_build_schedule_is_csr(rng):
    """The ChaosRuntime facade hands out CSR-native schedules too."""
    m = Machine(2)
    rt = ChaosRuntime(m)
    tt = rt.irregular_table([0] * 5 + [1] * 5)
    rt.hash_indirection(tt, [np.array([7, 8]), np.array([1])], "s")
    sched = rt.build_schedule(tt, "s")
    _check_csr_invariants(sched)
    assert isinstance(sched.send_indices[0], np.ndarray)
    assert sched.send_indices[0].ndim == 1


class TestPlanBuildShape:
    """Plans are built over the machine-wide stream: the C-level calls a
    splice, a light-weight schedule or a remap plan makes are the same
    at 16 and at 128 ranks on the same data volume (a loop over ranks
    would multiply them by the rank count)."""

    N = 4096  # elements, and references per build, on every machine

    def _splice_calls(self, n_ranks, monkeypatch):
        import repro.core.schedule as schedule_mod
        from repro.core import delta_rebuild_schedule, rehash_delta

        rng = np.random.default_rng(7)
        ctx = ExecutionContext.resolve(Machine(n_ranks), "vectorized")
        tt = TranslationTable.from_map(ctx.machine,
                                       rng.integers(0, n_ranks, self.N))
        hts = make_hash_tables(ctx, tt)
        per = self.N // n_ranks
        idx = [rng.integers(0, self.N, per) for _ in range(n_ranks)]
        chaos_hash(ctx, hts, tt, idx, "s")
        base = build_schedule(ctx, hts, "s")
        old = [a[:per // 8] for a in idx]
        rehash = rehash_delta(ctx, hts, tt, "s", old,
                              [rng.integers(0, self.N, a.size) for a in old])
        real, seen = schedule_mod._splice, []

        def counted(*args, **kwargs):
            out = []
            seen.append(count_calls(lambda: out.append(real(*args, **kwargs))))
            return out[0]

        with monkeypatch.context() as patch:
            patch.setattr(schedule_mod, "_splice", counted)
            spliced = delta_rebuild_schedule(ctx, hts, "s", base, rehash)
        assert observe(spliced) == observe(build_schedule(ctx, hts, "s"))
        return seen[0]

    def test_splice_calls_do_not_grow_with_ranks(self, monkeypatch):
        assert (self._splice_calls(16, monkeypatch)
                == self._splice_calls(128, monkeypatch))

    def test_lightweight_build_calls_do_not_grow_with_ranks(self):
        calls = []
        for n_ranks in (16, 128):
            rng = np.random.default_rng(8)
            ctx = ExecutionContext.resolve(Machine(n_ranks), "vectorized")
            ctx.machine.hop_matrix()  # the machine's own one-time set-up
            dest = split_by_block(rng.integers(0, n_ranks, self.N),
                                  ctx.machine)
            calls.append(count_calls(
                lambda: build_lightweight_schedule(ctx, dest)))
        assert calls[0] == calls[1]

    def test_remap_calls_do_not_grow_with_ranks(self):
        calls = []
        for n_ranks in (16, 128):
            rng = np.random.default_rng(9)
            ctx = ExecutionContext.resolve(Machine(n_ranks), "vectorized")
            ctx.machine.hop_matrix()
            old = BlockDistribution(self.N, n_ranks)
            new = IrregularDistribution(rng.integers(0, n_ranks, self.N),
                                        n_ranks)
            calls.append(count_calls(lambda: remap(ctx, old, new)))
        assert calls[0] == calls[1]
