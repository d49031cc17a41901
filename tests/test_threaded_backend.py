"""Threaded backend: three-way equivalence + thread-pool lifecycle.

Every backend must be observationally identical to the serial
reference — bitwise-equal localized indices, schedules, executor
results, and exact traffic on the CHARMM and DSMC end-to-end
pipelines; the sweep covers all of ``ALL_BACKENDS``.  The lifecycle
half covers the threaded backend's per-context worker pool: created
once per context, shut down on ``close()``, never leaked across
contexts, and fed rank ranges that partition the machine.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.charmm import ParallelMD, build_small_system
from repro.apps.dsmc import CartesianGrid, DSMCConfig, ParallelDSMC
from repro.core import (
    BackendResources,
    ChaosRuntime,
    ExecutionContext,
    build_lightweight_schedule,
    build_schedule,
    chaos_hash,
    gather,
    make_hash_tables,
    scatter_append,
    scatter_op,
    split_by_block,
)
from repro.core.backends.threaded import ThreadedResources, chunk_ranks
from repro.core.translation import TranslationTable
from repro.lang.program import ProgramInstance, compile_program
from repro.sim import Machine

from conftest import ALL_BACKENDS as BACKENDS


def _rank_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate()
            if t.name.startswith("repro-rank")]


# ---------------------------------------------------------------------
# three-way pipeline equivalence
# ---------------------------------------------------------------------
class TestThreeWayPipelines:
    def _charmm(self, backend):
        system = build_small_system(120, seed=3)
        m = Machine(4, record_messages=True)
        md = ParallelMD(system, ExecutionContext.resolve(m, backend),
                        dt=0.002, update_every=3)
        md.run(6)
        return md, m

    def test_charmm_pipeline_bitwise(self):
        runs = {b: self._charmm(b) for b in BACKENDS}
        md_ref, m_ref = runs["serial"]
        for other in BACKENDS[1:]:
            md, m = runs[other]
            assert np.array_equal(md_ref.global_positions(),
                                  md.global_positions())
            assert np.array_equal(md_ref.global_velocities(),
                                  md.global_velocities())
            # the inspector's localized indices agree rank by rank
            for p in range(4):
                assert np.array_equal(md_ref.nb_i_loc[p], md.nb_i_loc[p])
                assert np.array_equal(md_ref.nb_j_loc[p], md.nb_j_loc[p])
                assert np.array_equal(md_ref.ib_loc[p], md.ib_loc[p])
                assert np.array_equal(md_ref.sched.send_indices[p],
                                      md.sched.send_indices[p])
                assert np.array_equal(md_ref.sched.recv_slots[p],
                                      md.sched.recv_slots[p])
            assert m_ref.traffic.snapshot() == m.traffic.snapshot()
            assert m_ref.traffic.messages == m.traffic.messages
            md.close()

    def test_dsmc_pipeline_bitwise(self):
        def run(backend):
            grid = CartesianGrid((8, 8))
            cfg = DSMCConfig(n_initial=400, inflow_rate=20, dt=0.4)
            m = Machine(4, record_messages=True)
            par = ParallelDSMC(grid, ExecutionContext.resolve(m, backend),
                               cfg)
            par.run(8)
            return par, m

        par_ref, m_ref = run("serial")
        for other in BACKENDS[1:]:
            par, m = run(other)
            for x, y in zip(par_ref.canonical_state(),
                            par.canonical_state()):
                assert np.array_equal(x, y)
            assert m_ref.traffic.snapshot() == m.traffic.snapshot()
            assert m_ref.traffic.messages == m.traffic.messages
            par.close()

    def test_compiler_runtime_on_threaded(self):
        src = """
        DECOMPOSITION reg(12)
        REAL x(12), y(12)
        INTEGER ia(12)
        ALIGN x, y WITH reg
        DISTRIBUTE reg(BLOCK)
        FORALL i = 1, 12
          REDUCE(SUM, x(ia(i)), y(i))
        END FORALL
        """
        ia = np.arange(12, dtype=np.int64)[::-1] + 1
        outs = {}
        for backend in BACKENDS:
            with ProgramInstance(
                compile_program(src),
                ExecutionContext.resolve(Machine(4), backend),
                dict(ia=ia, y=np.arange(12, dtype=float)),
            ) as prog:
                prog.execute()
                outs[backend] = prog.get_array("x")
        for other in BACKENDS[1:]:
            assert np.array_equal(outs["serial"], outs[other])


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_ranks=st.integers(1, 6),
    n=st.integers(1, 80),
    n_ref=st.integers(0, 200),
)
def test_threaded_primitives_bitwise(seed, n_ranks, n, n_ref):
    """Localized indices, schedule buffers, executor results and exact
    traffic agree three ways on randomized irregular workloads."""
    results = {}
    for backend in BACKENDS:
        rng = np.random.default_rng(seed)
        m = Machine(n_ranks, record_messages=True)
        ctx = ExecutionContext.resolve(m, backend)
        tt = TranslationTable.from_map(m, rng.integers(0, n_ranks, n))
        hts = make_hash_tables(ctx, tt)
        idx = split_by_block(rng.integers(0, n, n_ref), m)
        loc = chaos_hash(ctx, hts, tt, idx, "s")
        sched = build_schedule(ctx, hts, "s")
        data = [rng.standard_normal((tt.dist.local_size(p), 3))
                for p in m.ranks()]
        ghosts = gather(ctx, sched, data)
        scatter_op(ctx, sched, data, [2.0 * g for g in ghosts], np.add)
        dest = [rng.integers(0, n_ranks, 11) for _ in m.ranks()]
        lw = build_lightweight_schedule(ctx, dest)
        moved = scatter_append(ctx, lw, [rng.standard_normal(11)
                                         for _ in m.ranks()])
        results[backend] = (loc, sched, ghosts, data, moved,
                            m.traffic.snapshot(), list(m.traffic.messages))
        ctx.close()
    a = results["serial"]
    for other in BACKENDS[1:]:
        b = results[other]
        for p in range(n_ranks):
            assert np.array_equal(a[0][p], b[0][p])
            assert np.array_equal(a[1].send_indices[p], b[1].send_indices[p])
            assert np.array_equal(a[1].send_offsets[p], b[1].send_offsets[p])
            assert np.array_equal(a[1].recv_slots[p], b[1].recv_slots[p])
            assert np.array_equal(a[2][p], b[2][p])
            assert np.array_equal(a[3][p], b[3][p])
            assert np.array_equal(a[4][p], b[4][p])
        assert a[5] == b[5]
        assert a[6] == b[6]


# ---------------------------------------------------------------------
# resource lifecycle
# ---------------------------------------------------------------------
class TestLifecycle:
    def test_pool_created_once_per_context(self, rng):
        m = Machine(4)
        ctx = ExecutionContext.resolve(m, "threaded")
        res = ctx.resources
        assert isinstance(res, ThreadedResources)
        assert res.backend is ctx.backend
        pool = res.pool
        dest = [rng.integers(0, 4, 10) for _ in range(4)]
        for _ in range(3):
            sched = build_lightweight_schedule(ctx, dest)
            scatter_append(ctx, sched, [rng.standard_normal(10)
                                        for _ in range(4)])
            assert ctx.resources is res
            assert res.pool is pool
        ctx.close()

    def test_close_shuts_pool_down_and_is_idempotent(self):
        ctx = ExecutionContext.resolve(Machine(4), "threaded")
        res = ctx.resources
        assert not ctx.closed
        ctx.close()
        assert ctx.closed and res.closed
        ctx.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            ctx.backend._run_ranks(ctx, lambda p: p)

    def test_no_thread_leaks_across_contexts(self, rng):
        baseline = len(_rank_threads())
        for _ in range(5):
            with ExecutionContext.resolve(Machine(4), "threaded") as ctx:
                dest = [rng.integers(0, 4, 50) for _ in range(4)]
                sched = build_lightweight_schedule(ctx, dest)
                scatter_append(ctx, sched, [rng.standard_normal(50)
                                            for _ in range(4)])
                assert len(_rank_threads()) > baseline  # pool is live
        # close(wait=True) joins workers: nothing left running
        assert len(_rank_threads()) == baseline

    def test_components_own_the_lifecycle(self, rng):
        with ChaosRuntime(
            ExecutionContext.resolve(Machine(4), "threaded")
        ) as rt:
            tt = rt.irregular_table(rng.integers(0, 4, 12))
            rt.hash_indirection(
                tt, split_by_block(rng.integers(0, 12, 20), rt.machine), "s"
            )
            rt.build_schedule(tt, "s")
            assert not rt.ctx.closed
        assert rt.ctx.closed

        md = ParallelMD(build_small_system(40, seed=1),
                        ExecutionContext.resolve(Machine(2), "threaded"),
                        update_every=2)
        md.run(2)
        md.close()
        assert md.ctx.closed

    def test_retarget_opens_fresh_handle(self):
        ctx = ExecutionContext.resolve(Machine(4), "vectorized")
        assert type(ctx.resources) is BackendResources  # no pool owned
        threaded = ctx.with_backend("threaded")
        assert isinstance(threaded.resources, ThreadedResources)
        assert threaded.resources is not ctx.resources
        # same-backend variants share the handle; closing the variant
        # closes it for the family, closing a sibling backend does not
        derived = threaded.derive(seed=7)
        assert derived.resources is threaded.resources
        threaded.close()
        assert derived.closed
        assert not ctx.closed
        ctx.close()

    def test_with_backend_same_backend_is_self(self):
        ctx = ExecutionContext.resolve(Machine(4), "threaded")
        assert ctx.with_backend("threaded") is ctx
        ctx.close()

    def test_failing_rank_kernel_propagates_cleanly(self):
        # one kernel raising must surface its error with every other
        # submitted kernel cancelled or drained first — and leave the
        # pool reusable
        ctx = ExecutionContext.resolve(Machine(4), "threaded")

        def boom(lo, hi):
            if lo <= 2 < hi:
                raise ValueError("rank 2 kernel failed")
            return list(range(lo, hi))

        with pytest.raises(ValueError, match="rank 2"):
            ctx.backend._run_ranks(ctx, boom)
        # a kernel takes a rank range; the ranges partition the machine
        ranges = ctx.backend._run_ranks(ctx, lambda lo, hi: (lo, hi))
        assert [p for lo, hi in ranges for p in range(lo, hi)] == [0, 1, 2, 3]
        ctx.close()

    def test_threaded_rejects_foreign_resources(self):
        # a context whose resources belong to another backend must not
        # be driven through the threaded rank loop
        ctx = ExecutionContext.resolve(Machine(2), "vectorized")
        from repro.core import get_backend
        with pytest.raises(RuntimeError, match="resources"):
            get_backend("threaded")._run_ranks(ctx, lambda p: p)
        ctx.close()


def test_chunk_ranks_covers_every_rank_once():
    for n in (1, 3, 7, 16):
        for width in (1, 2, 5, 16, 40):
            chunks = chunk_ranks(n, width)
            flat = [p for chunk in chunks for p in chunk]
            assert flat == list(range(n))
            assert len(chunks) == min(n, max(1, min(width, n)))
