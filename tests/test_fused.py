"""Pipelines (:func:`run_pipeline`): a chain is its stages run in order.

The workloads here run through the oracle (``tests/oracle.py``), most
on its chain axis — each chain against the same collectives called one
by one as primitives, on every backend (on the chain's own backend,
traffic and clocks exactly): the CHARMM force and Phase-B
remap patterns, the "multiple schedule mode" shape (two gathers filling
one table-wide ghost buffer, two combining scatters into one array), a
non-ufunc combiner, stages reading what an earlier stage wrote, an
append stage of three columns, empty machines and schedules, and every
primitive over every buffer shape the executor distinguishes.  What a
chain adds over its stages is checked directly: every stage is
validated before anything moves, a raising kernel leaves its context
usable, executed plans die by reference count, and the ``loop_id``
chain counter.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    ChaosRuntime,
    ExecutionContext,
    PipelinePhase,
    RankArena,
    allocate_ghosts,
    as_arena,
    build_lightweight_schedule,
    clear_stamp,
    gather,
    gather_phase,
    remap,
    remap_phase,
    run_pipeline,
    scatter_append_multi,
    scatter_op,
    scatter_op_phase,
    split_by_block,
)
from repro.core.reuse import FUSED_SUFFIX
from repro.sim import Machine

from conftest import ALL_BACKENDS as BACKENDS
from oracle import Run, assert_same, assert_traffic, check, observe, \
    schedule_env, traffic_of


def _gather_scatter(seed, n, n_ref, trailing=()):
    """One gather chain, then one scatter_op chain of its ghosts (the
    CHARMM force pattern)."""
    def workload(run):
        _, x, sched = schedule_env(run, seed, n, n_ref, trailing)
        ghosts = allocate_ghosts(sched, x.local)
        run.stages(gather_phase(sched, x.local, ghosts), loop_id="gs:g")
        run.stages(scatter_op_phase(sched, x.local,
                                    [1.5 * g + 0.25 for g in ghosts]),
                   loop_id="gs:s")
        return ghosts, x.local

    return workload


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_ranks=st.integers(1, 6),
    n=st.integers(1, 60),
    n_ref=st.integers(0, 150),
    trailing=st.sampled_from([(), (3,)]),
)
def test_fused_gather_scatter_four_ways(seed, n_ranks, n, n_ref, trailing):
    check(_gather_scatter(seed, n, n_ref, trailing), n_ranks, chain=True)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_ranks=st.integers(1, 5),
    n=st.integers(0, 60),
    trailing=st.sampled_from([(), (2,)]),
)
def test_fused_remap_four_ways(seed, n_ranks, n, trailing):
    """Three arrays (one integer) moved with one remap plan: the DSMC /
    CHARMM Phase-B pattern."""
    def workload(run):
        rng = np.random.default_rng(seed)
        rt = ChaosRuntime(run.ctx)
        old_tt = rt.irregular_table(rng.integers(0, n_ranks, n))
        new_tt = rt.irregular_table(rng.integers(0, n_ranks, n))
        arrays = [rt.distribute(a, old_tt).local for a in (
            rng.standard_normal((n,) + trailing), rng.integers(0, 1000, n),
            rng.standard_normal(n))]
        plan = remap(run.ctx, old_tt.dist, new_tt.dist)
        return run.stages(*(remap_phase(plan, a) for a in arrays),
                          category="remap", loop_id="rm")

    out = check(workload, n_ranks, chain=True)
    # the integer array stays integer
    assert [a.dtype for a in out[1]] == [np.dtype(np.int64)] * n_ranks


def _two_schedules(run, seed):
    """Two schedules over one table — the CHARMM 'multiple' mode shape.

    Ghost numbering is table-wide, so one ghost buffer (allocated from
    either schedule) holds both gathers' arrivals.
    """
    rng = np.random.default_rng(seed)
    rt = ChaosRuntime(run.ctx)
    tt = rt.irregular_table(rng.integers(0, 4, 90))
    x = rt.distribute(rng.standard_normal((90, 3)), tt)
    rt.hash_indirection(tt, split_by_block(rng.integers(0, 90, 120),
                                           run.machine), "nb")
    rt.hash_indirection(tt, split_by_block(rng.integers(0, 90, 80),
                                           run.machine), "bonded")
    return x, rt.build_schedule(tt, "nb"), rt.build_schedule(tt, "bonded")


@pytest.mark.parametrize("backend", BACKENDS)
def test_fused_shared_ghost_double_gather(backend):
    def workload(run):
        x, s1, s2 = _two_schedules(run, 7)
        ghosts = allocate_ghosts(s1, x.local)
        run.stages(gather_phase(s1, x.local, ghosts),
                   gather_phase(s2, x.local, ghosts), loop_id="multi")
        return ghosts

    check(workload, backends=[backend], chain=True)


@pytest.mark.parametrize("backend", BACKENDS)
def test_fused_shared_dest_double_scatter(backend):
    """Two combining scatters into the same locals, stage order kept."""
    def workload(run):
        x, s1, s2 = _two_schedules(run, 11)
        g = gather(run.ctx, s1, x.local, allocate_ghosts(s1, x.local))
        out = run.stages(
            scatter_op_phase(s1, x.local, [1.5 * a + 0.25 for a in g]),
            scatter_op_phase(s2, x.local, [2.0 * a for a in g], np.maximum),
            loop_id="fs")
        assert out == [None, None]
        return x.local

    check(workload, backends=[backend], chain=True)


class _OddCombiner:
    """Has ``.at`` like a ufunc but is not a named numpy ufunc."""

    __name__ = "odd_combiner"

    @staticmethod
    def at(target, idx, values):
        np.add.at(target, idx, values)

    def __call__(self, a, b):  # pragma: no cover - signature parity
        return a + b


@pytest.mark.parametrize("backend", BACKENDS)
def test_non_ufunc_combiner_falls_back(backend):
    def workload(run):
        _, x, sched = schedule_env(run, 23, 70, 140)
        g = gather(run.ctx, sched, x.local, allocate_ghosts(sched, x.local))
        run.stages(scatter_op_phase(sched, x.local, [0.5 * a for a in g],
                                    _OddCombiner()))
        return x.local

    check(workload, backends=[backend], chain=True)


@pytest.mark.parametrize("backend", BACKENDS)
def test_read_write_overlap_falls_back(backend):
    """A scatter reading the ghosts its gather writes sees them
    written."""
    def workload(run):
        _, x, sched = schedule_env(run, 31, 60, 120, (3,))
        g = allocate_ghosts(sched, x.local)
        run.stages(gather_phase(sched, x.local, g),
                   scatter_op_phase(sched, x.local, g, np.add))
        return g, x.local

    check(workload, backends=[backend], chain=True)


class _KernelFault(Exception):
    """Raised by a deliberately failing executor kernel."""


class _FailingCombiner(_OddCombiner):
    __name__ = "failing_combiner"

    @staticmethod
    def at(target, idx, values):
        raise _KernelFault("combiner failed")


@pytest.mark.parametrize("backend", BACKENDS)
def test_failing_rank_kernel_propagates_cleanly(backend, monkeypatch):
    """A stage whose kernel raises surfaces that exception, from a single
    call and from a two-stage chain (on ``vectorized`` also from a chain
    whose ``fused_apply`` raises), and leaves its context usable:
    the next call gives the bytes, traffic and clocks of a fresh one."""
    from repro.core.backends import vectorized

    def fresh():
        run = Run(4, backend)
        return (run.ctx, *schedule_env(run, 71, 60, 130)[1:])

    def follow_up(ctx, x, sched):
        ctx.machine.reset_clocks()
        ctx.machine.reset_traffic()
        g = gather(ctx, sched, x.local)
        scatter_op(ctx, sched, x.local, [0.5 * a for a in g], np.add)
        return observe([g, x.local]), traffic_of(ctx.machine)

    ctx, x, sched = fresh()
    g = gather(ctx, sched, x.local)
    with pytest.raises(_KernelFault):
        scatter_op(ctx, sched, x.local, g, _FailingCombiner())
    with pytest.raises(_KernelFault):
        run_pipeline(ctx, [
            gather_phase(sched, x.local, g),
            scatter_op_phase(sched, x.local, g, _FailingCombiner())])
    if backend == "vectorized":
        def failing(move):
            raise _KernelFault("kernel failed")

        chain = [gather_phase(sched, x.local), gather_phase(sched, x.local)]
        monkeypatch.setattr(vectorized, "fused_apply", failing)
        with pytest.raises(_KernelFault):
            run_pipeline(ctx, chain)
        monkeypatch.undo()
    got, traffic = follow_up(ctx, x, sched)
    ref, ref_traffic = follow_up(*fresh())
    assert_same(ref, got)
    assert_traffic(ref_traffic, traffic)


@pytest.mark.parametrize("backend", BACKENDS)
def test_illegal_chain_equals_primitives_one_by_one(backend):
    """gather → scatter_op of those ghosts → remap of the scattered
    data: every later stage reads what an earlier one wrote, so the
    chain must behave as the three calls made in order."""
    def workload(run):
        rt, x, sched = schedule_env(run, 47, 60, 130, (3,))
        rng = np.random.default_rng(48)
        plan = remap(run.ctx, x.ttable.dist,
                     rt.irregular_table(rng.integers(0, 4, 60)).dist)
        g = allocate_ghosts(sched, x.local)
        _, none, moved = run.stages(
            gather_phase(sched, x.local, g),
            scatter_op_phase(sched, x.local, g, np.add),
            remap_phase(plan, x.local), loop_id="ill")
        assert none is None
        return g, x.local, moved

    check(workload, backends=[backend], chain=True)


@pytest.mark.parametrize("backend", BACKENDS)
def test_three_column_append_stage_in_a_chain(backend):
    """One append stage carrying ids, positions and velocities next to
    a gather stage equals ``gather`` + ``scatter_append_multi``: one set
    of append messages, columns moved one by one."""
    def workload(run):
        _, x, sched = schedule_env(run, 53, 50, 110)
        rng = np.random.default_rng(54)
        n_per = [12, 0, 7, 20]  # rank 1 sends nothing
        lw = build_lightweight_schedule(
            run.ctx, [rng.integers(0, 4, c) for c in n_per])
        cols = [
            [np.arange(c, dtype=np.int64) + 100 * p
             for p, c in enumerate(n_per)],
            [rng.standard_normal((c, 3)) for c in n_per],
            [rng.standard_normal(c) for c in n_per],
        ]
        sent = run.machine.traffic.tag_messages("scatter_append")
        g = allocate_ghosts(sched, x.local)
        _, out = run.stages(gather_phase(sched, x.local, g),
                            PipelinePhase("append", lw, cols))
        # three columns, one message per communicating pair
        assert (run.machine.traffic.tag_messages("scatter_append") - sent
                == lw.total_messages())
        # each column keeps its dtype
        assert [o[0].dtype for o in out] == [c[0].dtype for c in cols]
        return g, out

    check(workload, backends=[backend], chain=True)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n_ranks,n,n_ref", [(1, 1, 0), (3, 3, 0),
                                             (4, 0, 0), (2, 1, 1)])
def test_fused_empty_and_tiny(backend, n_ranks, n, n_ref):
    check(_gather_scatter(5, max(n, 1), n_ref), n_ranks, backends=[backend],
          chain=True)
    # an entirely empty phase list is a no-op returning no results
    assert run_pipeline(ExecutionContext.resolve(Machine(n_ranks), backend),
                        []) == []


@pytest.mark.parametrize("backend", BACKENDS)
def test_chain_validates_every_stage_before_anything_moves(backend):
    """What a chain adds over its stages called one by one: a chain
    whose second stage cannot run raises before its first stage moves
    a row or charges a second."""
    run = Run(4, backend)
    _, x, sched = schedule_env(run, 17, 60, 120)
    ghosts = allocate_ghosts(sched, x.local)
    short = [a[:1] for a in x.local]
    chain = [gather_phase(sched, x.local, ghosts),
             scatter_op_phase(sched, short, ghosts)]
    before = observe(ghosts), traffic_of(run.machine)
    with pytest.raises(IndexError):
        run_pipeline(run.ctx, chain)
    assert (observe(ghosts), traffic_of(run.machine)) == before
    # one by one, the gather runs before the scatter raises
    with pytest.raises(IndexError):
        run.stages(*chain)
    assert (observe(ghosts), traffic_of(run.machine)) != before


@pytest.mark.parametrize("backend", BACKENDS)
def test_dropped_schedules_die_by_refcount(backend):
    """Executing a plan — alone or in a chain — must not tie it into a
    reference cycle: adaptive loops drop a schedule per step, and with
    the collector off (the benchmark's timed regions) a cycle per
    schedule is a leak."""
    run = Run(4, backend)
    ctx, rng = run.ctx, np.random.default_rng(62)
    _, x, sched = schedule_env(run, 61, 50, 110)
    lw = build_lightweight_schedule(
        ctx, [rng.integers(0, 4, 9) for _ in range(4)])
    vals = [rng.standard_normal(9) for _ in range(4)]
    gc.collect()
    gc.disable()
    try:
        g = gather(ctx, sched, x.local)
        scatter_op(ctx, sched, x.local, g, np.add)
        scatter_append_multi(ctx, lw, [vals, vals])
        run_pipeline(ctx, [gather_phase(sched, x.local),
                           PipelinePhase("append", lw, [vals])])
        refs = [weakref.ref(sched), weakref.ref(lw)]
        del sched, lw
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_fused_cache_stats_and_rebuild():
    rng = np.random.default_rng(2)
    m = Machine(4)
    rt = ChaosRuntime(m)
    tt = rt.irregular_table(rng.integers(0, 4, 50))
    x = rt.distribute(rng.standard_normal(50), tt)
    rt.hash_indirection(tt, split_by_block(rng.integers(0, 50, 90), m),
                        "s")
    sched = rt.build_schedule(tt, "s")
    ghosts = allocate_ghosts(sched, x.local)

    def counts():
        st = rt.cache_stats("loop", fused=True)
        return st.hits, st.builds

    assert counts() == (0, 0)
    run_pipeline(rt.ctx, [gather_phase(sched, x.local, ghosts)],
                 loop_id="loop")
    assert counts() == (0, 1)
    run_pipeline(rt.ctx, [gather_phase(sched, x.local, ghosts)],
                 loop_id="loop")
    assert counts() == (1, 1)

    # re-inspect: a new schedule under the same loop id forces a rebuild
    # of the chain entry without resetting the hit counter
    clear_stamp(rt.ctx, rt.hash_tables(tt), "s")
    rt.hash_indirection(tt, split_by_block(rng.integers(0, 50, 90), m),
                        "s")
    sched2 = rt.build_schedule(tt, "s")
    ghosts2 = allocate_ghosts(sched2, x.local)
    run_pipeline(rt.ctx, [gather_phase(sched2, x.local, ghosts2)],
                 loop_id="loop")
    assert counts() == (1, 2)
    run_pipeline(rt.ctx, [gather_phase(sched2, x.local, ghosts2)],
                 loop_id="loop")
    assert counts() == (2, 2)
    # the chain entry lives under its own suffixed key, so the
    # schedule-cache slot for the same loop id is untouched
    plain = rt.cache_stats("loop")
    assert (plain.hits, plain.builds) == (0, 0)
    assert (rt.schedule_cache.stats("loop" + FUSED_SUFFIX)
            == rt.cache_stats("loop", fused=True))


# ---------------------------------------------------------------------
# the flat move, differentially: op x buffer shape x backend == serial
# ---------------------------------------------------------------------
_OPS = ("gather", "scatter", "scatter_add", "scatter_max", "append1",
        "append2", "append3", "remap")
_SHAPES = ("arena", "plain", "rebound", "oversize", "shared_ghosts",
           "shared_plain", "dead_slots", "other_dtype", "empty_ranks",
           "not_flat")


def _shape_buffers(shape, rng, seq):
    """``seq`` (an arena) as the buffer shape under test."""
    if shape in ("plain", "shared_plain"):
        return [a.copy() for a in seq]
    if shape == "rebound":   # one element rebound: a degraded arena
        seq = RankArena(seq.flat.copy(), seq.sizes)
        p = int(rng.integers(len(seq)))
        seq[p] = seq[p].copy()
        assert as_arena(seq) is None
        return seq
    return seq


def _rank0_float32(seq) -> list:
    """``seq`` with rank 0's array cast to float32: with more than one
    rank the list has no flat layout."""
    return [np.asarray(a, dtype=np.float32) if p == 0 else a
            for p, a in enumerate(seq)]


def _flat_case(op, shape, seed, n_ranks, n, n_ref, k):
    """The workload running one primitive over one buffer shape."""
    def workload(run):
        rng = np.random.default_rng(seed)
        rt = ChaosRuntime(run.ctx)
        live = max(1, n_ranks // 2) if shape == "empty_ranks" else n_ranks
        tt = rt.irregular_table(rng.integers(0, live, n))
        x = rt.distribute(rng.standard_normal((n, k) if k > 1 else n), tt)
        refs_a = rng.integers(0, n, n_ref)
        rt.hash_indirection(tt, split_by_block(refs_a, run.machine), "a")
        rt.hash_indirection(tt, split_by_block(
            rng.integers(0, n, n_ref // 2 + 1), run.machine), "b")
        if shape == "dead_slots":
            # "a" re-hashed over part of its references, as after an
            # untargeted adapt: the slots of the entries it dropped stay
            # in the ghost buffer, which its schedule now covers in part
            clear_stamp(rt.ctx, rt.hash_tables(tt), "a")
            rt.hash_indirection(tt, split_by_block(refs_a[:n_ref // 2],
                                                   run.machine), "a")
        sched = rt.build_schedule(tt, "a")
        sched_b = rt.build_schedule(tt, "b")
        data = _shape_buffers(shape, rng, x.local)
        if op.startswith("append"):
            sizes = rng.integers(0, 9, n_ranks)
            if shape == "empty_ranks":
                sizes[::2] = 0
            lw = build_lightweight_schedule(
                run.ctx, [rng.integers(0, n_ranks, c) for c in sizes])
            cols = [RankArena.adopt([rng.standard_normal((c, k) if k > 1
                                                         else c)
                                     for c in sizes]),
                    RankArena.adopt([np.arange(c) + 100 * p
                                     for p, c in enumerate(sizes)]),
                    RankArena.adopt([rng.standard_normal(c) for c in sizes])]
            cols = [_shape_buffers(shape, rng, c)
                    for c in cols[:int(op[-1])]]
            first = PipelinePhase("append", lw, cols)
        elif op == "remap":
            new = rt.irregular_table(rng.integers(0, n_ranks, n))
            first = remap_phase(remap(run.ctx, tt.dist, new.dist), data)
        ghosts = allocate_ghosts(sched, x.local)
        if shape == "oversize":   # tails must survive every primitive
            ghosts = RankArena(
                np.full((sum(sched.ghost_size) + 3 * n_ranks,)
                        + x.local[0].shape[1:], -7.0),
                np.asarray(sched.ghost_size) + 3)
        elif shape == "other_dtype":
            ghosts = RankArena(ghosts.flat.astype(np.float32), ghosts.sizes)
        ghosts = _shape_buffers(shape, rng, ghosts)
        if op != "gather":   # give the scatters something to return
            for g in ghosts:
                g[...] = rng.standard_normal(g.shape)
        combiner = {"scatter_add": np.add, "scatter_max": np.maximum}.get(op)
        if op == "gather":
            first = gather_phase(sched, data, ghosts)
        elif op.startswith("scatter"):
            first = PipelinePhase("scatter", sched, ghosts, dests=data,
                                  op=combiner)
        if shape.startswith("shared") and first.kind in ("gather",
                                                         "scatter"):
            # both schedules fill (return) their part of one table-wide
            # ghost list
            out = run_pipeline(run.ctx, [first, PipelinePhase(
                first.kind, sched_b, first.sources, first.dests, first.op)])
        elif shape == "not_flat":
            # the op's stage, then the same stage reading a copy whose
            # rank 0 holds float32: that stage alone has no flat layout
            reads = ([_rank0_float32(c) for c in first.sources]
                     if first.kind == "append"
                     else _rank0_float32(first.sources))
            out = run_pipeline(run.ctx, [first, PipelinePhase(
                first.kind, first.plan, reads, first.dests, first.op)])
        else:
            out = run.stages(first)
        return data, ghosts, out

    return workload


@settings(max_examples=30, deadline=None)
# every scatter kind over dead slots and over a shared ghost list, always
@example(op="scatter", shape="dead_slots", seed=1, n_ranks=4, n=40,
         n_ref=90, k=1)
@example(op="scatter_add", shape="dead_slots", seed=2, n_ranks=3, n=30,
         n_ref=80, k=3)
@example(op="scatter_max", shape="dead_slots", seed=3, n_ranks=5, n=40,
         n_ref=90, k=1)
@example(op="scatter", shape="shared_ghosts", seed=4, n_ranks=4, n=40,
         n_ref=90, k=3)
@example(op="scatter_add", shape="shared_ghosts", seed=5, n_ranks=3,
         n=30, n_ref=80, k=1)
@example(op="scatter_max", shape="shared_ghosts", seed=6, n_ranks=5,
         n=40, n_ref=90, k=1)
@example(op="scatter_add", shape="shared_plain", seed=7, n_ranks=4,
         n=40, n_ref=90, k=3)
@given(
    op=st.sampled_from(_OPS),
    shape=st.sampled_from(_SHAPES),
    seed=st.integers(0, 10_000),
    n_ranks=st.integers(1, 5),
    n=st.integers(1, 40),
    n_ref=st.integers(0, 90),
    k=st.sampled_from([1, 3]),
)
def test_flat_moves_equal_serial(op, shape, seed, n_ranks, n, n_ref, k):
    check(_flat_case(op, shape, seed, n_ranks, n, n_ref, k), n_ranks)


@pytest.mark.parametrize("op", _OPS)
@pytest.mark.parametrize("shape,serial_stages", [("not_flat", 1),
                                                 ("shared_plain", 0)])
def test_chain_falls_back_per_stage(op, shape, serial_stages, monkeypatch):
    """On ``vectorized`` a two-stage chain whose second stage has no flat
    layout sends that stage alone to the serial reference, and two
    stages writing one plain list each stage it in turn; either way the
    chain equals ``serial``."""
    from repro.core.backends.serial import SerialBackend

    calls = []
    run_stage = SerialBackend.run_stage

    def counted(self, ctx, phase, category):
        if ctx.backend.name == "vectorized":
            calls.append(phase.kind)
        return run_stage(self, ctx, phase, category)

    monkeypatch.setattr(SerialBackend, "run_stage", counted)
    check(_flat_case(op, shape, 8, 4, 40, 90, 3),
          backends=["vectorized"])
    assert len(calls) == serial_stages
