"""Pipelines (:func:`run_pipeline`) vs the primitives called one by one.

The pipeline contract is the backend contract one level up: a chain
must be *observationally identical* to running its phases through the
ordinary primitives in order — bitwise-equal results and ghosts, the
exact same traffic (message counts, bytes, tags, per-message records)
and per-rank clocks (to float round-off) — on every backend.

Covered here:

* randomized gather + scatter_op chains (the CHARMM force pattern) and
  multi-phase remaps over one plan (the DSMC / CHARMM Phase-B pattern),
  chained vs one by one, on every backend;
* the "multiple schedule mode" shape: two gathers from two schedules
  filling one shared table-wide ghost buffer;
* a non-ufunc combiner, and chains whose later stages read what earlier
  stages wrote: a scatter reading the ghosts its gather writes, and a
  three-stage chain equal to its primitives called one by one on the
  same backend, clocks exactly;
* a three-column append stage sharing a chain with a gather stage;
* a raising executor kernel, alone and inside a chain: its own
  exception surfaces and the context stays usable;
* empty machines, empty schedules and zero-size plans;
* chain-reuse counters under a ``loop_id`` (hits, builds, and the
  hit-preserving rebuild when a schedule is re-inspected);
* the flat-move differential: every primitive over every buffer shape
  the executor distinguishes (arena, plain list, degraded arena,
  oversize or shared ghost buffers, two stages writing one plain list,
  dead ghost slots, another dtype, empty ranks, a chain with one stage
  that has no flat layout) equals ``serial`` byte for byte, message
  for message, clock for clock;
* hand-built plans that slot order would fold differently from the
  pair loop (descending slots in one segment, one slot shared by two
  sources) keep their receive-stream order.
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
    Schedule,
    allocate_ghosts,
    as_arena,
    build_lightweight_schedule,
    clear_stamp,
    gather,
    gather_phase,
    remap,
    remap_array,
    remap_phase,
    run_pipeline,
    scatter,
    scatter_append_multi,
    scatter_op,
    scatter_op_phase,
    split_by_block,
)
from repro.core.reuse import FUSED_SUFFIX
from repro.sim import Machine

from conftest import ALL_BACKENDS as BACKENDS


def _clock_snapshots(machine):
    return [c.snapshot() for c in machine.clocks]


def _assert_clocks_match(a, b):
    for ca, cb in zip(a, b):
        for key in set(ca) | set(cb):
            assert ca.get(key, 0.0) == pytest.approx(
                cb.get(key, 0.0), rel=1e-9, abs=1e-15
            ), key


def _schedule_env(seed, n_ranks, n, n_ref, trailing):
    rng = np.random.default_rng(seed)
    m = Machine(n_ranks, record_messages=True)
    rt = ChaosRuntime(m)
    tt = rt.irregular_table(rng.integers(0, n_ranks, n))
    shape = (n,) + trailing
    x = rt.distribute(rng.standard_normal(shape), tt)
    idx_g = rng.integers(0, n, n_ref) if n else np.zeros(0, dtype=np.int64)
    rt.hash_indirection(tt, split_by_block(idx_g, m), "s")
    sched = rt.build_schedule(tt, "s")
    m.reset_clocks()
    m.reset_traffic()
    return m, x, sched, rng


def _observe(machine, *arrays):
    return (
        [[np.asarray(a).copy() for a in group] for group in arrays],
        machine.traffic.snapshot(),
        list(machine.traffic.messages),
        _clock_snapshots(machine),
    )


def _assert_same(ref, got):
    for g_ref, g_got in zip(ref[0], got[0]):
        for a, b in zip(g_ref, g_got):
            np.testing.assert_array_equal(a, b)
    assert ref[1] == got[1]
    assert ref[2] == got[2]
    _assert_clocks_match(ref[3], got[3])


def _gather_scatter(backend, fused, seed, n_ranks, n, n_ref, trailing):
    """One gather + one scatter_op over the same schedule; observe all."""
    m, x, sched, rng = _schedule_env(seed, n_ranks, n, n_ref, trailing)
    ctx = ExecutionContext.resolve(m, backend)
    ghosts = allocate_ghosts(sched, x.local)
    contrib = None
    if fused:
        run_pipeline(ctx, [gather_phase(sched, x.local, ghosts)],
                     loop_id="gs:g")
        contrib = [1.5 * g + 0.25 for g in ghosts]
        run_pipeline(
            ctx,
            [scatter_op_phase(sched, x.local, contrib, np.add)],
            loop_id="gs:s",
        )
    else:
        gather(ctx, sched, x.local, ghosts)
        contrib = [1.5 * g + 0.25 for g in ghosts]
        scatter_op(ctx, sched, x.local, contrib, np.add)
    return _observe(m, ghosts, x.local)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_ranks=st.integers(1, 6),
    n=st.integers(1, 60),
    n_ref=st.integers(0, 150),
    trailing=st.sampled_from([(), (3,)]),
)
def test_fused_gather_scatter_four_ways(seed, n_ranks, n, n_ref, trailing):
    ref = _gather_scatter("serial", False, seed, n_ranks, n, n_ref,
                          trailing)
    for backend in BACKENDS:
        for fused in (False, True):
            got = _gather_scatter(backend, fused, seed, n_ranks, n,
                                  n_ref, trailing)
            _assert_same(ref, got)


def _remap_pipeline(backend, fused, seed, n_ranks, n, trailing):
    """Three arrays moved with one remap plan (the Phase-B pattern)."""
    rng = np.random.default_rng(seed)
    m = Machine(n_ranks, record_messages=True)
    rt = ChaosRuntime(m)
    old_tt = rt.irregular_table(rng.integers(0, n_ranks, n))
    new_tt = rt.irregular_table(rng.integers(0, n_ranks, n))
    a = rt.distribute(rng.standard_normal((n,) + trailing), old_tt)
    b = rt.distribute(rng.integers(0, 1000, n), old_tt)
    c = rt.distribute(rng.standard_normal(n), old_tt)
    ctx = ExecutionContext.resolve(m, backend)
    plan = remap(ctx, old_tt.dist, new_tt.dist)
    m.reset_clocks()
    m.reset_traffic()
    if fused:
        ra, rb, rc = run_pipeline(
            ctx,
            [remap_phase(plan, a.local),
             remap_phase(plan, b.local),
             remap_phase(plan, c.local)],
            category="remap", loop_id="rm",
        )
    else:
        ra = remap_array(ctx, plan, a.local)
        rb = remap_array(ctx, plan, b.local)
        rc = remap_array(ctx, plan, c.local)
    return _observe(m, ra, rb, rc)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_ranks=st.integers(1, 5),
    n=st.integers(0, 60),
    trailing=st.sampled_from([(), (2,)]),
)
def test_fused_remap_four_ways(seed, n_ranks, n, trailing):
    ref = _remap_pipeline("serial", False, seed, n_ranks, n, trailing)
    for backend in BACKENDS:
        for fused in (False, True):
            got = _remap_pipeline(backend, fused, seed, n_ranks, n,
                                  trailing)
            _assert_same(ref, got)
    # dtype is preserved through the pipeline
    assert got[0][1][0].dtype == np.int64 if n_ranks else True


def _two_schedule_env(seed=7, n_ranks=4, n=90):
    """Two schedules over one table — the CHARMM 'multiple' mode shape.

    Ghost numbering is table-wide, so one ghost buffer (allocated from
    either schedule) holds both gathers' arrivals.
    """
    rng = np.random.default_rng(seed)
    m = Machine(n_ranks, record_messages=True)
    rt = ChaosRuntime(m)
    tt = rt.irregular_table(rng.integers(0, n_ranks, n))
    x = rt.distribute(rng.standard_normal((n, 3)), tt)
    rt.hash_indirection(tt, split_by_block(rng.integers(0, n, 120), m),
                        "nb")
    rt.hash_indirection(tt, split_by_block(rng.integers(0, n, 80), m),
                        "bonded")
    s1 = rt.build_schedule(tt, "nb")
    s2 = rt.build_schedule(tt, "bonded")
    m.reset_clocks()
    m.reset_traffic()
    return m, x, s1, s2


@pytest.mark.parametrize("backend", BACKENDS)
def test_fused_shared_ghost_double_gather(backend):
    m, x, s1, s2 = _two_schedule_env()
    ctx = ExecutionContext.resolve(m, "serial")
    ghosts_ref = allocate_ghosts(s1, x.local)
    gather(ctx, s1, x.local, ghosts_ref)
    gather(ctx, s2, x.local, ghosts_ref)
    ref = _observe(m, ghosts_ref)

    m, x, s1, s2 = _two_schedule_env()
    ctx = ExecutionContext.resolve(m, backend)
    ghosts = allocate_ghosts(s1, x.local)
    run_pipeline(
        ctx,
        [gather_phase(s1, x.local, ghosts),
         gather_phase(s2, x.local, ghosts)],
        loop_id="multi",
    )
    _assert_same(ref, _observe(m, ghosts))


@pytest.mark.parametrize("backend", BACKENDS)
def test_fused_shared_dest_double_scatter(backend):
    """Two combining scatters into the same locals, stage order kept."""
    m, x, s1, s2 = _two_schedule_env(seed=11)
    ctx = ExecutionContext.resolve(m, "serial")
    g = allocate_ghosts(s1, x.local)
    gather(ctx, s1, x.local, g)
    c1 = [1.5 * a + 0.25 for a in g]
    c2 = [2.0 * a for a in g]
    m.reset_clocks()
    m.reset_traffic()
    scatter_op(ctx, s1, x.local, c1, np.add)
    scatter_op(ctx, s2, x.local, c2, np.maximum)
    ref = _observe(m, x.local)

    for backend_name in (backend,):
        m, x, s1, s2 = _two_schedule_env(seed=11)
        ctx = ExecutionContext.resolve(m, backend_name)
        g = allocate_ghosts(s1, x.local)
        gather(ctx, s1, x.local, g)
        c1 = [1.5 * a + 0.25 for a in g]
        c2 = [2.0 * a for a in g]
        m.reset_clocks()
        m.reset_traffic()
        out = run_pipeline(
            ctx,
            [scatter_op_phase(s1, x.local, c1, np.add),
             scatter_op_phase(s2, x.local, c2, np.maximum)],
            loop_id="fs",
        )
        assert out == [None, None]
        _assert_same(ref, _observe(m, x.local))


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
    op = _OddCombiner()
    m, x, sched, rng = _schedule_env(23, 4, 70, 140, ())
    ctx = ExecutionContext.resolve(m, "serial")
    g = allocate_ghosts(sched, x.local)
    gather(ctx, sched, x.local, g)
    c = [0.5 * a for a in g]
    m.reset_clocks()
    m.reset_traffic()
    scatter_op(ctx, sched, x.local, c, op)
    ref = _observe(m, x.local)

    m, x, sched, rng = _schedule_env(23, 4, 70, 140, ())
    ctx = ExecutionContext.resolve(m, backend)
    g = allocate_ghosts(sched, x.local)
    gather(ctx, sched, x.local, g)
    c = [0.5 * a for a in g]
    phases = [scatter_op_phase(sched, x.local, c, op)]
    m.reset_clocks()
    m.reset_traffic()
    run_pipeline(ctx, phases)
    _assert_same(ref, _observe(m, x.local))


@pytest.mark.parametrize("backend", BACKENDS)
def test_read_write_overlap_falls_back(backend):
    """A scatter reading the ghosts its gather writes sees them
    written."""
    m, x, sched, rng = _schedule_env(31, 4, 60, 120, (3,))
    ctx = ExecutionContext.resolve(m, "serial")
    g = allocate_ghosts(sched, x.local)
    gather(ctx, sched, x.local, g)
    scatter_op(ctx, sched, x.local, g, np.add)
    ref = _observe(m, g, x.local)

    m, x, sched, rng = _schedule_env(31, 4, 60, 120, (3,))
    ctx = ExecutionContext.resolve(m, backend)
    g = allocate_ghosts(sched, x.local)
    phases = [gather_phase(sched, x.local, g),
              scatter_op_phase(sched, x.local, g, np.add)]
    run_pipeline(ctx, phases)
    _assert_same(ref, _observe(m, g, x.local))


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

    def follow_up(ctx, m, x, sched):
        g = gather(ctx, sched, x.local)
        scatter_op(ctx, sched, x.local, [0.5 * a for a in g], np.add)
        return _observe(m, g, x.local)

    m, x, sched, _ = _schedule_env(71, 4, 60, 130, ())
    ctx = ExecutionContext.resolve(m, backend)
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
    m.reset_clocks()
    m.reset_traffic()
    got = follow_up(ctx, m, x, sched)

    m, x, sched, _ = _schedule_env(71, 4, 60, 130, ())
    _assert_same(follow_up(ExecutionContext.resolve(m, backend), m, x, sched),
                 got)


@pytest.mark.parametrize("backend", BACKENDS)
def test_illegal_chain_equals_primitives_one_by_one(backend):
    """gather → scatter_op of those ghosts → remap of the scattered
    data: every later stage reads what an earlier one wrote, so the
    chain must behave as the three calls made in order."""
    observed = []
    for chained in (False, True):
        m, x, sched, rng = _schedule_env(47, 4, 60, 130, (3,))
        ctx = ExecutionContext.resolve(m, backend)
        rt = ChaosRuntime(ctx)
        new_tt = rt.irregular_table(rng.integers(0, 4, 60))
        plan = remap(ctx, x.ttable.dist, new_tt.dist)
        m.reset_clocks()
        m.reset_traffic()
        g = allocate_ghosts(sched, x.local)
        if chained:
            phases = [gather_phase(sched, x.local, g),
                      scatter_op_phase(sched, x.local, g, np.add),
                      remap_phase(plan, x.local)]
            _, none, moved = run_pipeline(ctx, phases, loop_id="ill")
            assert none is None
        else:
            gather(ctx, sched, x.local, g)
            scatter_op(ctx, sched, x.local, g, np.add)
            moved = remap_array(ctx, plan, x.local, category="comm")
        observed.append(_observe(m, g, x.local, moved))
    _assert_same(observed[0], observed[1])
    assert observed[0][3] == observed[1][3]  # same backend: clocks exact


@pytest.mark.parametrize("backend", BACKENDS)
def test_three_column_append_stage_in_a_chain(backend):
    """One append stage carrying ids, positions and velocities next to
    a gather stage equals ``gather`` + ``scatter_append_multi``: one set
    of append messages, columns moved one by one."""
    observed = []
    for chained in (False, True):
        m, x, sched, rng = _schedule_env(53, 4, 50, 110, ())
        ctx = ExecutionContext.resolve(m, backend)
        n_per = [12, 0, 7, 20]  # rank 1 sends nothing
        lw = build_lightweight_schedule(
            ctx, [rng.integers(0, 4, c) for c in n_per])
        cols = [
            [np.arange(c, dtype=np.int64) + 100 * p
             for p, c in enumerate(n_per)],
            [rng.standard_normal((c, 3)) for c in n_per],
            [rng.standard_normal(c) for c in n_per],
        ]
        m.reset_clocks()
        m.reset_traffic()
        g = allocate_ghosts(sched, x.local)
        if chained:
            _, out = run_pipeline(
                ctx, [gather_phase(sched, x.local, g),
                      PipelinePhase("append", lw, cols)])
        else:
            gather(ctx, sched, x.local, g)
            out = scatter_append_multi(ctx, lw, cols)
        assert [o[0].dtype for o in out] == [c[0].dtype for c in cols]
        observed.append(_observe(m, g, *out))
    _assert_same(observed[0], observed[1])
    assert observed[0][3] == observed[1][3]
    # three columns, one message per communicating pair
    tags = observed[0][1]["by_tag"]
    assert tags["scatter_append"][0] == lw.total_messages()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n_ranks,n,n_ref", [(1, 1, 0), (3, 3, 0),
                                             (4, 0, 0), (2, 1, 1)])
def test_fused_empty_and_tiny(backend, n_ranks, n, n_ref):
    ref = _gather_scatter("serial", False, 5, n_ranks, max(n, 1), n_ref,
                          ())
    got = _gather_scatter(backend, True, 5, n_ranks, max(n, 1), n_ref,
                          ())
    _assert_same(ref, got)
    # an entirely empty phase list is a no-op returning no results
    m = Machine(n_ranks)
    ctx = ExecutionContext.resolve(m, backend)
    assert run_pipeline(ctx, []) == []


@pytest.mark.parametrize("backend", BACKENDS)
def test_dropped_schedules_die_by_refcount(backend):
    """Executing a plan — alone or in a chain — must not tie it into a
    reference cycle: adaptive loops drop a schedule per step, and with
    the collector off (the benchmark's timed regions) a cycle per
    schedule is a leak."""
    m, x, sched, rng = _schedule_env(61, 4, 50, 110, ())
    ctx = ExecutionContext.resolve(m, backend)
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


def _flat_case(backend, op, shape, seed, n_ranks, n, n_ref, k):
    """Run one primitive on one backend; observe bytes, traffic, clocks."""
    rng = np.random.default_rng(seed)
    m = Machine(n_ranks, record_messages=True)
    rt = ChaosRuntime(m)
    live = max(1, n_ranks // 2) if shape == "empty_ranks" else n_ranks
    tt = rt.irregular_table(rng.integers(0, live, n))
    x = rt.distribute(rng.standard_normal((n, k) if k > 1 else n), tt)
    refs_a = rng.integers(0, n, n_ref)
    rt.hash_indirection(tt, split_by_block(refs_a, m), "a")
    rt.hash_indirection(tt, split_by_block(rng.integers(0, n, n_ref // 2 + 1),
                                           m), "b")
    if shape == "dead_slots":
        # "a" re-hashed over part of its references, as after an
        # untargeted adapt: the slots of the entries it dropped stay in
        # the ghost buffer, which its schedule now covers only in part
        clear_stamp(rt.ctx, rt.hash_tables(tt), "a")
        rt.hash_indirection(tt, split_by_block(refs_a[:n_ref // 2], m), "a")
    sched, sched_b = rt.build_schedule(tt, "a"), rt.build_schedule(tt, "b")
    ctx = ExecutionContext.resolve(m, backend)
    data = _shape_buffers(shape, rng, x.local)
    if op.startswith("append"):
        sizes = rng.integers(0, 9, n_ranks)
        if shape == "empty_ranks":
            sizes[::2] = 0
        lw = build_lightweight_schedule(
            ctx, [rng.integers(0, n_ranks, c) for c in sizes])
        cols = [RankArena.adopt([rng.standard_normal((c, k) if k > 1
                                                     else c)
                                 for c in sizes]),
                RankArena.adopt([np.arange(c) + 100 * p
                                 for p, c in enumerate(sizes)]),
                RankArena.adopt([rng.standard_normal(c) for c in sizes])]
        cols = [_shape_buffers(shape, rng, c)
                for c in cols[:int(op[-1])]]
    elif op == "remap":
        plan = remap(ctx, tt.dist, rt.irregular_table(
            rng.integers(0, n_ranks, n)).dist)
    ghosts = allocate_ghosts(sched, x.local)
    if shape == "oversize":   # tails must survive every primitive
        ghosts = RankArena(
            np.full((sum(sched.ghost_size) + 3 * n_ranks,) + x.local[0]
                    .shape[1:], -7.0), np.asarray(sched.ghost_size) + 3)
    elif shape == "other_dtype":
        ghosts = RankArena(ghosts.flat.astype(np.float32), ghosts.sizes)
    ghosts = _shape_buffers(shape, rng, ghosts)
    if op != "gather":   # give the scatters something to return
        for g in ghosts:
            g[...] = rng.standard_normal(g.shape)
    m.reset_clocks()
    m.reset_traffic()
    out = []
    combiner = {"scatter_add": np.add, "scatter_max": np.maximum}.get(op)
    if op == "gather" and shape.startswith("shared"):
        run_pipeline(ctx, [gather_phase(sched, data, ghosts),
                           gather_phase(sched_b, data, ghosts)])
    elif op.startswith("scatter") and shape.startswith("shared"):
        # both schedules return their part of one table-wide ghost list
        run_pipeline(ctx, [PipelinePhase("scatter", s, ghosts, dests=data,
                                         op=combiner)
                           for s in (sched, sched_b)])
    elif shape == "not_flat":
        # the op's stage, then the same stage reading a copy whose rank 0
        # holds float32: that stage alone has no flat layout
        if op == "gather":
            first = gather_phase(sched, data, ghosts)
        elif op.startswith("scatter"):
            first = PipelinePhase("scatter", sched, ghosts, dests=data,
                                  op=combiner)
        elif op == "remap":
            first = remap_phase(plan, data)
        else:
            first = PipelinePhase("append", lw, cols)
        reads = ([_rank0_float32(c) for c in cols] if first.kind == "append"
                 else _rank0_float32(first.sources))
        results = run_pipeline(ctx, [first, PipelinePhase(
            first.kind, first.plan, reads, first.dests, first.op)])
        if op == "remap":
            out = results
        elif op.startswith("append"):
            out = results[0] + results[1]
    elif op == "gather":
        gather(ctx, sched, data, ghosts)
    elif op == "scatter":
        scatter(ctx, sched, data, ghosts)
    elif op.startswith("scatter_"):
        scatter_op(ctx, sched, data, ghosts, combiner)
    elif op == "remap":
        out = [remap_array(ctx, plan, data)]
    else:
        out = scatter_append_multi(ctx, lw, cols)
    arrays = [*data, *ghosts, *(a for o in out for a in o)]
    return ([(a.dtype, a.shape, a.tobytes()) for a in arrays],
            m.traffic.snapshot(), list(m.traffic.messages),
            _clock_snapshots(m))


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
    ref = _flat_case("serial", op, shape, seed, n_ranks, n, n_ref, k)
    flat = [_flat_case(backend, op, shape, seed, n_ranks, n, n_ref, k)
            for backend in BACKENDS[1:]]
    for backend, got in zip(BACKENDS[1:], flat):
        _assert_equals_serial(ref, got, backend)
        assert got == flat[0], backend       # one kernel: clocks exact


def _assert_equals_serial(ref, got, backend):
    assert got[:3] == ref[:3], backend   # bytes, traffic: exact
    # the pair loop charges message by message, the flat path once per
    # stage: the same categories on the same ranks (a round-off-sized
    # wait may or may not exist), values to float summation order
    assert ([set(c) - {"idle"} for c in got[3]]
            == [set(c) - {"idle"} for c in ref[3]])
    _assert_clocks_match(ref[3], got[3])


@pytest.mark.parametrize("op", _OPS)
@pytest.mark.parametrize("shape,serial_stages", [("not_flat", 1),
                                                 ("shared_plain", 0)])
def test_chain_falls_back_per_stage(op, shape, serial_stages, monkeypatch):
    """On ``vectorized`` a two-stage chain whose second stage has no flat
    layout sends that stage alone to the serial reference, and two
    stages writing one plain list each stage it in turn; either way the
    chain equals ``serial``."""
    from repro.core.backends.serial import SerialBackend

    args = (op, shape, 8, 4, 40, 90, 3)
    ref = _flat_case("serial", *args)
    calls = []
    run_stage = SerialBackend.run_stage

    def counted(self, ctx, phase, category):
        calls.append(phase.kind)
        return run_stage(self, ctx, phase, category)

    monkeypatch.setattr(SerialBackend, "run_stage", counted)
    got = _flat_case("vectorized", *args)
    assert len(calls) == serial_stages
    _assert_equals_serial(ref, got, "vectorized")


@pytest.mark.parametrize("backend", BACKENDS)
def test_descending_slots_fold_in_receive_order(backend):
    """A hand-built plan whose one (receiver, source) segment names one
    element in two slots, descending: slot order would fold 1e16 last
    and lose the 1.0, so the plan keeps its receive-order pair."""
    m = Machine(2)
    ctx = ExecutionContext.resolve(m, backend)
    sched = Schedule(counts=[[0, 2], [0, 0]], send=[0, 0], place=[1, 0],
                     extent=[0, 2])
    data = RankArena.adopt([np.array([-1e16]), np.zeros(0)])
    ghosts = RankArena.adopt([np.zeros(0), np.array([1.0, 1e16])])
    scatter_op(ctx, sched, data, ghosts, np.add)
    assert data[0][0] == 1.0


@pytest.mark.parametrize("backend", BACKENDS)
def test_shared_slot_reaches_every_owner(backend):
    """Two sources placed in one ghost slot: a gather keeps the last
    arrival, a scatter returns the slot to both owners — the plan keeps
    its receive-order pair, which slot order would collapse to one."""
    m = Machine(3)
    ctx = ExecutionContext.resolve(m, backend)
    sched = Schedule(counts=[[0, 0, 1], [0, 0, 1], [0, 0, 0]], send=[0, 0],
                     place=[0, 0], extent=[0, 0, 1])
    data = RankArena.adopt([np.array([1.0]), np.array([2.0]), np.zeros(0)])
    assert gather(ctx, sched, data)[2].tolist() == [2.0]
    ghosts = RankArena.adopt([np.zeros(0), np.zeros(0), np.array([10.0])])
    scatter_op(ctx, sched, data, ghosts, np.add)
    assert [a.tolist() for a in data] == [[11.0], [12.0], []]
