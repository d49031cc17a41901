"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import (
    ExecutionContext,
    BlockDistribution,
    ChaosRuntime,
    CyclicDistribution,
    IrregularDistribution,
    StampExpr,
    build_lightweight_schedule,
    remap,
    remap_array,
    scatter_append,
    split_by_block,
)
from repro.partitioners import RCB, chain_boundaries
from repro.sim import Machine, load_balance_index
from repro.util import hash_uniform

from conftest import assert_layout_follows_rule, global_indices
from oracle import assert_fetches

# ---------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------
sizes = st.integers(min_value=0, max_value=60)
ranks = st.integers(min_value=1, max_value=6)


@st.composite
def distribution(draw):
    n = draw(sizes)
    p = draw(ranks)
    kind = draw(st.sampled_from(["block", "cyclic", "irregular"]))
    if kind == "block":
        return BlockDistribution(n, p)
    if kind == "cyclic":
        return CyclicDistribution(n, p)
    labels = draw(arrays(np.int64, n, elements=st.integers(0, p - 1)))
    return IrregularDistribution(labels, p)


# ---------------------------------------------------------------------
# distribution invariants
# ---------------------------------------------------------------------
@given(distribution())
@settings(max_examples=60, deadline=None)
def test_distribution_partition_property(dist):
    """Every element owned exactly once; offsets bijective per rank."""
    assert_layout_follows_rule(dist)


@given(distribution())
@settings(max_examples=40, deadline=None)
def test_distribution_global_indices_consistent(dist):
    for p in range(dist.n_ranks):
        g = global_indices(dist, p)
        if g.size:
            assert np.all(dist.owner(g) == p)
            assert np.array_equal(dist.local_index(g),
                                  np.arange(g.size))


# ---------------------------------------------------------------------
# remap round trip
# ---------------------------------------------------------------------
@given(st.integers(1, 40), ranks, st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_remap_roundtrip_property(n, p, seed):
    rng = np.random.default_rng(seed)
    m = Machine(p)
    d1 = IrregularDistribution(rng.integers(0, p, n), p)
    d2 = IrregularDistribution(rng.integers(0, p, n), p)
    x = rng.standard_normal(n)
    data = [x[global_indices(d1, q)] for q in range(p)]
    plan = remap(ExecutionContext.resolve(m), d1, d2)
    out = remap_array(ExecutionContext.resolve(m), plan, data)
    plan_back = remap(ExecutionContext.resolve(m), d2, d1)
    back = remap_array(ExecutionContext.resolve(m), plan_back, out)
    for q in range(p):
        assert np.array_equal(back[q], data[q])


# ---------------------------------------------------------------------
# gather/scatter identity through the full inspector/executor chain
# ---------------------------------------------------------------------
@given(st.integers(1, 30), st.integers(0, 80), ranks, st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_gather_fetches_correct_values_property(n, n_ref, p, seed):
    rng = np.random.default_rng(seed)
    m = Machine(p)
    rt = ChaosRuntime(m)
    tt = rt.irregular_table(rng.integers(0, p, n))
    x_g = rng.standard_normal(n)
    x = rt.distribute(x_g, tt)
    idx_g = rng.integers(0, n, n_ref)
    loc = rt.hash_indirection(tt, split_by_block(idx_g, m), "s")
    sched = rt.build_schedule(tt, "s")
    ghosts = rt.gather(sched, x)
    from repro.core import stack_local_ghost

    stacked = stack_local_ghost(x.local, ghosts)
    for q, part in enumerate(split_by_block(idx_g, m)):
        assert np.array_equal(stacked[q][loc[q]], x_g[part])


@given(st.integers(1, 25), st.integers(0, 60), ranks, st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_scatter_add_equals_np_add_at_property(n, n_ref, p, seed):
    rng = np.random.default_rng(seed)
    m = Machine(p)
    rt = ChaosRuntime(m)
    tt = rt.irregular_table(rng.integers(0, p, n))
    x_g = rng.standard_normal(n)
    idx_g = rng.integers(0, n, n_ref)
    jdx_g = rng.integers(0, n, n_ref)
    vals_g = rng.standard_normal(n)
    x = rt.distribute(x_g, tt)
    from repro.core import IrregularReduction

    loop = IrregularReduction(rt, tt, "prop").bind(
        ia=split_by_block(idx_g, m), ib=split_by_block(jdx_g, m)
    )
    loop.setup()
    # the contributions travel in a distributed rhs array: the kernel is
    # elementwise, whatever number of ranks' iterations it is handed
    vals = rt.distribute(vals_g, tt)
    loop.execute(x, "ia", lambda v: v, {"vals": (vals, "ib")})
    expected = x_g.copy()
    np.add.at(expected, idx_g, vals_g[jdx_g])
    assert np.allclose(x.to_global(), expected, atol=1e-9)


# ---------------------------------------------------------------------
# stamp algebra
# ---------------------------------------------------------------------
@given(
    st.lists(st.integers(0, 7), min_size=0, max_size=30),
    st.lists(st.integers(0, 7), min_size=0, max_size=30),
)
@settings(max_examples=60, deadline=None)
def test_stamp_union_is_set_union(idx_a, idx_b):
    m = Machine(2)
    rt = ChaosRuntime(m)
    tt = rt.irregular_table([0] * 4 + [1] * 4)
    z = np.zeros(0, dtype=np.int64)
    rt.hash_indirection(tt, [np.array(idx_a, dtype=np.int64), z], "a")
    rt.hash_indirection(tt, [np.array(idx_b, dtype=np.int64), z], "b")
    group = rt.hash_tables(tt)

    def fetched(expr):
        sched = rt.build_schedule(tt, expr)
        return set(sched.send_view(1, 0).tolist())

    fa = fetched(group.expr("a"))
    fb = fetched(group.expr("b"))
    assert fetched(group.expr("a", "b")) == fa | fb
    assert fetched(group.expr("b") - group.expr("a")) == fb - fa
    assert fetched(group.expr("a") - group.expr("b")) == fa - fb


@given(st.integers(0, 2**20 - 1), st.integers(0, 2**20 - 1))
def test_stamp_expr_algebra(inc, exc):
    masks = np.arange(64, dtype=np.int64)
    e = StampExpr(inc, exc)
    manual = ((masks & inc) != 0) & ((masks & exc) == 0) if exc else (
        (masks & inc) != 0
    )
    assert np.array_equal(e.matches(masks), manual)


# ---------------------------------------------------------------------
# light-weight schedules conserve multisets
# ---------------------------------------------------------------------
@given(ranks, st.lists(st.integers(0, 50), min_size=0, max_size=80),
       st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_scatter_append_multiset_property(p, flat_sizes, seed):
    rng = np.random.default_rng(seed)
    m = Machine(p)
    n = len(flat_sizes)
    dest_g = rng.integers(0, p, n)
    values_g = rng.standard_normal(n)
    dest = split_by_block(dest_g, m)
    values = split_by_block(values_g, m)
    sched = build_lightweight_schedule(ExecutionContext.resolve(m), dest)
    out = scatter_append(ExecutionContext.resolve(m), sched, values)
    assert np.allclose(np.sort(np.concatenate(out) if out else []),
                       np.sort(values_g))
    for q in range(p):
        assert out[q].shape[0] == int(np.count_nonzero(dest_g == q))


# ---------------------------------------------------------------------
# partitioners
# ---------------------------------------------------------------------
@given(st.integers(1, 200), st.integers(1, 8), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_rcb_assigns_every_element_once(n, p, seed):
    rng = np.random.default_rng(seed)
    res = RCB().partition(rng.random((n, 3)), p, rng.random(n) + 0.01)
    assert res.labels.shape == (n,)
    assert res.labels.min() >= 0 and res.labels.max() < p


@given(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=100),
       st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_chain_boundaries_cover_and_bound(weights, p):
    w = np.array(weights)
    bounds = chain_boundaries(w, p)
    assert bounds[0] == 0 and bounds[-1] == w.size
    assert np.all(np.diff(bounds) >= 0)
    bottleneck = max(w[bounds[k]:bounds[k + 1]].sum() for k in range(p))
    # never worse than putting everything in one part, never better than
    # the trivial lower bounds
    assert bottleneck <= w.sum() + 1e-9
    assert bottleneck >= max(w.max(), w.sum() / p) - 1e-9


@given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=50))
def test_load_balance_index_lower_bound(times):
    if sum(times) == 0:
        assert load_balance_index(times) == 1.0
    else:
        assert load_balance_index(times) >= 1.0 - 1e-12


# ---------------------------------------------------------------------
# deterministic hashing
# ---------------------------------------------------------------------
@given(st.integers(0, 2**31), st.integers(0, 2**31))
def test_hash_uniform_deterministic_and_bounded(a, b):
    u1 = hash_uniform(a, b)
    u2 = hash_uniform(a, b)
    assert u1 == u2
    assert 0.0 <= u1 < 1.0


# ---------------------------------------------------------------------
# schedules fetch what their stamps reference, from the global arrays
# ---------------------------------------------------------------------
@given(st.integers(1, 40), ranks, st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_built_schedules_fetch_distinct_off_processor_refs(n, p, seed):
    """A plain (``a``), merged (``a | b``) and incremental (``b - a``)
    schedule each fetch exactly the distinct off-processor references
    of their stamps (:func:`oracle.fetch_reference`)."""
    rng = np.random.default_rng(seed)
    m = Machine(p)
    rt = ChaosRuntime(m)
    tt = rt.irregular_table(rng.integers(0, p, n))
    a = split_by_block(rng.integers(0, n, 2 * n), m)
    b = split_by_block(rng.integers(0, n, n), m)
    rt.hash_indirection(tt, a, "a")
    rt.hash_indirection(tt, b, "b")
    for expr, selected, excluded in [
            (rt.stamp_expr(tt, "a"), [a], []),
            (rt.stamp_expr(tt, "a", "b"), [a, b], []),
            (rt.stamp_expr(tt, "b") - rt.stamp_expr(tt, "a"), [b], [a])]:
        assert_fetches(rt.build_schedule(tt, expr), tt.dist, selected,
                       excluded)


# ---------------------------------------------------------------------
# multi-attribute append preserves row alignment across attributes
# ---------------------------------------------------------------------
@given(ranks, st.integers(0, 40), st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_scatter_append_multi_alignment(p, n_total, seed):
    from repro.core import scatter_append_multi

    rng = np.random.default_rng(seed)
    m = Machine(p)
    dest_g = rng.integers(0, p, n_total)
    ids_g = np.arange(n_total, dtype=np.int64)
    val_g = rng.standard_normal(n_total)
    ctx = ExecutionContext.resolve(m)
    sched = build_lightweight_schedule(ctx, split_by_block(dest_g, m))
    out_ids, out_vals = scatter_append_multi(
        ctx, sched, [split_by_block(ids_g, m), split_by_block(val_g, m)]
    ) if n_total or p else ([], [])
    if n_total == 0:
        return
    for q in range(p):
        for i, v in zip(out_ids[q].tolist(), out_vals[q].tolist()):
            assert v == val_g[i]
            assert dest_g[i] == q
