"""Backend equivalence: SerialBackend vs every other backend.

The serial pair loop defines the semantics; the vectorized compiled-plan
path must be observationally identical on randomized schedules (the
sweep is ``conftest.ALL_BACKENDS``):

* bitwise-identical ghosts / local results for gather, scatter,
  scatter_op (add and maximum), scatter_append(_multi), remap_array,
  on 1-D and 2-D data;
* identical :class:`Machine` traffic statistics (message counts, bytes,
  tags — compared exactly);
* identical per-rank virtual clock categories (compared to float
  round-off, as the vectorized path sums message times in bulk).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ChaosRuntime,
    ExecutionContext,
    IrregularDistribution,
    available_backends,
    build_lightweight_schedule,
    default_backend,
    gather,
    get_backend,
    remap,
    remap_array,
    resolve_backend,
    scatter,
    scatter_append,
    scatter_append_multi,
    scatter_op,
    split_by_block,
)
from repro.core.backends import Backend, SerialBackend, VectorizedBackend
from repro.sim import PARAGON, FullCrossbar, Machine

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
    idx_g = rng.integers(0, n, n_ref)
    rt.hash_indirection(tt, split_by_block(idx_g, m), "s")
    sched = rt.build_schedule(tt, "s")
    m.reset_clocks()
    m.reset_traffic()
    return m, x, sched, rng


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_ranks=st.integers(1, 6),
    n=st.integers(1, 80),
    n_ref=st.integers(0, 200),
    trailing=st.sampled_from([(), (3,)]),
)
def test_gather_scatter_equivalence(seed, n_ranks, n, n_ref, trailing):
    results = {}
    for backend in BACKENDS:
        m, x, sched, rng = _schedule_env(seed, n_ranks, n, n_ref, trailing)
        ctx = ExecutionContext.resolve(m, backend)
        ghosts = gather(ctx, sched, x.local)
        contrib = [1.5 * g + 0.25 for g in ghosts]
        scatter_op(ctx, sched, x.local, contrib, np.add)
        scatter_op(ctx, sched, x.local, [2.0 * g for g in ghosts],
                   np.maximum)
        scatter(ctx, sched, x.local, [0.5 * g for g in ghosts])
        results[backend] = (
            ghosts,
            [a.copy() for a in x.local],
            m.traffic.snapshot(),
            [msg for msg in m.traffic.messages],
            _clock_snapshots(m),
        )
    a = results["serial"]
    for other in BACKENDS[1:]:
        b = results[other]
        for p in range(len(a[0])):
            assert np.array_equal(a[0][p], b[0][p])  # ghosts bitwise
            assert np.array_equal(a[1][p], b[1][p])  # locals bitwise
        assert a[2] == b[2]  # aggregate traffic exact
        assert a[3] == b[3]  # individual messages, in order
        _assert_clocks_match(a[4], b[4])


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_ranks=st.integers(1, 6),
    max_per_rank=st.integers(0, 40),
    trailing=st.sampled_from([(), (2,)]),
)
def test_scatter_append_equivalence(seed, n_ranks, max_per_rank, trailing):
    rng0 = np.random.default_rng(seed)
    n_per = [int(v) for v in rng0.integers(0, max_per_rank + 1, n_ranks)]
    results = {}
    for backend in BACKENDS:
        rng = np.random.default_rng(seed + 1)
        m = Machine(n_ranks, record_messages=True)
        ctx = ExecutionContext.resolve(m, backend)
        dest = [rng.integers(0, n_ranks, c) for c in n_per]
        sched = build_lightweight_schedule(ctx, dest)
        m.reset_clocks()
        m.reset_traffic()
        vals = [rng.standard_normal((c,) + trailing) for c in n_per]
        ids = [np.arange(c, dtype=np.int64) + 1000 * p
               for p, c in enumerate(n_per)]
        out = scatter_append(ctx, sched, vals)
        out_multi = scatter_append_multi(ctx, sched, [ids, vals])
        results[backend] = (out, out_multi, m.traffic.snapshot(),
                            _clock_snapshots(m))
    a = results["serial"]
    for other in BACKENDS[1:]:
        b = results[other]
        for p in range(n_ranks):
            assert np.array_equal(a[0][p], b[0][p])
            assert a[0][p].dtype == b[0][p].dtype
            for k in range(2):
                assert np.array_equal(a[1][k][p], b[1][k][p])
                assert a[1][k][p].dtype == b[1][k][p].dtype
        assert a[2] == b[2]
        _assert_clocks_match(a[3], b[3])


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_ranks=st.integers(1, 6),
    n=st.integers(0, 60),
    trailing=st.sampled_from([(), (3,)]),
)
def test_remap_equivalence(seed, n_ranks, n, trailing):
    results = {}
    for backend in BACKENDS:
        rng = np.random.default_rng(seed)
        m = Machine(n_ranks, record_messages=True)
        old = IrregularDistribution(rng.integers(0, n_ranks, n), n_ranks)
        new = IrregularDistribution(rng.integers(0, n_ranks, n), n_ranks)
        ctx = ExecutionContext.resolve(m, backend)
        plan = remap(ctx, old, new)
        data = [rng.standard_normal((old.local_size(p),) + trailing)
                for p in range(n_ranks)]
        m.reset_clocks()
        m.reset_traffic()
        out = remap_array(ctx, plan, data)
        results[backend] = (out, m.traffic.snapshot(), _clock_snapshots(m))
    a = results["serial"]
    for other in BACKENDS[1:]:
        b = results[other]
        for p in range(n_ranks):
            assert np.array_equal(a[0][p], b[0][p])
            assert a[0][p].dtype == b[0][p].dtype
        assert a[1] == b[1]
        _assert_clocks_match(a[2], b[2])


def test_noncontiguous_inputs_fall_back_and_match(rng):
    """Strided views can't use the flat path; results must still match."""
    m = Machine(4, record_messages=True)
    rt = ChaosRuntime(m)
    tt = rt.irregular_table(rng.integers(0, 4, 30))
    x = rt.distribute(rng.standard_normal((30, 6)), tt)
    strided = [a[:, ::2] for a in x.local]
    rt.hash_indirection(tt, split_by_block(rng.integers(0, 30, 60), m), "s")
    sched = rt.build_schedule(tt, "s")
    g_serial = gather(ExecutionContext.resolve(m, "serial"), sched, strided)
    g_vec = gather(ExecutionContext.resolve(m, "vectorized"), sched, strided)
    for p in range(4):
        assert np.array_equal(g_serial[p], g_vec[p])


def test_integer_data_equivalence(rng):
    m_s, m_v = Machine(4), Machine(4)
    out = {}
    for backend, m in (("serial", m_s), ("vectorized", m_v)):
        rng2 = np.random.default_rng(3)
        rt = ChaosRuntime(ExecutionContext.resolve(m, backend))
        tt = rt.irregular_table(rng2.integers(0, 4, 25))
        x = rt.distribute(rng2.integers(0, 1000, 25).astype(np.int32), tt)
        rt.hash_indirection(tt, split_by_block(rng2.integers(0, 25, 40), m),
                            "s")
        sched = rt.build_schedule(tt, "s")
        out[backend] = rt.gather(sched, x)
    for p in range(4):
        assert np.array_equal(out["serial"][p], out["vectorized"][p])
        assert out["serial"][p].dtype == out["vectorized"][p].dtype


# ---------------------------------------------------------------------
# registry behaviour
# ---------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered(self):
        assert available_backends() == ("serial", "vectorized")

    def test_get_backend_instances(self):
        assert isinstance(get_backend("serial"), SerialBackend)
        assert isinstance(get_backend("vectorized"), VectorizedBackend)
        assert get_backend("serial") is get_backend("serial")

    def test_one_executor_path(self):
        """Transport is ``run_stage`` and nothing else: no per-primitive
        method on the compiled-plan backends."""
        primitives = {"gather", "scatter", "scatter_append",
                      "scatter_append_multi", "remap_array"}
        assert "run_stage" in Backend.__abstractmethods__
        assert not primitives & Backend.__abstractmethods__
        assert not primitives & set(vars(VectorizedBackend))
        # the serial reference keeps them; append only in the multi form
        assert primitives - set(vars(SerialBackend)) == {"scatter_append"}

    def test_one_flat_kernel(self):
        """No per-rank kernel beside the flat one: the executor runs
        ``fused_apply`` over one whole-machine move."""
        import inspect
        import pathlib

        import repro
        from repro.core.backends import vectorized

        src = pathlib.Path(repro.__file__).parent
        assert not [p for p in src.rglob("*.py")
                    if "apply_rank" in p.read_text()]
        assert list(inspect.signature(vectorized.fused_apply).parameters) \
            == ["move"]

    def test_unknown_backend_rejected(self):
        with pytest.raises(KeyError):
            get_backend("quantum")

    def test_resolve_variants(self):
        be = get_backend("serial")
        assert resolve_backend(be) is be
        assert resolve_backend("serial") is be
        assert isinstance(resolve_backend(None), Backend)
        with pytest.raises(TypeError):
            resolve_backend(42)

    def test_vectorized_is_default(self, monkeypatch):
        # absent an explicit choice (env var), the compiled-plan
        # backend is the default
        import repro.core.backends.base as base
        monkeypatch.delenv(base.BACKEND_ENV_VAR, raising=False)
        assert default_backend().name == "vectorized"


class TestExchangeCompiled:
    def test_counts_shape_validated(self):
        m = Machine(3)
        with pytest.raises(ValueError):
            m.exchange_compiled(np.zeros((2, 2)), 8)

    def test_negative_counts_rejected(self):
        m = Machine(2)
        with pytest.raises(ValueError):
            m.exchange_compiled(np.array([[0, -1], [0, 0]]), 8)

    def test_matches_alltoallv_charges(self):
        """Flat accounting equals nested alltoallv for the same payloads."""
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 9, (4, 4))
        m1 = Machine(4, record_messages=True)
        payload = [
            [rng.standard_normal(int(counts[p, q])) if counts[p, q] else None
             for q in range(4)]
            for p in range(4)
        ]
        m1.alltoallv(payload, tag="t")
        m2 = Machine(4, record_messages=True)
        m2.exchange_compiled(counts, 8, tag="t")
        assert m1.traffic.snapshot() == m2.traffic.snapshot()
        assert m1.traffic.messages == m2.traffic.messages
        for c1, c2 in zip(m1.clocks, m2.clocks):
            assert c1.time == pytest.approx(c2.time, rel=1e-12)


def _charge_afresh(machine, stage, n_cols, row_bytes, category):
    """A stage's charges derived on every call, through
    ``exchange_compiled`` and the machine's array charges."""
    plan, kind = stage.plan, stage.kind
    counts = plan.counts
    packed, placed = np.diff(plan.send_base), np.diff(plan.recv_base)
    if kind == "append":
        placed = placed - counts.diagonal()
    if kind == "scatter":
        packed, placed, counts = placed, packed, counts.T
    machine.charge_copyops_vec(n_cols * packed, category,
                               mask=None if kind == "append" else packed > 0)
    machine.exchange_compiled(
        counts, row_bytes, category=category,
        tag={"append": "scatter_append", "remap": "remap_data"}.get(kind,
                                                                    kind))
    machine.charge_copyops_vec(n_cols * placed, category, mask=placed > 0)


class TestStageChargeCache:
    """The vectorized executor derives a stage's charges once per plan,
    kind, columns, row bytes, cost model and topology; charging from
    that cache must equal deriving them on every call, exactly."""

    N_CALLS = 3

    @staticmethod
    def _plans(seed=5, n_ranks=4, n=70):
        rng = np.random.default_rng(seed)
        m = Machine(n_ranks)
        rt = ChaosRuntime(m)
        tt = rt.irregular_table(rng.integers(0, n_ranks, n))
        x = rt.distribute(rng.standard_normal(n), tt)
        x3 = rt.distribute(rng.standard_normal((n, 3)), tt)
        rt.hash_indirection(tt, split_by_block(rng.integers(0, n, 160), m),
                            "s")
        sched = rt.build_schedule(tt, "s")
        plan = remap(rt.ctx, tt.dist, rt.irregular_table(
            rng.integers(0, n_ranks, n)).dist)
        lw = build_lightweight_schedule(
            rt.ctx, [rng.integers(0, n_ranks, c)
                     for c in rng.integers(0, 9, n_ranks)])
        cols = [[rng.standard_normal(c) for c in lw.send_base[1:]
                 - lw.send_base[:-1]]]
        return sched, plan, lw, cols, x, x3

    def _observe(self, machine, sched, plan, lw, cols, x, x3):
        ctx = ExecutionContext.resolve(machine, "vectorized")
        x, x3 = [a.copy() for a in x.local], [a.copy() for a in x3.local]
        out = []
        for _ in range(self.N_CALLS):
            g, g3 = gather(ctx, sched, x), gather(ctx, sched, x3)
            scatter(ctx, sched, x, g)
            scatter_op(ctx, sched, x3, g3, np.add)
            scatter_op(ctx, sched, x, g, np.maximum)
            out += remap_array(ctx, plan, x3)
            out += scatter_append_multi(ctx, lw, cols)[0]
        clocks = machine.clocks
        return ([a.tobytes() for a in x + x3 + out],
                clocks.time.tobytes(),
                {name: (v.tobytes(), c.tobytes())
                 for name, (v, c) in clocks._cats.items()},
                machine.traffic.snapshot(), list(machine.traffic.messages))

    def test_cached_charges_equal_fresh_ones(self, monkeypatch):
        plans = self._plans()
        with monkeypatch.context() as mp:
            mp.setattr(VectorizedBackend, "_charge_stage",
                       staticmethod(_charge_afresh))
            ref = self._observe(Machine(4, record_messages=True), *plans)
        assert not plans[0]._charges   # nothing cached yet
        got = self._observe(Machine(4, record_messages=True), *plans)
        assert got == ref
        # gather, scatter at k=1 and k=3; scatter_op(np.maximum) shares
        # the k=1 scatter entry
        assert len(plans[0]._charges) == 4

    @pytest.mark.parametrize("machine_kw", [
        {"cost_model": PARAGON}, {"topology": FullCrossbar(4)}],
        ids=["cost_model", "topology"])
    def test_one_plan_charges_each_machine_its_own_costs(
            self, machine_kw, monkeypatch):
        plans = self._plans()
        self._observe(Machine(4), *plans)   # the caches hold this machine
        with monkeypatch.context() as mp:
            mp.setattr(VectorizedBackend, "_charge_stage",
                       staticmethod(_charge_afresh))
            ref = self._observe(Machine(4, record_messages=True,
                                        **machine_kw), *plans)
        got = self._observe(Machine(4, record_messages=True, **machine_kw),
                            *plans)
        assert got == ref
        assert got != self._observe(Machine(4, record_messages=True),
                                    *plans)
