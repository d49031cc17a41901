"""Backend equivalence of the executor primitives, and the backend set.

The oracle (``tests/oracle.py``) runs each workload below on every
backend, on randomized schedules and on hand-built plans no inspector
builds: gather, scatter, scatter_op (add and maximum),
scatter_append(_multi) and remap_array, on 1-D and 2-D data, integer
data and strided views; remaps and appends also against references
computed from the global data alone.  ``test_fused.py`` runs the same
collectives as ``run_pipeline`` chains.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BlockDistribution,
    ChaosRuntime,
    CommPlan,
    CyclicDistribution,
    ExecutionContext,
    IrregularDistribution,
    PipelinePhase,
    append_phase,
    available_backends,
    build_lightweight_schedule,
    default_backend,
    gather,
    gather_phase,
    get_backend,
    remap,
    remap_array,
    resolve_backend,
    scatter,
    scatter_append,
    scatter_append_multi,
    scatter_op,
    scatter_op_phase,
    scatter_phase,
    split_by_block,
)
from repro.core.backends import Backend, SerialBackend, VectorizedBackend
from repro.core.compiled import offsets_from_counts
from repro.sim import PARAGON, FullCrossbar, Machine

from oracle import append_reference, check, remap_reference, schedule_env


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_ranks=st.integers(1, 6),
    n=st.integers(1, 80),
    n_ref=st.integers(0, 200),
    trailing=st.sampled_from([(), (3,)]),
)
def test_gather_scatter_equivalence(seed, n_ranks, n, n_ref, trailing):
    def workload(run):
        _, x, sched = schedule_env(run, seed, n, n_ref, trailing)
        ghosts = gather(run.ctx, sched, x.local)
        scatter_op(run.ctx, sched, x.local, [1.5 * g + 0.25 for g in ghosts],
                   np.add)
        scatter_op(run.ctx, sched, x.local, [2.0 * g for g in ghosts],
                   np.maximum)
        scatter(run.ctx, sched, x.local, [0.5 * g for g in ghosts])
        return ghosts, x.local

    check(workload, n_ranks)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_ranks=st.integers(1, 6),
    max_per_rank=st.integers(0, 40),
    trailing=st.sampled_from([(), (2,)]),
)
def test_scatter_append_equivalence(seed, n_ranks, max_per_rank, trailing):
    n_per = np.random.default_rng(seed).integers(0, max_per_rank + 1,
                                                 n_ranks)

    def workload(run):
        rng = np.random.default_rng(seed + 1)
        sched = build_lightweight_schedule(
            run.ctx, [rng.integers(0, n_ranks, c) for c in n_per])
        vals = [rng.standard_normal((c,) + trailing) for c in n_per]
        ids = [np.arange(c, dtype=np.int64) + 1000 * p
               for p, c in enumerate(n_per)]
        return run.stages(append_phase(sched, vals),
                          PipelinePhase("append", sched, [ids, vals]))

    check(workload, n_ranks, chain=True)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_ranks=st.integers(1, 6),
    n=st.integers(0, 60),
    trailing=st.sampled_from([(), (3,)]),
)
def test_remap_equivalence(seed, n_ranks, n, trailing):
    def workload(run):
        rng = np.random.default_rng(seed)
        old = IrregularDistribution(rng.integers(0, n_ranks, n), n_ranks)
        new = IrregularDistribution(rng.integers(0, n_ranks, n), n_ranks)
        plan = remap(run.ctx, old, new)
        return remap_array(run.ctx, plan, [
            rng.standard_normal((old.local_size(p),) + trailing)
            for p in range(n_ranks)])

    check(workload, n_ranks)


_DISTRIBUTIONS = ("block", "cyclic", "irregular")


def _distribution(kind, n, n_ranks, rng):
    """A ``kind`` distribution of ``n`` elements; an irregular one leaves
    its last rank empty half the time."""
    if kind == "block":
        return BlockDistribution(n, n_ranks)
    if kind == "cyclic":
        return CyclicDistribution(n, n_ranks)
    top = n_ranks - 1 if n_ranks > 1 and rng.integers(0, 2) else n_ranks
    return IrregularDistribution(rng.integers(0, top, n), n_ranks)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_ranks=st.integers(1, 5),
    n=st.integers(0, 50),
    kinds=st.tuples(st.sampled_from(_DISTRIBUTIONS),
                    st.sampled_from(_DISTRIBUTIONS)),
    trailing=st.sampled_from([(), (2,)]),
)
def test_remap_and_append_match_the_global_reference(seed, n_ranks, n,
                                                     kinds, trailing):
    """A remap and an append equal what the global data alone says they
    yield (``oracle.remap_reference`` / ``append_reference``), on every
    backend: a wrong stored order fails here even if both backends
    share it.  Empty ranks come from small Block/Cyclic arrays, from
    the irregular owner draw, and as append receivers (the last rank
    receives nothing half the time)."""
    def workload(run):
        rng = np.random.default_rng(seed)
        old, new = (_distribution(k, n, n_ranks, rng) for k in kinds)
        x = rng.standard_normal((n,) + trailing)
        local = np.split(x[old.layout.order], old.layout.starts[1:-1])
        moved = remap_array(run.ctx, remap(run.ctx, old, new), local)
        for got, want in zip(moved, remap_reference(x, new), strict=True):
            assert np.array_equal(got, want)
        top = n_ranks - 1 if n_ranks > 1 and rng.integers(0, 2) else n_ranks
        dest = [rng.integers(0, top, a.shape[0]) for a in local]
        appended = scatter_append(
            run.ctx, build_lightweight_schedule(run.ctx, dest), local)
        for got, want in zip(appended, append_reference(local, dest),
                             strict=True):
            assert np.array_equal(got, want)
        return moved, appended

    check(workload, n_ranks)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n_ranks=st.integers(1, 4))
def test_hand_built_plans_equal_serial(seed, n_ranks):
    """Plans no inspector builds: repeated send rows inside a segment,
    each receiver's sources interleaved at random over a random subset
    of its ghost slots, and spare slots no source fills.  Values span
    sixteen decades, so a fold in another order shows in the bits."""
    rng = np.random.default_rng(seed)
    n_local = rng.integers(1, 4, n_ranks)
    counts = rng.integers(0, 4, (n_ranks, n_ranks))
    np.fill_diagonal(counts, 0)
    recv = counts.sum(axis=0)
    extent = recv + rng.integers(0, 2, n_ranks)
    owners = np.concatenate([
        rng.permutation(np.repeat(np.arange(n_ranks), counts[:, q]))
        for q in range(n_ranks)])
    rows = (offsets_from_counts(n_local)[owners]
            + rng.integers(0, n_local[owners]))
    slots = np.concatenate([
        start + np.sort(rng.permutation(e)[:r])
        for start, e, r in zip(offsets_from_counts(extent), extent, recv)])

    def values(rng, sizes):
        return [rng.standard_normal(s) * 10.0 ** rng.integers(-8, 9, s)
                for s in sizes]

    def workload(run):
        rng = np.random.default_rng(seed + 1)
        sched = CommPlan.from_slot_order(counts, rows, slots, extent,
                                         n_local)
        data, ghosts = values(rng, n_local), values(rng, extent)
        gathered, *_ = run.stages(
            gather_phase(sched, data),
            scatter_op_phase(sched, data, ghosts),
            scatter_op_phase(sched, data, ghosts, np.maximum),
            scatter_phase(sched, data, ghosts))
        return gathered, data

    check(workload, n_ranks, chain=True)


def test_noncontiguous_inputs_fall_back_and_match():
    """Strided views can't use the flat path; results must still match."""
    def workload(run):
        _, x, sched = schedule_env(run, 0, 30, 60, (6,))
        return gather(run.ctx, sched, [a[:, ::2] for a in x.local])

    check(workload)


def test_integer_data_equivalence():
    def workload(run):
        rng = np.random.default_rng(3)
        rt, x, sched = schedule_env(run, 3, 25, 40)
        x = rt.distribute(rng.integers(0, 1000, 25).astype(np.int32),
                          x.ttable)
        return rt.gather(sched, x)

    check(workload)


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

    def copy(ops, mask):
        machine.clocks.advance(
            machine._vec_seconds(machine.cost_model.copyop, ops), category,
            mask)

    copy(n_cols * packed, None if kind == "append" else packed > 0)
    machine.exchange_compiled(
        counts, row_bytes, category=category,
        tag={"append": "scatter_append", "remap": "remap_data"}.get(kind,
                                                                    kind))
    copy(n_cols * placed, placed > 0)


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
        def machine():
            kw = dict(machine_kw)
            topology = kw.pop("topology", None)
            m = Machine(4, record_messages=True, **kw)
            if topology is not None:   # the constructor picks a hypercube
                m.topology = topology
            return m

        plans = self._plans()
        self._observe(Machine(4), *plans)   # the caches hold this machine
        with monkeypatch.context() as mp:
            mp.setattr(VectorizedBackend, "_charge_stage",
                       staticmethod(_charge_afresh))
            ref = self._observe(machine(), *plans)
        got = self._observe(machine(), *plans)
        assert got == ref
        assert got != self._observe(Machine(4, record_messages=True),
                                    *plans)
