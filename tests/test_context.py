"""ExecutionContext: resolution order, immutability, removal.

The context is the one carrier object for per-run state; these tests pin
down its contract:

* :meth:`ExecutionContext.resolve` default chain — explicit argument >
  process-wide runtime default > ``REPRO_BACKEND`` env > ``vectorized``;
* the carrier is frozen (fields cannot be rebound) while the services it
  carries stay shared across derived variants;
* the kwarg-era surface deprecated in PR 4 (machine-first signatures,
  ``backend=`` keywords, nested pair accessors, ``from_pair_lists``)
  is *gone* — the former shim call shapes now raise :class:`TypeError`;
* the backend set is exactly ``serial`` and ``vectorized``, and the two
  contexts stay *bitwise equal* end-to-end on the CHARMM and DSMC
  pipelines (results, traffic and clocks, through ``tests/oracle.py``).
"""

import dataclasses

import numpy as np
import pytest

from repro.apps.charmm import ParallelMD, build_small_system
from repro.apps.dsmc import CartesianGrid, DSMCConfig, ParallelDSMC
from repro.core import (
    ChaosRuntime,
    ExecutionContext,
    build_lightweight_schedule,
    gather,
    get_backend,
    split_by_block,
)
from repro.core.context import ensure_context
from repro.sim import Machine

from oracle import check

# ---------------------------------------------------------------------
# resolution order
# ---------------------------------------------------------------------
class TestResolutionOrder:
    def test_explicit_argument_wins(self, machine4, monkeypatch):
        import repro.core.backends.base as base
        monkeypatch.setenv(base.BACKEND_ENV_VAR, "serial")
        ctx = ExecutionContext.resolve(machine4, "vectorized")
        assert ctx.backend.name == "vectorized"

    def test_env_beats_builtin_default(self, machine4, monkeypatch):
        import repro.core.backends.base as base
        monkeypatch.setenv(base.BACKEND_ENV_VAR, "serial")
        ctx = ExecutionContext.resolve(machine4)
        assert ctx.backend.name == "serial"
        # a name outside the backend set fails loudly, listing the set
        for gone in ("multiprocess", "threaded"):
            monkeypatch.setenv(base.BACKEND_ENV_VAR, gone)
            with pytest.raises(KeyError,
                               match=r"\('serial', 'vectorized'\)"):
                ExecutionContext.resolve(machine4)

    def test_vectorized_is_final_fallback(self, machine4, monkeypatch):
        import repro.core.backends.base as base
        monkeypatch.delenv(base.BACKEND_ENV_VAR, raising=False)
        ctx = ExecutionContext.resolve(machine4)
        assert ctx.backend.name == "vectorized"

    def test_backend_instance_accepted(self, machine4):
        be = get_backend("serial")
        assert ExecutionContext.resolve(machine4, be).backend is be

    def test_context_passthrough(self, ctx4):
        assert ExecutionContext.resolve(ctx4) is ctx4
        assert ExecutionContext.resolve(ctx4, ctx4.backend.name) is ctx4

    def test_context_retarget_shares_services(self, ctx4):
        # pick whichever backend the fixture did NOT resolve to
        target = "serial" if ctx4.backend.name != "serial" else "vectorized"
        other = ExecutionContext.resolve(ctx4, target)
        assert other is not ctx4
        assert other.backend.name == target
        assert other.machine is ctx4.machine
        assert other.record is ctx4.record
        assert other.schedule_cache is ctx4.schedule_cache

    def test_unresolved_backend_rejected(self, machine4):
        with pytest.raises(KeyError):
            ExecutionContext.resolve(machine4, "quantum")
        with pytest.raises(TypeError):
            ExecutionContext.resolve(machine4, 42)
        with pytest.raises(TypeError):
            ExecutionContext.resolve("not a machine")

    def test_context_plus_service_overrides_rejected(self, ctx4):
        # silently dropping the override would be worse than an error
        for service in ("seed", "record", "schedule_cache"):
            with pytest.raises(TypeError):
                ExecutionContext.resolve(ctx4, **{service: None})


# ---------------------------------------------------------------------
# immutability + services
# ---------------------------------------------------------------------
class TestCarrier:
    def test_frozen(self, ctx4):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctx4.backend = get_backend("serial")
        with pytest.raises(dataclasses.FrozenInstanceError):
            ctx4.record = None
        with pytest.raises(dataclasses.FrozenInstanceError):
            del ctx4.machine

    def test_requires_resolved_backend(self, machine4):
        with pytest.raises(TypeError):
            ExecutionContext(machine=machine4, backend="serial")

    def test_services_constructed_and_linked(self, ctx4):
        assert ctx4.schedule_cache.record is ctx4.record

    def test_with_backend_shares_services(self, machine4):
        ctx = ExecutionContext.resolve(machine4)
        serial = ctx.with_backend("serial")
        assert serial.backend.name == "serial"
        assert serial.record is ctx.record
        assert serial.schedule_cache is ctx.schedule_cache

    def test_machine_conveniences(self, ctx4, machine4):
        assert ctx4.n_ranks == 4
        assert ctx4.clocks is machine4.clocks
        assert ctx4.traffic is machine4.traffic

    def test_runtime_exposes_context_services(self, ctx4):
        rt = ChaosRuntime(ctx4)
        assert rt.ctx is ctx4
        assert rt.machine is ctx4.machine
        assert rt.schedule_cache is ctx4.schedule_cache
        assert rt.modification_record is ctx4.record
        # close() releases nothing: the context stays usable
        rt.close()
        table = ChaosRuntime(ctx4).irregular_table(np.zeros(8, dtype=int))
        assert table.dist.n_global == 8


# ---------------------------------------------------------------------
# the kwarg-era surface is gone
# ---------------------------------------------------------------------
class TestRemovedLegacySurface:
    def _small_schedule(self, rt, rng, n=12, refs=20):
        tt = rt.irregular_table(rng.integers(0, 4, n))
        rt.hash_indirection(tt, split_by_block(rng.integers(0, n, refs),
                                               rt.machine), "s")
        return tt, rt.build_schedule(tt, "s")

    def test_machine_first_primitive_rejected(self, machine4, rng):
        dest = [rng.integers(0, 4, 6) for _ in range(4)]
        with pytest.raises(TypeError, match="ExecutionContext"):
            build_lightweight_schedule(machine4, dest)

    def test_backend_kwarg_rejected_on_primitives(self, ctx4, rng):
        rt = ChaosRuntime(ctx4)
        tt, sched = self._small_schedule(rt, rng)
        x = rt.distribute(rng.standard_normal(12), tt)
        with pytest.raises(TypeError):
            gather(ctx4, sched, x.local, backend="serial")
        with pytest.raises(TypeError):
            gather(ctx4.machine, sched, x.local)

    def test_constructor_backend_kwarg_rejected(self, machine4):
        with pytest.raises(TypeError):
            ChaosRuntime(machine4, backend="serial")

    def test_ensure_context_rejects_junk(self):
        with pytest.raises(TypeError, match="first argument"):
            ensure_context([1, 2, 3], who="gather")

    def test_legacy_dereference_signatures_rejected(self, machine4, rng):
        rt = ChaosRuntime(machine4)
        tt = rt.irregular_table(rng.integers(0, 4, 10))
        # pre-context queries-first shapes, with/without positional
        # category and backend: all gone
        with pytest.raises(TypeError):
            tt.dereference([np.array([1, 2])] + [None] * 3)
        with pytest.raises(TypeError):
            tt.dereference([np.arange(4)] * 4, "remap")
        with pytest.raises(TypeError):
            tt.dereference([np.arange(4)] * 4, "remap", get_backend("serial"))

    def test_nested_pair_accessors_gone(self, ctx4, rng):
        from repro.core import (
            BlockDistribution,
            LightweightSchedule,
            RemapPlan,
            Schedule,
            remap,
        )

        rt = ChaosRuntime(ctx4)
        tt, sched = self._small_schedule(rt, rng, n=16, refs=30)
        plan = remap(ctx4, BlockDistribution(8, 4), BlockDistribution(8, 4))
        dest = [rng.integers(0, 4, 5) for _ in range(4)]
        lw = build_lightweight_schedule(ctx4, dest)
        for obj in (sched, plan, lw):
            assert not hasattr(obj, "send_pairs")
        assert not hasattr(sched, "recv_pairs")
        assert not hasattr(plan, "place_pairs")
        for cls in (Schedule, LightweightSchedule, RemapPlan):
            assert not hasattr(cls, "from_pair_lists")

    def test_program_instances_sharing_ctx_do_not_cross_hit(self, ctx4):
        # two different programs on ONE context: loop ids are
        # program-relative, so the shared ScheduleCache must be scoped
        # per instance or instance B would reuse A's schedules
        from repro.lang.program import ProgramInstance, compile_program

        src_a = """
        DECOMPOSITION reg(8)
        REAL x(8), y(8)
        INTEGER ia(8)
        ALIGN x, y WITH reg
        DISTRIBUTE reg(BLOCK)
        FORALL i = 1, 8
          REDUCE(SUM, x(ia(i)), y(i))
        END FORALL
        """
        src_b = src_a.replace("reg(8)", "reg(16)") \
                     .replace("x(8), y(8)", "x(16), y(16)") \
                     .replace("ia(8)", "ia(16)") \
                     .replace("i = 1, 8", "i = 1, 16")
        ia_a = np.arange(8, dtype=np.int64)[::-1] + 1
        ia_b = np.arange(16, dtype=np.int64)[::-1] + 1
        a = ProgramInstance(compile_program(src_a), ctx4,
                            dict(ia=ia_a, y=np.ones(8)))
        b = ProgramInstance(compile_program(src_b), ctx4,
                            dict(ia=ia_b, y=np.ones(16)))
        a.execute()
        b.execute()
        # rerun A's loop directly: with unscoped keys this would hit B's
        # cached 16-element schedule and fail (or silently corrupt)
        a.run_loop(a.compiled.loop_ids()[0])
        assert np.allclose(a.get_array("x"), 2 * np.ones(8))
        assert np.allclose(b.get_array("x"), np.ones(16))

    def test_dereference_foreign_machine_rejected(self, machine4, rng):
        rt = ChaosRuntime(machine4)
        tt = rt.irregular_table(rng.integers(0, 4, 10))
        foreign = ExecutionContext.resolve(Machine(4))
        with pytest.raises(ValueError, match="machine"):
            tt.dereference(foreign, [None] * 4)

    def test_runtime_cache_stats_mirror(self, ctx4):
        # ChaosRuntime and ProgramInstance report ScheduleCache counters
        # through the same CacheStats record
        rt = ChaosRuntime(ctx4)
        st = rt.cache_stats("nope")
        assert (st.hits, st.builds) == (0, 0)
        rt.schedule_cache.get_or_build("loop", (), lambda: 1)
        rt.schedule_cache.get_or_build("loop", (), lambda: 1)
        st = rt.cache_stats("loop")
        assert (st.hits, st.builds) == (1, 1)


# ---------------------------------------------------------------------
# serial / vectorized contexts bitwise-equal end-to-end
# ---------------------------------------------------------------------
class TestEndToEndEquivalence:
    def test_charmm_pipeline_bitwise(self):
        def workload(run):
            md = ParallelMD(build_small_system(120, seed=3), run.ctx,
                            dt=0.002, update_every=3)
            md.run(6)
            return md.global_positions(), md.global_velocities()

        check(workload)

    def test_dsmc_pipeline_bitwise(self):
        def workload(run):
            par = ParallelDSMC(CartesianGrid((8, 8)), run.ctx,
                               DSMCConfig(n_initial=400, inflow_rate=20,
                                          dt=0.4))
            par.run(8)
            return par.canonical_state()

        check(workload)

