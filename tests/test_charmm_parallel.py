"""Integration tests: CHAOS-parallel CHARMM vs the sequential oracle."""

import hashlib

import numpy as np
import pytest
from conftest import ALL_BACKENDS

from repro.apps.charmm import ParallelMD, SequentialMD, build_small_system
from repro.core import ExecutionContext
from repro.core.compiled import as_arena
from repro.core.distribution import block_sizes
from repro.partitioners import RCB, RIB, Partitioner, PartitionResult
from repro.sim import Machine


class BlockPartitioner(Partitioner):
    """Naive BLOCK, the paper's §4.1 baseline: contiguous index blocks,
    blind to geometry and load, at one small message of parallel cost."""

    name = "block"

    def partition(self, coords, n_parts, weights=None):
        c, _ = self._validate(coords, n_parts, weights)
        labels = np.repeat(np.arange(n_parts), block_sizes(len(c), n_parts))
        return PartitionResult(labels=labels, n_parts=n_parts)

    def parallel_cost(self, n_elements, n_parts, machine):
        return 0.0, machine.cost_model.message_time(16)


def run_pair(n_atoms=200, n_ranks=4, steps=8, update_every=3, seed=7, **kw):
    sys_seq = build_small_system(n_atoms, seed=seed)
    sys_par = sys_seq.copy()
    seq = SequentialMD(sys_seq, dt=0.002, update_every=update_every)
    seq.run(steps)
    m = Machine(n_ranks)
    par = ParallelMD(sys_par, m, dt=0.002, update_every=update_every, **kw)
    par.run(steps)
    return seq, par, m


class TestOracle:
    def test_trajectory_matches_rcb(self):
        seq, par, m = run_pair()
        err = np.abs(par.global_positions() - seq.system.positions).max()
        assert err < 1e-9

    def test_trajectory_matches_rib(self):
        seq, par, m = run_pair(partitioner=RIB())
        err = np.abs(par.global_positions() - seq.system.positions).max()
        assert err < 1e-9

    def test_velocities_match(self):
        seq, par, m = run_pair()
        err = np.abs(par.global_velocities() - seq.system.velocities).max()
        assert err < 1e-9

    def test_energy_traces_match(self):
        seq, par, m = run_pair()
        assert np.allclose(seq.trace.potential_energy,
                           par.trace.potential_energy, rtol=1e-9)
        assert np.allclose(seq.trace.kinetic_energy,
                           par.trace.kinetic_energy, rtol=1e-9)

    def test_nb_update_cadence_matches(self):
        seq, par, m = run_pair(steps=10, update_every=4)
        assert seq.trace.nb_list_updates == par.trace.nb_list_updates
        assert seq.trace.nb_pairs_history == par.trace.nb_pairs_history

    def test_multiple_schedule_mode_correct(self):
        seq, par, m = run_pair(schedule_mode="multiple")
        err = np.abs(par.global_positions() - seq.system.positions).max()
        assert err < 1e-9

    def test_single_rank(self):
        seq, par, m = run_pair(n_ranks=1, steps=5)
        err = np.abs(par.global_positions() - seq.system.positions).max()
        assert err < 1e-9

    def test_block_partitioner_still_correct(self):
        seq, par, m = run_pair(partitioner=BlockPartitioner())
        err = np.abs(par.global_positions() - seq.system.positions).max()
        assert err < 1e-9


class TestPaperEffects:
    def test_merged_schedules_cut_communication(self):
        """Table 3: merged < multiple on communication time."""
        _, _, m_merged = run_pair(schedule_mode="merged", seed=5)
        _, _, m_multi = run_pair(schedule_mode="multiple", seed=5)
        assert m_multi.clocks.mean_category("comm") > \
            m_merged.clocks.mean_category("comm")

    def test_schedule_regen_cheaper_than_initial_generation(self):
        """Table 2 shape: with hash-table reuse, per-update regeneration
        should not dwarf initial generation."""
        seq, par, m = run_pair(steps=13, update_every=3)
        regen_total = m.clocks.mean_category("schedule_regen")
        n_regens = par.trace.nb_list_updates - 1
        assert n_regens >= 3
        initial = m.clocks.mean_category("inspector")
        assert regen_total / n_regens < initial * 2.0

    def test_spatial_partitioner_beats_block_on_execution_time(self):
        """§4.1: spatial+load partitioners 'perform significantly better
        than naive BLOCK' — the win comes mostly from load balance."""
        _, par_rcb, m_rcb = run_pair(n_atoms=1000, seed=9, steps=3, n_ranks=8)
        _, par_blk, m_blk = run_pair(n_atoms=1000, seed=9, steps=3, n_ranks=8,
                                     partitioner=BlockPartitioner())
        assert m_rcb.execution_time() < m_blk.execution_time()
        assert par_rcb.load_balance() < par_blk.load_balance()

    def test_load_balance_reasonable(self):
        _, par, _ = run_pair(steps=6)
        lb = par.load_balance()
        assert 1.0 <= lb < 1.8

    def test_time_report_keys(self):
        _, par, _ = run_pair(steps=4)
        rep = par.time_report()
        for key in ("execution", "computation", "communication",
                    "partition", "remap", "nb_update", "inspector",
                    "schedule_regen", "load_balance"):
            assert key in rep
        assert rep["execution"] >= rep["computation"]


class TestPinnedSimulatedCost:
    """Virtual time, messages, bytes and the sha256 of the trajectory and
    both energy traces of one small run on one RCB partition, recorded at
    e2c7a04, the last commit with a repartition path, on both backends:
    the force step may get faster on the host, its bits and its
    simulated cost may not move."""

    @staticmethod
    def sha(a):
        return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_merged_schedule_mode(self, backend):
        m = Machine(4)
        md = ParallelMD(build_small_system(200, seed=7),
                        ExecutionContext.resolve(m, backend), dt=0.002,
                        update_every=3, partitioner=RCB())
        md.run(8)
        assert m.execution_time() == pytest.approx(0.11949697000000024,
                                                   rel=1e-12)
        assert m.traffic.n_messages == 500
        assert m.traffic.total_bytes == 319232
        assert md.trace.nb_pairs_history == [4011, 3581, 3493]
        assert [self.sha(a) for a in (
            md.global_positions(), md.global_velocities(),
            np.asarray(md.trace.potential_energy),
            np.asarray(md.trace.kinetic_energy),
        )] == [
            "32132885e8ac7edea89b19e0fa55e42725d53e807802ff539e07ababd99229eb",
            "2a7dfb0cc1372867bb9f4867022bca17ade24f45b545870880c38625e95d253a",
            "5eca9364a0221ce7c658dbc9d972893bb9d80117a979ceaa5b339dc6370fa6be",
            "dc1289a5fbb1e7aaaa7f26e70ca15e745f087053daa8ecb80d1e6a4951bce48b",
        ]

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_multiple_schedule_mode(self, backend):
        """The same run with one schedule per loop (Table 3's "multiple"
        mode)."""
        m = Machine(4)
        md = ParallelMD(build_small_system(200, seed=7),
                        ExecutionContext.resolve(m, backend), dt=0.002,
                        update_every=3, partitioner=RCB(),
                        schedule_mode="multiple")
        md.run(8)
        assert m.execution_time() == pytest.approx(0.13085933000000027,
                                                   rel=1e-12)
        assert m.traffic.n_messages == 716
        assert m.traffic.total_bytes == 333328
        assert md.trace.nb_pairs_history == [4011, 3581, 3493]
        assert [self.sha(a) for a in (
            md.global_positions(), md.global_velocities(),
            np.asarray(md.trace.potential_energy),
            np.asarray(md.trace.kinetic_energy),
        )] == [
            "46de1778fd5fac4015c8e37d8961df8a98b2d3b946e1de46845580639bd20314",
            "af8b61f18163ee5f80fad69ce9991d7c7ec5eeb4c802c356f5e23a38816061c7",
            "856049c0e4b894e01a7863d3cb31e0d882353eed232badb59b3f461347272bab",
            "f26d2618b1fcc132c25cd5aa2375474e56c5e2afe6e5089b9f1cd055dd64c822",
        ]


class TestInspectorWiring:
    """Phase E runs through ``IrregularReduction`` on the run's context."""

    @staticmethod
    def builds(md, loop):
        return md._runtime.cache_stats(loop.name).builds

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_two_runs_on_one_context_stay_apart(self, backend):
        """Two drivers sharing one context (and so one ScheduleCache)
        keep their own cache entries, and each matches its own run on a
        context of its own, refresh for refresh."""
        kw = [dict(update_every=3), dict(update_every=2,
                                         schedule_mode="multiple")]
        shared = ExecutionContext.resolve(Machine(4), backend)
        pair = [ParallelMD(build_small_system(200, seed=7 + k), shared,
                           **kw[k]) for k in range(2)]
        alone = [ParallelMD(build_small_system(200, seed=7 + k),
                            ExecutionContext.resolve(Machine(4), backend),
                            **kw[k]) for k in range(2)]
        for steps in (4, 3):
            for md in pair + alone:
                md.run(steps)
        names = [{lp.name for lp in (md._loop_b, md._loop_nb)}
                 for md in pair]
        assert not names[0] & names[1]
        for md, cold in zip(pair, alone):
            assert md.trace == cold.trace
            assert md.global_positions().tobytes() == \
                cold.global_positions().tobytes()
            for a, b in ((md._loop_b, cold._loop_b),
                         (md._loop_nb, cold._loop_nb)):
                assert md._runtime.cache_stats(a.name) == \
                    cold._runtime.cache_stats(b.name)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_refresh_rebuilds_only_the_nonbonded_loop(self, backend):
        md = ParallelMD(build_small_system(200, seed=7),
                        ExecutionContext.resolve(Machine(4), backend),
                        update_every=3, schedule_mode="multiple")
        bonded = md.sched_bonded
        md.run(10)
        n = md.trace.nb_list_updates - 1
        assert n == 3
        assert self.builds(md, md._loop_b) == 1
        assert self.builds(md, md._loop_nb) == 1 + n
        assert md.sched_bonded is bonded

    def test_apps_and_lang_do_not_import_the_inspector(self):
        """Layering: drivers and compiled programs reach the inspector
        through ``IrregularReduction`` only."""
        import ast
        import pathlib

        import repro

        root = pathlib.Path(repro.__file__).parent
        offenders = []
        for path in [*root.joinpath("apps").rglob("*.py"),
                     *root.joinpath("lang").rglob("*.py")]:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    mods = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    mods = [f"{node.module}.{a.name}" for a in node.names]
                    mods.append(node.module or "")
                else:
                    continue
                if any(m == "repro.core.inspector"
                       or m.startswith("repro.core.inspector.")
                       for m in mods):
                    offenders.append(str(path.relative_to(root)))
        assert offenders == []


@pytest.mark.parametrize("mode", ["merged", "multiple"])
@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_atoms_and_forces_stay_arenas(backend, mode):
    """The atom arrays and the forces are intact arenas after set-up
    (whose Phase-B remap chain builds them) and a list refresh, so
    integration and the host sync each run as one operation on the
    rank-major buffer."""
    md = ParallelMD(build_small_system(200, seed=7),
                    ExecutionContext.resolve(Machine(4), backend),
                    update_every=3, schedule_mode=mode)

    def assert_arenas():
        forces, _ = md._compute_forces()
        for x in (md.pos, md.vel, md.mass, md.charge, forces):
            assert as_arena(x) is x
        assert (forces.sizes == md.pos.sizes).all()

    assert_arenas()
    md.run(4)   # refreshes the list at step 3
    assert md.trace.nb_list_updates == 2
    assert_arenas()


def test_vectorized_run_never_falls_back_to_serial(monkeypatch):
    """Set-up (its Phase-B remap chain included), steps and a list
    refresh under ``vectorized`` hand no executor call to the serial
    reference (the bonded iteration blocks are split from columns of the
    bond array, which must still come out contiguous)."""
    from repro.core.backends.serial import SerialBackend

    def refuse(*args, **kwargs):
        raise AssertionError("vectorized run_stage fell back to serial")

    monkeypatch.setattr(SerialBackend, "run_stage", refuse)
    md = ParallelMD(build_small_system(200, seed=7),
                    ExecutionContext.resolve(Machine(4), "vectorized"),
                    dt=0.002, update_every=1)
    md.run(2)
    assert md.trace.nb_list_updates == 2


class TestValidation:
    def test_bad_schedule_mode(self):
        s = build_small_system(60, seed=0)
        with pytest.raises(ValueError):
            ParallelMD(s, Machine(2), schedule_mode="magic")

    def test_bad_update_every(self):
        s = build_small_system(60, seed=0)
        with pytest.raises(ValueError):
            ParallelMD(s, Machine(2), update_every=0)

    def test_negative_steps(self):
        s = build_small_system(60, seed=0)
        par = ParallelMD(s, Machine(2))
        with pytest.raises(ValueError):
            par.run(-1)
