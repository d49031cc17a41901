"""Integration tests: parallel DSMC vs the sequential oracle (bitwise)."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ALL_BACKENDS, count_calls
from repro.apps.dsmc import (
    CartesianGrid,
    DSMCConfig,
    FlowConfig,
    ParallelDSMC,
    SequentialDSMC,
    collide_cells,
)
from repro.apps.dsmc import parallel as parallel_module
from repro.core import ExecutionContext
from repro.partitioners import RCB, ChainPartitioner
from repro.sim import Machine


def run_pair(grid_shape=(10, 10), n_ranks=4, steps=10, n_initial=600,
             inflow=25, migration="lightweight", **kw):
    grid = CartesianGrid(grid_shape)
    cfg = DSMCConfig(n_initial=n_initial, inflow_rate=inflow, dt=0.4)
    seq = SequentialDSMC(grid, cfg)
    seq.run(steps)
    m = Machine(n_ranks)
    par = ParallelDSMC(
        grid, m, DSMCConfig(n_initial=n_initial, inflow_rate=inflow, dt=0.4),
        migration=migration, **kw
    )
    par.run(steps)
    return seq, par, m


def assert_states_equal(seq, par):
    a = seq.canonical_state()
    b = par.canonical_state()
    assert np.array_equal(a[0], b[0]), "particle id sets differ"
    assert np.array_equal(a[1], b[1]), "positions differ"
    assert np.array_equal(a[2], b[2]), "velocities differ"


class TestOracle:
    def test_lightweight_bitwise_match(self):
        seq, par, _ = run_pair(migration="lightweight")
        assert_states_equal(seq, par)

    def test_regular_bitwise_match(self):
        seq, par, _ = run_pair(migration="regular")
        assert_states_equal(seq, par)

    def test_3d_match(self):
        seq, par, _ = run_pair(grid_shape=(5, 5, 5), n_ranks=8, steps=6)
        assert_states_equal(seq, par)

    def test_single_rank(self):
        seq, par, _ = run_pair(n_ranks=1, steps=5)
        assert_states_equal(seq, par)

    def test_with_initial_partitioner(self):
        seq, par, _ = run_pair(partitioner=RCB())
        assert_states_equal(seq, par)

    def test_with_periodic_remapping(self):
        grid = CartesianGrid((10, 10))
        cfg = DSMCConfig(n_initial=600, inflow_rate=25, dt=0.4)
        seq = SequentialDSMC(grid, cfg)
        seq.run(12)
        m = Machine(4)
        par = ParallelDSMC(grid, m,
                           DSMCConfig(n_initial=600, inflow_rate=25, dt=0.4))
        par.run(12, remap_every=4,
                remap_partitioner=ChainPartitioner(axis=0))
        assert_states_equal(seq, par)

    def test_collision_counts_match(self):
        seq, par, _ = run_pair()
        assert seq.trace.n_collisions == par.trace.n_collisions
        assert seq.trace.n_particles == par.trace.n_particles


class TestPaperEffects:
    def test_lightweight_beats_regular(self):
        """Table 4: light-weight schedules are much cheaper."""
        _, _, m_lw = run_pair(migration="lightweight", steps=8)
        _, _, m_reg = run_pair(migration="regular", steps=8)
        assert m_lw.execution_time() < m_reg.execution_time()
        # the gap comes from the inspector side (translation/permutation)
        assert m_lw.clocks.mean_category("inspector") < \
            m_reg.clocks.mean_category("inspector")

    def test_remapping_restores_balance(self):
        """Table 5: with directional flow, periodic remapping keeps load
        balance far better than a static partition."""
        grid = CartesianGrid((16, 8))
        cfg = lambda: DSMCConfig(n_initial=800, inflow_rate=60, dt=0.4)  # noqa: E731
        m_static = Machine(8)
        par_static = ParallelDSMC(grid, m_static, cfg())
        par_static.run(20)
        m_remap = Machine(8)
        par_remap = ParallelDSMC(grid, m_remap, cfg())
        par_remap.run(20, remap_every=5,
                      remap_partitioner=ChainPartitioner(axis=0))
        counts_static = par_static.local_counts().astype(float) + 1
        counts_remap = par_remap.local_counts().astype(float) + 1
        imb_static = counts_static.max() / counts_static.mean()
        imb_remap = counts_remap.max() / counts_remap.mean()
        assert imb_remap < imb_static

    def test_migration_traffic_reported(self):
        _, par, m = run_pair(steps=5)
        assert m.traffic.tag_bytes("scatter_append") > 0

    def test_directional_flow_skews_load_along_x(self):
        """The directional flow develops a strong x-dependent density
        profile — the drifting imbalance remapping must fix, and the
        reason a 1-D chain partitioner along x works so well (§4.2.1)."""
        grid = CartesianGrid((16, 4))
        m = Machine(4)
        par = ParallelDSMC(grid, m,
                           DSMCConfig(n_initial=400, inflow_rate=50, dt=0.4))
        par.run(25)
        loads = par.cell_loads().reshape(16, 4).sum(axis=1).astype(float)
        assert loads.max() > 2.0 * loads.min() + 1


class TestValidation:
    def test_bad_migration_mode(self):
        with pytest.raises(ValueError):
            ParallelDSMC(CartesianGrid((4, 4)), Machine(2), migration="magic")

    def test_negative_steps(self):
        par = ParallelDSMC(CartesianGrid((4, 4)), Machine(2))
        with pytest.raises(ValueError):
            par.run(-1)

    def test_bad_remap_every(self):
        par = ParallelDSMC(CartesianGrid((4, 4)), Machine(2))
        with pytest.raises(ValueError):
            par.run(5, remap_every=0, remap_partitioner=RCB())

    def test_remap_every_without_partitioner(self):
        """A cadence with nothing to remap with is an error before any
        step runs, not a run that silently never remaps."""
        par = ParallelDSMC(CartesianGrid((4, 4)), Machine(2))
        with pytest.raises(ValueError, match="remap_partitioner"):
            par.run(5, remap_every=2)
        assert par.step_count == 0


# =====================================================================
# the rank-major stream: oracle over the configuration space, pinned
# simulated cost, host work independent of the rank count
# =====================================================================
@settings(max_examples=40, deadline=None)
@given(
    backend=st.sampled_from(ALL_BACKENDS),
    n_ranks=st.sampled_from([1, 3, 16]),
    shape=st.sampled_from([(6, 4), (3, 2), (4, 3, 2), (2, 2, 2)]),
    migration=st.sampled_from(["lightweight", "regular"]),
    remap_every=st.sampled_from([None, 2]),
    n_initial=st.sampled_from([0, 1, 2, 40, 150]),
    inflow=st.sampled_from([0, 1, 12]),
    seed=st.integers(0, 1000),
)
@example(backend="vectorized", n_ranks=3, shape=(6, 4),
         migration="lightweight", remap_every=None, n_initial=0, inflow=0,
         seed=0)  # vacuum
@example(backend="serial", n_ranks=16, shape=(3, 2), migration="regular",
         remap_every=2, n_initial=0, inflow=12, seed=1)  # inflow only
@example(backend="vectorized", n_ranks=16, shape=(2, 2, 2),
         migration="lightweight", remap_every=2, n_initial=150, inflow=12,
         seed=2)  # more ranks than cells
def test_matches_sequential_oracle(backend, n_ranks, shape, migration,
                                   remap_every, n_initial, inflow, seed):
    """``ParallelDSMC`` is ``SequentialDSMC`` byte for byte, state and
    trace, whatever the rank count (empty ranks included), migration
    mode, remapping, grid dimension and backend."""
    grid = CartesianGrid(shape)
    cfg = DSMCConfig(n_initial=n_initial, inflow_rate=inflow, dt=0.4,
                     flow=FlowConfig(seed=seed), collision_seed=seed + 7)
    seq = SequentialDSMC(grid, cfg)
    seq.run(5)
    par = ParallelDSMC(grid, ExecutionContext.resolve(Machine(n_ranks),
                                                      backend),
                       cfg, migration=migration)
    par.run(5, remap_every=remap_every,
            remap_partitioner=ChainPartitioner(axis=0))
    assert par.trace == seq.trace
    for a, b in zip(seq.canonical_state(), par.canonical_state()):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert par.local_counts().sum() == seq.particles.n
    assert np.array_equal(par.cell_loads(), np.bincount(
        grid.cell_of(seq.particles.positions), minlength=grid.n_cells))


@pytest.mark.parametrize("migration", ["lightweight", "regular"])
def test_everything_flows_out(migration):
    grid = CartesianGrid((4, 4), (4.0, 4.0))
    cfg = DSMCConfig(n_initial=100, inflow_rate=0, dt=2.0,
                     flow=FlowConfig(drift_fraction=1.0, drift_speed=5.0,
                                     thermal_speed=0.0))
    par = ParallelDSMC(grid, Machine(2), cfg, migration=migration)
    par.run(10)
    assert par.total_particles() == 0
    assert par.trace.n_particles[-1] == 0
    ids, pos, vel = par.canonical_state()
    assert ids.shape == (0,) and pos.shape == vel.shape == (0, 2)


class TestPinnedSimulatedCost:
    """Messages, bytes, virtual time and clock categories of two small
    runs, recorded at 9d50887 (the ParallelDSMC that walked ranks in
    Python) before the rank-major stream replaced it: it may get faster
    on the host, its simulated cost may not move."""

    CATEGORIES = ("compute", "comm", "inspector", "remap", "partition")

    def check(self, machine, n_messages, total_bytes, seconds, means,
              names):
        assert machine.traffic.n_messages == n_messages
        assert machine.traffic.total_bytes == total_bytes
        assert machine.execution_time() == pytest.approx(seconds, rel=1e-12)
        for cat, mean in zip(self.CATEGORIES, means):
            assert machine.clocks.mean_category(cat) == pytest.approx(
                mean, rel=1e-12), cat
        assert [sorted(c.snapshot()) for c in machine.clocks] == \
            [sorted(names + ("idle", "total"))] * machine.n_ranks

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_lightweight_with_chain_remaps(self, backend):
        m = Machine(16)
        cfg = DSMCConfig(n_initial=40, inflow_rate=2, dt=0.4,
                         initial_profile="plume")
        par = ParallelDSMC(CartesianGrid((8, 4)),
                           ExecutionContext.resolve(m, backend), cfg)
        par.run(7, remap_every=3,
                remap_partitioner=ChainPartitioner(axis=0))
        assert (par.local_counts() == 0).any()  # empty ranks covered
        self.check(m, 404, 19848, 0.0085128,
                   (0.00020149999999999996, 0.0010024968749999996,
                    0.0008472825, 0.0007536306249999997, 0.00245256),
                   self.CATEGORIES)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_regular_migration(self, backend):
        m = Machine(5)
        cfg = DSMCConfig(n_initial=40, inflow_rate=3, dt=0.4)
        par = ParallelDSMC(CartesianGrid((4, 3, 3)),
                           ExecutionContext.resolve(m, backend), cfg,
                           migration="regular")
        par.run(4)
        self.check(m, 167, 12672, 0.007472220000000001,
                   (0.0002924, 0.0, 0.0008249959999999999,
                    0.0024663719999999997, 0.0018305999999999995),
                   ("compute", "inspector", "remap", "partition"))


class TestStepShape:
    """ParallelDSMC holds the particles as one rank-major stream, so a
    step's host work does not grow with the rank count: the same
    particles on 4 and on 64 ranks cost the same number of C calls, and
    the collisions are one call over the whole stream."""

    def make(self, n_ranks, migration="lightweight"):
        par = ParallelDSMC(
            CartesianGrid((16, 8)),
            ExecutionContext.resolve(Machine(n_ranks), "vectorized"),
            DSMCConfig(n_initial=3000, inflow_rate=60), migration=migration)
        par.step()  # warm the plan caches
        return par

    def test_lightweight_step_calls_independent_of_ranks(self):
        few = count_calls(self.make(4).step)
        many = count_calls(self.make(64).step)
        assert few == many

    @pytest.mark.parametrize("migration", ["lightweight", "regular"])
    def test_own_calls_independent_of_ranks(self, migration):
        """The calls ``parallel.py`` itself makes in ``step`` and
        ``remap_cells`` (the partitioner, translation-table and
        distribution constructors it calls are outside it)."""
        def own(n_ranks):
            par = self.make(n_ranks, migration)
            calls = count_calls(par.step)
            calls.update(count_calls(
                lambda: par.remap_cells(ChainPartitioner(axis=0))))
            return {k: v for k, v in calls.items() if k.startswith("dsmc:")}

        few, many = own(4), own(64)
        assert few and few == many

    @pytest.mark.parametrize("n_ranks", [4, 64])
    def test_collisions_are_one_call(self, n_ranks, monkeypatch):
        par = self.make(n_ranks)
        seen = []

        def spy(ids, *args):
            seen.append(ids.size)
            return collide_cells(ids, *args)

        monkeypatch.setattr(parallel_module, "collide_cells", spy)
        par.step()
        assert seen == [par.total_particles()]


class TestPinnedState:
    """sha256 of the canonical state's bytes and the per-step collision
    and peak cell-load traces of three small runs, recorded at 213b988
    before the step kernels were rewritten.  ``SequentialDSMC`` shares
    every kernel with ``ParallelDSMC``, so the oracle cannot see a kernel
    change, ``array_equal`` cannot tell -0.0 from +0.0, and
    :class:`TestPinnedSimulatedCost` pins only the cost: these pins are
    what holds the physics to its bits."""

    @staticmethod
    def run(backend, grid, n_ranks, cfg, steps, migration="lightweight",
            **run_kw):
        ctx = ExecutionContext.resolve(Machine(n_ranks), backend)
        par = ParallelDSMC(grid, ctx, cfg, migration=migration)
        par.run(steps, **run_kw)
        digest = hashlib.sha256()
        for a in par.canonical_state():
            digest.update(a.tobytes())
        return par, digest.hexdigest()

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_plume_3d_lightweight_with_chain_remaps(self, backend):
        cfg = DSMCConfig(n_initial=400, inflow_rate=12, dt=0.4,
                         initial_profile="plume", flow=FlowConfig(seed=3),
                         collision_seed=11)
        par, digest = self.run(backend, CartesianGrid((6, 4, 3)), 8, cfg, 8,
                               remap_every=3,
                               remap_partitioner=ChainPartitioner(axis=0))
        assert digest == ("2f4f05a616d2a2c92e8e9a300debc289"
                          "692563daf50324989f7057397d414a4d")
        assert par.trace.n_collisions == [184, 185, 184, 187, 189, 188, 179,
                                          176]
        assert par.trace.max_cell_load == [20, 17, 15, 17, 14, 17, 12, 11]

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_uniform_2d_regular(self, backend):
        cfg = DSMCConfig(n_initial=500, inflow_rate=20, dt=0.7)
        par, digest = self.run(backend, CartesianGrid((8, 6), (4.0, 3.0)), 4,
                               cfg, 6, migration="regular")
        assert digest == ("20478007e38a02627679574d1c4d5fd4"
                          "665b78099417c2cde57c6f65849d68c3")
        assert par.trace.n_collisions == [204, 176, 134, 111, 102, 93]
        assert par.trace.max_cell_load == [17, 16, 13, 11, 11, 11]

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_no_inflow_with_empty_ranks(self, backend):
        cfg = DSMCConfig(n_initial=300, inflow_rate=0, dt=0.4,
                         flow=FlowConfig(seed=9, thermal_speed=1.5))
        par, digest = self.run(backend, CartesianGrid((4, 3)), 16, cfg, 6)
        assert (par.local_counts() == 0).any()
        assert digest == ("72f73045197ab0f20580717e4f3cff20"
                          "c31ae2ab78b166136e536467eba77996")
        assert par.trace.n_collisions == [128, 108, 90, 68, 57, 47]
        assert par.trace.max_cell_load == [31, 26, 23, 16, 16, 12]
