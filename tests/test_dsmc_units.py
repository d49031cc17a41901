"""Unit tests: DSMC building blocks (grid, particles, collisions, move)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.dsmc import (
    CartesianGrid,
    DSMCConfig,
    FlowConfig,
    ParticleSet,
    advance_positions,
    collide_cells,
    collision_pair_count,
    inflow_particles,
    make_velocities,
    move_phase,
    remove_outflow,
    uniform_population,
)
from repro.apps.dsmc.collisions import _pair_order
from repro.util import hash_permutation_key


class TestGrid:
    def test_2d_cell_of(self):
        g = CartesianGrid((4, 4), (4.0, 4.0))
        cells = g.cell_of(np.array([[0.5, 0.5], [3.5, 0.5], [0.5, 3.5]]))
        assert cells.tolist() == [0, 12, 3]

    def test_3d_cell_of(self):
        g = CartesianGrid((2, 2, 2), (2.0, 2.0, 2.0))
        c = g.cell_of(np.array([[1.5, 0.5, 1.5]]))
        assert c[0] == 4 + 0 + 1

    def test_cell_coords_roundtrip(self):
        g = CartesianGrid((3, 5), (3.0, 5.0))
        ids = np.arange(g.n_cells)
        coords = g.cell_coords(ids)
        re_ids = coords[:, 0] * 5 + coords[:, 1]
        assert np.array_equal(re_ids, ids)

    def test_cell_centers(self):
        g = CartesianGrid((2, 2), (4.0, 4.0))
        centers = g.cell_centers()
        assert centers.shape == (4, 2)
        assert centers[0].tolist() == [1.0, 1.0]
        assert centers[3].tolist() == [3.0, 3.0]

    def test_positions_clipped(self):
        g = CartesianGrid((4, 4), (4.0, 4.0))
        c = g.cell_of(np.array([[-1.0, 5.0]]))
        assert c[0] == g.cell_of(np.array([[0.0, 3.99]]))[0]

    def test_contains(self):
        g = CartesianGrid((4, 4), (4.0, 4.0))
        ok = g.contains(np.array([[1.0, 1.0], [4.0, 1.0], [-0.1, 2.0]]))
        assert ok.tolist() == [True, False, False]

    def test_validation(self):
        with pytest.raises(ValueError):
            CartesianGrid((4,))
        with pytest.raises(ValueError):
            CartesianGrid((0, 4))
        with pytest.raises(ValueError):
            CartesianGrid((4, 4), (4.0,))
        with pytest.raises(ValueError):
            CartesianGrid((4, 4), (0.0, 4.0))

    def test_dim_mismatch_rejected(self):
        g = CartesianGrid((4, 4))
        with pytest.raises(ValueError):
            g.cell_of(np.zeros((3, 3)))


class TestParticles:
    def test_soa_validation(self):
        with pytest.raises(ValueError):
            ParticleSet(ids=np.arange(3), positions=np.zeros((2, 2)),
                        velocities=np.zeros((2, 2)))

    def test_select_concat(self):
        g = CartesianGrid((4, 4))
        p = uniform_population(g, 10, FlowConfig())
        a = p.select(p.ids < 5)
        b = p.select(p.ids >= 5)
        merged = a.concat(b)
        assert merged.n == 10
        ids, pos, vel = merged.state_tuple()
        assert np.array_equal(ids, np.arange(10))

    def test_uniform_population_deterministic(self):
        g = CartesianGrid((4, 4))
        p1 = uniform_population(g, 50, FlowConfig(seed=3))
        p2 = uniform_population(g, 50, FlowConfig(seed=3))
        assert np.array_equal(p1.positions, p2.positions)
        p3 = uniform_population(g, 50, FlowConfig(seed=4))
        assert not np.array_equal(p1.positions, p3.positions)

    def test_drift_fraction_honored(self):
        flow = FlowConfig(drift_fraction=0.75, drift_speed=2.0,
                          thermal_speed=0.1)
        v = make_velocities(np.arange(4000), 2, flow)
        frac_positive = np.mean(v[:, 0] > 1.0)
        assert 0.70 <= frac_positive <= 0.80

    def test_paper_directionality(self):
        """>70% of molecules moving along +x (paper §4.2.1)."""
        flow = FlowConfig()  # defaults model the paper's regime
        v = make_velocities(np.arange(5000), 3, flow)
        assert np.mean(v[:, 0] > 0) > 0.70

    def test_inflow_enters_near_x0_moving_right(self):
        g = CartesianGrid((8, 8), (8.0, 8.0))
        inc = inflow_particles(g, step=3, count=40, next_id=100,
                               flow=FlowConfig())
        assert np.all(inc.positions[:, 0] < g.cell_size[0] + 1e-12)
        assert np.all(inc.velocities[:, 0] > 0)
        assert np.array_equal(inc.ids, np.arange(100, 140))

    def test_flow_config_validation(self):
        with pytest.raises(ValueError):
            FlowConfig(drift_fraction=1.5)
        with pytest.raises(ValueError):
            FlowConfig(drift_speed=-1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DSMCConfig(n_initial=-1)
        with pytest.raises(ValueError):
            DSMCConfig(dt=0)


class TestMove:
    def test_ballistic_drift(self):
        g = CartesianGrid((4, 4), (4.0, 4.0))
        p = ParticleSet(ids=np.array([0]),
                        positions=np.array([[1.0, 1.0]]),
                        velocities=np.array([[1.0, 0.5]]))
        out = advance_positions(p, g, dt=1.0)
        assert np.allclose(out.positions, [[2.0, 1.5]])

    def test_transverse_reflection(self):
        g = CartesianGrid((4, 4), (4.0, 4.0))
        p = ParticleSet(ids=np.array([0]),
                        positions=np.array([[1.0, 3.8]]),
                        velocities=np.array([[0.0, 1.0]]))
        out = advance_positions(p, g, dt=1.0)
        assert 0 <= out.positions[0, 1] <= 4.0
        assert out.positions[0, 1] == pytest.approx(3.2)
        assert out.velocities[0, 1] == pytest.approx(-1.0)

    def test_outflow_removed_both_ends(self):
        g = CartesianGrid((4, 4), (4.0, 4.0))
        p = ParticleSet(
            ids=np.arange(3),
            positions=np.array([[3.9, 1.0], [0.1, 1.0], [2.0, 1.0]]),
            velocities=np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]]),
        )
        kept = remove_outflow(advance_positions(p, g, dt=0.5), g)
        assert kept.ids.tolist() == [2]

    def test_move_phase_adds_inflow(self):
        g = CartesianGrid((4, 4), (4.0, 4.0))
        p = ParticleSet.empty(2)
        out, next_id = move_phase(p, g, 0.5, step=0, next_id=7,
                                  inflow_rate=5, flow=FlowConfig())
        assert out.n == 5
        assert next_id == 12
        assert np.array_equal(out.ids, np.arange(7, 12))


class TestCollisions:
    def make_population(self, rng, n=200, n_cells=10):
        ids = np.arange(n)
        cells = rng.integers(0, n_cells, n)
        vel = rng.standard_normal((n, 3))
        return ids, cells, vel

    def test_momentum_conserved(self, rng):
        ids, cells, vel = self.make_population(rng)
        new_vel, n_pairs = collide_cells(ids, cells, vel, step=0)
        assert n_pairs > 0
        assert np.allclose(new_vel.sum(axis=0), vel.sum(axis=0))

    def test_kinetic_energy_conserved(self, rng):
        ids, cells, vel = self.make_population(rng)
        new_vel, _ = collide_cells(ids, cells, vel, step=0)
        assert np.sum(new_vel**2) == pytest.approx(np.sum(vel**2))

    def test_order_insensitive(self, rng):
        """Permuting the particle arrays changes nothing per particle."""
        ids, cells, vel = self.make_population(rng)
        new_vel, _ = collide_cells(ids, cells, vel, step=5)
        perm = rng.permutation(ids.size)
        new_vel_p, _ = collide_cells(ids[perm], cells[perm], vel[perm], step=5)
        assert np.array_equal(new_vel[perm], new_vel_p)

    def test_subset_closed_under_cells_identical(self, rng):
        """Computing per cell-subset (as ranks do) matches the global
        computation bit for bit — the parallelization-correctness
        property ParallelDSMC's single whole-stream call rests on."""
        ids, cells, vel = self.make_population(rng)
        global_vel, _ = collide_cells(ids, cells, vel, step=2)
        out = np.empty_like(vel)
        for c in np.unique(cells):
            sel = cells == c
            sub_vel, _ = collide_cells(ids[sel], cells[sel], vel[sel], step=2)
            out[sel] = sub_vel
        assert np.array_equal(global_vel, out)

    def test_duplicate_ids_rejected(self, rng):
        ids, cells, vel = self.make_population(rng)
        ids[7] = ids[100]
        with pytest.raises(ValueError, match="duplicate"):
            collide_cells(ids, cells, vel, step=0)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_pair_order_is_the_lexsort(self, data):
        """The key sort + stable cell sort is ``np.lexsort((hkey,
        cells))`` exactly: empty and tiny sets, one cell, all-singleton
        cells, and cell ids past ``uint16`` (the int64 sort)."""
        n = data.draw(st.integers(0, 60), label="n")
        layout = data.draw(st.sampled_from(
            ["random", "one", "singletons", "wide"]), label="layout")
        ids = np.array(data.draw(st.lists(
            st.integers(-2**40, 2**40), min_size=n, max_size=n,
            unique=True)), dtype=np.int64)
        if layout == "one":
            cells = np.full(n, data.draw(st.integers(0, 2**16 - 1)))
        elif layout == "singletons":
            cells = np.arange(n) * 3
        else:
            hi = 2**20 if layout == "wide" else 8
            cells = np.array(data.draw(st.lists(
                st.integers(0, hi), min_size=n, max_size=n)), dtype=np.int64)
            if layout == "wide" and n:
                cells[0] = 2**16 + data.draw(st.integers(0, 5))
        hkey = hash_permutation_key(data.draw(st.integers(0, 99)), 71,
                                    data.draw(st.integers(0, 9)), ids)
        assert np.array_equal(_pair_order(hkey, cells),
                              np.lexsort((hkey, cells)))

    def test_different_steps_different_outcomes(self, rng):
        ids, cells, vel = self.make_population(rng)
        v1, _ = collide_cells(ids, cells, vel, step=0)
        v2, _ = collide_cells(ids, cells, vel, step=1)
        assert not np.allclose(v1, v2)

    def test_lone_particles_unchanged(self):
        ids = np.arange(3)
        cells = np.array([0, 1, 2])  # all alone
        vel = np.ones((3, 2))
        new_vel, n_pairs = collide_cells(ids, cells, vel, step=0)
        assert n_pairs == 0
        assert np.array_equal(new_vel, vel)

    def test_2d_collisions(self, rng):
        ids = np.arange(10)
        cells = np.zeros(10, dtype=np.int64)
        vel = rng.standard_normal((10, 2))
        new_vel, n_pairs = collide_cells(ids, cells, vel, step=0)
        assert n_pairs == 5
        assert np.allclose(new_vel.sum(axis=0), vel.sum(axis=0))

    def test_pair_count_estimate(self):
        cells = np.array([0, 0, 0, 1, 1, 2])
        assert collision_pair_count(cells) == 1 + 1 + 0

    def test_empty(self):
        v, n = collide_cells(np.zeros(0, np.int64), np.zeros(0, np.int64),
                             np.zeros((0, 2)), step=0)
        assert n == 0 and v.shape == (0, 2)

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            collide_cells(np.arange(3), np.zeros(2, np.int64),
                          np.zeros((3, 2)), step=0)
