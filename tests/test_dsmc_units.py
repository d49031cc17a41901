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
    inflow_particles,
    move_phase,
    remove_outflow,
    uniform_population,
)
from repro.apps.dsmc.collisions import _pair_order
from repro.util import hash_permutation_key, hash_unit_vector


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
        v = uniform_population(CartesianGrid((4, 4)), 4000, flow).velocities
        frac_positive = np.mean(v[:, 0] > 1.0)
        assert 0.70 <= frac_positive <= 0.80

    def test_paper_directionality(self):
        """>70% of molecules moving along +x (paper §4.2.1)."""
        flow = FlowConfig()  # defaults model the paper's regime
        v = uniform_population(CartesianGrid((4, 4, 4)), 5000,
                               flow).velocities
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
        p = ParticleSet(ids=np.zeros(0, dtype=np.int64),
                        positions=np.zeros((0, 2)),
                        velocities=np.zeros((0, 2)))
        out, next_id = move_phase(p, g, 0.5, step=0, next_id=7,
                                  inflow_rate=5, flow=FlowConfig())
        assert out.n == 5
        assert next_id == 12
        assert np.array_equal(out.ids, np.arange(7, 12))


def _reference_advance_positions(pset, grid, dt):
    """``advance_positions`` as it stood at 213b988, verbatim: every
    transverse coordinate folded through ``np.mod``."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    pos = pset.positions + dt * pset.velocities
    vel = pset.velocities.copy()
    for k in range(1, grid.dim):
        length = grid.lengths[k]
        # reflect (possibly multiple times for fast particles)
        period = 2.0 * length
        folded = np.mod(pos[:, k], period)
        reflect = folded > length
        pos[:, k] = np.where(reflect, period - folded, folded)
        # velocity flips once per odd number of wall hits
        crossings = np.floor((pset.positions[:, k] + dt * vel[:, k]) / length)
        vel[:, k] = np.where(crossings.astype(np.int64) % 2 != 0,
                             -vel[:, k], vel[:, k])
    return ParticleSet(ids=pset.ids, positions=pos, velocities=vel)


def _wall_coordinates(length):
    """Coordinates on and around the walls of ``[0, length]``: both
    zeros, the largest coordinate below ``length``, the edge of the
    near-wall band, ``length`` and its multiples."""
    band = length * (1 - 1e-12)
    return st.sampled_from([
        0.0, -0.0, np.nextafter(0.0, 1.0), np.nextafter(0.0, -1.0),
        np.nextafter(length, 0.0), length, np.nextafter(length, 2 * length),
        band, np.nextafter(band, 0.0), np.nextafter(band, length),
        -length, 2 * length, -2 * length, 3 * length, 7 * length,
    ])


class TestAdvanceMatchesReference:
    """The near-wall fold changes no byte of today's full-stream fold."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_bytes_equal(self, data):
        dim = data.draw(st.sampled_from([2, 3]), label="dim")
        lengths = tuple(data.draw(st.sampled_from([1.0, 3.0, 0.7, 6.0, 2.5]))
                        for _ in range(dim))
        grid = CartesianGrid((4,) * dim, lengths)
        dt = data.draw(st.sampled_from([0.1, 0.25, 0.4, 0.7, 1.0, 2.0]) |
                       st.floats(1e-3, 5.0), label="dt")
        n = data.draw(st.integers(0, 40), label="n")
        pos = np.empty((n, dim))
        vel = np.empty((n, dim))
        for k in range(dim):
            length = lengths[k]
            speed = 4 * length / dt  # several periods in one step
            pos[:, k] = data.draw(st.lists(
                _wall_coordinates(length) | st.floats(-length, 2 * length),
                min_size=n, max_size=n))
            vel[:, k] = data.draw(st.lists(
                st.sampled_from([0.0, -0.0]) | st.floats(-speed, speed),
                min_size=n, max_size=n))
        pset = ParticleSet(ids=np.arange(n), positions=pos, velocities=vel)
        got = advance_positions(pset, grid, dt)
        ref = _reference_advance_positions(pset, grid, dt)
        assert got.ids.tobytes() == ref.ids.tobytes()
        assert got.positions.tobytes() == ref.positions.tobytes()
        assert got.velocities.tobytes() == ref.velocities.tobytes()
        # the input set is left as it was
        assert pset.positions.tobytes() == pos.tobytes()
        assert pset.velocities.tobytes() == vel.tobytes()

    def test_signed_zero_on_the_wall(self):
        """``np.mod(-0.0, p)`` is ``+0.0``: a coordinate sitting on the
        lower wall as ``-0.0`` leaves as ``+0.0``, as it always did."""
        g = CartesianGrid((4, 4), (4.0, 4.0))
        p = ParticleSet(ids=np.arange(2),
                        positions=np.array([[1.0, -0.0], [1.0, 0.0]]),
                        velocities=np.array([[0.0, -0.0], [0.0, -0.0]]))
        out = advance_positions(p, g, dt=0.5)
        ref = _reference_advance_positions(p, g, 0.5)
        assert np.signbit(out.positions[:, 1]).tolist() == [False, False]
        assert out.positions.tobytes() == ref.positions.tobytes()
        assert out.velocities.tobytes() == ref.velocities.tobytes()


def _reference_pair_order(hkey, cells):
    """``_pair_order`` as it stood at 213b988, verbatim."""
    by_key = np.argsort(hkey)
    sorted_keys = hkey[by_key]
    if (sorted_keys[1:] == sorted_keys[:-1]).any():
        raise ValueError("duplicate particle ids")
    c = cells[by_key]
    if c.size and c.min() >= 0 and c.max() < 1 << 16:
        c = c.astype(np.uint16)
    return by_key[np.argsort(c, kind="stable")]


def _reference_collide_cells(ids, cells, velocities, step, seed=0):
    """``collide_cells`` as it stood at 213b988, verbatim: a
    ``maximum.accumulate`` segment walk and ``np.linalg.norm``."""
    ids = np.asarray(ids, dtype=np.int64)
    cells = np.asarray(cells, dtype=np.int64)
    vel = np.asarray(velocities, dtype=np.float64)
    n = ids.size
    if cells.shape != (n,) or vel.shape[0] != n:
        raise ValueError("ids/cells/velocities length mismatch")
    if n < 2:
        return vel.copy(), 0

    hkey = hash_permutation_key(seed, 71, step, ids)
    order = _reference_pair_order(hkey, cells)
    sc = cells.take(order)
    # segment-local index of each particle within its cell
    same_as_next = np.append(sc[1:] == sc[:-1], False)
    pos = np.arange(n, dtype=np.int64)
    seg_start = np.maximum.accumulate(
        np.where(np.insert(same_as_next[:-1], 0, False), 0, pos))
    # pair k = (local 2k, local 2k+1); odd leftover skips
    first = np.flatnonzero(((pos - seg_start) % 2 == 0) & same_as_next)
    a = order.take(first)
    b = order.take(first + 1)

    new_vel = vel.copy()
    if a.size == 0:
        return new_vel, 0
    ids_a, ids_b = ids.take(a), ids.take(b)
    id_lo = np.minimum(ids_a, ids_b)
    id_hi = np.maximum(ids_a, ids_b)
    v1, v2 = vel.take(a, axis=0), vel.take(b, axis=0)
    vcm = 0.5 * (v1 + v2)
    vrel = np.linalg.norm(v1 - v2, axis=1)
    direction = hash_unit_vector(vel.shape[1], seed, 83, step, id_lo, id_hi)
    half = 0.5 * vrel[:, None] * direction
    new_vel[a] = vcm + half
    new_vel[b] = vcm - half
    return new_vel, int(a.size)


class TestCollideMatchesReference:
    """Pairs from cell run lengths and the column-sum speed change no
    byte of the segment walk and ``np.linalg.norm``, for any int64 cell
    ids."""

    @staticmethod
    def check(ids, cells, vel, step, seed):
        got, n_got = collide_cells(ids, cells, vel, step, seed)
        ref, n_ref = _reference_collide_cells(ids, cells, vel, step, seed)
        assert n_got == n_ref
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_bytes_equal(self, data):
        n = data.draw(st.integers(0, 70), label="n")
        dim = data.draw(st.sampled_from([2, 3]), label="dim")
        layout = data.draw(st.sampled_from(
            ["dense", "negative", "wide", "sparse", "singletons", "one"]),
            label="layout")
        if layout == "dense":
            pool = st.integers(0, 5)
        elif layout == "negative":
            pool = st.integers(-6, 3)
        elif layout == "wide":
            pool = st.integers(2**16 - 2, 2**16 + 2)
        elif layout == "sparse":
            pool = st.sampled_from([-2**62, -70_001, 3, 3 + 2**32, 2**20 + 1,
                                    2**40, 2**63 - 1])
        else:
            pool = st.integers(-2**63, 2**63 - 1)
        cells = np.array(data.draw(st.lists(pool, min_size=n, max_size=n)),
                         dtype=np.int64)
        if layout == "singletons":
            cells = np.arange(n, dtype=np.int64) * 5 - 7
        elif layout == "one":
            cells = np.full(n, cells[0] if n else 0, dtype=np.int64)
        ids = np.array(data.draw(st.lists(
            st.integers(-2**40, 2**40), min_size=n, max_size=n,
            unique=True)), dtype=np.int64)
        vel = np.array(data.draw(st.lists(
            st.floats(-5.0, 5.0) | st.sampled_from([0.0, -0.0]),
            min_size=n * dim, max_size=n * dim))).reshape(n, dim)
        self.check(ids, cells, vel, data.draw(st.integers(0, 9)),
                   data.draw(st.integers(0, 99)))

    @pytest.mark.parametrize("cells", [
        [-3, -3, -3, 7, 7, -3, 2**16, 2**16, 2**16 + 9],  # negative, wide
        [5, 2**40, 5, 5, 2**40, -2**62, 5],               # sparse, odd runs
        [7, 7 + 2**32, 7, 7 + 2**32, 7],                  # 2**32 apart
        [0, 1, 2, 3, 4, 5],                               # all singletons
        [9] * 7,                                          # one odd cell
    ])
    def test_cell_id_layouts(self, rng, cells):
        cells = np.array(cells, dtype=np.int64)
        ids = rng.permutation(1000)[:cells.size]
        vel = rng.standard_normal((cells.size, 3))
        self.check(ids, cells, vel, 4, 17)

    def test_stream_sized(self, rng):
        """Thousands of particles over a 12x6x6 grid's cell ids."""
        n = 5000
        cells = rng.integers(0, 432, n)
        ids = rng.permutation(4 * n)[:n]
        vel = rng.standard_normal((n, 3)) * 2.0
        self.check(ids, cells, vel, 3, 12346)


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

    def test_empty(self):
        v, n = collide_cells(np.zeros(0, np.int64), np.zeros(0, np.int64),
                             np.zeros((0, 2)), step=0)
        assert n == 0 and v.shape == (0, 2)

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            collide_cells(np.arange(3), np.zeros(2, np.int64),
                          np.zeros((3, 2)), step=0)
