"""Unit tests: mini-CHARMM building blocks (system, neighbors, forces,
integrator)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.charmm import (
    ForceField,
    MolecularSystem,
    brute_force_nonbonded_list,
    build_nonbonded_list,
    build_small_system,
    build_solvated_system,
    list_stats,
    take_csr_rows,
)
from repro.apps.charmm.forces import (
    accumulate_pair_forces,
    compute_bonded_forces,
    compute_nonbonded_forces,
    nonbond_pair_forces,
)
from repro.apps.charmm.integrator import verlet_drift, verlet_half_kick


class TestForceField:
    def test_defaults_valid(self):
        ForceField()

    def test_positive_params_enforced(self):
        with pytest.raises(ValueError):
            ForceField(cutoff=-1)
        with pytest.raises(ValueError):
            ForceField(bond_k=0)
        with pytest.raises(ValueError):
            ForceField(softening=-0.1)


class TestMolecularSystem:
    def test_builder_produces_valid_system(self):
        s = build_small_system(150, seed=1)
        assert s.n_atoms == 150 or abs(s.n_atoms - 150) <= 2
        assert s.n_bonds > 0
        assert s.positions.min() >= 0 and s.positions.max() <= s.box

    def test_paper_sized_system(self):
        s = build_solvated_system(n_protein=100, n_waters=50, seed=0)
        assert s.n_atoms == 100 + 150
        # waters contribute 2 bonds each
        assert s.n_bonds >= 100 - 1

    def test_default_builder_matches_paper_count(self):
        from repro.apps.charmm import PAPER_ATOM_COUNT

        assert PAPER_ATOM_COUNT == 14026  # Figure 10's DECOMPOSITION size

    def test_water_net_charge_zero(self):
        s = build_solvated_system(n_protein=10, n_waters=20, seed=0)
        water_charges = s.charges[10:]
        assert water_charges.reshape(-1, 3).sum(axis=1) == pytest.approx(0.0)

    def test_validation_bond_out_of_range(self):
        with pytest.raises(IndexError):
            MolecularSystem(
                positions=np.zeros((3, 3)), velocities=np.zeros((3, 3)),
                masses=np.ones(3), charges=np.zeros(3),
                bonds=np.array([[0, 5]]), box=10.0,
            )

    def test_validation_self_bond(self):
        with pytest.raises(ValueError):
            MolecularSystem(
                positions=np.zeros((3, 3)), velocities=np.zeros((3, 3)),
                masses=np.ones(3), charges=np.zeros(3),
                bonds=np.array([[1, 1]]), box=10.0,
            )

    def test_validation_cutoff_vs_box(self):
        with pytest.raises(ValueError):
            MolecularSystem(
                positions=np.zeros((2, 3)), velocities=np.zeros((2, 3)),
                masses=np.ones(2), charges=np.zeros(2),
                bonds=np.zeros((0, 2), dtype=np.int64), box=2.0,
                forcefield=ForceField(cutoff=1.5),
            )

    def test_minimum_image(self):
        s = build_small_system(60, seed=0)
        d = np.array([[s.box * 0.9, 0.0, 0.0]])
        mi = s.minimum_image(d)
        assert abs(mi[0, 0]) <= s.box / 2 + 1e-9

    def test_kinetic_energy_nonnegative(self):
        s = build_small_system(60, seed=0)
        assert s.kinetic_energy() >= 0

    def test_copy_independent(self):
        s = build_small_system(60, seed=0)
        c = s.copy()
        c.positions += 1
        assert not np.array_equal(s.positions, c.positions)


class TestNeighborList:
    def test_matches_brute_force(self, rng):
        pos = rng.random((120, 3)) * 8.0
        inblo1, jnb1 = build_nonbonded_list(pos, 1.5, 8.0)
        inblo2, jnb2 = brute_force_nonbonded_list(pos, 1.5, 8.0)
        assert np.array_equal(inblo1, inblo2)
        assert np.array_equal(jnb1, jnb2)

    def test_matches_brute_force_small_box(self, rng):
        """Few cells per dimension: the duplicate-visit path must dedupe."""
        pos = rng.random((60, 3)) * 4.0
        inblo1, jnb1 = build_nonbonded_list(pos, 1.9, 4.0)
        inblo2, jnb2 = brute_force_nonbonded_list(pos, 1.9, 4.0)
        assert np.array_equal(inblo1, inblo2)
        assert np.array_equal(jnb1, jnb2)

    def test_half_list_property(self, rng):
        pos = rng.random((80, 3)) * 6.0
        inblo, jnb = build_nonbonded_list(pos, 1.2, 6.0)
        i_exp = np.repeat(np.arange(80), np.diff(inblo))
        assert np.all(i_exp < jnb)

    def test_empty_system(self):
        inblo, jnb = build_nonbonded_list(np.zeros((0, 3)), 1.0, 5.0)
        assert inblo.tolist() == [0]
        assert jnb.size == 0

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            build_nonbonded_list(np.zeros((3, 2)), 1.0, 5.0)
        with pytest.raises(ValueError):
            build_nonbonded_list(np.zeros((3, 3)), -1.0, 5.0)
        with pytest.raises(ValueError, match="box must be positive, got 0"):
            build_nonbonded_list(np.zeros((3, 3)), 1.0, 0)
        with pytest.raises(ValueError, match="got -5.0"):
            build_nonbonded_list(np.zeros((3, 3)), 1.0, -5.0)

    # (box, cutoff, cells per dimension).  One and two cells alias the
    # periodic neighbour offsets; (4, 2), (4, 1) put the cutoff exactly on
    # the cell width.  Every cell width is a dyadic number, so positions
    # on the eighth-of-a-cell lattice below have exact distances and pairs
    # at exactly the cutoff exercise the ``<=``.
    @pytest.mark.parametrize("box, cutoff, n_cells", [
        (4.0, 2.5, 1), (4.0, 1.9, 2), (4.0, 2.0, 2), (6.0, 1.9, 3),
        (4.0, 1.0, 4), (5.0, 0.9, 5),
    ])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_brute_force_property(self, box, cutoff, n_cells, data):
        """Exact ``(inblo, jnb)`` equality with the O(n^2) reference: 0-2
        atoms, empty cells, atoms on cell faces and the box edge, positions
        outside ``[0, box)``, and off-lattice atoms."""
        assert int(np.floor(box / cutoff)) == n_cells
        # lattice coordinate k -> k/8 of a cell, over [-box, 2 * box]
        coord = st.integers(-8 * n_cells, 16 * n_cells)
        atoms = data.draw(st.lists(
            st.tuples(coord, coord, coord, st.booleans()), max_size=40))
        lattice = np.array([a[:3] for a in atoms], dtype=np.float64)
        pos = lattice.reshape(-1, 3) * (box / n_cells / 8)
        off_lattice = np.array([a[3] for a in atoms], dtype=bool)
        jitter = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        pos[off_lattice] += jitter.uniform(0, box / n_cells / 8,
                                           (int(off_lattice.sum()), 3))
        inblo, jnb = build_nonbonded_list(pos, cutoff, box)
        ref_inblo, ref_jnb = brute_force_nonbonded_list(pos, cutoff, box)
        assert inblo.dtype == ref_inblo.dtype and jnb.dtype == ref_jnb.dtype
        assert np.array_equal(inblo, ref_inblo)
        assert np.array_equal(jnb, ref_jnb)

    def test_list_stats(self, rng):
        pos = rng.random((50, 3)) * 5.0
        inblo, jnb = build_nonbonded_list(pos, 1.5, 5.0)
        st = list_stats(inblo)
        assert st["n_pairs"] == jnb.size
        assert st["max_partners"] >= st["mean_partners"]

    def test_take_csr_rows(self):
        inblo = np.array([0, 2, 2, 5])
        jnb = np.array([10, 11, 20, 21, 22])
        i_exp, j_vals = take_csr_rows(inblo, jnb, np.array([0, 2]))
        assert i_exp.tolist() == [0, 0, 2, 2, 2]
        assert j_vals.tolist() == [10, 11, 20, 21, 22]

    def test_take_csr_rows_empty(self):
        inblo = np.array([0, 0])
        i_exp, j_vals = take_csr_rows(inblo, np.zeros(0, np.int64),
                                      np.array([0]))
        assert i_exp.size == 0 and j_vals.size == 0


class TestForces:
    @pytest.mark.parametrize("n, m", [(0, 0), (6, 0), (1, 5), (4, 200),
                                      (300, 5000)])
    def test_accumulate_pair_forces_bitwise(self, rng, n, m):
        """Same bytes as the unbuffered scatter-add it replaced, with
        indices repeated within and shared between ``i`` and ``j``
        (including ``i[k] == j[k]``) and magnitudes spread over 16 decades
        so that any other summation order would show."""
        i = rng.integers(0, max(n, 1), m)
        j = rng.integers(0, max(n, 1), m)
        j[::7] = i[::7]
        f = rng.normal(size=(m, 3)) * 10.0 ** rng.integers(-8, 8, (m, 1))
        ref = np.zeros((n, 3))
        np.add.at(ref, i, f)
        np.add.at(ref, j, -f)
        got = accumulate_pair_forces(n, i, j, f)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()

    def test_newtons_third_law_bonded(self, rng):
        s = build_small_system(90, seed=2)
        f, e = compute_bonded_forces(s.positions, s.bonds, s.forcefield, s.box)
        assert np.allclose(f.sum(axis=0), 0.0, atol=1e-9)

    def test_newtons_third_law_nonbonded(self, rng):
        s = build_small_system(90, seed=2)
        inblo, jnb = build_nonbonded_list(s.positions, s.forcefield.cutoff,
                                          s.box)
        f, e = compute_nonbonded_forces(
            s.positions, s.charges, inblo, jnb, s.forcefield, s.box
        )
        assert np.allclose(f.sum(axis=0), 0.0, atol=1e-8)

    def test_bond_force_restores_equilibrium(self):
        ff = ForceField(bond_r0=1.0, bond_k=10.0)
        pos = np.array([[0.0, 0, 0], [2.0, 0, 0]])  # stretched
        bonds = np.array([[0, 1]])
        f, e = compute_bonded_forces(pos, bonds, ff, 100.0)
        assert f[0, 0] > 0 and f[1, 0] < 0  # pulled together
        assert e > 0

    def test_bond_at_equilibrium_zero_force(self):
        ff = ForceField(bond_r0=1.0)
        pos = np.array([[0.0, 0, 0], [1.0, 0, 0]])
        f, e = compute_bonded_forces(pos, np.array([[0, 1]]), ff, 100.0)
        assert np.allclose(f, 0.0, atol=1e-12)
        assert e == pytest.approx(0.0)

    def test_cutoff_zeroes_far_pairs(self):
        ff = ForceField(cutoff=2.0)
        f, e = nonbond_pair_forces(
            np.array([[0.0, 0, 0]]), np.array([[3.0, 0, 0]]),
            np.array([1.0]), np.array([1.0]), ff, 100.0,
        )
        assert np.allclose(f, 0.0) and e[0] == 0.0

    def test_like_charges_repel(self):
        ff = ForceField(cutoff=5.0, lj_epsilon=1e-9)
        f, _ = nonbond_pair_forces(
            np.array([[0.0, 0, 0]]), np.array([[2.0, 0, 0]]),
            np.array([1.0]), np.array([1.0]), ff, 100.0,
        )
        assert f[0, 0] < 0  # force on i points away from j

    def test_energy_finite_on_overlap(self):
        ff = ForceField()
        f, e = nonbond_pair_forces(
            np.zeros((1, 3)), np.zeros((1, 3)),
            np.array([0.0]), np.array([0.0]), ff, 100.0,
        )
        assert np.all(np.isfinite(f)) and np.all(np.isfinite(e))


class TestIntegrator:
    def test_half_kick(self):
        v = np.zeros((2, 3))
        f = np.array([[1.0, 0, 0], [0, 2.0, 0]])
        masses = np.array([1.0, 2.0])
        verlet_half_kick(v, f, masses, dt=0.2)
        assert v[0, 0] == pytest.approx(0.1)
        assert v[1, 1] == pytest.approx(0.1)

    def test_drift_wraps(self):
        x = np.array([[9.5, 0, 0]])
        v = np.array([[10.0, 0, 0]])
        verlet_drift(x, v, dt=0.1, box=10.0)
        assert 0 <= x[0, 0] < 10.0

    def test_free_particle_energy_conserved(self):
        from repro.apps.charmm.integrator import verlet_step

        x = np.array([[5.0, 5.0, 5.0]])
        v = np.array([[1.0, 0.5, -0.2]])
        masses = np.ones(1)
        f = np.zeros((1, 3))
        for _ in range(10):
            f = verlet_step(x, v, masses, f,
                            lambda pos: np.zeros_like(pos), 0.05, 10.0)
        assert np.allclose(v, [[1.0, 0.5, -0.2]])
