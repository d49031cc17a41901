"""Unit tests: mini-CHARMM building blocks (system, neighbors, forces,
integrator)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    minimum_image,
    nonbond_pair_forces,
)
from repro.apps.charmm.integrator import verlet_drift, verlet_half_kick
from repro.apps.charmm.neighbors import _grid


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
        mi = minimum_image(d, s.box)
        assert abs(mi[0, 0]) <= s.box / 2 + 1e-9

    def test_kinetic_energy_nonnegative(self):
        s = build_small_system(60, seed=0)
        assert s.kinetic_energy() >= 0

    def test_copy_independent(self):
        s = build_small_system(60, seed=0)
        c = s.copy()
        c.positions += 1
        assert not np.array_equal(s.positions, c.positions)


# (box, cutoff, cells per dimension and reach of the grid the list builder
# selects, atoms added to the drawn ones).  Coarse grids of 1-5 cells: 1
# and 2 alias the neighbour offsets at reach 1.  Fine grids of 3 and 4
# cells alias at reach 2, 5 is the full 63-offset half shell; they take a
# few hundred atoms to be selected (a fine grid of 1 or 2 cells never is:
# the coarse single cell costs less).  (4, 2) and (4, 1) put the cutoff
# exactly on a multiple of box / cells for both grids.
_GRIDS = [
    (4.0, 2.5, 1, 1, 0), (4.0, 2.0, 1, 1, 0), (4.0, 1.9, 2, 1, 0),
    (6.0, 1.9, 3, 1, 0), (4.0, 1.0, 3, 1, 0), (5.0, 1.2, 4, 1, 0),
    (5.0, 0.9, 5, 1, 0),
    (4.0, 2.0, 3, 2, 300), (4.0, 1.9, 4, 2, 450), (5.0, 1.9, 5, 2, 560),
]


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

    def test_cutoff_exactly_one_cell_wide(self):
        """Cells exactly one cutoff wide put these two atoms two cells
        apart although their computed distance is exactly the cutoff."""
        pos = np.array([[0.9999999999999999, 0, 0], [2.0, 0, 0]])
        inblo, jnb = build_nonbonded_list(pos, 1.0, 4.0)
        assert inblo.tolist() == [0, 1, 1] and jnb.tolist() == [1]
        ref_inblo, ref_jnb = brute_force_nonbonded_list(pos, 1.0, 4.0)
        assert np.array_equal(inblo, ref_inblo)
        assert np.array_equal(jnb, ref_jnb)

    @pytest.mark.parametrize("box, cutoff, n_cells, reach, bulk", _GRIDS,
                             ids=[f"{b}-{c}-{n}" + "-fine" * (r == 2)
                                  for b, c, n, r, _ in _GRIDS])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_brute_force_property(self, box, cutoff, n_cells, reach,
                                          bulk, data):
        """Exact ``(inblo, jnb)`` equality with the O(n^2) reference: 0-2
        atoms, empty cells, atoms on cell faces and the box edge, positions
        outside ``[0, box)``, and off-lattice atoms, on the grid the
        builder selects."""
        # lattice coordinate k -> k/8 of a cell, over [-box, 2 * box]
        coord = st.integers(-8 * n_cells, 16 * n_cells)
        atoms = data.draw(st.lists(
            st.tuples(coord, coord, coord, st.booleans()), max_size=40))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        lattice = np.concatenate([
            np.array([a[:3] for a in atoms], dtype=np.float64).reshape(-1, 3),
            rng.integers(-8 * n_cells, 16 * n_cells, (bulk, 3), endpoint=True),
        ])
        off_lattice = np.concatenate([
            np.array([a[3] for a in atoms], dtype=bool), rng.random(bulk) < 0.5,
        ])
        pos = lattice * (box / n_cells / 8)
        pos[off_lattice] += rng.uniform(0, box / n_cells / 8,
                                        (int(off_lattice.sum()), 3))
        assert _grid(len(pos), cutoff, box) == (n_cells, reach)
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

    @staticmethod
    def one_pair(ff, x_j, q_i=1.0, q_j=1.0):
        """Forces and energy of atom 0 at the origin and atom 1 at x_j."""
        pos = np.array([[0.0, 0, 0], [x_j, 0, 0]])
        i, j = np.array([0]), np.array([1])
        qq = np.array([ff.coulomb_k * q_i * q_j])
        return nonbond_pair_forces(pos, i, j, qq, np.array([0, 1]), ff, 100.0)

    def test_cutoff_zeroes_far_pairs(self):
        f, e = self.one_pair(ForceField(cutoff=2.0), 3.0)
        assert np.allclose(f, 0.0) and e == 0.0

    def test_like_charges_repel(self):
        f, _ = self.one_pair(ForceField(cutoff=5.0, lj_epsilon=1e-9), 2.0)
        assert f[0, 0] < 0  # force on i points away from j

    def test_energy_finite_on_overlap(self):
        f, e = self.one_pair(ForceField(), 0.0, q_i=0.0, q_j=0.0)
        assert np.all(np.isfinite(f)) and np.isfinite(e)

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 300), m=st.integers(0, 5000),
           seed=st.integers(0, 2**32 - 1), overlap=st.floats(0, 1),
           zero_q=st.floats(0, 1), same_every=st.integers(1, 9),
           cutoff=st.sampled_from([0.5, 2.5, 4.0]),
           softening=st.sampled_from([0.1, 1e-9, 0.5]))
    @example(n=300, m=5000, seed=1, overlap=0.3, zero_q=0.3, same_every=7,
             cutoff=2.5, softening=0.1)
    def test_kernel_matches_per_pair_reference(self, n, m, seed, overlap,
                                               zero_q, same_every, cutoff,
                                               softening):
        """Forces and energy sum byte for byte those of the per-pair
        expression plus scatter-add it replaced: pairs inside and beyond
        the cutoff, overlapping atoms, zero charges, indices repeated
        within and shared between ``i`` and ``j`` (including
        ``i[k] == j[k]``), positions outside the box."""
        rng = np.random.default_rng(seed)
        box = 6.0
        pos = rng.uniform(-box, 2 * box, (n, 3))
        dup = np.flatnonzero(rng.random(n) < overlap)
        pos[dup] = pos[rng.integers(0, n, dup.size)]
        q = rng.normal(size=n)
        q[rng.random(n) < zero_q] = 0.0
        i = rng.integers(0, n, m)
        j = rng.integers(0, n, m)
        j[::same_every] = i[::same_every]
        ff = ForceField(cutoff=cutoff, softening=softening)
        f_i, e = _reference_nonbond(pos[i], pos[j], q[i], q[j], ff, box)
        ref = _reference_accumulate(n, i, j, f_i)
        got, energy = nonbond_pair_forces(
            pos, i, j, ff.coulomb_k * q[i] * q[j], np.concatenate((i, j)),
            ff, box)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        assert type(energy) is float
        assert np.float64(energy).tobytes() == np.float64(e.sum()).tobytes()


def _reference_nonbond(pos_i, pos_j, q_i, q_j, ff, box):
    """The per-pair kernel the in-place one replaced, verbatim."""
    d = pos_i - pos_j
    d = d - box * np.round(d / box)
    r2 = np.einsum("ij,ij->i", d, d)
    cut2 = ff.cutoff * ff.cutoff
    in_range = r2 <= cut2
    r2_safe = r2 + ff.softening * ff.lj_sigma * ff.lj_sigma
    inv_r2 = 1.0 / r2_safe
    s2 = (ff.lj_sigma * ff.lj_sigma) * inv_r2
    s6 = s2 * s2 * s2
    s12 = s6 * s6
    lj_mag = 24.0 * ff.lj_epsilon * (2.0 * s12 - s6) * inv_r2
    inv_r = np.sqrt(inv_r2)
    coul_mag = ff.coulomb_k * q_i * q_j * inv_r * inv_r2
    mag = np.where(in_range, lj_mag + coul_mag, 0.0)
    f_i = mag[:, None] * d
    energy = np.where(
        in_range,
        4.0 * ff.lj_epsilon * (s12 - s6) + ff.coulomb_k * q_i * q_j * inv_r,
        0.0,
    )
    return f_i, energy


def _reference_accumulate(n, i, j, f_i):
    """The scatter-add of the per-pair kernel's forces, verbatim."""
    idx = np.concatenate((i, j))
    weights = np.concatenate((f_i.T, -f_i.T), axis=1)
    forces = np.empty((n, f_i.shape[1]))
    for c, w in enumerate(weights):
        forces[:, c] = np.bincount(idx, weights=w, minlength=n)
    return forces


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
        x = np.array([[5.0, 5.0, 5.0]])
        v = np.array([[1.0, 0.5, -0.2]])
        masses = np.ones(1)
        f = np.zeros((1, 3))
        for _ in range(10):
            verlet_half_kick(v, f, masses, 0.05)
            verlet_drift(x, v, 0.05, 10.0)
            verlet_half_kick(v, f, masses, 0.05)
        assert np.allclose(v, [[1.0, 0.5, -0.2]])
        assert np.allclose(x, [[5.5, 5.25, 4.9]])
