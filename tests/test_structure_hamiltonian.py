"""Device structures and synthetic operator construction."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from repro.negf import build_device, build_hamiltonian_model


class TestStructure:
    def test_basic_counts(self, small_device):
        assert small_device.NA == 18
        assert small_device.NB == 4
        assert small_device.bnum == 3

    def test_block_sizes_uniform(self, small_device):
        assert (small_device.block_sizes == 6).all()

    def test_neighbors_are_symmetric(self, small_device):
        rev = small_device.reverse_neighbor()
        assert (rev >= 0).all()

    def test_reverse_neighbor_roundtrip(self, small_device):
        n, rev = small_device.neighbors, small_device.reverse_neighbor()
        for a in range(small_device.NA):
            for b in range(small_device.NB):
                assert n[n[a, b], rev[a, b]] == a

    def test_no_self_neighbors(self, small_device):
        for a in range(small_device.NA):
            assert (small_device.neighbors[a] != a).all()

    def test_connectivity(self, small_device):
        # independent oracle: components of the undirected bond graph
        NA, NB = small_device.neighbors.shape
        rows = np.repeat(np.arange(NA), NB)
        bonds = sp.coo_matrix(
            (np.ones(NA * NB), (rows, small_device.neighbors.ravel())), shape=(NA, NA)
        )
        assert connected_components(bonds, directed=False)[0] == 1

    def test_rejects_disconnected_device(self):
        dev = build_device(nx_cols=4, ny_rows=3, NB=4, slab_width=2)
        # cut every bond between columns 0-1 and 2-3: each atom's first
        # (in-column) bond takes the place of its crossing ones
        left = dev.positions[:, 0] < 2
        nbr = dev.neighbors.copy()
        crossing = left[nbr] != left[:, None]
        nbr[crossing] = np.broadcast_to(nbr[:, :1], nbr.shape)[crossing]
        with pytest.raises(ValueError, match="disconnected"):
            replace(dev, neighbors=nbr).validate()

    def test_rejects_bond_between_non_adjacent_blocks(self):
        dev = build_device(nx_cols=6, ny_rows=3, NB=4, slab_width=2)
        nbr = dev.neighbors.copy()
        nbr[0, 0] = dev.NA - 1  # block 0 -> block 2
        with pytest.raises(ValueError, match="non-adjacent blocks 0..2"):
            replace(dev, neighbors=nbr).validate()

    def test_block_tridiagonality(self, small_device):
        small_device.validate()  # raises on cross-block bonds

    def test_bond_vectors_match_offsets(self, small_device):
        v = small_device.neighbor_vectors
        assert np.abs(v[:, :, 0]).max() <= 1  # transport offsets are ±1
        assert (v[:, :, 2] == 0).all()  # in-plane bonds

    def test_slab_width_must_divide(self):
        with pytest.raises(ValueError):
            build_device(nx_cols=7, ny_rows=3, NB=4, slab_width=2)

    def test_nb_bounds(self):
        for bad in (2, 3, 5, 7, 9):
            with pytest.raises(ValueError):
                build_device(nx_cols=4, ny_rows=3, NB=bad)

    def test_min_rows(self):
        with pytest.raises(ValueError):
            build_device(nx_cols=4, ny_rows=2, NB=4)

    @given(
        nx_cols=st.integers(2, 6).map(lambda v: 2 * v),
        ny=st.integers(3, 5),
        nb=st.sampled_from([4, 6, 8]),
    )
    @settings(max_examples=20, deadline=None)
    def test_generated_structures_are_valid(self, nx_cols, ny, nb):
        dev = build_device(nx_cols=nx_cols, ny_rows=ny, NB=nb, slab_width=2)
        dev.validate()
        assert (dev.reverse_neighbor() >= 0).all()


class TestHamiltonian:
    @pytest.mark.parametrize("kz", [0.0, 0.7, -2.1, np.pi])
    def test_hermiticity(self, small_model, kz):
        H = small_model.hamiltonian_blocks(kz).to_dense()
        assert np.abs(H - H.conj().T).max() < 1e-12

    def test_kz_periodicity(self, small_model):
        H1 = small_model.hamiltonian_blocks(0.3).to_dense()
        H2 = small_model.hamiltonian_blocks(0.3 + 2 * np.pi).to_dense()
        assert np.allclose(H1, H2)

    def test_kz_dependence_nontrivial(self, small_model):
        H1 = small_model.hamiltonian_blocks(0.0).to_dense()
        H2 = small_model.hamiltonian_blocks(1.5).to_dense()
        assert np.abs(H1 - H2).max() > 1e-3

    def test_overlap_positive_definite(self, small_model):
        S = small_model.overlap_blocks(0.5).to_dense()
        ev = np.linalg.eigvalsh(S)
        assert ev[0].real > 0

    def test_dynamical_psd_at_gamma(self, small_model):
        Phi = small_model.dynamical_blocks(0.0).to_dense()
        ev = np.linalg.eigvalsh(Phi)
        assert ev[0].real > -1e-10  # acoustic sum rule -> PSD

    def test_dynamical_gap_away_from_gamma(self, small_model):
        ev = np.linalg.eigvalsh(small_model.dynamical_blocks(1.2).to_dense())
        assert ev[0].real > 1e-3  # z-springs open a gap

    def test_dynamical_hermitian(self, small_model):
        Phi = small_model.dynamical_blocks(0.8).to_dense()
        assert np.abs(Phi - Phi.conj().T).max() < 1e-12

    def test_dh_bond_antisymmetry(self, small_model):
        """∇H_ba = -(∇H_ab)† for shared bonds (direction reversal)."""
        dev = small_model.structure
        rev = dev.reverse_neighbor()
        for a in range(dev.NA):
            for b in range(dev.NB):
                c, r = int(dev.neighbors[a, b]), int(rev[a, b])
                lhs = small_model.dH[c, r]
                rhs = -np.conj(np.transpose(small_model.dH[a, b], (0, 2, 1)))
                assert np.allclose(lhs, rhs)

    def test_block_tridiagonal_shape(self, small_model):
        H = small_model.hamiltonian_blocks(0.0)
        assert H.bnum == small_model.structure.bnum
        assert H.n == small_model.structure.NA * small_model.Norb
        for i, u in enumerate(H.upper):
            assert u.shape == (H.diag[i].shape[0], H.diag[i + 1].shape[0])

    def test_lower_is_upper_dagger(self, small_model):
        H = small_model.hamiltonian_blocks(0.4)
        assert np.allclose(H.lower(0), H.upper[0].conj().T)

    def test_to_dense_matches_blocks(self, small_model):
        H = small_model.hamiltonian_blocks(0.0)
        dense = H.to_dense()
        n0 = H.diag[0].shape[0]
        assert np.allclose(dense[:n0, :n0], H.diag[0])
        assert np.allclose(dense[:n0, n0 : n0 + H.upper[0].shape[1]], H.upper[0])

    def test_determinism(self, small_device):
        m1 = build_hamiltonian_model(small_device, Norb=2, seed=9)
        m2 = build_hamiltonian_model(small_device, Norb=2, seed=9)
        assert np.array_equal(m1.onsite, m2.onsite)
        assert np.array_equal(m1.hopping, m2.hopping)
