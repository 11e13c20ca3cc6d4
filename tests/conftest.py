"""Shared fixtures: small devices, models, and SSE input tensors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.negf import build_device, build_hamiltonian_model
from repro.parallel import RankSSEStore
from repro.runtime import SimTransport


@pytest.fixture(scope="session")
def small_device():
    return build_device(nx_cols=6, ny_rows=3, NB=4, slab_width=2)


@pytest.fixture(scope="session")
def small_model(small_device):
    return build_hamiltonian_model(small_device, Norb=2)


@pytest.fixture(scope="session")
def ring_neighbors():
    """A banded ring neighbor table (8 atoms, 4 neighbors)."""
    NA, NB = 8, 4
    neigh = np.zeros((NA, NB), dtype=np.int64)
    for a in range(NA):
        for b in range(NB):
            off = (b // 2 + 1) * (1 if b % 2 == 0 else -1)
            neigh[a, b] = (a + off) % NA
    rev = np.zeros_like(neigh)
    for a in range(NA):
        for b in range(NB):
            rev[a, b] = np.nonzero(neigh[neigh[a, b]] == a)[0][0]
    return neigh, rev


def complex_array(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def close(a, b, rtol=1e-13):
    """Max-norm relative agreement (float summation order only)."""
    return np.abs(a - b).max() <= rtol * np.abs(b).max()


def run_exchange(exchange, decomp, d):
    """One resident exchange over plain stores cut from the global arrays
    ``d[Gl/Gg/dH/Dcl/Dcg/neigh/rev]``: ``((Σ<, Σ>, Π<, Π>), CommStats)``."""
    Nqz, Nw = d["Dcl"].shape[:2]
    stores = []

    def factory(r):
        k, _ = decomp.coords(r)
        st = RankSSEStore(r, k, decomp.energy_slice(r), decomp.NE,
                          d["dH"], d["neigh"], d["rev"])
        st.Gl, st.Gg = d["Gl"][k, st.esl], d["Gg"][k, st.esl]
        st.Dc = {(q, w): np.stack([d["Dcl"][q, w], d["Dcg"][q, w]])
                 for q in range(Nqz) for w in range(Nw)
                 if exchange.owner_of(q, w) == r}
        st.sse_begin()
        stores.append(st)
        return st

    with SimTransport(decomp.P) as t:
        t.start(factory)
        exchange.run_iteration(t)
        stats = t.stats
    st = stores[0]
    Sl, Sg = np.zeros_like(d["Gl"]), np.zeros_like(d["Gg"])
    Pl, Pg = np.zeros((2, Nqz, Nw, st.NA, st.NB + 1, st.N3D, st.N3D), complex)
    for st in stores:
        Sl[st.k, st.esl], Sg[st.k, st.esl] = st._acc_Sl, st._acc_Sg
        for row, (pl, pg) in st.pi_raw.items():
            Pl[row], Pg[row] = pl, pg
    return (Sl, Sg, Pl, Pg), stats


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
