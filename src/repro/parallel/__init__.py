"""Simulated-MPI runtime, data decompositions, and SSE schedules."""

from .decomposition import (
    DaceDecomposition,
    OmenDecomposition,
    partition_spectral_grid,
)
from .schedules import (
    DaceExchange,
    OmenExchange,
    RankSSEStore,
    default_round_owner,
)
from .simmpi import CommStats, SimComm

__all__ = [
    "DaceDecomposition",
    "OmenDecomposition",
    "partition_spectral_grid",
    "RankSSEStore",
    "OmenExchange",
    "DaceExchange",
    "default_round_owner",
    "CommStats",
    "SimComm",
]
