"""Quantum-transport substrate: structures, operators, solvers, SSE, SCBA."""

from .boundary import (
    lead_self_energy,
    lead_self_energy_batched,
    sancho_rubio,
    sancho_rubio_batched,
    surface_greens_function,
    transfer_matrix_modes,
)
from .engine import (
    BatchedEngine,
    BoundaryCache,
    GridEngine,
    SerialEngine,
    SpectralGrid,
    make_engine,
)
from .hamiltonian import BlockTridiagonal, HamiltonianModel, build_hamiltonian_model
from .kernels import KernelError, RGFKernel, get_kernel
from .rgf import (
    BatchedRGFResult,
    RGFResult,
    block_offsets,
    dense_reference,
    rgf_solve,
    rgf_solve_batched,
)
from .scba import (
    SCBAResult,
    SCBASettings,
    SCBASimulation,
    born_loop,
    bose,
    decode_array,
    encode_array,
    fermi,
)
from .sparse_kernels import (
    METHODS,
    generate_rgf_operands,
    three_matrix_product,
)
from .sse import (
    pi_sse,
    preprocess_phonon_green,
    retarded_from_lesser_greater,
    sigma_sse,
    sse_flop_estimate,
)
from .structure import DeviceStructure, build_device

__all__ = [
    "KernelError",
    "RGFKernel",
    "get_kernel",
    "lead_self_energy",
    "lead_self_energy_batched",
    "sancho_rubio",
    "sancho_rubio_batched",
    "surface_greens_function",
    "transfer_matrix_modes",
    "BatchedEngine",
    "BoundaryCache",
    "GridEngine",
    "SerialEngine",
    "SpectralGrid",
    "make_engine",
    "BlockTridiagonal",
    "HamiltonianModel",
    "build_hamiltonian_model",
    "BatchedRGFResult",
    "RGFResult",
    "block_offsets",
    "dense_reference",
    "rgf_solve",
    "rgf_solve_batched",
    "SCBAResult",
    "SCBASettings",
    "SCBASimulation",
    "born_loop",
    "bose",
    "decode_array",
    "encode_array",
    "fermi",
    "METHODS",
    "generate_rgf_operands",
    "three_matrix_product",
    "pi_sse",
    "preprocess_phonon_green",
    "retarded_from_lesser_greater",
    "sigma_sse",
    "sse_flop_estimate",
    "DeviceStructure",
    "build_device",
]
