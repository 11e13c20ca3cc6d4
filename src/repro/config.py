"""Simulation parameters (paper Table 1) with range validation.

The paper's Table 1 lists the typical ranges of every quantum-transport
simulation parameter; :class:`SimulationParameters` encodes them and the
derived quantities used throughout the models (tensor sizes, flop counts,
communication volumes).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = [
    "PARAMETER_RANGES",
    "EXECUTION_BACKENDS",
    "RGF_KERNELS",
    "RUNTIMES",
    "SSE_SCHEDULES",
    "AUTOTUNE_STRATEGIES",
    "TELEMETRY_MODES",
    "default_telemetry_mode",
    "default_autotune_max_moves",
    "validate_parameters",
    "SimulationParameters",
    "PAPER_STRUCTURE_4864",
    "PAPER_STRUCTURE_10240",
]

#: Execution backends of the spectral-grid engine (``repro.negf.engine``):
#: ``serial`` is the per-point reference loop (bit-exactness oracle),
#: ``batched`` (the default) solves stacked block-tridiagonal systems per
#: momentum row.  Several processes are a runtime (``pipe``), not an engine.
EXECUTION_BACKENDS: Tuple[str, ...] = ("serial", "batched")

#: RGF solver kernels (``repro.negf.kernels``): ``reference`` is the
#: seed recursion with per-block ``solve(A, I)`` inverses (bit-exactness
#: oracle); ``numpy`` (the default) is the production kernel — it
#: factorizes each diagonal block once, reuses the explicit factor
#: product across the forward/backward passes and contracts every
#: coupling product over the block's observed nonzero support.
RGF_KERNELS: Tuple[str, ...] = ("reference", "numpy")

#: SCBA execution runtimes (``repro.runtime``): ``serial`` runs the
#: in-process Born loop of ``SCBASimulation``; ``sim`` distributes it over
#: simulated ranks (in-process, byte-exact communication accounting);
#: ``pipe`` hosts each rank in a forked worker process connected through
#: ``multiprocessing`` pipes (real inter-process data movement).
RUNTIMES: Tuple[str, ...] = ("serial", "sim", "pipe")

#: SSE communication schedules the distributed runtime can execute
#: (paper §4.1): OMEN's per-(qz, ω) broadcast rounds or the
#: communication-avoiding DaCe ``TE x TA`` tile exchange.
SSE_SCHEDULES: Tuple[str, ...] = ("omen", "dace")

#: Observability modes of the telemetry subsystem (``repro.telemetry``):
#: ``off`` disables every probe (the default; near-zero overhead),
#: ``spans`` records the hierarchical span tree.  Counts (bytes, flops,
#: cache hits) live on the results that produce them, not in telemetry.
TELEMETRY_MODES: Tuple[str, ...] = ("off", "spans")


def default_telemetry_mode() -> str:
    """Telemetry mode used when :func:`repro.telemetry.configure` is not
    called explicitly.

    Overridable through the ``REPRO_TELEMETRY`` environment variable (an
    explicitly set but unknown value raises); the built-in default is
    ``off``.
    """
    env = os.environ.get("REPRO_TELEMETRY", "").strip().lower()
    if not env:
        return "off"
    if env not in TELEMETRY_MODES:
        raise ValueError(
            f"REPRO_TELEMETRY={env!r} is not a valid telemetry mode; "
            f"expected one of {TELEMETRY_MODES}"
        )
    return env


#: Search strategy of the transformation autotuner (``repro.autotune``):
#: ``greedy`` commits the best byte-reducing move per step and escapes
#: plateaus with a bounded breadth-first probe over enabler moves.
AUTOTUNE_STRATEGIES: Tuple[str, ...] = ("greedy",)


def default_autotune_max_moves() -> int:
    """Maximum committed moves (pipeline depth) of one autotune search.

    Overridable through ``REPRO_AUTOTUNE_MAX_MOVES`` (a positive int;
    invalid values raise).  The default of 24 is ~2.5x the hand recipe's
    depth — a termination backstop, not a tuning dial.
    """
    env = os.environ.get("REPRO_AUTOTUNE_MAX_MOVES", "").strip()
    if not env:
        return 24
    try:
        value = int(env)
    except ValueError:
        raise ValueError(
            f"REPRO_AUTOTUNE_MAX_MOVES={env!r} is not a valid move budget; "
            "expected a positive integer"
        ) from None
    if value < 1:
        raise ValueError(
            f"REPRO_AUTOTUNE_MAX_MOVES={env!r} must be a positive integer"
        )
    return value


def validate_parameters(base=None, **overrides) -> "SimulationParameters":
    """Construct (or refine) a :class:`SimulationParameters`, with context.

    ``base`` is an existing parameter set to refine (``overrides`` replace
    individual fields); without it a fresh set is built from ``overrides``
    alone.  Any Table-1 range violation re-raises as a :class:`ValueError`
    prefixed with the offending configuration, which the ``repro.api``
    planner surfaces as a :class:`~repro.api.PlanError`.
    """
    try:
        if base is not None:
            return base.replace(**overrides)
        return SimulationParameters(**overrides)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid simulation parameters: {exc}") from exc


#: Valid ranges from Table 1 (inclusive).  ``NA`` is structure-dependent.
PARAMETER_RANGES: Dict[str, Tuple[int, int]] = {
    "Nkz": (1, 21),
    "Nqz": (1, 21),
    "NE": (1, 1500),       # paper's typical range is [700, 1500]
    "Nw": (1, 100),        # paper's typical range is [10, 100]
    "NA": (1, 1_000_000),
    "NB": (1, 50),
    "Norb": (1, 30),
    "N3D": (3, 3),
    "bnum": (1, 10_000),
}

_COMPLEX_BYTES = 16  # complex128


@dataclass(frozen=True)
class SimulationParameters:
    """A complete QT simulation configuration.

    Attributes mirror Table 1 of the paper:

    * ``Nkz`` / ``Nqz``: electron/phonon momentum points,
    * ``NE`` / ``Nw``: energy points / phonon frequencies,
    * ``NA``: atoms, ``NB``: neighbors per atom,
    * ``Norb``: orbitals per atom, ``N3D``: crystal vibration directions,
    * ``bnum``: number of block-tridiagonal blocks used by RGF.
    """

    Nkz: int = 3
    Nqz: int = 3
    NE: int = 706
    Nw: int = 70
    NA: int = 4864
    NB: int = 34
    Norb: int = 12
    N3D: int = 3
    bnum: int = 19

    def __post_init__(self):
        for name, (lo, hi) in PARAMETER_RANGES.items():
            v = getattr(self, name)
            if not isinstance(v, int):
                raise TypeError(f"{name} must be an int, got {type(v).__name__}")
            if not lo <= v <= hi:
                raise ValueError(f"{name}={v} outside Table-1 range [{lo}, {hi}]")
        if self.Nqz > self.Nkz:
            raise ValueError(
                f"Nqz={self.Nqz} may not exceed Nkz={self.Nkz} "
                "(phonon momenta are exchanged between electron momenta)"
            )
        if self.Nw > self.NE:
            raise ValueError(f"Nw={self.Nw} may not exceed NE={self.NE}")
        if self.NB >= self.NA:
            raise ValueError(f"NB={self.NB} must be smaller than NA={self.NA}")
        if self.bnum > self.NA:
            raise ValueError(f"bnum={self.bnum} may not exceed NA={self.NA}")

    # -- derived tensor sizes (elements) ------------------------------------
    @property
    def block_size(self) -> float:
        """RGF block dimension ``NA*Norb/bnum`` (matrix rows per block)."""
        return self.NA * self.Norb / self.bnum

    @property
    def electron_gf_elements(self) -> int:
        """Elements of one G≷ tensor: [Nkz, NE, NA, Norb, Norb]."""
        return self.Nkz * self.NE * self.NA * self.Norb**2

    @property
    def phonon_gf_elements(self) -> int:
        """Elements of one D≷ tensor: [Nqz, Nw, NA, NB+1, N3D, N3D]."""
        return self.Nqz * self.Nw * self.NA * (self.NB + 1) * self.N3D**2

    @property
    def electron_gf_bytes(self) -> int:
        return self.electron_gf_elements * _COMPLEX_BYTES

    @property
    def phonon_gf_bytes(self) -> int:
        return self.phonon_gf_elements * _COMPLEX_BYTES

    def replace(self, **kwargs) -> "SimulationParameters":
        from dataclasses import replace as _replace

        return _replace(self, **kwargs)

    def as_dict(self) -> Dict[str, int]:
        return {
            "Nkz": self.Nkz,
            "Nqz": self.Nqz,
            "NE": self.NE,
            "Nw": self.Nw,
            "NA": self.NA,
            "NB": self.NB,
            "Norb": self.Norb,
            "N3D": self.N3D,
            "bnum": self.bnum,
        }


#: The 4,864-atom Silicon structure of §5 (W = 2.1 nm, L = 35 nm).
PAPER_STRUCTURE_4864 = SimulationParameters(
    Nkz=7, Nqz=7, NE=706, Nw=70, NA=4864, NB=34, Norb=12, N3D=3, bnum=19
)

#: The 10,240-atom extreme run of §5.2.1 (W = 4.8 nm, L = 35 nm).
PAPER_STRUCTURE_10240 = SimulationParameters(
    Nkz=21, Nqz=21, NE=1000, Nw=70, NA=10240, NB=34, Norb=12, N3D=3, bnum=19
)
