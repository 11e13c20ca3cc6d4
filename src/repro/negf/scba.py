"""Self-consistent Born cycle: the GF ⇄ SSE iteration of Fig. 2/6.

One iteration solves the electron and phonon Green's functions for every
``(E, kz)`` / ``(ω, qz)`` point with RGF under the current scattering
self-energies, then evaluates the scattering self-energies (Eq. 3-5) from
the new Green's functions, mixes, and repeats until the Green's-function
update drops below tolerance — exactly the outer state machine of the
paper's top-level SDFG (Fig. 6).

One state machine, one state: the machine exists once, in
:func:`born_loop`, and the Σ≷/Π≷ containers it iterates once, as
:class:`SelfEnergies` (mixing and the retarded parts).  The in-process
:meth:`SCBASimulation.run` and the rank-parallel
:meth:`repro.runtime.DistributedSCBARuntime.run` both drive the machine
with their own GF and SSE phases, each over one :class:`SelfEnergies`
of the domain it holds, and both build their result through
:meth:`SCBAResult.assemble`.

The grid sweeps themselves are delegated to a spectral-grid execution
engine (:mod:`repro.negf.engine`): ``serial`` (the per-point reference
loop, the oracle) or ``batched`` (stacked tensor systems, the default),
selected with :attr:`SCBASettings.engine`.  Both memoize the
iteration-invariant lead self-energies across Born iterations.

The public entry point for new scenarios is the :mod:`repro.api` facade
(Workload → Plan → Session): ``compile_workload`` makes every execution
choice once and stores it as an :class:`SCBASettings` field, and a
Session builds one ``SCBASimulation`` per plan group, reusing the model,
grid, and boundary cache across whole sweeps.

Physical conventions (dimensionless units, ħ = e = 1):

* electron boundary occupation: Fermi-Dirac with per-lead chemical
  potentials (bias window drives current);
* phonon boundary occupation: Bose-Einstein at the lattice temperature;
* ``Σᴿ ≈ (Σ> - Σ<)/2`` (paper's Lake-et-al. approximation), likewise Πᴿ;
* only diagonal (per-atom) Σ blocks are retained; Π keeps the ``NB``
  bond blocks (§2) — bond blocks crossing RGF slab boundaries are
  dropped from the phonon linear system (documented approximation, exact
  for ``slab_width`` ≥ neighbor range + 1 with intra-slab bonds only).
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, List, Literal, Optional, Tuple

import numpy as np

from ..telemetry.spans import trace
from .engine import SpectralGrid, bose, energy_grid, fermi, make_engine
from .hamiltonian import HamiltonianModel
from .sse import pi_sse, preprocess_phonon_green, retarded_from_lesser_greater, sigma_sse

__all__ = [
    "SCBASettings",
    "born_controls_error",
    "SCBAResult",
    "SCBASimulation",
    "born_loop",
    "SelfEnergies",
    "sse_prefactors",
    "fermi",
    "bose",
    "encode_array",
    "decode_array",
    "density_observable",
    "dissipation_observable",
]


@dataclass
class SCBASettings:
    """Numerical controls of the self-consistent Born loop."""

    #: energy window [E_min, E_max] discretized into NE points
    e_min: float = -2.0
    e_max: float = 2.0
    NE: int = 40
    Nkz: int = 3
    Nqz: int = 3
    #: number of phonon frequencies (ω_m = (m+1)·dE, matching the SSE
    #: index-shift convention)
    Nw: int = 4
    eta: float = 1e-3
    kT_el: float = 0.05
    kT_ph: float = 0.05
    mu_left: float = 0.3
    mu_right: float = -0.3
    #: electron-phonon coupling strength (scales Eq. 3-5)
    coupling: float = 0.1
    mixing: float = 0.5
    max_iterations: int = 20
    tolerance: float = 1e-5
    #: Σ≷ kernel: ``dace`` is the hand-vectorized transformed algorithm;
    #: ``sdfg`` executes the compiled Fig. 8 → 12 pipeline graph itself
    #: (backend per :attr:`sse_backend`); ``reference`` is the loop-nest
    #: oracle
    sse_variant: Literal["reference", "dace", "sdfg"] = "dace"
    #: SDFG execution backend for ``sse_variant="sdfg"`` (``"numpy"``
    #: generated code / ``"interpreter"``; None means ``"numpy"``)
    sse_backend: Optional[str] = None
    #: spectral-grid execution backend (see :mod:`repro.negf.engine`):
    #: ``serial`` per-point oracle, ``batched`` stacked tensors
    engine: Literal["serial", "batched"] = "batched"
    #: RGF kernel of the batched backend (see :mod:`repro.negf.kernels`):
    #: ``numpy`` production recursion, ``reference`` seed recursion.
    #: The serial engine stays pinned to ``reference`` — it is the oracle.
    rgf_kernel: str = "numpy"
    #: SCBA execution runtime (see :mod:`repro.runtime`): ``serial`` is
    #: the in-process Born loop below; ``sim``/``pipe`` distribute it over
    #: ranks exchanging G≷/Π≷ through an SSE schedule
    runtime: Literal["serial", "sim", "pipe"] = "serial"
    #: rank count of the distributed runtime (None: one rank per kz);
    #: must decompose the (Nkz, NE) grid (P = Nkz x E-chunks)
    ranks: Optional[int] = None
    #: SSE communication schedule of the distributed runtime (§4.1)
    schedule: Literal["omen", "dace"] = "omen"

    def __post_init__(self):
        error = born_controls_error(self.mixing, self.max_iterations)
        if error:
            raise ValueError(error)


def born_controls_error(mixing: float, max_iterations: int) -> Optional[str]:
    """Why the Born loop cannot run with these controls, or None.

    Mixing 0 freezes Σ≷/Π≷ at the first iterate and reads as converged;
    a loop of no iterations has no result to report.
    """
    if 0 < mixing <= 1 and max_iterations >= 1:
        return None
    return (
        f"mixing={mixing} must lie in (0, 1] and "
        f"max_iterations={max_iterations} must be >= 1"
    )


@dataclass
class SCBAResult:
    """Converged Green's functions, self-energies, and observables."""

    Gl: np.ndarray
    Gg: np.ndarray
    Dl: np.ndarray
    Dg: np.ndarray
    Sigma_l: np.ndarray
    Sigma_g: np.ndarray
    Pi_l: np.ndarray
    Pi_g: np.ndarray
    iterations: int
    converged: bool
    history: List[float]
    #: per-(kz, E) left/right contact currents (Meir-Wingreen integrand)
    current_left: np.ndarray
    current_right: np.ndarray
    #: per-atom electron density
    density: np.ndarray
    #: per-atom dissipated power (electron -> phonon energy transfer)
    dissipation: np.ndarray

    @property
    def total_current_left(self) -> float:
        return float(np.sum(self.current_left))

    @property
    def total_current_right(self) -> float:
        return float(np.sum(self.current_right))

    @classmethod
    def assemble(
        cls, settings, *, Gl, Gg, Dl, Dg, I_L, I_R, Sl, Sg, Pl, Pg,
        iterations: int, converged: bool, history: List[float],
    ) -> "SCBAResult":
        """The result of one Born loop from its final global tensors.

        Self-energies that were never evaluated (``None``: a ballistic
        run, or convergence before the first SSE phase) are reported as
        zeros; the observables are integrated over the
        :func:`~repro.negf.engine.energy_grid` of ``settings``.
        """
        energies, dE = energy_grid(settings)
        zero_sig = np.zeros_like(Gl)
        zero_pi = np.zeros_like(Dl)
        return cls(
            Gl=Gl,
            Gg=Gg,
            Dl=Dl,
            Dg=Dg,
            Sigma_l=Sl if Sl is not None else zero_sig,
            Sigma_g=Sg if Sg is not None else zero_sig,
            Pi_l=Pl if Pl is not None else zero_pi,
            Pi_g=Pg if Pg is not None else zero_pi,
            iterations=iterations,
            converged=converged,
            history=history,
            current_left=I_L,
            current_right=I_R,
            density=density_observable(Gl, dE, settings.Nkz),
            dissipation=dissipation_observable(
                Gl, Gg, Sl, Sg, energies, dE, settings.Nkz
            ),
        )

    # -- persistence ------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict: every tensor field array-encoded, scalars plain.

        Round-trips exactly through :meth:`from_dict` (complex tensors are
        stored as separate real/imag lists), so converged results can be
        persisted and compared across runs; ``repro.api.SweepResult``
        reuses this encoding for its JSON export.
        """
        out: Dict[str, Any] = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = encode_array(v) if isinstance(v, np.ndarray) else v
        return out

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "SCBAResult":
        kwargs = {}
        for f in fields(cls):
            v = d[f.name]
            kwargs[f.name] = (
                decode_array(v) if isinstance(v, dict) and "shape" in v else v
            )
        return cls(**kwargs)


def born_loop(
    gf_phase: Callable[[int], Optional[float]],
    sse_phase: Callable[[int], None],
    *,
    tolerance: float,
    max_iterations: int,
    ballistic: bool,
) -> Tuple[int, bool, List[float]]:
    """The GF ⇄ SSE state machine of Fig. 2/6, independent of where it runs.

    ``gf_phase(it)`` solves the Green's functions under the current
    self-energies and returns the relative ``G<`` update against the
    previous iteration (``None`` on the first, which has no previous);
    ``sse_phase(it)`` evaluates and mixes the scattering self-energies.
    The loop stops *before* the SSE phase once the residual drops below
    ``tolerance``; a ballistic run is a single GF phase.  Returns
    ``(iterations, converged, history)`` with one residual per check.
    """
    history: List[float] = []
    converged = False
    iterations = 0
    for it in range(1 if ballistic else max_iterations):
        iterations = it + 1
        residual = gf_phase(it)
        if residual is not None:
            history.append(residual)
            if residual < tolerance:
                converged = True
                break
        if ballistic:
            converged = True
            break
        sse_phase(it)
    return iterations, converged, history


def sse_prefactors(settings, dE: float) -> Tuple[float, float]:
    """``(pre_Σ, pre_Π)``: the grid prefactors of Eqs. (3-5).

    The frequency integral ``∫ dω/2π`` and the momentum averages
    ``(1/Nqz) Σ_qz`` / ``(1/Nkz) Σ_kz`` on the discrete grid (``dω = dE``
    by the index-shift convention), times the coupling strength.
    """
    pre = settings.coupling**2 * dE / (2 * np.pi)
    return pre / max(settings.Nqz, 1), pre / max(settings.Nkz, 1)


class SelfEnergies:
    """The Σ≷/Π≷ state the Born loop iterates, over its owner's domain.

    Serially the domain is the whole grid (Σ ``[Nkz, NE, NA, Norb, Norb]``,
    Π ``[Nqz, Nw, NA, NB+1, N3D, N3D]``); on a rank it is the electron
    shard (Σ ``[nE_local, NA, Norb, Norb]``) and the owned phonon rows
    stacked in ``phonon_rows`` order (Π ``[n_rows, NA, NB+1, N3D, N3D]``,
    ``n_rows`` possibly 0).  Every component is ``None`` until the first
    :meth:`update`: the first GF phase is scattering-free.  The damping
    is the owner's ``settings.mixing``, read once per run.
    """

    def __init__(self, settings):
        self.mixing = settings.mixing
        self.Sl = self.Sg = self.Sr = None
        self.Pl = self.Pg = self.Pr = None

    def update(self, Sl, Sg, Pl, Pg) -> None:
        """Mix one SSE evaluation in and derive the retarded parts.

        Linear mixing ``(1-m)·old + m·new`` with ``m = mixing``; the first
        iterate is taken as is.  ``Σᴿ``/``Πᴿ`` follow from the mixed
        lesser and greater parts (:func:`retarded_from_lesser_greater`).
        """
        # one component at a time, so each old iterate is freed as soon
        # as its successor exists
        m, first = self.mixing, self.Sl is None
        self.Sl = Sl if first else (1 - m) * self.Sl + m * Sl
        self.Sg = Sg if first else (1 - m) * self.Sg + m * Sg
        self.Pl = Pl if first else (1 - m) * self.Pl + m * Pl
        self.Pg = Pg if first else (1 - m) * self.Pg + m * Pg
        self.Sr = retarded_from_lesser_greater(self.Sl, self.Sg)
        self.Pr = retarded_from_lesser_greater(self.Pl, self.Pg)


def density_observable(Gl: np.ndarray, dE: float, Nkz: int) -> np.ndarray:
    """Per-atom electron density: -i ∫ tr G< dE / 2π (summed over kz)."""
    tr = np.trace(Gl, axis1=-2, axis2=-1)  # [Nkz, NE, NA]
    return (-1j * tr.sum(axis=(0, 1)) * dE / (2 * np.pi)).real / max(Nkz, 1)


def dissipation_observable(
    Gl: np.ndarray,
    Gg: np.ndarray,
    Sl: Optional[np.ndarray],
    Sg: Optional[np.ndarray],
    energies: np.ndarray,
    dE: float,
    Nkz: int,
) -> np.ndarray:
    """Per-atom electron->phonon power: ∫ E tr[Σ< G> - Σ> G<] dE."""
    if Sl is None:
        return np.zeros(Gl.shape[2])
    x = np.einsum("kEaij,kEaji->kEa", Sl, Gg) - np.einsum(
        "kEaij,kEaji->kEa", Sg, Gl
    )
    w = energies[None, :, None]
    return (x * w).sum(axis=(0, 1)).real * dE / (2 * np.pi) / max(Nkz, 1)


def encode_array(a: np.ndarray) -> Dict[str, Any]:
    """Encode an ndarray as a JSON-safe dict (complex -> real/imag lists)."""
    a = np.asarray(a)
    enc: Dict[str, Any] = {"dtype": str(a.dtype), "shape": list(a.shape)}
    if np.iscomplexobj(a):
        enc["real"] = a.real.ravel().tolist()
        enc["imag"] = a.imag.ravel().tolist()
    else:
        enc["data"] = a.ravel().tolist()
    return enc


def decode_array(enc: Dict[str, Any]) -> np.ndarray:
    """Invert :func:`encode_array` (exact bit pattern for float64 data)."""
    shape = tuple(enc["shape"])
    dtype = np.dtype(enc["dtype"])
    if "real" in enc:
        a = np.asarray(enc["real"], dtype=float) + 1j * np.asarray(
            enc["imag"], dtype=float
        )
    else:
        a = np.asarray(enc["data"], dtype=float)
    return a.reshape(shape).astype(dtype)


class SCBASimulation:
    """Dissipative quantum transport on a synthetic device.

    The GF and SSE phases of the in-process Born loop live here; the
    grid sweeps are executed by the backend named in ``settings.engine``
    (see :mod:`repro.negf.engine`).
    """

    def __init__(self, model: HamiltonianModel, settings: SCBASettings):
        self.model = model
        self.s = settings
        self.grid = SpectralGrid(model, settings)
        self.engine = make_engine(settings.engine, self.grid)
        g = self.grid
        self.NA, self.NB = g.NA, g.NB
        self.Norb, self.N3D = g.Norb, g.N3D
        self.energies, self.dE = g.energies, g.dE
        self.kz_grid, self.qz_grid = g.kz_grid, g.qz_grid
        self.omegas = g.omegas
        self.rev = g.rev
        self._atom_slices = g.atom_slices
        #: resident distributed runtime (built lazily when
        #: ``settings.runtime != "serial"``; reused across sweep points)
        self._runtime = None
        #: per-phase :class:`~repro.parallel.CommStats` of the last
        #: distributed run (None for serial runs)
        self.last_comm = None
        #: runtime rank-cache counters frozen at :meth:`close`
        self._final_runtime_counters: Optional[Dict[str, int]] = None

    # -- lifetime -----------------------------------------------------------------
    def close(self):
        """Shut the distributed runtime (its rank workers) down.

        The per-rank boundary counters are snapshotted first, so
        :meth:`boundary_counters` keeps reporting them after the workers
        are gone.
        """
        if self._runtime is not None:
            self._final_runtime_counters = self._runtime.boundary_counters()
            self._runtime.close()
            self._runtime = None

    def __enter__(self) -> "SCBASimulation":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- distributed execution -----------------------------------------------------
    def _run_distributed(self, ballistic: bool) -> "SCBAResult":
        """Delegate the Born loop to the rank-parallel runtime.

        The runtime (and its resident rank workers with their per-rank
        boundary caches) is built on first use and reused by every later
        ``run()`` — a Session sweep mutating bias/temperature fields
        between points keeps all rank-local caches warm.
        """
        if self._runtime is None:
            from ..runtime import DistributedSCBARuntime  # layered above negf

            self._runtime = DistributedSCBARuntime(self.model, self.s)
        result = self._runtime.run(ballistic=ballistic)
        self.last_comm = self._runtime.comm_stats()
        return result

    def boundary_counters(self) -> Dict[str, int]:
        """Boundary solve/hit counters (``{el,ph}_{solves,hits}``) and
        operator assemblies (``assemblies_{H,S,Phi}``) across every
        execution path.

        The engine counts in the in-process
        :class:`~repro.negf.engine.BoundaryCache` and grid; the
        distributed runtime adds its per-rank caches and grids (each
        rank assembles on its own grid, so nothing is counted twice).
        """
        out = {**self.engine.boundary.counters(), **self.grid.assembly_counts()}
        runtime_counters = (
            self._runtime.boundary_counters()
            if self._runtime is not None
            else self._final_runtime_counters
        )
        for key, value in (runtime_counters or {}).items():
            out[key] += value
        return out

    # -- GF phases (delegated to the execution engine) ---------------------------
    def solve_electrons(
        self, sigma_r: Optional[np.ndarray], sigma_l: Optional[np.ndarray]
    ):
        """RGF over the (kz, E) grid.

        ``sigma_*`` are per-atom scattering self-energy tensors
        ``[Nkz, NE, NA, Norb, Norb]`` (or None in the ballistic limit).
        Returns ``(Gl, Gg, I_left, I_right)``.
        """
        return self.engine.solve_electrons(sigma_r, sigma_l)

    def solve_phonons(
        self, pi_r: Optional[np.ndarray], pi_l: Optional[np.ndarray]
    ):
        """RGF over the (qz, ω) grid; returns (Dl, Dg) bond tensors.

        The returned tensors have shape ``[Nqz, Nw, NA, NB+1, N3D, N3D]``
        (block 0 = on-site).  Bond blocks crossing slab boundaries are not
        produced by the diagonal-block RGF and are left zero.
        """
        return self.engine.solve_phonons(pi_r, pi_l)

    # -- SSE phase -----------------------------------------------------------------
    def scattering_self_energies(self, Gl, Gg, Dl, Dg):
        """Evaluate Eq. 3-5 with emission+absorption combinations."""
        s = self.s
        dev = self.model.structure
        pre_sigma, pre_pi = sse_prefactors(s, self.dE)
        Dcl = preprocess_phonon_green(Dl, dev.neighbors, self.rev)
        Dcg = preprocess_phonon_green(Dg, dev.neighbors, self.rev)
        v = s.sse_variant
        be = s.sse_backend
        dH = self.model.dH
        # Σ<(E) ~ G<(E-ω) D<(ω) + G<(E+ω) D>(ω)
        Sl = pre_sigma * (
            sigma_sse(Gl, dH, Dcl, dev.neighbors, +1, v, backend=be)
            + sigma_sse(Gl, dH, Dcg, dev.neighbors, -1, v, backend=be)
        )
        # Σ>(E) ~ G>(E-ω) D>(ω) + G>(E+ω) D<(ω)
        Sg = pre_sigma * (
            sigma_sse(Gg, dH, Dcg, dev.neighbors, +1, v, backend=be)
            + sigma_sse(Gg, dH, Dcl, dev.neighbors, -1, v, backend=be)
        )
        Pl = pre_pi * pi_sse(Gl, Gg, dH, dev.neighbors, self.rev, s.Nqz, s.Nw, v)
        Pg = pre_pi * pi_sse(Gg, Gl, dH, dev.neighbors, self.rev, s.Nqz, s.Nw, v)
        return Sl, Sg, Pl, Pg

    # -- driver ------------------------------------------------------------------
    def run(self, ballistic: bool = False) -> SCBAResult:
        """Iterate GF ⇄ SSE to self-consistency (Fig. 2).

        ``ballistic=True`` stops after the first GF phase (no scattering).
        """
        if self.s.runtime != "serial":
            return self._run_distributed(ballistic)
        s = self.s
        Gl = Gg = Dl = Dg = I_L = I_R = None
        se = SelfEnergies(s)
        #: holds the open ``scba.iteration`` span: one iteration runs from
        #: its GF phase to the start of the next (or the end of the loop)
        iteration_span = ExitStack()

        def gf_phase(it: int) -> Optional[float]:
            nonlocal Gl, Gg, Dl, Dg, I_L, I_R
            iteration_span.close()
            iteration_span.enter_context(trace("scba.iteration", iteration=it))
            Gl_prev = Gl
            Gl, Gg, I_L, I_R = self.solve_electrons(se.Sr, se.Sl)
            Dl, Dg = self.solve_phonons(se.Pr, se.Pl)
            if Gl_prev is None:
                return None
            num = np.linalg.norm(Gl - Gl_prev)
            den = max(np.linalg.norm(Gl), 1e-300)
            return num / den

        def sse_phase(it: int) -> None:
            with trace("scba.sse", iteration=it):
                new = self.scattering_self_energies(Gl, Gg, Dl, Dg)
            se.update(*new)

        with iteration_span:
            iterations, converged, history = born_loop(
                gf_phase,
                sse_phase,
                tolerance=s.tolerance,
                max_iterations=s.max_iterations,
                ballistic=ballistic,
            )
        return SCBAResult.assemble(
            s, Gl=Gl, Gg=Gg, Dl=Dl, Dg=Dg, I_L=I_L, I_R=I_R,
            Sl=se.Sl, Sg=se.Sg, Pl=se.Pl, Pg=se.Pg,
            iterations=iterations, converged=converged, history=history,
        )
