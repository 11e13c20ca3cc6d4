"""Declarative workloads: *what* a simulation computes, nothing else.

The paper's central idea is the separation between the physics of a
quantum-transport simulation and the data-movement/optimization decisions
that make it run fast (Ziogas et al., SC'19).  A :class:`Workload` is the
physics half of that contract: a device/material description
(:class:`DeviceSpec`), the transport physics (:class:`PhysicsSpec`), the
spectral discretization (:class:`GridSpec`), and — first-class, not a
Python ``for`` loop — the *sweeps* over bias, temperature, gate, or grid
resolution that production scenarios are made of (:class:`SweepAxis`).

A workload knows nothing about engines, decompositions, caches, or
rank processes; those choices are made by the explicit compile step
(:func:`repro.api.compile_workload` → :class:`~repro.api.Plan`) and
executed by :class:`~repro.api.Session`.

Named scenario presets (the paper's 4,864/10,240-atom structures, the
FinFET I-V curve, the self-heating map) live in a registry:
``scenario("finfet_iv")`` returns a ready-to-compile workload.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..config import PAPER_STRUCTURE_4864, PAPER_STRUCTURE_10240, SimulationParameters
from ..negf.hamiltonian import build_hamiltonian_model
from ..negf.scba import SCBASettings
from ..negf.structure import build_device

__all__ = [
    "WorkloadError",
    "DeviceSpec",
    "GridSpec",
    "PhysicsSpec",
    "SweepAxis",
    "SweepPoint",
    "Workload",
    "SWEEP_AXES",
    "register_scenario",
    "scenario",
    "scenarios",
]


class WorkloadError(ValueError):
    """A workload specification is inconsistent or unbuildable."""


@dataclass(frozen=True)
class DeviceSpec:
    """The synthetic device + basis: everything the operator builder needs.

    ``build()`` materializes the structure and the DFT-like operators
    (H, S, Φ, ∇H) exactly once; the result is shared by every sweep point
    of a session.
    """

    nx_cols: int = 12
    ny_rows: int = 4
    NB: int = 6
    slab_width: int = 2
    Norb: int = 2
    seed: int = 1234

    @property
    def NA(self) -> int:
        return self.nx_cols * self.ny_rows

    @property
    def bnum(self) -> int:
        return self.nx_cols // self.slab_width

    def build(self):
        """Materialize the :class:`~repro.negf.HamiltonianModel` (expensive)."""
        device = build_device(
            nx_cols=self.nx_cols,
            ny_rows=self.ny_rows,
            NB=self.NB,
            slab_width=self.slab_width,
        )
        return build_hamiltonian_model(device, Norb=self.Norb, seed=self.seed)


@dataclass(frozen=True)
class GridSpec:
    """The spectral discretization: energy window and momentum grids."""

    e_min: float = -2.0
    e_max: float = 2.0
    NE: int = 40
    Nkz: int = 3
    Nqz: int = 3
    Nw: int = 4
    eta: float = 1e-3


@dataclass(frozen=True)
class PhysicsSpec:
    """Transport physics: what is simulated, not how it is executed."""

    #: ``ballistic`` (one GF solve, no e-ph scattering) or ``scba`` (the
    #: full self-consistent Born GF ⇄ SSE loop)
    transport: str = "scba"
    mu_left: float = 0.3
    mu_right: float = -0.3
    kT_el: float = 0.05
    kT_ph: float = 0.05
    coupling: float = 0.1
    mixing: float = 0.5
    max_iterations: int = 20
    tolerance: float = 1e-5
    sse_variant: str = "dace"

    def __post_init__(self):
        if self.transport not in ("ballistic", "scba"):
            raise WorkloadError(
                f"transport={self.transport!r}; expected 'ballistic' or 'scba'"
            )
        if self.sse_variant not in ("reference", "dace", "sdfg"):
            raise WorkloadError(
                f"sse_variant={self.sse_variant!r}; expected 'reference', "
                "'dace' or 'sdfg'"
            )


# -- sweep axes ----------------------------------------------------------------
#
# An axis maps one swept value onto SCBASettings fields.  The named axes
# below are the physical sweeps of the ROADMAP scenarios; any plain
# SCBASettings field name is also a valid (generic) axis.

def _apply_bias(kw: Dict[str, Any], v: float) -> None:
    """Source-drain window: μ_{L,R} = center ± V/2.

    The window opens around the *current* mean potential, so a ``gate``
    axis (a rigid shift of that mean) composes with ``bias`` in either
    declaration order.
    """
    center = (kw["mu_left"] + kw["mu_right"]) / 2.0
    kw["mu_left"] = center + v / 2.0
    kw["mu_right"] = center - v / 2.0


def _apply_temperature(kw: Dict[str, Any], v: float) -> None:
    """Electron and lattice temperature together (kT units)."""
    kw["kT_el"] = v
    kw["kT_ph"] = v


def _apply_gate(kw: Dict[str, Any], v: float) -> None:
    """Gate control as a rigid shift of both chemical potentials."""
    kw["mu_left"] = kw["mu_left"] + v
    kw["mu_right"] = kw["mu_right"] + v


def _apply_grid(kw: Dict[str, Any], v: float) -> None:
    """Grid-resolution axis: number of energy points."""
    kw["NE"] = int(v)


SWEEP_AXES: Dict[str, Callable[[Dict[str, Any], float], None]] = {
    "bias": _apply_bias,
    "temperature": _apply_temperature,
    "gate": _apply_gate,
    "grid": _apply_grid,
}

#: numeric settings fields usable as generic sweep axes
_GENERIC_AXIS_FIELDS = {
    f.name
    for spec in (GridSpec, PhysicsSpec)
    for f in fields(spec)
    if f.type in ("int", "float")
} & {f.name for f in fields(SCBASettings)} | {"NE"}


@dataclass(frozen=True)
class SweepAxis:
    """One first-class sweep dimension: an axis name and its values.

    ``name`` is a named physical axis (``bias``, ``temperature``,
    ``gate``, ``grid``) or any numeric :class:`~repro.negf.SCBASettings`
    field (generic axis).  Multiple axes form the Cartesian product.
    """

    name: str
    values: Tuple[float, ...]

    def __post_init__(self):
        if self.name not in SWEEP_AXES and self.name not in _GENERIC_AXIS_FIELDS:
            raise WorkloadError(
                f"unknown sweep axis {self.name!r}; expected one of "
                f"{sorted(SWEEP_AXES)} or a numeric SCBASettings field"
            )
        vals = tuple(float(v) for v in np.asarray(self.values).ravel())
        if not vals:
            raise WorkloadError(f"sweep axis {self.name!r} has no values")
        object.__setattr__(self, "values", vals)

    def apply(self, kw: Dict[str, Any], v: float) -> None:
        if self.name in SWEEP_AXES:
            SWEEP_AXES[self.name](kw, v)
        else:
            # Generic axis: preserve the field's declared type (NE etc.).
            current = kw[self.name]
            kw[self.name] = type(current)(v) if current is not None else v


@dataclass(frozen=True)
class SweepPoint:
    """One resolved point of the sweep grid."""

    #: linear index in sweep order
    index: int
    #: {axis name: swept value} coordinates of this point
    coords: Dict[str, float]
    #: fully-resolved SCBASettings kwargs for this point
    settings: Dict[str, Any]


@dataclass(frozen=True)
class Workload:
    """A complete declarative simulation request.

    ``Workload`` → :meth:`compile` → :class:`~repro.api.Plan` →
    :class:`~repro.api.Session` is the canonical path for every scenario;
    the legacy ``SCBASettings``/``SCBASimulation`` constructors remain as
    thin shims over it.
    """

    device: DeviceSpec = field(default_factory=DeviceSpec)
    grid: GridSpec = field(default_factory=GridSpec)
    physics: PhysicsSpec = field(default_factory=PhysicsSpec)
    sweeps: Tuple[SweepAxis, ...] = ()
    name: str = "custom"
    #: optional Table-1 parameter override for planning/cost analysis when
    #: the synthetic builder cannot realize the real structure (e.g. the
    #: paper's NB=34 neighbor lists); execution still uses ``device``
    parameters: Optional[SimulationParameters] = None

    def __post_init__(self):
        sweeps = tuple(
            ax if isinstance(ax, SweepAxis) else SweepAxis(*ax)
            for ax in self.sweeps
        )
        object.__setattr__(self, "sweeps", sweeps)

    # -- sweep resolution ------------------------------------------------------
    @property
    def ballistic(self) -> bool:
        return self.physics.transport == "ballistic"

    @property
    def n_points(self) -> int:
        n = 1
        for ax in self.sweeps:
            n *= len(ax.values)
        return n

    def base_settings(self) -> Dict[str, Any]:
        """SCBASettings kwargs before any sweep axis is applied."""
        kw = asdict(self.grid)
        phys = asdict(self.physics)
        phys.pop("transport")
        kw.update(phys)
        return kw

    def sweep_points(self) -> List[SweepPoint]:
        """Resolve the Cartesian product of all axes, in axis-major order."""
        base = self.base_settings()
        points: List[SweepPoint] = []
        value_lists = [ax.values for ax in self.sweeps]
        for index, combo in enumerate(itertools.product(*value_lists)):
            kw = dict(base)
            coords: Dict[str, float] = {}
            for ax, v in zip(self.sweeps, combo):
                ax.apply(kw, v)
                coords[ax.name] = v
            points.append(SweepPoint(index=index, coords=coords, settings=kw))
        return points

    # -- construction helpers ----------------------------------------------------
    def with_sweep(self, name: str, values) -> "Workload":
        """A copy with one more sweep axis appended."""
        return replace(self, sweeps=self.sweeps + (SweepAxis(name, values),))

    def compile(self, **plan_kwargs):
        """Compile into an executable :class:`~repro.api.Plan`."""
        from .plan import compile_workload

        return compile_workload(self, **plan_kwargs)

    # -- serialization -----------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "device": asdict(self.device),
            "grid": asdict(self.grid),
            "physics": asdict(self.physics),
            "sweeps": [
                {"name": ax.name, "values": list(ax.values)}
                for ax in self.sweeps
            ],
            "parameters": (
                self.parameters.as_dict() if self.parameters is not None else None
            ),
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Workload":
        params = d.get("parameters")
        return cls(
            name=d.get("name", "custom"),
            device=DeviceSpec(**d["device"]),
            grid=GridSpec(**d["grid"]),
            physics=PhysicsSpec(**d["physics"]),
            sweeps=tuple(
                SweepAxis(ax["name"], tuple(ax["values"]))
                for ax in d.get("sweeps", ())
            ),
            parameters=SimulationParameters(**params) if params else None,
        )

    def to_json(self, canonical: bool = False, **kwargs) -> str:
        """JSON encoding; ``canonical=True`` yields the hashing form.

        The canonical form is byte-stable for identical workloads however
        they were constructed: keys are sorted, separators are fixed, and
        every float passes through Python's shortest-round-trip ``repr``
        (the :mod:`json` default), so a dict-ordering permutation or a
        ``to_dict``/``from_dict`` round trip cannot change the bytes.
        """
        if canonical:
            return json.dumps(
                self.to_dict(), sort_keys=True, separators=(",", ":")
            )
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_json(cls, text: str) -> "Workload":
        return cls.from_dict(json.loads(text))

    def cache_key(self) -> str:
        """Content address of this workload's *results*: a sha256 hex digest.

        Hashes the canonical JSON with the purely descriptive ``name``
        field removed, so two tenants submitting physically identical
        workloads under different labels share one cache entry.  The
        planning-only ``parameters`` override *is* included — it never
        changes the numerics, but keeping it makes the key conservative
        (a spurious miss costs a re-run; a spurious hit would be wrong).
        """
        content = self.to_dict()
        content.pop("name")
        canonical = json.dumps(content, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    def submit(self, service, **job_kwargs):
        """Convenience: submit this workload to a scheduler service.

        Equivalent to ``service.submit(self, **job_kwargs)`` — accepts the
        same ``tenant``/``priority``/``deadline_s`` hints and returns the
        queued :class:`~repro.service.Job`.
        """
        return service.submit(self, **job_kwargs)


# -- scenario registry ----------------------------------------------------------

_SCENARIOS: Dict[str, Callable[[], Workload]] = {}


def register_scenario(name: str):
    """Decorator registering a named scenario preset factory."""

    def deco(factory: Callable[[], Workload]) -> Callable[[], Workload]:
        _SCENARIOS[name] = factory
        return factory

    return deco


def scenario(name: str) -> Workload:
    """Instantiate a registered scenario preset by name."""
    try:
        factory = _SCENARIOS[name]
    except KeyError:
        raise WorkloadError(
            f"unknown scenario {name!r}; registered: {scenarios()}"
        ) from None
    return factory()


def scenarios() -> Tuple[str, ...]:
    """Registered scenario names, sorted."""
    return tuple(sorted(_SCENARIOS))


@register_scenario("quickstart")
def _quickstart() -> Workload:
    """The README/quickstart dissipative FinFET slice."""
    return Workload(
        name="quickstart",
        device=DeviceSpec(nx_cols=12, ny_rows=4, NB=6, slab_width=2, Norb=2),
        grid=GridSpec(e_min=-1.5, e_max=1.5, NE=20, Nkz=2, Nqz=2, Nw=3),
        physics=PhysicsSpec(
            transport="scba", mu_left=+0.2, mu_right=-0.2,
            coupling=0.25, mixing=0.6, max_iterations=20, tolerance=1e-5,
        ),
    )


@register_scenario("finfet_iv")
def _finfet_iv() -> Workload:
    """Ballistic I-V: the bias window as a first-class sweep axis."""
    return Workload(
        name="finfet_iv",
        device=DeviceSpec(nx_cols=10, ny_rows=4, NB=6, slab_width=2, Norb=2),
        grid=GridSpec(e_min=-1.6, e_max=1.6, NE=30, Nkz=2, Nqz=2, Nw=2, eta=1e-6),
        physics=PhysicsSpec(transport="ballistic", kT_el=0.05),
        sweeps=(SweepAxis("bias", tuple(np.linspace(0.0, 0.6, 7))),),
    )


@register_scenario("self_heating")
def _self_heating() -> Workload:
    """Dissipative SCBA run resolving the Fig. 1d self-heating map."""
    return Workload(
        name="self_heating",
        device=DeviceSpec(nx_cols=12, ny_rows=4, NB=6, slab_width=2, Norb=2),
        grid=GridSpec(e_min=-1.4, e_max=1.4, NE=18, Nkz=2, Nqz=2, Nw=3),
        physics=PhysicsSpec(
            transport="scba", mu_left=+0.3, mu_right=-0.3,
            coupling=0.3, mixing=0.6, max_iterations=25, tolerance=1e-5,
        ),
    )


@register_scenario("paper_4864")
def _paper_4864() -> Workload:
    """The 4,864-atom §5 structure (Table-1 parameters for planning).

    The synthetic builder approximates the Si fin with a 304x16 lattice
    (NA=4864, bnum=19); the attached ``parameters`` carry the paper's
    exact Table-1 values (NB=34, Norb=12) for cost/volume analysis.
    """
    return Workload(
        name="paper_4864",
        device=DeviceSpec(nx_cols=304, ny_rows=16, NB=8, slab_width=16, Norb=12),
        grid=GridSpec(e_min=-2.0, e_max=2.0, NE=706, Nkz=7, Nqz=7, Nw=70),
        physics=PhysicsSpec(transport="scba"),
        parameters=PAPER_STRUCTURE_4864,
    )


@register_scenario("paper_10240")
def _paper_10240() -> Workload:
    """The 10,240-atom extreme-scale run of §5.2.1 (planning preset)."""
    return Workload(
        name="paper_10240",
        device=DeviceSpec(nx_cols=320, ny_rows=32, NB=8, slab_width=16, Norb=12),
        grid=GridSpec(e_min=-2.0, e_max=2.0, NE=1000, Nkz=21, Nqz=21, Nw=70),
        physics=PhysicsSpec(transport="scba"),
        parameters=PAPER_STRUCTURE_10240,
    )
