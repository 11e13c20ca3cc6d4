"""Data-centric quantum transport simulation.

A from-scratch Python reproduction of

    A. N. Ziogas, T. Ben-Nun, G. Indalecio Fernández, T. Schneider,
    M. Luisier, T. Hoefler: "Optimizing the Data Movement in Quantum
    Transport Simulations via Data-Centric Parallel Programming", SC'19.

Packages
--------
``repro.sdfg``
    Mini-DaCe: symbolic IR, interpreter, memlet propagation, transformations.
``repro.core``
    The paper's contribution: the SSE SDFG, the Fig. 9-12 transformation
    recipe, and the communication-avoiding distribution.
``repro.negf``
    The quantum-transport substrate: device structures, Hamiltonians,
    open boundaries, the recursive Green's function solver, scattering
    self-energies, and the self-consistent Born (GF <-> SSE) loop.
``repro.parallel``
    Simulated MPI, data decompositions, and the OMEN/DaCe SSE
    communication schedules as resident exchange objects.
``repro.runtime``
    The distributed SCBA runtime: a rank-parallel Born loop executing the
    SSE schedules in-loop over pluggable transports (in-process ``sim``
    with bit-exact byte accounting, forked-process ``pipe``).
``repro.model``
    Machine, performance (flop), communication-volume, and scaling models
    reproducing the paper's Tables 3-5, 8 and Fig. 13.
``repro.api``
    The public facade: declarative ``Workload`` → compiled ``Plan`` →
    executed ``Session`` (with sweeps as first-class axes and named
    scenario presets) — the canonical entry point for every scenario.
``repro.analysis``
    The paper scorecard: each quantitative claim of Tables 3-5, 8 and
    Fig. 13 written once beside ours (``python -m repro.analysis``).
"""

__version__ = "1.1.0"

#: facade names re-exported lazily from :mod:`repro.api` (PEP 562), so
#: ``import repro`` stays cheap for the analysis-only modules
_API_EXPORTS = (
    "Workload",
    "DeviceSpec",
    "GridSpec",
    "PhysicsSpec",
    "SweepAxis",
    "Plan",
    "Session",
    "RunResult",
    "SweepResult",
    "compile_workload",
    "register_scenario",
    "scenario",
    "scenarios",
)

__all__ = ["__version__", *_API_EXPORTS]


def __getattr__(name):
    if name in _API_EXPORTS:
        from . import api

        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
