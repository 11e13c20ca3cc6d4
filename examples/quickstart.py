"""Quickstart: a dissipative quantum-transport simulation in ~30 lines.

Declares a small synthetic FinFET workload, compiles it into a plan
(validation + engine selection + cost estimate), and executes a
ballistic reference and the full self-consistent Born (GF ⇄ SSE) loop
through a :class:`repro.api.Session`.  Ends with the legacy-API engine
comparison (serial vs batched) to show what the facade wraps.

Run:  python examples/quickstart.py
"""

import time
from dataclasses import replace

import numpy as np

from repro.api import Session, scenario
from repro.negf import SCBASettings, SCBASimulation


def main():
    # 1. The workload: device, grid, and physics — declarative, no wiring.
    workload = scenario("quickstart")
    dev = workload.device
    print(f"device: NA={dev.NA} atoms, NB={dev.NB} neighbors, "
          f"bnum={dev.bnum} RGF blocks")

    # 2. Compile: Table-1 validation, backend choice, Table-3 cost model.
    plan = workload.compile()
    print(plan.describe())

    # 3. Ballistic reference (no electron-phonon scattering).
    ballistic_wl = replace(
        workload, physics=replace(workload.physics, transport="ballistic")
    )
    with Session(ballistic_wl.compile()) as session:
        ballistic = session.run()[0]
    print(f"\nballistic:  I_left = {ballistic.current_left:+.4e}   "
          f"I_right = {ballistic.current_right:+.4e}")
    print(f"flux conservation |I_L + I_R| = "
          f"{abs(ballistic.current_left + ballistic.current_right):.2e}")

    # 4. Dissipative run: self-consistent Born iteration until convergence.
    with Session(plan) as session:
        run = session.run()[0]
        result = run.result
        model = session.model
    print(f"\ndissipative: converged={run.converged} "
          f"after {run.iterations} iterations")
    print("residual history:", " ".join(f"{h:.1e}" for h in result.history))
    print(f"I_left = {run.current_left:+.4e}")
    print(f"total dissipated power: {run.total_dissipation:+.4e}")

    # 5. Where does the heat go? (per-atom dissipation, column averages)
    structure = model.structure
    cols = result.dissipation.reshape(structure.nx, structure.ny).mean(axis=1)
    peak = np.abs(cols).max() or 1.0
    print("\ndissipation profile along transport direction:")
    for i, c in enumerate(cols):
        bar = "#" * int(30 * abs(c) / peak)
        print(f"  x={i:2d}  {c:+.3e}  {bar}")

    # 6. Under the facade: the same sweep through the legacy engine API.
    #    The batched backend stacks all energies of one kz into one tensor
    #    solve and matches the serial per-point loop to 1e-10.
    settings = SCBASettings(**plan.groups[0].point_settings(0))
    print("\nengine backends (one ballistic GF sweep, legacy API):")
    reference = None
    for backend in ("serial", "batched"):
        with SCBASimulation(model, replace(settings, engine=backend)) as sim:
            t0 = time.perf_counter()
            Gl, _, _, _ = sim.solve_electrons(None, None)
            elapsed = time.perf_counter() - t0
        dev_str = ""
        if reference is not None:
            dev_str = f"  max dev vs serial = {np.abs(Gl - reference).max():.1e}"
        reference = Gl if reference is None else reference
        print(f"  {backend:8s}  {elapsed:.3f}s{dev_str}")


if __name__ == "__main__":
    main()
