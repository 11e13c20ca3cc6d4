"""Self-heating in a biased device (the paper's Fig. 1d scenario).

Runs the ``self_heating`` scenario — a dissipative SCBA workload — and
maps where electrons deposit energy into the lattice: the per-atom
dissipated power peaks towards the drain side, the effect the paper's
FinFET simulations resolve atomically.

Run:  python examples/self_heating.py
"""

import numpy as np

from repro.api import Session, scenario


def main():
    workload = scenario("self_heating")
    with Session(workload.compile()) as session:
        run = session.run()[0]
        structure = session.model.structure
    res = run.result
    print(f"converged={run.converged} after {run.iterations} iterations")
    print(f"current: I_L={run.current_left:+.4e}")

    # 2-D dissipation map (x = transport, y = fin cross-section).
    power = res.dissipation.reshape(structure.nx, structure.ny)
    scale = np.abs(power).max() or 1.0
    chars = " .:-=+*#%@"
    print("\natomically-resolved dissipation map "
          "(rows = y, columns = x = source->drain):")
    for iy in range(structure.ny):
        row = ""
        for ix in range(structure.nx):
            v = abs(power[ix, iy]) / scale
            row += chars[min(int(v * (len(chars) - 1)), len(chars) - 1)]
        print(f"  y={iy}  |{row}|")

    # Effective local temperature proxy: bath temperature plus a term
    # proportional to the local dissipated power (qualitative Fig. 1d map).
    kT_ph = workload.physics.kT_ph
    t_eff = kT_ph + 0.5 * np.abs(power) / scale * kT_ph
    print(f"\npeak effective temperature: {t_eff.max():.4f} "
          f"(bath {kT_ph})  at column "
          f"{np.unravel_index(np.argmax(np.abs(power)), power.shape)[0]}")
    print("phonon occupations and temperature rise concentrate near the "
          "high-field region — the self-heating signature.")


if __name__ == "__main__":
    main()
