"""Communication planning for a production run (the §4.1 workflow).

The workload is declared once through the ``paper_4864`` scenario preset
(the 4,864-atom §5 structure); compiling it validates the Table-1
parameters and produces the flop/footprint estimates.  From the plan's
parameters we then derive the communication-avoiding decomposition for a
target machine: propagate memlets through the tiled SSE map symbolically,
search the (TE, TA) tile space exhaustively, and compare the resulting
volume and predicted iteration time against the original OMEN scheme.

Run:  python examples/communication_planning.py
"""

from repro.api import scenario
from repro.config import SimulationParameters
from repro.model import (
    PIZ_DAINT,
    SUMMIT,
    comm_volumes,
    predict_times,
    search_tiling,
)
from repro.sdfg import Map, Memlet, Range, propagate_memlet


def symbolic_footprint():
    """The Fig. 7 derivation: tiled-map propagation of G≷[kz-qz, ...]."""
    inner = Memlet.parse("G[kz - qz]")
    tiled = Map(
        "sse_tiles",
        ["kz", "qz"],
        Range.parse("[tkz*skz:(tkz + 1)*skz, tqz*sqz:(tqz + 1)*sqz]"),
    )
    prop = propagate_memlet(inner, tiled, array_shape=("Nkz",))
    print("symbolic per-tile footprint of G≷ along kz-qz:")
    print(f"  subset   : {prop.subset}")
    print(f"  length   : {prop.subset.dim_length(0)}")
    print(f"  accesses : {prop.accesses}")
    print("  (the paper's min(Nkz, skz+sqz-1) unique elements)\n")


def machine_plan(p: SimulationParameters, machine, processes: int):
    tiling = search_tiling(p, processes)
    v = comm_volumes(p, processes, tiling.TE, tiling.TA)
    t_dace = predict_times(machine, p, processes, "dace")
    t_omen = predict_times(machine, p, processes, "omen")
    print(f"{machine.name}, P={processes}:")
    print(f"  optimal tiling      : TE={tiling.TE} x TA={tiling.TA}")
    print(f"  SSE volume          : DaCe {v.dace_tib:8.2f} TiB   "
          f"OMEN {v.omen_tib:8.2f} TiB   ({v.reduction_factor:.0f}x less)")
    print(f"  predicted iteration : DaCe {t_dace.total:8.1f} s     "
          f"OMEN {t_omen.total:8.1f} s   ({t_omen.total / t_dace.total:.1f}x faster)")
    print(f"    DaCe breakdown    : GF {t_dace.gf:.1f} s, SSE {t_dace.sse:.1f} s, "
          f"comm {t_dace.comm:.1f} s\n")


def main():
    symbolic_footprint()

    # The workload side of the §4.1 contract: the scenario preset carries
    # the paper's exact Table-1 parameters (NB=34, Norb=12), which the
    # compile step validates and prices before any machine is chosen.
    workload = scenario("paper_4864")
    plan = workload.compile(engine="batched")
    print(plan.describe())
    p = plan.groups[0].parameters
    print(f"\nstructure: NA={p.NA}, Norb={p.Norb}, NE={p.NE}, Nkz={p.Nkz}\n")

    # The machine side: decomposition + schedule per target system.
    for machine, procs in ((PIZ_DAINT, 896), (PIZ_DAINT, 2688), (SUMMIT, 1368)):
        machine_plan(p, machine, procs)


if __name__ == "__main__":
    main()
