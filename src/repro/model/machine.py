"""Machine models of the two evaluation platforms (paper §5).

Parameters are taken from the paper's hardware description and calibrated
once against its own measurements (documented per field):

* **Piz Daint** — 5,704 Cray XC50 nodes, 1x NVIDIA P100 (4.7 Tflop/s DP),
  Aries interconnect, 2 processes/node (one full-scale config uses 1).
* **Summit** — 4,608 nodes, 6x NVIDIA V100 (7.8 Tflop/s DP each), dual-rail
  EDR InfiniBand fat tree, 6 processes/node (7 cores each).

Efficiencies: Summit GF 44.5% / SSE 6.2% of peak are *quoted by the paper*
(§5.2.1); the OMEN-variant degradations are derived from Table 7
(SSE: 9.97x slower at 2x the flops -> ~20% of the DaCe-variant efficiency;
GF: 111.25/144.14 -> 77%).  Effective alltoallv bandwidths are fitted to
the paper's Table 8 communication column and Fig. 13 communication curves.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MachineSpec", "PIZ_DAINT", "SUMMIT"]


@dataclass(frozen=True)
class MachineSpec:
    """A supercomputer abstraction for the performance/scaling models."""

    name: str
    nodes: int
    gpus_per_node: int
    #: double-precision peak of one node (flop/s)
    peak_node_flops: float
    procs_per_node: int
    #: GF-phase efficiency (fraction of node peak), DaCe variant
    eff_gf_dace: float
    #: SSE-phase efficiency, DaCe variant
    eff_sse_dace: float
    #: GF-phase efficiency, original OMEN
    eff_gf_omen: float
    #: SSE-phase efficiency, original OMEN
    eff_sse_omen: float
    #: effective alltoallv bandwidth per process (B/s), DaCe schedule —
    #: the alltoallv parallelizes over every NIC
    bw_dace: float
    #: effective *aggregate* bandwidth (B/s) for OMEN's broadcast + p2p
    #: rounds — the per-(qz, ω) broadcasts serialize at their roots, so the
    #: schedule moves its total volume through a root/bisection-limited
    #: resource rather than scaling with P
    bw_omen: float
    #: per-message latency (s)
    alpha: float = 10e-6

    @property
    def peak_proc_flops(self) -> float:
        return self.peak_node_flops / self.procs_per_node

    def rate(self, phase: str, variant: str, processes: int) -> float:
        """Aggregate compute rate (flop/s) of `processes` ranks."""
        eff = {
            ("gf", "dace"): self.eff_gf_dace,
            ("sse", "dace"): self.eff_sse_dace,
            ("gf", "omen"): self.eff_gf_omen,
            ("sse", "omen"): self.eff_sse_omen,
        }[(phase, variant)]
        return processes * self.peak_proc_flops * eff


#: Piz Daint (Cray XC50, P100).  GF runs at ~100% of the P100 DP peak
#: (Table 7: 0.548 Pflop in 111.25 s on one node), SSE-DaCe at 24%,
#: SSE-OMEN at 4.8% (Table 7 ratio analysis).  Effective alltoallv
#: bandwidth fitted to the Fig. 13a communication curves; the OMEN
#: broadcast+p2p pattern is a further ~5.5x less efficient (fits the
#: paper's 417x communication-time improvement at a 74x volume reduction).
PIZ_DAINT = MachineSpec(
    name="Piz Daint",
    nodes=5704,
    gpus_per_node=1,
    peak_node_flops=4.7e12,
    procs_per_node=2,
    eff_gf_dace=1.00,
    eff_sse_dace=0.24,
    eff_gf_omen=0.77,
    eff_sse_omen=0.048,
    bw_dace=30e6,
    bw_omen=13e9,
)

#: Summit (IBM AC922, 6x V100).  GF 44.5% and SSE 6.2% efficiencies are
#: the paper's own quoted full-scale numbers; bandwidth fitted to Table 8's
#: communication column (44 s at Nkz=11 on 1,852 nodes).
SUMMIT = MachineSpec(
    name="Summit",
    nodes=4608,
    gpus_per_node=6,
    peak_node_flops=6 * 7.8e12,
    procs_per_node=6,
    eff_gf_dace=0.445,
    eff_sse_dace=0.062,
    eff_gf_omen=0.445 * 0.77,
    eff_sse_omen=0.062 * 0.20,
    bw_dace=39e6,
    bw_omen=55e9,
)
