"""Per-layer metrics of one traced run: spans joined to model counts.

Layer = module name.  Times come from the external probes
(:mod:`probes`), counts from the public result objects
(``SweepResult.reuse``, ``RunResult.comm``, ``Plan.cost``) and flop/byte
bases from the models the repo already has (``model.performance``,
``sse_flop_estimate``, ``model.communication``).  A metric that does not
apply to a workload (``runtime.*`` on a serial run, ``autotune.*`` without
a search) is left out, never reported as a measured zero.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from machine import best_of
from probes import Layer, Span, coverage, summarize


def _sdfg_extras(plan, model, sweep) -> Dict[str, float]:
    """Generated-kernel numbers measured beside the run, on its own tensors.

    Called inside the tracing context: ``compile_sse_pipeline`` is looked
    up on its module so the probe times it.
    """
    from repro.core import recipe
    from repro.negf.sse import preprocess_phonon_green, sigma_sse

    compiled = recipe.compile_sse_pipeline(backend="numpy")
    res = sweep.runs[-1].result
    neigh = model.structure.neighbors
    Dc = preprocess_phonon_green(res.Dl, neigh, model.structure.reverse_neighbor())

    def kernel(variant):
        return lambda: sigma_sse(
            res.Gl, model.dH, Dc, neigh, +1, variant, backend=plan.sse_backend
        )

    return {
        "sdfg.source_lines": float(len(compiled.source.splitlines())),
        "sdfg.generated_vs_hand": best_of(3, kernel("sdfg"))
        / best_of(3, kernel("dace")),
    }


def _runtime_metrics(plan, model, sweep, layers: Dict[str, Layer]) -> Dict[str, float]:
    """Communication of the distributed run against the exact §4.1 model."""
    from repro.model.communication import dace_exchange_stats
    from repro.parallel import CommStats, DaceDecomposition, OmenDecomposition

    (group,), (rp,) = plan.groups, plan.runtime_plan
    p = group.parameters
    (run,) = sweep.runs
    comm = {k: CommStats.from_dict(v) for k, v in run.comm.items()}
    exchanges = layers["runtime.exchange"].calls
    modeled = dace_exchange_stats(
        OmenDecomposition(Nkz=p.Nkz, NE=p.NE, P=rp["P"]),
        DaceDecomposition(NE=p.NE, NA=p.NA, TE=rp["TE"], TA=rp["TA"], Nw=p.Nw),
        model.structure.neighbors, p.Nqz, p.Nw, p.Norb, p.N3D,
    ).scaled(exchanges)
    sse = comm["sse"]
    drift = sum(
        int(np.abs(getattr(sse, f) - getattr(modeled, f)).sum())
        for f in ("sent_bytes", "recv_bytes", "messages")
    )
    return {
        "runtime.run_s": layers["runtime.run"].total_s,
        "runtime.loop_self_s": layers["runtime.run"].self_s,
        "runtime.exchange_self_s": layers["runtime.exchange"].self_s,
        "runtime.exchange_bytes": float(sse.total_bytes),
        "runtime.exchange_messages": float(sse.messages.sum()),
        "runtime.residual_bytes": float(comm["residual"].total_bytes),
        "runtime.gather_bytes": float(comm["gather"].total_bytes),
        "runtime.bytes_per_iteration": sse.total_bytes / max(exchanges, 1),
        "runtime.bytes_drift": float(drift),
    }


def layer_metrics(
    spans: Sequence[Span], plan, model, sweep, root: str, peaks: Dict[str, float]
) -> Dict[str, float]:
    """Every per-layer metric that applies to this run, by name.

    ``peaks`` are the ``machine.*`` numbers of this harness invocation
    (:func:`machine.measure`); they are reported with the layers and are
    the base of every ``*_frac_peak``.
    """
    from repro.model.performance import contour_integral_flops, rgf_flops
    from repro.negf.sse import sse_flop_estimate

    (group,) = plan.groups  # every benchmark workload is one structural group
    p = group.parameters
    physics = plan.workload.physics
    scba = not plan.ballistic
    distributed = plan.runtime != "serial"

    out = dict(peaks)
    if physics.sse_variant == "sdfg":
        out.update(_sdfg_extras(plan, model, sweep))
    layers = summarize(spans)

    def layer(name: str) -> Layer:
        return layers.get(name, Layer())

    iterations = sum(r.iterations for r in sweep.runs)
    peak = out["machine.zgemm_gflops"]
    out["trace.coverage"] = coverage(spans, root)
    out["trace.spans"] = float(len(spans))

    out["api.compile_s"] = layer("api.compile").total_s
    out["api.session_self_s"] = layer(root).self_s
    out["api.points"] = float(len(sweep.runs))

    out["hamiltonian.build_s"] = layer("hamiltonian.build").total_s
    out["hamiltonian.assemble_s"] = layer("hamiltonian.assemble").total_s
    out["hamiltonian.assemblies"] = float(
        sum(v for k, v in sweep.reuse.items() if k.startswith("assemblies_"))
    )

    solves, hits = sweep.boundary_solves, sweep.boundary_hits
    out["boundary.solve_s"] = layer("boundary.solve").total_s
    out["boundary.solves"] = float(solves)
    out["boundary.hits"] = float(hits)
    # a solve counts each lead (2 per grid point), a hit counts the pair
    out["boundary.hit_ratio"] = hits / (hits + solves / 2)

    gf_s = layer("rgf.solve").total_s + layer("boundary.solve").total_s
    gf_gflop = (rgf_flops(p) + contour_integral_flops(p)) * iterations / 1e9
    out["rgf.solve_s"] = layer("rgf.solve").total_s
    out["rgf.calls"] = float(layer("rgf.solve").calls)
    out["rgf.model_gflop"] = gf_gflop
    out["rgf.gflops"] = gf_gflop / gf_s
    out["rgf.frac_peak"] = out["rgf.gflops"] / peak

    out["engine.electrons_s"] = layer("engine.electrons").total_s
    out["engine.phonons_s"] = layer("engine.phonons").total_s
    out["engine.self_s"] = sum(
        layer(n).self_s
        for n in ("engine.electrons", "engine.phonons", "engine.rank_gf")
    )

    out["sse.sigma_calls"] = float(layer("sse.sigma").calls)
    out["sse.pi_calls"] = float(layer("sse.pi").calls)
    if scba:
        # one fused tile pass of the distributed runtime evaluates the
        # four sigma combinations (lesser/greater x emission/absorption)
        evaluations = (
            4 * layer("runtime.exchange").calls
            if distributed
            else layer("sse.sigma").calls
        )
        kernel = layer("sse.tile" if distributed else "sse.sigma")
        sse_gflop = evaluations * sse_flop_estimate(
            p.Nkz, p.NE, p.Nqz, p.Nw, p.NA, p.NB, p.N3D, p.Norb,
            variant=physics.sse_variant,
        ) / 1e9
        out["sse.sigma_s"] = layer("sse.sigma").total_s
        out["sse.pi_s"] = layer("sse.pi").total_s
        out["sse.tile_s"] = layer("sse.tile").total_s
        out["sse.preprocess_s"] = layer("sse.preprocess").total_s
        out["sse.combine_s"] = layer("sse.phase").self_s
        out["sse.model_gflop"] = sse_gflop
        out["sse.sigma_gflops"] = sse_gflop / kernel.total_s
        out["sse.sigma_frac_peak"] = out["sse.sigma_gflops"] / peak
        out["sse.computed_gb"] = kernel.nbytes / 1e9
        out["sse.flops_per_byte"] = sse_gflop * 1e9 / kernel.nbytes
        out["sdfg.movement_report_s"] = layer("sdfg.movement_report").total_s
        if "sdfg.pipeline_compile" in layers:
            out["sdfg.pipeline_compile_s"] = layers["sdfg.pipeline_compile"].total_s

    out["scba.iterations"] = float(iterations)
    out["scba.loop_self_s"] = layer("scba.run").self_s
    out["scba.final_residual"] = max(
        (r.result.history[-1] for r in sweep.runs if r.result.history), default=0.0
    )

    if distributed:
        out.update(_runtime_metrics(plan, model, sweep, layers))

    if plan.tuned_sse_report is not None:
        tuned = plan.tuned_sse_report
        out["autotune.search_s"] = layer("autotune.search").total_s
        out["autotune.moves"] = float(len(tuned.stages) - 1)
        out["autotune.modeled_reduction"] = tuned.total_reduction

    out["model.gf_gflop_per_iteration"] = plan.cost.gf_flops_per_iteration / 1e9
    out["model.sse_gflop_per_iteration"] = plan.cost.sse_flops_per_iteration / 1e9
    return out
