"""Reference interpreter for SDFGs.

Executes an SDFG on numpy arrays with sequential-loop semantics: maps expand
to nested loops over their (evaluated) index ranges, tasklets run their
Python code on views selected by the incoming memlets, and writes through
``wcr`` memlets combine with the existing array contents (``CR: Sum``).

This interpreter defines the *semantics* that every graph transformation
must preserve — the equivalence tests in ``tests/test_recipe.py`` execute
the SSE SDFG after each transformation step and compare results against the
untransformed graph.
"""

from __future__ import annotations

import itertools
from typing import Dict, Mapping, Optional

import numpy as np

from .graph import SDFG, ScopeIndex, SDFGState
from .memlet import Memlet
from .nodes import AccessNode, MapEntry, Node, Tasklet

__all__ = ["Interpreter", "ExecutionReport", "execute"]

_MAX_STATE_TRANSITIONS = 100_000


class ExecutionReport:
    """Statistics gathered during interpretation."""

    __slots__ = ("tasklet_invocations", "flops", "element_reads", "element_writes")

    def __init__(self):
        self.tasklet_invocations = 0
        self.flops = 0
        self.element_reads = 0
        self.element_writes = 0

    def __repr__(self) -> str:
        return (
            f"ExecutionReport(tasklets={self.tasklet_invocations}, "
            f"flops={self.flops}, reads={self.element_reads}, "
            f"writes={self.element_writes})"
        )


class Interpreter:
    """Executes an :class:`~repro.sdfg.graph.SDFG` on concrete data."""

    def __init__(self, sdfg: SDFG):
        self.sdfg = sdfg
        self.report = ExecutionReport()

    # -- public API ----------------------------------------------------------
    def run(
        self,
        symbols: Mapping[str, int],
        arrays: Mapping[str, np.ndarray],
        tables: Optional[Mapping[str, np.ndarray]] = None,
        zero_transients: bool = True,
    ) -> Dict[str, np.ndarray]:
        """Execute and return the full array store (inputs + transients)."""
        env: Dict[str, object] = dict(symbols)
        env["__tables__"] = dict(tables or {})
        store: Dict[str, np.ndarray] = {}
        for name, desc in self.sdfg.arrays.items():
            if name in arrays:
                store[name] = np.asarray(arrays[name])
                continue
            shape = desc.evaluate_shape(env)
            if desc.transient or zero_transients:
                store[name] = np.zeros(shape, dtype=desc.dtype)
            else:
                raise KeyError(f"missing non-transient input array {name!r}")

        state = self.sdfg.start_state
        transitions = 0
        ctx: Dict[str, object] = dict(env)
        while state is not None:
            self._run_state(state, env, store)
            transitions += 1
            if transitions > _MAX_STATE_TRANSITIONS:
                raise RuntimeError("state machine exceeded transition limit")
            nxt = None
            for dst, edge in self.sdfg.out_edges_of(state):
                ctx["__arrays__"] = store
                if edge.taken(ctx):
                    for sym, fn in edge.assignments.items():
                        ctx[sym] = fn(ctx)
                        env[sym] = ctx[sym]
                    nxt = dst
                    break
            state = nxt
        return store

    # -- state / scope execution -------------------------------------------
    def _run_state(self, state: SDFGState, env: Dict, store: Dict):
        scopes = state.scope_index()
        for node in scopes.immediate_children(None):
            self._run_node(state, scopes, node, env, store)

    def _run_node(
        self,
        state: SDFGState,
        scopes: ScopeIndex,
        node: Node,
        env: Dict,
        store: Dict,
    ):
        if isinstance(node, AccessNode):
            return
        if isinstance(node, Tasklet):
            self._run_tasklet(state, node, env, store)
        elif isinstance(node, MapEntry):
            self._run_scope(state, scopes, node, env, store)
        else:
            raise TypeError(f"cannot interpret node {node!r}")

    def _run_scope(
        self,
        state: SDFGState,
        scopes: ScopeIndex,
        entry: MapEntry,
        env: Dict,
        store: Dict,
    ):
        m = entry.map
        ranges = m.range.evaluate(env)
        # Nested scopes are executed by their own entries.
        order = scopes.immediate_children(entry)
        iter_spaces = [
            range(b, e + 1, s) if s > 0 else range(b, e - 1, s)
            for (b, e, s) in ranges
        ]
        local_env = dict(env)
        for combo in itertools.product(*iter_spaces):
            for p, v in zip(m.params, combo):
                local_env[p] = v
            for node in order:
                self._run_node(state, scopes, node, local_env, store)

    # -- tasklet execution ----------------------------------------------------
    def _run_tasklet(self, state: SDFGState, node: Tasklet, env: Dict, store: Dict):
        inputs: Dict[str, object] = {}
        for u, _, d in state.in_edges(node):
            mem: Optional[Memlet] = d.get("memlet")
            conn = d.get("dst_conn")
            if mem is None or conn is None:
                continue
            inputs[conn] = self._read(mem, env, store)
        missing = [c for c in node.inputs if c not in inputs]
        if missing:
            raise RuntimeError(
                f"tasklet {node.label!r}: unbound input connectors {missing}"
            )
        outputs = node.code(**inputs)
        if outputs is None:
            outputs = {}
        if node.flops is not None:
            self.report.flops += int(node.flops(**inputs))
        self.report.tasklet_invocations += 1
        for _, v, d in state.out_edges(node):
            mem = d.get("memlet")
            conn = d.get("src_conn")
            if mem is None or conn is None:
                continue
            if conn not in outputs:
                raise RuntimeError(
                    f"tasklet {node.label!r} did not produce output {conn!r}"
                )
            self._write(mem, env, store, outputs[conn])

    def _read(self, mem: Memlet, env: Dict, store: Dict):
        arr = store[mem.data]
        slices = mem.subset.to_slices(env)
        view = arr[slices]
        squeeze_axes = mem.subset.degenerate_axes(env)
        # Squeeze only symbolically-degenerate (point) dimensions.
        sym_points = tuple(
            i for i, (b, e, _) in enumerate(mem.subset.dims) if b == e
        )
        axes = tuple(i for i in squeeze_axes if i in sym_points)
        if axes:
            view = np.squeeze(view, axis=axes)
        self.report.element_reads += view.size if hasattr(view, "size") else 1
        if isinstance(view, np.ndarray) and view.ndim == 0:
            return view[()]
        if isinstance(view, np.ndarray):
            view = view.view()
            view.flags.writeable = False
        return view

    def _write(self, mem: Memlet, env: Dict, store: Dict, value):
        arr = store[mem.data]
        slices = mem.subset.to_slices(env)
        target_shape = arr[slices].shape
        value = np.asarray(value)
        sym_points = tuple(
            i for i, (b, e, _) in enumerate(mem.subset.dims) if b == e
        )
        if sym_points and value.ndim < len(target_shape):
            # Re-insert squeezed point dimensions for broadcasting.
            value = np.expand_dims(value, axis=sym_points)
        self.report.element_writes += int(np.prod(target_shape)) if target_shape else 1
        if mem.wcr is None:
            arr[slices] = value
        else:
            arr[slices] = mem.wcr_function()(arr[slices], value)


def execute(
    sdfg: SDFG,
    symbols: Mapping[str, int],
    arrays: Mapping[str, np.ndarray],
    tables: Optional[Mapping[str, np.ndarray]] = None,
) -> Dict[str, np.ndarray]:
    """One-shot convenience wrapper around :class:`Interpreter`."""
    return Interpreter(sdfg).run(symbols, arrays, tables)
