"""Reference interpreter for SDFGs.

Executes an SDFG on numpy arrays with sequential-loop semantics: maps expand
to nested loops over their (evaluated) index ranges, tasklets run their
Python code on views selected by the incoming memlets, and writes through
``wcr`` memlets combine with the existing array contents (``CR: Sum``).

A run first turns each state into a plan, once: its scopes as nested
step lists, and per tasklet the ``(connector, memlet, evaluator, point
axes)`` of every input and output memlet, where the evaluator is the
subset's :meth:`~repro.sdfg.subsets.Range.evaluator` (the same integer
triples as ``Range.evaluate``, compiled once per range).  Invocations
then only evaluate and slice; the semantics are those of the graph.

This interpreter defines the *semantics* that every graph transformation
must preserve — the equivalence tests in ``tests/test_recipe.py`` execute
the SSE SDFG after each transformation step and compare results against the
untransformed graph.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Mapping, Optional

import numpy as np

from .graph import SDFG, ScopeIndex, SDFGState
from .memlet import Memlet
from .nodes import AccessNode, MapEntry, Tasklet
from .subsets import as_slices

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
        plans: Dict[SDFGState, List] = {}  # built on a state's first visit
        while state is not None:
            if state not in plans:
                plans[state] = _plan(state, state.scope_index(), None)
            self._run_steps(plans[state], env, store)
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
    def _run_steps(self, steps: List, env: Dict, store: Dict):
        for node, a, b in steps:  # see _plan
            if isinstance(node, Tasklet):
                self._run_tasklet(node, a, b, env, store)
            else:
                self._run_scope(node.map.params, a(env), b, env, store)

    def _run_scope(self, params, ranges, body: List, env: Dict, store: Dict):
        iter_spaces = [range(b, e + 1, s) if s > 0 else range(b, e - 1, s)
                       for (b, e, s) in ranges]
        local_env = dict(env)
        for combo in itertools.product(*iter_spaces):
            for p, v in zip(params, combo):
                local_env[p] = v
            self._run_steps(body, local_env, store)

    # -- tasklet execution ----------------------------------------------------
    def _run_tasklet(self, node: Tasklet, ins: List, outs: List, env: Dict, store: Dict):
        inputs = {c: self._read(m, evaluate(env), p, store) for c, m, evaluate, p in ins}
        missing = [c for c in node.inputs if c not in inputs]
        if missing:
            raise RuntimeError(
                f"tasklet {node.label!r}: unbound input connectors {missing}"
            )
        outputs = node.code(**inputs) or {}
        if node.flops is not None:
            self.report.flops += int(node.flops(**inputs))
        self.report.tasklet_invocations += 1
        for conn, mem, evaluate, points in outs:
            if conn not in outputs:
                raise RuntimeError(
                    f"tasklet {node.label!r} did not produce output {conn!r}"
                )
            self._write(mem, evaluate(env), points, store, outputs[conn])

    def _read(self, mem: Memlet, triples, points, store: Dict):
        view = store[mem.data][as_slices(triples)]
        # Squeeze only symbolically-degenerate (point) dimensions.
        if points:
            view = view.squeeze(axis=points)
        self.report.element_reads += view.size
        if view.ndim == 0:
            return view[()]
        view = view.view()
        view.flags.writeable = False
        return view

    def _write(self, mem: Memlet, triples, points, store: Dict, value):
        arr = store[mem.data]
        slices = as_slices(triples)
        target = arr[slices]
        value = np.asarray(value)
        if points and value.ndim < target.ndim:
            # Re-insert squeezed point dimensions for broadcasting.
            value = np.expand_dims(value, axis=points)
        self.report.element_writes += target.size
        if mem.wcr is None:
            arr[slices] = value
        else:
            arr[slices] = mem.wcr_function()(target, value)


def _plan(state: SDFGState, scopes: ScopeIndex, entry: Optional[MapEntry]) -> List:
    """``entry``'s scope (``None``: the state) as steps ``(tasklet, inputs,
    outputs)`` (see :func:`_io`) or ``(map entry, evaluator, body)``."""
    steps: List = []
    for node in scopes.immediate_children(entry):
        if isinstance(node, Tasklet):
            steps.append((node, _io(state.in_edges(node), "dst_conn"),
                          _io(state.out_edges(node), "src_conn")))
        elif isinstance(node, MapEntry):
            steps.append((node, node.map.range.evaluator(), _plan(state, scopes, node)))
        elif not isinstance(node, AccessNode):
            raise TypeError(f"cannot interpret node {node!r}")
    return steps


def _io(edges, key: str) -> List:
    """``(connector, memlet, evaluator, point axes)`` per memlet on a ``key``
    connector of a tasklet's ``edges``, in edge order."""
    return [
        (d[key], m, m.subset.evaluator(), m.subset.point_axes)
        for *_, d in edges
        if (m := d.get("memlet")) is not None and d.get(key) is not None
    ]


def execute(
    sdfg: SDFG,
    symbols: Mapping[str, int],
    arrays: Mapping[str, np.ndarray],
    tables: Optional[Mapping[str, np.ndarray]] = None,
) -> Dict[str, np.ndarray]:
    """One-shot convenience wrapper around :class:`Interpreter`."""
    return Interpreter(sdfg).run(symbols, arrays, tables)
