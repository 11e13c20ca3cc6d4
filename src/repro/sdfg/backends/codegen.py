"""Numpy code generation from SDFGs (the ``numpy`` execution backend).

Lowers a single-state SDFG to a vectorized Python module — the
reproduction's analogue of DaCe emitting fast code from the optimized
graph (paper §5).  The generated ``run(dims, arrays, tables)`` function
mirrors :meth:`repro.sdfg.interpreter.Interpreter.run`: it allocates the
array store, executes every map scope, and returns the store.

Lowering strategy, per map scope (innermost decision wins):

* **vectorized** — when every tasklet in the scope carries a declarative
  :attr:`~repro.sdfg.nodes.Tasklet.op` annotation (an einsum-style
  equation over its memlets' slice dimensions, or ``"zero"``) and all
  memlet subsets are regular enough, the whole scope collapses into
  broadcast slice assignments and ``np.einsum`` contractions.  Map
  parameters become einsum subscripts; parameters absent from a
  ``CR: Sum`` output are contracted; affine/indirect point indices
  become gathered index grids; scattered ``CR: Sum`` writes lower to
  ``np.add.at``.  Scope-local scratch transients are propagated as
  expanded einsum temporaries instead of materialized per iteration.
* **loop nest** — any scope that resists vectorization (no ``op``,
  irregular subsets) is emitted as explicit ``for`` loops whose bodies
  index arrays directly and invoke the tasklet's Python ``code`` — still
  far faster than interpretation, which re-evaluates symbolic subsets at
  every iteration.

Semantics parity with the interpreter is exact by construction where it
matters (same index arithmetic, numpy's negative-index wraparound for
periodic accesses, identical iteration order in loop fallbacks) and
verified to 1e-10 by the pipeline's per-stage compile checks and the
backend-equivalence tests.  Generated runs count nothing: execution
statistics (tasklet invocations, flops, element reads/writes) come from
the interpreter, which counts them by running.
"""

from __future__ import annotations

import io
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..graph import SDFG, SDFGState
from ..memlet import Memlet
from ..nodes import AccessNode, MapEntry, Tasklet
from ..symbolic import (
    Add,
    Expr,
    FloorDiv,
    IndirectAccess,
    Integer,
    Max,
    Min,
    Mod,
    Mul,
    Symbol,
)
from . import Backend, BackendError, StageRunner
from .common import restore_output, select_stage_inputs, stage_output

__all__ = [
    "NumpyBackend",
    "NumpyStageRunner",
    "generate_source",
    "compile_sdfg",
    "required_symbols",
]

_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


class _Fallback(Exception):
    """Internal: the current scope cannot be vectorized; emit loops."""


def _is_same(a: Expr, b) -> bool:
    """Symbolic equality up to distribution: ``a - b`` expands to 0."""
    try:
        return (a - b).expand() == Integer(0)
    except Exception:
        return False


# -- symbolic expression -> python source ----------------------------------------


def _end_code(e: Expr, scope: Mapping[str, str]) -> str:
    """Code for an inclusive end turned exclusive: ``(e + 1)`` expanded,
    so ``0:Norb`` is emitted instead of ``0:(Norb + -1) + 1``."""
    return _expr_code((e + Integer(1)).expand(), scope)


def _expr_code(expr: Expr, scope: Mapping[str, str]) -> str:
    """Emit python source for ``expr``; ``scope`` maps symbol names (and
    ``"__table__:<name>"`` entries) to code fragments."""
    if isinstance(expr, Integer):
        return str(expr.value)
    if isinstance(expr, Symbol):
        if expr.name not in scope:
            raise _Fallback(f"unbound symbol {expr.name!r}")
        return scope[expr.name]
    if isinstance(expr, Add):
        return "(" + " + ".join(_expr_code(a, scope) for a in expr.args) + ")"
    if isinstance(expr, Mul):
        return "(" + "*".join(_expr_code(a, scope) for a in expr.args) + ")"
    if isinstance(expr, FloorDiv):
        return f"({_expr_code(expr.num, scope)} // {_expr_code(expr.den, scope)})"
    if isinstance(expr, Mod):
        return f"({_expr_code(expr.num, scope)} % {_expr_code(expr.den, scope)})"
    if isinstance(expr, (Min, Max)):
        fn = "np.minimum" if isinstance(expr, Min) else "np.maximum"
        out = _expr_code(expr.args[0], scope)
        for a in expr.args[1:]:
            out = f"{fn}({out}, {_expr_code(a, scope)})"
        return out
    if isinstance(expr, IndirectAccess):
        key = f"__table__:{expr.table}"
        if key not in scope:
            raise _Fallback(f"unbound indirection table {expr.table!r}")
        idx = ", ".join(_expr_code(i, scope) for i in expr.indices)
        return f"{scope[key]}[{idx}]"
    raise _Fallback(f"cannot lower expression {expr!r}")


# -- emitter ----------------------------------------------------------------------


class _Emitter:
    """Accumulates generated source lines with indentation."""

    def __init__(self):
        self.lines: List[str] = []
        self.depth = 1
        self._fresh = 0

    def emit(self, text: str = ""):
        self.lines.append("    " * self.depth + text if text else "")

    def fresh(self, prefix: str) -> str:
        self._fresh += 1
        return f"_{prefix}{self._fresh}"

    def absorb(self, other: "_Emitter"):
        self.lines.extend(other.lines)
        self._fresh = other._fresh


class _Codegen:
    """Generates one module for a single-state SDFG."""

    def __init__(self, sdfg: SDFG, func_name: str = "run"):
        if len(sdfg.states) != 1:
            raise BackendError(
                f"numpy backend lowers single-state SDFGs; "
                f"{sdfg.name!r} has {len(sdfg.states)}"
            )
        self.sdfg = sdfg
        self.state: SDFGState = sdfg.states[0]
        # Code generation never edits the graph: one index serves it all.
        self.scopes = self.state.scope_index()
        self.func_name = func_name
        self.tasklet_codes: Dict[str, object] = {}
        # Base name scope: SDFG symbols, map parameters, array/table aliases.
        params = {
            p
            for n in self.state.nodes
            if isinstance(n, MapEntry)
            for p in n.map.params
        }
        reserved = set(sdfg.symbols) | params | {"dims", "arrays", "tables", "np"}
        self.array_var: Dict[str, str] = {}
        for name in sdfg.arrays:
            safe = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
            var = safe if safe.isidentifier() else f"A_{safe}"
            while var in reserved:
                var = f"A_{var}"
            self.array_var[name] = var
            reserved.add(var)
        self.scope0: Dict[str, str] = {s: s for s in sdfg.symbols}
        self.table_var: Dict[str, str] = {}

    # -- naming -----------------------------------------------------------------
    def _table(self, name: str) -> str:
        if name not in self.table_var:
            safe = "".join(c if c.isalnum() else "_" for c in name)
            self.table_var[name] = f"_T_{safe}"
        return self.table_var[name]

    def _tasklet_key(self, t: Tasklet) -> str:
        key = f"{t.label}#{t._uid}"
        self.tasklet_codes[key] = t.code
        return key

    def _scope_with_tables(self, scope: Mapping[str, str], mem_or_expr) -> Dict[str, str]:
        """Extend ``scope`` with table aliases for indirections in use."""
        out = dict(scope)
        for name in self.table_var:
            out[f"__table__:{name}"] = self.table_var[name]
        return out

    def _register_tables(self, expr: Expr):
        """Pre-register table aliases appearing in ``expr``."""
        if isinstance(expr, IndirectAccess):
            self._table(expr.table)
            for i in expr.indices:
                self._register_tables(i)
        for attr in ("args",):
            for sub in getattr(expr, attr, ()):  # Add/Mul/Min/Max
                self._register_tables(sub)
        for attr in ("num", "den"):
            sub = getattr(expr, attr, None)
            if sub is not None:
                self._register_tables(sub)

    # -- structure helpers -------------------------------------------------------
    def _scope_tasklets(self, entry: MapEntry) -> List[Tuple[Tasklet, List[str]]]:
        """All tasklets inside ``entry`` (any depth) in topological order,
        each with the map parameters binding it, outermost first."""
        out = []
        for n in self.scopes.order:
            if not isinstance(n, Tasklet):
                continue
            chain = self.scopes.scope_chain(n)
            if entry not in chain:
                continue
            cut = chain[: chain.index(entry) + 1]
            params: List[str] = []
            for e in reversed(cut):
                params.extend(e.map.params)
            out.append((n, params))
        return out

    def _in_edges(self, t: Tasklet) -> Dict[str, Memlet]:
        out = {}
        for u, _, d in self.state.in_edges(t):
            if d.get("memlet") is not None and d.get("dst_conn") is not None:
                out[d["dst_conn"]] = (d["memlet"], u)
        return out

    def _out_edges(self, t: Tasklet) -> Dict[str, Tuple[Memlet, object]]:
        out = {}
        for _, v, d in self.state.out_edges(t):
            if d.get("memlet") is not None and d.get("src_conn") is not None:
                out[d["src_conn"]] = (d["memlet"], v)
        return out

    def _scope_local_transients(self, entry: MapEntry) -> set:
        """Transients whose every access node / memlet lives inside
        ``entry``'s scope: per-iteration scratch storage."""
        st = self.state
        inside = set(self.scopes.scope_children(entry))
        inside.add(entry)
        inside.add(self.scopes.exits[entry])
        local = set()
        for name, desc in self.sdfg.arrays.items():
            if not desc.transient:
                continue
            nodes = [
                n
                for n in st.nodes
                if isinstance(n, AccessNode) and n.data == name
            ]
            edges = [
                (u, v)
                for u, v, d in st.edges()
                if d.get("memlet") is not None and d["memlet"].data == name
            ]
            if not nodes and not edges:
                continue
            if all(n in inside for n in nodes) and all(
                u in inside and v in inside for u, v in edges
            ):
                local.add(name)
        return local

    # -- module skeleton ---------------------------------------------------------
    def generate(self) -> str:
        em = _Emitter()
        self._emit_prologue(em)
        self._emit_scope_body(em, None, dict(self.scope0))
        store = ", ".join(
            f"'{name}': {var}" for name, var in self.array_var.items()
        )
        em.emit(f"return {{{store}}}")

        head = io.StringIO()
        head.write('"""Generated by repro.sdfg.backends.codegen (numpy backend).\n\n')
        head.write(f"source SDFG: {self.sdfg.name}\n")
        head.write(
            "Injected at exec time: np (numpy) and _tasklets, a dict of the\n"
            "graph's opaque tasklet callables keyed by label#uid.\n"
        )
        if self.tasklet_codes:
            for key in self.tasklet_codes:
                head.write(f"  _tasklets[{key!r}]\n")
        head.write('"""\n\n')
        head.write(f"def {self.func_name}(dims, arrays, tables=None):\n")
        return head.getvalue() + "\n".join(em.lines) + "\n"

    def _emit_prologue(self, em: _Emitter):
        em.emit("tables = tables or {}")
        for s in self.sdfg.symbols:
            em.emit(f"{s} = dims[{s!r}]")
        # Tables referenced anywhere in the graph.
        for _, _, d in self.state.edges():
            mem = d.get("memlet")
            if mem is None:
                continue
            for b, e, s in mem.subset.dims:
                for expr in (b, e, s):
                    self._register_tables(expr)
        for name, var in sorted(self.table_var.items()):
            em.emit(f"{var} = tables[{name!r}]")
        for name, desc in self.sdfg.arrays.items():
            var = self.array_var[name]
            shape = ", ".join(
                _expr_code(s, self.scope0) for s in desc.shape
            )
            zeros = f"np.zeros(({shape},), dtype=np.dtype({desc.dtype.str!r}))"
            if desc.transient:
                em.emit(f"{var} = {zeros}")
            else:
                em.emit(
                    f"{var} = arrays[{name!r}] if {name!r} in arrays else {zeros}"
                )
        em.emit()

    # -- scope walk --------------------------------------------------------------
    def _emit_scope_body(self, em: _Emitter, entry: Optional[MapEntry], scope):
        for node in self.scopes.immediate_children(entry):
            if isinstance(node, AccessNode):
                continue
            if isinstance(node, Tasklet):
                self._emit_direct_tasklet(em, node, scope)
            elif isinstance(node, MapEntry):
                self._emit_map(em, node, scope)

    def _emit_map(self, em: _Emitter, entry: MapEntry, scope):
        trial = _Emitter()
        trial.depth = em.depth
        trial._fresh = em._fresh
        try:
            self._emit_vectorized_scope(trial, entry, scope)
        except _Fallback:
            self._emit_loop(em, entry, scope)
            return
        em.absorb(trial)

    def _emit_loop(self, em: _Emitter, entry: MapEntry, scope):
        m = entry.map
        em.emit(f"# map {m.label}[{', '.join(m.params)}]: loop nest")
        inner = dict(scope)
        for p, (b, e, s) in zip(m.params, m.range):
            b_c = _expr_code(b, self._scope_with_tables(inner, b))
            e_c = _expr_code(e, self._scope_with_tables(inner, e))
            if s == Integer(1):
                rng = f"range({b_c}, {_end_code(e, self._scope_with_tables(inner, e))})"
            else:
                s_c = _expr_code(s, self._scope_with_tables(inner, s))
                rng = f"range({b_c}, ({e_c}) + (1 if ({s_c}) > 0 else -1), {s_c})"
            em.emit(f"for {p} in {rng}:")
            em.depth += 1
            inner[p] = p
        self._emit_scope_body(em, entry, inner)
        em.depth -= len(m.params)

    # -- direct (fully bound) tasklet emission -----------------------------------
    def _memlet_parts(self, mem: Memlet, scope) -> List[str]:
        """Scalar-context index parts: scalars for points, slices else."""
        sc = self._scope_with_tables(scope, mem)
        desc = self.sdfg.arrays[mem.data]
        parts = []
        for (b, e, s), n in zip(mem.subset.dims, desc.shape):
            if b == e:
                parts.append(_expr_code(b, sc))
            elif _is_same(b, Integer(0)) and _is_same(e, n - 1) and s == Integer(1):
                parts.append(":")
            elif s == Integer(1):
                parts.append(f"{_expr_code(b, sc)}:{_end_code(e, sc)}")
            else:
                parts.append(
                    f"{_expr_code(b, sc)}:{_end_code(e, sc)}:{_expr_code(s, sc)}"
                )
        return parts

    def _memlet_ref(self, mem: Memlet, scope) -> str:
        parts = self._memlet_parts(mem, scope)
        var = self.array_var[mem.data]
        if all(p == ":" for p in parts):
            return var
        return f"{var}[{', '.join(parts)}]"

    def _emit_direct_tasklet(self, em: _Emitter, t: Tasklet, scope):
        ins = self._in_edges(t)
        outs = self._out_edges(t)
        if t.op == "zero":
            for conn in t.outputs:
                mem, _ = outs[conn]
                em.emit(f"{self.array_var[mem.data]}"
                        f"[{', '.join(self._memlet_parts(mem, scope))}] = 0")
            return
        if t.op is not None and len(t.outputs) == 1:
            mem, _ = outs[t.outputs[0]]
            try:
                if mem.wcr not in (None, "sum"):
                    raise _Fallback("non-sum wcr")
                in_specs, out_spec = _parse_op(t)
                n_slices = [
                    sum(1 for b, e, _ in ins[c][0].subset.dims if b != e)
                    for c in t.inputs
                ]
                if len(in_specs) != len(t.inputs) or any(
                    n != len(s) for n, s in zip(n_slices, in_specs)
                ):
                    raise _Fallback("op arity mismatch")
                operands = [
                    self._memlet_ref(ins[c][0], scope) for c in t.inputs
                ]
            except _Fallback:
                pass  # opaque call below
            else:
                eq = ",".join(in_specs) + "->" + out_spec
                target = (
                    f"{self.array_var[mem.data]}"
                    f"[{', '.join(self._memlet_parts(mem, scope))}]"
                )
                assign = "+=" if mem.wcr == "sum" else "="
                em.emit(
                    f"{target} {assign} np.einsum({eq!r}, "
                    f"{', '.join(operands)}, optimize=True)"
                )
                return
        # Opaque tasklet: call its code object directly.
        key = self._tasklet_key(t)
        args = ", ".join(
            f"{c}={self._memlet_ref(ins[c][0], scope)}" for c in t.inputs
        )
        r = em.fresh("r")
        em.emit(f"{r} = _tasklets[{key!r}]({args})")
        for conn in t.outputs:
            mem, _ = outs[conn]
            target = (
                f"{self.array_var[mem.data]}"
                f"[{', '.join(self._memlet_parts(mem, scope))}]"
            )
            assign = "+=" if mem.wcr == "sum" else "="
            if mem.wcr not in (None, "sum"):
                fn = "np.minimum" if mem.wcr == "min" else "np.maximum"
                em.emit(f"{target} = {fn}({target}, {r}[{conn!r}])")
            else:
                em.emit(f"{target} {assign} {r}[{conn!r}]")

    # -- vectorized scope emission -------------------------------------------------
    def _emit_vectorized_scope(self, em: _Emitter, entry: MapEntry, scope):
        """Collapse a whole map scope (nested maps included) into einsum /
        broadcast statements; raises :class:`_Fallback` when impossible."""
        tasklets = self._scope_tasklets(entry)
        if not tasklets:
            raise _Fallback("empty scope")
        # Every involved map must have dims-only, unit-stride ranges.
        seen_params: List[Tuple[str, Tuple[Expr, Expr]]] = []
        for t, params in tasklets:
            chain = self.scopes.scope_chain(t)
            chain = chain[: chain.index(entry) + 1]
            for e in reversed(chain):
                for p, (b, ee, s) in zip(e.map.params, e.map.range):
                    if s != Integer(1):
                        raise _Fallback("non-unit map stride")
                    free = b.free_symbols | ee.free_symbols
                    if not free <= set(self.sdfg.symbols) | set(scope):
                        raise _Fallback("map range depends on map params")
                    prev = next(
                        (r for q, r in seen_params if q == p), None
                    )
                    if prev is None:
                        seen_params.append((p, (b, ee)))
                    elif not (
                        _is_same(prev[0], b) and _is_same(prev[1], ee)
                    ):
                        # Two maps in this scope reuse one parameter name
                        # over different ranges; one shared arange would
                        # be silently wrong for one of them.
                        raise _Fallback(
                            f"parameter {p!r} has conflicting ranges"
                        )
        letters = iter(_LETTERS)
        used_letters = set()

        def take_letter() -> str:
            for c in letters:
                if c not in used_letters:
                    used_letters.add(c)
                    return c
            raise _Fallback("subscript letters exhausted")

        param_letter: Dict[str, str] = {}
        param_range: Dict[str, Tuple[Expr, Expr]] = {}
        for p, rng in seen_params:
            param_letter[p] = take_letter()
            param_range[p] = rng
        locals_ = self._scope_local_transients(entry)
        # temp storage: array -> (var, axes) where axes entries are
        # ('param', name) for expanded map axes or ('dim', d) for the
        # transient's own dimensions.
        temps: Dict[str, Tuple[str, List[Tuple[str, object]]]] = {}
        zeroed: set = set()

        em.emit(
            f"# map {entry.map.label}"
            f"[{', '.join(p for p, _ in seen_params)}]: vectorized"
        )
        for t, params in tasklets:
            self._emit_vectorized_tasklet(
                em, t, params, scope, param_letter, param_range,
                take_letter, locals_, temps, zeroed,
            )

    def _arange(self, p: str, param_range, scope) -> str:
        b, e = param_range[p]
        sc = self._scope_with_tables(scope, b)
        return f"np.arange({_expr_code(b, sc)}, {_end_code(e, sc)})"

    def _grid_code(
        self,
        em: _Emitter,
        expr: Expr,
        grid_params: Sequence[str],
        axis_of: Mapping[str, int],
        ndim: int,
        param_range,
        scope,
    ) -> str:
        """Emit an index grid for ``expr`` broadcast over ``ndim`` axes,
        each involved parameter occupying axis ``axis_of[p]``."""
        sub = dict(scope)
        for p in grid_params:
            ix = ["None"] * ndim
            ix[axis_of[p]] = ":"
            ar = em.fresh("ix")
            em.emit(f"{ar} = {self._arange(p, param_range, scope)}[{', '.join(ix)}]")
            sub[p] = ar
        return _expr_code(expr, self._scope_with_tables(sub, expr))

    def _vector_operand(
        self, em, mem: Memlet, block_letters: List[str],
        vec_params: List[str], param_letter, param_range, scope,
    ) -> str:
        """Emit a gathered operand for an input memlet; returns its
        einsum subscript string (assignments go through ``em``)."""
        desc = self.sdfg.arrays[mem.data]
        sc = self._scope_with_tables(scope, mem)
        basic: List[str] = []
        axes: List[Tuple[str, object]] = []  # ('sub', letter) | ('hard', ...)
        blocks = iter(block_letters)
        for (b, e, s), n in zip(mem.subset.dims, desc.shape):
            if b != e:  # slice dim -> block subscript
                if s != Integer(1):
                    raise _Fallback("strided memlet slice")
                full = _is_same(b, Integer(0)) and _is_same(e, n - 1)
                basic.append(
                    ":" if full else f"{_expr_code(b, sc)}:{_end_code(e, sc)}"
                )
                axes.append(("sub", next(blocks)))
                continue
            involved = [p for p in vec_params if p in b.free_symbols]
            if not involved:
                basic.append(_expr_code(b, sc))  # scalar: axis dropped
            elif (
                isinstance(b, Symbol)
                and _is_same(param_range[b.name][0], Integer(0))
                and _is_same(param_range[b.name][1], n - 1)
            ):
                basic.append(":")
                axes.append(("sub", param_letter[b.name]))
            else:
                basic.append(":")
                axes.append(("hard", (involved, b)))
        cur = self.array_var[mem.data]
        if any(p != ":" for p in basic):
            cur = f"{cur}[{', '.join(basic)}]"
        # Apply index grids one hard dimension at a time (stepwise gather:
        # a single advanced index keeps its broadcast axes in place).
        while any(kind == "hard" for kind, _ in axes):
            pos = next(i for i, (k, _) in enumerate(axes) if k == "hard")
            involved, expr = axes[pos][1]
            axis_of = {p: i for i, p in enumerate(involved)}
            grid = self._grid_code(
                em, expr, involved, axis_of, len(involved), param_range, scope
            )
            v = em.fresh("g")
            head = [":"] * pos + [grid]
            em.emit(f"{v} = {cur}[{', '.join(head)}]")
            cur = v
            axes[pos: pos + 1] = [("sub", param_letter[p]) for p in involved]
        subs = "".join(s for _, s in axes)
        self._operand_code = cur
        return subs

    def _emit_vectorized_tasklet(
        self, em, t: Tasklet, vec_params: List[str], scope,
        param_letter, param_range, take_letter, locals_, temps, zeroed,
    ):
        ins = self._in_edges(t)
        outs = self._out_edges(t)
        if t.op is None:
            raise _Fallback(f"tasklet {t.label!r} has no op annotation")
        if t.op == "zero":
            for conn in t.outputs:
                mem, _ = outs[conn]
                if mem.data in locals_:
                    zeroed.add(mem.data)  # expanded temp: implicit zeros
                    continue
                n_slice = sum(1 for b, e, _ in mem.subset.dims if b != e)
                target, _subs, scatter = self._vector_write_region(
                    mem, vec_params, param_letter, param_range, scope,
                    out_blocks=["?"] * n_slice,
                )
                if scatter is not None:
                    raise _Fallback("computed zero-fill indices")
                em.emit(f"{target} = 0")
            return
        if len(t.outputs) != 1:
            raise _Fallback("vectorization requires a single output")
        in_specs, out_spec = _parse_op(t)
        if len(in_specs) != len(t.inputs):
            raise _Fallback(f"op arity mismatch on {t.label!r}")
        op_letter: Dict[str, str] = {}
        for c in "".join(in_specs) + out_spec:
            if c not in op_letter:
                op_letter[c] = take_letter()

        operands: List[str] = []
        op_subs: List[str] = []
        applied_params: set = set()
        for conn, spec in zip(t.inputs, in_specs):
            if conn not in ins:
                raise _Fallback(f"unbound input connector {conn!r}")
            mem, src = ins[conn]
            n_slice = sum(1 for b, e, _ in mem.subset.dims if b != e)
            if n_slice != len(spec):
                raise _Fallback(
                    f"op spec {spec!r} does not match memlet rank on {t.label!r}"
                )
            block_letters = [op_letter[c] for c in spec]
            if mem.data in locals_:
                code, subs = self._consume_temp(
                    em, mem, block_letters, vec_params, param_letter, temps, scope
                )
            else:
                subs = self._vector_operand(
                    em, mem, block_letters, vec_params,
                    param_letter, param_range, scope,
                )
                code = self._operand_code
            operands.append(code)
            op_subs.append(subs)
            applied_params.update(
                p for p, l in param_letter.items() if l in subs
            )

        mem, _dst = outs[t.outputs[0]]
        out_blocks = [op_letter[c] for c in out_spec]
        if mem.data in locals_:
            self._produce_temp(
                em, t, mem, out_blocks, operands, op_subs,
                vec_params, param_letter, param_range, applied_params,
                temps, zeroed,
            )
            return
        target, out_subs, scatter = self._vector_write_region(
            mem, vec_params, param_letter, param_range, scope,
            out_blocks=out_blocks,
        )
        if len(set(out_subs)) != len(out_subs):
            raise _Fallback("repeated output subscript")
        if scatter is not None:
            if mem.wcr != "sum":
                raise _Fallback("scattered write without CR: Sum")
            self._emit_scatter(
                em, mem, scatter, operands, op_subs, out_blocks,
                vec_params, param_letter, param_range, scope,
            )
            return
        if mem.wcr is None:
            missing = applied_params - {
                p for p, l in param_letter.items() if l in out_subs
            }
            if missing:
                raise _Fallback(
                    f"non-wcr write drops parameters {sorted(missing)}"
                )
            assign = "="
        elif mem.wcr == "sum":
            assign = "+="
        else:
            raise _Fallback(f"unsupported wcr {mem.wcr!r}")
        eq = ",".join(op_subs) + "->" + out_subs
        em.emit(
            f"{target} {assign} np.einsum({eq!r}, "
            f"{', '.join(operands)}, optimize=True)"
        )

    def _vector_write_region(
        self, mem: Memlet, vec_params, param_letter, param_range, scope,
        out_blocks: Optional[List[str]] = None,
    ):
        """Target slice expression + einsum output subscripts for a write.

        Returns ``(target, out_subs, scatter)``; ``scatter`` is None for
        a plain sliced write, else the list of per-dimension point
        expressions needing an ``np.add.at`` index grid.
        """
        desc = self.sdfg.arrays[mem.data]
        sc = self._scope_with_tables(scope, mem)
        parts: List[str] = []
        out_subs = ""
        blocks = iter(out_blocks or [])
        needs_scatter = False
        point_exprs: List[Optional[Expr]] = []
        for (b, e, s), n in zip(mem.subset.dims, desc.shape):
            if b != e:
                if s != Integer(1):
                    raise _Fallback("strided write slice")
                full = _is_same(b, Integer(0)) and _is_same(e, n - 1)
                parts.append(
                    ":" if full else f"{_expr_code(b, sc)}:{_end_code(e, sc)}"
                )
                out_subs += next(blocks)
                point_exprs.append(None)
                continue
            involved = [p for p in vec_params if p in b.free_symbols]
            if not involved:
                parts.append(_expr_code(b, sc))
                point_exprs.append(None)
            elif isinstance(b, Symbol):
                p = b.name
                pb, pe = param_range[p]
                full = _is_same(pb, Integer(0)) and _is_same(pe, n - 1)
                parts.append(
                    ":" if full
                    else f"{_expr_code(pb, sc)}:{_end_code(pe, sc)}"
                )
                out_subs += param_letter[p]
                point_exprs.append(None)
            else:
                needs_scatter = True
                point_exprs.append(b)
                parts.append(":")  # placeholder, unused for scatter
                out_subs += ""  # filled by the scatter path
        target = f"{self.array_var[mem.data]}[{', '.join(parts)}]"
        if needs_scatter:
            return target, out_subs, point_exprs
        return target, out_subs, None

    def _emit_scatter(
        self, em, mem, point_exprs, operands, op_subs, out_blocks,
        vec_params, param_letter, param_range, scope,
    ):
        """Lower a ``CR: Sum`` write with computed indices to np.add.at."""
        desc = self.sdfg.arrays[mem.data]
        sc = self._scope_with_tables(scope, mem)
        # Parameters appearing in any output point expression, in scope order.
        out_params: List[str] = []
        for (b, e, s) in mem.subset.dims:
            if b == e:
                for p in vec_params:
                    if p in b.free_symbols and p not in out_params:
                        out_params.append(p)
        ndim = len(out_params) + len(out_blocks)
        axis_of = {p: i for i, p in enumerate(out_params)}
        idx_parts: List[str] = []
        block_axis = len(out_params)
        bi = 0
        for dim_i, ((b, e, s), n) in enumerate(zip(mem.subset.dims, desc.shape)):
            if b != e:
                ar = em.fresh("ix")
                ix = ["None"] * ndim
                ix[block_axis + bi] = ":"
                em.emit(
                    f"{ar} = np.arange({_expr_code(b, sc)}, "
                    f"{_end_code(e, sc)})[{', '.join(ix)}]"
                )
                idx_parts.append(ar)
                bi += 1
                continue
            involved = [p for p in vec_params if p in b.free_symbols]
            if not involved:
                idx_parts.append(_expr_code(b, sc))
            else:
                grid = self._grid_code(
                    em, b, involved, axis_of, ndim, param_range, scope
                )
                idx_parts.append(grid)
        out_subs = "".join(param_letter[p] for p in out_params) + "".join(out_blocks)
        eq = ",".join(op_subs) + "->" + out_subs
        v = em.fresh("acc")
        em.emit(
            f"{v} = np.einsum({eq!r}, {', '.join(operands)}, optimize=True)"
        )
        em.emit(
            f"np.add.at({self.array_var[mem.data]}, "
            f"({', '.join(idx_parts)}), {v})"
        )

    # -- expanded scope-local temporaries ----------------------------------------
    def _produce_temp(
        self, em, t, mem, out_blocks, operands, op_subs,
        vec_params, param_letter, param_range, applied_params, temps, zeroed,
    ):
        if mem.wcr is not None:
            raise _Fallback("CR write onto scope-local scratch")
        if mem.data in temps:
            raise _Fallback(f"multiple writers of scratch {mem.data!r}")
        zeroed.discard(mem.data)  # dead zero-init: overwritten below
        desc = self.sdfg.arrays[mem.data]
        axes: List[Tuple[str, object]] = []
        out_subs = ""
        blocks = iter(out_blocks)
        dim_params: set = set()
        for dim_i, ((b, e, s), n) in enumerate(zip(mem.subset.dims, desc.shape)):
            if b != e:
                full = _is_same(b, Integer(0)) and _is_same(e, n - 1)
                if not full or s != Integer(1):
                    raise _Fallback("partial scratch write")
                axes.append(("dim", dim_i))
                out_subs += next(blocks)
                continue
            if isinstance(b, Symbol) and b.name in vec_params:
                pb, pe = param_range[b.name]
                if not (_is_same(pb, Integer(0)) and _is_same(pe, n - 1)):
                    raise _Fallback("partial-range scratch index")
                axes.append(("dim", dim_i))
                out_subs += param_letter[b.name]
                dim_params.add(b.name)
            elif not (b.free_symbols & set(vec_params)):
                raise _Fallback("scalar-indexed scratch write")
            else:
                raise _Fallback("computed scratch index")
        extra = [
            p for p in vec_params
            if p in applied_params and p not in dim_params
        ]
        axes = [("param", p) for p in extra] + axes
        out_subs = "".join(param_letter[p] for p in extra) + out_subs
        var = em.fresh("t")
        eq = ",".join(op_subs) + "->" + out_subs
        em.emit(
            f"{var} = np.einsum({eq!r}, {', '.join(operands)}, optimize=True)"
            f"  # scratch {mem.data!r} expanded over map axes"
        )
        temps[mem.data] = (var, axes)

    def _consume_temp(
        self, em, mem, block_letters, vec_params, param_letter, temps, scope,
    ) -> Tuple[str, str]:
        if mem.data not in temps:
            raise _Fallback(f"scratch {mem.data!r} read before written")
        var, axes = temps[mem.data]
        desc = self.sdfg.arrays[mem.data]
        # Per-array-dimension subscripts from the consumer's memlet.
        dim_sub: Dict[int, str] = {}
        blocks = iter(block_letters)
        for dim_i, ((b, e, s), n) in enumerate(zip(mem.subset.dims, desc.shape)):
            if b != e:
                full = _is_same(b, Integer(0)) and _is_same(e, n - 1)
                if not full or s != Integer(1):
                    raise _Fallback("partial scratch read")
                dim_sub[dim_i] = next(blocks)
            elif isinstance(b, Symbol) and b.name in vec_params:
                dim_sub[dim_i] = param_letter[b.name]
            else:
                raise _Fallback("computed scratch read index")
        subs = ""
        for kind, val in axes:
            subs += param_letter[val] if kind == "param" else dim_sub[val]
        return var, subs


def _parse_op(t: Tasklet) -> Tuple[List[str], str]:
    op = t.op or ""
    if "->" not in op:
        raise _Fallback(f"malformed op {op!r} on {t.label!r}")
    ins, out = op.split("->")
    return ins.split(","), out


def required_symbols(sdfg: SDFG) -> Tuple[str, ...]:
    """The symbol bindings a generated module's ``run`` expects."""
    return tuple(sdfg.symbols)


# -- public compile surface -------------------------------------------------------


def generate_source(sdfg: SDFG, func_name: str = "run") -> str:
    """Lower a single-state SDFG to Python source (without executing)."""
    return _Codegen(sdfg, func_name).generate()


class CompiledSDFG:
    """A generated module for one SDFG: callable like ``Interpreter.run``."""

    def __init__(self, sdfg: SDFG, func_name: str = "run"):
        self.sdfg = sdfg
        gen = _Codegen(sdfg, func_name)
        self.source = gen.generate()
        namespace = {"np": np, "_tasklets": dict(gen.tasklet_codes)}
        exec(compile(self.source, f"<sdfg:{sdfg.name}>", "exec"), namespace)
        self._fn = namespace[func_name]

    def __call__(self, symbols, arrays, tables=None) -> Dict[str, np.ndarray]:
        missing = [s for s in self.sdfg.symbols if s not in symbols]
        if missing:
            raise BackendError(
                f"missing symbol bindings {missing}; the generated kernel "
                f"for {self.sdfg.name!r} requires {sorted(self.sdfg.symbols)}"
            )
        return self._fn(symbols, arrays, tables)


def compile_sdfg(sdfg: SDFG, func_name: str = "run") -> CompiledSDFG:
    """Generate and exec a numpy module for ``sdfg``."""
    return CompiledSDFG(sdfg, func_name)


class NumpyStageRunner(StageRunner):
    """One stage lowered to a generated numpy module."""

    def __init__(self, stage):
        self.stage = stage
        self.output = stage_output(stage)
        self.compiled = compile_sdfg(stage.sdfg)
        self.source = self.compiled.source

    def __call__(
        self,
        dims: Mapping[str, int],
        arrays: Mapping[str, np.ndarray],
        tables: Optional[Mapping[str, np.ndarray]] = None,
    ):
        stage = self.stage
        inputs = select_stage_inputs(stage, arrays, self.output)
        store = self.compiled(dims, inputs, tables)
        return restore_output(stage, store[self.output]), None

    def __repr__(self) -> str:
        return f"NumpyStageRunner({self.stage.name})"


class NumpyBackend(Backend):
    name = "numpy"

    def compile_stage(self, stage) -> NumpyStageRunner:
        return NumpyStageRunner(stage)
