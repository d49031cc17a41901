"""Compiled-program runtime: execute mini-Fortran-D against a machine.

``compile_program`` runs the front end (parse → analyze → lower) and
decides everything the program text decides: each loop's plan
(:mod:`repro.lang.codegen`), or an :class:`AnalysisError` with a line.
``ProgramInstance`` binds a compiled program to a simulated machine and
host arrays — an :class:`ExecutionError` is a failure of bindings or
state: bound values, array lengths, unbound scalars, use before
``DISTRIBUTE`` — and executes it with the same structure the paper's
compiler-generated code has:

* ``DISTRIBUTE`` statements build translation tables and (on
  redistribution) embed CHAOS ``remap`` calls for every aligned array;
* each reduction loop's inspector is the hand-written code's driver, an
  :class:`~repro.core.api.IrregularReduction` over its subscript patterns,
  re-bound only when the §5.3.1 record shows an indirection array (or the
  distribution) modified "since the last time the inspector was invoked",
  and its executor is that driver's too,
  :func:`~repro.core.executor.run_reduction`;
* ``REDUCE(APPEND, …)`` nests lower to light-weight schedules and
  ``scatter_append`` (§5.2.1).

**Data model.**  The instance keeps data in the rank-major layout the
runtime below it uses.  A distributed 1-D array is one
:class:`~repro.core.compiled.RankArena` — rank 0's elements first, each
rank's in local-offset order — from the moment its decomposition is
distributed; the *rank-major index* its distribution owns
(:class:`~repro.core.distribution.Layout` ``order[k]`` = global element
at arena position ``k``) turns distribution, assembly and the CSR
iteration space into single takes/scatters.  A ragged (cell)
array is one CSR pair ``(flat, offsets)`` in *global* cell order, whatever
the distribution; ``get_array`` hands out its rows as views.  A loop's
index patterns are rank-major streams over the whole machine's
iterations, built once per inspector run, and reduction, local and
append loops evaluate each statement once over that stream — host time
grows with data volume, not with ranks × cells × statements.  Per-rank
simulated work is charged exactly as a rank-by-rank execution would.

``interpret_sequential`` executes the same program on plain numpy arrays
— the oracle the parallel execution is tested against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.api import ChaosRuntime, IrregularReduction
from repro.core.compiled import (
    RankArena,
    grouped_arange,
    offsets_from_counts,
    split_csr,
)
from repro.core.context import resolve_component
from repro.core.distribution import (
    BlockDistribution,
    CyclicDistribution,
    Distribution,
    IrregularDistribution,
)
from repro.core.executor import run_reduction
from repro.core.iteration import partition_iterations, split_by_block
from repro.core.lightweight import build_lightweight_schedule, scatter_append
from repro.core.remap import remap, remap_array
from repro.core.reuse import CacheStats
from repro.core.translation import TranslationTable
from repro.lang.analysis import Analyzer, analyze
from repro.lang.ast_nodes import (
    AlignStmt,
    ArrayRef,
    BinOp,
    Call,
    DistributeStmt,
    Forall,
    Num,
    Program,
    UnaryOp,
    VarRef,
)
from repro.lang.codegen import BINOPS, INTRINSICS, REDUCE_OPS, lower_program
from repro.lang.errors import ExecutionError
from repro.lang.parser import parse_program
from repro.lang.plans import AppendPlan, LocalPlan, ReductionPlan

#: monotonically increasing ProgramInstance ids for cache scoping
_PROGRAM_COUNTER = itertools.count()


@dataclass
class CompiledProgram:
    """Front-end output: AST + analysis + lowered plans."""

    source: str
    ast: Program
    analyzer: Analyzer
    plans: dict[str, Any]

    def loop_ids(self) -> list[str]:
        return [nest.loop_id for nest in self.analyzer.loops]


def compile_program(source: str) -> CompiledProgram:
    """Parse, analyze and lower a mini-Fortran-D program."""
    ast = parse_program(source)
    analyzer = analyze(ast)
    plans = lower_program(analyzer)
    return CompiledProgram(source=source, ast=ast, analyzer=analyzer,
                           plans=plans)


def _ragged_csr(rows) -> tuple[np.ndarray, np.ndarray]:
    """Per-cell rows as one CSR pair ``(flat, offsets)`` in cell order.
    ``flat`` is a fresh buffer of the rows' own dtype (empty rows do not
    vote: a ``[]`` must not promote an INTEGER routing array to float)."""
    lens = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    filled = list(itertools.compress(rows, lens.tolist()))
    flat = np.concatenate(filled) if filled else np.zeros(0)
    return flat, offsets_from_counts(lens)


def _check_ragged_bounds(name: str, sizes: np.ndarray, lens: np.ndarray,
                         line: int | None = None) -> None:
    """``size(c)`` must fit row ``c`` of every ragged array a nest walks —
    one vector compare, shared by the instance and the oracle so both
    refuse the same programs with the same message."""
    if lens.size != sizes.size:
        raise ExecutionError(
            f"ragged array {name!r} has {lens.size} rows, the loop spans "
            f"{sizes.size} cells", line)
    bad = (sizes < 0) | (sizes > lens)
    if bad.any():
        c = int(np.flatnonzero(bad)[0])
        raise ExecutionError(
            f"ragged array {name!r}: cell {c + 1} holds {int(lens[c])} "
            f"entries, the inner loop bound there is {int(sizes[c])}", line)


@dataclass
class _DecompState:
    size: int
    ttable: TranslationTable | None = None


@dataclass
class _LoopState:
    """A reduction loop's inspector and the record versions and
    global-index streams (by pattern key) it was bound from."""

    loop: IrregularReduction
    versions: dict[str, int]
    gidx: dict[str, np.ndarray]
    n_iter: np.ndarray


class ProgramInstance:
    """One compiled program bound to a machine and data bindings.

    ``bindings`` supplies initial values: 1-D numpy arrays for declared /
    aligned arrays, list-of-arrays for ragged cell arrays, ints/floats for
    scalar loop bounds.  Distributed arrays may be given as global arrays;
    they are scattered when their decomposition is distributed.
    """

    def __init__(
        self,
        compiled: CompiledProgram,
        ctx,
        bindings: dict[str, Any] | None = None,
    ):
        ctx = resolve_component(ctx, "ProgramInstance")
        self.compiled = compiled
        #: the one execution context generated code runs against — its
        #: backend covers index analysis, schedule generation and
        #: executor data transport; its record/cache drive §5.3.1 reuse
        self.ctx = ctx
        self.machine = ctx.machine
        self.symbols = compiled.analyzer.symbols
        #: replicated arrays, scalars, and the global value a distributed
        #: array was last given host-side
        self.host: dict[str, Any] = {}
        #: distributed 1-D arrays, one arena each (owned by the instance:
        #: written through ``flat``, elements never rebound)
        self.local: dict[str, RankArena] = {}
        #: ragged cell arrays as CSR ``(flat, offsets)``, global cell order
        self.ragged: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.decomps: dict[str, _DecompState] = {
            name: _DecompState(size=d.size)
            for name, d in self.symbols.decomps.items()
        }
        self.record = ctx.record
        #: every reduction loop's inspector runs through it (one hash-table
        #: group per distribution); their state by loop id (`_inspect`)
        self.runtime = ChaosRuntime(ctx)
        self._loops: dict[str, _LoopState] = {}
        #: unique cache namespace: loop ids are program-relative, so two
        #: instances sharing one context (and hence one ScheduleCache)
        #: must not collide on "loop1"-style keys; a process-wide counter
        #: (never recycled, unlike id()) keeps scopes distinct
        self._cache_scope = f"prog{next(_PROGRAM_COUNTER)}"
        for k, v in (bindings or {}).items():
            info = self.symbols.arrays.get(k)
            if info is not None and info.ragged:
                self.ragged[k] = _ragged_csr(v)
            else:
                self.host[k] = v
        # allocate declared-but-unbound arrays
        for name, info in self.symbols.arrays.items():
            if name not in self.host and not info.ragged:
                shape = info.shape if info.shape else (
                    (self.symbols.decomps[info.decomposition].size,)
                    if info.decomposition else (0,)
                )
                dtype = np.float64 if info.dtype == "real" else np.int64
                self.host[name] = np.zeros(shape, dtype=dtype)

    # ==================================================================
    # lifecycle
    # ==================================================================
    def close(self) -> None:
        """No-op, kept for existing callers: a context holds no
        resources, so there is nothing to release."""

    # ==================================================================
    # helpers
    # ==================================================================
    def _decomp_of(self, array: str) -> str:
        info = self.symbols.array(array)
        if info.decomposition is None:
            raise ExecutionError(f"array {array!r} is not distributed")
        return info.decomposition

    def _ttable(self, decomp: str) -> TranslationTable:
        st = self.decomps[decomp]
        if st.ttable is None:
            raise ExecutionError(
                f"decomposition {decomp!r} used before DISTRIBUTE"
            )
        return st.ttable

    def _aligned_arrays(self, decomp: str) -> list[str]:
        return [
            n for n, info in self.symbols.arrays.items()
            if info.decomposition == decomp
        ]

    def _arena(self, name: str, line: int | None = None) -> RankArena:
        arena = self.local.get(name)
        if arena is None:
            raise ExecutionError(f"array {name!r} not distributed yet", line)
        return arena

    def get_array(self, name: str) -> Any:
        """Current global value: a distributed array assembled host-side,
        a ragged array as its list of per-cell rows (views of the CSR
        buffer, in global cell order)."""
        if name in self.ragged:
            return split_csr(*self.ragged[name])
        if name in self.local:
            flat = self.local[name].flat
            order = self.decomps[self._decomp_of(name)].ttable.dist.layout.order
            out = np.empty_like(flat)
            out[order] = flat
            return out
        if name in self.host:
            return self.host[name]
        raise ExecutionError(f"array {name!r} has no value")

    def set_array(self, name: str, value: Any) -> None:
        """Update an array's value and record the modification (§5.3.1)."""
        info = self.symbols.arrays.get(name)
        self.record.touch(name)
        if info is not None and info.ragged:
            self.ragged[name] = _ragged_csr(value)
            return
        self.host[name] = np.asarray(value)
        if name in self.local:
            self._distribute_array(name)

    # ==================================================================
    # execution
    # ==================================================================
    def execute(self) -> None:
        """Run every statement of the program once, in order."""
        for stmt in self.compiled.ast.statements:
            if isinstance(stmt, AlignStmt):
                self._exec_align(stmt)
            elif isinstance(stmt, DistributeStmt):
                self._exec_distribute(stmt)
            elif isinstance(stmt, Forall):
                nest = next(
                    n for n in self.compiled.analyzer.loops
                    if n.outer is stmt
                )
                self.run_loop(nest.loop_id)

    def redistribute(self, decomp: str, map_array: str) -> None:
        """Re-execute an irregular DISTRIBUTE for ``decomp`` using the
        current value of ``map_array`` — what the compiler-generated code
        does when the program reaches a DISTRIBUTE statement again
        (Table 6 redistributes every 25 iterations)."""
        self._exec_distribute(
            DistributeStmt(decomp, "MAP", map_array, 0)
        )

    def _exec_align(self, stmt: AlignStmt) -> None:
        if self.decomps[stmt.target].ttable is not None:
            for name in stmt.arrays:
                self._distribute_array(name)

    def _exec_distribute(self, stmt: DistributeStmt) -> None:
        st = self.decomps[stmt.target]
        n = st.size
        m = self.machine
        if stmt.scheme == "BLOCK":
            dist: Distribution = BlockDistribution(n, m.n_ranks)
        elif stmt.scheme == "CYCLIC":
            dist = CyclicDistribution(n, m.n_ranks)
        else:
            map_values = np.asarray(self.get_array(stmt.map_array),
                                    dtype=np.int64)
            if map_values.shape[0] != n:
                raise ExecutionError(
                    f"map array {stmt.map_array!r} has {map_values.shape[0]}"
                    f" entries, decomposition {stmt.target!r} needs {n}",
                    stmt.line,
                )
            if map_values.size and (map_values.min() < 0
                                    or map_values.max() >= m.n_ranks):
                raise ExecutionError(
                    "map entries must be ranks in [0, n_ranks)", stmt.line
                )
            dist = IrregularDistribution(map_values, m.n_ranks)

        old = st.ttable
        st.ttable = TranslationTable(m, dist)
        self.record.touch(f"__decomp__:{stmt.target}")
        if old is None:
            for name in self._aligned_arrays(stmt.target):
                self._distribute_array(name)
        else:
            self.runtime.drop_hash_tables(old)
            # redistribution: one remap plan moves every aligned array
            # (ragged arrays are global CSR: nothing to move)
            plan = remap(self.ctx, old.dist, dist, category="remap")
            for name in self._aligned_arrays(stmt.target):
                if name in self.local:
                    self.local[name] = RankArena.adopt(remap_array(
                        self.ctx, plan, self.local[name], category="remap",
                    ))

    def _distribute_array(self, name: str) -> None:
        """Scatter an aligned 1-D array's host value into its arena: one
        take through the rank-major index of the decomposition."""
        info = self.symbols.array(name)
        if info.ragged:
            return
        st = self.decomps[info.decomposition]
        g = np.asarray(self.host[name])
        if g.shape[0] != st.size:
            raise ExecutionError(
                f"array {name!r} has {g.shape[0]} elements, decomposition "
                f"expects {st.size}"
            )
        layout = st.ttable.dist.layout
        self.local[name] = RankArena(g[layout.order], layout.sizes)

    # ==================================================================
    # loops
    # ==================================================================
    def run_loop(self, loop_id: str) -> None:
        """Execute one loop (inspector reused when nothing changed)."""
        plan = self.compiled.plans[loop_id]
        if isinstance(plan, LocalPlan):
            self._exec_local(plan)
        elif isinstance(plan, AppendPlan):
            self._exec_append(plan)
        else:
            self._exec_reduction(plan)

    # ---- bounds ------------------------------------------------------
    def _bound_value(self, expr: Num | VarRef) -> int:
        if isinstance(expr, Num):
            return int(expr.value)
        v = self.host.get(expr.name)
        if v is None or np.ndim(v) != 0:
            raise ExecutionError(
                f"loop bound {expr.name!r} must be a bound scalar",
                expr.line,
            )
        return int(v)

    def _outer_upper(self, nest, st: _DecompState) -> int:
        """The outer FORALL's upper bound.  Every nest the instance runs
        starts at 1, and all but a flat reduction span the decomposition:
        their iteration spaces are whole rows of it."""
        outer = nest.outer
        lo, hi = self._bound_value(outer.lower), self._bound_value(outer.upper)
        if lo != 1:
            raise ExecutionError("outer FORALL must start at 1", outer.line)
        if nest.kind != "flat" and hi != st.size:
            what = {"csr": "CSR", "local_assign": "local",
                    "cell_append": "append"}.get(nest.kind, nest.kind)
            raise ExecutionError(
                f"{what} outer loop must span the decomposition", outer.line)
        return hi

    def _int_array(self, name: str) -> np.ndarray:
        return np.asarray(self.get_array(name), dtype=np.int64)

    def _ragged_stream(self, name: str, sizes: np.ndarray,
                       st: _DecompState, line: int) -> np.ndarray:
        """The first ``sizes[c]`` entries of every row ``c`` of ragged
        array ``name`` as one rank-major stream: the cells each rank
        owns, in its local order."""
        if name not in self.ragged:
            raise ExecutionError(f"ragged array {name!r} has no value", line)
        flat, offsets = self.ragged[name]
        _check_ragged_bounds(name, sizes, np.diff(offsets), line)
        order = st.ttable.dist.layout.order
        return flat[grouped_arange(offsets[order], sizes[order])]

    # ---- index-space construction -------------------------------------
    def _iteration_space(self, plan: ReductionPlan
                         ) -> tuple[dict[str, np.ndarray], np.ndarray]:
        """Global indices of every subscript pattern over the machine's
        iterations: ``({pattern_key: rank-major stream}, per-rank
        iteration counts)`` (0-based indices)."""
        nest = plan.nest
        m = self.machine
        st = self.decomps[nest.decomposition]
        tt = self._ttable(nest.decomposition)
        outer = nest.outer
        hi = self._outer_upper(nest, st)
        # compile_program admits only the patterns each kind builds below
        gidx: dict[str, np.ndarray] = {}
        layout = tt.dist.layout
        order = layout.order
        if nest.kind == "csr":
            # 1-based positions -> 0-based CSR offsets, rows rank-major
            offsets0 = self._int_array(nest.csr_offsets) - 1
            starts = offsets0[order]
            counts = offsets0[order + 1] - starts
            n_iter = layout.per_rank(counts)
            of_var = {outer.var: np.repeat(order, counts),
                      nest.inner.var: grouped_arange(starts, counts)}
            for pat in plan.index_patterns:
                if pat.kind == "loopvar":
                    gidx[pat.key()] = of_var[outer.var]
                else:
                    gidx[pat.key()] = self._int_array(
                        pat.indirection)[of_var[pat.loopvar]] - 1
            m.charge_memops_vec(2 * n_iter, "inspector")
        elif nest.kind == "ragged":
            sizes = self._int_array(nest.csr_offsets)
            for pat in plan.index_patterns:
                if pat.kind == "loopvar":
                    gidx[pat.key()] = np.repeat(order, sizes[order])
                else:
                    gidx[pat.key()] = self._ragged_stream(
                        pat.indirection, sizes, st, outer.line
                    ).astype(np.int64) - 1
            n_iter = layout.per_rank(sizes[order])
            m.charge_memops_vec(2 * n_iter, "inspector")
        else:  # flat
            blocks: dict[str, list[np.ndarray]] = {}
            for pat in plan.index_patterns:
                if pat.kind == "indirect":
                    arr = self._int_array(pat.indirection)
                    if arr.shape[0] < hi:
                        raise ExecutionError(
                            f"indirection {pat.indirection!r} shorter than "
                            "the loop range", outer.line,
                        )
                    values = arr[:hi] - 1
                else:
                    if hi != st.size:
                        raise ExecutionError(
                            "direct references require the loop to span "
                            "the decomposition", outer.line,
                        )
                    values = np.arange(hi, dtype=np.int64)
                blocks[pat.key()] = split_by_block(values, m)
            # Phase C/D: almost-owner-computes over the accessed elements
            assign = partition_iterations(
                self.ctx, tt,
                [[b[p] for b in blocks.values()] for p in m.ranks()],
                rule="almost-owner-computes", category="inspector",
            )
            for key, block in blocks.items():
                gidx[key] = RankArena.adopt(assign.remap_iteration_data(
                    self.ctx, block, category="inspector")).flat
            n_iter = assign.counts
        return gidx, n_iter

    # ---- inspector -----------------------------------------------------
    def _inspect(self, plan: ReductionPlan) -> _LoopState:
        """The loop's :class:`IrregularReduction` (named :meth:`cache_key`)
        over its subscript patterns.  After a touch, on the same tables and
        iteration counts only the patterns whose stream changed are
        re-bound, so only they are re-hashed (none changed: a cache hit)."""
        decomp = plan.nest.decomposition
        tt = self._ttable(decomp)
        versions = self.record.versions_of(
            plan.dependency_names() + (f"__decomp__:{decomp}",))
        state = self._loops.get(plan.loop_id)
        if state is None or state.versions != versions:
            gidx, n_iter = self._iteration_space(plan)
            fresh = state is None or state.loop.ttable is not tt
            loop = IrregularReduction(self.runtime, tt, self.cache_key(
                plan.loop_id)) if fresh else state.loop
            bound = ({} if fresh or not np.array_equal(state.n_iter, n_iter)
                     else state.gidx)
            loop.bind(**{key: RankArena(g, n_iter) for key, g in gidx.items()
                         if key not in bound
                         or not np.array_equal(g, bound[key])})
            state = self._loops[plan.loop_id] = _LoopState(
                loop, versions, gidx, n_iter)
        return state

    def cache_key(self, loop_id: str) -> str:
        """This instance's ScheduleCache key for one of its loops (the
        cache is per context and shared, so keys are instance-scoped)."""
        return f"{self._cache_scope}:{loop_id}"

    def cache_stats(self, loop_id: str) -> "CacheStats":
        """Structured counters of this instance's cached value for a loop
        (a :class:`~repro.core.reuse.CacheStats`)."""
        return self.runtime.cache_stats(self.cache_key(loop_id))

    def total_cache_stats(self) -> "CacheStats":
        """Aggregate :class:`CacheStats` over this instance's loops."""
        return self.runtime.total_cache_stats(f"{self._cache_scope}:")

    # ---- reduction executor ----------------------------------------------
    def _exec_reduction(self, plan: ReductionPlan) -> None:
        line = plan.nest.outer.line
        state = self._inspect(plan)
        sched, gidx = state.loop.setup(), state.gidx

        def body(take):
            taken: dict[tuple, np.ndarray] = {}

            def read(name, key):
                if key is None:  # a scalar, bound per instance
                    v = self.host.get(name)
                    if v is None or np.ndim(v) != 0:
                        raise ExecutionError(f"unbound scalar {name!r}", line)
                    return float(v)
                # one ``(array, pattern)`` value stream, taken once per
                # execution however often the statements name it
                got = taken.get((name, key))
                if got is None:
                    if name is None:  # the loop variable's (1-based) value
                        got = gidx[key].astype(np.float64) + 1.0
                    elif name in plan.reads:
                        got = take(name, key)
                    else:  # replicated array: index by global values
                        got = np.asarray(self.get_array(name))[gidx[key]]
                    taken[name, key] = got
                return got

            for name, key, value in plan.statements:
                yield name, key, value(read)

        run_reduction(
            self.ctx, sched,
            {key: state.loop.localized(key) for key in gidx},
            {name: self._arena(name, line) for name in plan.reads},
            {name: (self._arena(name, line), op)
             for name, op in plan.targets.items()},
            body, plan.compute_ops_per_iter * state.n_iter)
        self.machine.barrier()

    # ---- local loops ------------------------------------------------------
    def _exec_local(self, plan: LocalPlan) -> None:
        """``a(j) = constant`` over a whole decomposition (the only
        assignment analysis lets through): no communication."""
        nest = plan.nest
        m = self.machine
        decomp = nest.decomposition
        self._ttable(decomp)  # raises when used before DISTRIBUTE
        st = self.decomps[decomp]
        self._outer_upper(nest, st)
        for stmt in nest.statements:
            self._arena(stmt.target.name, stmt.line).flat[...] = \
                stmt.value.value
        m.charge_compute_vec(st.ttable.dist.layout.sizes, "compute")
        m.barrier()

    # ---- append loops -------------------------------------------------------
    def _exec_append(self, plan: AppendPlan) -> None:
        """REDUCE(APPEND): light-weight-schedule data movement (§5.2.1)."""
        m = self.machine
        line = plan.nest.outer.line
        decomp = self._decomp_of(plan.target)
        tt = self._ttable(decomp)
        st = self.decomps[decomp]
        self._outer_upper(plan.nest, st)
        sizes = self._int_array(plan.size_array)
        # what travels is int64 cells and float64 values whatever the
        # bound dtypes, so the bytes on the wire do not depend on them
        dest_cell = self._ragged_stream(
            plan.routing, sizes, st, line).astype(np.int64) - 1
        values = self._ragged_stream(
            plan.source, sizes, st, line).astype(np.float64, copy=False)
        if dest_cell.size and (
            dest_cell.min() < 0 or dest_cell.max() >= st.size
        ):
            raise ExecutionError(
                f"routing array {plan.routing!r} holds out-of-range cells",
                line,
            )
        layout = tt.dist.layout
        n_iter = layout.per_rank(sizes[layout.order])
        m.charge_memops_vec(2 * n_iter, "inspector")

        sched = build_lightweight_schedule(
            self.ctx, RankArena(tt.owner_local(dest_cell), n_iter),
            category="inspector")
        vals = RankArena.adopt(scatter_append(
            self.ctx, sched, RankArena(values, n_iter), category="comm"))
        cells = RankArena.adopt(scatter_append(
            self.ctx, sched, RankArena(dest_cell, n_iter), category="comm"))
        # regroup arrivals into the target's rows.  Ranks own disjoint
        # cells, so ONE stable sort of the machine-wide arrival stream is
        # every rank's own stable sort: arrival order inside a cell stays
        order = np.argsort(cells.flat, kind="stable")
        m.charge_memops_vec(vals.sizes, "comm")
        m.barrier()
        self.record.touch(plan.target)
        self.ragged[plan.target] = (
            vals.flat[order],
            offsets_from_counts(np.bincount(cells.flat, minlength=st.size)),
        )


# =====================================================================
# sequential oracle
# =====================================================================
def interpret_sequential(compiled: CompiledProgram,
                         bindings: dict[str, Any]) -> dict[str, Any]:
    """Execute the program on plain numpy arrays (no machine, no CHAOS).

    Distribution directives are no-ops; loops run in order with
    ``np.ufunc.at`` semantics.  Returns the final value of every array.
    """
    symbols = compiled.analyzer.symbols
    state: dict[str, Any] = {}
    for k, v in bindings.items():
        if isinstance(v, list):
            state[k] = [np.asarray(r).copy() for r in v]
        elif np.ndim(v) == 0:
            state[k] = v
        else:
            state[k] = np.asarray(v).copy()
    for name, info in symbols.arrays.items():
        if name not in state and not info.ragged:
            shape = info.shape if info.shape else (
                (symbols.decomps[info.decomposition].size,)
                if info.decomposition else (0,)
            )
            state[name] = np.zeros(
                shape, dtype=np.float64 if info.dtype == "real" else np.int64
            )

    def bound(expr: Num | VarRef) -> int:
        if isinstance(expr, Num):
            return int(expr.value)
        return int(state[expr.name])

    def cell_sizes(nest, ragged_names) -> np.ndarray:
        """The inner-loop bound of every cell up to ``hi`` (0 before
        ``lo``: those cells are not iterated), checked against the rows
        of the ragged arrays the nest walks."""
        sizes = np.array(state[nest.csr_offsets], dtype=np.int64)[:hi]
        sizes[:lo - 1] = 0
        for name in ragged_names:
            lens = np.fromiter(map(len, state[name]), dtype=np.int64)
            _check_ragged_bounds(name, sizes, lens[:hi], nest.outer.line)
        return sizes

    def eval_expr(expr, idx_env):
        if isinstance(expr, Num):
            return expr.value
        if isinstance(expr, Call):
            return INTRINSICS[expr.func](
                *[eval_expr(a, idx_env) for a in expr.args]
            )
        if isinstance(expr, UnaryOp):
            return -eval_expr(expr.operand, idx_env)
        if isinstance(expr, BinOp):
            return BINOPS[expr.op](eval_expr(expr.left, idx_env),
                                   eval_expr(expr.right, idx_env))
        if isinstance(expr, VarRef):
            if expr.name in idx_env:
                return idx_env[expr.name].astype(np.float64) + 1.0
            return float(state[expr.name])
        if isinstance(expr, ArrayRef):
            idx = ref_index(expr, idx_env)
            return np.asarray(state[expr.name])[idx]
        raise ExecutionError("cannot evaluate expression")

    def ref_index(ref: ArrayRef, idx_env):
        sub = ref.subscripts[0]
        if isinstance(sub, VarRef):
            return idx_env[sub.name]
        if isinstance(sub, ArrayRef):
            inner_idx = tuple(
                idx_env[s.name] for s in sub.subscripts
                if isinstance(s, VarRef)
            )
            arr = state[sub.name]
            if isinstance(arr, list):  # ragged routing: (slot, cell)
                slot, cell = inner_idx
                vals = np.array(
                    [arr[c][s] for s, c in zip(slot.tolist(), cell.tolist())],
                    dtype=np.int64,
                )
                return vals - 1
            return np.asarray(arr, dtype=np.int64)[inner_idx[0]] - 1
        raise ExecutionError("unsupported subscript")

    for nest in compiled.analyzer.loops:
        lo, hi = bound(nest.outer.lower), bound(nest.outer.upper)
        if lo < 1:
            raise ExecutionError("outer FORALL starts below 1",
                                 nest.outer.line)
        rows = np.arange(lo - 1, hi, dtype=np.int64)
        if nest.kind == "local_assign":
            for stmt in nest.statements:
                state[stmt.target.name][lo - 1:hi] = stmt.value.value
            continue
        if nest.kind == "cell_append":
            plan = compiled.plans[nest.loop_id]
            sizes = cell_sizes(nest, (plan.routing, plan.source))
            routing = state[plan.routing]
            source = state[plan.source]
            new_rows = [[] for _ in range(hi)]
            for c in range(lo - 1, hi):
                for s in range(int(sizes[c])):
                    dest = int(routing[c][s]) - 1
                    new_rows[dest].append(float(source[c][s]))
            state[plan.target] = [np.asarray(r, dtype=np.float64)
                                  for r in new_rows]
            continue
        # flat / csr / ragged reductions
        if nest.kind == "csr":
            inblo = np.asarray(state[nest.csr_offsets], dtype=np.int64) - 1
            counts = inblo[rows + 1] - inblo[rows]
            i_exp = np.repeat(rows, counts)
            total = int(counts.sum())
            starts = inblo[rows]
            shift = np.concatenate(([0], np.cumsum(counts)[:-1]))
            flat = (np.repeat(starts - shift, counts)
                    + np.arange(total, dtype=np.int64))
            idx_env = {nest.outer.var: i_exp,
                       "__csr_flat__": flat}
            if nest.inner is not None:
                idx_env[nest.inner.var] = flat  # positions into jnb
        elif nest.kind == "ragged":
            sizes = cell_sizes(nest, [n for n in nest.indirections
                                      if isinstance(state.get(n), list)])
            cell_exp = np.repeat(rows, sizes[rows])
            slot_exp = (np.arange(cell_exp.size, dtype=np.int64)
                        - np.repeat(np.concatenate(
                            ([0], np.cumsum(sizes[rows])[:-1])), sizes[rows]))
            idx_env = {nest.outer.var: cell_exp}
            if nest.inner is not None:
                idx_env[nest.inner.var] = slot_exp
        else:  # flat
            idx_env = {nest.outer.var: rows}

        # In CSR loops, jnb(j) means "value at position j of jnb": our
        # ref_index handles ArrayRef subscripts by indexing the indirection
        # with the inner variable's positions.  Every statement is a
        # REDUCE: analysis rejects assignments in a nest that has one.
        for stmt in nest.statements:
            ufunc = REDUCE_OPS[stmt.op]
            tgt_idx = ref_index(stmt.target, idx_env)
            contrib = eval_expr(stmt.value, idx_env)
            if np.ndim(contrib) == 0:
                contrib = np.full(np.size(tgt_idx), float(contrib))
            ufunc.at(state[stmt.target.name], tgt_idx, contrib)
    return state
