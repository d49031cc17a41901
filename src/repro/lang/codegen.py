"""Lowering: analyzed loop nests → executable plans, once per program.

The one place the compiler decides which CHAOS calls a loop embeds
(paper §5.3): the subscript patterns the inspector hashes, the arrays
the executor gathers, each target's ufunc, and each REDUCE statement as
a function of the iteration stream.  Every rejection that depends only
on the program text is an :class:`AnalysisError` with its line, raised
here or in analysis; an instance only binds data to the plans.
"""

from __future__ import annotations

import operator

import numpy as np

from repro.lang.analysis import Analyzer, LoopNest, classify_subscript
from repro.lang.ast_nodes import (
    ArrayRef,
    BinOp,
    Call,
    Expr,
    FullSlice,
    Num,
    UnaryOp,
    VarRef,
    array_refs,
    walk_expr,
)
from repro.lang.errors import AnalysisError
from repro.lang.plans import AppendPlan, LocalPlan, ReductionPlan

#: REDUCE ops and the ufunc each folds with (APPEND lowers to AppendPlan)
REDUCE_OPS = {"SUM": np.add, "MAX": np.maximum, "MIN": np.minimum,
              "PROD": np.multiply}

BINOPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "**": operator.pow,
}

INTRINSICS = {
    "abs": np.abs,
    "sqrt": np.sqrt,
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "sign": np.sign,
}


def lower_loop(analyzer: Analyzer, nest: LoopNest):
    """Lower one analyzed nest into its plan object."""
    if nest.kind == "cell_append":
        red = nest.statements[0]
        src_ref = array_refs(red.value)[0]
        return AppendPlan(
            nest=nest,
            routing=nest.indirections[0],
            size_array=nest.csr_offsets,
            source=src_ref.name,
            target=red.target.name,
        )
    if nest.kind == "local_assign":
        if nest.decomposition is None:
            raise AnalysisError("local loops must touch a distributed array",
                                nest.outer.line)
        return LocalPlan(nest=nest)
    return _lower_reduction(analyzer, nest)  # flat, csr or ragged


def _lower_reduction(analyzer: Analyzer, nest: LoopNest) -> ReductionPlan:
    """A flat, CSR or ragged reduction nest: its subscript patterns (one
    stamp each, in order of first reference), the arrays its statements
    read, and one evaluator per REDUCE."""
    symbols = analyzer.symbols
    outer = nest.outer
    loop_vars = {outer.var} | ({nest.inner.var} if nest.inner else set())
    patterns = {}
    # every statement is a REDUCE: analysis rejects assignments in a nest
    # that has one, and REDUCE-free nests lower to LocalPlan
    for stmt in nest.statements:
        info = symbols.array(stmt.target.name, stmt.line)
        if info.decomposition is None:
            raise AnalysisError(
                f"REDUCE target {stmt.target.name!r} must be distributed",
                stmt.line)
        if info.ragged:
            raise AnalysisError(
                f"ragged array {stmt.target.name!r} cannot be a REDUCE "
                "target", stmt.line)
        for ref in (stmt.target, *array_refs(stmt.value)):
            if symbols.arrays[ref.name].decomposition is not None:
                pat = classify_subscript(ref.subscripts[0], loop_vars)
                patterns.setdefault(pat.key(), pat)
    # each kind's iteration space builds the outer variable's own value
    # and one-variable (flat, CSR) or two-variable (ragged) indirections
    what = "CSR" if nest.kind == "csr" else nest.kind
    for key, pat in patterns.items():
        if not (pat.loopvar == outer.var if pat.kind == "loopvar"
                else (pat.kind == "indirect2") == (nest.kind == "ragged")):
            raise AnalysisError(f"unsupported pattern {key} in {what} loop",
                                outer.line)

    reads: set[str] = set()

    def pattern_of(ref: ArrayRef) -> str:
        key = classify_subscript(ref.subscripts[0], loop_vars).key()
        if key not in patterns:
            raise AnalysisError(
                f"{ref.name!r} is indexed by {key}, which no distributed "
                "array of the loop uses", ref.line)
        return key

    def leaf(expr: VarRef | ArrayRef) -> tuple[str | None, str | None]:
        """What ``read`` is asked for: ``(array, pattern key)``, ``(None,
        key)`` for a loop variable's own value, ``(name, None)`` for a
        scalar."""
        if isinstance(expr, VarRef):
            if expr.name not in loop_vars:
                return expr.name, None
            if f"var:{expr.name}" not in patterns:
                raise AnalysisError(
                    f"loop variable {expr.name!r} not available as a value",
                    expr.line)
            return None, f"var:{expr.name}"
        info = symbols.array(expr.name, expr.line)
        if info.ragged:
            raise AnalysisError(
                f"ragged array {expr.name!r} cannot be read in a reduction",
                expr.line)
        if info.decomposition is not None:
            reads.add(expr.name)
        return expr.name, pattern_of(expr)

    targets = {}
    statements = []
    n_ops = 0
    for stmt in nest.statements:
        op = REDUCE_OPS[stmt.op]
        if targets.setdefault(stmt.target.name, op) is not op:
            raise AnalysisError("mixed reduction ops on one target",
                                stmt.line)
        statements.append((stmt.target.name, pattern_of(stmt.target),
                           _lower_expr(stmt.value, leaf)))
        # estimated arithmetic per iteration: nodes in the expression
        n_ops += 1 + sum(1 for _ in walk_expr(stmt.value))
    return ReductionPlan(
        nest=nest,
        index_patterns=list(patterns.values()),
        reads=tuple(sorted(reads)),
        targets=targets,
        statements=statements,
        compute_ops_per_iter=float(max(1, n_ops)),
    )


def _lower_expr(expr: Expr, leaf):
    """One statement expression as a function of ``read(array, pattern
    key)``: the tree is walked here, once, at compile time."""
    if isinstance(expr, Num):
        return lambda read: expr.value
    if isinstance(expr, Call):
        func = INTRINSICS[expr.func]
        args = [_lower_expr(a, leaf) for a in expr.args]
        return lambda read: func(*[a(read) for a in args])
    if isinstance(expr, UnaryOp):
        operand = _lower_expr(expr.operand, leaf)
        return lambda read: -operand(read)
    if isinstance(expr, BinOp):
        op = BINOPS[expr.op]
        a = _lower_expr(expr.left, leaf)
        b = _lower_expr(expr.right, leaf)
        return lambda read: op(a(read), b(read))
    if isinstance(expr, FullSlice):
        raise AnalysisError("':' only allowed in REDUCE(APPEND) targets",
                            expr.line)
    name, key = leaf(expr)
    return lambda read: read(name, key)


def lower_program(analyzer: Analyzer) -> dict[str, object]:
    """Lower every loop; returns plans keyed by loop id."""
    return {nest.loop_id: lower_loop(analyzer, nest)
            for nest in analyzer.loops}
