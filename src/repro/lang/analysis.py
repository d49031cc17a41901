"""Semantic analysis: symbol tables, loop classification, reduction
recognition.

The analyzer reproduces what the Fortran 90D compiler front end must
decide before it can generate inspector/executor code (paper §5.3):

* which arrays are distributed (via DECOMPOSITION/DISTRIBUTE/ALIGN),
* which subscripts are *indirections* (``x(jnb(j))``) versus direct loop
  references (``x(i)``),
* whether a loop nest is one of the irregular templates CHAOS handles:

  - ``flat``  — single FORALL of reductions (Figure 8),
  - ``csr``   — outer FORALL over a decomposition, inner FORALL over
    ``inblo(i) .. inblo(i+1)-1`` (Figure 10, the CHARMM non-bonded loop),
  - ``cell_append`` — nested FORALL whose body is a single
    ``REDUCE(APPEND, …)`` (Figure 11, the DSMC MOVE), lowered to
    light-weight schedules,
  - ``local_assign`` — a single FORALL of ``a(i) = constant`` fills over
    aligned arrays (no communication); every other assignment is
    rejected here, with its line.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang.ast_nodes import (
    AlignStmt,
    ArrayDecl,
    ArrayRef,
    Assign,
    BinOp,
    DecompositionStmt,
    DistributeStmt,
    Expr,
    Forall,
    Num,
    Program,
    Reduce,
    VarRef,
    array_refs,
)
from repro.lang.errors import AnalysisError


@dataclass
class ArrayInfo:
    name: str
    dtype: str
    shape: tuple[int, ...]
    decomposition: str | None = None  # via ALIGN
    ragged: bool = False              # aligned (*,:) cell arrays


@dataclass
class DecompInfo:
    name: str
    size: int


@dataclass
class SymbolTable:
    arrays: dict[str, ArrayInfo] = field(default_factory=dict)
    decomps: dict[str, DecompInfo] = field(default_factory=dict)

    def array(self, name: str, line: int | None = None) -> ArrayInfo:
        info = self.arrays.get(name)
        if info is None:
            raise AnalysisError(f"undeclared array {name!r}", line)
        return info

    def decomp(self, name: str, line: int | None = None) -> DecompInfo:
        info = self.decomps.get(name)
        if info is None:
            raise AnalysisError(f"unknown decomposition {name!r}", line)
        return info


# ---------------------------------------------------------------------
# subscript classification
# ---------------------------------------------------------------------
@dataclass(frozen=True)
class SubscriptPattern:
    """Classified subscript of a distributed-array reference.

    ``kind``: ``"loopvar"`` (direct, e.g. ``x(i)``), ``"indirect"``
    (``x(jnb(j))``), or ``"indirect2"`` (ragged, ``new_size(icell(i,j))``);
    used as the inspector-hash grouping key.
    """

    kind: str
    loopvar: str
    indirection: str | None = None  # indirection array name
    loopvar2: str | None = None     # second var of ragged indirections

    def key(self) -> str:
        if self.kind == "loopvar":
            return f"var:{self.loopvar}"
        if self.kind == "indirect2":
            return f"ind:{self.indirection}({self.loopvar},{self.loopvar2})"
        return f"ind:{self.indirection}({self.loopvar})"


def classify_subscript(sub: Expr, loop_vars: set[str]) -> SubscriptPattern:
    """Classify one subscript expression; raises on unsupported shapes."""
    if isinstance(sub, VarRef):
        if sub.name in loop_vars:
            return SubscriptPattern("loopvar", sub.name)
        raise AnalysisError(
            f"subscript variable {sub.name!r} is not a loop variable",
            sub.line,
        )
    if isinstance(sub, ArrayRef):
        subs = sub.subscripts
        if len(subs) == 1 and isinstance(subs[0], VarRef):
            inner = subs[0]
            if inner.name in loop_vars:
                return SubscriptPattern("indirect", inner.name, sub.name)
        if (
            len(subs) == 2
            and all(isinstance(s, VarRef) for s in subs)
            and all(s.name in loop_vars for s in subs)
        ):
            return SubscriptPattern(
                "indirect2", subs[0].name, sub.name, subs[1].name
            )
        raise AnalysisError(
            f"unsupported indirection shape in subscript of {sub.name!r}",
            sub.line,
        )
    raise AnalysisError("unsupported subscript expression",
                        getattr(sub, "line", None))


# ---------------------------------------------------------------------
# loop classification
# ---------------------------------------------------------------------
@dataclass
class LoopNest:
    """One analyzed irregular loop nest."""

    kind: str                      # flat | csr | cell_append | local_assign
    outer: Forall
    inner: Forall | None
    statements: list               # Reduce / Assign bodies (flattened)
    decomposition: str | None      # owner-computes decomposition, if any
    indirections: list[str]        # names of indirection arrays used
    csr_offsets: str | None = None  # inblo-style offsets array (csr only)
    loop_id: str = ""


def _is_csr_bounds(inner: Forall, outer_var: str) -> str | None:
    """Detect ``FORALL j = inblo(i), inblo(i+1)-1``; returns offsets name."""
    lo, hi = inner.lower, inner.upper
    if not (isinstance(lo, ArrayRef) and len(lo.subscripts) == 1):
        return None
    if not (isinstance(lo.subscripts[0], VarRef)
            and lo.subscripts[0].name == outer_var):
        return None
    # upper must be  offsets(i+1) - 1
    if not (isinstance(hi, BinOp) and hi.op == "-"
            and isinstance(hi.right, Num) and hi.right.value == 1):
        return None
    up = hi.left
    if not (isinstance(up, ArrayRef) and up.name == lo.name
            and len(up.subscripts) == 1):
        return None
    s = up.subscripts[0]
    if (isinstance(s, BinOp) and s.op == "+"
            and isinstance(s.left, VarRef) and s.left.name == outer_var
            and isinstance(s.right, Num) and s.right.value == 1):
        return lo.name
    return None


def _is_size_bounds(inner: Forall) -> str | None:
    """Detect ``FORALL i = 1, size(j)``; returns the size array's name."""
    lo, hi = inner.lower, inner.upper
    if not (isinstance(lo, Num) and lo.value == 1):
        return None
    if isinstance(hi, ArrayRef) and len(hi.subscripts) == 1 \
            and isinstance(hi.subscripts[0], VarRef):
        return hi.name
    return None


class Analyzer:
    """Builds the symbol table and classifies every top-level loop."""

    def __init__(self, program: Program):
        self.program = program
        self.symbols = SymbolTable()
        self.loops: list[LoopNest] = []
        self._loop_counter = 0
        self._analyze()

    # ------------------------------------------------------------------
    def _analyze(self) -> None:
        for stmt in self.program.statements:
            if isinstance(stmt, ArrayDecl):
                if stmt.name in self.symbols.arrays:
                    raise AnalysisError(
                        f"array {stmt.name!r} declared twice", stmt.line
                    )
                self.symbols.arrays[stmt.name] = ArrayInfo(
                    stmt.name, stmt.dtype, stmt.shape
                )
            elif isinstance(stmt, DecompositionStmt):
                self.symbols.decomps[stmt.name] = DecompInfo(
                    stmt.name, stmt.size
                )
            elif isinstance(stmt, AlignStmt):
                decomp = self.symbols.decomp(stmt.target, stmt.line)
                for name, ragged in zip(stmt.arrays, stmt.ragged):
                    info = self.symbols.arrays.get(name)
                    if info is None:
                        # implicitly declared by alignment (paper figures
                        # omit declarations): create a real 1-D array
                        info = ArrayInfo(name, "real", (decomp.size,))
                        self.symbols.arrays[name] = info
                    info.decomposition = stmt.target
                    info.ragged = info.ragged or ragged
            elif isinstance(stmt, DistributeStmt):
                self.symbols.decomp(stmt.target, stmt.line)
            elif isinstance(stmt, Forall):
                self.loops.append(self._classify_loop(stmt))
            else:  # a REDUCE or an assignment outside any FORALL
                raise AnalysisError(
                    f"cannot execute statement {type(stmt).__name__}",
                    stmt.line)

    # ------------------------------------------------------------------
    def _classify_loop(self, loop: Forall) -> LoopNest:
        self._loop_counter += 1
        loop_id = f"loop{self._loop_counter}@{loop.line}"
        for bound in (loop.lower, loop.upper):
            if not isinstance(bound, (Num, VarRef)):
                raise AnalysisError("unsupported loop bound", bound.line)
        inner = None
        body = list(loop.body)
        if len(body) == 1 and isinstance(body[0], Forall):
            inner = body[0]
            body = list(inner.body)
        for s in body:
            if isinstance(s, Forall):
                raise AnalysisError(
                    "only two-level FORALL nests are supported", s.line
                )

        loop_vars = {loop.var} | ({inner.var} if inner else set())
        reduces = [s for s in body if isinstance(s, Reduce)]
        # the one assignment the executors implement is an owner-local
        # constant fill; anything else used to run "successfully" and
        # leave its target untouched
        for s in body:
            if isinstance(s, Assign) and not (
                inner is None and not reduces
                and len(s.target.subscripts) == 1
                and isinstance(s.target.subscripts[0], VarRef)
                and s.target.subscripts[0].name == loop.var
                and isinstance(s.value, Num)
            ):
                raise AnalysisError(
                    "unsupported assignment: only `a(i) = constant` over "
                    "the loop variable, in a single FORALL without REDUCE",
                    s.line,
                )

        # cell-append template (Figure 11)
        if inner is not None and reduces and all(
            r.op == "APPEND" for r in reduces
        ):
            size_arr = _is_size_bounds(inner)
            if size_arr is None:
                raise AnalysisError(
                    "REDUCE(APPEND) loops must iterate FORALL i = 1, size(j)",
                    inner.line,
                )
            nest = LoopNest(
                kind="cell_append", outer=loop, inner=inner,
                statements=reduces, decomposition=None,
                indirections=[], loop_id=loop_id,
            )
            self._analyze_append(nest, size_arr, loop_vars)
            return nest
        if any(isinstance(s, Reduce) and s.op == "APPEND" for s in body):
            raise AnalysisError(
                "REDUCE(APPEND) must be the only statement of its nest",
                loop.line,
            )

        # csr reduction template (Figure 10)
        if inner is not None:
            offsets = _is_csr_bounds(inner, loop.var)
            if offsets is not None:
                nest = LoopNest(
                    kind="csr", outer=loop, inner=inner,
                    statements=body, decomposition=None,
                    indirections=[], csr_offsets=offsets, loop_id=loop_id,
                )
                self._finish_reduction_analysis(nest, loop_vars)
                return nest
            size_arr = _is_size_bounds(inner)
            if size_arr is not None:
                # ragged reduction (Figure 11's L3: recomputing new sizes)
                nest = LoopNest(
                    kind="ragged", outer=loop, inner=inner,
                    statements=body, decomposition=None,
                    indirections=[], csr_offsets=size_arr, loop_id=loop_id,
                )
                self._finish_reduction_analysis(nest, loop_vars)
                return nest
            raise AnalysisError(
                "unsupported inner loop bounds (expected CSR or size(j))",
                inner.line,
            )

        # flat loop: reductions and/or assignments
        kind = "flat" if reduces else "local_assign"
        nest = LoopNest(
            kind=kind, outer=loop, inner=None, statements=body,
            decomposition=None, indirections=[], loop_id=loop_id,
        )
        self._finish_reduction_analysis(nest, loop_vars)
        return nest

    # ------------------------------------------------------------------
    def _finish_reduction_analysis(self, nest: LoopNest,
                                   loop_vars: set[str]) -> None:
        """Collect indirections and the owner-computes decomposition."""
        indirections: list[str] = []
        decomp: str | None = None
        for stmt in nest.statements:
            refs = [stmt.target] if isinstance(stmt, (Reduce, Assign)) else []
            refs += array_refs(stmt.value)
            if isinstance(stmt, Reduce):
                refs += array_refs(stmt.target) or []
            for ref in refs:
                info = self.symbols.array(ref.name, ref.line)
                if info.decomposition is None or info.ragged:
                    continue  # replicated or ragged (indirection) array
                if len(ref.subscripts) != 1:
                    raise AnalysisError(
                        f"distributed array {ref.name!r} must have one "
                        "subscript", ref.line,
                    )
                pat = classify_subscript(ref.subscripts[0], loop_vars)
                if pat.kind in ("indirect", "indirect2") \
                        and pat.indirection not in indirections:
                    indirections.append(pat.indirection)
                if decomp is None:
                    decomp = info.decomposition
                elif decomp != info.decomposition:
                    raise AnalysisError(
                        "loop mixes arrays from different decompositions",
                        ref.line,
                    )
        nest.indirections = indirections
        nest.decomposition = decomp

    def _analyze_append(self, nest: LoopNest, size_arr: str,
                        loop_vars: set[str]) -> None:
        """Validate the cell-append body and record the routing array."""
        red = nest.statements[0]
        tgt = red.target
        # target: dest(i, icell(i,j)) or dest(icell(i,j), :) etc.; the
        # routing indirection is the ArrayRef subscript with both loop vars
        routing = None
        for sub in tgt.subscripts:
            if isinstance(sub, ArrayRef):
                routing = sub.name
        if routing is None:
            raise AnalysisError(
                "REDUCE(APPEND) target needs an indirection subscript "
                "(the new-cell array)", tgt.line,
            )
        nest.indirections = [routing]
        srcs = array_refs(red.value)
        if len(srcs) != 1:
            raise AnalysisError(
                "REDUCE(APPEND) source must be a single array reference",
                red.line,
            )
        nest.decomposition = self.symbols.array(tgt.name, tgt.line).decomposition
        nest.csr_offsets = size_arr


def analyze(program: Program) -> Analyzer:
    return Analyzer(program)
