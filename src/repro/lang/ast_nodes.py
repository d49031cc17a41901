"""AST node classes for the mini Fortran D dialect.

Subscripts are 1-based as in Fortran; the code generator shifts to
0-based numpy indexing.  A ``:`` subscript (full-slice, used by the
paper's ``new_cells(icell(i,j), :)``) parses to :class:`FullSlice`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

Expr = Union["Num", "VarRef", "ArrayRef", "BinOp", "UnaryOp", "FullSlice",
             "Call"]


@dataclass(frozen=True)
class Num:
    value: float
    line: int = 0


@dataclass(frozen=True)
class VarRef:
    name: str
    line: int = 0


@dataclass(frozen=True)
class FullSlice:
    """A ``:`` subscript."""

    line: int = 0


@dataclass(frozen=True)
class ArrayRef:
    name: str
    subscripts: tuple[Expr, ...]
    line: int = 0


#: intrinsic functions usable in loop-body expressions
INTRINSIC_NAMES = ("abs", "sqrt", "exp", "log", "sin", "cos", "sign")


@dataclass(frozen=True)
class Call:
    """Elementwise intrinsic call: ``SQRT(x(jnb(j)))`` etc."""

    func: str  # lower-case member of INTRINSIC_NAMES
    args: tuple[Expr, ...]
    line: int = 0


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * / **
    left: Expr
    right: Expr
    line: int = 0


@dataclass(frozen=True)
class UnaryOp:
    op: str  # -
    operand: Expr
    line: int = 0


# ---------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------
@dataclass(frozen=True)
class ArrayDecl:
    """``REAL x(N), y(N)`` — one entry per declared array."""

    name: str
    dtype: str  # "real" | "integer"
    shape: tuple[int, ...]
    line: int = 0


@dataclass(frozen=True)
class DecompositionStmt:
    """``DECOMPOSITION reg(N)``"""

    name: str
    size: int
    line: int = 0


@dataclass(frozen=True)
class DistributeStmt:
    """``DISTRIBUTE reg(BLOCK)`` / ``DISTRIBUTE reg(map)``"""

    target: str
    scheme: str           # "BLOCK" | "CYCLIC" | "MAP"
    map_array: str | None  # array name for irregular distributions
    line: int = 0


@dataclass(frozen=True)
class AlignStmt:
    """``ALIGN x, y WITH reg`` — ``ragged[k]`` is True for ``(*,:)``-style
    alignment patterns (per-cell ragged arrays, Figure 11)."""

    arrays: tuple[str, ...]
    target: str
    ragged: tuple[bool, ...] = ()
    line: int = 0

    def __post_init__(self):
        if not self.ragged:
            object.__setattr__(self, "ragged",
                               tuple(False for _ in self.arrays))
        if len(self.ragged) != len(self.arrays):
            raise ValueError("ragged flags must match arrays")


@dataclass(frozen=True)
class Assign:
    target: ArrayRef
    value: Expr
    line: int = 0


@dataclass(frozen=True)
class Reduce:
    """``REDUCE(SUM, x(ia(i)), expr)`` — the Fortran D intrinsic, plus the
    paper's proposed ``REDUCE(APPEND, dest(idx, :), src)``."""

    op: str  # SUM | APPEND | MAX | MIN | PROD
    target: ArrayRef
    value: Expr
    line: int = 0


@dataclass(frozen=True)
class Forall:
    """``FORALL i = lo, hi`` with a body of statements/nested foralls."""

    var: str
    lower: Expr
    upper: Expr
    body: tuple["Statement", ...]
    line: int = 0


Statement = Union[
    ArrayDecl, DecompositionStmt, DistributeStmt, AlignStmt,
    Assign, Reduce, Forall,
]


@dataclass
class Program:
    statements: list[Statement] = field(default_factory=list)


def walk_expr(expr: Expr):
    """Yield every node of an expression tree (pre-order)."""
    yield expr
    if isinstance(expr, BinOp):
        yield from walk_expr(expr.left)
        yield from walk_expr(expr.right)
    elif isinstance(expr, UnaryOp):
        yield from walk_expr(expr.operand)
    elif isinstance(expr, ArrayRef):
        for s in expr.subscripts:
            yield from walk_expr(s)
    elif isinstance(expr, Call):
        for a in expr.args:
            yield from walk_expr(a)


def array_refs(expr: Expr) -> list[ArrayRef]:
    """All ArrayRef nodes in an expression."""
    return [n for n in walk_expr(expr) if isinstance(n, ArrayRef)]
