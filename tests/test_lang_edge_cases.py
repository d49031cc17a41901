"""Edge-case coverage for the compiled-program runtime."""

import re

import numpy as np
import pytest

from repro.core import ExecutionContext
from repro.lang import (
    AnalysisError,
    ExecutionError,
    ProgramInstance,
    compile_program,
    interpret_sequential,
)
from repro.sim import Machine

from conftest import ALL_BACKENDS


class TestBindingsAndState:
    def test_unbound_arrays_zero_allocated(self):
        prog = compile_program(
            "REAL x(6)\nC$ DECOMPOSITION r(6)\nC$ DISTRIBUTE r(BLOCK)\n"
            "C$ ALIGN x WITH r"
        )
        inst = ProgramInstance(prog, Machine(2), {})
        inst.execute()
        assert np.array_equal(inst.get_array("x"), np.zeros(6))

    def test_set_array_propagates_to_distributed(self, rng):
        prog = compile_program(
            "REAL x(8)\nC$ DECOMPOSITION r(8)\nC$ DISTRIBUTE r(BLOCK)\n"
            "C$ ALIGN x WITH r"
        )
        inst = ProgramInstance(prog, Machine(2), {"x": np.zeros(8)})
        inst.execute()
        v = rng.standard_normal(8)
        inst.set_array("x", v)
        assert np.array_equal(inst.get_array("x"), v)

    def test_set_array_wrong_size_rejected(self):
        prog = compile_program(
            "REAL x(8)\nC$ DECOMPOSITION r(8)\nC$ DISTRIBUTE r(BLOCK)\n"
            "C$ ALIGN x WITH r"
        )
        inst = ProgramInstance(prog, Machine(2), {"x": np.zeros(8)})
        inst.execute()
        with pytest.raises(ExecutionError):
            inst.set_array("x", np.zeros(7))

    def test_cyclic_distribution_scheme(self, rng):
        n, e = 12, 30
        src = f"""
          REAL x({n})
          INTEGER ia({e})
C$ DECOMPOSITION r({n})
C$ DISTRIBUTE r(CYCLIC)
C$ ALIGN x WITH r
          FORALL i = 1, {e}
            REDUCE(SUM, x(ia(i)), 1)
          END DO
"""
        prog = compile_program(src)
        ia = rng.integers(1, n + 1, e)
        inst = ProgramInstance(prog, Machine(3),
                               dict(x=np.zeros(n), ia=ia))
        inst.execute()
        expected = np.zeros(n)
        np.add.at(expected, ia - 1, 1.0)
        assert np.allclose(inst.get_array("x"), expected)

    def test_ragged_get_before_distribute(self):
        prog = compile_program(
            "C$ DECOMPOSITION c(4)\nC$ ALIGN v(*,:) WITH c"
        )
        inst = ProgramInstance(prog, Machine(2),
                               {"v": [np.zeros(2)] * 4})
        # not distributed yet: host value returned
        assert len(inst.get_array("v")) == 4


class TestLoopValidation:
    def test_outer_loop_must_start_at_one(self, rng):
        src = """
          REAL x(6)
          INTEGER ia(10)
C$ DECOMPOSITION r(6)
C$ DISTRIBUTE r(BLOCK)
C$ ALIGN x WITH r
          FORALL i = 2, 10
            REDUCE(SUM, x(ia(i)), 1)
          END DO
"""
        prog = compile_program(src)
        inst = ProgramInstance(prog, Machine(2), dict(
            x=np.zeros(6), ia=rng.integers(1, 7, 10)))
        with pytest.raises(ExecutionError):
            inst.execute()

    def test_direct_ref_needs_full_span(self, rng):
        src = """
          REAL x(6)
C$ DECOMPOSITION r(6)
C$ DISTRIBUTE r(BLOCK)
C$ ALIGN x WITH r
          FORALL i = 1, 3
            REDUCE(SUM, x(i), 1)
          END DO
"""
        prog = compile_program(src)
        inst = ProgramInstance(prog, Machine(2), {"x": np.zeros(6)})
        with pytest.raises(ExecutionError):
            inst.execute()

    def test_indirection_shorter_than_range(self, rng):
        src = """
          REAL x(6)
          INTEGER ia(5)
C$ DECOMPOSITION r(6)
C$ DISTRIBUTE r(BLOCK)
C$ ALIGN x WITH r
          FORALL i = 1, 10
            REDUCE(SUM, x(ia(i)), 1)
          END DO
"""
        prog = compile_program(src)
        inst = ProgramInstance(prog, Machine(2), dict(
            x=np.zeros(6), ia=np.ones(5, dtype=np.int64)))
        with pytest.raises(ExecutionError):
            inst.execute()

    def test_mixed_reduce_ops_on_one_target_rejected(self):
        src = """
          REAL x(6), y(6)
          INTEGER ia(8)
C$ DECOMPOSITION r(6)
C$ DISTRIBUTE r(BLOCK)
C$ ALIGN x, y WITH r
          FORALL i = 1, 8
            REDUCE(SUM, x(ia(i)), y(ia(i)))
            REDUCE(MAX, x(ia(i)), y(ia(i)))
          END DO
"""
        with pytest.raises(AnalysisError,
                           match="mixed reduction ops on one target") as err:
            compile_program(src)
        assert err.value.line == 9

    def test_non_loop_subscript_rejected_at_compile(self):
        with pytest.raises(AnalysisError):
            compile_program("""
              REAL x(6)
C$ DECOMPOSITION r(6)
C$ DISTRIBUTE r(BLOCK)
C$ ALIGN x WITH r
              FORALL i = 1, 6
                REDUCE(SUM, x(k), 1)
              END DO
""")

    def test_append_with_extra_statement_rejected(self):
        with pytest.raises(AnalysisError):
            compile_program("""
C$ DECOMPOSITION c(4)
C$ ALIGN icell(*,:), vel(*,:), size(:), other(:) WITH c
              FORALL j = 1, 4
                FORALL i = 1, size(j)
                  REDUCE(APPEND, vel(i, icell(i,j)), vel(i,j))
                  REDUCE(SUM, other(icell(i,j)), 1)
                END FORALL
              END FORALL
""")


class TestAssignments:
    """The executors implement one assignment, ``a(i) = constant`` in a
    single FORALL without REDUCE; the rest is refused at compile time
    (it used to run and leave the target untouched, or crash the
    oracle)."""

    HEAD = """
          REAL x(6), y(6), z(6)
          INTEGER ia(8), ib(8)
C$ DECOMPOSITION r(6)
C$ DISTRIBUTE r(BLOCK)
C$ ALIGN x, y, z WITH r
"""

    def rejected_at(self, body):
        with pytest.raises(AnalysisError) as err:
            compile_program(self.HEAD + body)
        return err.value.line

    def test_assignment_beside_a_reduce_rejected(self):
        line = self.rejected_at("""
          FORALL i = 1, 8
            REDUCE(SUM, x(ia(i)), y(ib(i)))
            z(ia(i)) = y(ib(i))
          END DO
""")
        assert line == 10

    def test_indirect_assignment_alone_rejected(self):
        assert self.rejected_at("""
          FORALL i = 1, 8
            z(ia(i)) = y(ib(i))
          END DO
""") == 9

    @pytest.mark.parametrize("stmt", [
        "z(i) = y(i)",       # not a constant
        "z(i) = -1",         # a constant expression is not a constant
        "z(ia(i)) = 0",      # not the loop variable
    ])
    def test_other_assignments_rejected(self, stmt):
        self.rejected_at(f"""
          FORALL i = 1, 6
            {stmt}
          END DO
""")

    def test_assignment_in_a_nest_rejected(self):
        self.rejected_at("""
          FORALL i = 1, 6
            FORALL j = ia(i), ia(i+1) - 1
              z(i) = 0
            END DO
          END DO
""")

    def test_constant_fill_compiles_and_runs(self):
        prog = compile_program(self.HEAD + """
          FORALL i = 1, 6
            z(i) = 2.5
            x(i) = 1
          END DO
""")
        b = dict(x=np.zeros(6), z=np.zeros(6))
        inst = ProgramInstance(prog, Machine(3), dict(b))
        inst.execute()
        seq = interpret_sequential(prog, dict(b))
        for name, value in (("z", 2.5), ("x", 1.0)):
            assert np.array_equal(inst.get_array(name), np.full(6, value))
            assert np.array_equal(seq[name], np.full(6, value))


CELLS = """
C$ DECOMPOSITION celltemp(4)
C$ DISTRIBUTE celltemp(BLOCK)
C$ ALIGN icell(*,:), vel(*,:), size(:), new_size(:) WITH celltemp
"""
APPEND = CELLS + """
      FORALL j = 1, 4
        FORALL i = 1, size(j)
          REDUCE(APPEND, vel(i, icell(i,j)), vel(i,j))
        END FORALL
      END FORALL
"""
COUNT = CELLS + """
      FORALL j = 1, 4
        FORALL i = 1, size(j)
          REDUCE(SUM, new_size(icell(i,j)), 1)
        END FORALL
      END FORALL
"""


class TestRaggedBounds:
    """``size(c)`` against the rows it walks: the instance used to
    truncate silently (or fail deep inside the executor), the oracle to
    raise ``IndexError``."""

    def bindings(self, **override):
        b = dict(
            size=np.array([2, 0, 3, 1]),
            vel=[np.array([.1, .2]), np.zeros(0), np.array([.3, .4, .5]),
                 np.array([.6])],
            icell=[np.array([2, 3]), np.zeros(0, dtype=np.int64),
                   np.array([1, 1, 4]), np.array([2])],
            new_size=np.zeros(4),
        )
        b.update(override)
        return b

    def both_refuse(self, backend, source, bindings, match):
        prog = compile_program(source)
        inst = ProgramInstance(
            prog, ExecutionContext.resolve(Machine(2), backend), bindings)
        with pytest.raises(ExecutionError, match=match):
            inst.execute()
        with pytest.raises(ExecutionError, match=match):
            interpret_sequential(prog, bindings)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_size_larger_than_every_row(self, backend):
        self.both_refuse(
            backend, APPEND, self.bindings(size=np.array([2, 0, 4, 1])),
            "'icell': cell 3 holds 3 entries.* 4")

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("source", [pytest.param(APPEND, id="append"),
                                        pytest.param(COUNT, id="count")])
    def test_routing_row_shorter_than_size(self, backend, source):
        short = self.bindings()
        short["icell"][2] = np.array([1, 1])
        self.both_refuse(backend, source, short,
                         "'icell': cell 3 holds 2 entries.* 3")

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_source_row_shorter_than_size(self, backend):
        short = self.bindings()
        short["vel"][0] = np.array([.1])
        self.both_refuse(backend, APPEND, short,
                         "'vel': cell 1 holds 1 entries.* 2")

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_bound_dtypes_kept_and_wire_format_fixed(self, backend):
        """An INTEGER routing array comes back as integers, a REAL*4
        source as float32; what the append stage ships (and therefore
        what it costs) stays int64 cells and float64 values."""
        prog = compile_program(APPEND)
        cost = {}
        for dtype in (np.float64, np.float32):
            b = self.bindings()
            b["vel"] = [r.astype(dtype) for r in b["vel"]]
            b["icell"] = [r.astype(np.int32) for r in b["icell"]]
            m = Machine(2)
            inst = ProgramInstance(
                prog, ExecutionContext.resolve(m, backend), b)
            assert all(r.dtype == dtype for r in inst.get_array("vel"))
            inst.execute()
            assert all(r.dtype == np.int32
                       for r in inst.get_array("icell"))
            moved = inst.get_array("vel")
            assert all(r.dtype == np.float64 for r in moved)
            assert [len(r) for r in moved] == [2, 2, 1, 1]
            cost[dtype] = (m.traffic.snapshot(), m.execution_time())
        assert cost[np.float64] == cost[np.float32]


class TestTextOnlyRejections:
    """Every rejection that depends only on the program text comes from
    ``compile_program`` as an ``AnalysisError`` with its line; the
    reduction and local-loop cases used to surface at first execution,
    as an ``ExecutionError``."""

    HEAD = """REAL x(6), y(6), w(6)
INTEGER ia(8), ib(8), inblo(7), jnb(6)
C$ DECOMPOSITION r(6), c(4)
C$ DISTRIBUTE r(BLOCK)
C$ DISTRIBUTE c(BLOCK)
C$ ALIGN x, y WITH r
C$ ALIGN icell(*,:), vel(*,:), size(:), ns(:) WITH c
"""
    FLAT = "FORALL i = 1, 8\n{}\nEND DO\n"
    CSR = ("FORALL i = 1, 6\n FORALL j = inblo(i), inblo(i+1) - 1\n{}\n"
           " END DO\nEND DO\n")
    RAGGED = "FORALL j = 1, 4\n FORALL i = 1, size(j)\n{}\n END DO\nEND DO\n"

    @pytest.mark.parametrize("body, message, line", [
        pytest.param(FLAT.format("REDUCE(SUM, x(ia(i)), vel(i))"),
                     "ragged array 'vel' cannot be read in a reduction", 9,
                     id="ragged-read"),
        pytest.param(FLAT.format("REDUCE(SUM, x(ia(i)), w(ib(i)))"),
                     "'w' is indexed by ind:ib(i), which no distributed "
                     "array of the loop uses", 9, id="unused-pattern"),
        pytest.param(FLAT.format("REDUCE(SUM, x(ia(i)), i)"),
                     "loop variable 'i' not available as a value", 9,
                     id="loop-variable-value"),
        pytest.param(FLAT.format("REDUCE(SUM, x(ia(i)), y(ia(i)))\n"
                                 "REDUCE(MIN, x(ia(i)), y(ia(i)))"),
                     "mixed reduction ops on one target", 10,
                     id="mixed-ops"),
        pytest.param(FLAT.format("REDUCE(SUM, x(ia(i)), :)"),
                     "':' only allowed in REDUCE(APPEND) targets", 9,
                     id="full-slice"),
        pytest.param(CSR.format("REDUCE(SUM, x(jnb(j)), x(j))"),
                     "unsupported pattern var:j in CSR loop", 8,
                     id="csr-inner-variable"),
        pytest.param(RAGGED.format("REDUCE(SUM, ns(i), 1)"),
                     "unsupported pattern var:i in ragged loop", 8,
                     id="ragged-inner-variable"),
        pytest.param(RAGGED.format("REDUCE(SUM, ns(ia(j)), 1)"),
                     "unsupported pattern ind:ia(j) in ragged loop", 8,
                     id="ragged-indirect"),
        pytest.param("FORALL i = 1, 4\nREDUCE(SUM, ns(icell(i,i)), 1)\n"
                     "END DO\n",
                     "unsupported pattern ind:icell(i,i) in flat loop", 8,
                     id="flat-ragged-indirect"),
        pytest.param("FORALL i = 1, 6\nw(i) = 0\nEND DO\n",
                     "local loops must touch a distributed array", 8,
                     id="local-replicated"),
        pytest.param(FLAT.format("REDUCE(SUM, w(ia(i)), 1)"),
                     "REDUCE target 'w' must be distributed", 9,
                     id="replicated-target"),
        pytest.param(FLAT.format("REDUCE(SUM, vel(ia(i)), 1)"),
                     "ragged array 'vel' cannot be a REDUCE target", 9,
                     id="ragged-target"),
        pytest.param("REDUCE(SUM, x(1), 1)\n",
                     "cannot execute statement Reduce", 8,
                     id="reduce-outside-forall"),
        pytest.param("FORALL i = 1, ia(1)\nREDUCE(SUM, x(i), 1)\nEND DO\n",
                     "unsupported loop bound", 8, id="outer-bound-shape"),
    ])
    def test_rejected_at_compile(self, body, message, line):
        with pytest.raises(AnalysisError, match=re.escape(message)) as err:
            compile_program(self.HEAD + body)
        assert err.value.line == line

    def test_unbound_scalar_is_an_execution_error(self):
        prog = compile_program(
            self.HEAD + self.FLAT.format("REDUCE(SUM, x(ia(i)), s)"))
        ia = np.array([1, 2, 3, 4, 5, 6, 1, 2])
        inst = ProgramInstance(prog, Machine(2), dict(ia=ia))
        with pytest.raises(ExecutionError, match="unbound scalar 's'") as err:
            inst.execute()
        assert err.value.line == 8
        inst = ProgramInstance(prog, Machine(2), dict(ia=ia, s=2.5))
        inst.execute()
        assert inst.get_array("x").tolist() == [5, 5, 2.5, 2.5, 2.5, 2.5]


def _rows(*rows):
    return [np.array(r) for r in rows]


class TestOuterLowerBound:
    """A FORALL that starts past 1: the instance refuses it, the oracle
    runs it from its lower bound.  Both used to start at 1 silently."""

    ARRAYS = """REAL x(6), a(8)
INTEGER ia(8), inblo(7), jnb(6)
C$ DECOMPOSITION r(6), s(8)
C$ DISTRIBUTE r(BLOCK)
C$ DISTRIBUTE s(BLOCK)
C$ ALIGN x WITH r
C$ ALIGN a WITH s
"""

    @pytest.mark.parametrize("source, bindings, name, expected", [
        pytest.param(ARRAYS + "FORALL i = 3, 8\n a(i) = 7\nEND DO",
                     lambda: dict(a=np.arange(8.0)), "a",
                     [0, 1, 7, 7, 7, 7, 7, 7], id="local"),
        pytest.param(ARRAYS + "FORALL i = 3, 8\n REDUCE(SUM, x(ia(i)), 1)\n"
                     "END DO",
                     lambda: dict(ia=np.array([1, 2, 3, 4, 5, 6, 1, 2])),
                     "x", [1, 1, 1, 1, 1, 1], id="flat"),
        pytest.param(ARRAYS + "FORALL i = 2, 6\n"
                     " FORALL j = inblo(i), inblo(i+1) - 1\n"
                     "  REDUCE(SUM, x(jnb(j)), 1)\n END DO\nEND DO",
                     lambda: dict(inblo=np.arange(1, 8), jnb=np.arange(1, 7)),
                     "x", [0, 1, 1, 1, 1, 1], id="csr"),
        pytest.param(COUNT.replace("j = 1, 4", "j = 2, 4"),
                     lambda: dict(size=np.ones(4, dtype=np.int64),
                                  icell=_rows([1], [2], [3], [4])),
                     "new_size", [0, 1, 1, 1], id="ragged"),
        pytest.param(APPEND.replace("j = 1, 4", "j = 2, 4"),
                     lambda: dict(size=np.ones(4, dtype=np.int64),
                                  icell=_rows([1], [1], [1], [1]),
                                  vel=_rows([.1], [.2], [.3], [.4])),
                     "vel", [[.2, .3, .4], [], [], []], id="append"),
    ])
    def test_instance_refuses_and_oracle_honours(self, source, bindings,
                                                 name, expected):
        prog = compile_program(source)
        inst = ProgramInstance(prog, Machine(2), bindings())
        with pytest.raises(ExecutionError,
                           match="outer FORALL must start at 1"):
            inst.execute()
        got = interpret_sequential(prog, bindings())[name]
        if isinstance(got, list):
            got = [r.tolist() for r in got]
        else:
            got = got.tolist()
        assert got == expected

    def test_oracle_refuses_a_bound_below_one(self):
        prog = compile_program(
            self.ARRAYS + "FORALL i = 0, 8\n REDUCE(SUM, x(ia(i)), 1)\n"
            "END DO")
        with pytest.raises(ExecutionError, match="starts below 1"):
            interpret_sequential(prog, dict(ia=np.ones(8, dtype=np.int64)))
