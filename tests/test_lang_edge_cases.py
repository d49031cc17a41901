"""Edge-case coverage for the compiled-program runtime."""

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

    def test_mixed_reduce_ops_on_one_target_rejected(self, rng):
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
        prog = compile_program(src)
        inst = ProgramInstance(prog, Machine(2), dict(
            x=np.zeros(6), y=np.ones(6), ia=rng.integers(1, 7, 8)))
        with pytest.raises(ExecutionError):
            inst.execute()

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


class TestTtableStorageModes:
    @pytest.mark.parametrize("storage", ["replicated", "distributed", "paged"])
    def test_compiled_loop_any_storage(self, storage, rng):
        n, e = 16, 40
        src = f"""
          REAL x({n}), y({n})
          INTEGER ia({e}), ib({e})
C$ DECOMPOSITION r({n})
C$ DISTRIBUTE r(BLOCK)
C$ ALIGN x, y WITH r
          FORALL i = 1, {e}
            REDUCE(SUM, x(ia(i)), y(ib(i)))
          END DO
"""
        prog = compile_program(src)
        b = dict(x=np.zeros(n), y=rng.standard_normal(n),
                 ia=rng.integers(1, n + 1, e), ib=rng.integers(1, n + 1, e))
        inst = ProgramInstance(prog, Machine(4),
                               {k: v.copy() for k, v in b.items()},
                               ttable_storage=storage)
        inst.execute()
        expected = np.zeros(n)
        np.add.at(expected, b["ia"] - 1, b["y"][b["ib"] - 1])
        assert np.allclose(inst.get_array("x"), expected)


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
        with ProgramInstance(
                prog, ExecutionContext.resolve(Machine(2), backend),
                bindings) as inst:
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
            with ProgramInstance(
                    prog, ExecutionContext.resolve(m, backend), b) as inst:
                assert all(r.dtype == dtype for r in inst.get_array("vel"))
                inst.execute()
                assert all(r.dtype == np.int32
                           for r in inst.get_array("icell"))
                moved = inst.get_array("vel")
                assert all(r.dtype == np.float64 for r in moved)
                assert [len(r) for r in moved] == [2, 2, 1, 1]
            cost[dtype] = (m.traffic.snapshot(), m.execution_time())
        assert cost[np.float64] == cost[np.float32]
