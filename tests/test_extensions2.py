"""Tests for second-round extensions: multi-array scatter_append
and Fortran-D intrinsic functions."""

import numpy as np
import pytest

from repro.core import (
    ExecutionContext,
    build_lightweight_schedule,
    scatter_append,
    scatter_append_multi,
)
from repro.sim import Machine


class TestScatterAppendMulti:
    def test_matches_separate_appends(self, ctx4, rng):
        dest = [rng.integers(0, 4, 10) for _ in range(4)]
        ids = [np.arange(10) + 50 * p for p in range(4)]
        vel = [rng.standard_normal((10, 2)) for _ in range(4)]
        sched = build_lightweight_schedule(ctx4, dest)
        ref_ids = scatter_append(ctx4, sched, ids)
        ref_vel = scatter_append(ctx4, sched, vel)
        out = scatter_append_multi(ctx4, sched, [ids, vel])
        for p in range(4):
            assert np.array_equal(out[0][p], ref_ids[p])
            assert np.array_equal(out[1][p], ref_vel[p])

    def test_single_message_set(self, rng):
        dest = [rng.integers(0, 4, 20) for _ in range(4)]
        arrays = [[rng.standard_normal(20) for _ in range(4)]
                  for _ in range(3)]
        m1 = Machine(4)
        c1 = ExecutionContext.resolve(m1)
        s1 = build_lightweight_schedule(c1, dest)
        m1.reset_traffic()
        scatter_append_multi(c1, s1, arrays)
        m2 = Machine(4)
        c2 = ExecutionContext.resolve(m2)
        s2 = build_lightweight_schedule(c2, dest)
        m2.reset_traffic()
        for a in arrays:
            scatter_append(c2, s2, a)
        assert m1.traffic.n_messages * 3 == m2.traffic.n_messages
        # same bytes on the wire either way (payloads identical)
        assert m1.traffic.total_bytes == m2.traffic.total_bytes

    def test_empty_attr_list(self, ctx4):
        dest = [np.zeros(0, dtype=np.int64)] * 4
        sched = build_lightweight_schedule(ctx4, dest)
        assert scatter_append_multi(ctx4, sched, []) == []

    def test_length_mismatch_rejected(self, ctx4, rng):
        dest = [rng.integers(0, 4, 5) for _ in range(4)]
        sched = build_lightweight_schedule(ctx4, dest)
        bad = [[rng.standard_normal(4) for _ in range(4)]]
        with pytest.raises(ValueError):
            scatter_append_multi(ctx4, sched, bad)


class TestIntrinsics:
    def run_both(self, src, bindings, n_ranks=3):
        from repro.lang import (
            ProgramInstance,
            compile_program,
            interpret_sequential,
        )

        prog = compile_program(src)
        seq = interpret_sequential(
            prog, {k: np.copy(v) for k, v in bindings.items()}
        )
        inst = ProgramInstance(prog, Machine(n_ranks),
                               {k: np.copy(v) for k, v in bindings.items()})
        inst.execute()
        return seq, inst

    def test_sqrt_abs(self, rng):
        n, e = 12, 40
        src = f"""
          REAL x({n}), y({n})
          INTEGER ia({e}), ib({e})
C$ DECOMPOSITION reg({n})
C$ DISTRIBUTE reg(BLOCK)
C$ ALIGN x, y WITH reg
          FORALL i = 1, {e}
            REDUCE(SUM, x(ia(i)), SQRT(ABS(y(ib(i)))))
          END DO
"""
        b = dict(x=np.zeros(n), y=rng.standard_normal(n),
                 ia=rng.integers(1, n + 1, e), ib=rng.integers(1, n + 1, e))
        seq, inst = self.run_both(src, b)
        assert np.allclose(inst.get_array("x"), seq["x"])

    def test_exp_sin_cos(self, rng):
        n, e = 10, 30
        src = f"""
          REAL x({n}), y({n})
          INTEGER ia({e})
C$ DECOMPOSITION reg({n})
C$ DISTRIBUTE reg(BLOCK)
C$ ALIGN x, y WITH reg
          FORALL i = 1, {e}
            REDUCE(SUM, x(ia(i)), EXP(-y(ia(i)) ** 2) * SIN(y(ia(i))) + COS(y(ia(i))))
          END DO
"""
        b = dict(x=np.zeros(n), y=rng.standard_normal(n),
                 ia=rng.integers(1, n + 1, e))
        seq, inst = self.run_both(src, b)
        assert np.allclose(inst.get_array("x"), seq["x"])

    def test_intrinsic_not_confused_with_array(self):
        """An array named like an intrinsic is not supported — parses as a
        Call, so analysis flags the unknown usage cleanly rather than
        silently mis-reading it."""
        from repro.lang import parse_program
        from repro.lang.ast_nodes import Call

        prog = parse_program("x(1) = SQRT(2)")
        assert isinstance(prog.statements[0].value, Call)
