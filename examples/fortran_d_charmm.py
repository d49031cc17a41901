"""Compile and run the paper's Figure 10: CHARMM's non-bonded loop in
Fortran D.

The mini-compiler parses the DECOMPOSITION/DISTRIBUTE/ALIGN directives and
the FORALL/REDUCE nest, lowers the loop to an inspector/executor plan over
CHAOS, executes it on a simulated 8-processor machine, and matches the
sequential interpretation.  It then modifies the non-bonded list (jnb) and
re-runs — the schedule cache detects the modification and regenerates,
reusing unchanged hash-table analysis.

Run:  python examples/fortran_d_charmm.py
"""

import numpy as np

from repro.lang import ProgramInstance, compile_program, interpret_sequential
from repro.partitioners import RCB
from repro.sim import Machine

N_ATOMS = 200
N_PROCS = 8

SOURCE = f"""
C     Figure 10: non-bonded force calculation loop of CHARMM in Fortran D
      REAL*8 x({N_ATOMS}), y({N_ATOMS}), dx({N_ATOMS}), dy({N_ATOMS})
      INTEGER map({N_ATOMS}), jnb(4000), inblo({N_ATOMS + 1})
C$ DECOMPOSITION reg({N_ATOMS})
C$ DISTRIBUTE reg(BLOCK)
C$ ALIGN x, y, dx, dy WITH reg
C$ DISTRIBUTE reg(map)
L1:   FORALL i = 1, {N_ATOMS}
        FORALL j = inblo(i), inblo(i+1) - 1
          REDUCE (SUM, dx(jnb(j)), x(jnb(j)) - x(i))
          REDUCE (SUM, dy(jnb(j)), y(jnb(j)) - y(i))
          REDUCE (SUM, dx(i), x(i) - x(jnb(j)))
          REDUCE (SUM, dy(i), y(i) - y(jnb(j)))
        END DO
      END DO
"""


def make_bindings(rng):
    """A random CSR non-bonded list + coordinates + an RCB map array."""
    deg = rng.integers(0, 10, N_ATOMS)
    inblo = np.ones(N_ATOMS + 1, dtype=np.int64)
    inblo[1:] = 1 + np.cumsum(deg)
    jnb = rng.integers(1, N_ATOMS + 1, int(deg.sum()))
    coords = rng.random((N_ATOMS, 3))
    maparr = RCB().partition(coords, N_PROCS).labels
    return dict(
        x=rng.standard_normal(N_ATOMS), y=rng.standard_normal(N_ATOMS),
        dx=np.zeros(N_ATOMS), dy=np.zeros(N_ATOMS),
        map=maparr, jnb=jnb, inblo=inblo,
    )


def main() -> None:
    rng = np.random.default_rng(0)
    program = compile_program(SOURCE)
    nest = program.analyzer.loops[0]
    print(f"compiled: loop kind = {nest.kind!r}, indirection arrays = "
          f"{nest.indirections}, CSR offsets = {nest.csr_offsets!r}")

    bindings = make_bindings(rng)
    expected = interpret_sequential(
        program, {k: v.copy() for k, v in bindings.items()}
    )

    machine = Machine(N_PROCS)
    inst = ProgramInstance(program, machine,
                           {k: v.copy() for k, v in bindings.items()})
    inst.execute()
    err = np.abs(inst.get_array("dx") - expected["dx"]).max()
    print(f"compiler-parallel vs sequential interpreter: max err {err:.2e}")
    assert err < 1e-10

    loop_id = program.loop_ids()[0]
    st = inst.cache_stats(loop_id)
    print(f"schedule cache after first run: hits={st.hits} builds={st.builds}")

    # re-run unchanged: schedule reused (the §5.3.1 record sees no change)
    inst.run_loop(loop_id)
    st = inst.cache_stats(loop_id)
    print(f"after unchanged re-run:         hits={st.hits} builds={st.builds}")

    # modify the non-bonded list: the record triggers regeneration
    inst.set_array("jnb", rng.integers(1, N_ATOMS + 1,
                                       bindings["jnb"].size))
    inst.run_loop(loop_id)
    st = inst.cache_stats(loop_id)
    print(f"after jnb modification:         hits={st.hits} builds={st.builds}")
    print("OK")


if __name__ == "__main__":
    main()
