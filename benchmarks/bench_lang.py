"""Compiler-path benchmark: what the ``lang`` runtime adds on top of numpy.

The paper's compiler claim (§5.3.1, Tables 6/7) is that generated code
costs about what hand-written runtime calls cost.  On the host side the
equivalent question is how far ``ProgramInstance`` is from the plain
numpy work its loops contain — two same-process ratios, so neither
depends on the machine:

* ``fig10_iter_p32`` (gated) — ``interpret_sequential`` of the Figure-10
  non-bonded loop / one steady ``run_loop`` of the same program on 32
  simulated ranks, same bindings.  The oracle is the loop body over one
  global numpy stream; a runtime that walks ranks × statements in Python
  falls behind it.
* ``fig11_cell_scaling`` (gated) — one Figure-11 step (new sizes and
  routing through ``set_array``, then the append, zero and count loops)
  at 1 024 cells / at 4 096 cells with the same 5 000 particles.  A
  per-cell Python loop reads ≈ 0.4; the flat CSR path ≈ 0.75 (what is
  left grows with the cell count as data: ``len`` of every bound row,
  hash tables over four times the keys).
* ``fig10_reinspect_p32`` (advisory) — the same oracle time / a
  ``run_loop`` after ``set_array`` swapped ``jnb`` for a copy with ~2 %
  of its partners moved (and back, alternately), so every round the
  inspector (iteration space, hashing, schedule) reruns.
"""

from __future__ import annotations

import itertools
import sys
import time

sys.path.insert(0, __file__.rsplit("/", 1)[0])

import numpy as np  # noqa: E402

from common import print_table  # noqa: E402
from tables import FIGURE11_SRC, figure10_source  # noqa: E402

from repro.core import ExecutionContext  # noqa: E402
from repro.lang import (  # noqa: E402
    ProgramInstance,
    compile_program,
    interpret_sequential,
)
from repro.sim import Machine  # noqa: E402

N_ATOMS, PARTNERS, NB_RANKS = 3000, 50, 32
PARTICLES, MV_RANKS, CELL_COUNTS = 5000, 16, (1024, 4096)
REPEATS = 11

def best_ms(cases: dict) -> dict:
    """Fastest of ``REPEATS`` timed calls of every ``name: (fn,
    prepare)`` case; ``prepare`` runs untimed, and the cases take turns
    so that a drifting host moves both sides of a ratio together."""
    best = dict.fromkeys(cases, float("inf"))
    for _ in range(REPEATS):
        for name, (fn, prepare) in cases.items():
            prepare()
            t0 = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - t0)
    return {name: 1e3 * seconds for name, seconds in best.items()}


def figure10_cases(rng) -> dict:
    n = N_ATOMS
    degree = rng.integers(PARTNERS // 2, 3 * PARTNERS // 2, n)
    inblo = np.ones(n + 1, dtype=np.int64)
    inblo[1:] = 1 + np.cumsum(degree)
    # partners near i, as a cutoff list has them: most stay on the rank
    rows = np.repeat(np.arange(n), degree)
    jnb = (rows + rng.integers(-150, 151, rows.size)) % n + 1
    prog = compile_program(figure10_source(n, jnb.size))
    bindings = dict(x=rng.standard_normal(n), y=rng.standard_normal(n),
                    dx=np.zeros(n), dy=np.zeros(n), jnb=jnb, inblo=inblo,
                    map=np.arange(n) * NB_RANKS // n)
    inst = ProgramInstance(prog, ExecutionContext.resolve(Machine(NB_RANKS)),
                           dict(bindings))
    inst.execute()
    loop = prog.loop_ids()[0]
    # ~2 % of the entries point at another atom, so each swap re-inspects
    moved = jnb.copy()
    at = rng.choice(jnb.size, jnb.size // 50, replace=False)
    moved[at] = (moved[at] - 1 + rng.integers(1, n, at.size)) % n + 1
    versions = itertools.cycle((moved, jnb))

    def run_loop():
        inst.run_loop(loop)

    return {
        "Figure 10 interpret_sequential":
            (lambda: interpret_sequential(prog, bindings), lambda: None),
        f"Figure 10 run_loop, P={NB_RANKS}": (run_loop, lambda: None),
        "Figure 10 run_loop + inspector":
            (run_loop, lambda: inst.set_array("jnb", next(versions))),
    }


def figure11_case(rng, nc: int) -> tuple:
    """One step; routing depends only on the step, so every cell count
    moves the same particles."""
    cells = rng.integers(0, nc, PARTICLES)
    sizes = np.bincount(cells, minlength=nc)
    prog = compile_program(FIGURE11_SRC.format(nc=nc))
    ctx = ExecutionContext.resolve(Machine(MV_RANKS))
    inst = ProgramInstance(prog, ctx, dict(
        size=sizes, new_size=np.zeros(nc),
        vel=np.split(rng.random(PARTICLES), np.cumsum(sizes)[:-1]),
        icell=np.split(rng.integers(1, nc + 1, PARTICLES),
                       np.cumsum(sizes)[:-1])))
    inst.execute()
    update = {}

    def prepare():  # the driver's own per-cell work is not the runtime's
        update["size"] = inst.get_array("new_size").astype(np.int64)
        update["icell"] = np.split(rng.integers(1, nc + 1, PARTICLES),
                                   np.cumsum(update["size"])[:-1])

    def step():
        for name, value in update.items():
            inst.set_array(name, value)
        for loop in prog.loop_ids():
            inst.run_loop(loop)

    return step, prepare


def main() -> None:
    rng = np.random.default_rng(19)
    cases = figure10_cases(rng)
    for nc in CELL_COUNTS:
        cases[f"Figure 11 step, {nc} cells"] = figure11_case(rng, nc)
    ms = best_ms(cases)
    sequential, steady, reinspect, small, large = ms.values()
    speedups = {
        "fig10_iter_p32": sequential / steady,
        "fig10_reinspect_p32": sequential / reinspect,
        "fig11_cell_scaling": small / large,
    }
    print_table(
        f"Compiler path (Figure 10: {N_ATOMS} atoms x ~{PARTNERS} partners"
        f"; Figure 11: {PARTICLES} particles on {MV_RANKS} ranks)",
        ["metric", "value"],
        [[f"{name} (ms)", value] for name, value in ms.items()]
        + [[name, value] for name, value in speedups.items()],
        json_name="bench_lang", extra={"speedups": speedups, "ms": ms},
    )


if __name__ == "__main__":
    main()
