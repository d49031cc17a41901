"""Backend ablation: serial vs vectorized.

Times the *executor phase* (the per-step data transport that dominates
every paper table) under each backend, on four workloads:

* the Table-1 CHARMM setup at 16 simulated ranks — one coordinate
  ``gather`` plus one force ``scatter_op(np.add)`` per round over the
  non-bonded schedule, also reported per phase (gather vs scatter_op
  columns) so backend differences can be attributed;
* a DSMC-style particle migration — one ``scatter_append`` per round
  over a light-weight schedule;
* a four-field halo exchange — the same irregular gather over four
  ``(n, 3)`` float64 fields as one :func:`run_pipeline` chain.  The
  chain and four separate ``gather`` calls are one path — four stages
  through ``Backend.run_stage`` either way — so there is no second path
  to compare against; the script only asserts that splitting the chain
  up is not faster than the chain;
* the rank-count column, ``sweep_p64``: the e2e ``static_sweep`` shape at
  quarter size on 64 ranks (``(n, 3)`` gather + scalar gather +
  ``scatter_add`` over one windowed schedule).  At P=16 a Python loop
  over ranks hides inside the numpy work; at P=64 it is most of a
  round, so this ratio is what fails if the flat executor ever grows a
  rank loop again.

Both backends charge identical virtual time — the difference measured
here is pure wall-clock interpreter cost: the serial backend walks every
``(p, q)`` rank pair in Python, the vectorized backend executes a
compiled flat plan — one flat move per stage column, no loop over ranks.
"""

from __future__ import annotations

import sys
import time

sys.path.insert(0, __file__.rsplit("/", 1)[0])

import numpy as np  # noqa: E402

from common import print_table  # noqa: E402
from tables import config  # noqa: E402

from repro.apps.charmm import ParallelMD, build_solvated_system  # noqa: E402
from repro.core import (  # noqa: E402
    ChaosRuntime,
    ExecutionContext,
    allocate_ghosts,
    build_lightweight_schedule,
    gather,
    gather_phase,
    run_pipeline,
    scatter_append,
    scatter_op,
    split_by_block,
)
from repro.sim import Machine  # noqa: E402

N_RANKS = 16
BACKENDS = ("serial", "vectorized")


def charmm_env():
    """Table-1 CHARMM state at 16 ranks (schedule already built)."""
    cfg = config()["charmm"]
    system = build_solvated_system(
        n_protein=cfg["n_protein"], n_waters=cfg["n_waters"],
        density=cfg["density"], seed=42,
    )
    md = ParallelMD(system, Machine(N_RANKS), dt=0.002,
                    update_every=cfg["update_every"])
    return md


def lightweight_env(n_particles: int = 200_000, seed: int = 7):
    """DSMC-style migration: particles bucketed to random destinations."""
    rng = np.random.default_rng(seed)
    ctx = ExecutionContext.resolve(Machine(N_RANKS))
    per = n_particles // N_RANKS
    dest = [rng.integers(0, N_RANKS, per) for _ in range(N_RANKS)]
    sched = build_lightweight_schedule(ctx, dest)
    values = [rng.standard_normal((per, 3)) for _ in range(N_RANKS)]
    return ctx, sched, values


def halo_env(n: int = 48_000, n_ref: int = 200_000, n_fields: int = 4,
             seed: int = 3):
    """Four-field halo exchange: one irregular schedule, four ``(n, 3)``
    float64 fields gathered through it (positions, velocities, forces,
    dipoles — any per-element vector data sharing one indirection)."""
    rng = np.random.default_rng(seed)
    machine = Machine(N_RANKS)
    rt = ChaosRuntime(machine)
    tt = rt.irregular_table(rng.integers(0, N_RANKS, n))
    fields = [rt.distribute(rng.standard_normal((n, 3)), tt).local
              for _ in range(n_fields)]
    rt.hash_indirection(tt, split_by_block(rng.integers(0, n, n_ref),
                                           machine), "halo")
    sched = rt.build_schedule(tt, "halo")
    return rt.ctx, sched, fields


def sweep_env(n: int = 30_000, edges: int = 120_000, n_ranks: int = 64,
              seed: int = 5):
    """The ``static_sweep`` e2e workload at quarter size: block-owned
    elements, edges whose endpoints lie within ~1.5 blocks."""
    rng = np.random.default_rng(seed)
    machine = Machine(n_ranks)
    rt = ChaosRuntime(machine)
    tt = rt.irregular_table(np.arange(n) * n_ranks // n)
    ia = np.sort(rng.integers(0, n, edges))
    window = (3 * n) // (2 * n_ranks)
    ib = (ia + rng.integers(-window, window + 1, edges)) % n
    rt.hash_indirection(tt, split_by_block(ia, machine), "ia")
    rt.hash_indirection(tt, split_by_block(ib, machine), "ib")
    sched = rt.build_schedule(tt, rt.stamp_expr(tt, "ia", "ib"))
    arrays = (rt.distribute(rng.standard_normal((n, 3)), tt),
              rt.distribute(rng.standard_normal(n), tt),
              rt.zeros_like_table(tt))
    return rt.ctx, sched, arrays


def time_sweep(ctx, sched, arrays, rounds: int) -> float:
    """Best wall-clock seconds for one sweep step (fresh ghosts each
    gather, as the workload does)."""
    x3, x1, y1 = arrays
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        gather(ctx, sched, x3.local)
        g1 = gather(ctx, sched, x1.local)
        scatter_op(ctx, sched, y1.local, g1, np.add)
        best = min(best, time.perf_counter() - t0)
    return best


def time_halo(ctx, sched, fields, rounds: int) -> dict[str, float]:
    """Best wall-clock seconds for the four-field exchange as one chain
    (``halo_x4``) and as four ``gather`` calls (``halo_x4_calls``); the
    warm-up round also asserts the chain contract — bitwise-identical
    ghosts and exactly equal traffic either way."""
    machine = ctx.machine
    ghosts = [allocate_ghosts(sched, f) for f in fields]

    def calls():
        for f, g in zip(fields, ghosts):
            gather(ctx, sched, f, g)

    def chain():
        run_pipeline(ctx, [gather_phase(sched, f, g)
                           for f, g in zip(fields, ghosts)],
                     category="comm", loop_id="bench:halo")

    t0 = machine.traffic.snapshot()
    calls()
    t1 = machine.traffic.snapshot()
    ref = [[x.copy() for x in g] for g in ghosts]
    for g in ghosts:
        for x in g:
            x.fill(0)
    chain()
    t2 = machine.traffic.snapshot()

    def delta(a, b):
        zero = (0,) * len(next(iter(b["by_tag"].values()), (0, 0)))
        return {"n_messages": b["n_messages"] - a["n_messages"],
                "total_bytes": b["total_bytes"] - a["total_bytes"],
                "by_tag": {t: tuple(np.subtract(v, a["by_tag"].get(t, zero)))
                           for t, v in b["by_tag"].items()}}

    assert delta(t0, t1) == delta(t1, t2), "chain traffic differs"
    for rg, g in zip(ref, ghosts):
        for x, y in zip(rg, g):
            assert np.array_equal(x, y), "chain ghosts differ"
    best = {"halo_x4_calls": float("inf"), "halo_x4": float("inf")}
    for _ in range(rounds):
        t = time.perf_counter()
        calls()
        best["halo_x4_calls"] = min(best["halo_x4_calls"],
                                    time.perf_counter() - t)
        t = time.perf_counter()
        chain()
        best["halo_x4"] = min(best["halo_x4"], time.perf_counter() - t)
    return best


def time_gather_scatter(md, ctx, rounds: int) -> dict[str, float]:
    """Best wall-clock seconds per phase for one gather + scatter_op
    round (``gather`` + ``scatter_op`` are timed inside the same round,
    so the combined gated metric stays one measurement)."""
    sched = md.sched_nb
    ghosts = allocate_ghosts(sched, md.pos)
    force = [np.zeros_like(a) for a in md.pos]
    fghost = allocate_ghosts(sched, md.pos)
    best = {"gather_scatter": float("inf"), "gather": float("inf"),
            "scatter_op": float("inf")}
    for _ in range(rounds):
        t0 = time.perf_counter()
        gather(ctx, sched, md.pos, ghosts)
        t1 = time.perf_counter()
        scatter_op(ctx, sched, force, fghost, np.add)
        t2 = time.perf_counter()
        best["gather"] = min(best["gather"], t1 - t0)
        best["scatter_op"] = min(best["scatter_op"], t2 - t1)
        best["gather_scatter"] = min(best["gather_scatter"], t2 - t0)
    return best


def time_scatter_append(ctx, sched, values, rounds: int) -> float:
    """Best wall-clock seconds for one scatter_append round."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        scatter_append(ctx, sched, values)
        best = min(best, time.perf_counter() - t0)
    return best


def generate_table(rounds: int = 5):
    md = charmm_env()
    ctx, lw_sched, values = lightweight_env()
    fu_ctx0, fu_sched, fu_fields = halo_env()
    sw_ctx0, sw_sched, sw_arrays = sweep_env()
    times: dict[str, dict[str, float]] = {}
    for backend in BACKENDS:
        # one context per backend for all of its timings
        md_ctx = md.ctx.with_backend(backend)
        lw_ctx = ctx.with_backend(backend)
        fu_ctx = fu_ctx0.with_backend(backend)
        sw_ctx = sw_ctx0.with_backend(backend)
        # warm once so plan compilation is excluded from per-round times
        time_gather_scatter(md, md_ctx, 1)
        time_scatter_append(lw_ctx, lw_sched, values, 1)
        phases = time_gather_scatter(md, md_ctx, rounds)
        phases["scatter_append"] = time_scatter_append(
            lw_ctx, lw_sched, values, rounds
        )
        phases.update(time_halo(fu_ctx, fu_sched, fu_fields, rounds))
        time_sweep(sw_ctx, sw_sched, sw_arrays, 1)   # compose once
        phases["sweep_p64"] = time_sweep(sw_ctx, sw_sched, sw_arrays, rounds)
        times[backend] = phases
    columns = ("gather", "scatter_op", "gather_scatter", "scatter_append",
               "halo_x4", "sweep_p64")
    rows = [[backend] + [times[backend][col] * 1e3 for col in columns]
            for backend in BACKENDS]
    # only the round-level metrics carry speedups (the per-phase columns
    # are attribution detail, not gates)
    gated = ("gather_scatter", "scatter_append", "halo_x4", "sweep_p64")
    speedups = {phase: times["serial"][phase]
                / max(times["vectorized"][phase], 1e-12) for phase in gated}
    rows.append(["speedup vectorized (x)", "", ""]
                + [speedups[phase] for phase in gated])
    print_table(
        f"Backend ablation: executor wall-clock at P={N_RANKS}, last "
        f"column P=64 (ms per round, best of {rounds})",
        ["Backend", "gather", "scatter_op", "gather+scatter_op",
         "scatter_append", "halo x4", "sweep P=64"],
        rows,
        float_fmt="{:.3f}",
        json_name="backend_ablation",
        extra={"times_seconds": times, "speedups": speedups,
               "n_ranks": N_RANKS, "rounds": rounds},
    )
    return times, speedups


def test_backend_ablation():
    times, speedups = generate_table()
    # acceptance: compiled plans beat the pair loop by >= 3x on the
    # CHARMM executor phase at 16 simulated ranks and by >= 1.5x on the
    # migration and the four-field halo chain
    assert speedups["gather_scatter"] >= 3.0, speedups
    assert speedups["scatter_append"] >= 1.5, speedups
    assert speedups["halo_x4"] >= 1.5, speedups
    # a rank loop in the flat executor costs this column most
    assert speedups["sweep_p64"] >= 9.0, speedups
    check_chain_not_slower(times)


def check_chain_not_slower(times) -> None:
    """The four-stage chain must not lose to the four calls (it runs
    the same four stages); 10 % covers best-of-N timer noise."""
    v = times["vectorized"]
    assert v["halo_x4"] <= 1.1 * v["halo_x4_calls"], v


if __name__ == "__main__":
    times, speedups = generate_table()
    check_chain_not_slower(times)
    print(f"\nexecutor-phase speedup: {speedups['gather_scatter']:.1f}x, "
          f"migration speedup: {speedups['scatter_append']:.1f}x, "
          f"halo-chain speedup: {speedups['halo_x4']:.1f}x, "
          f"P=64 sweep speedup: {speedups['sweep_p64']:.1f}x")
