"""Chaos-as-a-service: the multi-tenant program server end to end.

Spins up a :class:`~repro.serve.server.ProgramServer` and submits a
mixed fleet of tenants — a mini-Fortran-D program, a CHARMM MD
trajectory, a DSMC flow, one tenant that crashes mid-run, and one that
blows its deadline — then shows the soft-failure contract in action:
every tenant gets a recorded verdict, the failures never touch their
neighbours (the survivors' results are bitwise-identical to solo
runs), and the graceful drain rejects late submissions.

Run:  python examples/serve_demo.py
"""

import asyncio

import numpy as np

from repro.apps import CharmmJob, DsmcJob
from repro.serve import (
    CallableJob,
    ProgramJob,
    ProgramServer,
    ServerClosed,
    ServerConfig,
    run_job_inline,
)

N = 40
N_EDGES = 160

FIGURE8_SRC = f"""
      REAL x({N}), y({N})
      INTEGER ia({N_EDGES}), ib({N_EDGES})
C$ DECOMPOSITION reg({N})
C$ DISTRIBUTE reg(BLOCK)
C$ ALIGN x, y WITH reg
      FORALL i = 1, {N_EDGES}
        REDUCE(SUM, x(ia(i)), y(ib(i)))
      END DO
"""


def figure8_spec(seed: int) -> ProgramJob:
    rng = np.random.default_rng(seed)
    return ProgramJob(
        name="figure8", tenant="lang", seed=seed,
        source=FIGURE8_SRC,
        bindings=dict(
            x=rng.standard_normal(N), y=rng.standard_normal(N),
            ia=rng.integers(1, N + 1, N_EDGES),
            ib=rng.integers(1, N + 1, N_EDGES),
        ),
        fetch=("x",),
    )


def crash(ctx, control):
    raise RuntimeError("tenant bug: divided the universe by zero")


def overrun(ctx, control):
    control.sleep(60)  # wakes early when the server abandons the job


async def main() -> None:
    config = ServerConfig(max_concurrency=3, per_tenant=1,
                          queue_limit=8, default_timeout=30.0)
    fleet = [
        figure8_spec(seed=42),
        CharmmJob(tenant="md", seed=7, n_atoms=120, steps=3),
        DsmcJob(tenant="flow", seed=11, n_initial=300, steps=3),
        CallableJob(fn=crash, name="buggy", tenant="chaos"),
        CallableJob(fn=overrun, name="overdue", tenant="late",
                    timeout=0.5),
    ]

    async with ProgramServer(config) as server:
        handles = [await server.submit(spec) for spec in fleet]
        print(f"admitted {len(handles)} tenants; server: {server}\n")

        for handle in handles:
            verdict = await handle.wait()
            print(verdict.summary())

        # the crash and the timeout never touched their neighbours:
        # survivors match solo runs of the same specs bitwise
        print("\nisolation check (served vs solo):")
        for spec, handle in zip(fleet, handles):
            v = handle.verdict
            if not v.ok:
                continue
            solo = run_job_inline(spec)
            same = all(
                np.array_equal(v.result[k], solo[k]) for k in solo
            )
            print(f"  {v.tenant}/{v.name}: bitwise identical = {same}")

        await server.drain()
        print(f"\ndrained; stats: {server.stats()}")
        try:
            await server.submit(figure8_spec(seed=1))
        except ServerClosed as exc:
            print(f"post-drain submit rejected: {exc}")


if __name__ == "__main__":
    asyncio.run(main())
