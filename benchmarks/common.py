"""Shared benchmark harness utilities.

Every ``bench_table*.py`` regenerates one table of the paper's evaluation.
The simulated iPSC/860 reports *virtual* times with the paper's shape;
pytest-benchmark additionally measures the wall-clock cost of the Python
implementation for the headline kernel of each table.

Workloads are scaled down from the paper's (fewer time-steps, and for
CHARMM a smaller atom count) so the full suite runs in minutes; the
``*_config`` functions below state each scaling next to the paper's size.
Set ``REPRO_BENCH_FULL=1`` for paper-sized runs.

Executor backend selection: pass ``--backend=NAME`` to any table script
(or set ``REPRO_BENCH_BACKEND``) to run its data transport through a
specific executor backend (``serial`` or ``vectorized``); importing
this module applies the selection process-wide, so every bench script
honours it uniformly.

Every table printed through :func:`print_table` is also written as
machine-readable JSON (rows, headers, backend name, wall-clock timestamp)
under ``benchmarks/results/`` — override with ``REPRO_BENCH_RESULTS_DIR``,
disable with ``REPRO_BENCH_JSON=0`` — so successive PRs can track the
perf trajectory without scraping stderr.
"""

from __future__ import annotations

import json
import os
import re
import sys
import time

import numpy as np

from repro.core import (
    ExecutionContext,
    available_backends,
    default_backend,
    set_default_backend,
)
from repro.util import format_table

#: processor counts used in the paper's CHARMM tables
CHARMM_PROCS = (16, 32, 64, 128)
#: processor counts in Table 5 (3-D DSMC)
DSMC3D_PROCS = (8, 16, 32, 64, 128)
#: processor counts in Table 7 (compiler DSMC)
COMPILER_DSMC_PROCS = (4, 8, 16, 32)


def full_scale() -> bool:
    """True when paper-sized workloads were requested."""
    return os.environ.get("REPRO_BENCH_FULL", "0") not in ("0", "", "false")


# ---------------------------------------------------------------------
# executor backend selection
# ---------------------------------------------------------------------
def bench_backend() -> str | None:
    """Backend requested for this benchmark run, or ``None`` for default.

    ``--backend=NAME`` on the command line wins over the
    ``REPRO_BENCH_BACKEND`` environment variable.
    """
    for arg in sys.argv[1:]:
        if arg.startswith("--backend="):
            return arg.split("=", 1)[1]
    return os.environ.get("REPRO_BENCH_BACKEND") or None


def apply_bench_backend() -> str:
    """Install the requested backend as the process default; returns name."""
    name = bench_backend()
    if name is not None:
        if name not in available_backends():
            raise SystemExit(
                f"unknown backend {name!r}; available: {available_backends()}"
            )
        set_default_backend(name)
    return default_backend().name


# every bench script imports this module first, so a --backend=NAME flag
# (or REPRO_BENCH_BACKEND) takes effect for all of them uniformly
apply_bench_backend()


#: one ExecutionContext per machine for the whole benchmark process —
#: helpers share it instead of re-resolving the backend per call (the
#: dict also keeps each machine alive, so ids cannot be recycled)
_BENCH_CTX: dict[int, ExecutionContext] = {}


def bench_context(machine) -> ExecutionContext:
    """The shared per-run :class:`ExecutionContext` for ``machine``.

    Resolved once with the backend selected by ``--backend=NAME`` /
    ``REPRO_BENCH_BACKEND`` (installed process-wide above) and reused by
    every helper touching the same machine, so all phases of one
    benchmark run through one context — exactly how applications hold
    it.
    """
    ctx = _BENCH_CTX.get(id(machine))
    if ctx is None:
        ctx = ExecutionContext.resolve(machine)
        _BENCH_CTX[id(machine)] = ctx
    return ctx


# ---------------------------------------------------------------------
# workload configurations
# ---------------------------------------------------------------------
def charmm_config() -> dict:
    """Mini-CHARMM workload parameters.

    Paper: MbCO + 3830 waters = 14026 atoms, 1000 steps, cutoff list
    updated 40 times (update_every = 25).  Quick mode keeps the paper's
    atom count (the compute/communication balance depends on it) but runs
    few steps at a density that gives ~60 partners per atom.
    """
    if full_scale():
        return dict(n_protein=2536, n_waters=3830, density=2.5,
                    n_steps=1000, update_every=25)
    return dict(n_protein=2536, n_waters=3830, density=2.5,
                n_steps=4, update_every=2)


def dsmc2d_config() -> dict:
    """2-D DSMC workload (paper Table 4: 48x48 and 96x96 cells)."""
    if full_scale():
        return dict(shapes=((48, 48), (96, 96)), n_steps=100,
                    n_initial=40000, inflow=400)
    return dict(shapes=((16, 16), (32, 32)), n_steps=12,
                n_initial=3000, inflow=80)


def dsmc3d_config() -> dict:
    """3-D DSMC workload (paper Table 5: 1000 steps, remap every 40).

    Quick mode starts from the *developed plume* profile (dense upstream)
    so the short run exercises the same load-imbalance regime a 1000-step
    simulation reaches.
    """
    if full_scale():
        return dict(shape=(16, 16, 16), n_steps=1000, remap_every=40,
                    n_initial=60000, inflow=600, dt=0.25)
    return dict(shape=(12, 6, 6), n_steps=24, remap_every=6,
                n_initial=20000, inflow=800, dt=0.25)


def compiler_charmm_config() -> dict:
    """Table 6 workload (paper: 100 iterations, redistributed every 25)."""
    if full_scale():
        return dict(n_atoms=14026, iters=100, redist_every=25)
    return dict(n_atoms=2000, iters=16, redist_every=4)


def compiler_dsmc_config() -> dict:
    """Table 7 workload (paper: 32x32 cells, 5K molecules, 50 steps)."""
    if full_scale():
        return dict(shape=(32, 32), n_steps=50, n_initial=5000, inflow=100)
    return dict(shape=(16, 16), n_steps=12, n_initial=1500, inflow=50)


# ---------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------
def _jsonable(obj):
    """Recursively convert numpy scalars/arrays for json.dump."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def results_dir() -> str:
    """Directory JSON results are written to."""
    return os.environ.get(
        "REPRO_BENCH_RESULTS_DIR",
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "results"),
    )


def _slug(title: str) -> str:
    s = re.sub(r"[^a-z0-9]+", "_", title.lower()).strip("_")
    return s[:80] or "table"


def emit_json(name: str, payload: dict) -> str | None:
    """Write one machine-readable result file; returns its path.

    Disabled (returns ``None``) when ``REPRO_BENCH_JSON=0``.  Every
    payload is stamped with the active executor backend, workload scale,
    and wall-clock time so result files are self-describing.
    """
    if os.environ.get("REPRO_BENCH_JSON", "1") in ("0", "false"):
        return None
    payload = dict(payload)
    payload.setdefault("name", name)
    payload.setdefault("backend", default_backend().name)
    payload.setdefault("full_scale", full_scale())
    payload.setdefault("timestamp", time.time())
    out_dir = results_dir()
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{_slug(name)}.json")
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
    return path


def print_table(title: str, headers, rows, float_fmt="{:.3f}",
                json_name: str | None = None, extra: dict | None = None
                ) -> str:
    """Print one result table and persist it as JSON (see :func:`emit_json`).

    ``extra`` merges additional machine-readable fields (per-phase times,
    configs, wall-clock measurements) into the JSON payload.
    """
    out = format_table(headers, rows, title=title, float_fmt=float_fmt)
    print("\n" + out, file=sys.stderr)
    payload = {
        "title": title,
        "headers": list(headers),
        "rows": [list(r) for r in rows],
    }
    if extra:
        payload.update(extra)
    emit_json(json_name or _slug(title), payload)
    return out
