"""Shared benchmark harness utilities.

``tables.py`` regenerates the paper's Tables 1-7 and gates their cells
exactly through the committed ``BENCH_tables.json``; the ``bench_*.py``
scripts measure the host cost of the Python implementation, and
``check_regression.py`` gates their same-process ratios.

Options, all environment variables:

* ``REPRO_BACKEND`` — the executor backend (``serial`` or
  ``vectorized``), read by :func:`repro.core.default_backend`;
* ``REPRO_BENCH_FULL=1`` — paper-sized workloads instead of the quick
  configs;
* ``REPRO_BENCH_RESULTS_DIR`` — where :func:`print_table` writes its
  JSON (default ``benchmarks/results/``).
"""

from __future__ import annotations

import json
import os
import re
import sys
import time

from repro.core import default_backend
from repro.util import format_table


def full_scale() -> bool:
    """True when paper-sized workloads were requested."""
    return os.environ.get("REPRO_BENCH_FULL", "0") not in ("0", "", "false")


def numpy_default(obj):
    """``json`` fallback: numpy arrays and scalars as Python values."""
    return obj.tolist()


def results_dir() -> str:
    """Directory JSON results are written to."""
    return os.environ.get(
        "REPRO_BENCH_RESULTS_DIR",
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "results"),
    )


def _slug(title: str) -> str:
    s = re.sub(r"[^a-z0-9]+", "_", title.lower()).strip("_")
    return s[:80] or "table"


def print_table(title: str, headers, rows, float_fmt="{:.3f}",
                json_name: str | None = None, extra: dict | None = None
                ) -> str:
    """Print one result table and write it as JSON under
    :func:`results_dir`, stamped with the executor backend, the workload
    scale and the wall-clock time; ``extra`` merges more fields (per-phase
    times, configs) into the payload."""
    out = format_table(headers, rows, title=title, float_fmt=float_fmt)
    print("\n" + out, file=sys.stderr)
    name = json_name or _slug(title)
    payload = {
        "name": name, "backend": default_backend().name,
        "full_scale": full_scale(), "timestamp": time.time(),
        "title": title, "headers": list(headers),
        "rows": [list(r) for r in rows], **(extra or {}),
    }
    os.makedirs(results_dir(), exist_ok=True)
    with open(os.path.join(results_dir(), f"{_slug(name)}.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True,
                  default=numpy_default)
    return out
