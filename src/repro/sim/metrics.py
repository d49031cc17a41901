"""Performance metrics used throughout the paper's evaluation.

The load-balance index is the paper's own formula (Section 4.1.1):

    LB = max_i(computation time of processor i) * n / sum_i(computation time)

LB == 1.0 is perfect balance; the paper reports 1.03-1.08 for CHARMM.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def load_balance_index(computation_times: Sequence[float]) -> float:
    """The paper's load-balance index over per-rank computation times."""
    times = np.asarray(computation_times, dtype=float)
    if times.size == 0:
        raise ValueError("need at least one rank's time")
    if np.any(times < 0):
        raise ValueError("negative computation time")
    total = times.sum()
    if total == 0:
        return 1.0
    return float(times.max() * times.size / total)
