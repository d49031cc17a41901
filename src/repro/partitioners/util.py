"""Partition quality metrics and weight helpers."""

from __future__ import annotations

import numpy as np


def part_weights(labels: np.ndarray, n_parts: int,
                 weights: np.ndarray | None = None) -> np.ndarray:
    lab = np.asarray(labels, dtype=np.int64)
    w = np.ones(lab.size) if weights is None else np.asarray(weights, float)
    if w.shape != lab.shape:
        raise ValueError(f"weights shape {w.shape} != labels shape {lab.shape}")
    return np.bincount(lab, weights=w, minlength=n_parts)


def imbalance(labels: np.ndarray, n_parts: int,
              weights: np.ndarray | None = None) -> float:
    """max/mean part weight; 1.0 is perfect balance."""
    pw = part_weights(labels, n_parts, weights)
    mean = pw.mean()
    return float(pw.max() / mean) if mean > 0 else 1.0


def communication_volume(labels: np.ndarray, edges: np.ndarray) -> int:
    """Distinct (element, remote part) pairs across cut edges — the number
    of ghost copies a halo exchange would move (tighter than edge cut)."""
    lab = np.asarray(labels, dtype=np.int64)
    e = np.asarray(edges, dtype=np.int64)
    if e.size == 0:
        return 0
    cut = lab[e[:, 0]] != lab[e[:, 1]]
    ce = e[cut]
    pairs = np.concatenate([
        np.stack([ce[:, 0], lab[ce[:, 1]]], axis=1),
        np.stack([ce[:, 1], lab[ce[:, 0]]], axis=1),
    ])
    return int(np.unique(pairs, axis=0).shape[0])


def degree_weights(n: int, edges: np.ndarray,
                   base: float = 1.0, per_edge: float = 1.0) -> np.ndarray:
    """Per-element computational weights ~ interaction count.

    The paper's CHARMM weighting: "the amount of computation associated
    with an atom depends on the number of atoms with which it interacts".
    """
    e = np.asarray(edges, dtype=np.int64)
    w = np.full(n, float(base))
    if e.size:
        w += per_edge * np.bincount(e.ravel(), minlength=n).astype(float)
    return w


__all__ = [
    "part_weights",
    "imbalance",
    "communication_volume",
    "degree_weights",
]
