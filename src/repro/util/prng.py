"""Counter-based deterministic randomness (vectorized SplitMix64).

DSMC collision outcomes must be *identical* between the sequential oracle
and every parallel configuration, regardless of how particles are ordered
in memory or which rank owns a cell.  Object-style RNGs can't give that
(their streams depend on draw order), so we derive every random quantity
from a pure hash of logical coordinates — (seed, step, particle ids) —
with SplitMix64, fully vectorized over uint64 numpy arrays.
"""

from __future__ import annotations

import functools

import numpy as np

_GAMMA_INT = 0x9E3779B97F4A7C15
_M1_INT = 0xBF58476D1CE4E5B9
_M2_INT = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1

_GAMMA = np.uint64(_GAMMA_INT)
_M1 = np.uint64(_M1_INT)
_M2 = np.uint64(_M2_INT)
_U53 = np.uint64((1 << 53) - 1)


def splitmix64(x: np.ndarray | int) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array (or scalar).

    uint64 wraparound is the algorithm; numpy only warns for 0-d inputs,
    so everything is promoted to at least 1-d and squeezed back.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=np.uint64))
    z = (arr + _GAMMA).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    z = z ^ (z >> np.uint64(31))
    return z if np.ndim(x) else z[0]


def _splitmix64_int(x: int) -> int:
    """``splitmix64`` on one Python integer (wraps at 64 bits by masking)."""
    z = (x + _GAMMA_INT) & _MASK64
    z = ((z ^ (z >> 30)) * _M1_INT) & _MASK64
    z = ((z ^ (z >> 27)) * _M2_INT) & _MASK64
    return z ^ (z >> 31)


@functools.cache
def _position_salt(position: int) -> int:
    """Salt of the key at ``position``, computed once per position."""
    return _splitmix64_int(position + 1)


def _as_uint64(x: int | np.ndarray) -> np.ndarray:
    return np.uint64(x) if isinstance(x, int) else x


def _combine(*keys) -> np.ndarray:
    """Hash-combine several integer keys (arrays broadcast together).

    Each key is salted with its position so the combination is
    order-sensitive: ``hash(a, b) != hash(b, a)``.

    Most keys are scalars (seed, step, stream tags).  Those are folded in
    Python integer arithmetic, which costs a fraction of a numpy call on a
    0-d array; only array keys, and the folds after the first of them,
    go through the vectorized ``splitmix64``.
    """
    if not keys:
        raise ValueError("need at least one key")
    return _as_uint64(_fold(keys))


def _fold(keys, start: int = 0, acc=None):
    """Continue :func:`_combine`'s left-to-right fold: ``acc`` is the fold
    of the first ``start`` keys (``None`` when ``start == 0``) and
    ``keys`` take positions ``start, start + 1, ...``.

    ``_fold(b, len(a), _fold(a))`` equals ``_fold(a + b)`` bit for bit,
    so streams drawn under one shared key prefix fold the prefix once.
    The result is a Python int while every key folded was a scalar.
    """
    for i, k in enumerate(keys, start):
        # the int64 -> uint64 round trip defines how negative and
        # >= 2**63 keys wrap, for scalars and arrays alike
        arr = np.asarray(k, dtype=np.int64).astype(np.uint64)
        if arr.ndim == 0:
            h = _splitmix64_int(int(arr) ^ _position_salt(i))
        else:
            h = splitmix64(arr ^ np.uint64(_position_salt(i)))
        if acc is None:
            acc = h
        elif isinstance(acc, int) and isinstance(h, int):
            acc = _splitmix64_int(acc ^ h)
        else:
            acc = splitmix64(_as_uint64(acc) ^ _as_uint64(h))
    return acc


def _unit(h) -> np.ndarray:
    """Uniforms in [0, 1) from the low 53 bits of a hash (a fold's int
    or uint64 array)."""
    bits = _as_uint64(h) & _U53
    return bits.astype(np.float64) / float(1 << 53)


def hash_uniform(*keys) -> np.ndarray:
    """Deterministic uniforms in [0, 1) from integer keys.

    ``hash_uniform(seed, step, ids)`` broadcasts like numpy: any key may
    be an array.
    """
    return _unit(_combine(*keys))


def hash_permutation_key(*keys) -> np.ndarray:
    """Raw 64-bit hash usable as a sort key for hash-order permutations."""
    return _combine(*keys)


def hash_unit_vector(dim: int, *keys) -> np.ndarray:
    """Deterministic uniformly-distributed unit vectors, shape (n, dim).

    2-D: angle from one uniform.  3-D: Marsaglia-style z + azimuth from
    two independent uniforms.
    """
    if dim == 2:
        theta = 2.0 * np.pi * hash_uniform(*keys, 101)
        return np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    if dim == 3:
        prefix, n = _fold(keys), len(keys)
        z = 2.0 * _unit(_fold((211,), n, prefix)) - 1.0
        phi = 2.0 * np.pi * _unit(_fold((223,), n, prefix))
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)
    raise ValueError(f"unsupported dimension {dim}")
