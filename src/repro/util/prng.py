"""Counter-based deterministic randomness (vectorized SplitMix64).

DSMC collision outcomes must be *identical* between the sequential oracle
and every parallel configuration, regardless of how particles are ordered
in memory or which rank owns a cell.  Object-style RNGs can't give that
(their streams depend on draw order), so we derive every random quantity
from a pure hash of logical coordinates — (seed, step, particle ids) —
with SplitMix64, fully vectorized over uint64 numpy arrays.

Scalar keys fold in Python integers.  An array key is hashed into a
fresh array that the fold then owns: later keys are XORed and mixed into
it in place (``_mix``, one temporary per mix).  A folded prefix can be
shared by several streams, because a fold never writes to its keys or to
the prefix it continues from.
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
_ULP53 = 2.0 ** -53
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)


def _mix(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer on a uint64 array the caller owns, in
    place, with one temporary (uint64 wraparound is the algorithm);
    returns ``z``."""
    t = np.empty_like(z)
    z += _GAMMA
    z ^= np.right_shift(z, _S30, out=t)
    z *= _M1
    z ^= np.right_shift(z, _S27, out=t)
    z *= _M2
    z ^= np.right_shift(z, _S31, out=t)
    return z


def _splitmix64_int(x: int) -> int:
    """:func:`_mix` on one Python integer (wraps at 64 bits by masking)."""
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
    go through the vectorized :func:`_mix`.
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

    Every array key is hashed into a fresh array, and the accumulator is
    XORed into that array (or into an accumulator this call allocated)
    and mixed in place.  A new array is allocated only when the two
    broadcast to a shape neither has, or when a scalar key continues an
    ``acc`` passed in.  Neither the caller's keys nor an ``acc`` passed
    in (a prefix several streams share) is ever written.
    """
    owned = False  # acc is an array this call allocated
    for i, k in enumerate(keys, start):
        # reading the int64 key as uint64 defines how negative and
        # >= 2**63 keys wrap, for scalars and arrays alike
        arr = np.asarray(k, dtype=np.int64)
        salt = _position_salt(i)
        if arr.ndim == 0:
            h = _splitmix64_int((int(arr) & _MASK64) ^ salt)
        else:
            h = _mix(arr.view(np.uint64) ^ np.uint64(salt))
        if acc is None:
            acc = h
        elif isinstance(acc, int) and isinstance(h, int):
            acc = _splitmix64_int(acc ^ h)
        elif isinstance(h, np.ndarray) and _fits(h, acc):
            h ^= _as_uint64(acc)
            acc = _mix(h)
        elif owned and _fits(acc, h):
            acc ^= _as_uint64(h)
            acc = _mix(acc)
        else:
            acc = _mix(_as_uint64(acc) ^ _as_uint64(h))
        owned = isinstance(acc, np.ndarray)
    return acc


def _fits(into: np.ndarray, other) -> bool:
    """Whether ``into ^= other`` keeps ``into``'s shape."""
    return np.ndim(other) == 0 or into.shape == np.broadcast_shapes(
        into.shape, other.shape)


def _unit(h) -> np.ndarray:
    """Uniforms in [0, 1) from the low 53 bits of a hash (a fold's int
    or uint64 array)."""
    # scaling by 2**-53 is exact, so this is the division by 2**53
    return (_as_uint64(h) & _U53) * _ULP53


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
