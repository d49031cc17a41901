"""Unit tests: counter-based PRNG and table formatting."""

import numpy as np
import pytest

from repro.util import (
    format_table,
    hash_permutation_key,
    hash_uniform,
    hash_unit_vector,
)
from repro.util.prng import _mix, _splitmix64_int


def _splitmix64(n: int) -> np.ndarray:
    """The SplitMix64 finalizer of ``0 .. n-1`` on a fresh array."""
    return _mix(np.arange(n, dtype=np.uint64))


class TestSplitMix:
    def test_deterministic(self):
        assert _splitmix64_int(42) == _splitmix64_int(42)
        assert np.array_equal(_splitmix64(10), _splitmix64(10))
        assert np.array_equal(_splitmix64(10),
                              splitmix64(np.arange(10, dtype=np.uint64)))

    def test_scalar_vs_array_consistent(self):
        """The Python-int path folds scalar keys; it must be the array
        path bit for bit."""
        arr = _splitmix64(1000)
        assert [_splitmix64_int(k) for k in (0, 7, 999)] \
            == arr[[0, 7, 999]].tolist()

    def test_different_inputs_differ(self):
        assert np.unique(_splitmix64(1000)).size == 1000


class TestHashUniform:
    def test_range(self):
        u = hash_uniform(1, np.arange(10000))
        assert np.all(u >= 0) and np.all(u < 1)

    def test_roughly_uniform(self):
        u = hash_uniform(0, np.arange(50000))
        hist, _ = np.histogram(u, bins=10, range=(0, 1))
        assert hist.min() > 4000 and hist.max() < 6000

    def test_key_order_matters(self):
        assert hash_uniform(1, 2) != hash_uniform(2, 1)

    def test_broadcasting(self):
        u = hash_uniform(5, np.arange(4), 7)
        assert u.shape == (4,)

    def test_no_keys_rejected(self):
        with pytest.raises(ValueError):
            hash_uniform()

    def test_mean_near_half(self):
        u = hash_uniform(3, np.arange(100000))
        assert abs(u.mean() - 0.5) < 0.01


def splitmix64(x):
    """Reference SplitMix64 over uint64 values (a scalar gives a scalar),
    written out from the published constants."""
    z = np.array(x, dtype=np.uint64, ndmin=1) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return z if np.ndim(x) else z[0]


def _reference_combine(*keys):
    """The all-numpy ``_combine`` that preceded the scalar-folding one."""
    acc = None
    for i, k in enumerate(keys):
        arr = np.asarray(k, dtype=np.int64).astype(np.uint64)
        h = splitmix64(arr ^ splitmix64(np.uint64(i + 1)))
        acc = h if acc is None else splitmix64(acc ^ h)
    return acc


def _reference_uniform(*keys):
    bits = _reference_combine(*keys) & np.uint64((1 << 53) - 1)
    return bits.astype(np.float64) / float(1 << 53)


_IDS = np.arange(200, dtype=np.int64) * 7 - 300
_HUGE = np.array([2**63, 2**64 - 1, 5], dtype=np.uint64)
_IDS32 = _IDS.astype(np.int32)
_HIGH = np.arange(2**63, 2**63 + 40, 3, dtype=np.uint64)  # all >= 2**63
_NEG = -np.arange(1, 60, dtype=np.int64) * 2**40             # all < 0


class TestCombineMatchesReference:
    """Folding scalar keys in Python must not change a single bit."""

    @pytest.mark.parametrize("keys", [
        (3,), (3, 4, 5), (-1, 0, -7),                  # scalar-only
        (np.uint64(2**63 + 5), 2), (np.int64(-9), np.int32(4)),
        (np.array(5), 2),                              # 0-d array
        (_IDS,), (_IDS, 3, 101), (np.array([5]), 2),   # array-first
        (3, _IDS), (1, 2, _IDS),                       # array-last
        (1, 2, _IDS, 101),                             # scalars both sides
        (_IDS, _IDS[::-1].copy()), (7, _IDS, -2, _IDS * 3, 9),  # two-array
        (_IDS[:5, None], 4, _IDS[None, :7]),           # broadcasting
        (_HUGE, 1), (-5, _HUGE, 2**63 - 1),            # >= 2**63, negative
        (0,) * 12 + (_IDS,),                           # many positions
        (_IDS32,), (9, _IDS32, 101), (_IDS32, _IDS),   # int32 arrays
        (_HIGH,), (4, _HIGH, 2), (_HIGH, _HIGH[::-1].copy()),
        (_NEG,), (_NEG, 8, -9), (3, _NEG, _NEG[::-1].copy()),
        (np.array([-1, -2**63, 2**63 - 1]), 6),        # int64 extremes
    ])
    def test_bit_identical(self, keys):
        from repro.util.prng import _combine

        got, ref = _combine(*keys), _reference_combine(*keys)
        assert type(got) is type(ref)
        assert np.shape(got) == np.shape(ref)
        assert np.asarray(got).dtype == np.uint64
        assert np.array_equal(got, ref)
        assert np.array_equal(hash_permutation_key(*keys), ref)
        bits = ref & np.uint64((1 << 53) - 1)
        assert np.array_equal(hash_uniform(*keys),
                              bits.astype(np.float64) / float(1 << 53))

    @pytest.mark.parametrize("keys", [
        (3, 4, 5), (_IDS, 3, 101), (1, 2, _IDS, 101),
        (7, _IDS, -2, _IDS * 3, 9), (-5, _HUGE, 2**63 - 1),
    ])
    def test_prefix_fold_continues_bit_identically(self, keys):
        """Folding a prefix once and continuing from it, at every cut,
        is the one-shot fold."""
        from repro.util.prng import _fold

        ref = _reference_combine(*keys)
        for cut in range(len(keys) + 1):
            got = _fold(keys[cut:], cut, _fold(keys[:cut]))
            assert np.array_equal(np.asarray(got, dtype=np.uint64), ref)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_velocities_use_the_same_streams(self, dim):
        from repro.apps.dsmc import FlowConfig
        from repro.apps.dsmc.particles import _uniforms, _velocities

        flow = FlowConfig(seed=5)
        uniform = _reference_uniform
        expect = np.empty((_IDS.size, dim))
        for k in range(dim):
            u1 = np.maximum(uniform(flow.seed, _IDS, 1000 + k, 7), 1e-12)
            u2 = uniform(flow.seed, _IDS, 1000 + k, 11)
            expect[:, k] = flow.thermal_speed * (
                np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2))
        drifting = uniform(flow.seed, _IDS, 17) < flow.drift_fraction
        expect[:, 0] += np.where(drifting, flow.drift_speed, 0.0)
        got = _velocities(_uniforms(_IDS, flow), _IDS.size, dim, flow)
        assert np.array_equal(got, expect)

    @pytest.mark.parametrize("keys", [(4, 9), (4, _IDS), (_IDS, 9, 2)])
    def test_unit_vectors_use_the_same_streams(self, keys):
        uniform = _reference_uniform
        theta = 2.0 * np.pi * uniform(*keys, 101)
        assert np.array_equal(
            hash_unit_vector(2, *keys),
            np.stack([np.cos(theta), np.sin(theta)], axis=-1))
        z = 2.0 * uniform(*keys, 211) - 1.0
        phi = 2.0 * np.pi * uniform(*keys, 223)
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        assert np.array_equal(
            hash_unit_vector(3, *keys),
            np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1))

    @pytest.mark.parametrize("ids", [_IDS, _IDS32, _HIGH, _NEG])
    def test_shared_prefix_is_not_written(self, ids):
        """Two streams drawn from one folded prefix: the prefix and the
        caller's ids are left as they were, and each stream is the
        from-scratch fold."""
        from repro.util.prng import _combine, _fold

        ids_before = ids.copy()
        prefix = _fold((5, ids))
        prefix_before = prefix.copy()
        streams = [_fold((31, 7), 2, prefix), _fold((3001, 7), 2, prefix),
                   _fold((ids, 1), 2, prefix)]
        assert np.array_equal(ids, ids_before) and ids.dtype == ids_before.dtype
        assert np.array_equal(prefix, prefix_before)
        for got, tags in zip(streams, [(31, 7), (3001, 7), (ids, 1)]):
            assert np.array_equal(got, _combine(5, ids, *tags))
            assert np.array_equal(got, _reference_combine(5, ids, *tags))
            assert not np.shares_memory(got, prefix)
            assert not np.shares_memory(got, ids)

    def test_broadcast_fold_leaves_its_keys_alone(self):
        """A fold whose keys broadcast to a larger shape allocates its
        result instead of writing into either key's hash."""
        from repro.util.prng import _combine, _fold

        col, row = _IDS[:5, None].copy(), _IDS[None, :7].copy()
        col_prefix = _fold((4, col))
        before = col_prefix.copy()
        got = _fold((row,), 2, col_prefix)
        assert got.shape == (5, 7)
        assert np.array_equal(col_prefix, before)
        assert np.array_equal(got, _combine(4, col, row))
        assert np.array_equal(col, _IDS[:5, None])
        assert np.array_equal(row, _IDS[None, :7])

    def test_python_int_beyond_int64_still_rejected(self):
        with pytest.raises(OverflowError):
            hash_uniform(2**63, _IDS)


class TestHashUnitVector:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_unit_length(self, dim):
        v = hash_unit_vector(dim, 0, np.arange(1000))
        norms = np.linalg.norm(v, axis=-1)
        assert np.allclose(norms, 1.0)

    def test_isotropic_mean_near_zero(self):
        v = hash_unit_vector(3, 1, np.arange(50000))
        assert np.all(np.abs(v.mean(axis=0)) < 0.02)

    def test_bad_dim_rejected(self):
        with pytest.raises(ValueError):
            hash_unit_vector(4, 0, 1)

    def test_permutation_key_shape(self):
        k = hash_permutation_key(0, np.arange(5))
        assert k.shape == (5,) and k.dtype == np.uint64


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["a", "bbb"], [[1, 2.5], [30, 4.25]],
                           title="T", float_fmt="{:.2f}")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "2.50" in out and "4.25" in out
        # all rows same width
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1

    def test_row_length_checked(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_strings_pass_through(self):
        out = format_table(["name"], [["chain"]])
        assert "chain" in out
