"""Shared utilities: counter-based PRNG, table formatting."""

from repro.util.prng import (
    hash_permutation_key,
    hash_uniform,
    hash_unit_vector,
)
from repro.util.tables import format_table

__all__ = [
    "hash_uniform",
    "hash_unit_vector",
    "hash_permutation_key",
    "format_table",
]
