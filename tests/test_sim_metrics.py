"""Unit tests: metrics (load-balance index)."""

import pytest

from repro.sim import load_balance_index


class TestLoadBalanceIndex:
    def test_perfect_balance(self):
        assert load_balance_index([2.0, 2.0, 2.0, 2.0]) == pytest.approx(1.0)

    def test_paper_formula(self):
        # LB = max * n / sum
        assert load_balance_index([1, 1, 1, 2]) == pytest.approx(2 * 4 / 5)

    def test_single_rank(self):
        assert load_balance_index([7.0]) == pytest.approx(1.0)

    def test_zero_work(self):
        assert load_balance_index([0.0, 0.0]) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            load_balance_index([])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            load_balance_index([1.0, -1.0])

    def test_lower_bound_is_one(self):
        assert load_balance_index([3, 1, 2, 2]) >= 1.0
