"""Tests for repro.core.types."""

import pytest

from repro.core.types import (
    BINARY_VALUES,
    INPUT_SOURCE,
    TRANSMITTER,
    check_population,
)


class TestCheckPopulation:
    def test_accepts_valid_configurations(self):
        check_population(1, 0)
        check_population(4, 1)
        check_population(100, 99)

    def test_rejects_zero_processors(self):
        with pytest.raises(ValueError, match="at least one"):
            check_population(0, 0)

    def test_rejects_negative_fault_bound(self):
        with pytest.raises(ValueError, match="non-negative"):
            check_population(5, -1)

    def test_rejects_fault_bound_equal_to_n(self):
        with pytest.raises(ValueError, match="smaller than"):
            check_population(5, 5)

    def test_rejects_fault_bound_above_n(self):
        with pytest.raises(ValueError):
            check_population(3, 7)


class TestConstants:
    def test_transmitter_is_processor_zero(self):
        assert TRANSMITTER == 0

    def test_input_source_is_not_a_processor(self):
        assert INPUT_SOURCE < 0

    def test_binary_value_domain(self):
        assert BINARY_VALUES == (0, 1)
