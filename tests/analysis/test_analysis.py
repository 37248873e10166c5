"""Tests for the analytic model and report rendering."""

import pytest

from repro.analysis.report import Table
from repro.analysis.write_cost import (
    analytic_cleaning_rate,
    analytic_write_cost,
)
from repro.disk.geometry import WREN_IV
from repro.errors import InvalidArgumentError
from repro.units import MIB


class TestWriteCostModel:
    def test_zero_utilization_is_free(self):
        assert analytic_write_cost(0.0) == 1.0

    def test_monotonic_in_utilization(self):
        costs = [analytic_write_cost(u) for u in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert costs == sorted(costs)

    def test_classic_values(self):
        assert analytic_write_cost(0.5) == pytest.approx(4.0)
        assert analytic_write_cost(0.8) == pytest.approx(10.0)

    def test_rejects_full(self):
        with pytest.raises(InvalidArgumentError):
            analytic_write_cost(1.0)

    def test_cleaning_rate_decreases(self):
        rates = [
            analytic_cleaning_rate(u, WREN_IV, 1 * MIB)
            for u in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        assert rates == sorted(rates, reverse=True)

    def test_cleaning_rate_zero_is_infinite(self):
        assert analytic_cleaning_rate(0.0, WREN_IV, 1 * MIB) == float("inf")


class TestReport:
    def test_table_renders_aligned(self):
        table = Table(["name", "value"], title="demo")
        table.row("alpha", 1.5).row("b", 123456)
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "alpha" in text and "123,456" in text
        # All data lines have equal width.
        assert len({len(line) for line in lines[1:]}) <= 2

    def test_row_arity_checked(self):
        table = Table(["a", "b"])
        with pytest.raises(ValueError):
            table.row(1)

    def test_empty_table_renders(self):
        assert "a" in Table(["a"]).render()

    def test_infinity_rendered(self):
        table = Table(["x"])
        table.row(float("inf"))
        assert "inf" in table.render()
