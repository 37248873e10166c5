"""Analytic models and report formatting."""

from repro.analysis.report import Table
from repro.analysis.write_cost import (
    analytic_cleaning_rate,
    analytic_write_cost,
)

__all__ = [
    "Table",
    "analytic_write_cost",
    "analytic_cleaning_rate",
]
