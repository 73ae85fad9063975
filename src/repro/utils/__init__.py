"""Small utilities shared across the simulator: statistics, tables, validation."""

from repro.utils.stats import OnlineStats, Histogram
from repro.utils.tables import format_table
from repro.utils.validation import check_positive, check_power_of_two, log2_int

__all__ = [
    "OnlineStats",
    "Histogram",
    "format_table",
    "check_positive",
    "check_power_of_two",
    "log2_int",
]
