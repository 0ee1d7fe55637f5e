"""Benchmark circuits (the synthetic nine-circuit suite) and metrics."""

from .circuits import CircuitSpec, crowded_circuit, generate_circuit
from .metrics import SeriesStats, format_table, mean, reduction_pct
from .suite import (
    CIRCUIT_NAMES,
    CUSTOM_FRACTIONS,
    PAPER_STATS,
    PAPER_TABLE3,
    PAPER_TABLE4,
    SMALL_CIRCUITS,
    load_circuit,
    load_suite,
    spec_for,
)

__all__ = [
    "CircuitSpec",
    "crowded_circuit",
    "generate_circuit",
    "SeriesStats",
    "format_table",
    "mean",
    "reduction_pct",
    "CIRCUIT_NAMES",
    "CUSTOM_FRACTIONS",
    "PAPER_STATS",
    "PAPER_TABLE3",
    "PAPER_TABLE4",
    "SMALL_CIRCUITS",
    "load_circuit",
    "load_suite",
    "spec_for",
]
