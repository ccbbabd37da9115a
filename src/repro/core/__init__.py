"""Scenarios, the DCTA system, experiment sweeps, and capacity planning.

The experiment and system constructors (``DCTASystem``, ``PTExperiment``,
``ScenarioConfig``, ...) are part of the top-level :mod:`repro` facade;
the concrete submodules (``repro.core.experiment`` etc.) are their
implementation.
"""

from repro.core.scenario import Epoch
from repro.core.experiment import EpochOutcome, SweepResult
from repro.core.statistics import AggregatedSweep, aggregate_sweeps, repeat_sweep
from repro.core.planner import bandwidth_needed, capacity_table, processors_needed

__all__ = [
    "Epoch",
    "SweepResult",
    "EpochOutcome",
    "AggregatedSweep",
    "aggregate_sweeps",
    "repeat_sweep",
    "processors_needed",
    "bandwidth_needed",
    "capacity_table",
]
