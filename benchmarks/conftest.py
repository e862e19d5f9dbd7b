"""Shared configuration for the benchmark harness.

Each ``bench_*.py`` file regenerates one of the paper's reported artefacts
(Figure 1, Table I, Remark 1, the validation studies) and prints the resulting
rows so the run log doubles as the reproduced table; the ``benchmark`` fixture
additionally records how long the regeneration takes.

Quick mode (``REPRO_BENCH_QUICK=1``, used by the CI smoke steps) shrinks
every workload so the whole suite runs in seconds while still exercising the
speedup gates.  The flag is read in exactly one place —
:func:`quick_mode` below — and every ``bench_*.py`` module sizes its
workloads through :func:`bench_scale`, so a new benchmark cannot quietly
invent its own environment handling.

Perf history rides along the same way: under ``REPRO_BENCH_RECORD=1`` every
gated benchmark calls :func:`record_trajectory` with its measured numbers,
appending one ``repro.bench_trajectory`` record to the unified
``BENCH_trajectory.json`` (or wherever ``REPRO_BENCH_TRAJECTORY`` points).
The flag gating is also in exactly one place — here — so a normal
``pytest benchmarks/`` run never mutates the committed trajectory file.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

#: The environment flag the CI smoke steps set; read at call time so a test
#: harness can toggle it per-invocation.
QUICK_ENV_VAR = "REPRO_BENCH_QUICK"

#: Opt-in flag for appending measured datapoints to ``BENCH_trajectory.json``.
RECORD_ENV_VAR = "REPRO_BENCH_RECORD"


def quick_mode() -> bool:
    """Whether the suite runs in the CI's shrunken quick mode."""
    return os.environ.get(QUICK_ENV_VAR, "0") == "1"


def bench_scale(quick, full):
    """``quick`` under ``REPRO_BENCH_QUICK=1``, ``full`` otherwise.

    The single sizing knob for benchmark workloads (trial counts, rounds,
    graph sizes): ``TRIALS = bench_scale(8, 64)``.
    """
    return quick if quick_mode() else full


def record_trajectory(benchmark: str, metrics: dict) -> None:
    """Append one measured datapoint to the unified perf trajectory.

    A no-op unless ``REPRO_BENCH_RECORD=1``, so ordinary benchmark runs
    leave the committed ``BENCH_trajectory.json`` untouched.  The record is
    stamped with the current package version, host fingerprint, and the
    active quick/full mode; ``metrics`` carries the benchmark-specific
    numbers (speedups, wall times, gates).
    """
    if os.environ.get(RECORD_ENV_VAR, "") != "1":
        return
    from repro.observability import append_trajectory, trajectory_record

    append_trajectory(
        trajectory_record(
            benchmark, "quick" if quick_mode() else "full", metrics
        )
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator so benchmark results are reproducible."""
    return np.random.default_rng(2026)
