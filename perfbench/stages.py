"""Outside-in stage attribution for the traced run.

The program's own spans leave parts of a point unnamed: the streamed chunk
loop has no span around its draws or its accumulation, and the runner has
none around key hashing or cache I/O.  :func:`stage_wrappers` closes those
gaps from outside ``src/``: for the duration of a traced repetition it
replaces each function in :data:`WRAPPED` with one that opens a span of the
given name through the program's own ``TRACE`` handle, so the times land in
the same tree as the built-in spans (and, for a sharded grid, travel back
from the worker processes with them, since forked workers inherit the
wrappers).  A function a later refactor renames is skipped; its time then
shows up as uncovered rather than breaking the benchmark.

:func:`fold_spans` then reduces a traced repetition's span forest to stage
totals.  A leaf span is a stage under its own name.  Some spans' self time
is a stage by definition (:data:`SELF_STAGES`), such as the copying the
streamed chunk loop does between its draws and kernels.  A pilot span is
one stage with everything under it (:data:`ROLLUP_STAGES`).  What is left,
the runner spans' own time, is what ``trace.coverage`` reports as missing.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Dict, List

from repro.observability import TRACE

#: ``(module, attribute path, span name)`` of every wrapped function.
WRAPPED = (
    ("repro.simulation.streaming", "draw_mining_traces", "stream.draw"),
    ("repro.simulation.streaming", "StreamingAccumulator.update", "stream.accumulate"),
    ("repro.simulation.rare_events", "draw_tilted_traces", "rare.draw"),
    ("repro.simulation.rare_events", "log_likelihood_ratios", "rare.llr"),
    ("repro.simulation.runner", "ExperimentRunner._point_identity_key", "cache.keys"),
    ("repro.simulation.runner", "ExperimentRunner._stale_cache_version", "cache.index"),
    ("repro.simulation.runner", "ExperimentRunner._write_cache_index", "cache.index"),
    *(
        ("repro.simulation.runner", f"ExperimentRunner.{verb}{kind}", f"cache.{stage}")
        for verb, stage in (("_load_cached", "load"), ("_store_cached", "store"))
        for kind in ("", "_scenario", "_rare", "_stream")
    ),
)

#: Spans whose self time (outside their children) is a named stage.
SELF_STAGES = {
    "stream.run": "stream.copy",
    "stream.scenario_run": "stream.copy",
    "scenario.run": "scenario.self",
    "rare.tilted": "rare.crossing",
    "batch.run": "batch.reduce",
}

#: Spans whose whole subtree is one stage.
ROLLUP_STAGES = ("rare.pilot",)


def _timed(function, name):
    @functools.wraps(function)
    def timed(*args, **kwargs):
        with TRACE.span(name):
            return function(*args, **kwargs)

    return timed


@contextmanager
def patched(module_name: str, path: str, make_wrapper):
    """Replace ``module_name.path`` with ``make_wrapper(original)`` for the block.

    A function that is not there is left alone, so a later refactor that
    renames it costs one stage, not the benchmark.
    """
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent, None)
    original = getattr(owner, attribute, None)
    if original is None:
        yield
        return
    setattr(owner, attribute, make_wrapper(original))
    try:
        yield
    finally:
        setattr(owner, attribute, original)


@contextmanager
def stage_wrappers():
    """Install the :data:`WRAPPED` timing wrappers for the block."""
    with ExitStack() as stack:
        for module_name, path, span_name in WRAPPED:
            stack.enter_context(
                patched(module_name, path, functools.partial(_timed, name=span_name))
            )
        yield


def _is_runner_span(name: str) -> bool:
    return name.startswith("runner.run_")


def _union_length(spans) -> float:
    """Wall time covered by possibly overlapping spans.

    Shard spans come from other processes; their ``perf_counter`` starts are
    comparable with the parent's because Linux reads one monotonic clock.
    """
    total = 0.0
    end = None
    for span in sorted(spans, key=lambda span: span.start):
        stop = span.start + span.duration
        if end is None or span.start >= end:
            total += span.duration
            end = stop
        elif stop > end:
            total += stop - end
            end = stop
    return total


@dataclass
class Fold:
    """Stage totals of one traced repetition."""

    stages: Counter = field(default_factory=Counter)
    #: Trial-rounds each stage processed, from the spans' attributes.
    cells: Counter = field(default_factory=Counter)
    runner_s: float = 0.0
    runner_self_s: float = 0.0
    merge_s: float = 0.0
    busy_s: float = 0.0
    capacity_s: float = 0.0

    @property
    def coverage(self) -> float:
        return sum(self.stages.values()) / self.runner_s if self.runner_s else 0.0


def fold_spans(roots, processes: int) -> Fold:
    """Reduce a traced repetition's span forest to stage totals.

    Runner time is every grid's shard and point spans plus the grid's own
    time with no child running (pool start-up, telemetry merge), plus the
    warm pass's root spans.  Named stage time is found anywhere below it.
    """
    fold = Fold()
    for root in roots:
        if _is_runner_span(root.name) and root.name.endswith("_grid"):
            idle = root.duration - _union_length(root.children)
            fold.merge_s += idle
            fold.busy_s += root.child_time
            fold.capacity_s += processes * root.duration
            fold.runner_s += idle + root.child_time
            for child in root.children:
                _attribute(child, fold)
        else:
            fold.runner_s += root.duration
            _attribute(root, fold)
    return fold


def _attribute(span, fold: Fold) -> None:
    name = span.name
    if name in ROLLUP_STAGES or not span.children:
        fold.stages[name] += span.duration
        attributes = span.attributes
        if "trials" in attributes and "rounds" in attributes:
            fold.cells[name] += int(attributes["trials"]) * int(attributes["rounds"])
        return
    if name in SELF_STAGES:
        fold.stages[SELF_STAGES[name]] += span.self_time
        attributes = span.attributes
        fold.cells[name] += int(attributes.get("trials", 0)) * int(
            attributes.get("rounds", 0)
        )
    elif _is_runner_span(name):
        fold.runner_self_s += span.self_time
    for child in span.children:
        _attribute(child, fold)


#: Bytes each kernel reads plus writes per cell under the default ``wide``
#: dtype policy, computed from its inputs and outputs, not measured:
#: the mask reads int64 honest counts and writes a bool mask; the drawdown
#: reads the mask and int64 adversary counts and writes int64 running sums.
MASK_BYTES_PER_CELL = 8 + 1
DEFICITS_BYTES_PER_CELL = 1 + 8 + 8

#: Per-layer metric name -> unit.  ``frac-computed`` marks a fraction whose
#: numerator is the computed byte count above.
LAYER_UNITS = {
    "runner.self_s": "s",
    "runner.keys_s": "s",
    "runner.cache_load_s": "s",
    "runner.cache_store_s": "s",
    "runner.cache_hit_ratio": "fraction",
    "runner.warm_point_ms_p90": "ms",
    "runner.cache_bytes_written": "bytes",
    "runner.shard_busy_frac": "fraction",
    "runner.merge_s": "s",
    "stream.chunks": "count",
    "stream.draw_s": "s",
    "stream.accumulate_s": "s",
    "stream.copy_s": "s",
    "stream.draw_floor_frac": "fraction",
    "batch.mask_s": "s",
    "batch.deficits_s": "s",
    "batch.mask_floor_frac": "frac-computed",
    "batch.deficits_floor_frac": "frac-computed",
    "scenario.draw_s": "s",
    "scenario.scan_s": "s",
    "scenario.mask_s": "s",
    "scenario.deficits_s": "s",
    "scenario.self_s": "s",
    "rare.pilot_s": "s",
    "rare.pilot_iterations": "count",
    "rare.draw_s": "s",
    "rare.llr_s": "s",
    "rare.crossing_s": "s",
    "rare.hit_frac": "fraction",
    "rare.ess_frac": "fraction",
    "workspace.high_water_mb": "MB",
    "workspace.reuse_ratio": "fraction",
    "trace.coverage": "fraction",
    "trace.overhead_frac": "fraction",
    "floor.binomial_cells_per_s": "cells/s",
    "floor.copy_bytes_per_s": "B/s",
    "floor.copy_array_mb": "MB",
    "floor.llc_mb": "MB",
}

#: Stage-time metrics read straight off the fold.
_STAGE_METRICS = {
    "runner.keys_s": ("cache.keys",),
    "runner.cache_load_s": ("cache.load",),
    "runner.cache_store_s": ("cache.store",),
    "stream.draw_s": ("stream.draw",),
    "stream.accumulate_s": ("stream.accumulate",),
    "stream.copy_s": ("stream.copy",),
    "batch.mask_s": ("batch.mask",),
    "batch.deficits_s": ("batch.deficits",),
    "scenario.draw_s": ("scenario.draw", "scenario.draw_delays"),
    "scenario.scan_s": ("scenario.scan", "scenario.scan_partition"),
    "scenario.mask_s": ("scenario.mask",),
    "scenario.deficits_s": ("scenario.deficits",),
    "scenario.self_s": ("scenario.self",),
    "rare.pilot_s": ("rare.pilot",),
    "rare.draw_s": ("rare.draw",),
    "rare.llr_s": ("rare.llr",),
    "rare.crossing_s": ("rare.crossing",),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def rep_layer_metrics(rep, fold: Fold, floors: dict) -> Dict[str, float]:
    """Every per-layer metric of one traced repetition."""
    values = {
        name: sum(fold.stages[stage] for stage in stages)
        for name, stages in _STAGE_METRICS.items()
    }
    counters = rep.cold_counters
    reused = counters.get("workspace.reused", 0)
    allocated = counters.get("workspace.allocated", 0)
    rare = [result for result in rep.results if hasattr(result, "pilot_iterations")]
    rare_trials = sum(result.trials for result in rare)
    copy_floor = floors["copy_bytes_per_s"]
    values.update(
        {
            "runner.self_s": fold.runner_self_s,
            "runner.cache_hit_ratio": _ratio(rep.warm_hits, len(rep.warm_ms)),
            "runner.cache_bytes_written": float(rep.cache_bytes),
            "runner.shard_busy_frac": _ratio(fold.busy_s, fold.capacity_s),
            "runner.merge_s": fold.merge_s,
            "stream.chunks": float(counters.get("engine.stream.chunks", 0)),
            "stream.draw_floor_frac": _ratio(
                _ratio(2 * fold.cells["stream.run"], values["stream.draw_s"]),
                floors["binomial_cells_per_s"],
            ),
            "batch.mask_floor_frac": _ratio(
                _ratio(
                    MASK_BYTES_PER_CELL * fold.cells["batch.mask"],
                    values["batch.mask_s"],
                ),
                copy_floor,
            ),
            "batch.deficits_floor_frac": _ratio(
                _ratio(
                    DEFICITS_BYTES_PER_CELL * fold.cells["batch.deficits"],
                    values["batch.deficits_s"],
                ),
                copy_floor,
            ),
            "rare.pilot_iterations": _ratio(
                sum(result.pilot_iterations for result in rare), len(rare)
            ),
            "rare.hit_frac": _ratio(sum(result.hits for result in rare), rare_trials),
            "rare.ess_frac": _ratio(
                sum(result.effective_sample_size for result in rare), rare_trials
            ),
            "workspace.high_water_mb": rep.peak_workspace_bytes / 1e6,
            "workspace.reuse_ratio": _ratio(reused, reused + allocated),
            "trace.coverage": fold.coverage,
        }
    )
    return values


def layer_metrics(
    plain_reps: list, traced: List[tuple], floors: dict
) -> Dict[str, float]:
    """Medians over traced repetitions, plus overhead and the floors.

    ``traced`` holds ``(rep, fold)`` pairs; the overhead compares their
    median wall time with the untraced repetitions run alternately with
    them in the same process.
    """
    per_rep = [rep_layer_metrics(rep, fold, floors) for rep, fold in traced]
    values = {name: statistics.median(row[name] for row in per_rep) for name in per_rep[0]}
    values["trace.overhead_frac"] = (
        statistics.median(rep.wall_s for rep, _ in traced)
        / statistics.median(rep.wall_s for rep in plain_reps)
        - 1.0
    )
    values["floor.binomial_cells_per_s"] = floors["binomial_cells_per_s"]
    values["floor.copy_bytes_per_s"] = floors["copy_bytes_per_s"]
    values["floor.copy_array_mb"] = floors["copy_array_bytes"] / 1e6
    values["floor.llc_mb"] = floors["llc_bytes"] / 1e6
    return values
