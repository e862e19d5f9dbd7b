"""The four ExperimentRunner workloads and one measured repetition of each.

Every workload is a closed loop: one caller in one process issues grid calls
back to back through the public :class:`ExperimentRunner` API, never with
more worker processes than the machine has cores.  A repetition starts from
a fresh, empty cache directory, runs the cold pass (the grid calls that
compute and store), checks every point, then runs the warm pass: serial
cache-hit ``run_*_point`` calls on the same directory, repeated until there
are at least :data:`WARM_SAMPLES` latencies.  ``attempted`` and ``failed``
count cold points: a point fails once, whether it raised, failed its check,
or came back from the cache wrong.

Points sit just above the paper's neat bound, ``c = 1.1 * 2μ/ln(μ/ν)``, at
``n = 1000``, ``Δ = 4`` and ν ∈ {0.2, 0.3, 0.4}, unless a workload says
otherwise.  The workload seed is the runner's ``base_seed``.
"""

from __future__ import annotations

import functools
import math
import os
import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.bounds import neat_bound
from repro.observability import Metrics, use_metrics
from repro.params import parameters_from_c
from repro.simulation import ExperimentRunner

import checks
import stages

ROUNDS = 1000
MINERS = 1000
NEAR_BOUND_NUS = (0.2, 0.3, 0.4)
#: Warm latencies per repetition; p90 then has thirty samples beyond it.
WARM_SAMPLES = 300
#: Every CPU this process may use, read before :func:`pinned` narrows it.
ALLOWED_CPUS = frozenset(os.sched_getaffinity(0))


@contextmanager
def pinned(cpus=frozenset({max(ALLOWED_CPUS)})):
    """Run the block on ``cpus`` only (default: the highest allowed CPU).

    Left to move between CPUs, the process's cache-hit latency jumps between
    regimes a third apart, seconds at a time; on one CPU it holds steady.
    Probe processes started inside the block inherit the pin; a sharded
    grid runs under ``pinned(ALLOWED_CPUS)`` so its workers can spread out.
    """
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, previous)


def near_bound_points(delta: int = 4) -> list:
    return [
        parameters_from_c(c=1.1 * neat_bound(nu), n=MINERS, delta=delta, nu=nu)
        for nu in NEAR_BOUND_NUS
    ]


@dataclass(frozen=True)
class Point:
    params: object
    scenario: Optional[str] = None


class Workload:
    """One named set of grid calls, its checks and its headline error."""

    name = ""
    #: Worker processes for the cold pass; ``None`` runs it serially.
    processes: Optional[int] = None
    #: Trials per point.
    trials = 0

    def groups(self) -> List[List[Point]]:
        """The points of each cold-pass grid call, in call order."""
        return [[Point(params) for params in near_bound_points()]]

    def run_group(self, runner, group: List[Point]) -> list:
        raise NotImplementedError

    def run_warm(self, runner, point: Point):
        raise NotImplementedError

    def check(self, result) -> None:
        raise NotImplementedError

    def relative_error(self, result) -> float:
        """Relative standard error of the point's headline estimate.

        The mean convergence-opportunity rate, unless the workload estimates
        something else.
        """
        return checks.array_relative_error(
            result.convergence_opportunities / result.rounds
        )

    def cells(self, result) -> int:
        """Simulated trial-rounds behind one result."""
        return result.trials * result.rounds


class StreamValidation(Workload):
    """The paper's headline validation, streamed through the chunk loop.

    20k trials x 1000 rounds is 20M cells a point, above the 16M-cell
    default chunk budget, so every point runs more than one chunk.
    """

    name = "stream_validation"
    trials = 20_000
    depths = (2, 4, 8)

    def run_group(self, runner, group):
        return runner.run_streaming_grid(
            [point.params for point in group], self.trials, ROUNDS, depths=self.depths
        )

    def run_warm(self, runner, point):
        return runner.run_streaming_point(
            point.params, self.trials, ROUNDS, depths=self.depths
        )

    def check(self, result):
        checks.check_streamed(result)

    def relative_error(self, result):
        return checks.moments_relative_error(result.convergence_moments)


class AttackScenarios(Workload):
    """Dense round scans for three attacks; nothing is chunked."""

    name = "attack_scenarios"
    trials = 2_000
    scenarios = ("selfish_mining", "private_chain", "partition_attack")

    def groups(self):
        return [
            [Point(params, scenario) for params in near_bound_points()]
            for scenario in self.scenarios
        ]

    def run_group(self, runner, group):
        return runner.run_scenario_grid(
            [point.params for point in group], group[0].scenario, self.trials, ROUNDS
        )

    def run_warm(self, runner, point):
        return runner.run_scenario_point(
            point.params, point.scenario, self.trials, ROUNDS
        )

    def check(self, result):
        checks.check_scenario(result)


class TailEstimates(Workload):
    """Tilted importance sampling with the cross-entropy pilot at depth 10."""

    name = "tail_estimates"
    trials = 10_000
    depth = 10
    pilot_trials = 512

    def run_group(self, runner, group):
        return runner.run_rare_event_grid(
            [point.params for point in group],
            self.trials,
            ROUNDS,
            self.depth,
            method="tilted",
            pilot_trials=self.pilot_trials,
        )

    def run_warm(self, runner, point):
        return runner.run_rare_event_point(
            point.params,
            self.trials,
            ROUNDS,
            self.depth,
            method="tilted",
            pilot_trials=self.pilot_trials,
        )

    def check(self, result):
        checks.check_tail(result)

    def relative_error(self, result):
        return result.relative_error

    def cells(self, result):
        pilot = self.pilot_trials * result.rounds * result.pilot_iterations
        return result.trials * result.rounds + pilot


class SweepSharded(Workload):
    """48 small points sharded over two processes, then read back serially."""

    name = "sweep_sharded"
    processes = min(2, os.cpu_count() or 1)
    trials = 1_000

    def groups(self):
        return [
            [
                Point(parameters_from_c(c=c, n=MINERS, delta=delta, nu=nu))
                for nu in (0.1, 0.2, 0.3, 0.4)
                for c in (2.0, 3.0, 4.0, 6.0, 8.0, 10.0)
                for delta in (2, 4)
            ]
        ]

    def run_group(self, runner, group):
        with pinned(ALLOWED_CPUS):
            return runner.run_grid(
                [point.params for point in group], self.trials, ROUNDS
            )

    def run_warm(self, runner, point):
        return runner.run_point(point.params, self.trials, ROUNDS)

    def check(self, result):
        checks.check_adversary_rate(result)


WORKLOADS = {
    workload.name: workload
    for workload in (StreamValidation, AttackScenarios, TailEstimates, SweepSharded)
}


def build(name: str) -> Workload:
    return WORKLOADS[name]()


class PointClock:
    """A progress sink that keeps the seconds of every finished grid point."""

    def __init__(self):
        self.seconds: List[float] = []

    def emit(self, event: dict) -> None:
        # Streamed points also report each chunk, under a ``stream.*`` label.
        if event["label"].startswith("runner."):
            self.seconds.append(event["duration_s"])


def new_runner(workload: Workload, seed: int, work_dir: str, progress=None):
    """The cold-pass runner on a fresh cache directory: the measured set-up."""
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=work_dir)
    runner = ExperimentRunner(
        base_seed=seed,
        cache_dir=cache_dir,
        processes=workload.processes,
        progress=progress,
    )
    return runner, cache_dir


@contextmanager
def pilot_clock():
    """Collects the seconds of every cross-entropy pilot run in the block."""
    seconds: List[float] = []

    def clock(function):
        @functools.wraps(function)
        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                seconds.append(time.perf_counter() - started)

        return timed

    with stages.patched("repro.simulation.rare_events", "cross_entropy_tilt", clock):
        yield seconds


@dataclass
class Rep:
    """What one repetition measured."""

    cold_s: float = 0.0
    wall_s: float = 0.0
    cells: int = 0
    #: Seconds of each cold point in call order, from the runner's progress
    #: events; empty for a sharded grid, whose points overlap.
    point_s: List[float] = field(default_factory=list)
    #: Seconds of each cross-entropy pilot, one per tail point.
    pilot_s: List[float] = field(default_factory=list)
    relative_errors: List[float] = field(default_factory=list)
    warm_ms: List[float] = field(default_factory=list)
    warm_hits: int = 0
    attempted: int = 0
    failed: int = 0
    peak_workspace_bytes: int = 0
    cache_bytes: int = 0
    cold_counters: Dict[str, float] = field(default_factory=dict)
    results: list = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    @property
    def time_to_1pct_s(self) -> float:
        return time_to_1pct_s(self.cold_s, sum(self.pilot_s), self.relative_errors)

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.failures.append(reason)


def time_to_1pct_s(cold_s: float, pilot_s: float, relative_errors) -> float:
    """Projected seconds to a 1%-relative-error estimate at every point.

    The pilot runs once; the rest of the cold pass scales with the trials
    needed, ``(relative error / 0.01)^2``, averaged over points.
    """
    if not relative_errors:
        return math.nan
    scale = sum(error * error for error in relative_errors) / len(relative_errors)
    return pilot_s + (cold_s - pilot_s) * scale / 1e-4


def _directory_bytes(path: str) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


def run_rep(workload: Workload, seed: int, work_dir: str) -> Rep:
    """Cold pass, checks and warm pass of one repetition.

    A grid call that raises fails all of its points, a point that fails its
    check fails alone; either way the repetition carries on.
    """
    rep = Rep()
    clock = PointClock()
    runner, cache_dir = new_runner(
        workload, seed, work_dir, progress=None if workload.processes else clock
    )
    started = time.perf_counter()
    try:
        with use_metrics(Metrics()) as metrics:
            cold = []
            with pilot_clock() as pilots:
                for group in workload.groups():
                    rep.attempted += len(group)
                    try:
                        results = workload.run_group(runner, group)
                    except Exception as error:  # a raising grid fails its points
                        for _ in group:
                            rep.fail(f"grid call raised {error!r}")
                        continue
                    cold.extend(zip(group, results))
            rep.cold_s = time.perf_counter() - started
            rep.pilot_s = pilots
            rep.point_s = clock.seconds
            snapshot = metrics.snapshot()
            rep.cold_counters = snapshot["counters"]
            rep.peak_workspace_bytes = max(
                runner.workspace.high_water_bytes,
                int(snapshot["gauges"].get("resource.workspace_high_water_bytes", 0)),
            )
            rep.cache_bytes = _directory_bytes(cache_dir)
            checked = []
            for point, result in cold:
                rep.results.append(result)
                rep.cells += workload.cells(result)
                try:
                    workload.check(result)
                except Exception as error:
                    rep.fail(f"{workload.name} {point.params} {point.scenario}: {error}")
                    continue
                rep.relative_errors.append(workload.relative_error(result))
                checked.append((point, checks.result_digest(result)))
            _warm_pass(workload, seed, cache_dir, checked, rep)
    finally:
        runner.workspace.clear()
        shutil.rmtree(cache_dir, ignore_errors=True)
    rep.wall_s = time.perf_counter() - started
    return rep


def _warm_pass(workload, seed, cache_dir, checked, rep) -> None:
    """Serial cache-hit calls over the checked points, in whole sweeps.

    A point whose call raises, misses the cache or returns another result
    than its cold run fails once and leaves the pass.
    """
    runner = ExperimentRunner(base_seed=seed, cache_dir=cache_dir)
    live = list(checked)
    while live and len(rep.warm_ms) < WARM_SAMPLES:
        for entry in list(live):
            point, digest = entry
            hits = runner.cache_hits
            try:
                started = time.perf_counter()
                result = workload.run_warm(runner, point)
                rep.warm_ms.append((time.perf_counter() - started) * 1e3)
                if runner.cache_hits != hits + 1:
                    raise checks.CheckFailed("warm call missed the cache")
                if checks.result_digest(result) != digest:
                    raise checks.CheckFailed("warm result differs from the cold one")
            except Exception as error:
                rep.fail(f"warm {point.params} {point.scenario}: {error}")
                live.remove(entry)
                continue
            rep.warm_hits += 1
