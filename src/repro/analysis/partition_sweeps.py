"""Partition and churn studies: consistency-violation depth under dynamics.

The paper's Lemma 1 prices a depth-``d`` consistency threat as a window of
rounds in which adversarial blocks outnumber convergence opportunities by
``d`` (the batch engine's ``worst_deficits``).  Under a static Δ-bounded
network that deficit is almost always small; a partition or eclipse window
suppresses every convergence opportunity inside it while the adversary
keeps mining, so the deficit — the analytical violation depth — grows with
the window.  This module measures that growth on top of the dynamics
subsystem (:mod:`repro.simulation.dynamics` via
:meth:`~repro.simulation.runner.ExperimentRunner.run_dynamics_point`):

* :func:`partition_depth_sweep` — one row per partition duration: the mean
  and maximum worst-window deficit (with 95% CIs), the Lemma 1 fraction and
  the convergence-opportunity rate against the unpartitioned Eq. (44)
  prediction.  At a fixed seed the full-eclipse schedule consumes no
  entropy, so the mining traces are *identical* across durations and the
  depth column is deterministically non-decreasing in the duration — the
  subsystem's acceptance invariant.
* :func:`churn_tightness_table` — the churn analogue of the Δ-tightness
  sweep: peers periodically leave and rejoin a gossip graph, and each row
  compares the empirical convergence-opportunity rate under that churn
  level against the fixed-Δ prediction (tightness ratio, 95% CI).
* :func:`equivocation_comparison_sweep` — equivocation versus the
  single-chain partition attack on *shared* partial-cut traces: one row
  per duration with both strategies' displaced depths and the equivocation
  advantage, priced by the two-component scan.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import AnalysisError, SimulationError
from ..params import parameters_from_c
from ..simulation.batch import (
    BatchSimulation,
    _confidence_interval,
    draw_mining_traces,
)
from ..simulation.dynamics import (
    ChurnEvent,
    DynamicsSchedule,
    PartitionEvent,
    PartitionScenario,
    TimeVaryingDelayModel,
)
from ..simulation.runner import ExperimentRunner
from ..simulation.scenarios import ScenarioSimulation
from ..simulation.topology import PeerGraphTopology

__all__ = [
    "partition_depth_sweep",
    "churn_tightness_table",
    "equivocation_comparison_sweep",
]


def _check_shape(trials: int, rounds: int) -> None:
    if trials <= 0:
        raise AnalysisError("trials must be positive")
    if rounds <= 0:
        raise AnalysisError("rounds must be positive")


def partition_depth_sweep(
    durations: Sequence[int] = (0, 100, 200, 400),
    *,
    partition_start: int = 1_000,
    c: float = 1.0,
    n: int = 500,
    delta: int = 3,
    nu: float = 0.25,
    trials: int = 16,
    rounds: int = 4_000,
    seed: int = 0,
    topology: Optional[PeerGraphTopology] = None,
    share_traces: bool = True,
    runner: Optional[ExperimentRunner] = None,
) -> List[Dict[str, object]]:
    """Violation-depth versus partition-duration curves (95% CIs).

    For each duration the peer network is cut over
    ``[partition_start, partition_start + duration)`` (the full eclipse
    without a ``topology``, a genuine graph partition with one) and the
    passive batch engine measures the worst windowed
    ``adversarial blocks - convergence opportunities`` deficit per trial —
    the depth of the consistency threat Lemma 1 would have to survive.
    Rows also carry the convergence-opportunity rate with its CI and the
    unpartitioned Eq. (44) prediction, quantifying how much of the paper's
    margin the window consumes.

    With ``share_traces=True`` (the default) every duration is evaluated on
    the *same* seeded mining traces and block-origin stream — the
    common-random-numbers design for comparing durations.  A longer window
    then delays every block at least as much as a shorter one, the
    opportunity mask shrinks pointwise, and the violation-depth column is
    deterministically non-decreasing in the duration at any fixed seed.
    ``share_traces=False`` instead routes each duration through
    :meth:`~repro.simulation.runner.ExperimentRunner.run_dynamics_point`
    (independent per-schedule seed streams, on-disk caching).
    """
    _check_shape(trials, rounds)
    if not durations:
        raise AnalysisError("at least one partition duration is required")
    if any(int(duration) < 0 for duration in durations):
        raise AnalysisError("partition durations must be non-negative")
    if not (0 <= int(partition_start) < rounds):
        raise AnalysisError(
            f"partition_start must lie inside the run [0, {rounds}), got "
            f"{partition_start!r}"
        )
    runner = runner if runner is not None else ExperimentRunner(base_seed=seed)
    params = parameters_from_c(c=float(c), n=n, delta=int(delta), nu=float(nu))
    if share_traces:
        trace_rng = np.random.default_rng(
            runner.seed_sequence_for(params, trials, rounds)
        )
        honest, adversary = draw_mining_traces(
            params, trials, rounds, trace_rng, runner.draw_mode
        )
        origin_entropy = runner.seed_sequence_for(params, trials, rounds).entropy
    rows: List[Dict[str, object]] = []
    for duration in durations:
        schedule = DynamicsSchedule(
            [PartitionEvent(int(partition_start), int(duration))]
        )
        if share_traces:
            engine = BatchSimulation(
                params,
                rng=0,
                draw_mode=runner.draw_mode,
                delay_model=TimeVaryingDelayModel(schedule, topology=topology),
            )
            # A fresh generator from the same per-sweep entropy gives every
            # duration the identical block-origin stream.
            origins = np.random.default_rng(
                np.random.SeedSequence([*np.atleast_1d(origin_entropy), 1])
            )
            result = engine.run_traces(
                honest, adversary, **engine._third_draw(honest, origins)
            )
        else:
            result = runner.run_dynamics_point(
                params, trials, rounds, schedule, topology=topology
            )
        depth_ci = _confidence_interval(result.worst_deficits)
        rate_ci = result.convergence_rate_ci95
        rows.append(
            {
                "partition_start": int(partition_start),
                "partition_duration": int(duration),
                "c": params.c,
                "nu": params.nu,
                "delta": params.delta,
                "mean_violation_depth": float(result.worst_deficits.mean()),
                "violation_depth_ci95_low": depth_ci[0],
                "violation_depth_ci95_high": depth_ci[1],
                "max_violation_depth": int(result.worst_deficits.max()),
                "lemma1_fraction": result.lemma1_fraction,
                "mean_convergence_rate": result.mean_convergence_rate,
                "convergence_rate_ci95_low": rate_ci[0],
                "convergence_rate_ci95_high": rate_ci[1],
                "predicted_rate_unpartitioned": (
                    params.convergence_opportunity_probability
                ),
                "theoretical_adversary_rate": params.beta,
            }
        )
    return rows


def equivocation_comparison_sweep(
    durations: Sequence[int] = (0, 100, 200, 400),
    *,
    partition_start: int = 1_000,
    cut_fraction: float = 0.5,
    target_depth: int = 6,
    c: float = 1.0,
    n: int = 500,
    delta: int = 3,
    nu: float = 0.25,
    trials: int = 16,
    rounds: int = 4_000,
    seed: int = 0,
    runner: Optional[ExperimentRunner] = None,
) -> List[Dict[str, object]]:
    """Equivocation vs single-chain partition attacks on shared traces.

    Both strategies attack the same partial cut — the network splits into a
    majority and a minority holding ``cut_fraction`` of the honest power
    over ``[partition_start, partition_start + duration)`` — and both are
    priced by the two-component scan.  The single-chain attacker
    (``private_chain``) races the best public chain it can see across the
    cut; the equivocating attacker maintains one private chain per
    component, feeding each round's successes to the weaker race and
    releasing conflicting chains to the two sides.

    Every duration and both strategies run on the *same* seeded mining and
    minority-split tensors (the common-random-numbers design of
    :func:`partition_depth_sweep`), so each row's
    ``equivocation_advantage`` — the difference in mean displaced depth —
    reflects the strategy change alone, not sampling noise.  Rows also
    carry both strategies' attack-success probabilities at
    ``target_depth``, the mean merge-on-heal displaced depth, and the
    shared trace parameters.
    """
    _check_shape(trials, rounds)
    if not durations:
        raise AnalysisError("at least one partition duration is required")
    if any(int(duration) < 0 for duration in durations):
        raise AnalysisError("partition durations must be non-negative")
    if not (0 <= int(partition_start) < rounds):
        raise AnalysisError(
            f"partition_start must lie inside the run [0, {rounds}), got "
            f"{partition_start!r}"
        )
    if not (0.0 < float(cut_fraction) < 1.0):
        raise AnalysisError(
            f"cut_fraction must lie strictly in (0, 1), got {cut_fraction!r}"
        )
    runner = runner if runner is not None else ExperimentRunner(base_seed=seed)
    params = parameters_from_c(c=float(c), n=n, delta=int(delta), nu=float(nu))
    trace_rng = np.random.default_rng(
        runner.seed_sequence_for(params, trials, rounds)
    )
    honest, adversary = draw_mining_traces(
        params, trials, rounds, trace_rng, runner.draw_mode
    )
    # A fresh generator from the same per-sweep entropy gives every
    # duration and both strategies the identical minority-split stream.
    origin_entropy = runner.seed_sequence_for(params, trials, rounds).entropy
    split = np.random.default_rng(
        np.random.SeedSequence([*np.atleast_1d(origin_entropy), 2])
    ).binomial(np.asarray(honest), float(cut_fraction))
    rows: List[Dict[str, object]] = []
    for duration in durations:
        results = {}
        for kind in ("private_chain", "equivocation"):
            scenario = PartitionScenario(
                name=f"sweep_{kind}",
                kind=kind,
                target_depth=int(target_depth),
                give_up_deficit=None,
                partition_start=int(partition_start),
                partition_duration=int(duration),
                cut_fraction=float(cut_fraction),
            )
            results[kind] = ScenarioSimulation(
                params, scenario, rng=0, draw_mode=runner.draw_mode
            ).run_traces(honest, adversary, split_counts=split)
        single, equivocation = (
            results["private_chain"],
            results["equivocation"],
        )
        single_ci = _confidence_interval(single.deepest_forks)
        equivocation_ci = _confidence_interval(equivocation.deepest_forks)
        rows.append(
            {
                "partition_start": int(partition_start),
                "partition_duration": int(duration),
                "cut_fraction": float(cut_fraction),
                "target_depth": int(target_depth),
                "c": params.c,
                "nu": params.nu,
                "delta": params.delta,
                "single_mean_deepest_fork": single.mean_deepest_fork,
                "single_deepest_fork_ci95_low": single_ci[0],
                "single_deepest_fork_ci95_high": single_ci[1],
                "single_max_deepest_fork": single.max_deepest_fork,
                "single_success_probability": (
                    single.attack_success_probability
                ),
                "single_mean_merge_depth": float(single.merge_depths.mean()),
                "equivocation_mean_deepest_fork": (
                    equivocation.mean_deepest_fork
                ),
                "equivocation_deepest_fork_ci95_low": equivocation_ci[0],
                "equivocation_deepest_fork_ci95_high": equivocation_ci[1],
                "equivocation_max_deepest_fork": (
                    equivocation.max_deepest_fork
                ),
                "equivocation_success_probability": (
                    equivocation.attack_success_probability
                ),
                "equivocation_mean_merge_depth": float(
                    equivocation.merge_depths.mean()
                ),
                "equivocation_advantage": (
                    equivocation.mean_deepest_fork - single.mean_deepest_fork
                ),
            }
        )
    return rows


def _connected_leave_set(
    topology: PeerGraphTopology,
    count: int,
    rng: np.random.Generator,
    max_attempts: int = 64,
) -> tuple:
    """Draw ``count`` peers whose simultaneous absence keeps gossip connected."""
    nodes = topology.n_nodes
    for _ in range(max_attempts):
        leave = tuple(
            int(node) for node in rng.choice(nodes, size=count, replace=False)
        )
        active = np.ones(nodes, dtype=bool)
        active[list(leave)] = False
        adjacency = (topology.latencies > 0) & active[:, None] & active[None, :]
        reached = np.zeros(nodes, dtype=bool)
        start = int(np.nonzero(active)[0][0])
        reached[start] = True
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for neighbour in np.nonzero(adjacency[node])[0]:
                if not reached[neighbour]:
                    reached[neighbour] = True
                    frontier.append(int(neighbour))
        if (reached == active).all():
            return leave
    raise AnalysisError(
        f"could not find {count} peers whose absence keeps the graph "
        f"connected in {max_attempts} attempts; lower the churn fraction "
        "or use a denser topology"
    )


def churn_tightness_table(
    leave_counts: Sequence[int] = (0, 2, 4),
    *,
    period: int = 500,
    off_duration: int = 250,
    graph_nodes: int = 32,
    degree: int = 4,
    c: float = 4.0,
    n: int = 1_000,
    nu: float = 0.2,
    delta: Optional[int] = None,
    trials: int = 12,
    rounds: int = 4_000,
    seed: int = 0,
    runner: Optional[ExperimentRunner] = None,
) -> List[Dict[str, object]]:
    """Convergence-rate tightness under periodic peer churn, per churn level.

    A random-regular gossip graph loses ``leave_count`` random peers every
    ``period`` rounds for ``off_duration`` rounds (the leave sets are
    seeded and validated to keep the remaining graph connected, so every
    schedule compiles).  Each row reports the empirical
    convergence-opportunity rate with a 95% CI, the fixed-Δ Eq. (44)
    prediction at the nominal Δ and the tightness ratio between them —
    how much of the static analysis' margin survives the churn level.
    """
    _check_shape(trials, rounds)
    if not leave_counts:
        raise AnalysisError("at least one churn level is required")
    if period <= 0 or off_duration < 0:
        raise AnalysisError("period must be positive and off_duration >= 0")
    topology = PeerGraphTopology.random_regular(
        graph_nodes,
        degree,
        rng=np.random.default_rng(np.random.SeedSequence([int(seed), 1])),
    )
    if delta is None:
        delta = max(topology.diameter, 1)
    params = parameters_from_c(c=float(c), n=n, delta=int(delta), nu=float(nu))
    runner = runner if runner is not None else ExperimentRunner(base_seed=seed)
    rows: List[Dict[str, object]] = []
    for level, leave_count in enumerate(leave_counts):
        leave_count = int(leave_count)
        if leave_count < 0 or leave_count >= graph_nodes:
            raise AnalysisError(
                f"leave counts must lie in [0, {graph_nodes}), got {leave_count}"
            )
        churn_rng = np.random.default_rng(
            np.random.SeedSequence([int(seed), 2, level])
        )
        events = []
        if leave_count:
            for start in range(period, rounds, period):
                leave = _connected_leave_set(topology, leave_count, churn_rng)
                events.append(ChurnEvent(start, leave, duration=off_duration))
        try:
            result = runner.run_dynamics_point(
                params, trials, rounds, DynamicsSchedule(events), topology=topology
            )
        except SimulationError as error:  # pragma: no cover - defensive
            raise AnalysisError(
                f"churn schedule at leave_count={leave_count} failed to "
                f"compile: {error}"
            ) from error
        rate_ci = result.convergence_rate_ci95
        predicted = params.convergence_opportunity_probability
        empirical = result.mean_convergence_rate
        rows.append(
            {
                "leave_count": leave_count,
                "churn_events": len(events),
                "period": int(period),
                "off_duration": int(off_duration),
                "nodes": topology.n_nodes,
                "delta": params.delta,
                "empirical_rate": empirical,
                "empirical_ci95_low": rate_ci[0],
                "empirical_ci95_high": rate_ci[1],
                "predicted_rate_nominal": predicted,
                "tightness_vs_nominal": (
                    empirical / predicted if predicted > 0 else np.inf
                ),
                "mean_violation_depth": float(result.worst_deficits.mean()),
                "lemma1_fraction": result.lemma1_fraction,
            }
        )
    return rows
