"""Streaming trial engine: O(chunk) memory Monte Carlo with online accumulation.

The dense engines (:class:`~repro.simulation.batch.BatchSimulation`,
:class:`~repro.simulation.scenarios.ScenarioSimulation`) materialise the full
``(trials, rounds)`` success-count tensors before analysing them — at
``1e8`` trials and a few hundred rounds that is hundreds of gigabytes, far
past any single host.  This module keeps the dense kernels (they are the
audited, golden-pinned implementations) but drives them through online
accumulators, never holding more than ``chunk x rounds`` cells of trace
data.  Both streamed engines extend one spine, :class:`_StreamedSimulation`,
adding only their dense engine, accumulator, span, progress label and
result type:

* **one block draw** — randomness comes in fixed *seed blocks* of
  :data:`SEED_BLOCK_CELLS` cells, block ``b`` drawing from the ``b``-th
  spawn of the run's :class:`numpy.random.SeedSequence`: the honest and
  adversarial tensors, then the dense engine's ``_third_draw`` (delays, a
  partial cut's minority split, or nothing), in the dense ``run``'s order;
* **one chunk loop** — a chunk is a group of whole consecutive blocks, at
  most ``chunk_cells // rounds`` trials (the shared
  :func:`repro.backend.chunking.resolve_chunk_cells` knob, overridable per
  engine), reported as one progress event.  Each block draws its int32
  mining counts in place into reused :class:`~repro.backend.Workspace`
  buffers, and dense ``run_traces`` calls analyse them, so the math is
  exactly the materialised engine's math.  The batch kernels are row-local,
  so a streamed batch point makes one call per block on block-sized
  buffers, its delay tensor passed through as drawn: its memory is one
  block's at any chunk budget.  The scenario scan pays a per-round cost
  that needs wide vectors, so a streamed scenario point makes one call per
  chunk on chunk-sized buffers, with a third draw copied in;
* **online accumulation** — integer tallies (convergence / adversary block
  totals, Lemma 1 satisfaction, violation hits per requested depth) are
  exact; rate means and confidence intervals stream through
  :class:`OnlineMoments` (Chan-merge Welford moments with a Kahan-compensated
  mean); the worst-deficit distribution lands in a bounded
  :class:`DeficitHistogram`.  Updates happen per seed block in block order,
  so the streamed summary is **bit-identical** for every chunk size and for
  serial vs sharded execution — the chunk knob is pure execution policy;
* **one result codec** — both results derive ``payload()`` and
  ``from_payload()`` from their dataclass fields (:class:`_StreamedResult`).

The streamed :meth:`StreamingBatchResult.summary` carries exactly the keys
of the dense :meth:`~repro.simulation.batch.BatchResult.summary` (and the
scenario variant those of
:meth:`~repro.simulation.scenarios.ScenarioResult.summary`).  Integer-backed
entries (trial counts, Lemma 1 fractions, Wilson intervals, worst-deficit
aggregates) match the dense numbers exactly; float moment entries (rate
means and normal-approximation intervals) agree within
:data:`STREAM_STAT_RTOL` — the online merge is algebraically the same mean
and variance, accumulated in a different (but fixed) association order.

One child generator per block instead of one stream makes a multi-block
streamed run a *new* seeded experiment, not a re-execution of a dense one;
:meth:`~_StreamedSimulation.materialize_traces` exposes its full tensors
for audits and equivalence tests.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..backend import Workspace, resolve_chunk_cells
from ..backend.chunking import chunk_trials
from ..backend.workspace import _scratch
from ..errors import SimulationError
from ..observability import (
    METRICS as _METRICS,
    TRACE as _TRACE,
    GridProgress,
    resolve_progress_sinks,
)
from ..params import ProtocolParameters
from .batch import (
    BatchResult,
    BatchSimulation,
    _count_dtype,
    _validate_shape,
    draw_mining_traces,
    proportion_confidence_interval,
)
from .rng import SeedLike, derive_seed_sequence
from .scenarios import Scenario, ScenarioResult, ScenarioSimulation
from .topology import DelayModel, MiningPowerProfile

__all__ = [
    "SEED_BLOCK_CELLS",
    "STREAM_STAT_RTOL",
    "seed_block_trials",
    "OnlineMoments",
    "DeficitHistogram",
    "StreamingAccumulator",
    "ScenarioStreamingAccumulator",
    "StreamingBatchResult",
    "StreamingScenarioResult",
    "StreamingBatchSimulation",
    "StreamingScenarioSimulation",
]

#: Cells (trials x rounds) per seed block.  A *protocol constant*, not a
#: tuning knob: the chunk size groups whole blocks, so changing the chunk
#: never changes which child seed draws which trial.  Changing this constant
#: changes every streamed experiment's bit stream.
SEED_BLOCK_CELLS = 1 << 20

#: Documented relative tolerance between streamed float moment statistics
#: (rate means, normal-approximation CI bounds) and the dense engines'
#: materialised statistics.  Integer-backed summary entries match exactly.
STREAM_STAT_RTOL = 1e-9


def seed_block_trials(rounds: int) -> int:
    """Trials per seed block at ``rounds`` rounds (at least one)."""
    return max(SEED_BLOCK_CELLS // max(int(rounds), 1), 1)


def _block_seed(sequence: np.random.SeedSequence, index: int) -> np.random.SeedSequence:
    """Block ``index``'s child seed, *stateless*.

    :meth:`numpy.random.SeedSequence.spawn` advances the parent's spawn
    counter, so calling it twice yields different children — a repeated
    ``run`` (or a ``materialize_traces`` audit after one) would silently
    reroll the experiment.  Constructing the child with an explicit spawn
    key reproduces exactly what a fresh sequence's first ``spawn`` returns
    at ``index``, every time.  Each block builds its own seed when it is
    drawn, so a run holds one at a time whatever its block count.
    """
    return np.random.SeedSequence(
        entropy=sequence.entropy, spawn_key=tuple(sequence.spawn_key) + (index,)
    )


class OnlineMoments:
    """Streaming mean / variance with Chan merging and a Kahan-compensated mean.

    Per-block sample moments are folded in with the parallel-variance
    combine of Chan, Golub & LeVeque; the running mean carries a Kahan
    compensation term so millions of tiny block updates do not drift.  The
    update order is fixed (seed-block order), which is what makes streamed
    statistics bit-identical across chunk sizes.  The payload holds the
    compensation too, so a fold resumed from it is bit-exact.
    """

    __slots__ = ("count", "mean", "m2", "compensation")

    def __init__(
        self,
        count: int = 0,
        mean: float = 0.0,
        m2: float = 0.0,
        compensation: float = 0.0,
    ):
        self.count = int(count)
        self.mean = float(mean)
        self.m2 = float(m2)
        self.compensation = float(compensation)

    def update(self, values) -> None:
        """Fold one block of observations (any array with ``.mean``/``.var``)."""
        count = int(values.size)
        if count == 0:
            return
        block_mean = float(values.mean())
        block_m2 = float(values.var()) * count
        self.combine(count, block_mean, block_m2)

    def combine(self, count: int, mean: float, m2: float) -> None:
        """Merge pre-computed block moments ``(count, mean, sum of squares)``."""
        count = int(count)
        if count <= 0:
            return
        if self.count == 0:
            self.count = count
            self.mean = float(mean)
            self.m2 = float(m2)
            self.compensation = 0.0
            return
        total = self.count + count
        delta = float(mean) - self.mean
        weight = count / total
        # Kahan-compensated mean update: the correction term re-captures the
        # low-order bits the running sum would otherwise shed.
        term = delta * weight - self.compensation
        updated = self.mean + term
        self.compensation = (updated - self.mean) - term
        self.m2 += float(m2) + delta * delta * self.count * weight
        self.mean = updated
        self.count = total

    def ci95(self) -> Tuple[float, float]:
        """Normal-approximation 95% CI, matching
        :func:`repro.simulation.batch._confidence_interval` semantics
        (``(nan, nan)`` below two observations)."""
        if self.count < 2:
            return (math.nan, math.nan)
        variance = self.m2 / (self.count - 1)
        std = math.sqrt(variance if variance > 0.0 else 0.0)
        half_width = 1.96 * std / math.sqrt(self.count)
        return (self.mean - half_width, self.mean + half_width)

    def payload(self) -> Dict[str, float]:
        return {name: getattr(self, name) for name in self.__slots__}

    @classmethod
    def from_payload(cls, payload: Dict[str, float]) -> "OnlineMoments":
        return cls(**payload)


class DeficitHistogram:
    """Bounded histogram of per-trial worst windowed deficits.

    Bins ``0 .. bins-1`` hold exact counts; anything deeper lands in the
    ``overflow`` bucket (deficits beyond the bound are individually rare but
    their exact maximum is still tracked by the accumulator).  Memory is
    O(bins) regardless of trial count.
    """

    __slots__ = ("bins", "counts", "overflow")

    def __init__(
        self,
        bins: int = 64,
        counts: Optional[Sequence[int]] = None,
        overflow: int = 0,
    ):
        bins = int(bins)
        if bins < 1:
            raise SimulationError(f"bins must be positive, got {bins!r}")
        self.bins = bins
        self.counts: List[int] = (
            [0] * bins if counts is None else [int(value) for value in counts]
        )
        if len(self.counts) != bins:
            raise SimulationError(
                f"counts must have length {bins}, got {len(self.counts)}"
            )
        self.overflow = int(overflow)

    def update(self, deficits) -> None:
        """Fold one block of integer deficits (early exit once all counted)."""
        remaining = int(deficits.size)
        for value in range(self.bins):
            if remaining == 0:
                return
            hits = int((deficits == value).sum())
            self.counts[value] += hits
            remaining -= hits
        self.overflow += remaining

    @property
    def total(self) -> int:
        return sum(self.counts) + self.overflow

    def payload(self) -> Dict[str, object]:
        return {
            "bins": self.bins,
            "counts": list(self.counts),
            "overflow": self.overflow,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "DeficitHistogram":
        return cls(**payload)


def _normalize_depths(depths: Optional[Iterable[int]]) -> Tuple[int, ...]:
    """Sorted unique non-negative violation depths."""
    if depths is None:
        return ()
    cleaned = sorted({int(depth) for depth in depths})
    if cleaned and cleaned[0] < 0:
        raise SimulationError(f"violation depths must be >= 0, got {cleaned[0]}")
    return tuple(cleaned)


class StreamingAccumulator:
    """Online tallies for a streamed batch run, updated one seed block at a time.

    Integer statistics are exact; rate moments stream through
    :class:`OnlineMoments`.  Updates must arrive in seed-block order — the
    engine guarantees this, and it is what pins streamed summaries
    bit-identical across chunk sizes.
    """

    def __init__(self, depths: Iterable[int] = (), histogram_bins: int = 64):
        self.depths = _normalize_depths(depths)
        self.trials = 0
        self.convergence_moments = OnlineMoments()
        self.adversary_moments = OnlineMoments()
        self.convergence_total = 0
        self.honest_total = 0
        self.adversary_total = 0
        self.lemma1_satisfied = 0
        self.worst_deficit_sum = 0
        self.max_worst_deficit = 0
        self.violation_hits: Dict[int, int] = {depth: 0 for depth in self.depths}
        self.deficit_histogram = DeficitHistogram(bins=histogram_bins)

    def update(self, result: BatchResult, lo: int, hi: int) -> None:
        """Fold the per-trial slice ``[lo:hi)`` of one chunk's dense result."""
        if hi <= lo:
            return
        rounds = result.rounds
        convergence = result.convergence_opportunities[lo:hi]
        adversary = result.adversary_blocks[lo:hi]
        deficits = result.worst_deficits[lo:hi]
        self.trials += hi - lo
        self.convergence_moments.update(convergence / rounds)
        self.adversary_moments.update(adversary / rounds)
        self.convergence_total += int(convergence.sum())
        self.honest_total += int(result.honest_blocks[lo:hi].sum())
        self.adversary_total += int(adversary.sum())
        self.lemma1_satisfied += int((convergence - adversary > 0).sum())
        self.worst_deficit_sum += int(deficits.sum())
        block_max = int(deficits.max())
        if block_max > self.max_worst_deficit:
            self.max_worst_deficit = block_max
        for depth in self.depths:
            self.violation_hits[depth] += int((deficits >= depth).sum())
        self.deficit_histogram.update(deficits)


class ScenarioStreamingAccumulator:
    """Online tallies for a streamed scenario run (one seed block at a time)."""

    def __init__(self, success_depth: int):
        self.success_depth = int(success_depth)
        self.trials = 0
        self.success_hits = 0
        self.fork_moments = OnlineMoments()
        self.max_deepest_fork = 0
        self.releases_sum = 0
        self.abandons_sum = 0
        self.orphaned_sum = 0
        self.final_height_sum = 0
        self.lemma1_satisfied = 0
        self.merge_depth_sum = 0
        self.has_merge_depths = False

    def update(self, result: ScenarioResult, lo: int, hi: int) -> None:
        """Fold the per-trial slice ``[lo:hi)`` of one chunk's dense result."""
        if hi <= lo:
            return
        forks = result.deepest_forks[lo:hi]
        self.trials += hi - lo
        self.success_hits += int((forks >= self.success_depth).sum())
        self.fork_moments.update(forks)
        block_max = int(forks.max())
        if block_max > self.max_deepest_fork:
            self.max_deepest_fork = block_max
        self.releases_sum += int(result.releases[lo:hi].sum())
        self.abandons_sum += int(result.abandons[lo:hi].sum())
        self.orphaned_sum += int(result.orphaned_honest[lo:hi].sum())
        self.final_height_sum += int(result.final_public_heights[lo:hi].sum())
        margins = (
            result.convergence_opportunities[lo:hi]
            - result.adversary_blocks[lo:hi]
        )
        self.lemma1_satisfied += int((margins > 0).sum())
        merge_depths = result.merge_depths
        if merge_depths is not None:
            self.has_merge_depths = True
            self.merge_depth_sum += int(merge_depths[lo:hi].sum())


#: How :meth:`_StreamedResult._from_state` restores a field from its
#: payload value, keyed by the field's annotation text (this module
#: postpones annotations, so ``dataclasses.Field.type`` is that text).
_DECODERS = {
    "int": int,
    "str": str,
    "bool": bool,
    "Optional[str]": lambda value: None if value is None else str(value),
    "OnlineMoments": OnlineMoments.from_payload,
    "DeficitHistogram": DeficitHistogram.from_payload,
    "Dict[int, int]": lambda hits: {
        int(depth): int(count) for depth, count in hits.items()
    },
}


class _StreamedResult:
    """The codec both streamed results derive from their dataclass fields.

    ``payload()`` holds every field in order but ``params`` and ``scenario``
    (the requesting point supplies those on the way back), nested moments
    and histograms as their own ``payload()`` and depths as string keys.
    """

    _CONTEXT = ("params", "scenario")

    def payload(self) -> Dict[str, object]:
        """The statistical state as JSON-serialisable scalars (no params/scenario)."""
        state = {}
        for item in fields(self):
            if item.name in self._CONTEXT:
                continue
            value = getattr(self, item.name)
            if isinstance(value, (OnlineMoments, DeficitHistogram)):
                value = value.payload()
            elif isinstance(value, dict):
                value = {str(key): count for key, count in value.items()}
            state[item.name] = value
        return state

    @classmethod
    def _from_state(cls, payload: Dict[str, object], **context):
        """The inverse of :meth:`payload`, given the fields it leaves out."""
        restored = {
            item.name: _DECODERS[item.type](payload[item.name])
            for item in fields(cls)
            if item.name not in context
        }
        return cls(**context, **restored)


@dataclass
class StreamingBatchResult(_StreamedResult):
    """Summary-only outcome of a streamed batch run (O(1) memory).

    Carries no per-trial arrays — every statistic the dense
    :meth:`~repro.simulation.batch.BatchResult.summary` reports is available
    (same keys, integer entries exact, float moments within
    :data:`STREAM_STAT_RTOL`), plus exact violation hit counts for every
    requested depth and the bounded worst-deficit histogram.
    """

    params: ProtocolParameters
    trials: int
    rounds: int
    draw_mode: str
    delay_model: str
    seed_block_trials: int
    convergence_moments: OnlineMoments
    adversary_moments: OnlineMoments
    convergence_total: int
    honest_total: int
    adversary_total: int
    lemma1_satisfied: int
    worst_deficit_sum: int
    max_worst_deficit: int
    violation_hits: Dict[int, int]
    deficit_histogram: DeficitHistogram = field(repr=False)

    @property
    def mean_convergence_rate(self) -> float:
        return self.convergence_moments.mean

    @property
    def convergence_rate_ci95(self) -> Tuple[float, float]:
        return self.convergence_moments.ci95()

    @property
    def mean_adversary_rate(self) -> float:
        return self.adversary_moments.mean

    @property
    def adversary_rate_ci95(self) -> Tuple[float, float]:
        return self.adversary_moments.ci95()

    @property
    def lemma1_fraction(self) -> float:
        return self.lemma1_satisfied / self.trials

    @property
    def mean_worst_deficit(self) -> float:
        return self.worst_deficit_sum / self.trials

    @property
    def theoretical_convergence_rate(self) -> float:
        return self.params.convergence_opportunity_probability

    @property
    def theoretical_adversary_rate(self) -> float:
        return self.params.beta

    @property
    def depths(self) -> Tuple[int, ...]:
        """The violation depths this run tracked exact hit counts for."""
        return tuple(sorted(self.violation_hits))

    def violation_probability(self, depth: int) -> float:
        """Fraction of trials whose worst windowed deficit reached ``depth``."""
        return self._hits(depth) / self.trials

    def violation_ci95(self, depth: int) -> Tuple[float, float]:
        """Wilson score 95% interval for the depth-``depth`` violation rate."""
        return proportion_confidence_interval(self._hits(depth), self.trials)

    def _hits(self, depth: int) -> int:
        depth = int(depth)
        if depth not in self.violation_hits:
            raise SimulationError(
                f"depth {depth} was not tracked by this streamed run; "
                f"tracked depths: {sorted(self.violation_hits)}"
            )
        return self.violation_hits[depth]

    def summary(self) -> Dict[str, object]:
        """Same keys as :meth:`repro.simulation.batch.BatchResult.summary`."""
        convergence_ci = self.convergence_rate_ci95
        adversary_ci = self.adversary_rate_ci95
        return {
            "trials": self.trials,
            "rounds": self.rounds,
            "c": self.params.c,
            "nu": self.params.nu,
            "delta": self.params.delta,
            "mean_convergence_rate": self.mean_convergence_rate,
            "convergence_rate_ci95_low": convergence_ci[0],
            "convergence_rate_ci95_high": convergence_ci[1],
            "theoretical_convergence_rate": self.theoretical_convergence_rate,
            "mean_adversary_rate": self.mean_adversary_rate,
            "adversary_rate_ci95_low": adversary_ci[0],
            "adversary_rate_ci95_high": adversary_ci[1],
            "theoretical_adversary_rate": self.theoretical_adversary_rate,
            "lemma1_fraction": self.lemma1_fraction,
            "mean_worst_deficit": self.mean_worst_deficit,
            "max_worst_deficit": int(self.max_worst_deficit),
            "delay_model": self.delay_model,
        }

    @classmethod
    def from_payload(
        cls, payload: Dict[str, object], params: ProtocolParameters
    ) -> "StreamingBatchResult":
        return cls._from_state(payload, params=params)


@dataclass
class StreamingScenarioResult(_StreamedResult):
    """Summary-only outcome of a streamed scenario run (O(1) memory)."""

    params: ProtocolParameters
    scenario: Scenario
    trials: int
    rounds: int
    draw_mode: str
    honest_delay: int
    delay_model: Optional[str]
    release_delay: int
    seed_block_trials: int
    success_hits: int
    fork_moments: OnlineMoments
    max_deepest_fork: int
    releases_sum: int
    abandons_sum: int
    orphaned_sum: int
    final_height_sum: int
    lemma1_satisfied: int
    merge_depth_sum: int
    has_merge_depths: bool

    @property
    def attack_success_probability(self) -> float:
        return self.success_hits / self.trials

    @property
    def attack_success_ci95(self) -> Tuple[float, float]:
        return proportion_confidence_interval(self.success_hits, self.trials)

    @property
    def mean_deepest_fork(self) -> float:
        return self.fork_moments.mean

    @property
    def deepest_fork_ci95(self) -> Tuple[float, float]:
        return self.fork_moments.ci95()

    @property
    def lemma1_fraction(self) -> float:
        return self.lemma1_satisfied / self.trials

    @property
    def mean_growth_rate(self) -> float:
        return self.final_height_sum / (self.trials * self.rounds)

    @property
    def mean_merge_depth(self) -> float:
        if not self.has_merge_depths:
            return 0.0
        return self.merge_depth_sum / self.trials

    def summary(self) -> Dict[str, object]:
        """Same keys as :meth:`repro.simulation.scenarios.ScenarioResult.summary`."""
        success_ci = self.attack_success_ci95
        fork_ci = self.deepest_fork_ci95
        return {
            "scenario": self.scenario.name,
            "trials": self.trials,
            "rounds": self.rounds,
            "c": self.params.c,
            "nu": self.params.nu,
            "delta": self.params.delta,
            "honest_delay": self.honest_delay,
            "attack_success_probability": self.attack_success_probability,
            "attack_success_ci95_low": success_ci[0],
            "attack_success_ci95_high": success_ci[1],
            "mean_deepest_fork": self.mean_deepest_fork,
            "deepest_fork_ci95_low": fork_ci[0],
            "deepest_fork_ci95_high": fork_ci[1],
            "max_deepest_fork": int(self.max_deepest_fork),
            "mean_releases": self.releases_sum / self.trials,
            "mean_abandons": self.abandons_sum / self.trials,
            "mean_orphaned_honest": self.orphaned_sum / self.trials,
            "mean_growth_rate": self.mean_growth_rate,
            "lemma1_fraction": self.lemma1_fraction,
            "delay_model": self.delay_model,
            "release_delay": self.release_delay,
            "mean_merge_depth": self.mean_merge_depth,
        }

    @classmethod
    def from_payload(
        cls,
        payload: Dict[str, object],
        params: ProtocolParameters,
        scenario: Scenario,
    ) -> "StreamingScenarioResult":
        return cls._from_state(payload, params=params, scenario=scenario)


# ----------------------------------------------------------------------
# The chunked execution spine
# ----------------------------------------------------------------------
_MINING = ("honest_counts", "adversary_counts")


class _StreamedSimulation:
    """One block plan, one per-block draw and one chunk loop.

    A subclass builds its dense engine as ``self.engine`` (with
    ``run_traces`` and ``_third_draw``) and its accumulator in ``run``, and
    names its span, progress label and result type.  Its ``_chunk_calls``
    says whether one ``run_traces`` call spans a whole chunk of blocks or
    one block.
    """

    # The repository benchmark (perfbench/stages.py) wraps this module's
    # ``draw_mining_traces`` and ``StreamingAccumulator.update`` and folds the
    # ``stream.run`` / ``stream.scenario_run`` spans into per-layer stages,
    # all by name, so renaming any of them silently zeroes a stage.  Both
    # functions are looked up at call time, never bound once per run.
    _span: str
    _progress_label: str
    _result_type: type
    _chunk_calls: bool

    def __init__(
        self,
        params: ProtocolParameters,
        seed: SeedLike,
        workspace: Optional[Workspace],
        chunk_cells: Optional[int],
    ):
        self.params = params
        self.seed_sequence = derive_seed_sequence(seed)
        self.chunk_cells = (
            None if chunk_cells is None else resolve_chunk_cells(chunk_cells)
        )
        self.workspace = workspace

    @property
    def draw_mode(self) -> str:
        return self.engine.draw_mode

    def _plan(self, trials: int, rounds: int):
        """``(block, n_blocks, per_chunk)``: trials per seed block (set by
        ``rounds`` alone; the last block may be short), the block count and
        the whole blocks per chunk, at least one, so any ``chunk_cells``
        setting executes the identical per-block draws.  Nothing here is
        per block: block ``b`` builds its child seed when it is drawn."""
        block = seed_block_trials(rounds)
        per_chunk = max(chunk_trials(rounds, self.chunk_cells) // block, 1)
        return block, -(-trials // block), per_chunk

    def _draw_block(self, index: int, size: int, rounds: int, out=None):
        """Block ``index``'s draws as ``run_traces`` keyword arguments, split
        into ``(tensors, rest)``: the ``(size, rounds)`` tensors, which a
        call spanning several blocks gathers into chunk buffers, and the
        rest (a delay cap), which passes through.

        The honest and adversarial tensors (drawn into ``out``, a pair of
        count-buffer row views, when given), then the dense engine's third
        draw, all from the block's own child generator: the dense ``run``'s
        protocol, so a one-block streamed run draws exactly what the dense
        engine draws from that generator.
        """
        rng = np.random.default_rng(_block_seed(self.seed_sequence, index))
        engine = self.engine
        honest, adversary = draw_mining_traces(
            self.params,
            size,
            rounds,
            rng,
            engine.draw_mode,
            power=engine.power,
            out=out,
        )
        tensors = {"honest_counts": honest, "adversary_counts": adversary}
        rest = {}
        for name, value in engine._third_draw(honest, rng).items():
            (tensors if isinstance(value, np.ndarray) else rest)[name] = value
        return tensors, rest

    def _stream(
        self, trials, rounds, accumulator, progress, span: dict, **labels
    ):
        """Stream ``trials`` through the chunk loop into ``accumulator``;
        the result is filled from the run's shape, the accumulator's tallies
        and the subclass's ``labels``."""
        trials, rounds = _validate_shape(trials, rounds)
        plan = self._plan(trials, rounds)
        block, n_blocks, per_chunk = plan
        n_chunks = -(-n_blocks // per_chunk)
        sinks = resolve_progress_sinks(progress)
        reporter = (
            GridProgress(self._progress_label, n_chunks, sinks) if sinks else None
        )
        with _TRACE.span(
            self._span,
            **span,
            trials=trials,
            rounds=rounds,
            chunks=n_chunks,
            blocks=n_blocks,
        ):
            self._chunk_loop(accumulator, trials, rounds, plan, reporter)
        _METRICS.increment("engine.stream.chunks", n_chunks)
        _METRICS.increment("engine.stream.blocks", n_blocks)
        _METRICS.increment("engine.stream.trials", trials)
        _METRICS.increment("engine.stream.cells", trials * rounds)
        state = dict(
            vars(accumulator),
            params=self.params,
            trials=trials,
            rounds=rounds,
            draw_mode=self.draw_mode,
            seed_block_trials=block,
            **labels,
        )
        return self._result_type(
            **{item.name: state[item.name] for item in fields(self._result_type)}
        )

    def _chunk_loop(self, accumulator, trials, rounds, plan, reporter):
        """The chunk loop (a hot path).

        A chunk is ``per_chunk`` whole blocks and one progress event.  Each
        dense ``run_traces`` call spans the whole chunk where the subclass
        sets ``_chunk_calls``, else one block, and the two int32 count
        buffers (taken up front) are one call in size.  Each result is
        folded into ``accumulator`` block by block, in block order.
        """
        block, n_blocks, per_chunk = plan
        span = per_chunk if self._chunk_calls else 1
        # The first call is the largest: ``span`` whole blocks, or all.
        shape = (min(span * block, trials), rounds)
        dtype = _count_dtype(self.params)
        buffers = {
            name: _scratch(self.workspace, f"stream.{name}", shape, dtype)
            for name in _MINING
        }
        clock = time.perf_counter
        for first in range(0, n_blocks, per_chunk):
            started = clock()
            last = min(first + per_chunk, n_blocks)
            for start in range(first, last, span):
                tensors, rest = self._draw_call(
                    start, min(start + span, last), block, trials, rounds, buffers
                )
                result = self.engine.run_traces(**tensors, **rest)
                size = result.trials
                for lo in range(0, size, block):
                    accumulator.update(result, lo, min(lo + block, size))
            if reporter is not None:
                reporter.point_done(clock() - started)

    def _draw_call(self, first, stop, block, trials, rounds, buffers):
        """Blocks ``first .. stop - 1`` drawn for one ``run_traces`` call, as
        its ``(tensors, rest)`` keyword arguments (a hot path).

        Each block draws its mining counts in place, into its rows of the
        two count buffers.  A one-block call takes the block's third draw
        (delays, a minority split) as drawn; a call of several blocks copies
        it into a buffer of its own, taken on first use.
        """
        offset = 0
        for index in range(first, stop):
            size = min(block, trials - index * block)
            rows = slice(offset, offset + size)
            tensors, rest = self._draw_block(
                index, size, rounds, [buffers[name][rows] for name in _MINING]
            )
            if stop - first == 1:
                return tensors, rest
            for name, tensor in tensors.items():
                if name in _MINING:
                    continue
                if name not in buffers:
                    shape = buffers[_MINING[0]].shape
                    buffers[name] = _scratch(
                        self.workspace, f"stream.{name}", shape, tensor.dtype
                    )
                buffers[name][rows] = tensor
            offset += size
        return {name: buffer[:offset] for name, buffer in buffers.items()}, rest

    def materialize_traces(self, trials: int, rounds: int):
        """Full tensors under the *streamed* draw protocol (audit helper).

        Materialises exactly the per-block draws a streamed run would
        consume, concatenated — O(trials x rounds) memory, so this is for
        equivalence tests and audits at modest sizes, not production runs.
        Returns ``(honest, adversary, third)``: ``third`` is the dense
        engine's third draw (the delay tensor of a non-trivial delay model,
        the minority-split tensor of a partial-cut scenario) or ``None``.
        """
        trials, rounds = _validate_shape(trials, rounds)
        block, n_blocks, _ = self._plan(trials, rounds)
        draws = [
            self._draw_block(index, min(block, trials - index * block), rounds)[0]
            for index in range(n_blocks)
        ]
        honest, adversary, *third = (
            np.concatenate([draw[name] for draw in draws], axis=0)
            for name in draws[0]
        )
        return honest, adversary, third[0] if third else None


class StreamingBatchSimulation(_StreamedSimulation):
    """Chunked, constant-memory execution of the batch Monte Carlo engine.

    Parameters
    ----------
    params:
        Protocol parameters (``p``, ``n``, ``Δ``, ``nu``).
    seed:
        An integer, :class:`numpy.random.SeedSequence` or ``None`` (seed 0).
        A live :class:`numpy.random.Generator` is **rejected** — the
        chunk-invariance contract needs a spawnable seed, not a stateful
        stream (:func:`~repro.simulation.rng.derive_seed_sequence`).
    draw_mode / delay_model / power / workspace:
        Forwarded to the underlying dense
        :class:`~repro.simulation.batch.BatchSimulation`, whose kernels
        analyse each seed block.
    chunk_cells:
        Execution chunk budget in cells; ``None`` defers to the shared
        :func:`repro.backend.chunking.resolve_chunk_cells` configuration
        (``REPRO_CHUNK_CELLS``).  It only groups seed blocks into progress
        chunks (the ``stream.run`` span's ``chunks``): the buffers are one
        block in size at every setting, and results, payloads included,
        are bit-identical for every setting.

    Examples
    --------
    >>> from repro.params import parameters_from_c
    >>> params = parameters_from_c(c=4.0, n=1_000, delta=3, nu=0.2)
    >>> streamed = StreamingBatchSimulation(params, seed=7)
    >>> result = streamed.run(trials=200, rounds=500, depths=(1,))
    >>> result.trials
    200
    >>> sorted(result.summary()) == sorted(
    ...     BatchSimulation(params, rng=7).run(200, 500).summary()
    ... )
    True
    """

    _span = "stream.run"
    _progress_label = "stream.batch"
    _result_type = StreamingBatchResult
    _chunk_calls = False

    def __init__(
        self,
        params: ProtocolParameters,
        seed: SeedLike = None,
        draw_mode: str = "binomial",
        delay_model: Union[None, str, DelayModel] = None,
        power: Optional[MiningPowerProfile] = None,
        workspace: Optional[Workspace] = None,
        chunk_cells: Optional[int] = None,
    ):
        super().__init__(params, seed, workspace, chunk_cells)
        self.engine = BatchSimulation(
            params,
            rng=0,
            draw_mode=draw_mode,
            delay_model=delay_model,
            power=power,
            workspace=workspace,
        )

    def run(
        self,
        trials: int,
        rounds: int,
        depths: Iterable[int] = (),
        progress=None,
    ) -> StreamingBatchResult:
        """Stream ``trials`` independent runs through the dense kernels.

        ``depths`` requests exact violation hit counts (worst windowed
        deficit ``>= depth``) accumulated per chunk.  ``progress`` configures
        chunk-level :class:`~repro.observability.GridProgress` events
        (resolved like the runner's grid progress; ``None`` consults
        ``REPRO_PROGRESS``).
        """
        return self._stream(
            trials,
            rounds,
            StreamingAccumulator(depths=depths),
            progress,
            {"draw_mode": self.draw_mode},
            delay_model=self.engine._delay_model_name,
        )


class StreamingScenarioSimulation(_StreamedSimulation):
    """Chunked, constant-memory execution of one adversarial scenario.

    The streamed :class:`~repro.simulation.scenarios.ScenarioSimulation`,
    on the same spine as :class:`StreamingBatchSimulation`: each seed block
    draws the honest tensor, the adversarial tensor, then the dense
    engine's third draw (the minority-split tensor for partial-cut
    scenarios, the delay tensor for non-trivial delay models, nothing
    otherwise), all from its own spawned child seed.  Unlike the batch
    spine it scans a whole chunk of blocks in one ``run_traces`` call: the
    round scan pays a per-round cost that only wide vectors amortise (at
    2,000 x 10,000 one block per call took 7.0 s against 2.1 s for whole
    chunks on a 2-vCPU Intel Xeon).
    """

    _span = "stream.scenario_run"
    _progress_label = "stream.scenario"
    _result_type = StreamingScenarioResult
    _chunk_calls = True

    def __init__(
        self,
        params: ProtocolParameters,
        scenario: Union[str, Scenario] = "passive",
        seed: SeedLike = None,
        draw_mode: str = "binomial",
        delay_model: Union[None, str, DelayModel] = None,
        power: Optional[MiningPowerProfile] = None,
        placement=None,
        workspace: Optional[Workspace] = None,
        chunk_cells: Optional[int] = None,
    ):
        super().__init__(params, seed, workspace, chunk_cells)
        self.engine = ScenarioSimulation(
            params,
            scenario,
            rng=0,
            draw_mode=draw_mode,
            delay_model=delay_model,
            power=power,
            placement=placement,
            workspace=workspace,
        )
        self.scenario = self.engine.scenario

    def run(
        self, trials: int, rounds: int, progress=None
    ) -> StreamingScenarioResult:
        """Stream ``trials`` independent attack trials through the dense scan."""
        engine = self.engine
        return self._stream(
            trials,
            rounds,
            ScenarioStreamingAccumulator(self.scenario.success_depth),
            progress,
            {"scenario": self.scenario.name},
            scenario=self.scenario,
            honest_delay=engine.honest_delay,
            delay_model=(
                None if engine.delay_model is None else engine.delay_model.name
            ),
            release_delay=engine.release_delay,
        )
