"""Vectorized batch Monte Carlo engine: many independent trials at once.

The legacy :class:`~repro.simulation.protocol.NakamotoSimulation` executes one
trial at a time with Python loops over rounds and per-miner oracle queries —
faithful to the model of Section III, but far too slow for the many-trial
validation sweeps behind Figure 1, Remark 1 and the Lemma 1 concentration
events.  This module executes ``T`` independent trials *simultaneously* with
array operations:

* **oracle draws** — per-round honest/adversarial success counts for the
  whole batch are drawn in one shot, either as ``(trials, rounds)`` binomial
  tensors (the default; exactly the per-round distribution of Eq. 41) or as
  an explicit ``(trials, rounds, miners)`` Bernoulli tensor reduced over the
  miner axis (identical in distribution, useful for auditing the binomial
  shortcut);
* **convergence-opportunity detection** — the pattern ``N^Δ H_1 N^Δ`` of
  Eq. (42) is located for every trial at once by the mask kernel, boolean
  ops only, matching the streaming
  :class:`~repro.simulation.events.ConvergenceOpportunityDetector` and the
  offline :func:`~repro.core.concat_chain.count_convergence_opportunities`
  exactly;
* **adversarial accounting** — per-trial adversarial block totals, Lemma 1
  margins ``C - A``, and the worst *windowed* deficit
  ``max_{s<=t} (A(s,t) - C(s,t))`` (the quantity whose positivity over every
  window is what Lemma 1 rules out), computed by the drawdown kernel as a
  running-maximum drawdown.

The batch, scenario, streaming and rare-event engines all run these two
kernels.  The binomial counts come from :func:`repro.backend.binomial`,
which returns ``Generator.binomial``'s bits, so the engine reproduces the
historical one bit for bit.  Every draw comes from the caller's
:class:`numpy.random.Generator`.  Drawn counts are int32 (a count never
exceeds its miner count), masks bool; the kernels read int32 or int64
counts, keep their running sums in int64 and every per-trial result is
summed in int64, so the narrow draws change no result.  Both
kernels run one row tile of at most
:data:`~repro.backend.workspace.TILE_CELLS` cells at a time, so
their scratch stays in cache and does not grow with the trial count; rows
never interact, so the tiles change no bit.  A kernel takes that scratch
from a :class:`~repro.backend.Workspace` when given one (as
:class:`~repro.simulation.runner.ExperimentRunner` does, so repeated
(trials, rounds) runs stop allocating) and allocates it otherwise; the
arithmetic is the same either way.

The engine deliberately works at the level of per-round aggregate counts —
the same abstraction the paper's analysis lives at.  Full block-tree dynamics
(network delays, withholding releases, Definition 1 snapshots) remain the
business of the legacy simulator, which stays as the reference
implementation; the seed-equivalence tests drive both engines from one
pre-drawn trace via :class:`~repro.simulation.oracle.ScriptedMiningOracle`
and require identical per-round counts and convergence tallies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..backend import Workspace, binomial, resolve_chunk_cells
from ..backend.workspace import _scratch, _tile_rows
from ..core.concat_chain import convergence_opportunity_mask
from ..errors import ParameterError, SimulationError
from ..observability import METRICS as _METRICS, TRACE as _TRACE
from ..params import ProtocolParameters, coerce_positive_int
from .rng import SeedLike, resolve_rng
from .topology import (
    DelayModel,
    MiningPowerProfile,
    _checked_delays,
    _delay_opportunity_mask,
    _integer_tensor,
    resolve_delay_model,
)

__all__ = [
    "DRAW_MODES",
    "draw_mining_traces",
    "convergence_opportunity_mask",
    "count_convergence_opportunities_batch",
    "worst_window_deficits",
    "proportion_confidence_interval",
    "BatchResult",
    "BatchSimulation",
]

#: Supported ways of drawing the per-round success counts.
DRAW_MODES = ("binomial", "bernoulli")


def _validate_shape(trials, rounds) -> Tuple[int, int]:
    """``(trials, rounds)`` as ints >= 1, by the runner's ``PointSpec`` rule.

    ``2.5``, ``True``, ``"3"`` and ``100.5`` raise :class:`SimulationError`
    instead of truncating or reaching NumPy; ``2.0`` is ``2``.
    """
    return (
        coerce_positive_int(trials, "trials", error_type=SimulationError),
        coerce_positive_int(rounds, "rounds", error_type=SimulationError),
    )


def _count_dtype(params: ProtocolParameters):
    """The drawn count tensors' dtype: int32, which holds every per-round
    count of up to 2^31 - 1 miners, else int64."""
    return np.int32 if params.n <= np.iinfo(np.int32).max else np.int64


def draw_mining_traces(
    params: ProtocolParameters,
    trials: int,
    rounds: int,
    rng: SeedLike = None,
    draw_mode: str = "binomial",
    power: Optional[MiningPowerProfile] = None,
    out=None,
):
    """Draw ``(trials, rounds)`` honest and adversarial success-count tensors.

    The honest tensor is drawn first, then the adversarial tensor, each in a
    single vectorized call — this fixed order is the batch engine's draw
    protocol, so a seed fully determines both tensors.

    ``draw_mode="binomial"`` samples the per-round counts directly as
    ``Binomial(miners, p)`` (Eq. 41).  ``draw_mode="bernoulli"`` materialises
    the underlying ``(trials, rounds, miners)`` per-query Bernoulli tensor
    and reduces over the miner axis — the same distribution, kept for
    auditing, and chunked over trials so memory stays bounded.

    A heterogeneous :class:`~repro.simulation.topology.MiningPowerProfile`
    (validated against ``params``) replaces both paths with per-miner
    Bernoulli draws at each miner's own ``p_i`` — the Poisson-binomial
    per-round law — honest side first, same chunking.

    Every path fills two new int32 arrays (int64 past 2^31 - 1 miners), or
    ``out``: a ``(honest, adversary)`` pair of ``(trials, rounds)`` integer
    arrays the caller owns, such as a seed block's rows of the streamed
    count buffers.
    The values do not depend on the dtype.
    """
    trials, rounds = _validate_shape(trials, rounds)
    if draw_mode not in DRAW_MODES:
        raise SimulationError(
            f"draw_mode must be one of {DRAW_MODES}, got {draw_mode!r}"
        )
    generator = resolve_rng(rng)
    honest_miners = max(int(round(params.honest_count)), 1)
    adversary_miners = int(round(params.adversary_count))
    honest, adversary = _count_tensors(
        params, (trials, rounds), out, _count_dtype(params)
    )

    if power is not None:
        power.validate_against(params)
        _bernoulli_counts(generator, power.honest_miners, power.honest_p, honest)
        _bernoulli_counts(
            generator, power.adversary_miners, power.adversary_p, adversary
        )
    elif draw_mode == "binomial":
        binomial(generator, honest_miners, params.p, honest)
        if adversary_miners > 0:
            binomial(generator, adversary_miners, params.p, adversary)
        else:
            adversary[...] = 0
    else:
        _bernoulli_counts(generator, honest_miners, params.p, honest)
        _bernoulli_counts(generator, adversary_miners, params.p, adversary)
    return honest, adversary


def _count_tensors(params: ProtocolParameters, shape, out, dtype):
    """``out``, checked to be a pair of ``shape`` integer arrays that hold
    counts up to ``n``, or two new ``dtype`` arrays."""
    if out is None:
        return np.empty(shape, dtype), np.empty(shape, dtype)
    if len(out) != 2 or not all(
        isinstance(tensor, np.ndarray)
        and tensor.shape == shape
        and tensor.dtype.kind in "iu"
        and np.iinfo(tensor.dtype).max >= params.n
        for tensor in out
    ):
        raise SimulationError(
            f"out must be two {shape} integer arrays that hold counts up to "
            f"n = {params.n}"
        )
    return out


def _bernoulli_counts(
    generator: np.random.Generator, miners: int, hardness, counts: np.ndarray
):
    """Sum a ``(trials, rounds, miners)`` Bernoulli tensor over the miner
    axis into the ``(trials, rounds)`` array ``counts``.

    ``hardness`` is a scalar ``p`` (the identical-miner model) or a
    ``(miners,)`` vector of per-miner ``p_i`` (the Poisson-binomial draw of
    a heterogeneous power profile) — the comparison broadcasts either way.
    """
    if miners <= 0:
        counts[...] = 0
        return
    trials, rounds = counts.shape
    threshold = np.asarray(hardness)
    # The chunk size is an execution knob only: ``rng.random`` consumes the
    # uniform stream contiguously, so any chunking yields identical counts.
    chunk = max(int(resolve_chunk_cells() // max(rounds * miners, 1)), 1)
    for start in range(0, trials, chunk):
        stop = min(start + chunk, trials)
        draws = generator.random((stop - start, rounds, miners)) < threshold
        draws.sum(axis=2, dtype=counts.dtype, out=counts[start:stop])


def count_convergence_opportunities_batch(honest_counts, delta: int):
    """Per-trial convergence-opportunity counts for a ``(trials, rounds)`` tensor."""
    counts = _integer_tensor(honest_counts, "honest_counts", ParameterError)
    delta = coerce_positive_int(delta, "delta", error_type=ParameterError)
    if counts.ndim != 2:
        raise ParameterError(f"need 2-D counts, got shape {counts.shape}")
    return _opportunity_mask(counts, delta).sum(axis=1, dtype=np.int64)


def _delay_draw(delay_model: Optional[DelayModel], delta: int, honest, rng) -> dict:
    """A non-trivial delay model's delays and cap as ``run_traces`` keyword
    arguments; ``{}`` without one (a trivial model draws nothing)."""
    if delay_model is None or delay_model.trivial:
        return {}
    trials, rounds = honest.shape
    return {
        "delays": delay_model.draw_delays(trials, rounds, delta, rng),
        "max_delay": delay_model.delay_cap(delta, rounds),
    }


def _opportunity_mask(counts, delta: int, workspace: Optional[Workspace] = None):
    """The mask kernel: where the ``N^Δ H_1 N^Δ`` pattern of Eq. (42) completes.

    Equal to :func:`~repro.core.concat_chain.convergence_opportunity_mask`,
    with boolean ops only.  ``run[i]`` marks rounds ``i .. i+span-1`` all
    empty; shifted in-place ``logical_and`` passes over the flattened buffer
    double ``span`` up to Δ (⌈log₂Δ⌉ passes; windows straddling two trials
    are never read).  Round ``r`` completes an opportunity when ``run[r-2Δ]``
    and ``run[r-Δ+1]`` hold and the centre ``r-Δ`` has one honest block.
    The full ``(trials, rounds)`` mask is filled one row tile at a time
    (:func:`_tile_rows`), so ``run`` is one tile in size whatever the trial
    count.  With a ``workspace`` both live there until the next call.
    """
    trials, rounds = counts.shape
    mask = _scratch(workspace, "mask.out", (trials, rounds), np.bool_)
    width = rounds - 2 * delta
    if width < 1:
        mask[...] = 0
        return mask
    mask[:, : 2 * delta] = 0
    rows = _tile_rows(trials, rounds)
    tile = _scratch(workspace, "mask.run", (rows, rounds), np.bool_)
    for start in range(0, trials, rows):
        stop = min(start + rows, trials)
        run = tile[: stop - start]
        tile_counts = counts[start:stop]
        np.equal(tile_counts, 0, out=run)
        flat = run.reshape(-1)
        span = 1
        while span < delta:
            step = min(span, delta - span)
            np.logical_and(flat[:-step], flat[step:], out=flat[:-step])
            span += step
        hits = mask[start:stop, 2 * delta :]
        np.logical_and(
            run[:, :width], run[:, delta + 1 : rounds - delta + 1], out=hits
        )
        single = run[:, :width]
        np.equal(tile_counts[:, delta : rounds - delta], 1, out=single)
        np.logical_and(hits, single, out=hits)
    return mask


def _window_drawdown(mask, adversary, workspace=None, level=None):
    """The drawdown kernel: ``(worst windowed deficits, first crossings)``.

    The drawdown of ``D_r = C(1,r) - A(1,r)`` from the baseline ``D_0 = 0``
    is the worst deficit over windows ending by round ``r``: a subtraction,
    an in-place ``cumsum``, a ``maximum_accumulate`` and a subtraction.
    Given a ``level``, the second entry is each trial's first column where
    the drawdown reaches it (the rounds that prefix spans; 0 if never),
    else ``None``.  Rows are independent, so the kernel runs one row tile
    (:func:`_tile_rows`) at a time through tile-sized ``running`` and
    ``drawdown`` scratch and writes only the per-trial results.

    ``adversary`` may be int32 or int64; the running sums are int64 either
    way.  A bool mask less a non-negative count fits the count's dtype, so
    the engines' int32 tiles subtract in int32; an integer mask (from
    :func:`worst_window_deficits`) subtracts in int64.
    """
    trials, rounds = mask.shape
    rows = _tile_rows(trials, rounds)
    shape = (rows, rounds + 1)
    running = _scratch(workspace, "deficit.running", shape, np.int64)
    drawdown = _scratch(workspace, "deficit.drawdown", shape, np.int64)
    running[:, 0] = 0
    deficits = np.empty(trials, dtype=np.int64)
    first = None if level is None else np.empty(trials, dtype=np.int64)
    difference = None if mask.dtype == np.bool_ else np.int64
    for start in range(0, trials, rows):
        stop = min(start + rows, trials)
        total, worst = running[: stop - start], drawdown[: stop - start]
        np.subtract(
            mask[start:stop], adversary[start:stop], out=total[:, 1:], dtype=difference
        )
        np.cumsum(total[:, 1:], axis=1, dtype=np.int64, out=total[:, 1:])
        np.maximum.accumulate(total, axis=1, out=worst)
        np.subtract(worst, total, out=worst)
        worst.max(axis=1, out=deficits[start:stop])
        if first is not None:
            (worst >= level).argmax(axis=1, out=first[start:stop])
    return deficits, first


def worst_window_deficits(
    opportunity_mask,
    adversary_counts,
    workspace: Optional[Workspace] = None,
):
    """Per-trial worst windowed deficit ``max_{s<=t} (A(s,t) - C(s,t))``.

    Lemma 1's consistency argument needs every window of rounds to contain
    more convergence opportunities than adversarial blocks; the worst window
    is found per trial as the maximum drawdown of the running difference
    ``D_r = C(1,r) - A(1,r)``.  A value of ``d`` means some window existed in
    which adversarial blocks outnumbered convergence opportunities by ``d`` —
    the analytical analogue of a depth-``d`` consistency threat.

    A validating front end to the engines' drawdown kernel.  A bool mask,
    which the kernel reads directly, passes through uncopied; any other
    mask follows the engines' integer rule.
    """
    mask = opportunity_mask
    if not (isinstance(mask, np.ndarray) and mask.dtype == np.bool_):
        mask = _integer_tensor(mask, "opportunity_mask")
    adversary = _integer_tensor(adversary_counts, "adversary_counts")
    if mask.ndim != 2:
        raise SimulationError(
            f"mask must have shape (trials, rounds), got {mask.shape}"
        )
    if mask.shape != adversary.shape:
        raise SimulationError(
            f"mask shape {mask.shape} does not match adversary shape {adversary.shape}"
        )
    if mask.dtype == np.bool_ and adversary.size and adversary.min() < 0:
        # The kernel subtracts a bool mask in the counts' dtype, which a
        # negative int32 count can overflow; an int64 mask subtracts in int64.
        mask = mask.astype(np.int64)
    return _window_drawdown(mask, adversary, workspace)[0]


def _confidence_interval(values: np.ndarray) -> Tuple[float, float]:
    """Normal-approximation 95% confidence interval for the mean of ``values``.

    Statistics helper for *unbounded* means (rates, depths, fork
    sizes), accumulated in float64.

    A single observation carries no variance information, so the interval is
    ``(nan, nan)`` rather than the zero-width ``(mean, mean)`` — a one-trial
    run must never masquerade as a certain estimate (the tables render the
    NaN bounds as ``n/a``).  Proportion-valued statistics over 0-1 outcomes
    (violation/success probabilities) must go through
    :func:`proportion_confidence_interval` instead: the normal approximation
    collapses to a zero-width interval at 0 or ``trials`` successes, which is
    exactly where honest tail bounds matter most.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        return (math.nan, math.nan)
    mean = float(values.mean())
    half_width = 1.96 * float(values.std(ddof=1)) / math.sqrt(values.size)
    return (mean - half_width, mean + half_width)


def proportion_confidence_interval(
    successes: int, trials: int
) -> Tuple[float, float]:
    """Wilson score 95% confidence interval for a Bernoulli proportion.

    The right tool for probability estimates over 0-1 outcomes: unlike the
    normal (Wald) approximation, the interval never collapses to zero width
    at the boundaries — a run with *zero* observed successes still reports
    the honest upper bound ``z^2 / (n + z^2)`` (≈ ``3.84 / n`` for large
    ``n``), and a run where every trial succeeded still admits failure
    probability mass.  Both endpoints are clipped to ``[0, 1]`` by
    construction.  A zero-trial input returns ``(nan, nan)``.
    """
    trials = int(trials)
    successes = int(successes)
    if trials < 1:
        return (math.nan, math.nan)
    if not 0 <= successes <= trials:
        raise SimulationError(
            f"successes must lie in [0, {trials}], got {successes!r}"
        )
    z = 1.96
    estimate = successes / trials
    denominator = 1.0 + z * z / trials
    centre = (estimate + z * z / (2.0 * trials)) / denominator
    half_width = (z / denominator) * math.sqrt(
        estimate * (1.0 - estimate) / trials + z * z / (4.0 * trials * trials)
    )
    return (max(centre - half_width, 0.0), min(centre + half_width, 1.0))


@dataclass
class BatchResult:
    """Per-trial outcomes plus aggregate statistics for one batch run.

    All per-trial arrays have shape ``(trials,)`` and are int64.
    ``honest_counts`` and ``adversary_counts`` (shape ``(trials, rounds)``)
    are retained only when the run was made with ``keep_traces=True``: the
    analysed tensors themselves, int32 when the engine drew them.
    """

    params: ProtocolParameters
    trials: int
    rounds: int
    draw_mode: str
    convergence_opportunities: np.ndarray
    honest_blocks: np.ndarray
    adversary_blocks: np.ndarray
    worst_deficits: np.ndarray
    honest_counts: Optional[np.ndarray] = field(default=None, repr=False)
    adversary_counts: Optional[np.ndarray] = field(default=None, repr=False)
    #: Name of the delay model the convergence mask was computed under;
    #: "fixed_delta" is the paper's worst-case model (the historical default).
    delay_model: str = "fixed_delta"

    # ------------------------------------------------------------------
    # Per-trial derived quantities
    # ------------------------------------------------------------------
    @property
    def lemma1_margins(self) -> np.ndarray:
        """Per-trial Lemma 1 margins ``C - A`` over the whole run."""
        return self.convergence_opportunities - self.adversary_blocks

    @property
    def empirical_convergence_rates(self) -> np.ndarray:
        """Per-trial convergence opportunities per round (compare to Eq. 44)."""
        return self.convergence_opportunities / self.rounds

    @property
    def empirical_adversary_rates(self) -> np.ndarray:
        """Per-trial adversarial blocks per round (compare to ``p nu n``)."""
        return self.adversary_blocks / self.rounds

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def mean_convergence_rate(self) -> float:
        """Batch mean of the per-trial convergence-opportunity rates."""
        return float(self.empirical_convergence_rates.mean())

    @property
    def convergence_rate_ci95(self) -> Tuple[float, float]:
        """95% confidence interval for the convergence-opportunity rate."""
        return _confidence_interval(self.empirical_convergence_rates)

    @property
    def mean_adversary_rate(self) -> float:
        """Batch mean of the per-trial adversarial block rates."""
        return float(self.empirical_adversary_rates.mean())

    @property
    def adversary_rate_ci95(self) -> Tuple[float, float]:
        """95% confidence interval for the adversarial block rate."""
        return _confidence_interval(self.empirical_adversary_rates)

    @property
    def lemma1_fraction(self) -> float:
        """Fraction of trials in which the Lemma 1 event ``C > A`` held."""
        return float((self.lemma1_margins > 0).mean())

    @property
    def theoretical_convergence_rate(self) -> float:
        """``alpha_bar^(2Δ) alpha1`` (Eq. 44)."""
        return self.params.convergence_opportunity_probability

    @property
    def theoretical_adversary_rate(self) -> float:
        """``p nu n`` (Eq. 27)."""
        return self.params.beta

    def deficit_exceeds(self, depth: int) -> np.ndarray:
        """Per-trial flags: some window had ``A - C >= depth`` (depth-``depth`` threat)."""
        if depth < 0:
            raise SimulationError("depth must be non-negative")
        return self.worst_deficits >= depth

    def violation_probability(self, depth: int) -> float:
        """Fraction of trials whose worst windowed deficit reached ``depth``."""
        return float(self.deficit_exceeds(depth).mean())

    def violation_ci95(self, depth: int) -> Tuple[float, float]:
        """Wilson score 95% interval for the depth-``depth`` violation probability.

        Proportion-valued, so it goes through
        :func:`proportion_confidence_interval`: a batch with zero observed
        violations reports a strictly positive upper bound instead of the
        false certainty of a zero-width normal interval.
        """
        flags = self.deficit_exceeds(depth)
        return proportion_confidence_interval(int(flags.sum()), flags.size)

    def summary(self) -> Dict[str, float]:
        """A flat dictionary of the headline numbers (for tables)."""
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
            "mean_worst_deficit": float(self.worst_deficits.mean()),
            "max_worst_deficit": int(self.worst_deficits.max()),
            "delay_model": self.delay_model,
        }


class BatchSimulation:
    """Vectorized batch Monte Carlo execution of the mining model.

    Parameters
    ----------
    params:
        Protocol parameters (``p``, ``n``, ``Δ``, ``nu``).
    rng:
        Source of randomness (generator, integer seed, seed sequence or
        ``None`` for the default seeded generator); the single generator
        drives every draw, so one seed determines the whole batch.
    draw_mode:
        ``"binomial"`` (default) or ``"bernoulli"`` — see
        :func:`draw_mining_traces`.
    delay_model:
        ``None`` or ``"fixed_delta"`` (equivalent — the paper's constant-Δ
        worst case, bit-identical to the historical engine), a registry
        name, or a :class:`~repro.simulation.topology.DelayModel` instance.
        Non-trivial models draw per-block delivery offsets *after* the two
        mining tensors (extending the draw protocol) and feed them to the
        generalized convergence-opportunity detector
        (:func:`~repro.simulation.topology.convergence_opportunity_mask_with_delays`).
    power:
        Optional heterogeneous
        :class:`~repro.simulation.topology.MiningPowerProfile`; validated
        against ``params`` before any draw.
    workspace:
        Optional :class:`~repro.backend.Workspace` the mask and drawdown
        kernels take their scratch buffers from: the ``(trials, rounds)``
        mask (the delay-mask kernel's too) plus one row tile each of mask
        and drawdown scratch.  Pass one workspace across repeated runs (as
        :class:`~repro.simulation.runner.ExperimentRunner` does) and they
        stop allocating.  Without one they allocate per call and run the
        same arithmetic.  Results never alias the workspace.

    Examples
    --------
    >>> from repro.params import parameters_from_c
    >>> params = parameters_from_c(c=4.0, n=1_000, delta=3, nu=0.2)
    >>> result = BatchSimulation(params, rng=0).run(trials=32, rounds=2_000)
    >>> result.convergence_opportunities.shape
    (32,)
    >>> bool(result.lemma1_fraction > 0.5)
    True
    """

    def __init__(
        self,
        params: ProtocolParameters,
        rng: SeedLike = None,
        draw_mode: str = "binomial",
        delay_model: Union[None, str, DelayModel] = None,
        power: Optional[MiningPowerProfile] = None,
        workspace: Optional[Workspace] = None,
    ):
        if draw_mode not in DRAW_MODES:
            raise SimulationError(
                f"draw_mode must be one of {DRAW_MODES}, got {draw_mode!r}"
            )
        self.params = params
        self.rng = resolve_rng(rng)
        self.draw_mode = draw_mode
        self.delay_model = resolve_delay_model(delay_model)
        self.power = power
        if self.power is not None:
            self.power.validate_against(params)
        self.workspace = workspace

    @property
    def _delay_model_name(self) -> str:
        return "fixed_delta" if self.delay_model is None else self.delay_model.name

    def run(
        self, trials: int, rounds: int, keep_traces: bool = False
    ) -> BatchResult:
        """Draw fresh traces for ``trials`` independent runs and analyse them.

        The draw order is honest tensor, adversarial tensor, then
        :meth:`_third_draw` — so with ``delay_model=None`` or
        ``"fixed_delta"`` a seed produces exactly the pre-topology stream.
        """
        trials, rounds = _validate_shape(trials, rounds)
        with _TRACE.span(
            "batch.run",
            trials=int(trials),
            rounds=int(rounds),
            draw_mode=self.draw_mode,
            delay_model=self._delay_model_name,
        ):
            with _TRACE.span("batch.draw"):
                honest, adversary = draw_mining_traces(
                    self.params,
                    trials,
                    rounds,
                    self.rng,
                    self.draw_mode,
                    power=self.power,
                )
                third = self._third_draw(honest, self.rng)
            return self.run_traces(
                honest, adversary, keep_traces=keep_traces, **third
            )

    def _third_draw(self, honest, rng) -> dict:
        """The draw after the two mining tensors, as ``run_traces`` keyword
        arguments: a non-trivial delay model's delay tensor and cap, else
        nothing.  The streamed engine draws each seed block through it too."""
        return _delay_draw(self.delay_model, self.params.delta, honest, rng)

    def run_traces(
        self,
        honest_counts,
        adversary_counts,
        keep_traces: bool = False,
        delays=None,
        max_delay: Optional[int] = None,
    ) -> BatchResult:
        """Analyse pre-drawn ``(trials, rounds)`` success-count tensors.

        This is the deterministic half of the engine: given the same tensors
        it always produces the same result, which is what the equivalence
        tests against the legacy simulator exercise.  ``delays`` carries
        pre-drawn per-block delivery offsets (``None`` means the constant-Δ
        worst case); ``max_delay`` (default Δ) widens the validation cap for
        time-varying models whose adversarial windows exceed Δ.
        """
        honest = _integer_tensor(honest_counts, "honest_counts")
        adversary = _integer_tensor(adversary_counts, "adversary_counts")
        if honest.ndim != 2:
            raise SimulationError(
                f"honest_counts must have shape (trials, rounds), got {honest.shape}"
            )
        if honest.shape != adversary.shape:
            raise SimulationError(
                f"honest shape {honest.shape} does not match adversary shape "
                f"{adversary.shape}"
            )
        trials, rounds = honest.shape
        if trials < 1 or rounds < 1:
            raise SimulationError(
                f"need at least one trial and one round, got shape {honest.shape}"
            )
        if honest.min() < 0 or adversary.min() < 0:
            raise SimulationError("success counts must be non-negative")
        delta = self.params.delta
        delays, cap = _checked_delays(delays, honest.shape, delta, max_delay)
        _METRICS.increment("engine.batch.trials", trials)
        _METRICS.increment("engine.batch.rounds", trials * rounds)
        with _TRACE.span("batch.mask", trials=trials, rounds=rounds):
            if delays is None:
                mask = _opportunity_mask(honest, delta, self.workspace)
            else:
                mask = _delay_opportunity_mask(
                    honest, delays, delta, cap, self.workspace
                )
        with _TRACE.span("batch.deficits", trials=trials, rounds=rounds):
            deficits, _ = _window_drawdown(mask, adversary, self.workspace)
        return BatchResult(
            params=self.params,
            trials=trials,
            rounds=rounds,
            draw_mode=self.draw_mode,
            convergence_opportunities=mask.sum(axis=1, dtype=np.int64),
            honest_blocks=honest.sum(axis=1, dtype=np.int64),
            adversary_blocks=adversary.sum(axis=1, dtype=np.int64),
            worst_deficits=deficits,
            honest_counts=honest if keep_traces else None,
            adversary_counts=adversary if keep_traces else None,
            delay_model=self._delay_model_name,
        )
