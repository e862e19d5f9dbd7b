"""Vectorized adversarial scenario engine: batch attack simulation as tensors.

The batch engine (:mod:`repro.simulation.batch`) vectorizes the *passive*
oracle path — per-round success counts, convergence opportunities, Lemma 1
margins — but every adversarial strategy (withholding, selfish mining,
maximum delay) still runs one trial at a time through the object-based
:class:`~repro.simulation.protocol.NakamotoSimulation` loop.  This module
closes that gap: it executes ``T`` independent *adversarial* trials
simultaneously, scanning over rounds once while every piece of attack state
lives in ``(trials,)`` NumPy vectors —

* the public longest-chain height (with the Δ-capped honest delivery
  pipeline kept as slot-major rows of scheduled arrival heights, one
  contiguous ``(trials,)`` row per delivery round in flight),
* the adversary's private-fork height and fork-point height, one
  ``(fork, private)`` row pair (the withheld block count is their
  difference),
* cumulative release / abandon / fork-depth / orphaned-block tallies.

Heights, fork points, leads and depths are int32 while every trial's block
total fits int32 (else int64); tallies and every array in the result are
int64.  The inputs are read through tiles of :data:`SCAN_TILE_ROUNDS`
rounds, whose "some honest block" and "some adversarial block" flags are
computed once a tile, and each round writes its release and abandon flags
and displaced depth into tile rows that fold into the tallies once a tile.

The scan reproduces the legacy round phases *exactly*: start-of-round
deliveries, honest mining on the delivered public chain, sequential
adversarial mining on the strategy's parent, the strategy's release decision
against the pre-release public height, and the end-of-round delivery of
zero-delay broadcasts.  One modelling convention makes the two engines
bit-comparable rather than merely equal in distribution: honest block
attribution is *scripted* by :func:`rotating_honest_attribution`, a rotating
assignment of miner ids under which no honest miner ever mines again while
its previous block is still in flight — so every honest block mined in round
``r`` sits at exactly ``public_height(r) + 1`` in both engines.  (The event
this convention excludes — the same miner succeeding twice within one delay
window — has probability ``O(alpha^2 Δ / (mu n))`` per round and vanishes in
the paper's large-``n`` regime; the engine refuses, with
:class:`~repro.errors.SimulationError`, any trace where the convention is
infeasible.)  The seeded equivalence tests replay the engine's pre-drawn
traces through :class:`NakamotoSimulation` via
:class:`~repro.simulation.oracle.ScriptedMiningOracle` and require identical
per-round public/private heights, release rounds and fork-depth tallies for
every registered strategy.

Scenarios are named, registered descriptions of an adversary —
``passive``, ``max_delay``, ``private_chain`` and ``selfish_mining`` ship by
default — and every :class:`Scenario` can also build the corresponding
legacy :class:`~repro.simulation.adversary.AdversaryStrategy`, which stays
the reference implementation.

Partial partitions: a cut inside the scan
-----------------------------------------
A :class:`~repro.simulation.dynamics.PartitionScenario` with a
``cut_fraction`` splits the honest network in two for the scheduled window:
a minority component holding that fraction of the honest mining power and
the majority complement.  The same round scan prices every scenario; for a
partial cut it runs a second component beside component 0 inside each
window — its own public height and delivery ring, forked from the common
prefix frozen at the cut round — and outside every window the round body
is the one every other scenario runs.  Honest successes are allocated
binomially between the components (the ``split`` tensor, drawn after the
honest and adversarial tensors), each component runs the legacy
constant-Δ delivery pipeline internally, and nothing crosses the cut until
the heal.  The single private chain races the higher of the two public
chains and releases to both.  At the merge round the higher chain wins and
the displaced depth of the losing component — its height above the common
prefix — is tallied (``merge_depths``, also folded into
``deepest_forks``): the majority/minority race a single public height
silently mispriced.  Conventions, shared bit-exactly with the pure-Python
:func:`reference_partition_scan`: the common prefix does not advance on
honest mining inside the window (pre-cut in-flight blocks deliver to both
sides but the last-Δ suffix is adversarially unconverged, the worst case);
reconciliation at the heal is instantaneous; a window still open when the
run ends is flushed without a merge tally, exactly like an in-flight
release.

The ``equivocation`` kind rides on that cut: outside the window it is the
``private_chain`` state machine, and inside it the adversary maintains one
private chain *per component* — duplicated at the cut, extended by feeding
each round's blocks to the weaker race, released to its own component
only (through the :class:`~repro.simulation.dynamics.AdversaryPlacement`
gossip path when one is wired), so the components are kept on conflicting
chains and the heal itself displaces a suffix.  At the merge the chain
racing the winning component survives as the single private chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..backend import Workspace, binomial
from ..backend.workspace import _tile_rows
from ..errors import SimulationError
from ..observability import METRICS as _METRICS, TRACE as _TRACE
from ..params import ProtocolParameters
from .adversary import (
    AdversaryStrategy,
    EquivocationAdversary,
    MaxDelayAdversary,
    PassiveAdversary,
    PrivateChainAdversary,
    SelfishMiningAdversary,
)
from .batch import (
    DRAW_MODES,
    _confidence_interval,
    _delay_draw,
    _opportunity_mask,
    _validate_shape,
    _window_drawdown,
    draw_mining_traces,
    proportion_confidence_interval,
)
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
    "SCENARIO_KINDS",
    "Scenario",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "rotating_honest_attribution",
    "reference_partition_scan",
    "ScenarioResult",
    "ScenarioSimulation",
]

#: The adversary state machines the engine knows how to vectorize.
SCENARIO_KINDS = ("publish", "private_chain", "selfish_mining", "equivocation")

#: Kinds a partial cut can price (the withholding state machines;
#: ``publish`` scenarios have no private chain to race per side).
PARTITION_KINDS = ("private_chain", "selfish_mining", "equivocation")

#: Rounds per tile of the scan's round-major inputs (128 KB an int32 input
#: at 2,000 trials, where whole int64 copies took 16 MB).
SCAN_TILE_ROUNDS = 16

#: Trials per block of a tile's transposed copy (:func:`_transpose_into`).
TRANSPOSE_TRIALS = 512


@dataclass(frozen=True)
class Scenario:
    """A named, declarative description of one adversarial strategy.

    Parameters
    ----------
    name:
        Registry / cache-key identifier.
    kind:
        The adversary state machine: ``"publish"`` (mine on the public tip,
        publish every block immediately — the passive and maximum-delay
        adversaries), ``"private_chain"`` (the PSS Remark 8.5 withholding
        attack), ``"selfish_mining"`` (Eyal-Sirer adapted to the round
        model) or ``"equivocation"`` (one private chain per partition
        component, released to its own side only — meaningful solely on a
        partial-cut :class:`~repro.simulation.dynamics.PartitionScenario`,
        where the scan runs a second network component inside the cut).
    honest_delay:
        The delay (in rounds, capped by Δ) the adversary imposes on every
        honest block.  ``None`` means the full Δ; ``publish`` scenarios may
        choose any value in ``[0, Δ]``, while the two withholding kinds
        always delay by Δ (their legacy reference strategies hard-code it).
    target_depth:
        ``private_chain`` / ``equivocation``: the minimum public-suffix
        depth a release must displace (the ``T`` whose consistency the
        attack breaks; per component for ``equivocation``).
    give_up_deficit:
        ``private_chain`` / ``equivocation``: abandon the fork once it
        falls this many blocks behind the public chain it races; ``None``
        never gives up.
    """

    name: str
    kind: str
    honest_delay: Optional[int] = None
    target_depth: int = 6
    give_up_deficit: Optional[int] = 12

    def __post_init__(self) -> None:
        if not self.name:
            raise SimulationError("scenario name must be non-empty")
        if self.kind not in SCENARIO_KINDS:
            raise SimulationError(
                f"scenario kind must be one of {SCENARIO_KINDS}, got {self.kind!r}"
            )
        if self.honest_delay is not None and self.honest_delay < 0:
            raise SimulationError(
                f"honest_delay must be >= 0 or None, got {self.honest_delay!r}"
            )
        if self.kind != "publish" and self.honest_delay is not None:
            raise SimulationError(
                f"{self.kind} scenarios always impose the full delay Delta; "
                "leave honest_delay as None"
            )
        if self.target_depth < 1:
            raise SimulationError(
                f"target_depth must be >= 1, got {self.target_depth!r}"
            )
        if self.give_up_deficit is not None and self.give_up_deficit < 1:
            raise SimulationError(
                f"give_up_deficit must be >= 1 or None, got {self.give_up_deficit!r}"
            )

    # ------------------------------------------------------------------
    # Resolution against a concrete parameter point
    # ------------------------------------------------------------------
    def resolved_honest_delay(self, delta: int) -> int:
        """The per-block honest delay for a run with cap ``delta``.

        Raises :class:`SimulationError` when the scenario demands a delay
        beyond the Δ cap — the same guarantee
        :class:`~repro.simulation.network.DeltaDelayNetwork` enforces.
        """
        delay = delta if self.honest_delay is None else self.honest_delay
        if not (0 <= delay <= delta):
            raise SimulationError(
                f"scenario {self.name!r} imposes delay {delay} beyond the "
                f"Delta cap {delta}"
            )
        return delay

    def build_adversary(self, delta: int) -> AdversaryStrategy:
        """The legacy reference :class:`AdversaryStrategy` for this scenario."""
        if self.kind == "publish":
            delay = self.resolved_honest_delay(delta)
            if delay == delta:
                return MaxDelayAdversary(delta)
            return PassiveAdversary(delta, honest_delay=delay)
        if self.kind == "private_chain":
            return PrivateChainAdversary(
                delta,
                target_depth=self.target_depth,
                give_up_deficit=self.give_up_deficit,
            )
        if self.kind == "equivocation":
            # The legacy engine has no network components, so the reference
            # strategy is the merged-network projection: plain withholding.
            return EquivocationAdversary(
                delta,
                target_depth=self.target_depth,
                give_up_deficit=self.give_up_deficit,
            )
        return SelfishMiningAdversary(delta)

    @property
    def success_depth(self) -> int:
        """The fork depth that counts as a successful attack for this scenario."""
        if self.kind in ("private_chain", "equivocation"):
            return self.target_depth
        return 1

    def payload(self) -> Dict[str, object]:
        """Primary fields as a plain dict (cache keys / reconstruction)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "honest_delay": self.honest_delay,
            "target_depth": self.target_depth,
            "give_up_deficit": self.give_up_deficit,
        }


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Scenario] = {}


def register_scenario(scenario: Scenario, overwrite: bool = False) -> Scenario:
    """Add a scenario to the registry (refusing silent redefinition)."""
    if scenario.name in _REGISTRY and not overwrite:
        raise SimulationError(
            f"scenario {scenario.name!r} is already registered; "
            "pass overwrite=True to replace it"
        )
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(scenario: Union[str, Scenario]) -> Scenario:
    """Resolve a registry name (or pass a :class:`Scenario` through)."""
    if isinstance(scenario, Scenario):
        return scenario
    try:
        return _REGISTRY[scenario]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise SimulationError(
            f"unknown scenario {scenario!r}; registered scenarios: {known}"
        ) from None


def list_scenarios() -> List[str]:
    """Names of all registered scenarios, sorted."""
    return sorted(_REGISTRY)


register_scenario(Scenario(name="passive", kind="publish", honest_delay=0))
register_scenario(Scenario(name="max_delay", kind="publish"))
register_scenario(Scenario(name="private_chain", kind="private_chain"))
register_scenario(Scenario(name="selfish_mining", kind="selfish_mining"))


def _transpose_into(rows, tensor, start: int, stop: int) -> None:
    """Copy ``tensor[:, start:stop]`` into ``rows`` (round-major), a block
    of trials at a time: a narrow block keeps the strided reads on few pages,
    which makes the copy about twice as fast as one whole-column transpose."""
    for first in range(0, tensor.shape[0], TRANSPOSE_TRIALS):
        last = first + TRANSPOSE_TRIALS
        np.copyto(rows[:, first:last], tensor[first:last, start:stop].T)


# ----------------------------------------------------------------------
# Scripted honest attribution
# ----------------------------------------------------------------------
def _max_window_successes(honest_counts, window: int) -> int:
    """Largest number of honest successes in any ``window`` consecutive rounds."""
    counts = np.asarray(honest_counts, dtype=np.int64)
    if counts.ndim == 1:
        counts = counts[None, :]
    if counts.size == 0:
        return 0
    if window <= 1:
        return int(counts.max())
    padded = np.pad(counts, ((0, 0), (0, window - 1)))
    cumulative = np.concatenate(
        [
            np.zeros((padded.shape[0], 1), dtype=np.int64),
            np.cumsum(padded, axis=1, dtype=np.int64),
        ],
        axis=1,
    )
    windows = cumulative[:, window:] - cumulative[:, :-window]
    return int(windows.max())


def _require_attribution_feasible(
    honest_counts, honest_miners: int, honest_delay: int
) -> None:
    """Raise unless rotating attribution avoids in-flight re-selection.

    A miner that mined in round ``r`` receives its own block back at the
    start of round ``r + d`` (``d`` = honest delay); rotating ids re-select
    it inside that window only when some ``d``-round span holds more than
    ``honest_miners`` successes.
    """
    window = max(honest_delay, 1)
    counts = np.asarray(honest_counts)
    # No window holds more than ``window`` busiest rounds, so the exact scan
    # runs only when that bound alone cannot clear the trace.
    if counts.size == 0 or window * int(counts.max()) <= honest_miners:
        return
    worst = _max_window_successes(counts, window)
    if worst > honest_miners:
        raise SimulationError(
            f"cannot attribute {worst} honest successes within a "
            f"{window}-round delivery window to {honest_miners} distinct "
            "miners; increase n or shorten the delay"
        )


def rotating_honest_attribution(
    honest_counts: Sequence[int], honest_miners: int, honest_delay: int
) -> List[np.ndarray]:
    """Per-round honest miner ids under the engine's rotating convention.

    Round ``r``'s ``h_r`` successes are attributed to the next ``h_r`` ids in
    a round-robin over ``0..honest_miners-1``, so no miner is re-selected
    while its previous block is still in flight (guaranteed feasible, or
    :class:`SimulationError`).  Feeding the returned schedule to
    :class:`~repro.simulation.oracle.ScriptedMiningOracle` makes the legacy
    simulator follow the scenario engine's honest-mining semantics exactly.
    """
    if honest_miners < 1:
        raise SimulationError(
            f"honest_miners must be >= 1, got {honest_miners!r}"
        )
    counts = np.asarray(honest_counts, dtype=np.int64)
    if counts.ndim != 1:
        raise SimulationError("honest_counts must be 1-dimensional")
    if (counts < 0).any():
        raise SimulationError("honest_counts must be non-negative")
    _require_attribution_feasible(counts, honest_miners, honest_delay)
    schedule: List[np.ndarray] = []
    cursor = 0
    for count in counts:
        count = int(count)
        schedule.append((cursor + np.arange(count, dtype=np.int64)) % honest_miners)
        cursor = (cursor + count) % honest_miners
    return schedule


# ----------------------------------------------------------------------
# Pure-Python per-trial reference for the scan under a partial cut
# ----------------------------------------------------------------------
def reference_partition_scan(
    honest_counts: Sequence[int],
    adversary_counts: Sequence[int],
    split_counts: Optional[Sequence[int]] = None,
    *,
    delta: int,
    windows: Sequence[Tuple[int, int]] = (),
    kind: str = "private_chain",
    target_depth: int = 6,
    give_up_deficit: Optional[int] = 12,
    release_delay: int = 0,
) -> Dict[str, object]:
    """One trial of the scan under a partial cut, in plain Python.

    This is the executable specification the vectorized
    :meth:`ScenarioSimulation._scan` must match *bit for bit* on a
    partial-cut scenario:
    the equivalence tests sweep a (nu, Δ, cut-fraction, duration) grid and
    compare every tally and per-round record, and the equivocation
    benchmark uses it as the per-trial baseline for the speedup gate.

    ``windows`` holds disjoint, sorted ``[start, end)`` cut windows in
    0-indexed scan rounds (see
    :func:`~repro.simulation.dynamics.partition_windows`).  During a window
    honest successes split between the majority component 0
    (``honest - split``) and the minority component 1 (``split``), each
    component runs its own Δ-delay ring, and the common prefix is frozen at
    the cut round; the heal merges max-height-wins and tallies the losing
    side's displaced depth.  Outside every window the scan is exactly the
    aggregate engine's constant-delay path.
    """
    if kind not in PARTITION_KINDS:
        raise SimulationError(
            f"the partition scan prices kinds {PARTITION_KINDS}, got {kind!r}"
        )
    if delta < 1:
        raise SimulationError(f"delta must be >= 1, got {delta!r}")
    if release_delay < 0:
        raise SimulationError(
            f"release_delay must be >= 0, got {release_delay!r}"
        )
    honest = [int(count) for count in honest_counts]
    adversary = [int(count) for count in adversary_counts]
    rounds = len(honest)
    split = (
        [0] * rounds if split_counts is None else [int(s) for s in split_counts]
    )
    if len(adversary) != rounds or len(split) != rounds:
        raise SimulationError("trace lengths must match")
    window_list = sorted((int(start), int(end)) for start, end in windows)
    starts = {start: end for start, end in window_list if start < rounds}
    equivocating = kind == "equivocation"

    pub = [0, 0]
    ring = [[0] * delta, [0] * delta]
    rel_h = [[0] * release_delay, [0] * release_delay]
    rel_f = [[0] * release_delay, [0] * release_delay]
    priv = [0, 0]
    fork = [0, 0]
    active = [False, False]
    withheld = [0, 0]
    common = 0
    cut = False
    cut_end = -1
    releases = abandons = deepest = orphaned = merge_depth = 0
    public_heights: List[int] = []
    private_heights: List[int] = []
    release_mask: List[bool] = []
    abandon_mask: List[bool] = []

    for index in range(rounds):
        # Phase 0a: merge-on-heal — max height wins, the losing component's
        # suffix above the frozen common prefix is the displaced depth.
        if cut and index == cut_end:
            winner = 0 if pub[0] >= pub[1] else 1
            displaced = pub[1 - winner] - common
            merge_depth = max(merge_depth, displaced)
            deepest = max(deepest, displaced)
            pub[0] = pub[winner]
            ring[0] = [max(a, b) for a, b in zip(ring[0], ring[1])]
            for slot in range(release_delay):
                if rel_h[1][slot] > rel_h[0][slot]:
                    rel_h[0][slot] = rel_h[1][slot]
                    rel_f[0][slot] = rel_f[1][slot]
            if equivocating:
                # The chain racing the winning component survives; the one
                # racing the displaced chain forked from a dead branch.
                if winner == 1:
                    priv[0], fork[0] = priv[1], fork[1]
                    active[0], withheld[0] = active[1], withheld[1]
                priv[1] = fork[1] = withheld[1] = 0
                active[1] = False
            cut = False
            common = 0
        # Phase 0b: cut entry — both components start from the merged state;
        # the common prefix freezes at the pre-cut public height.
        if not cut and index in starts:
            cut = True
            cut_end = starts[index]
            pub[1] = pub[0]
            ring[1] = list(ring[0])
            rel_h[1] = list(rel_h[0])
            rel_f[1] = list(rel_f[0])
            common = pub[0]
            if equivocating:
                priv[1], fork[1] = priv[0], fork[0]
                active[1], withheld[1] = active[0], withheld[0]

        components = (0, 1) if cut else (0,)

        # Phase 1: start-of-round ring deliveries, per component.
        slot = index % delta
        for c in components:
            pub[c] = max(pub[c], ring[c][slot])

        # Phase 1b: landing of in-flight adversarial releases.
        if release_delay >= 1:
            release_slot = index % release_delay
            if equivocating and cut:
                # Per-component conflicting releases: each lands on its own
                # side only and never advances the common prefix.
                for c in components:
                    landing = rel_h[c][release_slot]
                    if landing > 0:
                        if landing > pub[c]:
                            landed = pub[c] - rel_f[c][release_slot]
                            deepest = max(deepest, landed)
                            pub[c] = landing
                        rel_h[c][release_slot] = 0
                        rel_f[c][release_slot] = 0
            else:
                # Single-chain release, mirrored into both rings during a
                # cut: the adversary spans the cut, so it lands everywhere.
                landing = rel_h[0][release_slot]
                if landing > 0:
                    landed = 0
                    displaced_everywhere = True
                    for c in components:
                        if landing > pub[c]:
                            landed = max(
                                landed, pub[c] - rel_f[c][release_slot]
                            )
                        else:
                            displaced_everywhere = False
                    if kind == "selfish_mining":
                        orphaned += landed
                    deepest = max(deepest, landed)
                    if cut and displaced_everywhere:
                        common = landing
                    for c in components:
                        pub[c] = max(pub[c], landing)
                        rel_h[c][release_slot] = 0
                        rel_f[c][release_slot] = 0

        # Phase 2: honest mining — the minority component mines the split
        # share; every component's successes sit one above its own tip.
        total = honest[index]
        minority = split[index] if cut else 0
        counts = [total - minority, minority]
        mined = [0, 0]
        for c in components:
            mined[c] = pub[c] + 1
            ring[c][slot] = mined[c] if counts[c] > 0 else 0

        # Phases 3/4: adversarial mining and the release decision.
        mined_adversary = adversary[index]
        released_any = False
        abandoned_any = False
        if equivocating and cut:
            # Feed the weaker race: the whole round's successes extend the
            # chain with the smaller lead (minority side on a full tie).
            lead0 = priv[0] - pub[0]
            lead1 = priv[1] - pub[1]
            choose1 = lead1 < lead0 or (lead1 == lead0 and pub[1] < pub[0])
            allocation = [0, mined_adversary] if choose1 else [mined_adversary, 0]
            for c in (0, 1):
                if allocation[c] > 0 and not active[c]:
                    fork[c] = pub[c]
                    priv[c] = pub[c]
                priv[c] += allocation[c]
                withheld[c] += allocation[c]
                active[c] = active[c] or allocation[c] > 0
            for c in (0, 1):
                lead = priv[c] - pub[c]
                depth = pub[c] - fork[c]
                released = lead > 0 and depth >= target_depth
                abandoned = (
                    give_up_deficit is not None
                    and active[c]
                    and lead <= -give_up_deficit
                )
                if released:
                    releases += 1
                    released_any = True
                    if release_delay >= 1:
                        rel_h[c][release_slot] = priv[c]
                        rel_f[c][release_slot] = fork[c]
                    else:
                        deepest = max(deepest, depth)
                        pub[c] = priv[c]
                if abandoned:
                    abandons += 1
                    abandoned_any = True
                if released or abandoned:
                    priv[c] = fork[c] = withheld[c] = 0
                    active[c] = False
        else:
            # Single private chain racing the best public chain it can see.
            best = max(pub[c] for c in components)
            if mined_adversary > 0 and not active[0]:
                fork[0] = best
                priv[0] = best
            priv[0] += mined_adversary
            withheld[0] += mined_adversary
            active[0] = active[0] or mined_adversary > 0
            lead = priv[0] - best
            depth = best - fork[0]
            if kind == "selfish_mining":
                abandoned = active[0] and lead <= -1
                released = active[0] and 0 <= lead <= 1
            else:
                abandoned = (
                    give_up_deficit is not None
                    and active[0]
                    and lead <= -give_up_deficit
                )
                released = lead > 0 and depth >= target_depth
            if released:
                releases += 1
                released_any = True
                if release_delay >= 1:
                    for c in components:
                        rel_h[c][release_slot] = priv[0]
                        rel_f[c][release_slot] = fork[0]
                else:
                    if kind == "selfish_mining":
                        orphaned += depth
                    deepest = max(deepest, depth)
                    for c in components:
                        pub[c] = priv[0]
                    if cut:
                        # The release is one chain adopted by both sides:
                        # the components re-converge on the private chain.
                        common = priv[0]
            if abandoned:
                abandons += 1
                abandoned_any = True
            if released or abandoned:
                priv[0] = fork[0] = withheld[0] = 0
                active[0] = False

        public_heights.append(max(pub[c] for c in components))
        private_heights.append(max(priv) if (equivocating and cut) else priv[0])
        release_mask.append(released_any)
        abandon_mask.append(abandoned_any)

    # Network flush: in-flight honest blocks and adversarial releases all
    # arrive eventually; a still-open window never merges (no depth tally),
    # exactly like a release the run ended before the network saw land.
    final = 0
    for c in (0, 1) if cut else (0,):
        final = max(final, pub[c], max(ring[c]))
        if release_delay >= 1:
            final = max(final, max(rel_h[c]))
    withheld_final = max(withheld[0], withheld[1]) if cut else withheld[0]

    return {
        "releases": releases,
        "abandons": abandons,
        "deepest_fork": deepest,
        "orphaned_honest": orphaned,
        "withheld_final": withheld_final,
        "final_public_height": final,
        "merge_depth": merge_depth,
        "public_heights": public_heights,
        "private_heights": private_heights,
        "release_mask": release_mask,
        "abandon_mask": abandon_mask,
    }


# ----------------------------------------------------------------------
# Result object
# ----------------------------------------------------------------------
@dataclass
class ScenarioResult:
    """Per-trial attack outcomes plus aggregate statistics for one batch run.

    All per-trial arrays have shape ``(trials,)``.  The per-round record
    tensors (shape ``(trials, rounds)``) are retained only when the run was
    made with ``record_rounds=True``; the raw success-count tensors only
    with ``keep_traces=True``.
    """

    params: ProtocolParameters
    scenario: Scenario
    trials: int
    rounds: int
    draw_mode: str
    honest_delay: int
    releases: np.ndarray
    deepest_forks: np.ndarray
    orphaned_honest: np.ndarray
    abandons: np.ndarray
    withheld_final: np.ndarray
    final_public_heights: np.ndarray
    honest_blocks: np.ndarray
    adversary_blocks: np.ndarray
    convergence_opportunities: np.ndarray
    worst_deficits: np.ndarray
    public_heights: Optional[np.ndarray] = field(default=None, repr=False)
    private_heights: Optional[np.ndarray] = field(default=None, repr=False)
    release_mask: Optional[np.ndarray] = field(default=None, repr=False)
    abandon_mask: Optional[np.ndarray] = field(default=None, repr=False)
    decision_leads: Optional[np.ndarray] = field(default=None, repr=False)
    decision_fork_depths: Optional[np.ndarray] = field(default=None, repr=False)
    honest_counts: Optional[np.ndarray] = field(default=None, repr=False)
    adversary_counts: Optional[np.ndarray] = field(default=None, repr=False)
    #: Name of the delay model governing honest delivery, or ``None`` when
    #: the scenario's own constant ``honest_delay`` applied (the legacy path).
    delay_model: Optional[str] = None
    #: Rounds an adversarial release took to reach the honest miners (0 =
    #: the legacy perfectly-connected adversary; see ``AdversaryPlacement``).
    release_delay: int = 0
    #: Deepest suffix displaced at a partition heal, per trial (all zeros
    #: unless the scenario is a partial cut — only a heal can merge).
    merge_depths: Optional[np.ndarray] = field(default=None, repr=False)
    #: ``(trials, rounds, 2)`` per-component public heights (majority,
    #: minority; both columns equal outside a cut window), kept only for a
    #: partial-cut scenario under ``record_rounds=True``.
    component_heights: Optional[np.ndarray] = field(default=None, repr=False)

    # ------------------------------------------------------------------
    # Attack-success statistics
    # ------------------------------------------------------------------
    def attack_success_mask(self, depth: Optional[int] = None) -> np.ndarray:
        """Per-trial flags: the attack displaced a suffix at least this deep.

        ``depth`` defaults to the scenario's success depth (the withholding
        target for ``private_chain``, one orphaned block otherwise).
        """
        depth = self.scenario.success_depth if depth is None else depth
        if depth < 1:
            raise SimulationError(f"depth must be >= 1, got {depth!r}")
        return self.deepest_forks >= depth

    @property
    def attack_success_probability(self) -> float:
        """Fraction of trials in which the attack succeeded."""
        return float(self.attack_success_mask().mean())

    @property
    def attack_success_ci95(self) -> Tuple[float, float]:
        """Wilson score 95% interval for the attack-success probability.

        Proportion-valued over 0-1 outcomes, so it uses
        :func:`~repro.simulation.batch.proportion_confidence_interval`:
        all-failure and all-success batches report honest non-degenerate
        bounds instead of a zero-width normal interval.
        """
        mask = self.attack_success_mask()
        return proportion_confidence_interval(int(mask.sum()), mask.size)

    @property
    def mean_deepest_fork(self) -> float:
        """Batch mean of the per-trial deepest displaced suffix."""
        return float(self.deepest_forks.mean())

    @property
    def deepest_fork_ci95(self) -> Tuple[float, float]:
        """95% confidence interval for the mean deepest fork."""
        return _confidence_interval(self.deepest_forks)

    @property
    def max_deepest_fork(self) -> int:
        """Deepest displaced suffix across all trials."""
        return int(self.deepest_forks.max(initial=0))

    # ------------------------------------------------------------------
    # Chain statistics
    # ------------------------------------------------------------------
    @property
    def growth_rates(self) -> np.ndarray:
        """Per-trial public chain growth (blocks per round).

        Convention (audited against the legacy per-trial simulator, which
        labels rounds 1..rounds): ``final_public_heights`` includes the
        end-of-run network flush — blocks still in flight when mining stops
        are delivered before the height is read — and the denominator is the
        number of mining rounds.  This matches
        ``SimulationResult.growth_rate`` bit-for-bit; there is no off-by-one
        between the engines, and the golden test pins it.
        """
        return self.final_public_heights / self.rounds

    @property
    def empirical_convergence_rates(self) -> np.ndarray:
        """Per-trial convergence opportunities per round (compare to Eq. 44)."""
        return self.convergence_opportunities / self.rounds

    @property
    def lemma1_margins(self) -> np.ndarray:
        """Per-trial Lemma 1 margins ``C - A`` over the whole run."""
        return self.convergence_opportunities - self.adversary_blocks

    @property
    def lemma1_fraction(self) -> float:
        """Fraction of trials in which the Lemma 1 event ``C > A`` held."""
        return float((self.lemma1_margins > 0).mean())

    def release_rounds(self, trial: int) -> np.ndarray:
        """1-indexed rounds at which ``trial`` released a private chain."""
        if self.release_mask is None:
            raise SimulationError(
                "per-round records were not kept; run with record_rounds=True"
            )
        return np.nonzero(self.release_mask[trial])[0] + 1

    def abandon_rounds(self, trial: int) -> np.ndarray:
        """1-indexed rounds at which ``trial`` abandoned its private fork."""
        if self.abandon_mask is None:
            raise SimulationError(
                "per-round records were not kept; run with record_rounds=True"
            )
        return np.nonzero(self.abandon_mask[trial])[0] + 1

    def summary(self) -> Dict[str, object]:
        """A flat dictionary of the headline numbers (for tables)."""
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
            "max_deepest_fork": self.max_deepest_fork,
            "mean_releases": float(self.releases.mean()),
            "mean_abandons": float(self.abandons.mean()),
            "mean_orphaned_honest": float(self.orphaned_honest.mean()),
            "mean_growth_rate": float(self.growth_rates.mean()),
            "lemma1_fraction": self.lemma1_fraction,
            "delay_model": self.delay_model,
            "release_delay": self.release_delay,
            "mean_merge_depth": (
                0.0
                if self.merge_depths is None
                else float(self.merge_depths.mean())
            ),
        }


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
class ScenarioSimulation:
    """NumPy-vectorized batch execution of one adversarial scenario.

    Parameters
    ----------
    params:
        Protocol parameters (``p``, ``n``, ``Δ``, ``nu``).
    scenario:
        A registry name (``"passive"``, ``"max_delay"``, ``"private_chain"``,
        ``"selfish_mining"``) or a :class:`Scenario` instance.
    rng:
        Source of randomness; the draw protocol is exactly
        :func:`~repro.simulation.batch.draw_mining_traces`, so one seed
        determines the whole batch and the scripted-replay harness can
        regenerate it.
    draw_mode:
        ``"binomial"`` (default) or ``"bernoulli"``.
    delay_model:
        ``None`` (default) keeps the scenario's own constant
        ``honest_delay`` — the legacy, bit-exact path — unless the scenario
        itself schedules a network cut (a
        :class:`~repro.simulation.dynamics.PartitionScenario`), in which
        case the matching
        :class:`~repro.simulation.dynamics.TimeVaryingDelayModel` is built
        automatically.  A registry name or
        :class:`~repro.simulation.topology.DelayModel` instance replaces the
        adversary-chosen constant with structural per-block delivery offsets
        drawn from the model; ``"fixed_delta"`` is the constant-Δ worst
        case, bit-identical to the legacy path for every scenario whose
        honest delay is Δ (``max_delay`` and both withholding kinds).
        Time-varying models may exceed Δ inside adversarial windows; the
        delivery pipeline is sized from the model's
        :meth:`~repro.simulation.topology.DelayModel.delay_cap`.
    power:
        Optional heterogeneous
        :class:`~repro.simulation.topology.MiningPowerProfile`; validated
        against ``params`` before any draw.
    workspace:
        Optional :class:`~repro.backend.Workspace` of preallocated scratch
        buffers for the scan state and window kernels; pass one workspace
        across repeated runs (as the runner does) and the hot loops stop
        allocating (per-call round tiles and delay-mask panels stay out of
        it).  Results never alias the workspace.
    placement:
        Optional :class:`~repro.simulation.dynamics.AdversaryPlacement`
        (any object with a ``release_delay(topology, delta)`` method and a
        ``kind``).  ``None`` or an ``instant`` placement keeps the legacy
        assumption that adversarial releases reach every honest miner in
        the release round; other placements make releases propagate through
        gossip from the adversary's graph position — the release lands
        ``release_delay`` rounds later, and the displaced suffix is
        measured when it lands.  Only meaningful for withholding scenarios
        (``publish`` kinds broadcast continuously and reject non-instant
        placements).

    Examples
    --------
    >>> from repro.params import parameters_from_c
    >>> params = parameters_from_c(c=1.0, n=400, delta=3, nu=0.4)
    >>> result = ScenarioSimulation(params, "private_chain", rng=0).run(16, 2_000)
    >>> result.releases.shape
    (16,)
    >>> 0.0 <= result.attack_success_probability <= 1.0
    True
    """

    def __init__(
        self,
        params: ProtocolParameters,
        scenario: Union[str, Scenario] = "passive",
        rng: SeedLike = None,
        draw_mode: str = "binomial",
        delay_model: Union[None, str, DelayModel] = None,
        power: Optional[MiningPowerProfile] = None,
        placement=None,
        workspace: Optional[Workspace] = None,
    ):
        if draw_mode not in DRAW_MODES:
            raise SimulationError(
                f"draw_mode must be one of {DRAW_MODES}, got {draw_mode!r}"
            )
        self.workspace = workspace
        self.params = params
        self.scenario = get_scenario(scenario)
        # A PartitionScenario with a cut_fraction prices the cut as a real
        # two-component chain race (majority vs minority) inside the scan;
        # it owns its delivery semantics, so it takes no delay model.
        self._cut_fraction = getattr(self.scenario, "cut_fraction", None)
        if self.scenario.kind == "equivocation" and self._cut_fraction is None:
            raise SimulationError(
                "equivocation needs two network components to show "
                "conflicting chains to; set cut_fraction on the scenario"
            )
        if self._cut_fraction is not None:
            if self.scenario.kind not in PARTITION_KINDS:
                raise SimulationError(
                    f"partial partitions price kinds {PARTITION_KINDS}, got "
                    f"{self.scenario.kind!r}"
                )
            if delay_model is not None:
                raise SimulationError(
                    "partial-cut scenarios own their delivery semantics (the "
                    "scan's two-component cut); an explicit delay_model "
                    "cannot be combined with cut_fraction"
                )
            self.delay_model = None
        else:
            self.delay_model = resolve_delay_model(delay_model)
            # A scenario that schedules its own network cut supplies the
            # matching time-varying delay model (duck-typed so this module
            # does not need to import repro.simulation.dynamics).
            builder = getattr(self.scenario, "build_delay_model", None)
            if self.delay_model is None and builder is not None:
                self.delay_model = builder()
            self._check_partial_partition_events()
        if self.delay_model is None:
            self.honest_delay = self.scenario.resolved_honest_delay(params.delta)
        else:
            # The model governs honest delivery; the Δ cap is the constant
            # bound every *static* draw respects (time-varying models widen
            # the pipeline via delay_cap at run time).
            self.honest_delay = params.delta
        self._init_placement(placement)
        self.rng = resolve_rng(rng)
        self.draw_mode = draw_mode
        self.power = power
        if self.power is not None:
            self.power.validate_against(params)
        self.honest_miners = max(int(round(params.honest_count)), 1)

    def _init_placement(self, placement) -> None:
        self.placement = placement
        if placement is None or placement.kind == "instant":
            self.release_delay = 0
            return
        if self.scenario.kind == "publish":
            raise SimulationError(
                "publish scenarios broadcast continuously; adversary "
                "placement applies only to withholding scenarios"
            )
        topology = getattr(self.delay_model, "topology", None)
        self.release_delay = int(
            placement.release_delay(topology, self.params.delta)
        )
        if not (0 <= self.release_delay <= self.params.delta):
            raise SimulationError(
                f"placement release delay {self.release_delay} lies "
                f"outside [0, {self.params.delta}]"
            )

    def _check_partial_partition_events(self) -> None:
        """Refuse to misprice a partial cut on the aggregate-height path.

        A ``PartitionEvent`` with an explicit node set leaves the remaining
        honest miners connected: two components, two chain races.  The
        aggregate path tracks one public height, which is exact only for
        full eclipses, so routing a partial cut through it would silently
        underprice the majority/minority race — price it with
        ``cut_fraction`` (the scan's two-component cut) instead.
        """
        schedule = getattr(self.delay_model, "schedule", None)
        if schedule is None:
            return
        partial = [
            event
            for event in schedule.events
            if event.payload().get("kind") == "partition"
            and event.payload().get("nodes") is not None
        ]
        if partial:
            raise SimulationError(
                f"{len(partial)} partition event(s) cut an explicit node set, "
                "leaving the rest of the network connected; the aggregate "
                "single-height scan misprices that two-component race. Use a "
                "PartitionScenario with cut_fraction to price it exactly."
            )

    def run(
        self,
        trials: int,
        rounds: int,
        keep_traces: bool = False,
        record_rounds: bool = False,
    ) -> ScenarioResult:
        """Draw fresh traces for ``trials`` independent runs and simulate them.

        Draw order: honest tensor, adversarial tensor, then
        :meth:`_third_draw` — ``fixed_delta`` consumes no entropy, so its
        stream matches the legacy engine's exactly.
        """
        trials, rounds = _validate_shape(trials, rounds)
        with _TRACE.span(
            "scenario.run",
            scenario=self.scenario.name,
            trials=int(trials),
            rounds=int(rounds),
            draw_mode=self.draw_mode,
        ):
            with _TRACE.span("scenario.draw"):
                honest, adversary = draw_mining_traces(
                    self.params,
                    trials,
                    rounds,
                    self.rng,
                    self.draw_mode,
                    power=self.power,
                )
                # A partial cut's minority split is timed with the mining
                # draws; delays keep a span of their own.
                third = (
                    None
                    if self._cut_fraction is None
                    else self._third_draw(honest, self.rng)
                )
            if third is None:
                with _TRACE.span("scenario.draw_delays"):
                    third = self._third_draw(honest, self.rng)
            return self.run_traces(
                honest,
                adversary,
                keep_traces=keep_traces,
                record_rounds=record_rounds,
                **third,
            )

    def _third_draw(self, honest, rng, out=None) -> dict:
        """The draw after the two mining tensors, as ``run_traces`` keyword
        arguments.  A partial cut has no delay model and draws its
        minority split: per round, ``Binomial(honest, cut_fraction)`` of the
        honest successes land in the minority component, drawn into ``out``
        when given (the streamed engine's chunk-buffer rows), else into a
        fresh tensor in the honest tensor's dtype, which holds any share of
        it.  Otherwise it is a non-trivial delay model's delay tensor and
        cap, else nothing.  The streamed engine draws each seed block
        through it too."""
        if self._cut_fraction is None:
            return _delay_draw(self.delay_model, self.params.delta, honest, rng)
        split = np.empty(honest.shape, honest.dtype) if out is None else out
        binomial(rng, honest, float(self._cut_fraction), split)
        return {"split_counts": split}

    def run_traces(
        self,
        honest_counts: np.ndarray,
        adversary_counts: np.ndarray,
        keep_traces: bool = False,
        record_rounds: bool = False,
        delays: Optional[np.ndarray] = None,
        max_delay: Optional[int] = None,
        split_counts: Optional[np.ndarray] = None,
    ) -> ScenarioResult:
        """Simulate the scenario over pre-drawn ``(trials, rounds)`` tensors.

        This is the deterministic half of the engine — the half the scripted
        replay equivalence tests drive on both sides.  ``delays`` carries
        pre-drawn per-block honest delivery offsets; ``None`` uses the
        constant ``honest_delay``.  ``max_delay`` (default Δ) widens the
        validation cap and delivery pipeline for time-varying models whose
        adversarial windows exceed Δ.  ``split_counts`` (partial-cut
        scenarios only) carries the pre-drawn minority share of each round's
        honest successes; ``None`` keeps every honest success in the
        majority component.  Every scenario then runs the one round scan,
        :meth:`_scan`, which a partial cut enters with its cut windows
        (:meth:`~repro.simulation.dynamics.PartitionScenario.partition_windows`);
        no round inside a window counts as a convergence opportunity.
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
        _METRICS.increment("engine.scenario.trials", trials)
        _METRICS.increment("engine.scenario.rounds", trials * rounds)
        delays, cap = _checked_delays(
            delays, honest.shape, self.params.delta, max_delay
        )
        window = cap if delays is not None else self.honest_delay
        _require_attribution_feasible(honest, self.honest_miners, window)

        cut_windows: List[Tuple[int, int]] = []
        split = None
        if self._cut_fraction is not None:
            if delays is not None:
                raise SimulationError(
                    "partial-cut scenarios have no delay model; delays "
                    "cannot be supplied"
                )
            cut_windows = self.scenario.partition_windows(rounds)
            if split_counts is None:
                split = np.zeros(honest.shape, dtype=np.int64)
            else:
                split = _integer_tensor(split_counts, "split_counts")
                if split.shape != honest.shape:
                    raise SimulationError(
                        f"split_counts shape {split.shape} does not match "
                        f"honest shape {honest.shape}"
                    )
                # Checked a row tile at a time: a whole-tensor comparison
                # would hold a trials x rounds temporary.
                rows = _tile_rows(trials, rounds)
                for start in range(0, trials, rows):
                    stop = start + rows
                    if split[start:stop].min() < 0 or (
                        split[start:stop] > honest[start:stop]
                    ).any():
                        raise SimulationError(
                            "split_counts must lie in [0, honest_counts]"
                        )
        elif split_counts is not None:
            raise SimulationError(
                "split_counts applies only to partial-cut scenarios "
                "(PartitionScenario with cut_fraction set)"
            )
        honest_blocks = honest.sum(axis=1, dtype=np.int64)
        adversary_blocks = adversary.sum(axis=1, dtype=np.int64)
        with _TRACE.span("scenario.scan", trials=trials, rounds=rounds):
            state = self._scan(
                honest,
                adversary,
                record_rounds,
                delays=delays,
                cap=cap,
                split=split,
                windows=cut_windows,
                totals=honest_blocks + adversary_blocks,
            )
        with _TRACE.span("scenario.mask", trials=trials, rounds=rounds):
            if delays is None:
                mask = _opportunity_mask(honest, self.params.delta, self.workspace)
            else:
                mask = _delay_opportunity_mask(
                    honest, delays, self.params.delta, cap, self.workspace
                )
            # During a cut no round is a convergence opportunity — the honest
            # miners cannot all hear a unique block while the network is split
            # — so the Lemma 1 window accounting drops those columns entirely.
            for start, end in cut_windows:
                mask[:, start:end] = 0
        with _TRACE.span("scenario.deficits", trials=trials, rounds=rounds):
            deficits, _ = _window_drawdown(mask, adversary, self.workspace)
        return ScenarioResult(
            params=self.params,
            scenario=self.scenario,
            trials=trials,
            rounds=rounds,
            draw_mode=self.draw_mode,
            honest_delay=self.honest_delay,
            honest_blocks=honest_blocks,
            adversary_blocks=adversary_blocks,
            convergence_opportunities=mask.sum(axis=1, dtype=np.int64),
            worst_deficits=deficits,
            honest_counts=honest if keep_traces else None,
            adversary_counts=adversary if keep_traces else None,
            delay_model=(
                None if self.delay_model is None else self.delay_model.name
            ),
            release_delay=self.release_delay,
            **state,
        )

    # ------------------------------------------------------------------
    # The round scan
    # ------------------------------------------------------------------
    def _scan(
        self,
        honest,
        adversary,
        record_rounds: bool,
        delays=None,
        cap: Optional[int] = None,
        split=None,
        windows: Sequence[Tuple[int, int]] = (),
        totals=None,
    ) -> Dict[str, Optional[np.ndarray]]:
        """One pass over rounds with all per-trial state as vectors.

        Mirrors :meth:`NakamotoSimulation.run` phase by phase; see the
        module docstring for the correspondence argument.

        **State dtype.**  Heights, fork points, leads and depths are int32
        when every trial's block total (``totals``, honest plus adversarial
        blocks; summed here when not given) stays below ``2**31 - 1``, so no
        height, not even the next mined one, can leave int32; otherwise
        int64.  Tallies are int64, and so is every array that escapes into
        the result.  The withheld count is not kept: it always equals
        ``private - fork``, and is read off at the end.

        **Slot-major rows.**  Every ring is ``(slots, trials)``, so a round
        reads and writes contiguous rows.  A delivery schedule row holds the
        heights due at the start of one round; a delivered row keeps its
        values, which are never above the public height, so it needs no
        reset.  With one offset per round, the constant ``honest_delay`` or
        a zero-row-stride ``delays`` tensor, the schedule has as many slots
        as the largest offset: a block due ``slots`` rounds on overwrites
        the row just delivered, a shorter offset takes the maximum into its
        row, and a zero offset lands at the end of the round.  Per-trial
        ``delays`` (``cap`` is the model's delay cap, Δ for static models)
        use a power-of-two slot count of at least ``cap`` behind a spill
        row: each tile precomputes every block's flat schedule index (a bit
        mask wraps the slot), aiming the blocks that pipeline nothing at the
        spill row, and a round is one flat assignment.  Same-round collisions only ever replace an older
        height by a larger one, since the public chain is monotone.

        A non-zero ``release_delay`` (placement-aware adversary) routes
        releases through a second ring of ``(fork, height)`` row pairs: the
        released chain travels ``release_delay`` rounds before merging into
        the public chain, and the displaced suffix is measured at landing,
        against the public height the honest miners actually reached by
        then.  Every round rewrites the row it landed from.

        A partial-cut scenario passes ``split``, each round's minority share
        of the honest successes, and ``windows``, the disjoint sorted
        ``[start, end)`` cut rounds.  Inside a window a second component
        runs beside component 0 (the majority): its own public height and
        delivery schedule, plus a second private chain and release ring for
        ``equivocation``.  The windows are global, not per trial, so cut
        entry and merge-on-heal are static branches over vector state, and
        outside every window the round body is the one every other scenario
        runs: an empty window list is bit-identical to the same scenario
        without a cut.  :func:`reference_partition_scan` is the executable
        specification of the cut rounds.

        **Per-tile flags and tallies.**  The inputs are read through
        per-call tiles of :data:`SCAN_TILE_ROUNDS` rounds: the adversarial
        counts in the state dtype, and ``honest > 0`` (per component during
        a cut) and ``adversary > 0`` computed once a tile.  Each round writes
        its release and abandon counts and its displaced depth into tile
        rows; a tile folds them into the int64 tallies once, by a uint8 row
        sum (at most two counts a round) and a row max or sum.

        All scan state lives in workspace buffers (a private workspace when
        the engine was built without one), so repeated runs at one shape
        reuse their vectors and rings; a chain is one ``(fork, private)``
        row pair, started by adding the racing height (an inactive chain is
        all zeros) and reset by a multiply.  The decision flags are boolean:
        the scan's ``~`` / ``&`` logic needs logical, not bitwise, semantics.
        Every NumPy call in the round loop writes through ``out=``.
        """
        workspace = self.workspace if self.workspace is not None else Workspace()
        trials, rounds = honest.shape
        kind = self.scenario.kind
        cap = self.params.delta if cap is None else int(cap)
        withholding = kind != "publish"
        selfish = kind == "selfish_mining"
        landings = self.release_delay if withholding else 0
        target_depth = self.scenario.target_depth
        give_up = self.scenario.give_up_deficit
        quits = selfish or give_up is not None
        partial = split is not None
        equivocating = kind == "equivocation"
        starts = dict(windows)
        if totals is None:
            totals = honest.sum(axis=1, dtype=np.int64)
            totals += adversary.sum(axis=1, dtype=np.int64)
        dtype = np.int32 if totals.max() < np.iinfo(np.int32).max else np.int64
        unsigned = np.uint32 if dtype is np.int32 else np.uint64

        # Delivery offsets: one per round (row operations), else per trial.
        shared = delays is None or delays.strides[0] == 0
        if shared:
            offsets = (
                [self.honest_delay] * rounds if delays is None else delays[0].tolist()
            )
            slots = max(max(offsets), 1)
        else:
            slots = 1 << (cap - 1).bit_length()
        # Per-trial delays aim the blocks that pipeline nothing at spill
        # row 0, ahead of the slot rows.
        schedule = workspace.zeros(
            "scan.schedule", (slots + (not shared), trials), dtype
        )
        slot_rows = schedule[(not shared) :]
        schedule_rows = list(slot_rows)
        schedule_flat = schedule.reshape(-1)

        public = workspace.zeros("scan.public", (trials,), dtype)
        chain = workspace.zeros("scan.chain", (2, trials), dtype)
        fork, private = chain
        active = workspace.zeros("scan.active", (trials,), np.bool_)
        releases = workspace.zeros("scan.releases", (trials,), np.int64)
        abandons = workspace.zeros("scan.abandons", (trials,), np.int64)
        deepest = workspace.zeros("scan.deepest", (trials,), np.int64)
        orphaned = workspace.zeros("scan.orphaned", (trials,), np.int64)
        # Per-round temporaries live in the workspace too, so the steady
        # state of the round loop performs no allocation at all.
        height = workspace.empty("scan.height", (trials,), dtype)
        pending = workspace.empty("scan.pending", (trials,), dtype)
        scratch = workspace.empty("scan.scratch", (trials,), dtype)
        lead = workspace.zeros("scan.lead", (trials,), dtype)
        lead_bits = lead.view(unsigned)
        depth = workspace.zeros("scan.depth", (trials,), dtype)
        starting = workspace.empty("scan.starting", (trials,), np.bool_)
        flag = workspace.empty("scan.flag", (trials,), np.bool_)
        reset = workspace.empty("scan.reset", (trials,), np.bool_)
        # In-flight adversarial releases (placement-aware adversaries): the
        # row landing this round is the one the round's release rewrites.
        release_rows = None
        if landings:
            release = workspace.zeros("scan.release", (landings, 2, trials), dtype)
            release_rows = list(release)
        sides = [(public, chain, active, release_rows)]
        own = sides[:1]
        # Component 1 (the minority), allocated for partial cuts only.  A
        # single private chain releases to both components alike, through
        # one release ring; only equivocation keeps a second private chain
        # and a second release ring.
        if partial:
            public1 = workspace.zeros("scan.public1", (trials,), dtype)
            schedule1 = workspace.zeros("scan.schedule1", schedule.shape, dtype)
            schedule1_rows = list(schedule1)
            height1 = workspace.empty("scan.height1", (trials,), dtype)
            best = workspace.empty("scan.best", (trials,), dtype)
            scratch1 = workspace.empty("scan.scratch1", (trials,), dtype)
            flag1 = workspace.empty("scan.flag1", (trials,), np.bool_)
            # The common prefix frozen at the cut round, and the deepest
            # suffix a heal displaced.
            common = workspace.zeros("scan.common", (trials,), dtype)
            merge_depth = workspace.zeros("scan.merge_depth", (trials,), np.int64)
        if equivocating:
            chain1 = workspace.zeros("scan.chain1", (2, trials), dtype)
            fork1, private1 = chain1
            active1 = workspace.zeros("scan.active1", (trials,), np.bool_)
            choose1 = workspace.empty("scan.choose1", (trials,), np.bool_)
            lead1 = workspace.empty("scan.lead1", (trials,), dtype)
            depth1 = workspace.empty("scan.depth1", (trials,), dtype)
            mined = workspace.empty("scan.mined", (2, trials), dtype)
            some = workspace.empty("scan.some", (trials,), np.bool_)
            decided = workspace.empty("scan.decided", (2, 2, trials), np.bool_)
            # Chain c's (released, abandoned) flags are decided[c]; read as
            # uint8, the two chains' flags add up to the round's counts.
            counts = decided.view(np.uint8)
            released_by = (counts[0, 0], counts[1, 0])
            abandoned_by = (counts[0, 1], counts[1, 1])
            if landings:
                release1 = workspace.zeros(
                    "scan.release1", (landings, 2, trials), dtype
                )
                higher = workspace.empty("scan.higher", (landings, 1, trials), np.bool_)
            sides.append(
                (public1, chain1, active1, list(release1) if landings else None)
            )

        # Per-call round tiles (outside the workspace, like the mask
        # kernel's panels): inputs, per-tile flags and per-round tallies.
        tile_rounds = min(SCAN_TILE_ROUNDS, rounds)
        tile = (tile_rounds, trials)
        adversary_tile = np.empty(tile, dtype)
        some_adversary = np.empty(tile, np.bool_)
        some_honest = np.empty(tile, dtype)
        released_tile = np.zeros(tile, np.uint8)
        abandoned_tile = np.zeros(tile, np.uint8)
        depth_tile = np.zeros(tile, dtype)
        counted = np.empty((trials,), np.uint8)
        deepest_row = np.empty((trials,), dtype)
        adversary_rows = list(adversary_tile)
        some_adversary_rows = list(some_adversary)
        some_honest_rows = list(some_honest)
        released_rows = list(released_tile.view(np.bool_))
        abandoned_rows = list(abandoned_tile.view(np.bool_))
        counted_rows = list(zip(released_tile, abandoned_tile))
        depth_rows = list(depth_tile)
        if selfish:
            orphan_row = np.empty((trials,), np.int64)
        if partial:
            # During a cut the minority mines the split share, component 0
            # the rest: one 0/1 flag tile per component.
            majority = np.empty(tile, dtype)
            minority = np.empty(tile, dtype)
            majority_rows = list(majority)
            minority_rows = list(minority)
        if not shared:
            round_ids = np.arange(rounds, dtype=np.intp)[:, None]
            columns = np.arange(trials, dtype=np.intp)
            delay_tile = np.empty(tile, dtype)
            target_tile = np.empty(tile, np.intp)
            immediate = np.empty(tile, dtype)
            target_rows = list(target_tile)
            immediate_rows = list(immediate)

        if record_rounds:
            # Record tensors escape into the result, so they are allocated
            # fresh rather than drawn from the workspace.
            public_record = np.zeros((trials, rounds), dtype=np.int64)
            private_record = np.zeros((trials, rounds), dtype=np.int64)
            release_record = np.zeros((trials, rounds), dtype=np.bool_)
            abandon_record = np.zeros((trials, rounds), dtype=np.bool_)
            lead_record = np.zeros((trials, rounds), dtype=np.int64)
            depth_record = np.zeros((trials, rounds), dtype=np.int64)
            if partial:
                component_record = np.zeros((trials, rounds, 2), dtype=np.int64)

        add, subtract, multiply = np.add, np.subtract, np.multiply
        maximum, minimum, copyto = np.maximum, np.minimum, np.copyto
        greater, greater_equal, less = np.greater, np.greater_equal, np.less
        less_equal, equal = np.less_equal, np.equal
        logical_and, logical_or = np.logical_and, np.logical_or
        cut = False
        for base in range(0, rounds, tile_rounds):
            stop = min(base + tile_rounds, rounds)
            n = stop - base
            _transpose_into(adversary_tile[:n], adversary, base, stop)
            greater(adversary_tile[:n], 0, out=some_adversary[:n])
            _transpose_into(some_honest[:n], honest, base, stop)
            if partial:
                _transpose_into(minority[:n], split, base, stop)
                subtract(some_honest[:n], minority[:n], out=majority[:n])
                minimum(majority[:n], 1, out=majority[:n])
                minimum(minority[:n], 1, out=minority[:n])
            minimum(some_honest[:n], 1, out=some_honest[:n])
            if not shared:
                # Flat schedule targets: slot row 1 + (round + delay) &
                # (slots - 1) for a block in flight, the spill row 0 for none
                # or a zero delay (which lands at the end of the round).
                offsets_tile, target = delay_tile[:n], target_tile[:n]
                _transpose_into(offsets_tile, delays, base, stop)
                add(offsets_tile, round_ids[base:stop], out=target)
                np.bitwise_and(target, slots - 1, out=target)
                add(target, 1, out=target)
                # 0/1 flags: a block in flight, and one landing now.
                minimum(offsets_tile, 1, out=offsets_tile)
                multiply(offsets_tile, some_honest[:n], out=offsets_tile)
                subtract(some_honest[:n], offsets_tile, out=immediate[:n])
                multiply(target, offsets_tile, out=target)
                multiply(target, trials, out=target)
                add(target, columns, out=target)
                lands_now = immediate[:n].any(axis=1).tolist()
            if landings:
                depth_tile[:n] = 0
            for row in range(n):
                index = base + row
                adversary_row = adversary_rows[row]
                depth_row = depth_rows[row]

                # 0a. Merge-on-heal: max height wins; the losing component's
                #     suffix above the frozen common prefix is displaced.
                if cut and index == cut_end:
                    # The winner mask must be read before `public` absorbs
                    # the max.
                    greater(public1, public, out=flag1)
                    minimum(public, public1, out=scratch)
                    subtract(scratch, common, out=scratch)
                    maximum(merge_depth, scratch, out=merge_depth)
                    maximum(deepest, scratch, out=deepest)
                    maximum(public, public1, out=public)
                    maximum(schedule, schedule1, out=schedule)
                    if equivocating:
                        if landings:
                            greater(release1[:, 1:], release[:, 1:], out=higher)
                            copyto(release, release1, where=higher)
                        # The chain racing the winning component survives;
                        # the loser's chain forked from a displaced branch and
                        # is dropped without an abandon tally.
                        copyto(chain, chain1, where=flag1)
                        copyto(active, active1, where=flag1)
                        chain1[...] = 0
                        active1[...] = 0
                    cut = False
                # 0b. Cut entry: both components start from the merged state
                #     and the common prefix freezes at the pre-cut height.
                if not cut and index in starts:
                    cut = True
                    cut_end = starts[index]
                    copyto(public1, public)
                    copyto(schedule1, schedule)
                    copyto(common, public)
                    if equivocating:
                        copyto(chain1, chain)
                        copyto(active1, active)
                        if landings:
                            copyto(release1, release)

                # 1. Start-of-round deliveries.
                if shared:
                    offset = offsets[index]
                    slot = index % slots
                else:
                    slot = index & (slots - 1)
                maximum(public, schedule_rows[slot], out=public)
                if cut:
                    maximum(public1, schedule1_rows[slot], out=public1)

                # 1b. Landing of in-flight adversarial releases: the displaced
                #     suffix is measured against the public height the honest
                #     miners actually reached while the release gossiped.
                if landings:
                    release_slot = index % landings
                    if cut and not equivocating:
                        # One chain spans the cut and lands on both sides at
                        # once; displacing both re-converges them on it.
                        forks, landing = release_rows[release_slot]
                        if landing.any():
                            greater(landing, public, out=flag)
                            greater(landing, public1, out=flag1)
                            subtract(public, forks, out=scratch)
                            multiply(scratch, flag, out=scratch)
                            subtract(public1, forks, out=scratch1)
                            multiply(scratch1, flag1, out=scratch1)
                            maximum(scratch, scratch1, out=scratch)
                            maximum(scratch, 0, out=scratch)
                            maximum(depth_row, scratch, out=depth_row)
                            logical_and(flag, flag1, out=flag)
                            copyto(common, landing, where=flag)
                            maximum(public, landing, out=public)
                            maximum(public1, landing, out=public1)
                    else:
                        # Otherwise each component's releases (during a cut,
                        # the equivocating chains' conflicting ones) land on
                        # it alone.
                        for public_c, _, _, rows_c in sides if cut else own:
                            forks, landing = rows_c[release_slot]
                            if landing.any():
                                greater(landing, public_c, out=flag)
                                subtract(public_c, forks, out=scratch)
                                multiply(scratch, flag, out=scratch)
                                maximum(depth_row, scratch, out=depth_row)
                                maximum(public_c, landing, out=public_c)

                # 2. Honest mining on the delivered public chain: a block
                #    takes the slot it is due in, and a zero-delay one waits
                #    in `pending` for the end of the round.  During a cut the
                #    minority mines its share on its own tip; a cut's delay is
                #    the constant Δ, so its block fills the row just delivered.
                mined_honest = majority_rows[row] if cut else some_honest_rows[row]
                add(public, 1, out=height)
                if not shared:
                    schedule_flat[target_rows[row]] = height
                elif offset == slots:
                    multiply(height, mined_honest, out=schedule_rows[slot])
                else:
                    multiply(height, mined_honest, out=pending)
                    if offset:
                        due = schedule_rows[(index + offset) % slots]
                        maximum(due, pending, out=due)
                if cut:
                    add(public1, 1, out=height1)
                    multiply(height1, minority_rows[row], out=schedule1_rows[slot])

                # 3. Adversarial mining: extend the private tip, or fork from
                #    the public tip if no private chain exists.
                if not withholding:
                    # Freshly mined blocks are published at end of round: the
                    # public chain absorbs the whole sequential run.
                    add(public, adversary_row, out=public)
                elif cut and equivocating:
                    # Feed the weaker race: the whole round's successes
                    # extend the chain with the smaller lead (minority on a
                    # full tie); each chain then decides against its own
                    # component.
                    subtract(private, public, out=lead)
                    subtract(private1, public1, out=lead1)
                    less(lead1, lead, out=choose1)
                    equal(lead1, lead, out=flag)
                    less(public1, public, out=flag1)
                    logical_and(flag, flag1, out=flag)
                    logical_or(choose1, flag, out=choose1)
                    multiply(adversary_row, choose1, out=mined[1])
                    subtract(adversary_row, mined[1], out=mined[0])
                    for c, (public_c, chain_c, active_c, rows_c) in enumerate(sides):
                        fork_c, private_c = chain_c
                        released_c, abandoned_c = decided[c]
                        greater(mined[c], 0, out=some)
                        greater(some, active_c, out=starting)
                        multiply(public_c, starting, out=scratch)
                        add(chain_c, scratch, out=chain_c)
                        add(private_c, mined[c], out=private_c)
                        logical_or(active_c, some, out=active_c)
                        subtract(private_c, public_c, out=lead)
                        subtract(public_c, fork_c, out=depth)
                        greater(lead, 0, out=released_c)
                        greater_equal(depth, target_depth, out=flag)
                        logical_and(released_c, flag, out=released_c)
                        if quits:
                            less_equal(lead, -give_up, out=abandoned_c)
                            logical_and(abandoned_c, active_c, out=abandoned_c)
                            logical_or(released_c, abandoned_c, out=reset)
                        if landings:
                            multiply(chain_c, released_c, out=rows_c[release_slot])
                        else:
                            if c:
                                multiply(depth, released_c, out=scratch)
                                maximum(depth_row, scratch, out=depth_row)
                            else:
                                multiply(depth, released_c, out=depth_row)
                            copyto(public_c, private_c, where=released_c)
                        greater(active_c, reset if quits else released_c, out=active_c)
                        multiply(chain_c, active_c, out=chain_c)
                    released_counts, abandoned_counts = counted_rows[row]
                    add(*released_by, out=released_counts)
                    if quits:
                        add(*abandoned_by, out=abandoned_counts)
                    if record_rounds:
                        subtract(private, public, out=lead)
                        subtract(private1, public1, out=lead1)
                        maximum(lead, lead1, out=lead)
                        subtract(public, fork, out=depth)
                        subtract(public1, fork1, out=depth1)
                        maximum(depth, depth1, out=depth)
                else:
                    # A single private chain races the best public chain in
                    # view; an inactive chain is all zeros, so starting one
                    # is one add of the racing height.
                    racing = maximum(public, public1, out=best) if cut else public
                    some_row = some_adversary_rows[row]
                    greater(some_row, active, out=starting)
                    multiply(racing, starting, out=scratch)
                    add(chain, scratch, out=chain)
                    add(private, adversary_row, out=private)
                    logical_or(active, some_row, out=active)

                    # 4. Release decision against the pre-release public
                    # height.  An inactive trial has private = fork = 0, so
                    # lead > 0 (and selfish mining's 0 <= lead <= 1 with
                    # public > 0) already implies active.
                    subtract(private, racing, out=lead)
                    subtract(racing, fork, out=depth)
                    released = released_rows[row]
                    abandoned = abandoned_rows[row]
                    if selfish:
                        less(lead, 0, out=abandoned)
                        logical_and(abandoned, active, out=abandoned)
                        less_equal(lead_bits, 1, out=released)
                        logical_and(released, active, out=released)
                    else:  # private_chain, and equivocation outside a cut
                        if give_up is not None:
                            less_equal(lead, -give_up, out=abandoned)
                            logical_and(abandoned, active, out=abandoned)
                        # Released and abandoned are mutually exclusive:
                        # release needs lead > 0, abandonment lead <= -give_up.
                        greater(lead, 0, out=released)
                        greater_equal(depth, target_depth, out=flag)
                        logical_and(released, flag, out=released)
                    if landings:
                        # The release gossips from the adversary's graph
                        # position; its displacement is accounted when it
                        # lands.
                        multiply(chain, released, out=release_rows[release_slot])
                    else:
                        # A release always publishes a chain at least as
                        # high as the public one, displacing (or tying) the
                        # public suffix.
                        multiply(depth, released, out=depth_row)
                        copyto(public, private, where=released)
                        if cut:
                            # Both components adopt it and re-converge on it.
                            copyto(public1, private, where=released)
                            copyto(common, private, where=released)
                    if quits:
                        logical_or(released, abandoned, out=reset)
                    greater(active, reset if quits else released, out=active)
                    multiply(chain, active, out=chain)

                # 5. End-of-round delivery of zero-delay honest broadcasts.
                if shared:
                    if not offset:
                        maximum(public, pending, out=public)
                elif lands_now[row]:
                    multiply(height, immediate_rows[row], out=pending)
                    maximum(public, pending, out=public)

                if record_rounds:
                    if cut:
                        maximum(public, public1, out=public_record[:, index])
                    else:
                        copyto(public_record[:, index], public)
                    if cut and equivocating:
                        maximum(private, private1, out=private_record[:, index])
                    else:
                        copyto(private_record[:, index], private)
                    if withholding:
                        copyto(lead_record[:, index], lead)
                        copyto(depth_record[:, index], depth)
                    if partial:
                        copyto(component_record[:, index, 0], public)
                        copyto(
                            component_record[:, index, 1], public1 if cut else public
                        )

            # Fold the tile's per-round tallies.
            if withholding:
                for tally, counts in (
                    (releases, released_tile), (abandons, abandoned_tile)
                ):
                    add.reduce(counts[:n], axis=0, out=counted)
                    add(tally, counted, out=tally)
                maximum.reduce(depth_tile[:n], axis=0, out=deepest_row)
                maximum(deepest, deepest_row, out=deepest)
                if selfish:
                    add.reduce(depth_tile[:n], axis=0, out=orphan_row)
                    add(orphaned, orphan_row, out=orphaned)
                if record_rounds:
                    for record, flags in (
                        (release_record, released_tile),
                        (abandon_record, abandoned_tile),
                    ):
                        copyto(record[:, base:stop], flags[:n].T, casting="unsafe")

        # Network flush: every in-flight honest block eventually arrives, as
        # does every in-flight adversarial release (its displaced depth is
        # not tallied — the run ended before the network saw it land).  A
        # window still open at the end of the run never merges, so it tallies
        # no merge depth either.
        final = public.astype(np.int64)
        withheld_final = np.subtract(private, fork, dtype=np.int64)
        np.maximum(final, slot_rows.max(axis=0), out=final)
        if landings:
            np.maximum(final, release[:, 1].max(axis=0), out=final)
        if cut:
            np.maximum(final, public1, out=final)
            np.maximum(final, schedule1.max(axis=0), out=final)
            if equivocating:
                np.maximum(
                    withheld_final,
                    np.subtract(private1, fork1, dtype=np.int64),
                    out=withheld_final,
                )
                if landings:
                    np.maximum(final, release1[:, 1].max(axis=0), out=final)

        # Escaping per-trial vectors are copied out of the workspace; the
        # per-round record tensors are already freshly owned.
        return {
            "releases": np.copy(releases),
            "abandons": np.copy(abandons),
            "deepest_forks": np.copy(deepest),
            "orphaned_honest": np.copy(orphaned),
            "withheld_final": withheld_final,
            "final_public_heights": final,
            "public_heights": public_record if record_rounds else None,
            "private_heights": private_record if record_rounds else None,
            "release_mask": release_record if record_rounds else None,
            "abandon_mask": abandon_record if record_rounds else None,
            "decision_leads": lead_record if record_rounds else None,
            "decision_fork_depths": depth_record if record_rounds else None,
            # Only a heal merges, so only a partial cut tallies merge depths.
            "merge_depths": (
                merge_depth.astype(np.int64)
                if partial
                else np.zeros((trials,), dtype=np.int64)
            ),
            "component_heights": (
                component_record if record_rounds and partial else None
            ),
        }
