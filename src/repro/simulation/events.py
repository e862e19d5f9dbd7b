"""Per-round event recording and convergence-opportunity detection.

Section V-A classifies each round as ``H`` (at least one honest block) or
``N`` (no honest block), refines ``H`` into ``H_h`` (exactly ``h`` honest
blocks, Eq. 38), and defines a *convergence opportunity* as the pattern
``HN^{>=Δ} || H_1 N^Δ``: a Δ-round quiet period, a round with exactly one
honest block, and another Δ-round quiet period.  At the end of such a pattern
every honest miner agrees on the same single longest chain.

The detector below consumes the per-round honest block counts produced by the
simulator and counts completed convergence opportunities online, matching the
offline counter :func:`repro.core.concat_chain.count_convergence_opportunities`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..errors import SimulationError

__all__ = ["RoundRecord", "ConvergenceOpportunityDetector"]


@dataclass(frozen=True)
class RoundRecord:
    """What happened in one round of the simulation."""

    round_index: int
    honest_blocks: int
    adversary_blocks: int
    public_chain_height: int
    adversary_private_height: int = 0

    @property
    def state(self) -> str:
        """The coarse round state: ``"H"`` or ``"N"`` (honest blocks only)."""
        return "H" if self.honest_blocks > 0 else "N"

    @property
    def detailed_state(self) -> str:
        """The detailed round state of Eq. (38): ``"N"`` or ``"H<h>"``."""
        return "N" if self.honest_blocks == 0 else f"H{self.honest_blocks}"


class ConvergenceOpportunityDetector:
    """Streaming counter of convergence opportunities.

    Feed the per-round honest block count with :meth:`observe`; the counter
    increments at the round that *completes* the pattern
    ``N^Δ, H_1, N^Δ`` (i.e. Δ quiet rounds, exactly one honest block, Δ more
    quiet rounds).

    Examples
    --------
    >>> detector = ConvergenceOpportunityDetector(delta=2)
    >>> for count in [0, 0, 1, 0, 0]:
    ...     completed = detector.observe(count)
    >>> detector.count
    1
    """

    def __init__(self, delta: int):
        if delta < 1:
            raise SimulationError(f"delta must be >= 1, got {delta!r}")
        self.delta = int(delta)
        self._count = 0
        self._rounds_seen = 0
        # Number of consecutive quiet (N) rounds ending at the previous round.
        self._quiet_streak = 0
        # When a candidate single-block round has been seen after a >= delta
        # quiet streak, this holds the number of additional quiet rounds still
        # needed to complete the opportunity; None when no candidate is armed.
        self._pending_quiet: Optional[int] = None

    @property
    def count(self) -> int:
        """Number of completed convergence opportunities so far."""
        return self._count

    @property
    def rounds_seen(self) -> int:
        """Number of rounds observed so far."""
        return self._rounds_seen

    def observe(self, honest_blocks: int) -> bool:
        """Record one round; returns ``True`` if it completed an opportunity."""
        if honest_blocks < 0:
            raise SimulationError("honest_blocks must be non-negative")
        self._rounds_seen += 1
        completed = False

        if honest_blocks == 0:
            if self._pending_quiet is not None:
                self._pending_quiet -= 1
                if self._pending_quiet == 0:
                    self._count += 1
                    completed = True
                    self._pending_quiet = None
            self._quiet_streak += 1
            return completed

        # An H round: it can only *start* a new candidate; any pending
        # candidate is spoiled because its trailing quiet period is broken.
        if honest_blocks == 1 and self._quiet_streak >= self.delta:
            self._pending_quiet = self.delta
        else:
            self._pending_quiet = None
        self._quiet_streak = 0
        return completed

    def observe_many(self, honest_blocks_per_round) -> int:
        """Observe a whole trace; returns the number of opportunities it completed."""
        before = self._count
        for count in honest_blocks_per_round:
            self.observe(int(count))
        return self._count - before
