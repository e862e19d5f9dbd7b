"""The unified chunk-size configuration (repro.backend.chunking).

One knob (``REPRO_CHUNK_CELLS`` / explicit overrides, validated in one
place) feeds every bounded-memory execution path: the Bernoulli summation
fallback, the rare-event estimators and the streaming trial engine.  These
tests pin the resolution precedence, the validation failure modes and the
routing into the engines that consume it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import (
    CHUNK_ENV_VAR,
    DEFAULT_CHUNK_CELLS,
    chunk_sizes,
    chunk_trials,
    resolve_chunk_cells,
)
from repro.backend import chunking
from repro.errors import BackendError
from repro.params import parameters_from_c
from repro.simulation import rare_events
from repro.simulation.rare_events import ExponentialTilt, RareEventSimulation


@pytest.fixture
def params():
    return parameters_from_c(c=4.0, n=1_000, delta=3, nu=0.2)


class TestResolveChunkCells:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(CHUNK_ENV_VAR, raising=False)
        assert resolve_chunk_cells() == DEFAULT_CHUNK_CELLS

    def test_explicit_override_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(CHUNK_ENV_VAR, "123")
        assert resolve_chunk_cells(777) == 777

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(CHUNK_ENV_VAR, "4096")
        assert resolve_chunk_cells() == 4096

    def test_empty_env_falls_through_to_default(self, monkeypatch):
        monkeypatch.setenv(CHUNK_ENV_VAR, "")
        assert resolve_chunk_cells() == DEFAULT_CHUNK_CELLS

    @pytest.mark.parametrize("bad", [0, -1, -1_000_000])
    def test_non_positive_rejected(self, bad):
        with pytest.raises(BackendError, match="positive"):
            resolve_chunk_cells(bad)

    def test_non_integer_rejected(self):
        with pytest.raises(BackendError, match="positive integer"):
            resolve_chunk_cells(2.5)

    @pytest.mark.parametrize("bad", ["zero", "2.5", "-3"])
    def test_invalid_env_rejected_with_source(self, monkeypatch, bad):
        monkeypatch.setenv(CHUNK_ENV_VAR, bad)
        with pytest.raises(BackendError, match=CHUNK_ENV_VAR):
            resolve_chunk_cells()


class TestChunkPlanning:
    def test_chunk_trials_floor(self):
        assert chunk_trials(100, cells=1000) == 10

    def test_chunk_trials_never_zero(self):
        assert chunk_trials(1_000_000, cells=1) == 1

    @pytest.mark.parametrize("trials,rounds,cells", [(0, 10, 100), (37, 10, 100), (100, 7, 13), (5, 1000, 1)])
    def test_chunk_sizes_cover_exactly(self, trials, rounds, cells):
        sizes = chunk_sizes(trials, rounds, cells=cells)
        assert sum(sizes) == trials
        per_chunk = chunk_trials(rounds, cells)
        assert all(0 < size <= per_chunk for size in sizes)

    def test_chunk_sizes_respects_env(self, monkeypatch):
        monkeypatch.setenv(CHUNK_ENV_VAR, "50")
        assert chunk_sizes(25, 10) == [5, 5, 5, 5, 5]


def _drawn_chunks(params, monkeypatch, **estimator_options):
    """Trials of each chunk a 500 x 10 tilted estimate draws."""
    drawn = []
    draw = rare_events.draw_tilted_traces

    def recorded(params_, tilt, trials, rounds, rng):
        drawn.append(trials)
        return draw(params_, tilt, trials, rounds, rng)

    monkeypatch.setattr(rare_events, "draw_tilted_traces", recorded)
    estimator = RareEventSimulation(params, 4, rng=0, **estimator_options)
    estimator.run_tilted(500, 10, tilt=ExponentialTilt.identity(params))
    return drawn


class TestRareEventRouting:
    """The rare-event estimators consume the shared chunk configuration."""

    def test_explicit_ctor_override_wins(self, params, monkeypatch):
        drawn = _drawn_chunks(params, monkeypatch, chunk_cells=900)
        assert drawn == [90, 90, 90, 90, 90, 50]

    def test_explicit_ctor_override_beats_env(self, params, monkeypatch):
        monkeypatch.setenv(CHUNK_ENV_VAR, "2048")
        drawn = _drawn_chunks(params, monkeypatch, chunk_cells=900)
        assert drawn == [90, 90, 90, 90, 90, 50]

    def test_env_reaches_estimator(self, params, monkeypatch):
        monkeypatch.setenv(CHUNK_ENV_VAR, "2048")
        assert _drawn_chunks(params, monkeypatch) == [204, 204, 92]

    def test_default_without_overrides(self, params, monkeypatch):
        monkeypatch.delenv(CHUNK_ENV_VAR, raising=False)
        monkeypatch.setattr(chunking, "DEFAULT_CHUNK_CELLS", 3_000)
        assert _drawn_chunks(params, monkeypatch) == [300, 200]

    def test_invalid_ctor_chunk_rejected(self, params):
        with pytest.raises(BackendError):
            RareEventSimulation(params, 4, rng=0, chunk_cells=0)

    def test_tiny_chunks_still_estimate(self, params):
        """A one-trial chunk budget degrades throughput, never correctness:
        the plain estimator still produces a coherent Wilson interval."""
        result = RareEventSimulation(params, 2, rng=3, chunk_cells=1).run_plain(
            200, 120
        )
        assert result.trials == 200
        assert 0.0 <= result.ci_low <= result.probability <= result.ci_high <= 1.0
        assert result.hits == int(round(result.probability * 200))
