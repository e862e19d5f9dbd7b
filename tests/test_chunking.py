"""The unified chunk-size configuration (repro.backend.chunking).

One knob (``REPRO_CHUNK_CELLS`` / explicit overrides, validated in one
place) sizes the streamed chunks and the Bernoulli summation fallback's
temporaries; it changes no result.  These tests pin the resolution
precedence, the validation failure modes and the per-chunk trial count.
"""

from __future__ import annotations

import pytest

from repro.backend import (
    CHUNK_ENV_VAR,
    DEFAULT_CHUNK_CELLS,
    chunk_trials,
    resolve_chunk_cells,
)
from repro.errors import BackendError


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
