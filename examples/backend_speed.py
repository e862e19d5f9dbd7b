#!/usr/bin/env python3
"""Walk the array layer: workspaces.

Run with::

    python examples/backend_speed.py [--trials T] [--rounds R] [--repeats K]

The engines call NumPy directly; ``repro.backend`` holds what they share
beyond it: the exact Binomial sampler, workspaces and chunk budgets.  This
script shows the user-facing memory knob, the workspace: a
:class:`repro.backend.Workspace` pools the mask and drawdown kernels'
scratch buffers across repeated runs; without one the same kernels
allocate per call and return the same numbers.  The script checks that,
then times the pooled kernels against an allocating reference pipeline
(core's window-sum mask plus a cumsum drawdown) on the same pre-drawn
tensors (``bench_backend.py`` gates this at >= 3x).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.backend import Workspace
from repro.core.concat_chain import convergence_opportunity_mask
from repro.params import parameters_from_c
from repro.simulation import BatchSimulation, draw_mining_traces


def best_of(repeats, callable_):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def reference_deficits(honest, adversary, delta):
    """Worst windowed deficits from core's mask, allocating every step."""
    mask = convergence_opportunity_mask(honest, delta)
    difference = np.cumsum(mask.astype(np.int64) - adversary, axis=1)
    padded = np.pad(difference, ((0, 0), (1, 0)))
    return (np.maximum.accumulate(padded, axis=1) - padded).max(axis=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=256)
    parser.add_argument("--rounds", type=int, default=8_000)
    parser.add_argument("--repeats", type=int, default=10)
    args = parser.parse_args(argv)
    params = parameters_from_c(c=4.0, n=1_000, delta=3, nu=0.2)

    # One kernel path with or without a workspace, against the allocating
    # reference on the deterministic analysis half.
    honest, adversary = draw_mining_traces(params, args.trials, args.rounds, rng=0)
    workspace = Workspace()
    pooled = BatchSimulation(params, rng=0, workspace=workspace)
    result = pooled.run_traces(honest, adversary)
    unpooled = BatchSimulation(params, rng=0).run_traces(honest, adversary)
    reference = reference_deficits(honest, adversary, params.delta)
    assert np.array_equal(result.worst_deficits, unpooled.worst_deficits)
    assert np.array_equal(result.worst_deficits, reference)
    kernels = best_of(args.repeats, lambda: pooled.run_traces(honest, adversary))
    allocating = best_of(
        args.repeats, lambda: reference_deficits(honest, adversary, params.delta)
    )
    print(
        f"kernels at {args.trials}x{args.rounds}: allocating reference "
        f"{allocating * 1e3:.2f}ms, pooled kernels {kernels * 1e3:.2f}ms, "
        f"{allocating / kernels:.2f}x; workspace holds "
        f"{workspace.nbytes / 1e6:.1f} MB in {len(workspace.tags)} buffers"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
