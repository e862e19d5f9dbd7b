"""The repository benchmark: four ExperimentRunner workloads, measured and checked.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload stream_validation --seed 1 \\
        --seconds 20 --trace 0

It repeats the workload (cold pass, checks, warm pass; see
``workloads.py``) until ``--seconds`` have passed, prints a table of every
metric with its unit to standard error, and prints one JSON object as the
last line of standard output: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``, measured with tracing off; ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics (see
``stages.py``).  A point that raises or fails its check counts as failed and
never stops the run; ``error_rate`` in the table is ``failed / attempted``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for caches, inside the checkout.
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
WORKLOAD_NAMES = (
    "stream_validation",
    "attack_scenarios",
    "tail_estimates",
    "sweep_sharded",
)
#: Set-up is measured this many times per run, in fresh interpreters, one
#: before each of the first repetitions.
SETUP_PROBES = 5
#: Cache-hit calls per latency window: p90 has ten samples beyond it.
WARM_WINDOW = 100
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "cells_per_s": "cells/s",
    "peak_rss_mb": "MB",
    "peak_workspace_mb": "MB",
    "time_to_1pct_s": "s",
    "warm_point_ms_p50": "ms",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _probe(*args: str, work_dir: str) -> dict:
    environment = dict(os.environ, TMPDIR=work_dir)
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "probes.py"), *args],
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        env=environment,
        check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _percentile(values, fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(int(fraction * len(ordered)), len(ordered) - 1)]


def measure(workload, seed: int, seconds: float, traced: bool, work_dir: str):
    """Repeat the workload for ``seconds``; returns plain and traced reps and set-ups.

    With ``traced`` the repetitions alternate untraced and traced, so both
    halves see the same machine state, and the run ends on a pair.  A set-up
    probe runs before each of the first :data:`SETUP_PROBES` repetitions,
    so the probes see the machine over the whole run rather than over one
    stretch of it; their time does not count against ``seconds``.
    """
    import stages
    import workloads
    from repro.observability import Tracer, use_tracer

    def probe_setup():
        setup.append(
            _probe(
                "setup", "--workload", workload.name, "--seed", str(seed),
                "--work", work_dir, work_dir=work_dir,
            )["setup_s"]
        )

    plain, traced_reps, setup = [], [], []
    measured = 0.0
    while True:
        if len(setup) < SETUP_PROBES:
            probe_setup()
        started = time.perf_counter()
        if traced and len(traced_reps) < len(plain):
            with use_tracer(Tracer()) as tracer, stages.stage_wrappers():
                rep = workloads.run_rep(workload, seed, work_dir)
            fold = stages.fold_spans(tracer.roots, workload.processes or 1)
            traced_reps.append((rep, fold))
        else:
            plain.append(workloads.run_rep(workload, seed, work_dir))
        measured += time.perf_counter() - started
        paired = not traced or len(traced_reps) == len(plain)
        if paired and measured >= seconds:
            break
    while len(setup) < SETUP_PROBES:
        probe_setup()
    return plain, traced_reps, setup


def _warm_windows(plain) -> list:
    """Each repetition's warm latencies cut into whole windows."""
    return [
        rep.warm_ms[start : start + WARM_WINDOW]
        for rep in plain
        for start in range(0, len(rep.warm_ms) - WARM_WINDOW + 1, WARM_WINDOW)
    ]


def best_cold(workload, plain) -> tuple:
    """Cold-pass seconds and pilot seconds of the run's best cold pass.

    Every repetition computes the same points from the same seed, so the
    fastest time of each serial point, summed, is a cold pass the program
    can do.  A sharded grid's points overlap; there the fastest whole grid
    call counts.
    """
    if workload.processes:
        rep = min(plain, key=lambda rep: rep.cold_s)
        return rep.cold_s, sum(rep.pilot_s)

    def summed_minimum(lists):
        lengths = {len(values) for values in lists}
        if len(lengths) != 1:  # a raising grid call cut a repetition short
            return math.nan
        return sum(map(min, zip(*lists)))

    return (
        summed_minimum([rep.point_s for rep in plain]),
        summed_minimum([rep.pilot_s for rep in plain]),
    )


def end_to_end_metrics(workload, plain, setup: list) -> dict:
    """Best cold pass, best set-up and best warm window of the run.

    On a shared two-CPU virtual machine the same process runs a third to
    twice as slow for seconds at a time with no change in the code: a
    pinned cache-hit loop steps between 0.39, 0.55 and 0.7 ms, on tmpfs as
    on disk, with no steal time, and a set-up probe between 0.96 and 1.3 s.
    Which stretch a median lands in then decides the run.  The best cold
    time of each point, the fastest set-up, and the best window of
    :data:`WARM_WINDOW` cache-hit calls track the program, as long as a run
    sees the machine at its usual speed at least once.
    """
    import workloads

    cold_s, pilot_s = best_cold(workload, plain)
    return {
        "setup_s": min(setup),
        "cells_per_s": max(rep.cells for rep in plain) / cold_s,
        "peak_rss_mb": _peak_rss_mb(),
        "peak_workspace_mb": max(rep.peak_workspace_bytes for rep in plain) / 1e6,
        "time_to_1pct_s": workloads.time_to_1pct_s(
            cold_s, pilot_s, plain[0].relative_errors
        ),
        "warm_point_ms_p50": min(
            map(statistics.median, _warm_windows(plain)), default=math.nan
        ),
    }


def warm_p90(plain) -> float:
    """The best warm window's 90th percentile.

    A per-layer metric, not an end-to-end one: on the shared machine this
    tail moves by a fifth to a third between runs whatever the statistic.
    """
    return min(
        (_percentile(window, 0.9) for window in _warm_windows(plain)),
        default=math.nan,
    )


def floors_for(workload) -> list:
    """Probe arguments at the workload's middle point's miner counts and p."""
    points = [point for group in workload.groups() for point in group]
    params = points[len(points) // 2].params
    honest = max(int(round(params.honest_count)), 1)
    adversary = int(round(params.adversary_count))
    return ["floors", "--honest", str(honest), "--adversary", str(adversary),
            "--p", repr(params.p)]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"perfbench: no repro package under {SRC}; run from the root of a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    import stages
    import workloads

    workload = workloads.build(args.workload)
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        with workloads.pinned():
            floors = (
                _probe(*floors_for(workload), work_dir=work_dir)
                if args.trace
                else None
            )
            plain, traced, setup = measure(
                workload, args.seed, args.seconds, bool(args.trace), work_dir
            )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    reps = plain + [rep for rep, _ in traced]
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    for reason in sorted({reason for rep in reps for reason in rep.failures}):
        print(f"FAILED: {reason}", file=sys.stderr)
    if args.trace:
        values = stages.layer_metrics(plain, traced, floors)
        values["runner.warm_point_ms_p90"] = warm_p90(plain)
        units = stages.LAYER_UNITS
    else:
        values = end_to_end_metrics(workload, plain, setup)
        units = END_TO_END_UNITS
    finite = all(math.isfinite(value) for value in values.values())
    metrics = {
        name: {"value": value if math.isfinite(value) else None, "unit": units[name]}
        for name, value in values.items()
    }
    print(
        f"{args.workload} seed={args.seed} repetitions={len(plain)} untraced"
        f" + {len(traced)} traced, error_rate={failed / max(attempted, 1):.4g}"
        f" ({failed}/{attempted})",
        file=sys.stderr,
    )
    for rep in reps:
        print(
            f"  repetition: cold {rep.cold_s:.4f} s"
            f" ({rep.cells / rep.cold_s:.6g} cells/s),"
            f" points {' '.join(f'{seconds:.4f}' for seconds in rep.point_s)} s,"
            f" time to 1% {rep.time_to_1pct_s:.4g} s,"
            f" warm p50 {statistics.median(rep.warm_ms or [math.nan]):.4f} ms,"
            f" p90 {_percentile(rep.warm_ms or [math.nan], 0.9):.4f} ms",
            file=sys.stderr,
        )
    print(f"  set-ups: {' '.join(f'{seconds:.4f}' for seconds in setup)} s", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']!r:>24} {metric['unit']}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": failed == 0 and finite,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
