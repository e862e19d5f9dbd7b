"""Render the persisted perf trajectory as diffable plain-text tables.

The benchmark harness appends one ``repro.bench_trajectory`` record per
gated measurement to ``BENCH_trajectory.json`` (see
:mod:`repro.observability.trajectory`); this module turns that history into
the human-facing artefacts:

* :func:`perf_trajectory_rows` — flat table rows, one per record, with the
  headline metric picked out per benchmark (speedup, variance reduction,
  overhead fraction);
* :func:`perf_trajectory_table` — the rows rendered through
  :func:`repro.analysis.tables.render_table`;
* :func:`latest_by_benchmark` — the newest record per benchmark, the
  one-glance "where is perf today" summary;
* :func:`detect_regressions` — the **perf-regression sentinel**: each
  benchmark's newest record is compared against the median of its prior
  history in the same mode on the same machine fingerprint, and a recorded
  slowdown beyond the tolerance comes back as a ``regressed`` verdict.
  ``python -m repro.analysis.perf_report`` runs the sentinel from the
  command line (exit code 1 on any regression), which is how CI turns an
  unwatched perf history into a failing check.

Rendering and checking are read-only: this module never writes the
trajectory file.
"""

from __future__ import annotations

import os
from statistics import median
from typing import Dict, List, Optional, Tuple, Union

from ..observability import load_trajectory
from .tables import render_table

__all__ = [
    "HEADLINE_METRICS",
    "LOWER_IS_BETTER_METRICS",
    "DEFAULT_TOLERANCE",
    "DEFAULT_MIN_HISTORY",
    "perf_trajectory_rows",
    "perf_trajectory_table",
    "latest_by_benchmark",
    "detect_regressions",
    "main",
]

#: Per-benchmark headline metric surfaced in the ``headline`` column; any
#: benchmark not listed falls back to its first sorted metric name.
HEADLINE_METRICS = {
    "scenarios": "speedup",
    "topology": "speedup",
    "dynamics": "speedup",
    "backend": "speedup",
    "backend_binomial": "speedup",
    "equivocation": "speedup",
    "rare_events": "variance_reduction",
    "observability": "overhead_fraction",
}


def _headline(record: dict) -> Tuple[str, object]:
    metrics = record["metrics"]
    name = HEADLINE_METRICS.get(record["benchmark"])
    if name is None or name not in metrics:
        name = sorted(metrics)[0]
    return name, metrics[name]


def perf_trajectory_rows(
    path: Union[None, str, os.PathLike] = None,
    benchmark: Optional[str] = None,
) -> List[dict]:
    """Flat table rows for the trajectory at ``path``, oldest first.

    ``benchmark`` filters to one benchmark's history (e.g. ``"scenarios"``);
    ``path`` resolves like the trajectory writers do (explicit path, else
    ``REPRO_BENCH_TRAJECTORY``, else ``BENCH_trajectory.json``).
    """
    rows = []
    for record in load_trajectory(path):
        if benchmark is not None and record["benchmark"] != benchmark:
            continue
        name, value = _headline(record)
        machine = record["machine"]
        rows.append(
            {
                "benchmark": record["benchmark"],
                "version": record["version"],
                "mode": record["mode"],
                "headline": f"{name}={value:.4g}"
                if isinstance(value, float)
                else f"{name}={value}",
                "gate": record["metrics"].get("gate", ""),
                "machine": "" if machine is None else machine.get("machine", ""),
                "metrics": len(record["metrics"]),
            }
        )
    return rows


def perf_trajectory_table(
    path: Union[None, str, os.PathLike] = None,
    benchmark: Optional[str] = None,
) -> str:
    """The perf history rendered as a plain-text table."""
    rows = perf_trajectory_rows(path, benchmark=benchmark)
    if not rows:
        return "(no trajectory records)"
    return render_table(rows)


def latest_by_benchmark(
    path: Union[None, str, os.PathLike] = None,
) -> Dict[str, dict]:
    """The newest trajectory record per benchmark (file order = age order)."""
    latest: Dict[str, dict] = {}
    for record in load_trajectory(path):
        latest[record["benchmark"]] = record
    return latest


#: Headline metrics where *smaller* numbers are better; every other metric
#: (speedups, variance reductions) improves upward.  Names ending in
#: ``_seconds`` or ``_fraction`` are treated as lower-is-better too.
LOWER_IS_BETTER_METRICS = {"overhead_fraction"}

#: Fractional drift the sentinel tolerates before calling a regression.
#: 0.4 is deliberately loose — benchmark timings on shared CI runners are
#: noisy, and the sentinel exists to catch *structural* slowdowns (a 2x
#: regression trips it comfortably), not 10% jitter.
DEFAULT_TOLERANCE = 0.4

#: Minimum number of *prior* same-mode records a benchmark needs before the
#: sentinel will judge it; with less history the verdict is "insufficient
#: history", never "regressed".
DEFAULT_MIN_HISTORY = 1


def _lower_is_better(name: str) -> bool:
    return (
        name in LOWER_IS_BETTER_METRICS
        or name.endswith("_seconds")
        or name.endswith("_fraction")
    )


def _fingerprint(record: dict) -> Optional[str]:
    """The record's :func:`~repro.observability.machine_info` as one string.

    ``None`` for records without provenance (the migrated legacy entries).
    """
    machine = record["machine"]
    if machine is None:
        return None
    return ", ".join(f"{key}={machine[key]}" for key in sorted(machine))


def detect_regressions(
    path: Union[None, str, os.PathLike] = None,
    tolerance: float = DEFAULT_TOLERANCE,
    min_history: int = DEFAULT_MIN_HISTORY,
    benchmark: Optional[str] = None,
) -> List[dict]:
    """Judge each benchmark's newest record against its own history.

    For every ``(benchmark, mode, machine fingerprint)`` group in the
    trajectory the newest record's headline metric is compared to the
    **median of the prior records'** values of the same metric — quick and
    full workloads never share a baseline, neither do two machines (a
    faster box's record never judges a CI runner's), records without
    provenance form their own group, and the median keeps one historical
    outlier from poisoning the comparison.  A higher-is-better metric
    regresses when it falls below ``baseline * (1 - tolerance)``; a
    lower-is-better one (see :data:`LOWER_IS_BETTER_METRICS`) when it rises
    above ``baseline * (1 + tolerance)``.

    Groups with fewer than ``min_history`` prior records, a non-numeric
    headline value, or a zero/negative baseline are reported but never
    flagged — the sentinel must pass on a freshly seeded trajectory.

    Returns one verdict dict per group, in first-seen order, each carrying
    ``benchmark``/``mode``/``fingerprint``/``metric``/``latest``/
    ``baseline``/``history``/``ratio``/``lower_is_better``/``tolerance``/
    ``regressed``/``detail`` (``fingerprint`` is ``None`` without provenance).
    """
    groups: Dict[Tuple[str, str, Optional[str]], List[dict]] = {}
    for record in load_trajectory(path):
        if benchmark is not None and record["benchmark"] != benchmark:
            continue
        key = (record["benchmark"], record["mode"], _fingerprint(record))
        groups.setdefault(key, []).append(record)
    verdicts = []
    for (bench, mode, fingerprint), records in groups.items():
        latest = records[-1]
        metric, value = _headline(latest)
        lower = _lower_is_better(metric)
        verdict = {
            "benchmark": bench,
            "mode": mode,
            "fingerprint": fingerprint,
            "metric": metric,
            "latest": value,
            "baseline": None,
            "history": 0,
            "ratio": None,
            "lower_is_better": lower,
            "tolerance": float(tolerance),
            "regressed": False,
            "detail": "",
        }
        history = [
            prior["metrics"][metric]
            for prior in records[:-1]
            if isinstance(prior["metrics"].get(metric), (int, float))
        ]
        verdict["history"] = len(history)
        if not isinstance(value, (int, float)):
            verdict["detail"] = f"headline {metric!r} is not numeric"
        elif len(history) < min_history:
            verdict["detail"] = (
                f"insufficient history ({len(history)} prior record(s), "
                f"need {min_history})"
            )
        else:
            baseline = median(history)
            verdict["baseline"] = baseline
            if baseline <= 0:
                verdict["detail"] = f"non-positive baseline {baseline!r}"
            else:
                ratio = value / baseline
                verdict["ratio"] = ratio
                if lower:
                    verdict["regressed"] = ratio > 1.0 + tolerance
                else:
                    verdict["regressed"] = ratio < 1.0 - tolerance
                direction = "<=" if lower else ">="
                verdict["detail"] = (
                    f"{metric}={value:.4g} vs median-of-{len(history)} "
                    f"baseline {baseline:.4g} (ratio {ratio:.3f}, "
                    f"want {direction} within {tolerance:.0%})"
                )
        verdicts.append(verdict)
    return verdicts


def main(argv: Optional[List[str]] = None) -> int:
    """CLI sentinel: print one verdict per line, exit 1 on any regression."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.perf_report",
        description=(
            "Check the committed perf trajectory for headline-metric "
            "regressions against each benchmark's own history."
        ),
    )
    parser.add_argument(
        "path",
        nargs="?",
        default=None,
        help="trajectory file (default: REPRO_BENCH_TRAJECTORY or "
        "BENCH_trajectory.json)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="fractional drift allowed before flagging (default %(default)s)",
    )
    parser.add_argument(
        "--min-history",
        type=int,
        default=DEFAULT_MIN_HISTORY,
        help="prior records required before judging (default %(default)s)",
    )
    options = parser.parse_args(argv)
    verdicts = detect_regressions(
        options.path,
        tolerance=options.tolerance,
        min_history=options.min_history,
    )
    if not verdicts:
        print("perf sentinel: no trajectory records to judge")
        return 0
    failed = 0
    for verdict in verdicts:
        status = "REGRESSED" if verdict["regressed"] else "ok"
        failed += int(verdict["regressed"])
        machine = verdict["fingerprint"] or "no provenance"
        print(
            f"perf sentinel: {status:9s} {verdict['benchmark']}/"
            f"{verdict['mode']} [{machine}]: {verdict['detail']}"
        )
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    import sys

    sys.exit(main())
