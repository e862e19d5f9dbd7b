"""Experiment drivers: regenerate the paper's figure, tables and validation studies.

* :mod:`repro.analysis.figure1` — the three curves of Figure 1;
* :mod:`repro.analysis.remark1` — the numerical ranges of Remark 1
  (Inequalities 12-17);
* :mod:`repro.analysis.tables` — plain-text rendering, including Table I;
* :mod:`repro.analysis.validation` — theory-versus-simulation agreement;
* :mod:`repro.analysis.sweeps` — (c, nu) sweeps and the proof-chain ablation;
* :mod:`repro.analysis.attack_sweeps` — attack-success-probability and
  fork-depth surfaces over (scenario, nu, Delta), on the vectorized
  scenario engine;
* :mod:`repro.analysis.topology_sweeps` — Δ-tightness curves: empirical
  convergence-opportunity rates under peer-graph gossip propagation versus
  the paper's fixed-Δ prediction, per graph degree / latency spread;
* :mod:`repro.analysis.partition_sweeps` — consistency-violation depth
  versus partition/eclipse duration (deterministically monotone under the
  shared-trace design), churn-rate tightness tables, and equivocation vs
  single-chain partial-cut comparisons on shared traces, on the dynamics
  subsystem;
* :mod:`repro.analysis.power_sweeps` — pool-concentration tables: Gini/HHI
  of a skewed :class:`~repro.simulation.MiningPowerProfile` versus the
  Poisson-binomial shift of the Eq. (44) convergence-opportunity rate;
* :mod:`repro.analysis.tail_sweeps` — deep-tail validation on the
  rare-event estimator: tilted/splitting violation tails versus the
  Lundberg-exponent predictions under the corrected and Kiffer
  convergence rates, plus the plain-MC overlap-region agreement table;
* :mod:`repro.analysis.perf_report` — the persisted benchmark trajectory
  (``BENCH_trajectory.json``) rendered as diffable plain-text tables, plus
  :func:`~repro.analysis.perf_report.detect_regressions`, the CI perf
  sentinel that compares each benchmark's newest record to the median of
  its prior same-mode history.  Its names load on first use, so
  ``python -m repro.analysis.perf_report`` runs a module the package has
  not imported yet.
"""

from .attack_sweeps import ATTACK_SCENARIOS, attack_success_grid, attack_surface_sweep
from .partition_sweeps import (
    churn_tightness_table,
    equivocation_comparison_sweep,
    partition_depth_sweep,
)
from .power_sweeps import (
    concentration_table,
    gini_coefficient,
    herfindahl_index,
    zipf_weights,
)
from .topology_sweeps import (
    build_regular_topology,
    delta_tightness_sweep,
    effective_delta_table,
)
from .figure1 import Figure1Point, Figure1Series, default_c_grid, figure1_checks, figure1_series
from .regions import RegionAreas, SecurityRegion, classify_point, region_areas
from .remark1 import PAPER_SETTINGS, Remark1Row, remark1_row, remark1_table
from .report import ReportConfig, generate_report
from .sweeps import (
    batch_simulation_sweep,
    bound_sweep,
    implication_chain_ablation,
    security_margin_sweep,
    simulation_sweep,
)
from .tables import format_value, render_mapping, render_table, table_i
from .tail_sweeps import (
    lundberg_exponent,
    overlap_validation_table,
    tail_depth_sweep,
)
from .validation import (
    BatchExpectationValidation,
    ConsistencyScenario,
    ExpectationValidation,
    StationaryValidation,
    validate_consistency_scenario,
    validate_expectations,
    validate_expectations_batch,
    validate_suffix_stationary,
)

__all__ = [
    "Figure1Point",
    "Figure1Series",
    "default_c_grid",
    "figure1_series",
    "figure1_checks",
    "Remark1Row",
    "remark1_row",
    "remark1_table",
    "PAPER_SETTINGS",
    "ReportConfig",
    "generate_report",
    "SecurityRegion",
    "RegionAreas",
    "classify_point",
    "region_areas",
    "render_table",
    "render_mapping",
    "format_value",
    "table_i",
    "StationaryValidation",
    "ExpectationValidation",
    "BatchExpectationValidation",
    "ConsistencyScenario",
    "validate_suffix_stationary",
    "validate_expectations",
    "validate_expectations_batch",
    "validate_consistency_scenario",
    "bound_sweep",
    "security_margin_sweep",
    "simulation_sweep",
    "batch_simulation_sweep",
    "implication_chain_ablation",
    "ATTACK_SCENARIOS",
    "attack_surface_sweep",
    "attack_success_grid",
    "build_regular_topology",
    "delta_tightness_sweep",
    "effective_delta_table",
    "partition_depth_sweep",
    "churn_tightness_table",
    "equivocation_comparison_sweep",
    "zipf_weights",
    "gini_coefficient",
    "herfindahl_index",
    "concentration_table",
    "lundberg_exponent",
    "tail_depth_sweep",
    "overlap_validation_table",
    "perf_trajectory_rows",
    "perf_trajectory_table",
    "latest_by_benchmark",
    "detect_regressions",
    "DEFAULT_TOLERANCE",
    "DEFAULT_MIN_HISTORY",
]


def __getattr__(name: str):
    # The only public names not imported above are perf_report's.
    if name in __all__:
        from . import perf_report

        return getattr(perf_report, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
