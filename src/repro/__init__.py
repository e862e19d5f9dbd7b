"""repro — a reproduction of "An Analysis of Blockchain Consistency in
Asynchronous Networks: Deriving a Neat Bound" (Jun Zhao, ICDCS 2020).

The library has five layers:

* :mod:`repro.params` — the protocol parameterisation of Table I;
* :mod:`repro.backend` — what the engines share beyond NumPy (the exact
  Binomial sampler, preallocated workspaces, chunk budgets);
* :mod:`repro.core` — the paper's contribution: the neat bound
  ``2 mu / ln(mu/nu)``, Theorems 1-3, the two Markov chains C_F and C_F||P,
  the concentration bounds, and the PSS/Kiffer baselines;
* :mod:`repro.markov` and :mod:`repro.simulation` — the substrates: generic
  finite Markov chains, and a round-based Nakamoto protocol simulator in the
  Δ-delay asynchronous model;
* :mod:`repro.analysis` — the experiment drivers that regenerate Figure 1,
  Remark 1 and the validation studies.

Quickstart
----------
>>> from repro import parameters_from_c, neat_bound, nu_max_neat_bound
>>> params = parameters_from_c(c=5.0, n=100_000, delta=10, nu=0.2)
>>> params.c > neat_bound(params.nu)       # consistency per the paper
True
>>> 0.0 < nu_max_neat_bound(2.0) < 0.5     # the magenta curve of Figure 1
True

Batch Monte Carlo
-----------------
Validation sweeps need many independent protocol executions; running them
one at a time through :class:`~repro.simulation.NakamotoSimulation` is the
slowest path in the library.  :class:`~repro.simulation.BatchSimulation`
executes ``T`` trials *simultaneously* as NumPy array operations — oracle
successes drawn as whole ``(trials, rounds)`` tensors, convergence
opportunities located with vectorized window tests, Lemma 1 margins and
worst windowed ``A - C`` deficits aggregated per trial — typically
10-100x faster than the per-trial loop at equal trial counts.

>>> from repro import BatchSimulation
>>> small = parameters_from_c(c=4.0, n=1_000, delta=3, nu=0.2)
>>> batch = BatchSimulation(small, rng=0).run(trials=32, rounds=2_000)
>>> batch.convergence_opportunities.shape
(32,)
>>> bool(batch.lemma1_fraction > 0.5)
True

:class:`~repro.simulation.ExperimentRunner` fronts every engine through
one point-spec path.  Each ``run_*`` call describes its point (parameters,
shape and any scenario, delay model, power profile, placement, rare-event
or streaming spec); the point's version-free payload seeds its
:class:`numpy.random.SeedSequence` and, with the package version, names
one ``.npz`` cache entry (a damaged entry is recomputed and counted); and
every grid, whatever its engine, can shard over a ``multiprocessing`` pool
with results bit-identical to a serial run; see
``examples/batch_validation.py``.  The legacy single-trial simulator
remains the reference implementation — the batch engine is tested to
produce identical per-round counts and convergence tallies when both are
driven from the same pre-drawn trace.

Adversarial scenario registry
-----------------------------
Attacks are described declaratively by :class:`~repro.simulation.Scenario`
objects held in a registry: ``passive`` and ``max_delay`` (publish
immediately, delaying honest blocks by 0 and Δ rounds respectively),
``private_chain`` (the PSS Remark 8.5 withholding attack, parameterised by
``target_depth`` and ``give_up_deficit``), ``selfish_mining``
(Eyal-Sirer adapted to the round model), and — via
:mod:`repro.simulation.dynamics` — ``eclipse`` / ``partition_attack``
(withholding plus a scheduled network cut) and ``equivocation`` (the
adversary shows *conflicting* private chains to the two sides of a partial
cut; see the network-dynamics section).  Look scenarios up with
:func:`~repro.simulation.get_scenario`, enumerate them with
:func:`~repro.simulation.list_scenarios`, and add custom variants with
:func:`~repro.simulation.register_scenario`.  Each scenario runs on two
engines that are bit-comparable under scripted replay: the vectorized
:class:`~repro.simulation.ScenarioSimulation` (all trials at once, attack
state as ``(trials,)`` tensors) and, as the reference implementation, the
legacy :class:`~repro.simulation.NakamotoSimulation` with the scenario's
:meth:`~repro.simulation.Scenario.build_adversary` strategy.

>>> from repro import ScenarioSimulation
>>> from repro.simulation import list_scenarios
>>> sorted(list_scenarios())
['eclipse', 'equivocation', 'max_delay', 'partition_attack', 'passive', 'private_chain', 'selfish_mining']
>>> attack = parameters_from_c(c=1.0, n=400, delta=3, nu=0.4)
>>> result = ScenarioSimulation(attack, "private_chain", rng=0).run(8, 2_000)
>>> bool(result.attack_success_probability >= 0.0)
True

``repro.analysis.attack_sweeps`` turns the per-point results into
attack-success-probability and fork-depth surfaces over
(scenario, nu, Δ) grids with confidence intervals; see
``examples/attack_surface_sweep.py``.

Network topologies
------------------
The paper prices every message at the single worst-case delay Δ and gives
every miner identical power; :mod:`repro.simulation.topology` relaxes both
while keeping fixed-Δ as an exactly-reproducible special case.  *Delay
models* (a registry: ``fixed_delta``, ``uniform``, ``truncated_geometric``,
``peer_graph``) draw per-block all-honest-delivery offsets as
``(trials, rounds)`` tensors capped at Δ and plug into both engines via
``delay_model=`` — ``fixed_delta`` is bit-identical to the pre-topology
engines and consumes no entropy.  A
:class:`~repro.simulation.PeerGraphTopology` (ring, random-regular,
Erdős–Rényi, star generators with per-edge integer latencies) derives
those offsets from vectorized gossip-front propagation, and its
:meth:`~repro.simulation.PeerGraphTopology.effective_delta` maps the
topology back into the analytical world, so ``core.bounds`` predictions
can be compared against simulation under realistic propagation.
Heterogeneous mining power enters through
:class:`~repro.simulation.MiningPowerProfile` (per-miner ``p_i`` with the
aggregate rates validated against the parameter point), accepted by
``MiningOracle``/``ScriptedMiningOracle`` and both engines via ``power=``.

>>> from repro import PeerGraphTopology
>>> topology = PeerGraphTopology.random_regular(32, 4, rng=0)
>>> 1 <= topology.effective_delta() <= topology.diameter
True

``ExperimentRunner.run_topology_point`` / ``run_topology_grid`` add
topology-aware cache keys (graph wiring and power profiles are part of the
key, as is the package version — a warm cache is never silently reused
across upgrades), and ``repro.analysis.topology_sweeps`` produces
Δ-tightness curves — empirical convergence-opportunity rates under gossip
versus the fixed-Δ prediction, per graph degree and latency spread, with
95% CIs; see ``examples/topology_sweep.py``.

Network dynamics
----------------
:mod:`repro.simulation.dynamics` makes the network a function of the round
index.  A :class:`~repro.simulation.DynamicsSchedule` lists round-indexed
events — peer churn (:class:`~repro.simulation.ChurnEvent`), latency drift
(:class:`~repro.simulation.LatencyDriftEvent`) and bounded-window
partitions or full eclipses (:class:`~repro.simulation.PartitionEvent`) —
and compiles into per-round delivery tensors consumed by both engines
through :class:`~repro.simulation.TimeVaryingDelayModel`.  An empty
schedule is bit-identical to the static subsystem; a partition window is
the adversary *breaking* the Δ guarantee for a bounded span, so obstructed
blocks deliver later than Δ and convergence opportunities vanish inside
the window while the adversary keeps mining.  ``eclipse`` and
``partition_attack`` scenarios (the adversary schedules the cut and mines
privately inside it) join the scenario registry, and
:class:`~repro.simulation.AdversaryPlacement` positions corrupted miners
on the gossip graph — their releases then propagate through gossip
(``hub`` / ``leaf`` / ``random``) instead of landing instantaneously.

A :class:`~repro.simulation.PartitionScenario` with ``cut_fraction`` set
makes the cut *partial*: the honest network splits into a majority and a
minority component (each honest success landing in the minority with that
probability) and the scan runs a **second component** inside each cut
window — its own public height and delivery ring, a common prefix frozen
at the cut round, and merge-on-heal reconciliation where the higher chain
wins and the losing suffix counts as displaced depth.  The
``equivocation`` scenario rides on it: the adversary maintains one private
chain per component, feeds each round's successes to the weaker race, and
releases conflicting chains to the two sides.  Both are pinned bit-exactly
to the pure-Python :func:`~repro.simulation.reference_partition_scan`;
outside every window the round body is the one every scenario runs, so a
run with no window stays bit-identical to the legacy engine.  Routing a
*node-set* partition through the single-height delay-model path raises
:class:`~repro.errors.SimulationError` instead of silently mispricing the
race.

>>> from repro.simulation import DynamicsSchedule, PartitionEvent, TimeVaryingDelayModel
>>> model = TimeVaryingDelayModel(DynamicsSchedule([PartitionEvent(1_000, 200)]))
>>> eclipse = BatchSimulation(small, rng=0, delay_model=model).run(32, 2_000)
>>> int(eclipse.worst_deficits.max()) >= int(batch.worst_deficits.max())
True

``ExperimentRunner.run_dynamics_point`` / ``run_dynamics_grid`` give every
(schedule, topology, scenario, placement) combination its own cache slot
and seed stream, and ``repro.analysis.partition_sweeps`` turns the results
into violation-depth-versus-partition-duration curves (deterministically
monotone under the shared-trace design) and churn-rate tightness tables;
see ``examples/partition_attack_sweep.py``.

Rare-event tails
----------------
The security margins the paper cares about live at violation probabilities
of ``1e-9`` and below — far past what plain Monte Carlo can see.
:class:`~repro.simulation.RareEventSimulation` estimates
``P[worst windowed A - C deficit >= depth]`` with two variance-reduction
techniques layered on the batch engine: *exponential tilting* of the
Bernoulli/Binomial mining draws (adversary up, honest down; exact stopped
per-trial likelihood ratios, a cross-entropy pilot stage that centres the
deficit on the violation threshold, and bit-identity with plain MC at zero
tilt) and *multilevel splitting* on the worst windowed deficit (trajectories
cloned at their first level crossing, suffixes redrawn).  Plain-MC
estimates carry Wilson score intervals, so a zero-violation run reports an
honest strictly positive upper bound rather than false certainty.  The
estimator takes a seed, not a live generator: plain and tilted runs draw
the streaming engine's seed blocks (plain MC *is* a streamed batch point),
the pilot and splitting draw from the seed's own generator, and so no
chunk budget changes an estimate.

>>> from repro.simulation import RareEventSimulation
>>> tail = RareEventSimulation(small, depth=8, rng=0).run_tilted(512, 600)
>>> bool(0.0 < tail.probability < 1.0)
True

``ExperimentRunner.run_rare_event_point`` / ``run_rare_event_grid`` give
every estimator spec (depth, method, tilt, pilot knobs) its own cache slot
and seed stream, and ``repro.analysis.tail_sweeps`` compares the estimated
tails against the Lundberg-exponent predictions under the corrected
Eq. (44) and Kiffer convergence rates — plus a plain-MC agreement table in
the 1e-4-to-1e-6 overlap region; see ``examples/rare_event_tail.py``.

Streaming
---------
Dense batch results hold per-trial arrays, so a grid point's memory grows
linearly with ``trials`` — at ``1e8`` trials the trace tensors alone pass
100 GB.  :class:`~repro.simulation.StreamingBatchSimulation` (and
:class:`~repro.simulation.StreamingScenarioSimulation` for attack
scenarios) drive the *same dense kernels* in bounded pieces: trials are
carved into fixed seed blocks
(:data:`~repro.simulation.SEED_BLOCK_CELLS` cells each, every block drawn
from its own spawned :class:`numpy.random.SeedSequence`), each execution
chunk groups whole consecutive blocks inside the
``REPRO_CHUNK_CELLS``/``chunk_cells`` budget, and per-block slices fold
into online accumulators — exact integer tallies, Chan/Kahan-merged float
moments, a bounded worst-deficit histogram.  A streamed batch point
analyses each block where it was drawn, so its memory is one block's at
any budget; a streamed scenario point scans a whole chunk at once, which
its round scan needs to run fast.  The streamed summary has the
same keys as the dense ``summary()`` (integer-backed entries exact, float
moments within :data:`~repro.simulation.STREAM_STAT_RTOL`), and because
draws are per-block — never per-chunk — it is **bit-identical for every
chunk size**, payload included, and for serial versus sharded execution.
``ExperimentRunner.run_streaming_point`` / ``run_streaming_grid`` cache
the summary-only results by statistical identity (``chunk_cells`` is
execution policy and deliberately excluded from the key), and
``benchmarks/bench_streaming.py`` gates the streamed peak footprint at
<= 10% of the projected dense peak without giving up throughput.

>>> from repro import StreamingBatchSimulation
>>> streamed = StreamingBatchSimulation(small, seed=0, chunk_cells=1_000)
>>> tiny = StreamingBatchSimulation(small, seed=0, chunk_cells=1)
>>> streamed.run(64, 400, depths=(1,)).summary() == tiny.run(
...     64, 400, depths=(1,)
... ).summary()
True

The array layer
---------------
The engines call NumPy directly, and every draw comes from the caller's
:class:`numpy.random.Generator`.  The per-round block counts come from
:func:`repro.backend.binomial`, a vectorized copy of NumPy's inversion
sampler: ``Generator.binomial``'s values, written into the engine's own
count tensor, with the generator left in the same state, about twice as
fast at the paper's points.  Results are NumPy arrays that never alias
engine scratch memory.

The engines name their dtypes directly (int32 drawn counts, int64 heights,
running sums and per-trial results, bool masks, float64 statistics).  A :class:`~repro.backend.Workspace` of
preallocated scratch buffers tunes their memory behaviour: the mask and
drawdown kernels reuse it across repeated (trials, rounds) runs —
``ExperimentRunner`` threads one workspace through every grid point; without
one the same kernels allocate per call.  ``benchmarks/bench_backend.py``
gates them at >= 3x over the allocating reference pipeline.  See
``examples/backend_speed.py``.

>>> from repro import Workspace
>>> pooled = BatchSimulation(small, rng=0, workspace=Workspace()).run(32, 2_000)
>>> bool((pooled.convergence_opportunities == batch.convergence_opportunities).all())
True

Observability
-------------
:mod:`repro.observability` instruments every engine and the
:class:`~repro.simulation.ExperimentRunner` with zero overhead when off —
the default state is pinned bit-identical to the uninstrumented engines by
golden-digest tests, and hot-path kernels never touch instrumentation
inside their per-round loops (enforced by the AST hygiene guard).  Four
pieces:

* **tracing** — ``REPRO_TRACE=1`` (process-wide) or a
  :func:`~repro.observability.use_tracer` context records nestable wall-
  time spans (runner call → engine stage → kernel), each stamped with the
  array library and dtypes (``numpy``, ``wide``);
* **metrics** — counters and gauges (trials/rounds simulated, cache
  hits/misses and version skips per runner method, workspace reuse versus
  fresh allocation, rare-event pilot iterations and ESS) behind
  :func:`~repro.observability.use_metrics`, exported as one JSON snapshot;
* **run manifests** — ``ExperimentRunner(run_log=...)`` or
  ``REPRO_RUN_LOG=path`` appends one validated JSON line per ``run_*``
  call (schema ``repro.run_manifest``: params, seed, cache slot and
  hit/miss state, duration, backend, package version, result digest),
  giving every cached ``.npz`` artefact a provenance trail;
* **perf trajectory** — the gated benchmarks append schema-versioned
  records (``repro.bench_trajectory``) to the committed
  ``BENCH_trajectory.json`` under ``REPRO_BENCH_RECORD=1``, and
  :func:`repro.analysis.perf_trajectory_table` renders the history.

The layer also reaches across process and run boundaries:

* **cross-process capture** — sharded grids ship each pool worker's span
  trees, metrics snapshot and buffered manifest records back with the
  result; the parent grafts the spans under its grid-level span
  (shard-stamped), folds the counters into the ambient registry and
  appends the manifests to its run log, so a ``processes=N`` grid reports
  exactly like a sequential one (:mod:`repro.observability.distributed`);
* **live grid progress** — ``REPRO_PROGRESS=stderr`` (a self-overwriting
  status line) or ``REPRO_PROGRESS=path.jsonl`` (machine-readable events)
  reports per-point completions with duration, running cache-hit ratio and
  ETA; off by default (:mod:`repro.observability.progress`);
* **resource accounting** — peak RSS and the workspace's high-water byte
  footprint are sampled at every run boundary and stamped into the
  manifest's ``extra["resources"]`` (:mod:`repro.observability.resources`);
* **perf-regression sentinel** —
  :func:`repro.analysis.detect_regressions` (also ``python -m
  repro.analysis.perf_report``) compares each benchmark's newest
  trajectory record against the median of its prior same-mode history and
  fails CI on a beyond-tolerance slowdown.

>>> from repro.observability import use_metrics, use_tracer
>>> with use_tracer() as tracer, use_metrics() as metrics:
...     _ = BatchSimulation(small, rng=0).run(8, 500)
>>> [root.name for root in tracer.roots]
['batch.run']
>>> metrics.counter("engine.batch.trials")
8
"""

from .core import (
    ConcatChain,
    ConsistencyAnalyzer,
    ConsistencyVerdict,
    MiningProbabilities,
    SuffixChain,
    evaluate_bounds,
    neat_bound,
    nu_max_neat_bound,
    nu_max_pss_consistency,
    nu_min_pss_attack,
    theorem1_condition,
    theorem2_condition,
)
from .backend import Workspace
from .errors import (
    AnalysisError,
    BackendError,
    MarkovChainError,
    ParameterError,
    ReproError,
    SimulationError,
)
from ._version import __version__
from .params import ProtocolParameters, parameters_for_target_alpha, parameters_from_c
from .simulation import (
    AdversaryPlacement,
    BatchResult,
    BatchSimulation,
    DelayModel,
    DynamicsSchedule,
    ExperimentRunner,
    MiningPowerProfile,
    PartitionScenario,
    PeerGraphDelayModel,
    PeerGraphTopology,
    RareEventResult,
    RareEventSimulation,
    Scenario,
    ScenarioResult,
    ScenarioSimulation,
    StreamingBatchResult,
    StreamingBatchSimulation,
    StreamingScenarioResult,
    StreamingScenarioSimulation,
    TimeVaryingDelayModel,
)

__all__ = [
    "__version__",
    "ProtocolParameters",
    "parameters_from_c",
    "parameters_for_target_alpha",
    "MiningProbabilities",
    "neat_bound",
    "nu_max_neat_bound",
    "nu_max_pss_consistency",
    "nu_min_pss_attack",
    "theorem1_condition",
    "theorem2_condition",
    "evaluate_bounds",
    "SuffixChain",
    "ConcatChain",
    "ConsistencyAnalyzer",
    "ConsistencyVerdict",
    "BatchSimulation",
    "BatchResult",
    "ExperimentRunner",
    "Scenario",
    "ScenarioResult",
    "ScenarioSimulation",
    "DelayModel",
    "MiningPowerProfile",
    "PeerGraphDelayModel",
    "PeerGraphTopology",
    "DynamicsSchedule",
    "TimeVaryingDelayModel",
    "AdversaryPlacement",
    "PartitionScenario",
    "RareEventSimulation",
    "RareEventResult",
    "StreamingBatchSimulation",
    "StreamingBatchResult",
    "StreamingScenarioSimulation",
    "StreamingScenarioResult",
    "Workspace",
    "ReproError",
    "ParameterError",
    "MarkovChainError",
    "SimulationError",
    "AnalysisError",
    "BackendError",
]
