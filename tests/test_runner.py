"""Tests for the ExperimentRunner: seeding, caching, sharding."""

from __future__ import annotations

import json
import multiprocessing.pool
import os

import numpy as np
import pytest

import repro._version as version_module
from repro.errors import SimulationError
from repro.observability import read_run_log, use_metrics
from repro.params import parameters_from_c
from repro.simulation import (
    AdversaryPlacement,
    DynamicsSchedule,
    ExperimentRunner,
    MiningPowerProfile,
    PartitionEvent,
    PartitionScenario,
    PeerGraphDelayModel,
    PeerGraphTopology,
    TimeVaryingDelayModel,
    get_scenario,
)
from repro.simulation.rare_events import ExponentialTilt

PARAMS = parameters_from_c(c=4.0, n=1_000, delta=3, nu=0.2)
OTHER = parameters_from_c(c=2.0, n=1_000, delta=3, nu=0.3)


class TestSeeding:
    def test_same_base_seed_reproduces_results(self):
        first = ExperimentRunner(base_seed=5).run_point(PARAMS, trials=6, rounds=800)
        second = ExperimentRunner(base_seed=5).run_point(PARAMS, trials=6, rounds=800)
        assert np.array_equal(
            first.convergence_opportunities, second.convergence_opportunities
        )
        assert np.array_equal(first.adversary_blocks, second.adversary_blocks)

    def test_different_base_seed_changes_results(self):
        first = ExperimentRunner(base_seed=5).run_point(PARAMS, trials=6, rounds=800)
        third = ExperimentRunner(base_seed=6).run_point(PARAMS, trials=6, rounds=800)
        assert not np.array_equal(first.honest_blocks, third.honest_blocks)

    def test_point_results_independent_of_grid_composition(self):
        """A point's stream is a pure function of (params, shape, seed)."""
        runner = ExperimentRunner(base_seed=9)
        solo = runner.run_point(PARAMS, trials=4, rounds=600)
        grid = ExperimentRunner(base_seed=9).run_grid(
            [OTHER, PARAMS], trials=4, rounds=600
        )
        assert np.array_equal(
            solo.convergence_opportunities, grid[1].convergence_opportunities
        )
        assert np.array_equal(solo.honest_blocks, grid[1].honest_blocks)

    def test_cache_key_separates_configurations(self):
        runner = ExperimentRunner(base_seed=0)
        baseline = runner.cache_key(PARAMS, 4, 100)
        assert runner.cache_key(PARAMS, 5, 100) != baseline
        assert runner.cache_key(PARAMS, 4, 101) != baseline
        assert runner.cache_key(OTHER, 4, 100) != baseline
        assert ExperimentRunner(base_seed=1).cache_key(PARAMS, 4, 100) != baseline


class TestCache:
    def test_roundtrip_hit_returns_identical_result(self, tmp_path):
        runner = ExperimentRunner(base_seed=3, cache_dir=str(tmp_path))
        cold = runner.run_point(PARAMS, trials=5, rounds=500)
        assert runner.cache_misses == 1 and runner.cache_hits == 0
        files = [name for name in os.listdir(tmp_path) if name.endswith(".npz")]
        assert len(files) == 1

        warm = runner.run_point(PARAMS, trials=5, rounds=500)
        assert runner.cache_hits == 1
        assert np.array_equal(
            cold.convergence_opportunities, warm.convergence_opportunities
        )
        assert np.array_equal(cold.worst_deficits, warm.worst_deficits)
        assert warm.params == PARAMS
        assert warm.trials == 5 and warm.rounds == 500

    def test_cache_shared_across_runner_instances(self, tmp_path):
        first = ExperimentRunner(base_seed=3, cache_dir=str(tmp_path))
        cold = first.run_point(PARAMS, trials=4, rounds=400)
        second = ExperimentRunner(base_seed=3, cache_dir=str(tmp_path))
        warm = second.run_point(PARAMS, trials=4, rounds=400)
        assert second.cache_hits == 1 and second.cache_misses == 0
        assert np.array_equal(cold.honest_blocks, warm.honest_blocks)

    def test_no_cache_dir_never_touches_disk(self):
        runner = ExperimentRunner(base_seed=0, cache_dir=None)
        runner.run_point(PARAMS, trials=2, rounds=200)
        runner.run_point(PARAMS, trials=2, rounds=200)
        assert runner.cache_hits == 0 and runner.cache_misses == 2


class TestGrid:
    def test_serial_grid_preserves_point_order(self):
        results = ExperimentRunner(base_seed=1).run_grid(
            [PARAMS, OTHER], trials=3, rounds=300
        )
        assert [result.params for result in results] == [PARAMS, OTHER]

    def test_empty_grid(self):
        assert ExperimentRunner().run_grid([], trials=3, rounds=300) == []

    def test_multiprocess_grid_matches_serial(self, tmp_path):
        serial = ExperimentRunner(base_seed=4).run_grid(
            [PARAMS, OTHER], trials=3, rounds=400
        )
        sharded_runner = ExperimentRunner(
            base_seed=4, processes=2, cache_dir=str(tmp_path)
        )
        sharded = sharded_runner.run_grid([PARAMS, OTHER], trials=3, rounds=400)
        for left, right in zip(serial, sharded):
            assert np.array_equal(
                left.convergence_opportunities, right.convergence_opportunities
            )
            assert np.array_equal(left.adversary_blocks, right.adversary_blocks)
            assert left.params == right.params
        # Worker-side cache accounting folds back into the parent runner.
        assert sharded_runner.cache_misses == 2 and sharded_runner.cache_hits == 0
        sharded_runner.run_grid([PARAMS, OTHER], trials=3, rounds=400)
        assert sharded_runner.cache_hits == 2

    @pytest.mark.parametrize(
        "start_method", multiprocessing.get_all_start_methods()
    )
    def test_sharded_grid_matches_serial_under_every_start_method(
        self, tmp_path, monkeypatch, start_method
    ):
        """A worker started by spawn (the macOS and Windows default) or
        forkserver imports the package afresh and inherits no state but the
        environment; its points must key, compute and log like serial ones."""
        monkeypatch.setattr(
            multiprocessing, "Pool", multiprocessing.get_context(start_method).Pool
        )
        results, records = [], []
        for processes in (1, 2):
            log = tmp_path / f"runs{processes}.jsonl"
            runner = ExperimentRunner(
                base_seed=4,
                processes=processes,
                cache_dir=str(tmp_path / f"cache{processes}"),
                run_log=log,
            )
            results.append(runner.run_grid([PARAMS, OTHER], trials=3, rounds=400))
            records.append(read_run_log(log))
        for left, right in zip(*results):
            for name in ("convergence_opportunities", "worst_deficits"):
                assert np.array_equal(getattr(left, name), getattr(right, name))
        fields = ("cache_key", "cache", "result_digest", "dtype_policy", "params")
        serial, sharded = (
            [{field: record[field] for field in fields} for record in log]
            for log in records
        )
        assert serial == sharded


class TestValidation:
    def test_invalid_configuration_raises(self):
        with pytest.raises(SimulationError):
            ExperimentRunner(draw_mode="quantum")
        with pytest.raises(SimulationError):
            ExperimentRunner(processes=0)


# ----------------------------------------------------------------------
# Key and seed stability across every kind of point
# ----------------------------------------------------------------------
PIN_SEED = 5
#: The package version the pinned keys were computed under.
PIN_VERSION = "0.0.0+pin"
SHAPE = (4, 200)
RARE_SHAPE = (64, 150)
CUT = PartitionScenario(
    name="pin_cut",
    kind="private_chain",
    target_depth=4,
    give_up_deficit=8,
    partition_start=60,
    partition_duration=40,
    cut_fraction=0.3,
)
RING = PeerGraphDelayModel(PeerGraphTopology.ring(8))
POWER = MiningPowerProfile.from_weights(PARAMS, np.linspace(1.0, 2.0, 800))
SCHEDULE = DynamicsSchedule([PartitionEvent(60, 40)])
ECLIPSE_MODEL = TimeVaryingDelayModel(get_scenario("eclipse").dynamics_schedule())
TILT = ExponentialTilt(honest_p=0.8 * PARAMS.p, adversary_p=1.5 * PARAMS.p)


def _rare(depth, method, tilt=None, pilot_trials=512, max_iterations=10):
    """The estimator spec ``run_rare_event_point`` keys a point by."""
    return {
        "depth": depth,
        "method": method,
        "tilt": None if tilt is None else tilt.payload(),
        "pilot_trials": pilot_trials,
        "elite_fraction": 0.1,
        "max_iterations": max_iterations,
        "smoothing": 0.7,
    }


#: kind -> (shape, the run_* call, the same point as cache_key ingredients).
KINDS = {
    "batch": (SHAPE, lambda r, t, n: r.run_point(PARAMS, t, n), {}),
    "scenario_name": (
        SHAPE,
        lambda r, t, n: r.run_scenario_point(PARAMS, "private_chain", t, n),
        {"scenario": "private_chain"},
    ),
    "scenario_cut": (
        SHAPE,
        lambda r, t, n: r.run_scenario_point(PARAMS, CUT, t, n),
        {"scenario": CUT},
    ),
    "topology_uniform": (
        SHAPE,
        lambda r, t, n: r.run_topology_point(PARAMS, t, n, "uniform"),
        {"delay_model": "uniform"},
    ),
    "topology_ring_power": (
        SHAPE,
        lambda r, t, n: r.run_topology_point(PARAMS, t, n, RING, power=POWER),
        {"delay_model": RING, "power": POWER},
    ),
    "dynamics_passive": (
        SHAPE,
        lambda r, t, n: r.run_dynamics_point(PARAMS, t, n, SCHEDULE),
        {"delay_model": TimeVaryingDelayModel(SCHEDULE)},
    ),
    "dynamics_hub": (
        SHAPE,
        lambda r, t, n: r.run_dynamics_point(
            PARAMS, t, n, scenario="eclipse", placement=AdversaryPlacement("hub")
        ),
        {
            "scenario": "eclipse",
            "delay_model": ECLIPSE_MODEL,
            "placement": AdversaryPlacement("hub"),
        },
    ),
    "rare_plain": (
        RARE_SHAPE,
        lambda r, t, n: r.run_rare_event_point(PARAMS, t, n, 4, method="plain"),
        {"rare_event": _rare(4, "plain")},
    ),
    "rare_tilted_pilot": (
        RARE_SHAPE,
        lambda r, t, n: r.run_rare_event_point(
            PARAMS, t, n, 6, pilot_trials=32, max_iterations=2
        ),
        {"rare_event": _rare(6, "tilted", pilot_trials=32, max_iterations=2)},
    ),
    "rare_tilted_explicit": (
        RARE_SHAPE,
        lambda r, t, n: r.run_rare_event_point(PARAMS, t, n, 6, tilt=TILT),
        {"rare_event": _rare(6, "tilted", tilt=TILT)},
    ),
    "rare_splitting": (
        RARE_SHAPE,
        lambda r, t, n: r.run_rare_event_point(PARAMS, t, n, 4, method="splitting"),
        {"rare_event": _rare(4, "splitting")},
    ),
    "stream_batch": (
        SHAPE,
        lambda r, t, n: r.run_streaming_point(PARAMS, t, n, depths=(4, 2)),
        {"streaming": {"depths": [2, 4]}},
    ),
    "stream_scenario": (
        SHAPE,
        lambda r, t, n: r.run_streaming_point(PARAMS, t, n, scenario="selfish_mining"),
        {"scenario": "selfish_mining", "streaming": {"depths": []}},
    ),
}

#: kind -> (version-free identity, seed entropy, key under PIN_VERSION),
#: computed by the runner of release 1.10.0.  Any change here rerolls seeded
#: experiments or strands warm caches, so these literals must never drift.
PINS = {
    "batch": (
        "4dde442fe04db54d8cab454f3dd9f5487924470eebd903022268b0a1e50dd603",
        [5, 1306412079, 3763189069, 2360034639, 1037694280],
        "5947e2809405fd2933d57b8f7b465269bbc874ce7dbcdae8d82369786122d43a",
    ),
    "scenario_name": (
        "2834480e7c4505b6c23dcb20d1c13e607402b79bd8c61b8cd8782d8ac3bb2abb",
        [5, 674514958, 2084898230, 3258829600, 3519102560],
        "b16a776befdd77025a657addb5fdc23048be76fec4812d08050f67498b83f3c8",
    ),
    "scenario_cut": (
        "0f7988dd574ccc6db8005ce040e38dc5a05aeb5e434b72a13fb1d03704a2bc92",
        [5, 259623133, 1464650861, 3087031520, 1088654789],
        "7cd85e5985155f8ccf9a196499dbaab55b4fbeee22bc3ed792f9a69a1f616f3b",
    ),
    "topology_uniform": (
        "0a7084653be39e013090ec2aa77f8b9f6cc35ff52b52af16f779e6399cf13680",
        [5, 175146085, 1004772865, 814804010, 2810153887],
        "871b4c2adb993cd8f2f0c2fa603a2e94f8115487636be1c63a4dd97c6525181f",
    ),
    "topology_ring_power": (
        "d21afd03699260f28cb7fb2f1ce91360e8525a20c8493f7a2c58e1eff9ca9809",
        [5, 3524984067, 1771200754, 2360867631, 485036896],
        "8e1ef641c685e0fd82d36482bd9ac652e3964b6f7281219bca6b8dc5cf5eb1a8",
    ),
    "dynamics_passive": (
        "2c153b5fd33ad689675cf8d545178d06c02a1c849614592c198440ac8594c11a",
        [5, 739588959, 3543848585, 1734146261, 1159171334],
        "1e131186c96bf11c225f5586f89329c6f784e8b9a9f7cafe6c434b0ceef3ef46",
    ),
    "dynamics_hub": (
        "d457cafa3b32995c58d63a1e27d4515bd9032ab951f615858b3e30dbe644eb17",
        [5, 3562523386, 993171804, 1490434590, 668225883],
        "e868fcf9e116d7cc23730459f0440a5966e044eff8684970d23e5371777d228a",
    ),
    "rare_plain": (
        "bf9e129fae05da2d20f070f607d9be5461b9b778cf443d895f23d6b2f9d22fb2",
        [5, 3214807711, 2919619117, 552628470, 131710548],
        "69ac6eea7062b8ecdc53e7d0d4a093829b71055a8184ba620ddd80628cb3b5ca",
    ),
    "rare_tilted_pilot": (
        "0502a59df9cea5f3f2dbd6832491e4beef58bb6d7dd23a21aa501d57e2f0854a",
        [5, 84059549, 4191069683, 4074493571, 613541054],
        "c4c63f195fa2d0706b32997b41beb68bd6a0d3a248275828b184dd248ff2abb8",
    ),
    "rare_tilted_explicit": (
        "a182456ab2e8550e73a52a9748865ce2a5b03790edf5eebc1b5989bfaaab7412",
        [5, 2709669226, 3001570574, 1940204183, 1216765154],
        "0bb62696c677f29e1570f669b2b58a61ea278d4d5534fd4cc1beb66e2e96b277",
    ),
    "rare_splitting": (
        "70bbf48fba75ca53d4e12e604f8b808c9450403f299cf0484f303ca53ed5abd7",
        [5, 1891366031, 3128281683, 3571527264, 1334542476],
        "28369d38e7fa6d838b4b07b8017613607c053d072d245423dc87c9c394ba5812",
    ),
    "stream_batch": (
        "45f698909d25550d5c9ecfb62ebc00d0de68d296902400c0944f3d5ccaf52aa2",
        [5, 1173788816, 2636469517, 1553911734, 784072912],
        "5c192d13b15eb18a05c460c1f869b0ddf37cc30249c779110a309348964f9d4a",
    ),
    "stream_scenario": (
        "dfa03952ae0c76d083e75b048f2238a0f255f2d1d6d17ad413f1b1c46a8da815",
        [5, 3751819602, 2920052432, 2212977412, 2401384608],
        "f6c732e21c43a633e7d2f1f2800e31e361391146a1fbd010d05699c7ef91b4c1",
    ),
}


class TestKeyStability:
    @pytest.mark.parametrize(
        "kind, leftover_policy",
        [pytest.param(kind, None, id=kind) for kind in sorted(KINDS)]
        + [
            pytest.param(kind, "compact", id=f"{kind}-leftover_policy")
            for kind in sorted(KINDS)
        ],
    )
    def test_identity_seed_and_key_are_pinned(
        self, kind, leftover_policy, tmp_path, monkeypatch
    ):
        """The pins hold, also with a ``REPRO_DTYPE_POLICY`` left in the
        environment from older releases: nothing reads it any more."""
        identity, entropy, key = PINS[kind]
        shape, run, ingredients = KINDS[kind]
        monkeypatch.setattr(version_module, "__version__", PIN_VERSION)
        if leftover_policy is not None:
            monkeypatch.setenv("REPRO_DTYPE_POLICY", leftover_policy)
        log = tmp_path / "log.jsonl"
        runner = ExperimentRunner(
            base_seed=PIN_SEED, cache_dir=str(tmp_path / "cache"), run_log=log
        )
        seed = runner.seed_sequence_for(PARAMS, *shape, **ingredients)
        assert list(seed.entropy) == entropy
        assert runner.cache_key(PARAMS, *shape, **ingredients) == key
        run(runner, *shape)
        (record,) = read_run_log(log)
        assert record["cache_key"] == key
        assert record["dtype_policy"] == "wide"
        sidecars = [
            name
            for name in os.listdir(tmp_path / "cache")
            if name.endswith(".latest.json")
        ]
        assert sidecars == [f"{record['cache_prefix']}_{identity}.latest.json"]

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_cache_round_trip_is_exact(self, kind, tmp_path):
        shape, run, _ = KINDS[kind]
        log = tmp_path / "log.jsonl"
        runner = ExperimentRunner(
            base_seed=PIN_SEED, cache_dir=str(tmp_path / "cache"), run_log=log
        )
        cold = run(runner, *shape)
        warm = run(runner, *shape)
        miss, hit = read_run_log(log)
        assert (miss["cache"], hit["cache"]) == ("miss", "hit")
        assert hit["result_digest"] == miss["result_digest"]
        assert type(warm) is type(cold)
        assert warm.params == cold.params
        assert getattr(warm, "scenario", None) == getattr(cold, "scenario", None)

    def test_cache_key_covers_streamed_points(self, tmp_path):
        log = tmp_path / "log.jsonl"
        runner = ExperimentRunner(base_seed=PIN_SEED, run_log=log)
        runner.run_streaming_point(PARAMS, *SHAPE, depths=(4, 2))
        (record,) = read_run_log(log)
        streamed = {"depths": [2, 4]}
        key = runner.cache_key(PARAMS, *SHAPE, streaming=streamed)
        assert key == record["cache_key"]
        assert runner.cache_key(PARAMS, *SHAPE) != record["cache_key"]
        assert (
            runner.seed_sequence_for(PARAMS, *SHAPE, streaming=streamed).entropy
            != runner.seed_sequence_for(PARAMS, *SHAPE).entropy
        )


# ----------------------------------------------------------------------
# Shape validation and cache hardening
# ----------------------------------------------------------------------
#: Every run_*_point, called with the (trials, rounds) under test.
POINT_CALLS = {
    "run_point": lambda r, t, n: r.run_point(PARAMS, t, n),
    "run_scenario_point": lambda r, t, n: r.run_scenario_point(
        PARAMS, "private_chain", t, n
    ),
    "run_topology_point": lambda r, t, n: r.run_topology_point(
        PARAMS, t, n, "uniform"
    ),
    "run_dynamics_point": lambda r, t, n: r.run_dynamics_point(PARAMS, t, n, SCHEDULE),
    "run_rare_event_point": lambda r, t, n: r.run_rare_event_point(
        PARAMS, t, n, 4, method="plain"
    ),
    "run_streaming_point": lambda r, t, n: r.run_streaming_point(PARAMS, t, n),
}


class TestShapeValidation:
    @pytest.mark.parametrize("bad", [2.5, True, "3", 0])
    @pytest.mark.parametrize("method", sorted(POINT_CALLS))
    def test_bad_trials_or_rounds_raise_simulation_error(self, method, bad):
        runner = ExperimentRunner(base_seed=1)
        with pytest.raises(SimulationError, match="trials"):
            POINT_CALLS[method](runner, bad, 200)
        with pytest.raises(SimulationError, match="rounds"):
            POINT_CALLS[method](runner, 4, bad)
        assert runner.cache_misses == 0

    @pytest.mark.parametrize("method", sorted(POINT_CALLS))
    def test_fractional_trials_never_hit_the_integer_entry(self, method, tmp_path):
        runner = ExperimentRunner(base_seed=1, cache_dir=str(tmp_path))
        POINT_CALLS[method](runner, 2, 200)
        with pytest.raises(SimulationError):
            POINT_CALLS[method](runner, 2.5, 200)
        assert (runner.cache_hits, runner.cache_misses) == (0, 1)
        # An integral float is the same point, so it is a hit.
        POINT_CALLS[method](runner, 2.0, 200)
        assert (runner.cache_hits, runner.cache_misses) == (1, 1)

    def test_cache_key_rejects_bad_shapes(self):
        with pytest.raises(SimulationError, match="trials"):
            ExperimentRunner().cache_key(PARAMS, 2.5, 200)


def _damage(path, how):
    if how == "empty":
        data = b""
    elif how == "garbage":
        data = b"this is not an npz archive\n" * 8
    else:
        with open(path, "rb") as source:
            data = source.read()
        data = data[: len(data) // 2]
    with open(path, "wb") as sink:
        sink.write(data)


class TestCorruptCache:
    @pytest.mark.parametrize("how", ["empty", "garbage", "truncated"])
    @pytest.mark.parametrize("method", sorted(POINT_CALLS))
    def test_unreadable_entry_is_recomputed_and_counted(
        self, method, how, tmp_path, caplog
    ):
        log = tmp_path / "log.jsonl"
        cache = tmp_path / "cache"
        runner = ExperimentRunner(base_seed=3, cache_dir=str(cache), run_log=log)
        call = POINT_CALLS[method]
        call(runner, 5, 300)
        (name,) = [name for name in os.listdir(cache) if name.endswith(".npz")]
        _damage(cache / name, how)

        with use_metrics() as metrics, caplog.at_level(
            "WARNING", logger="repro.simulation.runner"
        ):
            call(runner, 5, 300)
        assert metrics.counter(f"runner.{method}.cache_corrupt") == 1
        assert metrics.counter(f"runner.{method}.cache_misses") == 1
        assert any(name in message for message in caplog.messages)
        cold, recomputed = read_run_log(log)
        assert (cold["cache"], recomputed["cache"]) == ("miss", "corrupt")
        assert recomputed["result_digest"] == cold["result_digest"]

        # The recomputation overwrote the damaged file.
        call(runner, 5, 300)
        assert read_run_log(log)[-1]["cache"] == "hit"
        assert (runner.cache_hits, runner.cache_misses) == (1, 2)

    @pytest.mark.parametrize(
        "sidecar", [b"garbage{", b"[]", b"null", b"3", b"\xff\xfe{"]
    )
    @pytest.mark.parametrize("method", sorted(POINT_CALLS))
    def test_unreadable_sidecar_is_no_version_skip(self, method, sidecar, tmp_path):
        """A sidecar that is not a JSON object names no writer version: the
        miss recomputes without a version skip and rewrites the sidecar."""
        log = tmp_path / "log.jsonl"
        cache = tmp_path / "cache"
        runner = ExperimentRunner(base_seed=3, cache_dir=str(cache), run_log=log)
        call = POINT_CALLS[method]
        call(runner, 5, 300)
        (entry,) = [name for name in os.listdir(cache) if name.endswith(".npz")]
        (index,) = [name for name in os.listdir(cache) if name.endswith(".json")]
        os.remove(cache / entry)
        (cache / index).write_bytes(sidecar)

        call(runner, 5, 300)
        assert (runner.cache_misses, runner.version_skips) == (2, 0)
        cold, recomputed = read_run_log(log)
        assert recomputed["cache"] == "miss"
        assert recomputed["stale_version"] is None
        assert recomputed["result_digest"] == cold["result_digest"]
        assert json.loads((cache / index).read_text())["key"] == cold["cache_key"]
        call(runner, 5, 300)
        assert read_run_log(log)[-1]["cache"] == "hit"

    @pytest.mark.parametrize("method", sorted(POINT_CALLS))
    def test_leftover_temporary_from_a_killed_writer(self, method, tmp_path):
        """Half-written ``<npz>.tmp.<pid>.npz`` files neither shadow the entry
        nor stop the next store, whichever pid wrote them."""
        log = tmp_path / "log.jsonl"
        cache = tmp_path / "cache"
        runner = ExperimentRunner(base_seed=3, cache_dir=str(cache), run_log=log)
        call = POINT_CALLS[method]
        call(runner, 5, 300)
        (entry,) = [name for name in os.listdir(cache) if name.endswith(".npz")]
        for pid in (os.getpid(), 999_999):
            (cache / f"{entry}.tmp.{pid}.npz").write_bytes(b"PK\x03\x04 cut short")

        call(runner, 5, 300)
        os.remove(cache / entry)
        call(runner, 5, 300)
        call(runner, 5, 300)
        states = [record["cache"] for record in read_run_log(log)]
        assert states == ["miss", "hit", "miss", "hit"]
        digests = {record["result_digest"] for record in read_run_log(log)}
        assert len(digests) == 1
        # The store reused its own pid's name; the other writer's file stays.
        leftovers = [name for name in os.listdir(cache) if ".tmp." in name]
        assert leftovers == [f"{entry}.tmp.999999.npz"]

    def test_raising_worker_fails_a_sharded_grid_cleanly(self, tmp_path):
        """A worker's error reaches the caller as itself, and no temporary
        file is left behind."""
        cache = tmp_path / "cache"
        runner = ExperimentRunner(base_seed=3, cache_dir=str(cache), processes=2)
        empty_adversary = parameters_from_c(c=4.0, n=1_000, delta=3, nu=0.0005)
        with pytest.raises(SimulationError, match="non-empty adversary") as raised:
            runner.run_rare_event_grid(
                [PARAMS, empty_adversary], 8, 150, 4, method="plain"
            )
        assert isinstance(raised.value.__cause__, multiprocessing.pool.RemoteTraceback)
        written = os.listdir(cache) if cache.exists() else []
        assert not [name for name in written if ".tmp" in name]

