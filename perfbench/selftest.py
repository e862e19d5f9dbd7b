"""Self-test of the benchmark at tiny scale.

Run from the root of a checkout (about two minutes)::

    python3 -m pytest perfbench/selftest.py -q

The file name keeps it out of the default test discovery: it spawns probe
processes and allocates the copy floor's large arrays.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

#: Trials per point at tiny scale, a fiftieth of the full workloads.
TINY_TRIALS = {
    workloads.StreamValidation: 400,
    workloads.AttackScenarios: 40,
    workloads.TailEstimates: 200,
    workloads.SweepSharded: 20,
}

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as source:
    BENCHMARK = json.load(source)
with open(os.path.join(HERE, "predictions.json"), encoding="utf-8") as source:
    PREDICTIONS = json.load(source)
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    for workload, trials in TINY_TRIALS.items():
        monkeypatch.setattr(workload, "trials", trials)
    monkeypatch.setattr(checks, "TAIL_REFERENCE_TRIALS", 400)
    checks.expected_tail_probability.cache_clear()


def _run(capsys, workload, seed, trace):
    argv = ["--workload", workload, "--seed", str(seed), "--trace", str(trace),
            "--seconds", "0"]
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace, section):
    result = _run(capsys, workload, 3, trace)
    expected = {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == expected
    assert all(
        isinstance(metric["value"], (int, float))
        for metric in result["metrics"].values()
    )
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


WRONG_REFERENCES = [
    ("stream_validation", "expected_adversary_rate", lambda params: 1.5 * params.beta),
    ("tail_estimates", "expected_tail_probability", lambda *point: (0.05, 0.001)),
]


@pytest.mark.parametrize("workload, reference, wrong", WRONG_REFERENCES)
def test_a_wrong_reference_is_counted_and_the_run_goes_on(
    capsys, monkeypatch, workload, reference, wrong
):
    monkeypatch.setattr(checks, reference, wrong)
    result = _run(capsys, workload, 3, 0)
    assert result["failed"] == result["attempted"] == 3 and not result["correct"]
    assert set(result["metrics"]) == {
        metric["name"] for metric in BENCHMARK["end_to_end"]
    }


def test_the_seed_changes_results_but_not_metric_names(capsys, tmp_path):
    workload = workloads.build("tail_estimates")
    digests = {
        seed: {
            checks.result_digest(result)
            for result in workloads.run_rep(workload, seed, str(tmp_path)).results
        }
        for seed in (3, 4)
    }
    assert digests[3].isdisjoint(digests[4])
    names = [set(_run(capsys, "tail_estimates", seed, 0)["metrics"]) for seed in (3, 4)]
    assert names[0] == names[1]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    completed = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0 and completed.stdout == ""


def test_every_per_layer_metric_has_a_prediction():
    end_to_end = {metric["name"] for metric in BENCHMARK["end_to_end"]}
    layers = PREDICTIONS["per_layer"]
    assert set(layers) == {metric["name"] for metric in BENCHMARK["per_layer"]}
    for prediction in layers.values():
        for metric, workload in prediction["moves"]:
            assert metric in end_to_end and workload in WORKLOADS
    for change in PREDICTIONS["bypass"].values():
        assert {change["exercises"], change["bypass"]} <= set(WORKLOADS)
