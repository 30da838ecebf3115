"""Self-test of the benchmark.

Run from the repository root with either of::

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

It checks that the printed metrics match ``BENCHMARK.json``, that count
metrics repeat exactly for one seed, that the message count measured on
``census_tcp`` equals the centralized cost model's prediction (the paper's
no-redundant-messages claim), that untouched layers read zero, and that the
benchmark refuses to run without the program.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from layers import COUNTS  # noqa: E402

SEED = 7
SECONDS = "2"
WORKLOADS = ("gateway_ycsb_a", "cluster_durable", "census_tcp")


def _invoke(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@functools.lru_cache(maxsize=None)
def traced(workload: str, attempt: int) -> dict:
    """The per-layer metrics of one traced run (``attempt`` tells runs apart)."""
    done = _invoke(["--workload", workload, "--seed", str(SEED),
                    "--seconds", SECONDS, "--trace", "1"])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    return result["metrics"]


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        return json.load(spec)


def test_metric_names_and_units_match_benchmark_json():
    spec = _benchmark_json()
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {name: value["unit"] for name, value in traced("census_tcp", 0).items()} == per_layer
    done = _invoke(["--workload", "census_tcp", "--seed", str(SEED), "--seconds", "1"])
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    assert {name: value["unit"] for name, value in metrics.items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(value["value"] > 0 for value in metrics.values())


def test_counts_repeat_exactly_for_one_seed():
    for workload in WORKLOADS:
        first, second = traced(workload, 0), traced(workload, 1)
        for name in COUNTS:
            assert first[name]["value"] == second[name]["value"], (workload, name)


def test_census_sends_match_the_cost_model():
    from repro.analysis import communication_cost
    from workloads import CensusTcp, census_round

    parties = [f"p{index}" for index in range(CensusTcp.PARTIES)]
    predicted = communication_cost(
        census_round, parties, parties,
        ballots={party: index % 2 == 0 for index, party in enumerate(parties)},
        values={party: index for index, party in enumerate(parties)},
    )
    measured = traced("census_tcp", 0)["transport.sends_per_op"]["value"]
    assert measured == predicted.total_messages == 14


def test_untouched_layers_read_zero():
    for workload in ("gateway_ycsb_a", "census_tcp"):
        metrics = traced(workload, 0)
        assert all(value["value"] == 0 for name, value in metrics.items()
                   if name.startswith("storage.")), workload
    for workload in ("cluster_durable", "census_tcp"):
        metrics = traced(workload, 0)
        assert all(value["value"] == 0 for name, value in metrics.items()
                   if name.startswith("gateway.")), workload
    assert traced("census_tcp", 0)["wire.pickle_share"]["value"] == 0
    for workload in WORKLOADS:
        assert traced(workload, 0)["error_rate"]["value"] == 0


def test_refuses_to_run_without_the_program():
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = _invoke(["--workload", "census_tcp", "--seed", "1", "--seconds", "1"], cwd=bare)
        assert done.returncode != 0
        assert '"metrics"' not in done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    tests = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print("ok", test.__name__)
