"""Self-test of the benchmark, on shrunken worlds so it runs in seconds.

Run it with::

    python3 -m pytest perfbench -q

It checks that a short run of every workload prints every metric named
in ``BENCHMARK.json`` with its unit, that a wrong ground-truth locus
produces failed windows, and that a forced scrape deadline miss counts
as a failed scrape.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worlds  # noqa: E402
from repro.net.clos import ClosParams  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SMALL = ClosParams(pods=2, tors_per_pod=2, aggs_per_pod=2, spines=2,
                   hosts_per_tor=2)


@pytest.fixture
def small_worlds(monkeypatch):
    """Every workload on a 16-RNIC Clos, with short spans."""
    monkeypatch.setattr(worlds, "LARGE", SMALL)
    monkeypatch.setattr(worlds, "SERVE_WARMUP_TICKS", 20)
    monkeypatch.setattr(worlds, "SERVE_MEASURED_TICKS", 8)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)


def _result(capsys, workload: str, trace: int) -> dict:
    assert run.main(["--workload", workload, "--seed", "3",
                     "--seconds", "0", "--trace", str(trace)]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload",
                         [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_emits_every_metric(small_worlds, capsys, workload,
                                      trace):
    result = _result(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_tracing_restores_every_entry_point(small_worlds, capsys):
    from repro.host.rnic import QueuePair
    from repro.net.fabric import Fabric

    inject, on_cqe = Fabric.inject, QueuePair.on_cqe
    _result(capsys, "quiet", 1)
    assert Fabric.inject is inject
    assert QueuePair.on_cqe is on_cqe


def test_wrong_ground_truth_locus_fails_windows(small_worlds):
    right = worlds.run_sim_repeat("faulted", 3)
    wrong = worlds.run_sim_repeat("faulted", 3,
                                  cable=("pod1-agg1", "spine1"))
    assert right.digest == wrong.digest
    assert right.detect_sim_s is not None
    assert wrong.detect_sim_s is None
    assert wrong.failed > right.failed
    assert wrong.failed >= 1


def test_forced_scrape_deadline_miss_fails_scrapes(small_worlds):
    result = worlds.run_serve_repeat(3, deadline_s=0.2, stall_s=0.5)
    assert result.attempted >= 1
    assert result.failed >= 1
    assert result.failed == result.scrape_ok.count(False)
