#!/usr/bin/env python3
"""The repository benchmark: host cost, detection and scrape latency of
R-Pingmesh over four worlds.

Usage::

    python3 perfbench/run.py --workload quiet --seed 1 --seconds 10 --trace 0

Workloads (NOTES.md says why each exists):

* ``quiet``: the healthy 64-RNIC Clos, cluster probing only.
* ``faulted``: the same world, with 1% corruption on one agg-spine cable
  injected after warm-up.
* ``service``: the same world, plus a 16-rank All2All training job as
  the service monitor, with the probe and INT diagnosis backends.
* ``serve``: a sharded 12-RNIC ``ServeSession`` under an open-loop
  ``/metrics`` scraper.

A run builds fresh worlds from ``--seed`` and measures whole repeats of a
fixed simulated span until ``--seconds`` of host time is used, with at
least two repeats.  Every repeat must end in the same behaviour digest.
With ``--trace 0`` the run reports the end-to-end metrics, each the
median over repeats.  With ``--trace 1`` it runs one untraced and one
traced repeat (``layers.py``), checks that both digests match, and
reports the per-layer metrics of the traced repeat.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it, starting
with ``PERFBENCH``, holds every measured value, including the
workload-specific ones that are not in ``BENCHMARK.json``.  Exit code 0
means the run completed; 2 means the source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("quiet", "faulted", "service", "serve")
# The seed claims are made on, and a held-out one to re-check them on.
DEFAULT_SEED = 1
HELDOUT_SEED = 2
MIN_REPEATS = 2
MAX_REPEATS = 12
# Extra world builds per run, on top of one per repeat, for setup_s.
SETUP_SAMPLES = 7

END_TO_END_UNITS = {
    "cpu_s_per_sim_s": "s/s",
    "cpu_us_per_probe": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Per-layer metrics reported on every workload.  Layers that do not run
# in a workload report 0 for their counts and shares.
PER_LAYER_UNITS = {
    "sim.events_per_sim_s": "1/s",
    "sim.events_per_probe": "count",
    "sim.self_ns_per_event": "ns",
    "sim.self_share": "share",
    "net.self_ns_per_probe": "ns",
    "net.self_share": "share",
    "net.hops_per_probe": "count",
    "net.slow_hop_share": "share",
    "net.drops": "count",
    "net.traceroutes": "count",
    "host.self_ns_per_probe": "ns",
    "host.self_share": "share",
    "host.post_sends_per_probe": "count",
    "host.deliveries_per_probe": "count",
    "agent.self_ns_per_probe": "ns",
    "agent.self_share": "share",
    "agent.cqes_per_probe": "count",
    "agent.timeouts_per_sim_s": "1/s",
    "agent.service_probe_share": "share",
    "controlplane.self_share": "share",
    "controlplane.messages_per_sim_s": "1/s",
    "controlplane.retries": "count",
    "controlplane.push_ms": "ms",
    "analyzer.window_ms": "ms",
    "analyzer.ingest_ns_per_result": "ns",
    "analyzer.self_share": "share",
    "analyzer.memory_bytes": "bytes",
    "services.apply_calls": "count",
    "services.self_share": "share",
    "diagnosis.stamps_per_sim_s": "1/s",
    "diagnosis.self_share": "share",
    "obs.series": "count",
    "obs.scrape_bytes": "bytes",
    "obs.self_share": "share",
    "serve.self_share": "share",
    "serve.lock_wait_share": "share",
    "trace.overhead_share": "share",
}
# Timings of layers that run in one workload only.  They are printed
# and kept in the PERFBENCH record, with None where the layer is idle.
WORKLOAD_LAYER_UNITS = {
    "services.apply_ms": "ms",
    "diagnosis.self_ns_per_probe": "ns",
    "obs.snapshot_ms": "ms",
    "obs.render_ms": "ms",
    "serve.tick_ms_p50": "ms",
    "serve.tick_ms_p99": "ms",
    "serve.lock_wait_ms_p99": "ms",
    "serve.gen_late_ms_p99": "ms",
}
WORKLOAD_E2E_UNITS = {
    "detect_sim_s": "s",
    "false_verdicts": "count",
    "scrape_ms_p50": "ms",
    "scrape_ms_p90": "ms",
    "scrape_ms_p99": "ms",
    "scrapes_beyond_p99": "count",
}


def percentile(values, q: float):
    """Nearest-rank percentile, and how many samples lie beyond it."""
    if not values:
        return None, 0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def median_or_none(values):
    return statistics.median(values) if values else None


# -- repeats -------------------------------------------------------------------

def run_repeat(worlds, workload: str, seed: int, tracer=None):
    if workload == "serve":
        return worlds.run_serve_repeat(seed, tracer=tracer)
    return worlds.run_sim_repeat(workload, seed, tracer=tracer)


def setup_samples(worlds, workload: str, seed: int) -> list[float]:
    """Host CPU of ``SETUP_SAMPLES`` world builds at the reference speed,
    after one warm build that pays the once-per-process costs (imports,
    lazy tables).  Each build follows a calibration slice."""
    calibrator = worlds.Calibrator()
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        calibrator.slice()
        if workload == "serve":
            _, elapsed = worlds.build_serve_session(seed)
        else:
            _, elapsed = worlds.build_sim_world(workload, seed)
        if i:
            samples.append(elapsed)
    return [elapsed * calibrator.scale for elapsed in samples]


def measure(worlds, workload: str, seed: int, seconds: float) -> dict:
    """The untraced run: end-to-end metrics over repeats."""
    setups = setup_samples(worlds, workload, seed)
    repeats = []
    start = time.perf_counter()
    while len(repeats) < MAX_REPEATS:
        repeats.append(run_repeat(worlds, workload, seed))
        elapsed = time.perf_counter() - start
        per_repeat = elapsed / len(repeats)
        if len(repeats) >= MIN_REPEATS and elapsed + per_repeat > seconds:
            break
    setups += [r.setup_s * r.scale for r in repeats]
    metrics = {
        "cpu_s_per_sim_s": statistics.median(
            r.cpu_s_per_sim_s for r in repeats),
        "cpu_us_per_probe": statistics.median(
            r.cpu_us_per_probe for r in repeats),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    specific = workload_metrics(workload, repeats)
    specific["raw_cpu_s_per_sim_s"] = [r.cpu_s / r.sim_s for r in repeats]
    specific["calibration_scale"] = [r.scale for r in repeats]
    return {"repeats": repeats, "metrics": metrics, "specific": specific}


def workload_metrics(workload: str, repeats) -> dict:
    """The end-to-end metrics only some workloads have."""
    first = repeats[0]
    out: dict = {}
    if workload != "serve":
        out["false_verdicts"] = first.false_verdicts
        out["spurious_loci"] = first.extra["spurious"]
    if workload == "faulted":
        out["detect_sim_s"] = first.detect_sim_s
    if workload == "serve":
        # A failed scrape misses every limit: rank it last.
        ranked = [lat if ok else math.inf for r in repeats
                  for lat, ok in zip(r.scrape_latencies_s, r.scrape_ok)]
        out["scrapes"] = len(ranked)
        out["scrape_errors"] = [e for r in repeats for e in r.extra["errors"]]
        # p90 is the highest percentile with ~10 samples beyond it here.
        for name, q in (("p50", 0.50), ("p90", 0.90), ("p99", 0.99)):
            value, beyond = percentile(ranked, q)
            out[f"scrape_ms_{name}"] = value * 1e3
            out[f"scrapes_beyond_{name}"] = beyond
    return out


def trace(worlds, layers, workload: str, seed: int) -> dict:
    """The traced run: one untraced and one traced repeat."""
    plain = run_repeat(worlds, workload, seed)
    tracer = layers.LayerTracer()
    tracer.patch()
    try:
        traced = run_repeat(worlds, workload, seed, tracer=tracer)
    finally:
        tracer.unpatch()
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"trace-{workload}-seed{seed}.jsonl")
    per_layer, specific = layer_metrics(workload, tracer, traced)
    per_layer["trace.overhead_share"] = (
        traced.cpu_s_per_sim_s / plain.cpu_s_per_sim_s - 1.0)
    specific["trace.overhead_cpu_s_per_sim_s"] = (
        traced.cpu_s_per_sim_s - plain.cpu_s_per_sim_s)
    return {"repeats": [plain, traced], "metrics": per_layer,
            "specific": specific}


def layer_metrics(workload: str, tracer, result) -> tuple[dict, dict]:
    """Per-layer numbers over the traced repeat's measured span."""
    before, after = result.extra["marks"]

    def delta(group: str, key: str) -> int:
        return after[group].get(key, 0) - before[group].get(key, 0)

    def span_durations_ms(name: str) -> list[float]:
        lo, hi = before["durations"].get(name, 0), \
            after["durations"].get(name, 0)
        return [d / 1e6 for d in tracer.durations[name][lo:hi]]

    self_ns = {layer: delta("self_ns", layer) for layer in tracer.LAYERS}
    total_ns = sum(self_ns.values()) or 1
    share = {layer: self_ns[layer] / total_ns for layer in tracer.LAYERS}
    probes = result.probes
    sim_s = result.sim_s
    events = sum(after["events"].values()) - sum(before["events"].values())
    hops = (after["transit_hops"] - before["transit_hops"]
            + after["slow_hops"] - before["slow_hops"])
    slow = after["slow_hops"] - before["slow_hops"]
    results = after["results"] - before["results"]
    ingest_ms = sum(span_durations_ms("Analyzer.receive_upload"))
    windows_ms = span_durations_ms("Analyzer.analyze") or \
        [d / 1e6 for d in tracer.durations["Analyzer.analyze"]]
    push_ms = [d / 1e6 for d in tracer.durations["Controller.push_pinglists"]]
    snap_ms = span_durations_ms("MetricsRegistry.snapshot")
    render_ms = span_durations_ms("MetricsRegistry.render_prometheus")
    apply_ms = span_durations_ms("TrafficEngine.apply")
    tick_ms = span_durations_ms("ServeSession.tick")
    stamps = delta("calls", "IntCollector.stamp")

    per_layer = {
        "sim.events_per_sim_s": events / sim_s,
        "sim.events_per_probe": events / probes,
        "sim.self_ns_per_event": self_ns["sim"] / events,
        "sim.self_share": share["sim"],
        "net.self_ns_per_probe": self_ns["net"] / probes,
        "net.self_share": share["net"],
        "net.hops_per_probe": hops / probes,
        "net.slow_hop_share": slow / hops if hops else 0.0,
        "net.drops": result.extra["drops"],
        "net.traceroutes": delta("calls", "TracerouteService.trace"),
        "host.self_ns_per_probe": self_ns["host"] / probes,
        "host.self_share": share["host"],
        "host.post_sends_per_probe": delta("calls", "Rnic.post_send")
        / probes,
        "host.deliveries_per_probe": delta("calls", "fabric.receiver")
        / probes,
        "agent.self_ns_per_probe": self_ns["agent"] / probes,
        "agent.self_share": share["agent"],
        "agent.cqes_per_probe": delta("calls", "on_cqe.agent") / probes,
        "agent.timeouts_per_sim_s": (after["timeouts"] - before["timeouts"])
        / sim_s,
        "agent.service_probe_share": (
            (after["service_results"] - before["service_results"])
            / results if results else 0.0),
        "controlplane.self_share": share["controlplane"],
        "controlplane.messages_per_sim_s":
            delta("calls", "ManagementNetwork.send") / sim_s,
        "controlplane.retries": result.extra["retries"],
        "controlplane.push_ms": statistics.median(push_ms),
        "analyzer.window_ms": statistics.median(windows_ms),
        "analyzer.ingest_ns_per_result": (ingest_ms * 1e6 / results
                                          if results else 0.0),
        "analyzer.self_share": share["analyzer"],
        "analyzer.memory_bytes": result.extra["analyzer_memory_bytes"],
        "services.apply_calls": len(apply_ms),
        "services.self_share": share["services"],
        "diagnosis.stamps_per_sim_s": stamps / sim_s,
        "diagnosis.self_share": share["diagnosis"],
        "obs.series": median_or_none(tracer.snapshot_series) or 0,
        "obs.scrape_bytes": median_or_none(tracer.render_bytes) or 0,
        "obs.self_share": share["obs"],
        "serve.self_share": share["serve"],
        "serve.lock_wait_share": 0.0,
    }
    specific = {
        "services.apply_ms": median_or_none(apply_ms),
        "diagnosis.self_ns_per_probe": (self_ns["diagnosis"] / probes
                                        if stamps else None),
        "obs.snapshot_ms": median_or_none(snap_ms),
        "obs.render_ms": median_or_none(render_ms),
        "serve.tick_ms_p50": percentile(tick_ms, 0.50)[0],
        "serve.tick_ms_p99": percentile(tick_ms, 0.99)[0],
        "serve.lock_wait_ms_p99": None,
        "serve.gen_late_ms_p99": None,
        "layer_self_ns": self_ns,
    }
    if workload == "serve":
        # Scrapes are sequential on one connection, so the k-th render
        # served the k-th scrape; the rest of its latency is waiting.
        latencies_ms = [lat * 1e3 for lat in result.scrape_latencies_s]
        waits = [lat - render for lat, render
                 in zip(latencies_ms, render_ms)]
        per_layer["serve.lock_wait_share"] = (
            sum(waits) / sum(latencies_ms) if latencies_ms else 0.0)
        specific["serve.lock_wait_ms_p99"] = percentile(waits, 0.99)[0]
        specific["serve.gen_late_ms_p99"] = percentile(
            [late * 1e3 for late in result.scrape_late_s], 0.99)[0]
    return per_layer, specific


# -- output --------------------------------------------------------------------

def render_table(title: str, values: dict, units: dict) -> list[str]:
    lines = [title]
    for name, unit in units.items():
        value = values.get(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"  {name:<34} {shown:>14} {unit}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="host seconds of measuring (>= 2 repeats)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    import worlds

    if args.trace:
        run = trace(worlds, layers, args.workload, args.seed)
        units = PER_LAYER_UNITS
        extra_units = WORKLOAD_LAYER_UNITS
    else:
        run = measure(worlds, args.workload, args.seed, args.seconds)
        units = END_TO_END_UNITS
        extra_units = WORKLOAD_E2E_UNITS
    repeats = run["repeats"]
    digests = sorted({r.digest for r in repeats})
    attempted = sum(r.attempted for r in repeats)
    failed = sum(r.failed for r in repeats)
    correct = len(digests) == 1 and attempted > 0 and all(
        r.probes > 0 for r in repeats)

    head = (f"perfbench workload={args.workload} seed={args.seed} "
            f"trace={args.trace} repeats={len(repeats)} "
            f"digest={digests[0][:16]} digests_identical={len(digests) == 1}")
    lines = [head]
    lines += render_table("end-to-end" if not args.trace else "per-layer",
                          run["metrics"], units)
    lines += render_table("workload-specific", run["specific"],
                          extra_units)
    lines.append(f"  operations attempted={attempted} failed={failed} "
                 f"failed_share={failed / max(attempted, 1):.4f}")
    if args.trace:
        lines.append("  tracing overhead: "
                     f"{run['specific']['trace.overhead_cpu_s_per_sim_s']:+.4f}"
                     " s/s over the untraced repeat")
    print("\n".join(lines))
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "repeats": len(repeats),
              "digests": digests, "attempted": attempted, "failed": failed,
              "metrics": run["metrics"], "specific": run["specific"]}
    print("PERFBENCH " + json.dumps(record, sort_keys=True, default=str))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": run["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
