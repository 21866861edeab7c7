"""The benchmark's four worlds, their ground truth and their scoring.

Each world is built from the workload seed alone.  ``run_sim_repeat``
drives one repeat of ``quiet``, ``faulted`` or ``service``;
``run_serve_repeat`` drives one repeat of ``serve``.  A repeat builds a
fresh world, warms it up, measures a fixed span of simulated time, and
returns plain numbers plus the behaviour digest of the final state.

Operations and their failure rules:

* ``quiet``, ``faulted``, ``service``: one operation is one analysis
  window closed in the measured span.  It fails when it reports a locus
  with no injected or service cause, or when it misses the injected
  cable although a full window has passed since injection.
* ``serve``: one operation is one ``GET /metrics``.  It fails on a
  non-200 status, on an exposition ``parse_exposition`` rejects, or when
  it completes later than ``SCRAPE_DEADLINE_S`` after it was due.
"""

from __future__ import annotations

import functools
import gc
import heapq
import http.client
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.runtime import structural_digest, system_state
from repro.cluster import Cluster
from repro.core.config import RPingmeshConfig
from repro.core.system import RPingmesh
from repro.net.addresses import roce_five_tuple
from repro.net.clos import ClosParams
from repro.net.faults import LinkCorruption
from repro.obs.metrics import parse_exposition
from repro.serve import ServeSession, ServeSpec
from repro.serve.http import ServeHTTPServer
from repro.serve.runner import run_serve
from repro.services.dml import CommPattern, DmlConfig, DmlJob
from repro.sim.units import MILLISECOND, SECOND

# The large-64rnic Clos of benchmarks/test_scalability.py.
LARGE = ClosParams(pods=2, tors_per_pod=4, aggs_per_pod=2, spines=4,
                   hosts_per_tor=4, rnics_per_host=2)
# The small-12rnic Clos, as a serve-mode world.
SERVE_WORLD = dict(pods=2, tors_per_pod=2, aggs_per_pod=2, spines=2,
                   hosts_per_tor=3, shards=2)

# The corrupted cable of ``faulted``, and its dose.
FAULT_CABLE = ("pod0-agg0", "spine0")
FAULT_DROP_PROB = 0.01


@dataclass(frozen=True)
class SimPlan:
    """Simulated-time layout of one repeat of a 64-RNIC world."""

    warmup_s: int      # measured span starts here
    end_s: int         # measured span ends here, after this window closes


# Each span holds the analysis window that closes at 20 s.  ``faulted``
# injects at the end of its warm-up and also holds the window closing at
# 40 s, the first full window since injection, where a miss counts.
SIM_PLANS = {
    "quiet": SimPlan(warmup_s=5, end_s=20),
    "faulted": SimPlan(warmup_s=5, end_s=40),
    "service": SimPlan(warmup_s=4, end_s=20),
}

# serve: unpaced ticks until the first analysis window has closed, then
# paced ticks under an open-loop scraper.
SERVE_WARMUP_TICKS = 20
SERVE_MEASURED_TICKS = 80
SERVE_PACE_S = 0.05            # about one tick's CPU on the seed state
SERVE_CALIBRATE_EVERY = 5     # ticks between calibration slices
SCRAPE_RATE_HZ = 5.0
SCRAPE_DEADLINE_S = 1.0

# One calibration slice: the CPU time REFERENCE_LOOP_ITERATIONS of
# reference_loop take, about, on an uncontended 2-vCPU Xeon dev container.
REFERENCE_LOOP_ITERATIONS = 5_000
REFERENCE_SLICE_S = 0.010
# The loop walks a few MB of objects: a loop that stays in the CPU's
# private caches missed the shared-cache contention that slows the
# simulator, and tracked it less than half as well.
REFERENCE_NODES = 60_000
REFERENCE_TABLE = 20_000


class _Node:
    __slots__ = ("nxt", "val", "tag")


@functools.lru_cache(maxsize=1)
def _reference_graph() -> tuple[_Node, dict]:
    """A fixed random ring of objects and a dict, built once per process."""
    rng = random.Random(11)
    nodes = [_Node() for _ in range(REFERENCE_NODES)]
    order = list(range(REFERENCE_NODES))
    rng.shuffle(order)
    tags = [("slot", i) for i in range(1024)]
    for i, index in enumerate(order):
        node = nodes[index]
        node.nxt = nodes[order[(i + 1) % REFERENCE_NODES]]
        node.val = i
        node.tag = tags[i & 1023]
    table = {i: (i,) for i in range(REFERENCE_TABLE)}
    return nodes[order[0]], table


def reference_loop() -> int:
    """A fixed pure-Python stand-in for the simulator's work: pointer
    chasing through scattered objects, dict reads, heap pushes and pops.
    It uses no repro code, so its cost moves only with the host, never
    with the program."""
    node, table = _reference_graph()
    rng = random.Random(7)
    heap: list = []
    total = 0
    for i in range(REFERENCE_LOOP_ITERATIONS):
        for _ in range(4):
            node = node.nxt
        total += table[node.val * 7 % REFERENCE_TABLE][0]
        heapq.heappush(heap, (rng.random(), i, node.tag))
        if len(heap) > 256:
            heapq.heappop(heap)
    return total


class Calibrator:
    """Reference-loop slices interleaved with measured work.

    Shared hosts change speed by tens of percent within minutes.  A
    slice run next to each piece of measured work slows down with it,
    so ``scale`` (reference slice time over measured slice time) turns
    host CPU seconds into seconds at the reference speed.
    """

    def __init__(self) -> None:
        _reference_graph()          # built before any slice is timed
        self.cpu_s = 0.0
        self.slices = 0

    def slice(self) -> None:
        """Run one slice and add its CPU time (this thread only)."""
        start = time.thread_time()
        reference_loop()
        self.cpu_s += time.thread_time() - start
        self.slices += 1

    @property
    def scale(self) -> float:
        return REFERENCE_SLICE_S * self.slices / self.cpu_s


@dataclass
class RepeatResult:
    """What one repeat measured, as plain data."""

    setup_s: float     # raw host CPU of this repeat's world build
    cpu_s: float       # raw host CPU of the measured span
    scale: float       # Calibrator.scale over the measured span
    sim_s: float
    probes: int
    digest: str
    attempted: int
    failed: int
    false_verdicts: int = 0
    detect_sim_s: Optional[float] = None
    scrape_latencies_s: list = field(default_factory=list)
    scrape_late_s: list = field(default_factory=list)
    scrape_ok: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def cpu_s_per_sim_s(self) -> float:
        """Host CPU per simulated second, at the reference speed."""
        return self.cpu_s * self.scale / self.sim_s

    @property
    def cpu_us_per_probe(self) -> float:
        """Host CPU per probe sent, at the reference speed."""
        return self.cpu_s * self.scale / self.probes * 1e6


# -- the 64-RNIC worlds -------------------------------------------------------

class SimWorld:
    """One built 64-RNIC world plus the causes its verdicts may name."""

    def __init__(self, workload: str, seed: int):
        self.cluster = Cluster.clos(LARGE, seed=seed)
        config = RPingmeshConfig()
        self.job: Optional[DmlJob] = None
        if workload == "service":
            config.backends = ("probe", "int")
        self.system = RPingmesh(self.cluster, config)
        if workload == "service":
            self.job = DmlJob(
                self.cluster, self.cluster.rnic_names()[::4],
                DmlConfig(pattern=CommPattern.ALL2ALL,
                          compute_time_ns=300 * MILLISECOND,
                          data_gbits_per_cycle=3.0))
            self.system.attach_service_monitor(self.job)
        self.system.start()
        if self.job is not None:
            self.job.start()
        self.inject_ns: Optional[int] = None
        self.caused: set[str] = set()
        if self.job is not None:
            self.caused = service_causes(self.cluster, self.job)

    def inject(self) -> None:
        LinkCorruption(self.cluster, *FAULT_CABLE,
                       drop_prob=FAULT_DROP_PROB).inject()
        self.inject_ns = self.cluster.sim.now

    def probes_sent(self) -> int:
        return sum(a.probes_sent for a in self.system.agents.values())


def service_causes(cluster: Cluster, job: DmlJob) -> set[str]:
    """Loci the job explains: its RNICs, their hosts, and both directions
    of every link on its connections' paths."""
    caused = set(job.participants)
    caused.update(cluster.host_of_rnic(r).name for r in job.participants)
    for conn in job.connections:
        src = cluster.rnic(conn.src_rnic)
        dst = cluster.rnic(conn.dst_rnic)
        path = cluster.fabric.path_of(
            roce_five_tuple(src.ip, dst.ip, conn.src_port), conn.src_rnic)
        for a, b in zip(path, path[1:]):
            caused.update((f"{a}->{b}", f"{b}->{a}"))
    return caused


def cable_loci(cable: tuple[str, str]) -> set[str]:
    """Both directed links of a cable."""
    a, b = cable
    return {f"{a}->{b}", f"{b}->{a}"}


def score_windows(windows, measure_start_ns: int, caused: set[str],
                  inject_ns: Optional[int], cable: tuple[str, str]) -> dict:
    """Score the analysis windows closed in the measured span."""
    cable_links = cable_loci(cable)
    attempted = failed = 0
    spurious: set[tuple[str, str]] = set()
    detect_ns: Optional[int] = None
    for window in windows:
        if window.window_end_ns <= measure_start_ns:
            continue
        attempted += 1
        loci = {p.locus for p in window.problems}
        uncaused = [p for p in window.problems if p.locus not in caused]
        spurious.update((p.category.name, p.locus) for p in uncaused)
        names_cable = bool(loci & cable_links)
        if inject_ns is not None and names_cable and detect_ns is None:
            detect_ns = min(p.detected_at_ns for p in window.problems
                            if p.locus in cable_links) - inject_ns
        missed = (inject_ns is not None and not names_cable
                  and window.window_start_ns >= inject_ns)
        if uncaused or missed:
            failed += 1
    return {"attempted": attempted, "failed": failed,
            "false_verdicts": len(spurious),
            "spurious": sorted(spurious),
            "detect_sim_s": (None if detect_ns is None
                             else detect_ns / SECOND)}


def build_sim_world(workload: str, seed: int) -> tuple[SimWorld, float]:
    """Build one world; return it with the host CPU the build took."""
    gc.collect()
    start = time.process_time()
    world = SimWorld(workload, seed)
    return world, time.process_time() - start


def run_sim_repeat(workload: str, seed: int, *,
                   cable: tuple[str, str] = FAULT_CABLE,
                   tracer=None) -> RepeatResult:
    """One repeat of ``quiet``, ``faulted`` or ``service``.

    ``cable`` is the locus the scorer expects; the self-test passes a
    wrong one to prove misses are counted.  ``tracer``, when given, is
    installed as the engine profiler for the whole repeat.
    """
    plan = SIM_PLANS[workload]
    world, setup_s = build_sim_world(workload, seed)
    sim = world.cluster.sim
    if tracer is not None:
        sim.set_profiler(tracer)
    sim.run_until(plan.warmup_s * SECOND)
    if workload == "faulted":
        world.inject()
        # The cable and its two switches explain the fault's verdicts.
        world.caused = cable_loci(cable) | set(cable)
    measure_start = sim.now
    probes0 = world.probes_sent()
    drops0 = len(world.cluster.fabric.drops)
    retries0 = _retries(world.system)
    marks0 = tracer.totals() if tracer is not None else None
    calibrator = Calibrator()
    cpu_s = 0.0
    for second in range(plan.warmup_s + 1, plan.end_s + 1):
        calibrator.slice()
        start = time.process_time()
        sim.run_until(second * SECOND)
        cpu_s += time.process_time() - start
    calibrator.slice()
    marks1 = tracer.totals() if tracer is not None else None
    if tracer is not None:
        sim.set_profiler(None)
    score = score_windows(world.system.analyzer.windows, measure_start,
                          world.caused, world.inject_ns, cable)
    result = RepeatResult(
        setup_s=setup_s, cpu_s=cpu_s, scale=calibrator.scale,
        sim_s=(sim.now - measure_start) / SECOND,
        probes=world.probes_sent() - probes0,
        digest=structural_digest(system_state(world.system)),
        attempted=score["attempted"], failed=score["failed"],
        false_verdicts=score["false_verdicts"],
        detect_sim_s=score["detect_sim_s"])
    result.extra = {
        "spurious": score["spurious"],
        "drops": len(world.cluster.fabric.drops) - drops0,
        "retries": _retries(world.system) - retries0,
        "analyzer_memory_bytes": world.system.analyzer.memory_bytes(),
        "marks": (marks0, marks1),
    }
    return result


def _retries(system: RPingmesh) -> int:
    return sum(s.retries for s in system.control_plane_stats().values())


# -- the serve world ----------------------------------------------------------

class Scraper(threading.Thread):
    """Open-loop ``GET /metrics`` at a fixed rate on one keep-alive
    connection.  Each scrape is timed from when it was due, so a stall
    also counts against the scrapes queued behind it."""

    def __init__(self, host: str, port: int, *, rate_hz: float,
                 deadline_s: float):
        super().__init__(name="perfbench-scraper", daemon=True)
        self.host, self.port = host, port
        self.interval = 1.0 / rate_hz
        self.deadline_s = deadline_s
        self.stop_event = threading.Event()
        self.latencies: list[float] = []
        self.late: list[float] = []
        self.ok: list[bool] = []
        self.cpu_s = 0.0
        self.errors: list[str] = []

    def run(self) -> None:
        cpu0 = time.thread_time()
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        first_due = time.perf_counter()
        k = 0
        try:
            while not self.stop_event.is_set():
                due = first_due + k * self.interval
                k += 1
                wait = due - time.perf_counter()
                if wait > 0 and self.stop_event.wait(wait):
                    break
                sent = time.perf_counter()
                ok = self._scrape(conn)
                if not ok:
                    conn.close()
                    conn = http.client.HTTPConnection(self.host, self.port,
                                                      timeout=30)
                done = time.perf_counter()
                latency = done - due
                self.late.append(sent - due)
                self.latencies.append(latency)
                self.ok.append(ok and latency <= self.deadline_s)
        finally:
            conn.close()
            self.cpu_s = time.thread_time() - cpu0

    def _scrape(self, conn) -> bool:
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            body = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.errors.append(repr(exc))
            return False
        if response.status != 200:
            self.errors.append(f"status {response.status}")
            return False
        try:
            parse_exposition(body.decode())
        except ValueError as exc:
            self.errors.append(f"parse: {exc}")
            return False
        return True


def serve_spec(seed: int) -> ServeSpec:
    return ServeSpec(seed=seed, **SERVE_WORLD)


def build_serve_session(seed: int) -> tuple[ServeSession, float]:
    """Build one serve session; return it with the host CPU it took."""
    gc.collect()
    start = time.process_time()
    session = ServeSession(serve_spec(seed))
    return session, time.process_time() - start


def run_serve_repeat(seed: int, *, deadline_s: float = SCRAPE_DEADLINE_S,
                     stall_s: float = 0.0, tracer=None) -> RepeatResult:
    """One repeat of ``serve``.

    ``stall_s`` holds the server lock that long in the middle of the
    measured ticks; the self-test uses it to force deadline misses.
    """
    session, setup_s = build_serve_session(seed)
    sim = session.cluster.sim
    if tracer is not None:
        sim.set_profiler(tracer)
    for _ in range(SERVE_WARMUP_TICKS):
        session.tick()
    server = ServeHTTPServer(session)
    server.start()
    scraper = Scraper(server.host, server.port, rate_hz=SCRAPE_RATE_HZ,
                      deadline_s=deadline_s)
    measure_start = sim.now
    probes0 = sum(a.probes_sent for a in session.system.agents.values())
    drops0 = len(session.cluster.fabric.drops)
    retries0 = _retries(session.system)
    calibrator = Calibrator()
    ticks_done = [0]

    def after_tick(_session) -> None:
        # Runs outside the lock, where the loop would start pacing.
        ticks_done[0] += 1
        if ticks_done[0] % SERVE_CALIBRATE_EVERY == 0:
            calibrator.slice()
        if stall_s and ticks_done[0] == SERVE_MEASURED_TICKS // 2:
            with server.lock:
                time.sleep(stall_s)

    marks0 = tracer.totals() if tracer is not None else None
    cpu0 = time.process_time()
    try:
        scraper.start()
        calibrator.slice()
        run_serve(session, server, pace_s=SERVE_PACE_S,
                  max_ticks=SERVE_MEASURED_TICKS, render=after_tick)
    finally:
        scraper.stop_event.set()
        scraper.join(timeout=60)
        server.stop()
    # The monitor's CPU: the process minus the scraper and calibration.
    cpu_s = (time.process_time() - cpu0 - scraper.cpu_s
             - calibrator.cpu_s)
    marks1 = tracer.totals() if tracer is not None else None
    if tracer is not None:
        sim.set_profiler(None)
    if scraper.is_alive():
        raise RuntimeError("scraper thread did not stop")
    result = RepeatResult(
        setup_s=setup_s, cpu_s=cpu_s, scale=calibrator.scale,
        sim_s=(sim.now - measure_start) / SECOND,
        probes=sum(a.probes_sent for a in session.system.agents.values())
        - probes0,
        digest=session.replay_digest(),
        attempted=len(scraper.ok), failed=scraper.ok.count(False),
        scrape_latencies_s=scraper.latencies, scrape_late_s=scraper.late,
        scrape_ok=scraper.ok)
    result.extra = {
        "errors": scraper.errors[:5],
        "drops": len(session.cluster.fabric.drops) - drops0,
        "retries": _retries(session.system) - retries0,
        "analyzer_memory_bytes": session.system.analyzer.memory_bytes(),
        "marks": (marks0, marks1),
    }
    return result
