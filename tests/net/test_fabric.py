"""Unit tests for packet forwarding, drops, and path computation."""

import pytest

from repro.cluster import Cluster
from repro.core.system import RPingmesh
from repro.fleet.presets import TINY
from repro.net.addresses import roce_five_tuple, FiveTuple, PROTO_TCP
from repro.net.clos import ClosParams
from repro.net.fabric import DropReason, Fabric, _Transit
from repro.net.faults import LinkCorruption
from repro.net.packet import RoCEPacket, TCPPacket
from repro.net.topology import Tier, Topology
from repro.obs.profiler import SimProfiler
from repro.sim.engine import Simulator
from repro.sim.rng import RngStream
from repro.sim.units import seconds


def build_fabric():
    """a - tor1 - {mid1,mid2} - tor2 - b, with IPs registered."""
    topo = Topology()
    topo.add_host_port("a")
    topo.add_host_port("b")
    for s in ("tor1", "tor2"):
        topo.add_switch(s, Tier.TOR)
    for s in ("mid1", "mid2"):
        topo.add_switch(s, Tier.AGG)
    topo.add_cable("a", "tor1")
    topo.add_cable("b", "tor2")
    topo.add_cable("tor1", "mid1")
    topo.add_cable("tor1", "mid2")
    topo.add_cable("mid1", "tor2")
    topo.add_cable("mid2", "tor2")
    sim = Simulator()
    fabric = Fabric(sim, topo, RngStream(0, "fabric"))
    fabric.register_ip("10.0.0.1", "a")
    fabric.register_ip("10.0.0.2", "b")
    return sim, topo, fabric


def roce_packet(src_port=5000):
    return RoCEPacket(
        five_tuple=roce_five_tuple("10.0.0.1", "10.0.0.2", src_port),
        size_bytes=108, dst_gid="::ffff:10.0.0.2")


class TestDelivery:
    def test_packet_delivered_with_path(self):
        sim, topo, fabric = build_fabric()
        got = []
        fabric.attach_receiver("b", lambda p, rec: got.append((p, rec)))
        fabric.inject(roce_packet(), "a")
        sim.run_until(seconds(1))
        assert len(got) == 1
        packet, record = got[0]
        assert record.path[0] == "a"
        assert record.path[-1] == "b"
        assert len(record.path) == 5  # a tor1 midX tor2 b

    def test_inject_stamps_sequential_packet_ids(self):
        # Ids come from a per-fabric counter: unique within a fabric,
        # restarting at 1 for every fabric so replays match exactly.
        sim, topo, fabric = build_fabric()
        first, second = roce_packet(), roce_packet()
        fabric.inject(first, "a")
        fabric.inject(second, "a")
        assert (first.packet_id, second.packet_id) == (1, 2)
        _, _, fresh_fabric = build_fabric()
        again = roce_packet()
        fresh_fabric.inject(again, "a")
        assert again.packet_id == 1

    def test_delivery_has_positive_latency(self):
        sim, topo, fabric = build_fabric()
        got = []
        fabric.attach_receiver("b", lambda p, rec: got.append(rec.time_ns))
        fabric.inject(roce_packet(), "a")
        sim.run_until(seconds(1))
        assert got[0] > 0

    def test_same_tuple_same_path(self):
        sim, topo, fabric = build_fabric()
        paths = []
        fabric.attach_receiver("b", lambda p, rec: paths.append(rec.path))
        for _ in range(5):
            fabric.inject(roce_packet(src_port=6000), "a")
        sim.run_until(seconds(1))
        assert len(set(paths)) == 1

    def test_different_tuples_spread_over_paths(self):
        sim, topo, fabric = build_fabric()
        mids = set()
        fabric.attach_receiver("b", lambda p, rec: mids.add(rec.path[2]))
        for port in range(2000, 2200):
            fabric.inject(roce_packet(src_port=port), "a")
        sim.run_until(seconds(1))
        assert mids == {"mid1", "mid2"}

    def test_unknown_destination_is_no_route(self):
        sim, topo, fabric = build_fabric()
        drops = []
        fabric.add_drop_listener(drops.append)
        packet = RoCEPacket(
            five_tuple=roce_five_tuple("10.0.0.1", "9.9.9.9", 5000),
            size_bytes=108)
        fabric.inject(packet, "a")
        assert drops[0].reason == DropReason.NO_ROUTE

    def test_no_receiver_absorbed_silently(self):
        sim, topo, fabric = build_fabric()
        fabric.inject(roce_packet(), "a")
        sim.run_until(seconds(1))
        assert fabric.packets_delivered == 1


class TestDrops:
    def test_down_link_drops_with_location(self):
        sim, topo, fabric = build_fabric()
        drops = []
        fabric.add_drop_listener(drops.append)
        fabric.attach_receiver("b", lambda p, r: None)
        topo.link_pair("a", "tor1").up = False
        fabric.inject(roce_packet(), "a")
        sim.run_until(seconds(1))
        assert drops[0].reason == DropReason.LINK_DOWN
        assert drops[0].link == "a->tor1"

    def test_pfc_deadlock_drops_roce_only(self):
        sim, topo, fabric = build_fabric()
        drops = []
        fabric.add_drop_listener(drops.append)
        delivered = []
        fabric.attach_receiver("b", lambda p, r: delivered.append(p))
        for direction in (("a", "tor1"), ("tor1", "a")):
            topo.link(*direction).pfc_deadlocked = True
        fabric.inject(roce_packet(), "a")
        tcp = TCPPacket(five_tuple=FiveTuple("10.0.0.1", 999, "10.0.0.2",
                                             999, PROTO_TCP), size_bytes=100)
        fabric.inject(tcp, "a")
        sim.run_until(seconds(1))
        assert [d.reason for d in drops] == [DropReason.PFC_DEADLOCK]
        assert len(delivered) == 1  # the TCP probe sailed through (§2.4)

    def test_corruption_drops_fraction(self):
        sim, topo, fabric = build_fabric()
        delivered = []
        fabric.attach_receiver("b", lambda p, r: delivered.append(p))
        for direction in (("tor1", "mid1"), ("tor1", "mid2")):
            topo.link(*direction).corruption_drop_prob = 0.5
        for port in range(2000, 2400):
            fabric.inject(roce_packet(src_port=port), "a")
        sim.run_until(seconds(1))
        assert 120 < len(delivered) < 280  # ~50% of 400

    def test_silent_drop_only_matching_tuples(self):
        sim, topo, fabric = build_fabric()
        delivered = []
        drops = []
        fabric.add_drop_listener(drops.append)
        fabric.attach_receiver("b", lambda p, r: delivered.append(p))
        link = topo.link("a", "tor1")
        link.silent_drop_predicate = lambda ft: ft.src_port == 2001
        fabric.inject(roce_packet(src_port=2001), "a")
        fabric.inject(roce_packet(src_port=2002), "a")
        sim.run_until(seconds(1))
        assert len(delivered) == 1
        assert drops[0].reason == DropReason.SILENT_DROP

    def test_acl_deny_at_switch(self):
        sim, topo, fabric = build_fabric()
        drops = []
        fabric.add_drop_listener(drops.append)
        topo.node("tor2").acl.deny(src_ip="10.0.0.1")
        fabric.inject(roce_packet(), "a")
        sim.run_until(seconds(1))
        assert drops[0].reason == DropReason.ACL_DENY
        assert drops[0].node == "tor2"

    def test_ttl_expiry(self):
        sim, topo, fabric = build_fabric()
        drops = []
        fabric.add_drop_listener(drops.append)
        packet = roce_packet()
        packet.ttl = 2
        fabric.inject(packet, "a")
        sim.run_until(seconds(1))
        assert drops[0].reason == DropReason.TTL_EXPIRED

    def test_drop_log_capped(self):
        sim, topo, fabric = build_fabric()
        fabric.max_drop_log = 5
        topo.link_pair("a", "tor1").up = False
        for _ in range(10):
            fabric.inject(roce_packet(), "a")
        sim.run_until(seconds(1))
        assert len(fabric.drops) == 5


class TestRouteChangesMidFlight:
    """A packet in flight follows the routing in force at each node."""

    def in_flight(self, sim, topo, fabric, src_port=7000):
        got, drops = [], []
        fabric.attach_receiver("b", lambda p, rec: got.append(rec))
        fabric.add_drop_listener(drops.append)
        fabric.inject(roce_packet(src_port=src_port), "a")
        # On the a->tor1 wire: tor1's ECMP choice is still ahead.
        sim.run_until(100)
        assert topo.link("a", "tor1").packets_forwarded == 1
        assert not got and not drops
        return roce_five_tuple("10.0.0.1", "10.0.0.2", src_port), got, drops

    def test_routed_around_flip_ahead(self):
        sim, topo, fabric = build_fabric()
        ft, got, drops = self.in_flight(sim, topo, fabric)
        planned = fabric.path_of(ft, "a")
        topo.link_pair("tor1", planned[2]).routed_around = True
        rest = fabric.path_of(ft, "tor1")
        assert rest[1] != planned[2]
        sim.run_until(seconds(1))
        assert got[0].path == ("a", *rest)
        assert not drops

    def test_invalidate_routes(self):
        # Converge around the flow's cable, then restore it without
        # reconverging: the stale tables keep the detour until the
        # invalidate_routes() that lands mid-flight.
        sim, topo, fabric = build_fabric()
        ft = roce_five_tuple("10.0.0.1", "10.0.0.2", 7000)
        preferred = fabric.path_of(ft, "a")[2]
        pair = topo.link_pair("tor1", preferred)
        pair.routed_around = True
        topo.invalidate_routes()
        detour = fabric.path_of(ft, "a")[2]   # tables rebuilt without it
        pair.routed_around = False
        assert fabric.path_of(ft, "a")[2] == detour != preferred
        _, got, drops = self.in_flight(sim, topo, fabric)
        topo.invalidate_routes()
        rest = fabric.path_of(ft, "tor1")
        assert rest[1] == preferred
        sim.run_until(seconds(1))
        assert got[0].path == ("a", *rest)
        assert not drops

    def test_corruption_ahead(self):
        sim, topo, fabric = build_fabric()
        _, got, drops = self.in_flight(sim, topo, fabric)
        topo.link("tor2", "b").corruption_drop_prob = 1.0
        sim.run_until(seconds(1))
        assert not got
        assert [(d.reason, d.link, d.node) for d in drops] == [
            (DropReason.CORRUPTION, "tor2->b", "tor2")]


class TestHealthyHopsCostNothing:
    """One corrupting cable costs RNG draws only to packets crossing it."""

    PACKETS = 40

    def world(self, corrupt):
        cluster = Cluster.clos(
            ClosParams(pods=2, tors_per_pod=2, aggs_per_pod=2, spines=2,
                       hosts_per_tor=3), seed=42)
        if corrupt:
            LinkCorruption(cluster, "pod0-agg0", "spine0",
                           drop_prob=0.5).inject()
        src = cluster.rnic(cluster.rnics_under_tor("pod0-tor0")[0])
        dst = cluster.rnic(cluster.rnics_under_tor("pod1-tor0")[0])
        return cluster, src, dst

    def flow(self, crossing):
        """A source port whose route does (or does not) cross the cable."""
        cluster, src, dst = self.world(corrupt=False)
        cable = {("pod0-agg0", "spine0"), ("spine0", "pod0-agg0")}
        for port in range(7000, 7200):
            path = cluster.fabric.path_of(
                roce_five_tuple(src.ip, dst.ip, port), src.name)
            if bool(cable & set(zip(path, path[1:]))) == crossing:
                return port
        raise AssertionError("no such flow")

    def send(self, cluster, src, dst, port):
        fabric = cluster.fabric
        times, drops = [], []
        fabric.attach_receiver(dst.name,
                               lambda p, rec: times.append(rec.time_ns))
        fabric.add_drop_listener(drops.append)
        draws = fabric.rng.draws
        for _ in range(self.PACKETS):
            fabric.inject(RoCEPacket(
                five_tuple=roce_five_tuple(src.ip, dst.ip, port),
                size_bytes=108), src.name)
            cluster.sim.run_for(seconds(0.001))
        return times, drops, fabric.rng.draws - draws

    def test_flow_avoiding_the_cable_draws_nothing(self):
        port = self.flow(crossing=False)
        healthy_times, _, _ = self.send(*self.world(corrupt=False), port)
        times, drops, draws = self.send(*self.world(corrupt=True), port)
        assert draws == 0
        assert not drops
        assert times == healthy_times

    def test_flow_crossing_the_cable_draws_once_per_crossing(self):
        port = self.flow(crossing=True)
        times, drops, draws = self.send(*self.world(corrupt=True), port)
        assert draws == self.PACKETS
        assert len(times) + len(drops) == self.PACKETS
        assert 0 < len(drops) < self.PACKETS
        assert {(d.reason, d.link) for d in drops} == {
            (DropReason.CORRUPTION, "pod0-agg0->spine0")}


class TestPathOf:
    def test_path_matches_data_path(self):
        sim, topo, fabric = build_fabric()
        got = []
        fabric.attach_receiver("b", lambda p, rec: got.append(rec.path))
        ft = roce_five_tuple("10.0.0.1", "10.0.0.2", 7000)
        predicted = fabric.path_of(ft, "a")
        fabric.inject(roce_packet(src_port=7000), "a")
        sim.run_until(seconds(1))
        assert list(got[0]) == predicted

    def test_respect_down_truncates(self):
        sim, topo, fabric = build_fabric()
        ft = roce_five_tuple("10.0.0.1", "10.0.0.2", 7000)
        full = fabric.path_of(ft, "a")
        mid = full[2]
        topo.link_pair("tor1", mid).up = False
        truncated = fabric.path_of(ft, "a", respect_down=True)
        assert truncated == full[:2]

    def test_unknown_ip_raises(self):
        sim, topo, fabric = build_fabric()
        ft = roce_five_tuple("10.0.0.1", "1.1.1.1", 7000)
        with pytest.raises(KeyError):
            fabric.path_of(ft, "a")

    def test_links_of_path(self):
        sim, topo, fabric = build_fabric()
        ft = roce_five_tuple("10.0.0.1", "10.0.0.2", 7000)
        path = fabric.path_of(ft, "a")
        links = fabric.links_of_path(path)
        assert len(links) == len(path) - 1
        assert links[0].src == "a"


class TestCounters:
    def test_injected_and_delivered(self):
        sim, topo, fabric = build_fabric()
        fabric.attach_receiver("b", lambda p, r: None)
        for port in range(2000, 2010):
            fabric.inject(roce_packet(src_port=port), "a")
        sim.run_until(seconds(1))
        assert fabric.packets_injected == 10
        assert fabric.packets_delivered == 10

    def test_link_counters(self):
        sim, topo, fabric = build_fabric()
        fabric.attach_receiver("b", lambda p, r: None)
        fabric.inject(roce_packet(), "a")
        sim.run_until(seconds(1))
        assert topo.link("a", "tor1").packets_forwarded == 1


class _HopLog:
    """Stands in for the INT collector: sees every hop at its own time."""

    def __init__(self, log):
        self.log = log

    def stamp(self, packet, link, now):
        self.log.append(("hop", link.name, now))

    def collect(self, packet, now):
        self.log.append(("deliver", now))


def probe_flight_steps(steps):
    """(now, events_processed, pending(), walker state) per 1 us step.

    The walker state is ``(packet_id, idx)`` of the transit that carries
    the first probe sent after t=3 s of a deployed TINY world (and, once
    it is recycled, of whatever packet reuses it), or None while idle.
    """
    cluster = Cluster.clos(TINY, seed=5)
    RPingmesh(cluster).start()
    sim, fabric = cluster.sim, cluster.fabric
    sim.run_until(seconds(3))
    captured = []
    inject = fabric.inject

    def capture(packet, src_port):
        if not captured and packet.payload.get("t") == "probe":
            captured.append(_Transit(fabric))
            fabric._transit_free.append(captured[0])   # the next one taken
        inject(packet, src_port)
    fabric.inject = capture
    while not captured:
        sim.run_until(sim.now + 1000)
    transit = captured[0]
    out = []
    for _ in range(steps):
        out.append((sim.now, sim.events_processed, sim.pending(),
                    None if transit.packet is None
                    else (transit.packet.packet_id, transit.idx)))
        sim.run_until(sim.now + 1000)
    return out


class TestRunAhead:
    """Hops taken inline are indistinguishable from scheduled ones."""

    def test_event_queued_at_a_hops_time_runs_before_the_hop(self):
        sim, topo, fabric = build_fabric()
        fabric.attach_receiver("b", lambda p, rec: None)
        free = []
        fabric.int_collector = _HopLog(free)
        fabric.inject(roce_packet(), "a")
        sim.run_until(seconds(1))
        hop_times = [entry[-1] for entry in free if entry[0] == "hop"]
        # Hop 3 would run inline in hop 2's event, but an event already
        # waits at exactly its time: that event was scheduled first.
        sim, topo, fabric = build_fabric()
        fabric.attach_receiver("b", lambda p, rec: None)
        log = []
        fabric.int_collector = _HopLog(log)
        sim.call_at(hop_times[2], lambda: log.append(("event", sim.now)))
        fabric.inject(roce_packet(), "a")
        sim.run_until(seconds(1))
        assert log == free[:2] + [("event", hop_times[2])] + free[2:]
        assert sim.events_processed == 5

    def test_stepping_across_a_probe_flight_matches_scheduled_hops(self):
        # Captured on the engine that scheduled every hop as an event.
        assert probe_flight_steps(20) == [
            (3013615000, 4225, 29, (631, 1)),
            (3013616000, 4226, 29, (631, 2)),
            (3013617000, 4227, 29, (631, 3)),
            (3013618000, 4228, 29, (631, 4)),
            (3013619000, 4229, 29, None),
            (3013620000, 4229, 29, None),
            (3013621000, 4229, 29, None),
            (3013622000, 4229, 29, None),
            (3013623000, 4229, 29, None),
            (3013624000, 4229, 29, None),
            (3013625000, 4229, 29, None),
            (3013626000, 4230, 29, None),
            (3013627000, 4231, 30, (632, 1)),
            (3013628000, 4233, 30, (632, 2)),
            (3013629000, 4235, 30, (632, 3)),
            (3013630000, 4238, 30, None),
            (3013631000, 4240, 29, None),
            (3013632000, 4240, 29, None),
            (3013633000, 4240, 29, None),
            (3013634000, 4241, 27, None),
        ]

    def test_profiler_sees_popped_events_engine_counts_inline_hops(self):
        sim, topo, fabric = build_fabric()
        got = []
        fabric.attach_receiver("b", lambda p, rec: got.append(rec))
        profiler = SimProfiler()
        sim.set_profiler(profiler)
        fabric.inject(roce_packet(), "a")   # takes the first hop itself
        sim.run_until(seconds(1))
        assert len(got) == 1 and len(got[0].path) == 5
        # Nothing else is queued, so one popped event takes the other
        # three hops and the delivery; each still counts as an event.
        assert profiler.events_total == 1
        assert sim.events_processed == 4
