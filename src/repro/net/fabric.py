"""Packet forwarding over the topology.

The :class:`Fabric` walks packets hop by hop so that drops happen at the
right link (which is what Algorithm 1's voting localises), queue delays are
sampled at traversal time, and TTL semantics work for traceroute.

Every injected packet gets a pooled :class:`_Transit` that walks the
flow's ECMP route.  A hop is scheduled as an event of its own unless
nothing queued can run before it, in which case the event that computed
it takes it inline (:meth:`Simulator.run_ahead`); either way every hop
runs the same rules at its own simulated time.  The route is resolved
once per 5-tuple and cached until routing changes (``Topology.route_epoch``);
a packet in flight when that happens re-resolves the rest of its route
from the node it has reached.  Every hop applies, in order:

1. physical link state (down -> drop, unless routing already converged
   around the link, in which case ECMP never offered it),
2. PFC deadlock (traffic through a deadlocked link is blocked; from the
   endpoint's perspective that is a drop),
3. random corruption drops (damaged fiber / dusty optics, fault #2),
4. silent per-5-tuple drops (the "certain 5-tuples" problem §4.1),
5. lossy-queue overflow (PFC unconfigured / bad headroom, fault #9),
6. ingress ACL at the downstream switch (fault #8),

then the TTL check at the downstream switch.  On a healthy link each rule
is a plain attribute read that draws nothing from the RNG.

Delivery invokes the receiver registered for the destination host port —
normally the RNIC model, which applies its own (host-side) fault logic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from repro.net.ecmp import EcmpHasher, pick_next_hop
from repro.net.packet import TC_ROCE, Packet, PacketPool
from repro.net.topology import DirectedLink, Topology
from repro.sim.engine import Simulator
from repro.sim.rng import RngStream

SWITCH_FORWARD_LATENCY_NS = 450  # ASIC pipeline latency per switch hop


class DropReason(Enum):
    """Why the fabric dropped a packet."""

    LINK_DOWN = "link_down"
    PFC_DEADLOCK = "pfc_deadlock"
    CORRUPTION = "corruption"
    SILENT_DROP = "silent_drop"
    QUEUE_OVERFLOW = "queue_overflow"
    ACL_DENY = "acl_deny"
    NO_ROUTE = "no_route"
    TTL_EXPIRED = "ttl_expired"


@dataclass(slots=True)
class DropRecord:
    """One dropped packet: when, where, why."""

    time_ns: int
    packet: Packet
    reason: DropReason
    link: Optional[str]      # "src->dst" of the offending directed link
    node: Optional[str]      # node at which the drop was decided


@dataclass(slots=True)
class DeliveryRecord:
    """Bookkeeping attached to a delivered packet."""

    time_ns: int
    path: tuple[str, ...]    # node names traversed, inclusive of endpoints


class _CachedPath:
    """A route resolved under one ``route_epoch``.

    Usually a flow's whole ECMP route, shared by all its packets.  A route
    that stops short of its destination ends at a node that had no next
    hop, or, under adaptive routing, at the hop not yet chosen.
    """

    __slots__ = ("nodes", "hops", "route_epoch")

    def __init__(self, nodes: tuple[str, ...], hops: tuple, route_epoch: int):
        self.nodes = nodes           # node names, endpoints inclusive
        self.hops = hops             # per hop: (link, next Node if a switch)
        self.route_epoch = route_epoch


class _Transit:
    """Pooled per-packet walker: the event that takes the packet's hops."""

    __slots__ = ("fabric", "packet", "path", "idx", "dst", "is_roce")

    def __init__(self, fabric: "Fabric") -> None:
        self.fabric = fabric
        self.packet: Optional[Packet] = None
        self.path: Optional[_CachedPath] = None
        self.idx = 0                 # the packet is at path.nodes[idx]
        self.dst = ""
        self.is_roce = True

    def __call__(self) -> None:
        self.fabric._forward(self, True)


class Fabric:
    """Forwards packets over a :class:`Topology` inside a simulation."""

    def __init__(self, sim: Simulator, topology: Topology, rng: RngStream,
                 *, pooling: bool = True, packet_pool_size: int = 4096,
                 sanitizer=None):
        self.sim = sim
        self.topology = topology
        self.rng = rng
        # Opt-in pool sanitizer (repro.analysis.sanitize); shared with the
        # packet pool here and inherited by every attached Rnic.
        self.sanitizer = sanitizer
        # InfiniBand-style Adaptive Routing (paper §7.5): every packet may
        # take any parallel path, independent of its 5-tuple.  Probing
        # still detects problems, but traced paths stop matching the
        # packets that died — the stated localisation limitation.
        self.adaptive_routing = False
        # Pooling knob: False forces fresh allocations everywhere (digest
        # equivalence with pooling on is a tested invariant).
        self.pooling = pooling
        self.packet_pool = PacketPool(
            limit=packet_pool_size if pooling else 0, sanitizer=sanitizer)
        self._hasher = EcmpHasher()
        # Resolved routes per 5-tuple, valid for one route_epoch.
        self._path_cache: dict = {}
        self._path_cache_epoch = -1
        self._transit_free: list[_Transit] = []
        self._transit_pool_limit = 1024 if pooling else 0
        self._receivers: dict[str, Callable[[Packet, DeliveryRecord], None]] = {}
        self._ip_to_port: dict[str, str] = {}
        self._drop_listeners: list[Callable[[DropRecord], None]] = []
        self.drops: list[DropRecord] = []
        self.max_drop_log = 100_000
        self.packets_delivered = 0
        self.packets_injected = 0
        # Incremental per-reason totals; unlike the bounded drop log these
        # never saturate, which is what the metrics registry exports.
        self.drop_counts: dict[str, int] = {}
        # Probe-lifecycle tracer (repro.obs), installed by
        # Observability.install when tracing is on; None keeps each hop
        # at a single attribute check.
        self.tracer = None
        # In-band telemetry collector (repro.diagnosis.inband), installed
        # by IntCollector.install when the "int" backend is deployed.
        # Same contract as the tracer: None costs one attribute check.
        self.int_collector = None
        # Per-fabric packet id source: ids restart at 1 for every cluster
        # so same-process replays see identical ids.
        self._packet_ids = itertools.count(1)

    # -- wiring ------------------------------------------------------------

    def register_ip(self, ip: str, host_port: str) -> None:
        """Bind an IP address to a host port vertex."""
        if host_port not in self.topology.nodes:
            raise KeyError(f"unknown host port: {host_port}")
        self._ip_to_port[ip] = host_port

    def attach_receiver(
            self, host_port: str,
            receiver: Callable[[Packet, DeliveryRecord], None]) -> None:
        """Register the packet sink for a host port (usually an RNIC)."""
        if host_port not in self.topology.nodes:
            raise KeyError(f"unknown host port: {host_port}")
        self._receivers[host_port] = receiver

    def add_drop_listener(
            self, listener: Callable[[DropRecord], None]) -> None:
        """Subscribe to drop events (used by tests and fault assertions)."""
        self._drop_listeners.append(listener)

    def port_for_ip(self, ip: str) -> Optional[str]:
        """Host port bound to ``ip``, if any."""
        return self._ip_to_port.get(ip)

    # -- sending -----------------------------------------------------------

    def inject(self, packet: Packet, src_port: str) -> None:
        """Send ``packet`` into the fabric from ``src_port``."""
        self.packets_injected += 1
        packet.packet_id = next(self._packet_ids)
        packet.sent_at_ns = self.sim.now
        dst_port = self._ip_to_port.get(packet.five_tuple.dst_ip)
        if dst_port is None:
            self._drop(packet, DropReason.NO_ROUTE, link=None, node=src_port)
            return
        free = self._transit_free
        if free:
            transit = free.pop()
            if self.sanitizer is not None:
                self.sanitizer.reacquire_transit(transit)
        else:
            transit = _Transit(self)
            if self.sanitizer is not None:
                self.sanitizer.acquire_transit(transit)
        transit.packet = packet  # detlint: disable=DET007 in-flight slot; cleared by _release_transit before the packet is recycled
        transit.path = self._cached_path(packet.five_tuple, src_port,
                                         dst_port)
        transit.idx = 0
        transit.dst = dst_port
        transit.is_roce = packet.traffic_class == TC_ROCE
        self._forward(transit)

    def _cached_path(self, five_tuple, src_port: str,
                     dst_port: str) -> _CachedPath:
        """The resolved route for this flow, cached per route_epoch."""
        epoch = self.topology.route_epoch
        if self.adaptive_routing:
            # Nothing to cache: _forward picks each hop as it is taken.
            return _CachedPath((src_port,), (), epoch)
        cache = self._path_cache
        if self._path_cache_epoch != epoch:
            cache.clear()
            self._path_cache_epoch = epoch
        cached = cache.get(five_tuple)
        if (cached is not None and cached.nodes[0] == src_port
                and cached.nodes[-1] == dst_port):
            return cached
        cached = self._resolve_path(five_tuple, (src_port,), (), dst_port)
        if len(cache) >= 65536:
            cache.clear()
        cache[five_tuple] = cached
        return cached

    def _resolve_path(self, five_tuple, nodes: tuple, hops: tuple,
                      dst_port: str) -> _CachedPath:
        """Extend the route ``nodes``/``hops`` toward ``dst_port``.

        ECMP resolves every remaining hop at once.  Adaptive routing
        resolves only the next one, drawing its choice as the packet takes
        that hop.  Either way the route stops at a node with no next hop.
        """
        topology = self.topology
        adaptive = self.adaptive_routing
        nodes = list(nodes)
        hops = list(hops)
        node = nodes[-1]
        while node != dst_port:
            candidates = topology.next_hops(node, dst_port)
            if not candidates:
                break
            if adaptive and len(candidates) > 1:
                next_node = self.rng.choice(candidates)
            else:
                next_node = self._hasher.pick(five_tuple, node, candidates)
            vertex = topology.nodes[next_node]
            hops.append((topology.links[(node, next_node)],
                         vertex if vertex.is_switch else None))
            nodes.append(next_node)
            node = next_node
            if adaptive:
                break
        return _CachedPath(tuple(nodes), tuple(hops), topology.route_epoch)

    def _release_transit(self, transit: _Transit) -> None:
        transit.packet = None
        transit.path = None
        free = self._transit_free
        recycled = len(free) < self._transit_pool_limit
        if self.sanitizer is not None:
            self.sanitizer.release_transit(transit, recycled=recycled)
        if recycled:
            free.append(transit)

    # -- the walker --------------------------------------------------------

    def _forward(self, transit: _Transit, popped: bool = False) -> None:
        """Move the transit's packet one hop along its route, or deliver it.

        PFC deadlock and lossy-RoCE-queue overflow affect only the RoCE
        traffic class: a TCP probe sails through a PFC-deadlocked link,
        which is precisely why TCP Pingmesh cannot detect those problems
        (§2.4).  Physical faults (down links, corruption) hit both classes.

        ``popped`` says the call is the transit's own event, so nothing
        else runs after it returns; then each next hop that nothing queued
        can overtake (:meth:`Simulator.run_ahead`) runs here, at its own
        time, instead of in an event of its own.
        """
        sim = self.sim
        while True:
            route = transit.path
            idx = transit.idx
            hops = route.hops
            if (idx == len(hops)
                    or route.route_epoch != self.topology.route_epoch
                    or self.adaptive_routing):
                if route.nodes[idx] == transit.dst:
                    self._deliver(transit)
                    return
                # Routing changed since the route was resolved, or the
                # route ends here: resolve the rest from the current node.
                route = transit.path = self._resolve_path(
                    transit.packet.five_tuple, route.nodes[:idx + 1],
                    hops[:idx], transit.dst)
                hops = route.hops
                if idx == len(hops):
                    self._drop_transit(transit, DropReason.NO_ROUTE, None,
                                       route.nodes[idx])
                    return
            packet = transit.packet
            link, next_switch = hops[idx]
            now = sim.now
            is_roce = transit.is_roce

            reason = None
            if not link.pair.up:
                reason = DropReason.LINK_DOWN
            elif is_roce and link.pfc_deadlocked:
                reason = DropReason.PFC_DEADLOCK
            elif (link.corruption_drop_prob > 0.0
                    and self.rng.chance(link.corruption_drop_prob)):
                link.crc_errors += 1   # the counter operators would inspect
                reason = DropReason.CORRUPTION
            elif (link.silent_drop_predicate is not None
                    and link.silent_drop_predicate(packet.five_tuple)):
                reason = DropReason.SILENT_DROP
            elif (is_roce and not (link.pfc_enabled and link.pfc_headroom_ok)
                    and self.rng.chance(link.congestion_drop_prob(now))):
                reason = DropReason.QUEUE_OVERFLOW
            if reason is not None:
                self._drop_transit(transit, reason, link.name,
                                   route.nodes[idx])
                return
            if next_switch is not None:
                acl = next_switch.acl
                if acl.deny_rules and not acl.permits(packet.five_tuple):
                    self._drop_transit(transit, DropReason.ACL_DENY,
                                       link.name, next_switch.name)
                    return
                packet.ttl -= 1
                if packet.ttl <= 0:
                    self._drop_transit(transit, DropReason.TTL_EXPIRED,
                                       link.name, next_switch.name)
                    return

            delay = link.traversal_delay_ns(now, packet.size_bytes,
                                            roce_queue=is_roce)
            if next_switch is not None:
                delay += SWITCH_FORWARD_LATENCY_NS
            link.packets_forwarded += 1
            if self.int_collector is not None:
                self.int_collector.stamp(packet, link, now)
            if self.tracer is not None:
                seq, leg = self._probe_leg(packet)
                if seq is not None:
                    node = route.nodes[idx]
                    ways = len(self.topology.next_hops(node, transit.dst))
                    fields = {"leg": leg, "node": node,
                              "next": route.nodes[idx + 1],
                              "delay_ns": delay, "ecmp_ways": ways}
                    if link.pause_delay_ns:
                        fields["pfc_pause_ns"] = link.pause_delay_ns
                    self.tracer.event(seq, now, "fabric.hop", **fields)
            transit.idx = idx + 1
            if not (popped and sim.run_ahead(delay)):
                sim.schedule(delay, transit)
                return

    def _deliver(self, transit: _Transit) -> None:
        packet = transit.packet
        path = transit.path.nodes
        self._release_transit(transit)
        self.packets_delivered += 1
        if self.int_collector is not None:
            self.int_collector.collect(packet, self.sim.now)
        if self.tracer is not None:
            seq, leg = self._probe_leg(packet)
            if seq is not None:
                self.tracer.event(seq, self.sim.now, "fabric.deliver",
                                  leg=leg, dst=path[-1], hops=len(path) - 1)
        receiver = self._receivers.get(path[-1])
        if receiver is not None:
            receiver(packet, DeliveryRecord(self.sim.now, path))
        # Delivered pool-owned packets are recycled once the receiver is
        # done with them; dropped packets never are (DropRecords keep them).
        self.packet_pool.release(packet)

    def _drop_transit(self, transit: _Transit, reason: DropReason,
                      link: Optional[str], node: str) -> None:
        packet = transit.packet
        self._release_transit(transit)
        self._drop(packet, reason, link=link, node=node)

    def _drop(self, packet: Packet, reason: DropReason, *,
              link: Optional[str], node: Optional[str]) -> None:
        record = DropRecord(self.sim.now, packet, reason, link, node)
        self.drop_counts[reason.value] = \
            self.drop_counts.get(reason.value, 0) + 1
        if self.sanitizer is not None and packet.pooled:
            # Dropped packets are never recycled: the DropRecord keeps
            # them as evidence (DESIGN.md §10).  Tell the leak detector.
            self.sanitizer.retain_packet(packet, f"drop evidence: {reason.value}")
        if len(self.drops) < self.max_drop_log:
            self.drops.append(record)  # detlint: disable=DET007 DropRecords retain dropped packets as evidence; never recycled
        if self.tracer is not None:
            seq, leg = self._probe_leg(packet)
            if seq is not None:
                self.tracer.event(seq, self.sim.now, "fabric.drop", leg=leg,
                                  reason=reason.value, link=link, node=node)
        for listener in self._drop_listeners:
            listener(record)

    @staticmethod
    def _probe_leg(packet: Packet) -> tuple[Optional[int], Optional[str]]:
        """(probe_seq, leg) of a probe-exchange packet, (None, None) else."""
        leg = packet.payload.get("t")
        if leg in ("probe", "ack1", "ack2"):
            return packet.payload.get("seq"), leg
        return None, None

    # -- path computation (control plane) -----------------------------------

    def path_of(self, five_tuple, src_port: str,
                dst_port: Optional[str] = None,
                *, respect_down: bool = False) -> list[str]:
        """The node sequence the flow's packets take right now.

        This mirrors the per-switch ECMP choices of the data path; it is
        used by the traffic layer to map fluid flows onto links and by the
        traceroute service.  With ``respect_down`` the walk stops at a down
        link (what a real traceroute would observe).
        """
        if dst_port is None:
            dst_port = self._ip_to_port.get(five_tuple.dst_ip)
            if dst_port is None:
                raise KeyError(f"no host port for {five_tuple.dst_ip}")
        path = [src_port]
        node = src_port
        guard = 0
        while node != dst_port:
            guard += 1
            if guard > 64:
                raise RuntimeError(f"routing loop toward {dst_port}")
            candidates = self.topology.next_hops(node, dst_port)
            if not candidates:
                break
            next_node = pick_next_hop(five_tuple, node, candidates)
            if respect_down and not self.topology.link(node, next_node).up:
                break
            path.append(next_node)
            node = next_node
        return path

    def links_of_path(self, path: list[str]) -> list[DirectedLink]:
        """Directed links along a node path."""
        return [self.topology.link(a, b) for a, b in zip(path, path[1:])]
