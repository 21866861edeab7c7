"""Per-layer tracing from outside the program.

:class:`LayerTracer` measures where host time goes without editing any
module of ``repro``.  It does two things:

* It is installed as the engine's event profiler
  (``Simulator.set_profiler``).  Each popped event becomes one span,
  charged to the layer of the callback's target module.
  ``PeriodicTask``, ``functools.partial`` and bound methods are unwrapped
  to find that target.
* :meth:`LayerTracer.patch` wraps the public entry points of each layer
  in place, at class level, for the traced repeat only.  :meth:`unpatch`
  restores the originals, so the untraced repeats of the same process
  run pristine code.

A span's *self* time is its duration minus the time of the spans nested
inside it.  The root span is ``Simulator.run_until``; its self time is
the engine's own drain loop, outside every callback.  Spans are kept in
memory (aggregated per layer and entry point, plus a capped raw log) and
written out at the end by :meth:`LayerTracer.dump`.

The tracer only observes.  It never schedules events or draws random
numbers, so a traced run ends in the same behaviour digest as an
untraced one, which ``run.py`` checks on every traced run.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

# Module prefix -> layer.  First match wins, so specific prefixes come
# before their package.
LAYER_OF_MODULE = (
    ("repro.sim.", "sim"),
    ("repro.net.", "net"),
    ("repro.host.", "host"),
    ("repro.core.agent", "agent"),
    ("repro.core.railprobe", "agent"),
    ("repro.core.controller", "controlplane"),
    ("repro.controlplane.", "controlplane"),
    ("repro.core.", "analyzer"),
    ("repro.services.", "services"),
    ("repro.diagnosis.", "diagnosis"),
    ("repro.obs.", "obs"),
    ("repro.serve.", "serve"),
)
LAYERS = ("sim", "net", "host", "agent", "controlplane", "analyzer",
          "services", "diagnosis", "obs", "serve", "other")

# Raw spans kept for the dump; aggregates cover every span regardless.
SPAN_LOG_CAP = 200_000

_now_ns = time.perf_counter_ns


def layer_of_module(module: str) -> str:
    for prefix, layer in LAYER_OF_MODULE:
        if module.startswith(prefix):
            return layer
    return "other"


def module_of(fn) -> str:
    """Module of a callable, through ``partial`` and bound methods."""
    while isinstance(fn, functools.partial):
        fn = fn.func
    fn = getattr(fn, "__func__", fn)
    return getattr(fn, "__module__", None) or type(fn).__module__


class LayerTracer:
    """Span stack, per-layer self time, and entry-point counters."""

    LAYERS = LAYERS

    def __init__(self) -> None:
        from repro.net.fabric import Fabric, _Transit
        from repro.sim.engine import PeriodicTask

        self._periodic_fire = PeriodicTask._fire
        self._fabric_forward = Fabric._forward
        self._transit_type = _Transit
        self._local = threading.local()
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[int]] = defaultdict(list)
        self.events: dict[str, int] = defaultdict(int)
        self.transit_hops = 0
        self.slow_hops = 0
        self.results_ingested = 0
        self.service_results = 0
        self.timeouts = 0
        self.render_bytes: list[int] = []
        self.snapshot_series: list[int] = []
        self.span_log: list[tuple[str, int, int, int]] = []
        self._patched: list[tuple[type, str, object]] = []
        self._layer_cache: dict[str, str] = {}

    # -- span core -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, stack: list, frame: list, name: str, layer: str,
               start: int, end: int) -> None:
        stack.pop()
        elapsed = end - start
        self.self_ns[layer] += elapsed - frame[0]
        if stack:
            stack[-1][0] += elapsed
        if len(self.span_log) < SPAN_LOG_CAP:
            self.span_log.append((name, start, end, len(stack)))

    def span(self, name: str, layer: str, fn, *args, **kwargs):
        """Run ``fn`` inside one span charged to ``layer``."""
        stack = self._stack()
        frame = [0]
        stack.append(frame)
        start = _now_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _now_ns()
            self._close(stack, frame, name, layer, start, end)
            self.calls[name] += 1
            if name in self.durations:
                self.durations[name].append(end - start)

    # -- engine profiler hook -----------------------------------------------

    def _target_layer(self, callback) -> str:
        target = callback
        while True:
            if isinstance(target, functools.partial):
                target = target.func
                continue
            func = getattr(target, "__func__", None)
            if func is self._periodic_fire:
                target = target.__self__._callback
                continue
            break
        module = module_of(target)
        layer = self._layer_cache.get(module)
        if layer is None:
            layer = self._layer_cache[module] = layer_of_module(module)
        return layer

    def run(self, callback) -> None:
        """``Simulator`` profiler protocol: run one popped event."""
        if type(callback) is self._transit_type:
            self.transit_hops += 1
            layer = "net"
        else:
            if (isinstance(callback, functools.partial)
                    and getattr(callback.func, "__func__", None)
                    is self._fabric_forward):
                self.slow_hops += 1
            layer = self._target_layer(callback)
        self.events[layer] += 1
        stack = self._stack()
        frame = [0]
        stack.append(frame)
        start = _now_ns()
        try:
            callback()
        finally:
            self._close(stack, frame, layer, layer, start, _now_ns())

    # -- entry-point patching ------------------------------------------------

    def _wrap(self, cls: type, attr: str, layer: str, *,
              timed: bool = False, before=None, after=None) -> None:
        original = cls.__dict__[attr]
        name = f"{cls.__name__}.{attr}"
        if timed:
            self.durations[name] = []
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            result = tracer.span(name, layer, original, *args, **kwargs)
            if after is not None:
                after(result)
            return result

        self._patched.append((cls, attr, original))
        setattr(cls, attr, wrapper)

    def _wrap_receiver(self, receiver):
        layer = layer_of_module(module_of(receiver))
        tracer = self

        def traced_receiver(*args):
            return tracer.span("fabric.receiver", layer, receiver, *args)
        return traced_receiver

    def patch(self) -> None:
        """Wrap every traced entry point.  Call before building the world."""
        from repro.controlplane.transport import ManagementNetwork
        from repro.core.analyzer import Analyzer
        from repro.core.controller import Controller
        from repro.core.records import ProbeKind
        from repro.diagnosis.inband import IntCollector
        from repro.host.rnic import QueuePair, Rnic
        from repro.net.fabric import Fabric
        from repro.net.traceroute import TracerouteService
        from repro.obs.metrics import MetricsRegistry
        from repro.serve.session import ServeSession
        from repro.services.traffic import TrafficEngine
        from repro.sim.engine import Simulator

        tracer = self
        self._wrap(Simulator, "run_until", "sim")
        self._wrap(Fabric, "inject", "net")
        original_attach = Fabric.__dict__["attach_receiver"]

        def attach_receiver(fabric, host_port, receiver):
            return original_attach(fabric, host_port,
                                   tracer._wrap_receiver(receiver))
        self._patched.append((Fabric, "attach_receiver", original_attach))
        Fabric.attach_receiver = attach_receiver
        self._wrap(TracerouteService, "trace", "net")
        self._wrap(Rnic, "post_send", "host")
        self._patch_on_cqe(QueuePair)
        self._wrap(ManagementNetwork, "send", "controlplane")
        # Root controllers and analyzer shards delegate to these methods,
        # so wrapping the base classes covers sharded deployments too.
        self._wrap(Controller, "push_pinglists", "controlplane", timed=True)

        def count_results(analyzer, batch):
            tracer.results_ingested += len(batch.results)
            for result in batch.results:
                if result.kind is ProbeKind.SERVICE_TRACING:
                    tracer.service_results += 1
                if result.timeout:
                    tracer.timeouts += 1
        self._wrap(Analyzer, "receive_upload", "analyzer", timed=True,
                   before=count_results)
        self._wrap(Analyzer, "analyze", "analyzer", timed=True)
        self._wrap(TrafficEngine, "apply", "services", timed=True)
        self._wrap(IntCollector, "stamp", "diagnosis")
        self._wrap(IntCollector, "collect", "diagnosis")
        self._wrap(IntCollector, "drain_window", "diagnosis")
        self._wrap(MetricsRegistry, "snapshot", "obs", timed=True,
                   after=lambda snap: tracer.snapshot_series.append(
                       len(snap)))
        self._wrap(MetricsRegistry, "render_prometheus", "obs", timed=True,
                   after=lambda text: tracer.render_bytes.append(len(text)))
        self._wrap(ServeSession, "tick", "serve", timed=True)

    def _patch_on_cqe(self, qp_cls: type) -> None:
        """Span every CQE handler a QP is given, through a property."""
        tracer = self
        original = qp_cls.__dict__.get("on_cqe")

        def get(qp):
            return qp.__dict__.get("_traced_on_cqe")

        def set_(qp, handler):
            if handler is not None:
                layer = layer_of_module(module_of(handler))
                inner = handler
                name = f"on_cqe.{layer}"

                def handler(cqe):
                    return tracer.span(name, layer, inner, cqe)
            qp.__dict__["_traced_on_cqe"] = handler

        self._patched.append((qp_cls, "on_cqe", original))
        qp_cls.on_cqe = property(get, set_)

    def unpatch(self) -> None:
        """Restore every wrapped entry point."""
        for cls, attr, original in reversed(self._patched):
            setattr(cls, attr, original)
        self._patched.clear()

    # -- read-out ------------------------------------------------------------

    def totals(self) -> dict:
        """A snapshot of every counter, for differencing two points."""
        return {
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "events": dict(self.events),
            "transit_hops": self.transit_hops,
            "slow_hops": self.slow_hops,
            "results": self.results_ingested,
            "service_results": self.service_results,
            "timeouts": self.timeouts,
            "durations": {k: len(v) for k, v in self.durations.items()},
        }

    def dump(self, path: Path) -> None:
        """Write the raw span log and the aggregates as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps({"totals": self.totals()}) + "\n")
            for name, start, end, depth in self.span_log:
                out.write(json.dumps([name, start, end, depth]) + "\n")
