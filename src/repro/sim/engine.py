"""Deterministic discrete-event simulation engine.

The engine is one binary heap of plain tuples.  Components schedule
callbacks at absolute or relative times; the engine pops events in
(time, sequence) order so simultaneous events run in the order they were
scheduled, which makes every run bit-for-bit reproducible for a given seed.

Design notes
------------
* Callbacks, not coroutines.  A callback scheduler is both faster and easier
  to reason about for the probe/respond/analyze loops this package runs, and
  it avoids the generator-trampoline machinery of a process-based kernel.
* Events without records.  A heap entry is ``(time, seq, callback,
  handle)``: comparisons run on the two ints at C speed, and nothing is
  allocated per event beyond the tuple.  ``handle`` is ``None`` for
  fire-and-forget :meth:`Simulator.schedule`; :meth:`Simulator.call_at`
  returns an :class:`EventHandle` that is the entry's only mutable part.
* Events can be cancelled.  Cancellation is O(1): the handle is flagged and
  its entry skipped when popped (lazy deletion).  When cancelled entries
  outnumber live ones the heap compacts, so mass-cancel workloads cannot
  bloat it.  A handle forgets its engine when its event fires, so a cancel
  after the fact is inert.
* Run-ahead.  An event that would schedule its own continuation may ask
  :meth:`Simulator.run_ahead` to run it inline instead, when nothing else
  can run in between (the forwarding walker does this per hop).
* Periodic tasks are first-class because almost everything in R-Pingmesh is
  periodic: probing threads, pinglist refreshes, analysis periods.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional

#: Sentinel horizon for run_all: beyond any schedulable time.
_FAR_FUTURE = 1 << 62
#: Cancelled entries tolerated in the heap before compaction is considered.
_COMPACT_MIN = 64


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation engine."""


class InvariantViolation(SimulationError):
    """Raised by ``Simulator(check_invariants=True)`` on a broken invariant.

    A subclass of :class:`SimulationError` so existing error handling keeps
    working; the distinct type lets the replay harness and tests assert the
    failure came from the invariant layer rather than ordinary misuse.
    """


class EventHandle:
    """Opaque handle to a scheduled event, usable for cancellation.

    Holds its engine only while the event is queued: firing or cancelling
    drops the reference, so a handle outliving its event can never touch
    the engine's accounting again.
    """

    __slots__ = ("_time", "_sim", "_cancelled")

    def __init__(self, time: int, sim: "Simulator"):
        self._time = time
        self._sim: Optional[Simulator] = sim
        self._cancelled = False

    @property
    def time(self) -> int:
        """Absolute simulation time the event fires at."""
        return self._time

    @property
    def cancelled(self) -> bool:
        """Whether cancel() was called (even after the event fired)."""
        return self._cancelled

    def cancel(self) -> None:
        """Prevent the event from running.  Safe to call more than once."""
        if self._cancelled:
            return
        self._cancelled = True
        sim = self._sim
        if sim is not None:
            self._sim = None
            sim._note_cancel()


class PeriodicTask:
    """A callback re-armed at a fixed interval until stopped.

    The callback may inspect :attr:`runs` (number of completed firings) and
    may call :meth:`stop` from inside itself to terminate the cycle.
    """

    def __init__(self, sim: "Simulator", interval: int,
                 callback: Callable[[], None], *, jitter: int = 0):
        if interval <= 0:
            raise SimulationError(f"interval must be positive, got {interval}")
        self._sim = sim
        self._interval = interval
        self._callback = callback
        self._jitter = jitter
        self._stopped = False
        self._handle: Optional[EventHandle] = None
        self.runs = 0

    @property
    def interval(self) -> int:
        """Current re-arm interval in nanoseconds."""
        return self._interval

    @property
    def stopped(self) -> bool:
        """Whether the task has been stopped."""
        return self._stopped

    def set_interval(self, interval: int) -> None:
        """Change the interval used for subsequent firings."""
        if interval <= 0:
            raise SimulationError(f"interval must be positive, got {interval}")
        self._interval = interval

    def start(self, *, delay: Optional[int] = None) -> "PeriodicTask":
        """Arm the first firing ``delay`` ns from now (default: one interval).

        Also restarts a stopped task; any still-pending firing is cancelled
        first so the task never ends up double-armed.
        """
        self._stopped = False
        if self._handle is not None:
            self._handle.cancel()
        first = self._interval if delay is None else delay
        self._handle = self._sim.call_later(first, self._fire)
        return self

    def stop(self) -> None:
        """Stop the cycle; a pending firing is cancelled."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()

    def _fire(self) -> None:
        if self._stopped:
            return
        self._callback()
        self.runs += 1
        if self._stopped:  # callback may have stopped us
            return
        delay = self._interval
        if self._jitter:
            delay += self._sim.rng_jitter(self._jitter)
        self._handle = self._sim.call_later(max(1, delay), self._fire)


class Simulator:
    """The event loop.

    A single :class:`Simulator` owns simulated time for one scenario.  All
    substrate objects (fabric, hosts, RNICs) and R-Pingmesh modules hold a
    reference to the same simulator.
    """

    def __init__(self, *, seed: int = 0, check_invariants: bool = False):
        # (time, seq, callback, handle-or-None); seqs are unique, so heap
        # comparisons never reach the callback.
        self._heap: list[tuple] = []
        self._cancelled = 0           # cancelled entries still in the heap
        self._seq = itertools.count()
        self._now = 0
        self._running = False
        # Horizon of the drain in progress; -1 outside one, which turns
        # run_ahead off for code running outside the event loop.
        self._drain_limit = -1
        self.seed = seed
        # Simple deterministic jitter source decoupled from component RNGs.
        self._jitter_state = (seed * 2654435761 + 1) & 0xFFFFFFFF
        self.events_processed = 0
        # Opt-in runtime invariant checking (detlint --check-invariants):
        # asserts the popped-event clock never moves backwards, i.e. no
        # event was smuggled into the past around call_at's guard.
        self.check_invariants = check_invariants
        # Opt-in profiler (repro.obs.SimProfiler): when set, popped events
        # are executed through it so host wall time can be attributed per
        # callback site.  The profiler only *observes* — it never schedules,
        # draws randomness, or feeds wall time back into sim state, so
        # installing one cannot change replay digests.
        self._profiler = None

    @property
    def queue_depth(self) -> int:
        """Queued events including cancelled-but-unpopped ones.

        Ordinary code wants :meth:`pending` (live events only).
        """
        return len(self._heap)

    def set_profiler(self, profiler) -> None:
        """Install (or, with None, remove) an event profiler."""
        self._profiler = profiler

    @property
    def profiler(self):
        """The installed event profiler, if any."""
        return self._profiler

    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    def call_at(self, time: int, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at absolute simulation time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule in the past: {time} < now {self._now}")
        handle = EventHandle(time, self)
        heapq.heappush(self._heap, (time, next(self._seq), callback, handle))
        return handle

    def call_later(self, delay: int, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        return self.call_at(self._now + delay, callback)

    def schedule(self, delay: int, callback: Callable[[], None]) -> None:
        """Fire-and-forget :meth:`call_later`: no cancellation handle.

        Hot-path variant for callers that never cancel (packet hops, wire
        departures).  Scheduling order — and therefore replay behaviour —
        is identical to ``call_later``; only the handle allocation is
        skipped.
        """
        if delay < 0:
            raise SimulationError(f"delay must be non-negative, got {delay}")
        heapq.heappush(self._heap,
                       (self._now + delay, next(self._seq), callback, None))

    def run_ahead(self, delay: int) -> bool:
        """Advance the clock ``delay`` ns inline, if nothing can intervene.

        For the event being executed: instead of scheduling its own
        continuation ``delay`` ns out, it may call this and, on True, run
        the continuation itself at the advanced clock.  That is only
        allowed when the continuation's time is within the current drain's
        horizon and strictly before the queue head, so no queued event
        (including a same-time one scheduled earlier, which would pop
        first) could have run in between.  The accepted continuation counts
        as one processed event, exactly as if it had been popped, so
        ``events_processed`` and ``pending()`` match the scheduled path.
        ``delay`` must be non-negative.
        """
        time = self._now + delay
        if time > self._drain_limit:
            return False
        heap = self._heap
        if heap and heap[0][0] <= time:
            return False
        self._now = time
        self.events_processed += 1
        return True

    def every(self, interval: int, callback: Callable[[], None], *,
              delay: Optional[int] = None, jitter: int = 0) -> PeriodicTask:
        """Create and start a :class:`PeriodicTask`."""
        return PeriodicTask(self, interval, callback, jitter=jitter).start(delay=delay)

    def _note_cancel(self) -> None:
        """Account a first-time cancellation of a still-queued event."""
        self._cancelled += 1
        cancelled = self._cancelled
        if cancelled > _COMPACT_MIN and cancelled > len(self._heap) - cancelled:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries (lazy-deletion sweep), in place."""
        heap = self._heap
        heap[:] = [entry for entry in heap
                   if entry[3] is None or not entry[3]._cancelled]
        heapq.heapify(heap)
        self._cancelled = 0

    def _drain(self, limit_time: int, max_events: Optional[int] = None) -> None:
        """The single pop/execute loop behind run_until and run_all.

        Keeping one copy means the invariant check and the profiler hook
        cannot drift apart between the two entry points.
        """
        heap = self._heap
        heappop = heapq.heappop
        check_invariants = self.check_invariants
        processed = 0
        self._drain_limit = limit_time
        try:
            while heap and heap[0][0] <= limit_time:
                time, _, callback, handle = heappop(heap)
                if handle is not None:
                    if handle._cancelled:
                        self._cancelled -= 1
                        continue
                    handle._sim = None
                if check_invariants and time < self._now:
                    raise InvariantViolation(
                        f"event scheduled before current sim time: "
                        f"{time} < now {self._now}")
                self._now = time
                profiler = self._profiler
                if profiler is None:
                    callback()
                else:
                    profiler.run(callback)
                self.events_processed += 1
                processed += 1
                if max_events is not None and processed >= max_events:
                    raise SimulationError(
                        f"run_all exceeded {max_events} events; "
                        "runaway schedule?")
        finally:
            self._drain_limit = -1

    def run_until(self, time: int) -> None:
        """Process events until simulated time reaches ``time``.

        The clock is always advanced to ``time`` even if the queue drains
        early, so back-to-back ``run_until`` calls observe contiguous time.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot run backwards: {time} < now {self._now}")
        if self._running:
            raise SimulationError("run_until called re-entrantly")
        self._running = True
        try:
            self._drain(time)
            self._now = time
        finally:
            self._running = False

    def run_for(self, duration: int) -> None:
        """Process events for ``duration`` ns of simulated time."""
        self.run_until(self._now + duration)

    def run_all(self, *, limit: int = 50_000_000) -> None:
        """Drain the event queue completely (bounded by ``limit`` events)."""
        if self._running:
            raise SimulationError("run_all called re-entrantly")
        self._running = True
        try:
            self._drain(_FAR_FUTURE, max_events=limit)
        finally:
            self._running = False

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._heap) - self._cancelled

    def rng_jitter(self, bound: int) -> int:
        """Deterministic jitter in ``[0, bound)`` for periodic task spacing."""
        self._jitter_state = (self._jitter_state * 1103515245 + 12345) & 0x7FFFFFFF
        return self._jitter_state % bound if bound > 0 else 0
