"""Differential test: ``Simulator`` vs a sorted-list reference engine.

The engine keeps one heap of ``(time, seq, callback, handle)`` tuples and
may run a continuation inline (``run_ahead``) instead of scheduling it.
Its contract is *exact* behaviour — the order a sorted list would give,
with every continuation treated as an ordinary scheduled event — so this
harness drives both with the same randomized, seeded operation stream and
requires identical observable results at every step:

* events fire in exact (time, seq) order, including same-timestamp ties;
* cancelled events never fire, and cancel-after-fire is harmless;
* a run-ahead continuation fires at the same time, in the same place in
  the order, and counts as one processed event, whether the engine ran it
  inline or scheduled it;
* scheduling before ``now`` is rejected and leaves the engine untouched;
* ``now``, ``events_processed`` and ``pending()`` agree after every
  operation, including across compaction.

``_SortedReference`` below is the contract spelled out as plainly as
possible: a list kept sorted by (time, seq), no lazy deletion, no
run-ahead.
"""

import bisect
import random

import pytest

from repro.sim.engine import SimulationError, Simulator


class _SortedReference:
    """The engine's contract: a sorted list, and nothing clever."""

    def __init__(self):
        self.entries = []     # (time, seq, label), always sorted
        self.seq = 0
        self.now = 0
        self.processed = 0

    def push(self, time, label):
        bisect.insort(self.entries, (time, self.seq, label))
        self.seq += 1

    def cancel(self, label):
        self.entries = [e for e in self.entries if e[2] != label]

    def run_until(self, limit, plans, log):
        while self.entries and self.entries[0][0] <= limit:
            time, _, label = self.entries.pop(0)
            self.now = time
            self.processed += 1
            log.append((time, label))
            plan = plans.get(label)
            if plan is not None:
                _, delay, child = plan
                self.push(time + delay, child)
        self.now = limit

    def pending(self):
        return len(self.entries)


class _Harness:
    """One operation stream applied to the engine and the reference."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.sim = Simulator(seed=seed)
        self.ref = _SortedReference()
        self.labels = 0
        # label -> ("spawn" | "ahead", delay, child label): what the
        # event does when it fires.  "spawn" schedules the child;
        # "ahead" asks run_ahead first and runs the child inline on yes.
        self.plans = {}
        self.handles = {}     # label -> handle, for queued call_at events
        self.fired = []       # handles whose event already ran
        self.sim_log = []
        self.ref_log = []
        self.inline = self.refused = 0   # run_ahead answers

    def _label(self):
        self.labels += 1
        return self.labels

    def _maybe_plan(self, label, depth):
        if depth < 4 and self.rng.random() < 0.4:
            kind = "ahead" if self.rng.random() < 0.7 else "spawn"
            delay = self.rng.randrange(0, 600, 100)
            self.plans[label] = (kind, delay, self._label())
            self._maybe_plan(self.plans[label][2], depth + 1)

    def _callback(self, label):
        sim = self.sim

        def fire():
            self.sim_log.append((sim.now, label))
            handle = self.handles.pop(label, None)
            if handle is not None:
                self.fired.append(handle)
            plan = self.plans.get(label)
            if plan is None:
                return
            kind, delay, child = plan
            if kind == "ahead":
                if sim.run_ahead(delay):
                    self.inline += 1
                    self._callback(child)()
                    return
                self.refused += 1
            sim.schedule(delay, self._callback(child))
        return fire

    def push(self, time, *, cancellable=True):
        label = self._label()
        self._maybe_plan(label, 0)
        if cancellable:
            self.handles[label] = self.sim.call_at(time, self._callback(label))
        else:
            self.sim.schedule(time - self.sim.now, self._callback(label))
        self.ref.push(time, label)
        self.check()
        return label

    def cancel_random_queued(self):
        if not self.handles:
            return
        label = self.rng.choice(sorted(self.handles))
        self.handles.pop(label).cancel()
        self.ref.cancel(label)
        self.check()

    def cancel_random_fired(self):
        """Cancel-after-fire: a handle whose event already ran."""
        if not self.fired:
            return
        self.rng.choice(self.fired).cancel()
        self.check()

    def past_push_rejected(self):
        if self.sim.now == 0:
            return
        depth, pending = self.sim.queue_depth, self.sim.pending()
        with pytest.raises(SimulationError):
            self.sim.call_at(self.rng.randrange(0, self.sim.now), lambda: None)
        with pytest.raises(SimulationError):
            self.sim.schedule(-1, lambda: None)
        assert (self.sim.queue_depth, self.sim.pending()) == (depth, pending)

    def run_until(self, limit):
        self.sim.run_until(limit)
        self.ref.run_until(limit, self.plans, self.ref_log)
        assert self.sim_log == self.ref_log, "fire order diverged"
        self.check()

    def check(self):
        sim, ref = self.sim, self.ref
        assert (sim.now, sim.events_processed, sim.pending()) == \
            (ref.now, ref.processed, ref.pending())


def _run_random_schedule(seed, steps):
    h = _Harness(seed)
    rng = h.rng
    for _ in range(steps):
        op = rng.random()
        if op < 0.55:
            # Deliberately coarse times so exact (time, seq) ties occur
            # all the time, including with run-ahead continuations.
            h.push(h.sim.now + rng.randrange(0, 2000, 100),
                   cancellable=rng.random() < 0.7)
        elif op < 0.60:
            h.past_push_rejected()
        elif op < 0.75:
            h.cancel_random_queued()
        elif op < 0.80:
            h.cancel_random_fired()
        else:
            h.run_until(h.sim.now + rng.randrange(0, 3000, 250))
    h.run_until(1 << 40)  # drain
    assert h.sim.pending() == 0 and h.ref.pending() == 0
    return h


def test_randomized_schedules_match_sorted_reference():
    inline = refused = 0
    for seed in range(12):
        h = _run_random_schedule(seed, steps=400)
        inline += h.inline
        refused += h.refused
    # The streams exercise both answers of run_ahead.
    assert inline > 0 and refused > 0


def test_same_timestamp_ties_pop_in_seq_order():
    h = _Harness(0)
    labels = [h.push(1000) for _ in range(50)]
    h.plans.clear()
    h.run_until(1000)
    assert h.sim_log == [(1000, label) for label in labels]


def test_run_ahead_yields_to_a_same_time_event_scheduled_first():
    sim = Simulator()
    log = []

    def first():
        log.append(("first", sim.now))
        if sim.run_ahead(10):
            log.append(("inline", sim.now))
        else:
            sim.schedule(10, lambda: log.append(("scheduled", sim.now)))
    sim.call_at(5, first)
    sim.call_at(15, lambda: log.append(("queued", sim.now)))
    sim.run_until(100)
    assert log == [("first", 5), ("queued", 15), ("scheduled", 15)]
    assert sim.events_processed == 3


def test_run_ahead_stays_inside_the_drain_horizon():
    sim = Simulator()
    answers = []
    sim.call_at(5, lambda: answers.append(sim.run_ahead(10)))
    sim.run_until(14)
    sim.call_at(20, lambda: answers.append(sim.run_ahead(10)))
    sim.run_until(30)
    assert answers == [False, True]
    assert sim.run_ahead(0) is False   # outside any drain
    assert (sim.now, sim.events_processed) == (30, 3)


def test_mass_cancel_triggers_compaction_and_order_survives():
    h = _Harness(1)
    labels = [h.push(t) for t in range(0, 20000, 7)]
    h.plans.clear()
    for label in labels[: (3 * len(labels)) // 4]:
        h.handles.pop(label).cancel()
        h.ref.cancel(label)
    # Compaction ran (cancelled entries outnumbered live ones past the
    # threshold) and physically dropped entries from the heap.
    assert h.sim.queue_depth < len(labels)
    assert h.sim._cancelled < (3 * len(labels)) // 4
    h.check()
    h.run_until(1 << 40)
    survivors = labels[(3 * len(labels)) // 4:]
    assert [label for _, label in h.sim_log] == survivors


def test_interleaved_past_and_future_pushes_keep_exact_order():
    h = _Harness(2)
    far = h.push(5000)
    near = h.push(100)
    h.plans.clear()
    h.run_until(200)
    assert h.sim_log == [(100, near)]
    # Later pushes land before the far event, ties keep push order...
    tie_a, tie_b, early = h.push(300), h.push(300), h.push(250)
    h.plans.clear()
    # ...and a push behind the clock is refused outright.
    h.past_push_rejected()
    h.run_until(1 << 40)
    assert [label for _, label in h.sim_log] == [near, early, tie_a, tie_b,
                                                 far]
