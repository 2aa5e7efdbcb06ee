"""Discrete-event simulation core: virtual clock and event queue.

This is the heart of the NS-3 substitute.  NS-3 runs a single-threaded
event loop over a priority queue of (time, uid) ordered events; we do the
same over one ``heapq`` binary heap of ``(time, seq, event)`` tuples.
``seq`` is unique, so entries order by plain tuple comparison and the
event object itself is never compared.  Everything else in ``repro`` —
links, transports, containers, binaries, the botnet — schedules
callbacks here.

The queue is deliberately minimal and fast: DDoS-flood experiments
push millions of events through it, so the hot path cuts allocation two
ways:

* :meth:`Simulator.schedule_bare` is a fire-and-forget variant of
  :meth:`Simulator.schedule` that returns no handle and recycles its
  event objects through a freelist — the datapath (device serialization,
  channel propagation) uses it, because nobody ever cancels those events.
* Cancelled events are tombstones; the simulator keeps an exact live
  count (``pending_events``) and compacts the heap when tombstones
  outnumber live events, so retransmit/churn cancellation storms cannot
  bloat the queue.
"""

from __future__ import annotations

import time
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

from repro.obs.observatory import NULL_OBSERVATORY
from repro.obs.profiler import site_of

#: compaction trigger: tombstones must exceed this count *and* the live
#: count before the queue is rebuilt (small queues never pay for it)
COMPACT_MIN_TOMBSTONES = 64


class SimulationError(RuntimeError):
    """Raised for invalid scheduling (e.g. scheduling in the past)."""


class ScheduledEvent:
    """Handle for a scheduled callback; supports cancellation.

    Mirrors NS-3's ``EventId``: holding on to the handle lets callers
    ``cancel()`` the event before it fires (used heavily by retransmission
    timers and churn).  ``_sim`` backlinks to the owning simulator so a
    cancellation updates its live-event accounting; it is cleared when the
    event fires, making late ``cancel()`` calls harmless no-ops.
    ``recycle`` marks freelist events (``schedule_bare``), which hand out
    no handle and are reused after firing.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "recycle", "_sim")

    def __init__(self, time: float, seq: int, callback: Callable, args: tuple):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.recycle = False
        self._sim = None

    def cancel(self) -> None:
        """Prevent the event's callback from running when its time comes."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            sim._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "cancelled" if self.cancelled else "pending"
        return f"<ScheduledEvent t={self.time:.6f} #{self.seq} {state}>"


class Simulator:
    """A single-threaded discrete-event simulator with a virtual clock.

    Usage::

        sim = Simulator()
        sim.schedule(1.0, lambda: print("one second"))
        sim.run(until=10.0)

    Events scheduled for the same instant fire in FIFO scheduling order
    (ties broken by a monotonically increasing sequence number), matching
    NS-3 semantics and making runs fully deterministic.
    """

    def __init__(self) -> None:
        self._now: float = 0.0
        self._seq: int = 0
        #: binary heap of (time, seq, event) entries, tombstones included
        self._heap: list = []
        self._running = False
        self._stopped = False
        self._live = 0        # scheduled, not yet fired or cancelled
        self._tombstones = 0  # cancelled but still queued
        self._free: list = []  # recycled schedule_bare event objects
        self.events_executed: int = 0
        #: observability hub (registry + tracer + profiler); the default
        #: null observatory keeps run() on the uninstrumented fast loop.
        self.obs = NULL_OBSERVATORY
        #: fluid-flow engine (repro.netsim.flows.FlowEngine) when the
        #: hybrid datapath is active; None keeps the packet path exact.
        self.flows = None

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def attach_observatory(self, obs):
        """Install an :class:`repro.obs.Observatory`; returns it.

        Attach before building components: instrumented layers bind
        their counters/tracers from ``sim.obs`` at construction time.
        """
        self.obs = obs
        return obs

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable, *args: Any) -> ScheduledEvent:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable, *args: Any) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at absolute virtual ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}"
            )
        self._seq += 1
        seq = self._seq
        event = ScheduledEvent(time, seq, callback, args)
        event._sim = self
        self._live += 1
        heappush(self._heap, (time, seq, event))
        return event

    def schedule_now(self, callback: Callable, *args: Any) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at the current instant (after the
        currently executing event completes)."""
        return self.schedule_at(self._now, callback, *args)

    def schedule_bare(self, delay: float, callback: Callable, *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no handle, recycled events.

        The event object comes from (and returns to) a freelist, so a
        steady-state flood allocates no event objects at all.  Use only
        where the caller drops the handle unconditionally — these events
        cannot be cancelled, which is what makes recycling safe.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        seq = self._seq
        time = self._now + delay
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            event.seq = seq
            event.callback = callback
            event.args = args
        else:
            event = ScheduledEvent(time, seq, callback, args)
            event.recycle = True
        self._live += 1
        heappush(self._heap, (time, seq, event))

    def _note_cancel(self) -> None:
        """Live/tombstone bookkeeping for one cancellation; compacts the
        heap when tombstones dominate (in place, so the run loop's alias
        of the heap stays valid)."""
        self._live -= 1
        self._tombstones += 1
        if self._tombstones > COMPACT_MIN_TOMBSTONES and self._tombstones > self._live:
            heap = self._heap
            before = len(heap)
            heap[:] = [entry for entry in heap if not entry[2].cancelled]
            heapify(heap)
            self._tombstones -= before - len(heap)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run events until the queue drains, ``until`` is reached, or
        :meth:`stop` is called.  Returns the final virtual time.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the queue drains earlier, mirroring NS-3's
        ``Simulator::Stop(Seconds(t)); Simulator::Run()`` idiom.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        self._stopped = False
        try:
            if self.obs.instrumented:
                self._run_instrumented(until)
            else:
                self._run_heap(until)
        except Exception:
            # An exception escaping the event loop (a failed assertion, a
            # crashing callback) force-dumps the flight recorder so the
            # post-mortem has the run-up, not a blank trace.  dump() never
            # raises; the original error propagates untouched.
            recorder = getattr(self.obs, "recorder", None)
            if recorder is not None and recorder.enabled:
                recorder.dump("sim.exception", self._now)
            raise
        finally:
            self._running = False
        if until is not None and not self._stopped and self._now < until:
            self._now = until
        return self._now

    def _run_heap(self, until: Optional[float]) -> None:
        """The uninstrumented hot loop."""
        heap = self._heap
        free = self._free
        while heap and not self._stopped:
            if until is not None and heap[0][0] > until:
                break
            event = heappop(heap)[2]
            if event.cancelled:
                self._tombstones -= 1
                continue
            self._now = event.time
            self._live -= 1
            self.events_executed += 1
            callback = event.callback
            args = event.args
            if event.recycle:
                event.callback = event.args = None  # drop refs for reuse
                free.append(event)
            else:
                event._sim = None  # fired: late cancel() is a no-op
            callback(*args)

    def _run_instrumented(self, until: Optional[float]) -> None:
        """The observed run loop: per-site wall timing, queue high-water,
        and ``sched.fire`` trace events.  Split from :meth:`run` so the
        default loop stays the uninstrumented hot path."""
        heap = self._heap
        free = self._free
        profiler = self.obs.profiler
        tracer = self.obs.tracer
        trace_on = tracer.enabled
        # Wall time is the *measurement* here (profiling callback cost),
        # never an input to the simulation.
        perf = time.perf_counter  # simlint: disable=SIM101
        if profiler is not None:
            profiler.start_run()
        while heap and not self._stopped:
            if profiler is not None and len(heap) > profiler.heap_high_water:
                profiler.heap_high_water = len(heap)
            if until is not None and heap[0][0] > until:
                break
            event = heappop(heap)[2]
            if event.cancelled:
                self._tombstones -= 1
                continue
            self._now = event.time
            self._live -= 1
            self.events_executed += 1
            callback = event.callback
            args = event.args
            if event.recycle:
                event.callback = event.args = None
                free.append(event)
            else:
                event._sim = None
            if trace_on:
                tracer.emit("sched.fire", self._now, site=site_of(callback))
            if profiler is not None:
                started = perf()
                callback(*args)
                profiler.record(callback, perf() - started)
            else:
                callback(*args)

    def stop(self) -> None:
        """Stop the run loop after the current event finishes."""
        self._stopped = True

    @property
    def pending_events(self) -> int:
        """Number of *live* events still queued (cancelled tombstones
        excluded — they are queue debris awaiting compaction)."""
        return self._live

    @property
    def queued_entries(self) -> int:
        """Raw queue length including cancelled tombstones (what the
        queue physically holds; profiler high-water tracks this)."""
        return len(self._heap)

    def checkpoint_events(self):
        """Every queued event — tombstones included — for state
        fingerprinting; iteration order is heap-internal, callers must
        sort by the (time, seq) key."""
        return (entry[2] for entry in self._heap)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<Simulator t={self._now:.6f} pending={self._live} "
            f"tombstones={self._tombstones}>"
        )
