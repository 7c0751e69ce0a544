"""Heap-driven discrete-event simulator: a heap of ``(time, seq,
event)``, cancellation with dead-entry compaction, re-armable wakeups
and kind-named dispatch."""

import functools
import heapq
from typing import Any, Callable, Dict, Optional

from repro.telemetry import Telemetry


class SimulationError(Exception):
    """Raised for illegal simulator operations (e.g. scheduling in
    the past)."""


class Event:
    """A callback scheduled at a simulated time.

    Events are created through :meth:`Simulator.schedule` and may be
    cancelled with :meth:`cancel` any time before they fire.  An event
    has exactly one heap entry, ``(time, seq, event)``, from the moment
    it is scheduled until the loop pops it, so ordering is decided by
    C-level tuple comparison — the event object itself never
    participates in heap sift comparisons — and an event never moves:
    to fire later or earlier, cancel it and schedule another
    (:class:`Wakeup` does exactly that).
    """

    __slots__ = ("sim", "time", "seq", "callback", "args",
                 "cancelled", "fired")

    def __init__(self, sim: "Simulator", time: float, seq: int,
                 callback: Callable[..., Any], args: tuple):
        self.sim = sim
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        """Mark the event so the loop skips (and counts) it when it
        pops.  Idempotent; a no-op once the event has fired."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        sim = self.sim
        sim._live -= 1
        sim._note_dead()

    def __repr__(self) -> str:
        if self.cancelled:
            state = "cancelled"
        elif self.fired:
            state = "fired"
        else:
            state = "pending"
        return "Event(t=%.9f, seq=%d, %s, %s)" % (
            self.time, self.seq, state, classify_callback(self.callback))


class Wakeup:
    """A re-armable timer for a consumer that sleeps and wakes
    thousands of times (a pull driver parked on an empty queue): one
    callback, at most one pending shot.

    * :meth:`arm` / :meth:`arm_at` — schedule the callback; an armed
      shot for another instant is cancelled and a fresh one scheduled,
      which therefore runs after the events already queued for its
      instant.  Dead shots are the heap compaction's to bound.
    * :meth:`arm_before` — only pull an armed deadline earlier, never
      push it later (the "wake me no later than" operation a notifier
      listener wants).
    * :meth:`disarm` — cancel the pending shot, keep the wakeup.

    The scheduled callback is the consumer's own bound method, so the
    profiler names the dispatch after the consumer, not this wrapper.
    """

    __slots__ = ("sim", "callback", "args", "event")

    def __init__(self, sim: "Simulator", callback: Callable[..., Any],
                 *args: Any):
        self.sim = sim
        self.callback = callback
        self.args = args
        self.event: Optional[Event] = None

    @property
    def armed(self) -> bool:
        event = self.event
        return (event is not None and not event.fired
                and not event.cancelled)

    def arm(self, delay: float) -> Event:
        """Fire ``delay`` seconds from now (move the shot if armed)."""
        return self.arm_at(self.sim.now + delay)

    def arm_at(self, when: float) -> Event:
        """Fire at absolute time ``when`` (move the shot if armed)."""
        sim = self.sim
        if when < sim.now:
            when = sim.now
        event = self.event
        if event is not None and not event.fired and not event.cancelled:
            if event.time == when:
                return event
            event.cancel()
        event = self.event = sim.schedule_at(when, self.callback,
                                             *self.args)
        return event

    def arm_before(self, when: float) -> Event:
        """Ensure the wakeup fires no later than ``when`` — arms if
        idle, pulls an armed shot earlier, never pushes it later."""
        event = self.event
        if (event is not None and not event.fired
                and not event.cancelled and event.time <= when):
            return event
        return self.arm_at(when)

    def disarm(self) -> None:
        event = self.event
        if event is not None:
            event.cancel()
            self.event = None

    def __repr__(self) -> str:
        state = "armed@%.9f" % self.event.time if self.armed else "idle"
        return "Wakeup(%s, %s)" % (classify_callback(self.callback), state)


def classify_callback(callback: Callable[..., Any]) -> str:
    """The *kind* of an event: ``module.Qualname`` of the callback's
    owner, with the package prefix dropped — a link delivery event
    classifies as ``netem.link.Link._deliver``, a Click timer as
    ``click.element.Element._on_timer``, and so on.  Partials are
    unwrapped to the function they carry."""
    while isinstance(callback, functools.partial):
        callback = callback.func
    func = getattr(callback, "__func__", callback)
    module = getattr(func, "__module__", "") or ""
    name = (getattr(func, "__qualname__", None)
            or getattr(func, "__name__", None)
            or type(callback).__name__)
    if module.startswith("repro."):
        module = module[len("repro."):]
    elif module in ("builtins", "__main__"):
        module = ""
    return "%s.%s" % (module, name) if module else name


class KnownFrames(dict):
    """What the dataplane already knows about the frames in flight:
    ``id(frame) -> [frame, flow_key fields or None, host view or None]``.

    A frame is plain ``bytes`` at every interface and the same object
    from hop to hop, so whoever parses it first leaves the result here
    and every later hop finds it with one probe by identity.  A record
    holds its frame, so the ``id`` cannot be reused while it lives: a
    probe that finds a record has found this frame.  A rewritten header
    is a new object - nothing to invalidate.  Only exact ``bytes`` are
    kept (a mutable buffer could change under its record), in two
    generations of :attr:`CAP`: the dict is the young one, :attr:`old`
    the one before, which :meth:`admit` alone reads.  A full young one
    turns old and the old one is dropped: a frame touched once per
    generation is never forgotten, and at most ``2 * CAP`` records are
    held.  Never iterated, so no ``id`` reaches an output.  Slot 1 is
    filled by ``OpenFlowSwitch.process_packet``, 2 by ``Host._receive``.
    """

    __slots__ = ("old", "parsed", "known", "resets")

    CAP = 64  # records per generation; DESIGN.md "What the cap bounds"

    def __init__(self):
        super().__init__()
        self.old = {}
        # plain ints, pulled by ESCAPE._collect_metrics: times a hop ran
        # its parser, times it found the slot filled, generation turns
        self.parsed = self.known = self.resets = 0

    def admit(self, frame) -> list:
        """``frame``'s record, promoted from :attr:`old` or fresh."""
        record = self.old.pop(id(frame), None) or [frame, None, None]
        if type(frame) is bytes:
            if len(self) >= self.CAP:
                self.old = self.copy()
                super().clear()
                self.resets += 1
            self[id(frame)] = record
        return record

    def clear(self) -> None:  # both generations
        super().clear()
        self.old.clear()


class Simulator:
    """Deterministic discrete-event loop with a floating-point clock.

    The heap holds one ``(time, seq, event)`` tuple per scheduled event,
    so sift comparisons stay in C and, between dispatches, ``scheduled
    == processed + cancelled_popped + heap_depth``.  A cancelled event
    stays queued as a *dead* entry: it is skipped (and counted) when it
    surfaces, and when the dead outnumber the live the heap is compacted
    in place, so neither a cancel-heavy workload nor a wakeup re-armed
    thousands of times can bloat the backlog.  A live-entry counter
    keeps :attr:`pending` O(1) — the metrics collector reads it into a
    gauge at every snapshot.
    """

    COMPACT_MIN = 64  # never bother compacting tiny heaps

    def __init__(self):
        self._heap: list = []
        self._seq = 0
        self.now = 0.0
        self._running = False
        self._processed = 0
        self._live = 0   # not-cancelled events still queued
        self._dead = 0   # cancelled entries awaiting discard
        self.compactions = 0
        # always-on counts: cancelled events the loop or a compaction
        # threw away; Click pull-driver activations (notifier edges,
        # hint and continuation shots)
        self.cancelled_popped = 0
        self.wakeups = 0
        # the emulation's one telemetry bundle, clocked by this
        # simulator: every component reads its instruments from the sim
        # it is built on.  While its profiler is enabled every event
        # callback runs inside a region named by the event's kind (see
        # classify_callback) — the roots of the profiler's region table
        self.telemetry = Telemetry(self)
        self._kinds: Dict[Any, str] = {}
        # likewise the emulation's one table of parsed frames
        self.frames = KnownFrames()

    # -- scheduling ------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> Event:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if not delay >= 0:  # NaN too: it passes every `< 0` test
            raise SimulationError("cannot schedule %r s from now" % delay)
        when = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        event = Event(self, when, seq, callback, args)
        heapq.heappush(self._heap, (when, seq, event))
        self._live += 1
        return event

    def schedule_at(self, time: float, callback: Callable[..., Any],
                    *args: Any) -> Event:
        """Run ``callback(*args)`` at absolute simulated time ``time``."""
        return self.schedule(time - self.now, callback, *args)

    def wakeup(self, callback: Callable[..., Any], *args: Any) -> Wakeup:
        """Create a re-armable :class:`Wakeup` around ``callback``."""
        return Wakeup(self, callback, *args)

    # -- heap hygiene ------------------------------------------------------

    def _note_dead(self) -> None:
        """One more queued event was cancelled; compact when the dead
        outnumber the live."""
        self._dead += 1
        if self._dead * 2 > len(self._heap) and \
                len(self._heap) >= self.COMPACT_MIN:
            self.compact()

    def compact(self) -> None:
        """Rebuild the heap in place without its cancelled entries,
        which count into ``cancelled_popped`` exactly as if the loop
        had popped them."""
        heap = self._heap
        depth = len(heap)
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._dead = 0
        self.compactions += 1
        self.cancelled_popped += depth - len(heap)

    def _surface(self) -> Optional[tuple]:
        """Discard cancelled heap heads; return the live head entry
        (still queued) or None."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if not entry[2].cancelled:
                return entry
            heapq.heappop(heap)
            self._dead -= 1
            self.cancelled_popped += 1
        return None

    # -- running ---------------------------------------------------------

    def _kind(self, callback: Callable[..., Any]) -> str:
        """:func:`classify_callback`, cached by code object (per-event
        closures and partials neither grow the cache nor are kept alive
        by it): the region a profiled dispatch of ``callback`` runs in."""
        while isinstance(callback, functools.partial):
            callback = callback.func
        func = getattr(callback, "__func__", callback)
        key = getattr(func, "__code__", func)
        try:
            kind = self._kinds.get(key)
            if kind is None:
                kind = self._kinds[key] = classify_callback(callback)
        except TypeError:  # unhashable callable: classify uncached
            kind = classify_callback(callback)
        return kind

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Drain the event heap.

        Runs until the heap empties, the clock would pass ``until``, or
        ``max_events`` callbacks have executed.  Returns the number of
        callbacks executed by this call.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        executed = 0
        heap = self._heap
        pop = heapq.heappop
        profiler = self.telemetry.profiler
        try:
            while heap:
                if max_events is not None and executed >= max_events:
                    break
                entry = heap[0]
                event = entry[2]
                if event.cancelled:
                    self._surface()  # discard the dead heads
                    continue
                if until is not None and entry[0] > until:
                    # nested pumping (e.g. a recovery action blocking
                    # on an RPC reply) may already have moved the clock
                    # past the horizon; never rewind it
                    self.now = max(self.now, until)
                    break
                pop(heap)
                event.fired = True
                self._live -= 1
                self.now = entry[0]
                if profiler.enabled:
                    with profiler.profile(self._kind(event.callback)):
                        event.callback(*event.args)
                else:
                    event.callback(*event.args)
                executed += 1
                self._processed += 1
            else:
                if until is not None and until > self.now:
                    self.now = until
        finally:
            self._running = False
        return executed

    def step(self) -> bool:
        """Execute exactly one pending event; return False when idle.

        Unlike :meth:`run`, ``step`` is safe to call from *inside* a
        running simulation.  Events pop in time order, so nested pumping
        never reorders or rewinds the clock — it only advances it
        early.  Blocking-style code calls it through :meth:`wait`.
        """
        entry = self._surface()
        if entry is None:
            return False
        heapq.heappop(self._heap)
        event = entry[2]
        event.fired = True
        self._live -= 1
        self.now = entry[0]
        profiler = self.telemetry.profiler
        if profiler.enabled:
            with profiler.profile(self._kind(event.callback)):
                event.callback(*event.args)
        else:
            event.callback(*event.args)
        self._processed += 1
        return True

    def wait(self, done: Callable[[], Any], timeout: float) -> bool:
        """Pump :meth:`step` until ``done()`` holds: the one way
        blocking-style code (an RPC reply, a handshake, a back-off)
        waits, from driver code or from inside a callback alike.
        Returns False, with ``done()`` still false, once no event is
        due within ``timeout`` seconds of the call; the clock stays at
        the last event executed, never past ``now + timeout``."""
        deadline = self.now + timeout
        while not done():
            entry = self._surface()
            if entry is None or entry[0] > deadline:
                return False
            self.step()
        return True

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or None when the heap is empty."""
        entry = self._surface()
        return entry[0] if entry is not None else None

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1) — a
        live counter, not a heap scan)."""
        return self._live

    @property
    def heap_depth(self) -> int:
        """Raw heap length, cancelled entries included — the backlog
        the dispatcher actually wades through."""
        return len(self._heap)

    @property
    def scheduled(self) -> int:
        """Total events ever scheduled on this simulator."""
        return self._seq

    @property
    def processed(self) -> int:
        """Total callbacks executed over the simulator's lifetime
        (current mid-run: gauges sample it from inside callbacks)."""
        return self._processed

    def __repr__(self) -> str:
        return "Simulator(now=%.9f, pending=%d)" % (self.now, self.pending)
