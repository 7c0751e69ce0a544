"""Element base class: ports, processing personalities, handlers.

Click's processing model has two packet-transfer disciplines:

* **push** — the upstream element calls ``downstream.push(port, pkt)``,
* **pull** — the downstream element calls ``upstream.pull(port)``.

Every port has a *personality*: PUSH, PULL, or AGNOSTIC.  Agnostic
elements (e.g. ``Counter``) work either way; the router resolves their
effective direction from their neighbours at configuration time and
rejects graphs that connect a push output to a pull input without a
queue in between — the same check real Click performs.
"""

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.click.errors import ClickError, ConfigError
from repro.click.packet import ClickPacket

PUSH = "push"
PULL = "pull"
AGNOSTIC = "agnostic"


class HandlerError(ClickError):
    """A handler does not exist or rejected its input."""


class Notifier:
    """Edge-triggered activity signal on a PULL path (Click's
    empty-note).

    A pull *driver* (``Unqueue``, pull-mode ``ToDevice``…) parks on
    its upstream's notifier instead of polling on a timer: the queue
    that owns the notifier calls :meth:`wake` on its 0→1 push
    transition and :meth:`sleep` when a pull drains it.  Listeners are
    plain callables invoked synchronously on the inactive→active edge
    only — re-waking an already active notifier costs one attribute
    check, so the push hot path stays flat once a consumer is behind.

    Pass-through pull elements (``Shaper``, pull-path ``Counter``…)
    don't own a notifier: they *forward* their upstream's (see
    ``Element.output_notifier``), so a driver always listens to the
    queue at the head of its pull chain.
    """

    __slots__ = ("active", "_listeners")

    def __init__(self, active: bool = False):
        self.active = active
        self._listeners: List[Callable[[], None]] = []

    def listen(self, callback: Callable[[], None]) -> None:
        """Register ``callback`` for inactive→active edges."""
        if callback not in self._listeners:
            self._listeners.append(callback)

    def unlisten(self, callback: Callable[[], None]) -> None:
        if callback in self._listeners:
            self._listeners.remove(callback)

    def wake(self) -> None:
        """Mark active; fire listeners on the edge only."""
        if self.active:
            return
        self.active = True
        for callback in self._listeners:
            callback()

    def sleep(self) -> None:
        """Mark inactive (listeners are not told; they find out by
        pulling None or by checking :attr:`active`)."""
        self.active = False

    def __repr__(self) -> str:
        return "Notifier(%s, %d listener(s))" % (
            "active" if self.active else "idle", len(self._listeners))


class PullActivation:
    """Sleep/wake scheduling for one pull consumer (``Unqueue``,
    pull-mode ``ToDevice``/``Discard``).

    Owns the consumer's re-armable :class:`repro.sim.Wakeup` and its
    subscription to the upstream notifier.  The consumer's drain
    callback ends by calling :meth:`reschedule`, which picks the next
    activation:

    * upstream notifier inactive → **park** (zero events until the
      queue's 0→1 push transition wakes us),
    * burst exhausted with more queued → **continuation shot** at the
      current instant (packet trains; FIFO seq keeps it deterministic),
    * blocked by a rate limiter → one **exact shot** at its pull hint.

    An upstream with no notifier (``Idle``) never has a packet, so its
    consumer stays parked.  Wakeups are counted on the simulator
    (``sim.wakeups``, always on).
    """

    __slots__ = ("element", "fire", "port", "notifier", "wakeup", "sim")

    def __init__(self, element: "Element", fire: Callable[[], None],
                 port: int = 0):
        self.element = element
        self.fire = fire
        self.port = port
        self.notifier: Optional[Notifier] = None
        self.wakeup = None
        self.sim = None

    # -- lifecycle (initialize/cleanup of the owning element) ---------------

    def start(self) -> None:
        sim = self.element.router.sim
        self.sim = sim
        self.wakeup = sim.wakeup(self.fire)
        self.notifier = self.element.input_notifier(self.port)
        if self.notifier is None:
            return
        self.notifier.listen(self._on_wake)
        if self.notifier.active:
            self._on_wake()
        # else parked: the first push transition wakes us

    def stop(self) -> None:
        if self.notifier is not None:
            self.notifier.unlisten(self._on_wake)
            self.notifier = None
        if self.wakeup is not None:
            self.wakeup.disarm()
            self.wakeup = None

    # -- activation primitives ----------------------------------------------

    def _on_wake(self) -> None:
        """Upstream went non-empty: schedule a drain (never pull
        synchronously from inside the producer's push)."""
        self.sim.wakeups += 1
        self.wakeup.arm_before(self.sim.now)

    def wake_at(self, when: float) -> None:
        """One exact event-driven shot (hint or continuation train),
        never earlier than now."""
        self.sim.wakeups += 1
        self.wakeup.arm_at(when)

    def park(self) -> None:
        self.wakeup.disarm()

    # -- the standard post-drain decision ------------------------------------

    def reschedule(self, exhausted_burst: bool) -> None:
        notifier = self.notifier
        if notifier is None or not notifier.active:
            self.park()
            return
        if exhausted_burst:
            # more queued than one burst: continuation shot, same
            # timestamp (a packet train in slices)
            self.wake_at(self.sim.now)
            return
        # upstream active but the pull came back empty: a rate stage is
        # holding packets back — fire exactly when it says.  Every
        # notifier owner sleeps once drained and every rate stage gives
        # a hint, so an active upstream always has one.
        hint = self.element.input_hint(self.port)
        if hint is not None and hint > self.sim.now:
            self.wake_at(hint)
        else:
            self.park()

    def __repr__(self) -> str:
        return "PullActivation(%s[%d], %s)" % (
            self.element.name, self.port,
            self.notifier if self.notifier is not None else "no notifier")


class Port:
    """One endpoint of an element; wired to peer port(s) by the router.

    Click allows fan-in on push inputs (several upstream outputs feeding
    one input), so an input port keeps a *list* of peers; an output port
    has at most one.  ``peer`` exposes the single/first peer for the
    pull path.
    """

    __slots__ = ("element", "index", "is_input", "personality", "peers",
                 "resolved")

    def __init__(self, element: "Element", index: int, is_input: bool,
                 personality: str):
        self.element = element
        self.index = index
        self.is_input = is_input
        self.personality = personality
        self.resolved: Optional[str] = None  # PUSH or PULL after analysis
        self.peers: List["Port"] = []

    @property
    def peer(self) -> Optional["Port"]:
        return self.peers[0] if self.peers else None

    @peer.setter
    def peer(self, port: Optional["Port"]) -> None:
        self.peers = [port] if port is not None else []

    @property
    def connected(self) -> bool:
        return bool(self.peers)

    def __repr__(self) -> str:
        direction = "in" if self.is_input else "out"
        return "Port(%s[%d] %s/%s)" % (self.element.name, self.index,
                                       direction,
                                       self.resolved or self.personality)


class Element:
    """Base class for all Click elements.

    Subclasses declare their port layout via class attributes:

    * ``INPUT_COUNT`` / ``OUTPUT_COUNT`` — fixed counts, or ``None`` for
      "any number" (resolved from the configuration's connections),
    * ``INPUT_PERSONALITY`` / ``OUTPUT_PERSONALITY`` — PUSH / PULL /
      AGNOSTIC applied to every port of that side,

    and implement :meth:`configure` (parse the config-string arguments),
    :meth:`push` and/or :meth:`pull`, and optionally :meth:`initialize`
    (called once the graph is wired, with the router available).
    """

    INPUT_COUNT: Optional[int] = 1
    OUTPUT_COUNT: Optional[int] = 1
    INPUT_PERSONALITY = AGNOSTIC
    OUTPUT_PERSONALITY = AGNOSTIC

    def __init__(self, name: str, config: str = ""):
        self.name = name
        self.config = config
        self.router = None  # set by Router (see bind)
        self.inputs: List[Port] = []
        self.outputs: List[Port] = []
        self._read_handlers: Dict[str, Callable[[], str]] = {}
        self._write_handlers: Dict[str, Callable[[str], None]] = {}
        # per-element transfer counters (hot path: plain ints, pulled
        # into the telemetry registry by a snapshot-time collector)
        self.pushed_count = 0
        self.pulled_count = 0
        # profiler/flowtrace handles, bound once by the owning router;
        # each disabled path costs one attribute check per transfer
        self._profiler = None
        self._flowtrace = None
        self.add_read_handler("config", lambda: self.config)
        self.add_read_handler("class", lambda: type(self).__name__)

    # -- lifecycle ---------------------------------------------------------

    def bind(self, router) -> None:
        """Adopt the owning router and its simulator's instruments."""
        self.router = router
        self._profiler = router.sim.telemetry.profiler
        self._flowtrace = router.sim.telemetry.flowtrace

    def configure(self, args: List[str], keywords: Dict[str, str]) -> None:
        """Parse configuration arguments.  Default: reject any."""
        if args or keywords:
            raise ConfigError("%s: unexpected configuration %r %r"
                              % (self.name, args, keywords))

    def initialize(self) -> None:
        """Called once ports are wired and ``self.router`` is set."""

    def cleanup(self) -> None:
        """Called when the router stops."""

    # -- port construction (router-internal) -------------------------------

    def _build_ports(self, n_inputs: int, n_outputs: int) -> None:
        self.inputs = [Port(self, i, True, self.INPUT_PERSONALITY)
                       for i in range(n_inputs)]
        self.outputs = [Port(self, i, False, self.OUTPUT_PERSONALITY)
                        for i in range(n_outputs)]

    @property
    def ninputs(self) -> int:
        return len(self.inputs)

    @property
    def noutputs(self) -> int:
        return len(self.outputs)

    # -- packet transfer ----------------------------------------------------

    def push(self, port: int, packet: ClickPacket) -> None:
        """Receive a pushed packet on input ``port``."""
        raise ClickError("%s (%s) does not support push"
                         % (self.name, type(self).__name__))

    def pull(self, port: int) -> Optional[ClickPacket]:
        """Produce a packet for output ``port`` (None when empty)."""
        raise ClickError("%s (%s) does not support pull"
                         % (self.name, type(self).__name__))

    def output_push(self, port: int, packet: ClickPacket) -> None:
        """Push ``packet`` out of output ``port`` to the wired peer."""
        peers = self.outputs[port].peers
        if not peers:
            return  # unconnected output silently drops, like Idle
        peer = peers[0]
        self.pushed_count += 1
        profiler = self._profiler
        if profiler.enabled:
            with profiler.profile("click.element.push"):
                peer.element.push(peer.index, packet)
        else:
            peer.element.push(peer.index, packet)

    def input_pull(self, port: int) -> Optional[ClickPacket]:
        """Pull a packet from whatever feeds input ``port``."""
        peers = self.inputs[port].peers
        if not peers:
            return None
        peer = peers[0]
        profiler = self._profiler
        if profiler.enabled:
            with profiler.profile("click.element.pull"):
                packet = peer.element.pull(peer.index)
        else:
            packet = peer.element.pull(peer.index)
        if packet is not None:
            self.pulled_count += 1
        return packet

    # -- pull-path activation (notifiers and sleep hints) --------------------

    def output_notifier(self, port: int) -> Optional[Notifier]:
        """The :class:`Notifier` signalling that output ``port`` may
        have packets to pull.

        ``None`` means "never anything to pull" (``Idle``).  Queues own
        and return their notifier; one-input pass-through elements
        (``Counter``, ``Shaper``…) forward their upstream's by default,
        so a driver always ends up listening to the queue at the head
        of its pull chain.
        """
        if len(self.inputs) == 1:
            return self.input_notifier(0)
        return None

    def input_notifier(self, port: int) -> Optional[Notifier]:
        """Forwarding helper: the notifier of whatever feeds input
        ``port``."""
        inp = self.inputs[port]
        peer = inp.peer
        if peer is None:
            return None
        return peer.element.output_notifier(peer.index)

    def pull_hint(self, port: int) -> Optional[float]:
        """Earliest simulated time a pull on output ``port`` can
        succeed, or ``None`` for "whenever the notifier wakes".

        Rate limiters know this exactly (``Shaper._next_allowed``,
        ``DelayQueue`` head age-out); a driver blocked on an *active*
        upstream schedules one shot at the hint instead of polling
        every tick.  One-input pass-throughs forward upstream's hint by
        default; constrained elements combine it with their own.
        """
        if len(self.inputs) == 1:
            return self.input_hint(0)
        return None

    def input_hint(self, port: int) -> Optional[float]:
        """Forwarding helper: the pull hint of whatever feeds input
        ``port``."""
        inp = self.inputs[port]
        peer = inp.peer
        if peer is None:
            return None
        return peer.element.pull_hint(peer.index)

    # -- handlers ------------------------------------------------------------

    def add_read_handler(self, name: str, func: Callable[[], Any]) -> None:
        self._read_handlers[name] = func

    def add_write_handler(self, name: str,
                          func: Callable[[str], None]) -> None:
        self._write_handlers[name] = func

    def read_handler(self, name: str) -> str:
        func = self._read_handlers.get(name)
        if func is None:
            raise HandlerError("%s has no read handler %r" % (self.name, name))
        return str(func())

    def write_handler(self, name: str, value: str) -> None:
        func = self._write_handlers.get(name)
        if func is None:
            raise HandlerError("%s has no write handler %r"
                               % (self.name, name))
        func(value)

    def handler_names(self) -> Tuple[List[str], List[str]]:
        """(read handler names, write handler names), sorted."""
        return (sorted(self._read_handlers), sorted(self._write_handlers))

    # -- config-string helpers -----------------------------------------------

    @staticmethod
    def parse_keywords(args: List[str],
                       keys: List[str]) -> Tuple[List[str], Dict[str, str]]:
        """Split Click-style positional args from ``KEY value`` pairs.

        Click configurations mix positionals with all-caps keywords:
        ``Unqueue(BURST 8)``.  ``keys`` lists the recognised keyword
        names.
        """
        positionals: List[str] = []
        keywords: Dict[str, str] = {}
        for arg in args:
            head, _, tail = arg.partition(" ")
            if head in keys:
                keywords[head] = tail.strip()
            else:
                positionals.append(arg)
        return positionals, keywords

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, self.name)
