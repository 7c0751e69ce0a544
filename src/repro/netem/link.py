"""Shaped point-to-point links (Mininet's TCLink equivalent).

Each direction models: serialization at ``bandwidth`` bits/s, a
transmit queue bounded by ``max_queue`` packets, fixed propagation
``delay``, and Bernoulli ``loss``.  The RNG is seeded from a CRC of the
link name (not ``hash()``, which is salted per process) so packet-loss
experiments replay identically in any process; it is built at the first
draw, so a link with neither loss nor jitter never allocates one.
"""

import functools
import random
import zlib
from typing import Optional

from repro.netem.interface import Interface
from repro.sim import Simulator


def _check_shaping(loss: Optional[float], delay: Optional[float],
                   jitter: Optional[float]) -> None:
    """Refuse a shaping value out of range (None = not given).  Each
    test is written so that NaN fails it too."""
    if loss is not None and not 0.0 <= loss <= 1.0:
        raise ValueError("loss must be in [0,1], got %r" % loss)
    if delay is not None and not delay >= 0:
        raise ValueError("delay must be non-negative, got %r" % delay)
    if jitter is not None and not jitter >= 0:
        raise ValueError("jitter must be non-negative, got %r" % jitter)


class _Direction:
    """Shaping state for one direction of the link, towards ``target``."""

    __slots__ = ("target", "busy_until", "queued_packets")

    def __init__(self, target: Interface):
        self.target = target
        self.busy_until = 0.0
        self.queued_packets = 0


class Link:
    """Bidirectional link between two interfaces.

    ``bandwidth`` is in bits/second (None = infinite), ``delay`` in
    seconds, ``loss`` a probability in [0, 1], ``max_queue`` in packets
    (applies only when bandwidth is finite, like a real tx queue).
    """

    def __init__(self, sim: Simulator, intf1: Interface, intf2: Interface,
                 bandwidth: Optional[float] = None, delay: float = 0.0,
                 loss: float = 0.0, max_queue: int = 1000,
                 jitter: float = 0.0):
        _check_shaping(loss, delay, jitter)
        if bandwidth is not None and not bandwidth > 0:
            raise ValueError("bandwidth must be positive, got %r" % bandwidth)
        self.sim = sim
        self.intf1 = intf1
        self.intf2 = intf2
        self.bandwidth = bandwidth
        self.delay = delay
        # uniform extra delay in [0, jitter] per frame; like netem's
        # jitter this can reorder back-to-back frames
        self.jitter = jitter
        self.loss = loss
        self.max_queue = max_queue
        self.name = "%s<->%s" % (intf1.name, intf2.name)
        self.up = True
        # Flight-recorder taps (see repro.netem.recorder).  Kept as a
        # plain list so the dataplane hot path pays one falsy check
        # when no recorder is attached.
        self.taps = []
        self._dir1 = _Direction(intf2)  # intf1 -> intf2
        self._dir2 = _Direction(intf1)  # intf2 -> intf1
        # profiler/flowtrace handles bound once, same contract as click
        # elements: each disabled path costs one attribute check per
        # frame
        self._profiler = sim.telemetry.profiler
        self._flowtrace = sim.telemetry.flowtrace
        # per-cause drop counters: chaos scenarios assert on *why*
        # frames died, not just how many (frames offered and delivered
        # are counted on the interfaces: tx on the sender's, rx on the
        # target's)
        self.dropped_down = 0
        self.dropped_loss = 0
        self.dropped_queue = 0
        intf1.attach(self)
        intf2.attach(self)

    @functools.cached_property
    def _rng(self) -> random.Random:
        return random.Random(zlib.crc32(self.name.encode()))

    @property
    def dropped(self) -> int:
        """Total drops across all causes (down + loss + queue-full)."""
        return self.dropped_down + self.dropped_loss + self.dropped_queue

    @property
    def delivered(self) -> int:
        return self.intf1.rx_packets + self.intf2.rx_packets

    @property
    def delivered_bytes(self) -> int:
        return self.intf1.rx_bytes + self.intf2.rx_bytes

    def other_end(self, intf: Interface) -> Interface:
        if intf is self.intf1:
            return self.intf2
        if intf is self.intf2:
            return self.intf1
        raise ValueError("interface %r not on link %r" % (intf.name,
                                                          self.name))

    def set_up(self, up: bool) -> None:
        if up == self.up:
            return
        self.up = up
        events = self.sim.telemetry.events
        if up:
            events.info("netem.link", "link.up", self.name,
                        link=self.name)
        else:
            events.warn("netem.link", "link.down", self.name,
                        link=self.name)
        # Propagate carrier state into attached OpenFlow datapaths at
        # the same simulated instant: fast-failover groups watching the
        # port flip locally, and the switch raises a deterministic
        # PortStatus toward the controller (no discovery lag).
        for intf in (self.intf1, self.intf2):
            node = getattr(intf, "node", None)
            datapath = getattr(node, "datapath", None)
            if datapath is None:
                continue
            try:
                port_no = node.port_number(intf)
            except KeyError:
                continue
            datapath.set_port_up(port_no, up)

    def flap(self, down_for: float) -> None:
        """Take the link down now and bring it back ``down_for``
        simulated seconds later."""
        if not down_for > 0:  # NaN too
            raise ValueError("down_for must be positive, got %r"
                             % down_for)
        self.set_up(False)
        self.sim.schedule(down_for, self.set_up, True)

    def set_degradation(self, loss: Optional[float] = None,
                        delay: Optional[float] = None,
                        jitter: Optional[float] = None) -> None:
        """Change the link's shaping in place (netem-style fault
        injection); emits a ``link.degraded`` event with the new
        values so recovery/monitoring can correlate."""
        _check_shaping(loss, delay, jitter)
        if loss is not None:
            self.loss = loss
        if delay is not None:
            self.delay = delay
        if jitter is not None:
            self.jitter = jitter
        self.sim.telemetry.events.warn(
            "netem.link", "link.degraded", self.name, link=self.name,
            loss=self.loss, delay=self.delay, jitter=self.jitter)

    def _notify_taps(self, direction: str, intf: Interface,
                     data: bytes) -> None:
        for tap in self.taps:
            tap.observe(self.sim.now, self, direction, intf, data)

    def transmit(self, from_intf: Interface, data: bytes) -> None:
        """Queue a frame for delivery to the other end."""
        profiler = self._profiler
        region = (profiler.profile("netem.link.transmit")
                  if profiler.enabled else None)
        if region is not None:
            region.__enter__()
        try:
            from_intf.tx_packets += 1
            from_intf.tx_bytes += len(data)
            if self.taps:
                self._notify_taps("tx", from_intf, data)
            if not self.up:
                self.dropped_down += 1
                return
            if self.loss > 0 and self._rng.random() < self.loss:
                self.dropped_loss += 1
                return
            direction = self._dir1 if from_intf is self.intf1 else self._dir2
            sim = self.sim
            now = sim.now
            if self.bandwidth is None:
                depart = now
            else:
                if direction.queued_packets >= self.max_queue:
                    self.dropped_queue += 1
                    return
                serialization = len(data) * 8.0 / self.bandwidth
                depart = max(now, direction.busy_until) + serialization
                direction.busy_until = depart
                direction.queued_packets += 1
            extra = (self._rng.uniform(0.0, self.jitter) if self.jitter
                     else 0.0)
            flowtrace = self._flowtrace
            if flowtrace.enabled:
                flowtrace.record("link.tx", self.name, now, data)
            sim.schedule(depart - now + self.delay + extra,
                         self._deliver, direction, data)
        finally:
            if region is not None:
                region.__exit__(None, None, None)

    def _deliver(self, direction: _Direction, data: bytes) -> None:
        if self.bandwidth is not None:
            direction.queued_packets -= 1
        if not self.up:
            self.dropped_down += 1
            return
        target = direction.target
        target.rx_packets += 1
        target.rx_bytes += len(data)
        if self.taps:
            self._notify_taps("rx", target, data)
        flowtrace = self._flowtrace
        if flowtrace.enabled:
            flowtrace.record("link.rx", self.name, self.sim.now, data)
        target.receive(data)

    def __repr__(self) -> str:
        bw = ("%.0fbit/s" % self.bandwidth) if self.bandwidth else "inf"
        return "Link(%s, bw=%s, delay=%.6fs, loss=%.3f)" % (
            self.name, bw, self.delay, self.loss)
