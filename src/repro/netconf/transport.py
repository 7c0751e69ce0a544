"""In-memory byte-stream transport (the SSH substitution).

A :class:`TransportPair` is a full-duplex pipe with per-direction
latency and optional byte-rate limiting, modelled on the simulator — so
NETCONF RPC round-trips cost simulated time the same way the paper's
management network does.  Delivery preserves ordering and segments the
stream arbitrarily (every write is one delivery), which exercises the
framers' reassembly logic.
"""

from typing import Callable, Optional

from repro.sim import Simulator


class InMemoryTransport:
    """One endpoint of the pipe."""

    def __init__(self, sim: Simulator, latency: float = 0.001,
                 byte_rate: Optional[float] = None):
        self.sim = sim
        self.latency = latency
        self.byte_rate = byte_rate
        self.peer: Optional["InMemoryTransport"] = None
        self.receiver: Optional[Callable[[bytes], None]] = None
        self.closed = False
        self.on_close: Optional[Callable[[], None]] = None
        self.tx_bytes = 0
        self.rx_bytes = 0
        self._busy_until = 0.0
        # fault-injection hooks (repro.chaos): a blackholed endpoint
        # silently eats writes; ``fault_latency`` adds one-way delay
        # (transport "slowness") on top of the configured latency
        self.blackhole = False
        self.fault_latency = 0.0
        self.blackholed_bytes = 0

    def set_receiver(self, callback: Callable[[bytes], None]) -> None:
        self.receiver = callback

    def send(self, data: bytes) -> None:
        if self.closed or self.peer is None:
            return
        if self.blackhole:
            self.blackholed_bytes += len(data)
            return
        self.tx_bytes += len(data)
        now = self.sim.now
        if self.byte_rate is not None:
            serialization = len(data) / self.byte_rate
            depart = max(now, self._busy_until) + serialization
            self._busy_until = depart
        else:
            depart = now
        self.sim.schedule(depart - now + self.latency
                          + self.fault_latency,
                          self.peer._deliver, data)

    def _deliver(self, data: bytes) -> None:
        if self.closed:
            return
        self.rx_bytes += len(data)
        if self.receiver is not None:
            self.receiver(data)

    def hang_up(self) -> None:
        """Close without telling the peer, and forget it and the
        receiver: what a stopped emulation's sessions leave to
        reference counting."""
        self.closed = True
        self.peer = self.receiver = self.on_close = None

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self.on_close is not None:
            self.on_close()
        if self.peer is not None and not self.peer.closed:
            self.sim.schedule(self.latency, self.peer.close)

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return "InMemoryTransport(%s, tx=%d, rx=%d)" % (state,
                                                        self.tx_bytes,
                                                        self.rx_bytes)


class TransportPair:
    """Create both ends of a pipe: ``.client`` and ``.server``."""

    def __init__(self, sim: Simulator, latency: float = 0.001,
                 byte_rate: Optional[float] = None):
        self.client = InMemoryTransport(sim, latency, byte_rate)
        self.server = InMemoryTransport(sim, latency, byte_rate)
        self.client.peer = self.server
        self.server.peer = self.client

    def __repr__(self) -> str:
        return "TransportPair(client=%r, server=%r)" % (self.client,
                                                        self.server)
