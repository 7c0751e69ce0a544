"""Discrete-event simulation core.

Every substrate in this reproduction (the network emulator, the OpenFlow
channel, the NETCONF transport, Click packet scheduling) runs on this
event loop instead of kernel time.  That keeps experiments deterministic
and lets a laptop-scale run emulate hundreds of nodes, which is exactly
the property the paper inherits from Mininet.

The API is intentionally small:

* :class:`Simulator` — heap-driven event loop with a virtual clock;
  blocking-style code waits with :meth:`Simulator.wait`.
* :class:`Event` — a scheduled callback, cancellable.
* :class:`Wakeup` — a re-armable timer for recurring consumers
  (event-driven pull drivers sleep/wake through one of these).
* :class:`KnownFrames` — ``Simulator.frames``, what the dataplane has
  already parsed of the frames in flight.
"""

from repro.sim.core import (Event, KnownFrames, SimulationError,
                            Simulator, Wakeup, classify_callback)

__all__ = [
    "Event",
    "KnownFrames",
    "SimulationError",
    "Simulator",
    "Wakeup",
    "classify_callback",
]
