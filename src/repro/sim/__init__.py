"""Discrete-event simulation core.

Every substrate in this reproduction (the network emulator, the OpenFlow
channel, the NETCONF transport, Click packet scheduling) runs on this
event loop instead of kernel time.  That keeps experiments deterministic
and lets a laptop-scale run emulate hundreds of nodes, which is exactly
the property the paper inherits from Mininet.

The API is intentionally small:

* :class:`Simulator` — heap-driven event loop with a virtual clock.
* :class:`Event` — a scheduled callback, cancellable.
* :class:`Process` — a generator-based coroutine; ``yield <seconds>``
  suspends it for simulated time, ``yield wait_event`` suspends it until
  the event is triggered.
* :class:`Signal` — a one-shot wakeup primitive processes can wait on.
* :class:`Wakeup` — a re-armable timer for recurring consumers
  (event-driven pull drivers sleep/wake through one of these).
* :class:`KnownFrames` — ``Simulator.frames``, what the dataplane has
  already parsed of the frames in flight.
"""

from repro.sim.core import (Event, KnownFrames, Process, Signal,
                            SimulationError, Simulator, Wakeup,
                            classify_callback)

__all__ = [
    "Event",
    "KnownFrames",
    "Process",
    "Signal",
    "SimulationError",
    "Simulator",
    "Wakeup",
    "classify_callback",
]
