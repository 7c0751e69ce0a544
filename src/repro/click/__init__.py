"""Click modular router, in Python.

The paper implements VNFs as Click configurations, manages them through
NETCONF, and monitors them with Clicky (which reads Click *handlers*).
This package reproduces the Click programming model:

* :class:`Element` — processing stage with push/pull ports and
  read/write handlers,
* the Click configuration language parser
  (``FromDevice(in0) -> cnt :: Counter -> ToDevice(out0);``),
* :class:`Router` — builds the element graph from a config, validates
  port personalities, drives pull paths as simulator tasks, and exposes
  the ``element.handler`` namespace Clicky polls,
* the element library the VNF catalog composes (splicing to emulated
  network devices, counters, queues, a rate limiter and a delay stage,
  classifiers, NAT, firewall, DPI, fan-out, sinks).

Example::

    from repro.sim import Simulator
    from repro.click import Router
    from repro.click.elements import Device

    sim = Simulator()
    router = Router.from_config(
        "FromDevice(in0) -> cnt :: Counter -> Discard;", sim=sim)
    device = Device("in0")
    router.device_map = {"in0": device}
    router.start()
    for index in range(5):
        sim.schedule(0.001 * index, device.deliver, b"abc")
    sim.run(until=1.0)
    assert router.read_handler("cnt.count") == "5"
"""

from repro.click.element import (AGNOSTIC, PULL, PUSH, Element,
                                 HandlerError, Port)
from repro.click.errors import ClickError, ConfigError
from repro.click.packet import ClickPacket
from repro.click.parser import (ConnectionSpec, ElementSpec,
                                RouterConfig, parse_config)
from repro.click.registry import (element_class, lookup_element,
                                  registered_elements)
from repro.click.router import Router

# Importing the library registers every stock element class.
from repro.click import elements  # noqa: F401  (import for side effect)

__all__ = [
    "AGNOSTIC",
    "ClickError",
    "ClickPacket",
    "ConfigError",
    "ConnectionSpec",
    "Element",
    "ElementSpec",
    "HandlerError",
    "PULL",
    "PUSH",
    "Port",
    "Router",
    "RouterConfig",
    "element_class",
    "lookup_element",
    "parse_config",
    "registered_elements",
]
