"""POX-analog OpenFlow controller platform.

The paper steers traffic between VNFs with "a dedicated
easy-to-configure controller application (implemented in the POX
OpenFlow controller platform)".  This package reproduces the POX idioms
that application assumes:

* :mod:`~repro.pox.events` — revent-style event classes + EventMixin,
* :class:`~repro.pox.core.Core` — the component registry
  (``core.register("steering", ...)``),
* :class:`~repro.pox.nexus.OpenFlowNexus` — accepts switch connections,
  runs the OF handshake, fans PacketIn/ConnectionUp/... events out to
  components,
* :class:`~repro.pox.l2_learning.L2LearningSwitch` — the stock learning
  switch (the behaviour non-steered traffic falls back to),
* :class:`~repro.pox.discovery.Discovery` — LLDP topology discovery
  feeding the orchestrator's global network view,
* :class:`~repro.pox.steering.TrafficSteering` — ESCAPE's module: install
  / remove chain paths as exact-match flow entries, one per hop.
"""

from repro.pox.core import Core
from repro.pox.discovery import Discovery, LinkEvent
from repro.pox.events import (BarrierIn, ConnectionDown, ConnectionUp,
                              Event, EventMixin, FlowRemovedEvent,
                              FlowStatsReceived, PacketInEvent,
                              PortStatsReceived, PortStatusEvent)
from repro.pox.l2_learning import L2LearningSwitch
from repro.pox.nexus import Connection, OpenFlowNexus
from repro.pox.stats import StatsCollector
from repro.pox.steering import (PathHop, SteeringChange, SteeringError,
                                TrafficSteering)

__all__ = [
    "BarrierIn",
    "Connection",
    "ConnectionDown",
    "ConnectionUp",
    "Core",
    "Discovery",
    "Event",
    "EventMixin",
    "FlowRemovedEvent",
    "FlowStatsReceived",
    "L2LearningSwitch",
    "LinkEvent",
    "OpenFlowNexus",
    "PacketInEvent",
    "PathHop",
    "PortStatsReceived",
    "PortStatusEvent",
    "StatsCollector",
    "SteeringChange",
    "SteeringError",
    "TrafficSteering",
]
