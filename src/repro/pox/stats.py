"""Controller-side statistics collection.

The orchestration layer's "global network and resource view" needs more
than topology: it needs utilization.  This component polls every
connected switch for port and flow statistics on a fixed period and
derives rates from successive samples — the data a utilization-aware
mapper or a dashboard consumes.
"""

from typing import Dict, List, Optional, Tuple

from repro.openflow import FlowStatsRequest, PortStatsRequest
from repro.pox.events import (ConnectionUp, FlowStatsReceived,
                              PortStatsReceived)
from repro.pox.nexus import OpenFlowNexus


class PortSample:
    __slots__ = ("time", "rx_bytes", "tx_bytes", "rx_packets",
                 "tx_packets")

    def __init__(self, time, rx_bytes, tx_bytes, rx_packets, tx_packets):
        self.time = time
        self.rx_bytes = rx_bytes
        self.tx_bytes = tx_bytes
        self.rx_packets = rx_packets
        self.tx_packets = tx_packets


class StatsCollector:
    """Periodic OF stats polling with rate derivation.

    Queries:

    * :meth:`port_rate` — (rx bits/s, tx bits/s) over the last interval,
    * :meth:`port_counters` — latest absolute counters,
    * :meth:`flow_count` — table size,
    * :meth:`busiest_ports` — top-N ports by tx rate.
    """

    def __init__(self, nexus: OpenFlowNexus, interval: float = 1.0):
        self.nexus = nexus
        self.sim = nexus.core.sim
        self.interval = interval
        # (dpid, port_no) -> [previous, latest] PortSample
        self._port_samples: Dict[Tuple[int, int], List[PortSample]] = {}
        self._flow_stats: Dict[int, list] = {}
        # poll_rounds lives in the metrics registry now; the property
        # below keeps the old attribute working (per-instance, via a
        # baseline offset, since the registry counter may be shared)
        self._m_poll_rounds = nexus.core.telemetry.metrics.counter(
            "pox.stats.poll_rounds", "OF statistics polling rounds")
        self._poll_rounds_base = self._m_poll_rounds.value
        self._started = False
        self._task = None
        nexus.add_listener(ConnectionUp, self._handle_connection_up)
        nexus.add_listener(PortStatsReceived, self._handle_port_stats)
        nexus.add_listener(FlowStatsReceived, self._handle_flow_stats)

    def _handle_connection_up(self, _event) -> None:
        if not self._started:
            self._started = True
            self._task = self.sim.schedule(0.0, self._poll_round)

    def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None
        self._started = False

    @property
    def poll_rounds(self) -> int:
        """Polling rounds run by *this* collector (compat attribute)."""
        return int(self._m_poll_rounds.value - self._poll_rounds_base)

    def _poll_round(self) -> None:
        self._m_poll_rounds.inc()
        for connection in list(self.nexus.connections.values()):
            connection.send(PortStatsRequest())
            connection.send(FlowStatsRequest())
        self._task = self.sim.schedule(self.interval, self._poll_round)

    def _handle_port_stats(self, event) -> None:
        for stat in event.stats:
            key = (event.dpid, stat.port_no)
            sample = PortSample(self.sim.now, stat.rx_bytes,
                                stat.tx_bytes, stat.rx_packets,
                                stat.tx_packets)
            window = self._port_samples.setdefault(key, [])
            window.append(sample)
            if len(window) > 2:
                del window[0]

    def _handle_flow_stats(self, event) -> None:
        self._flow_stats[event.dpid] = event.stats

    # -- queries -----------------------------------------------------------

    def port_rate(self, dpid: int,
                  port_no: int) -> Optional[Tuple[float, float]]:
        """(rx bits/s, tx bits/s) from the last two samples."""
        window = self._port_samples.get((dpid, port_no))
        if not window or len(window) < 2:
            return None
        previous, latest = window
        elapsed = latest.time - previous.time
        if elapsed <= 0:
            return None
        return ((latest.rx_bytes - previous.rx_bytes) * 8 / elapsed,
                (latest.tx_bytes - previous.tx_bytes) * 8 / elapsed)

    def port_counters(self, dpid: int,
                      port_no: int) -> Optional[PortSample]:
        window = self._port_samples.get((dpid, port_no))
        return window[-1] if window else None

    def flow_count(self, dpid: int) -> int:
        return len(self._flow_stats.get(dpid, []))

    def busiest_ports(self, top: int = 5) -> List[tuple]:
        """[(dpid, port, tx_bps)] sorted by tx rate, descending."""
        rates = []
        for (dpid, port_no) in self._port_samples:
            rate = self.port_rate(dpid, port_no)
            if rate is not None:
                rates.append((dpid, port_no, rate[1]))
        rates.sort(key=lambda item: -item[2])
        return rates[:top]

    def annotate_view(self, view, net) -> int:
        """Write measured tx rates onto the resource view's edges as
        ``measured_bps`` (max of both directions).  Returns the number
        of annotated edges."""
        from repro.netem.node import Switch
        annotated = 0
        for link in net.links:
            rates = []
            for intf in (link.intf1, link.intf2):
                node = intf.node
                if not isinstance(node, Switch):
                    continue
                rate = self.port_rate(node.dpid, node.port_number(intf))
                if rate is not None:
                    rates.append(rate[1])
            name1 = link.intf1.node.name
            name2 = link.intf2.node.name
            if rates and view.graph.has_edge(name1, name2):
                view.graph.edges[name1, name2]["measured_bps"] = \
                    max(rates)
                annotated += 1
        return annotated

    def __repr__(self) -> str:
        return "StatsCollector(%d rounds, %d ports tracked)" % (
            self.poll_rounds, len(self._port_samples))
