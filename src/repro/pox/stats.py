"""Controller-side statistics collection.

The orchestration layer's "global network and resource view" needs more
than topology: it needs utilization.  :meth:`StatsCollector.sample`
asks every connected switch for its port counters and waits for the
answers; rates come from successive samples — the data a
utilization-aware mapper consumes.  Nothing is asked between samples.
"""

from typing import Dict, List, Optional, Tuple

from repro.openflow import PortStatsRequest
from repro.pox.events import PortStatsReceived
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
    """OF port-stats sampling on demand, with rate derivation.

    * :meth:`sample` — one round: every connected switch answers,
    * :meth:`port_rate` — (rx bits/s, tx bits/s) between the last two
      samples,
    * :meth:`annotate_view` — a sample, written onto the resource view.
    """

    def __init__(self, nexus: OpenFlowNexus):
        self.nexus = nexus
        self.sim = nexus.core.sim
        # (dpid, port_no) -> [previous, latest] PortSample
        self._port_samples: Dict[Tuple[int, int], List[PortSample]] = {}
        self._awaiting = set()  # dpids whose reply to the round is due
        self._m_poll_rounds = nexus.core.telemetry.metrics.counter(
            "pox.stats.poll_rounds", "OF statistics polling rounds")
        nexus.add_listener(PortStatsReceived, self._handle_port_stats)

    @property
    def poll_rounds(self) -> int:
        """Rounds sent (the registry's counter: one collector per
        emulation, as each emulation builds its own simulator)."""
        return int(self._m_poll_rounds.value)

    def sample(self) -> bool:
        """Send one round and wait until every connected switch has
        answered or ``Discovery.ROUND_TIMEOUT`` has passed; True when
        all answered."""
        from repro.pox.discovery import Discovery
        self._poll_round()
        answered = self.sim.wait(lambda: not self._awaiting,
                                 Discovery.ROUND_TIMEOUT)
        self._awaiting.clear()  # a late reply still lands as a sample
        return answered

    def _poll_round(self) -> None:
        self._m_poll_rounds.inc()
        for dpid, connection in list(self.nexus.connections.items()):
            connection.send(PortStatsRequest())
            self._awaiting.add(dpid)

    def _handle_port_stats(self, event) -> None:
        self._awaiting.discard(event.dpid)
        for stat in event.stats:
            key = (event.dpid, stat.port_no)
            sample = PortSample(self.sim.now, stat.rx_bytes,
                                stat.tx_bytes, stat.rx_packets,
                                stat.tx_packets)
            window = self._port_samples.setdefault(key, [])
            window.append(sample)
            if len(window) > 2:
                del window[0]

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

    def annotate_view(self, view, net) -> int:
        """Take a sample, then write the tx rates measured since the
        previous one onto the resource view's edges as ``measured_bps``
        (max of both directions).  Returns the number of annotated
        edges: none on the first call, which has no window yet."""
        from repro.netem.node import Switch
        self.sample()
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
