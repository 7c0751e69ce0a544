"""Traffic measurement objects: ping results, UDP flow reports, and the
classic-pcap writer behind the flight recorder's tcpdump-style taps
(demo step 4's "standard tools")."""

import struct
from typing import Iterable, List, Optional


def write_pcap(path: str, entries: Iterable, snaplen: int = 65535) -> int:
    """Write timestamped frames as a classic pcap file (linktype
    Ethernet), loadable in Wireshark/tcpdump.

    ``entries`` is any iterable of records with ``time`` (seconds) and
    ``data`` (the frame's bytes as they crossed the wire) attributes,
    such as a flight-recorder tap's records.  Timestamps
    are rounded to the nearest microsecond.  Returns the record count.
    """
    written = 0
    with open(path, "wb") as handle:
        handle.write(struct.pack("!IHHiIII", 0xA1B2C3D4, 2, 4,
                                 0, 0, snaplen, 1))
        for entry in entries:
            wire = entry.data
            ts_sec, ts_usec = divmod(round(entry.time * 1e6), 1000000)
            captured = wire[:snaplen]
            handle.write(struct.pack("!IIII", ts_sec, ts_usec,
                                     len(captured), len(wire)))
            handle.write(captured)
            written += 1
    return written


class PingResult:
    """Fills in while the simulation runs; read it afterwards."""

    def __init__(self, src: str, dst: str, count: int):
        self.src = src
        self.dst = dst
        self.count = count
        self.sent = 0
        self.received = 0
        self.rtts: List[float] = []

    def record_sent(self) -> None:
        self.sent += 1

    def record_reply(self, rtt: float) -> None:
        self.received += 1
        self.rtts.append(rtt)

    @property
    def loss_percent(self) -> float:
        if self.sent == 0:
            return 0.0
        return 100.0 * (self.sent - self.received) / self.sent

    @property
    def min_rtt(self) -> Optional[float]:
        return min(self.rtts) if self.rtts else None

    @property
    def avg_rtt(self) -> Optional[float]:
        return sum(self.rtts) / len(self.rtts) if self.rtts else None

    @property
    def max_rtt(self) -> Optional[float]:
        return max(self.rtts) if self.rtts else None

    def summary(self) -> str:
        lines = ["--- %s -> %s ping statistics ---" % (self.src, self.dst),
                 "%d packets transmitted, %d received, %.0f%% packet loss"
                 % (self.sent, self.received, self.loss_percent)]
        if self.rtts:
            lines.append("rtt min/avg/max = %.3f/%.3f/%.3f ms"
                         % (self.min_rtt * 1e3, self.avg_rtt * 1e3,
                            self.max_rtt * 1e3))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return "PingResult(%s->%s, %d/%d)" % (self.src, self.dst,
                                              self.received, self.sent)


class TrafficReport:
    """Sender-side record of a constant-rate UDP flow."""

    def __init__(self, src: str, dst: str, dport: int, rate_pps: float,
                 payload_size: int):
        self.src = src
        self.dst = dst
        self.dport = dport
        self.rate_pps = rate_pps
        self.payload_size = payload_size
        self.sent = 0
        self.finished = False

    def __repr__(self) -> str:
        return "TrafficReport(%s->%s:%d, sent=%d, %s)" % (
            self.src, self.dst, self.dport, self.sent,
            "done" if self.finished else "running")
