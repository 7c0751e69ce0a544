"""Flight recorder: always-on-capable capture taps on substrate links.

The recorder is the one way to capture frames.  ``tcpdump -i h1-eth0``
is a tap on ``h1-eth0``'s link narrowed to that port; debugging a
*deployed chain* needs the view from the middle — which frames crossed
which substrate link, when, and on behalf of which pipeline operation.
The flight recorder attaches bounded ring buffers ("taps") to
:class:`~repro.netem.link.Link` objects (optionally narrowed to one
host or switch port) and records every frame the link carries:

* ``tx`` records when a frame enters the link, ``rx`` when it is
  delivered — a frame that appears as ``tx`` but never ``rx`` was
  dropped or lost in flight;
* each record is lazily parsed, and frames carrying an SLA probe
  payload (:func:`repro.packet.frame_probe`) expose the **trace id** of
  the span that emitted them, so a captured packet can be joined back
  to its ``sla.probe`` span with ``Tracer.find_span``;
* rings are bounded (oldest evicted first) so taps can stay attached
  for the whole run — hence "flight recorder";
* :meth:`FlightRecorder.export_pcap` writes any selection of records
  through the shared classic-pcap writer for offline inspection with
  Wireshark/tcpdump (demo step 4's "standard tools").

The dataplane cost when **no** tap is attached is a single falsy check
in ``Link.transmit``/``Link._deliver``; with a tap attached, a record
is a timestamped append — parsing happens only on query or export.
The ``netem.recorder.frames`` / ``evicted`` counters are brought up to
date when a metrics snapshot is taken.
"""

from collections import deque
from typing import Dict, List, Optional

from repro.netem.link import Link
from repro.netem.traffic import write_pcap
from repro.packet import Ethernet, frame_probe


class RecorderError(Exception):
    pass


class TapRecord:
    """One captured frame: raw bytes plus where/when, parsed lazily."""

    __slots__ = ("seq", "time", "link_name", "direction", "port", "data",
                 "_frame", "_probe", "_probed")

    def __init__(self, seq: int, time: float, link_name: str,
                 direction: str, port: str, data: bytes):
        self.seq = seq
        self.time = time
        self.link_name = link_name
        self.direction = direction  # "tx" (entered link) / "rx" (delivered)
        self.port = port            # interface name at the observed end
        self.data = data
        self._frame = None
        self._probe = None
        self._probed = False

    @property
    def frame(self) -> Ethernet:
        if self._frame is None:
            self._frame = Ethernet.unpack(self.data)
        return self._frame

    @property
    def probe(self):
        """The SLA probe riding in this frame, or None."""
        if not self._probed:
            self._probed = True
            try:
                self._probe = frame_probe(self.frame)
            except Exception:
                self._probe = None
        return self._probe

    @property
    def trace_id(self) -> Optional[int]:
        """Span id of the pipeline operation that sent this frame."""
        probe = self.probe
        return probe.trace_id if probe is not None else None

    def render(self) -> str:
        text = "%.6f %-3s %-18s %-10s %d bytes" % (
            self.time, self.direction, self.link_name, self.port,
            len(self.data))
        probe = self.probe
        if probe is not None:
            text += "  probe %s #%d.%d trace=%d" % (
                probe.chain, probe.seq, probe.index, probe.trace_id)
        return text

    def __repr__(self) -> str:
        return "TapRecord(%s)" % self.render()


class LinkTap:
    """Bounded ring of :class:`TapRecord` on one link.

    ``port`` narrows the tap to frames entering or leaving one
    interface (a host or switch port); without it, both directions of
    every frame on the link are kept.
    """

    def __init__(self, link: Link, capacity: int = 2048,
                 port: Optional[str] = None):
        if capacity <= 0:
            raise RecorderError("tap capacity must be positive, got %r"
                                % capacity)
        self.link = link
        self.capacity = capacity
        self.port = port
        self.label = "%s:%s" % (link.name, port) if port else link.name
        self.records = deque(maxlen=capacity)
        self.observed = 0
        self.matched = 0
        self.evicted = 0
        self._seq = 0

    def observe(self, time: float, link: Link, direction: str, intf,
                data: bytes) -> None:
        self.observed += 1
        if self.port is not None and intf.name != self.port:
            return
        self.matched += 1
        if len(self.records) == self.capacity:
            self.evicted += 1
        self.records.append(TapRecord(self._seq, time, link.name,
                                      direction, intf.name, data))
        self._seq += 1

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return "LinkTap(%s, %d kept / %d seen, %d evicted)" % (
            self.label, len(self.records), self.observed, self.evicted)


class FlightRecorder:
    """Manages taps across a :class:`~repro.netem.net.Network`.

    One recorder per ESCAPE instance; taps are attached per link, per
    switch port, or for every substrate link a deployed chain's mapped
    paths traverse.
    """

    CAPACITY = 2048  # records per tap ring

    def __init__(self, network):
        self.network = network
        self.telemetry = network.sim.telemetry
        self.taps: Dict[str, LinkTap] = {}
        tm = self.telemetry.metrics
        self._m_recorded = tm.counter("netem.recorder.frames",
                                      "frames recorded by flight taps")
        self._m_evicted = tm.counter("netem.recorder.evicted",
                                     "tap ring evictions")
        # what the attached taps have added to the counters so far
        self._counted_frames = self._counted_evicted = 0
        tm.add_collector(self._collect)

    def _collect(self, registry=None) -> None:
        """Bring the counters up to what the attached taps have
        recorded; a counter is touched only when its value moves."""
        frames = sum(tap.matched for tap in self.taps.values())
        evicted = sum(tap.evicted for tap in self.taps.values())
        if frames > self._counted_frames:
            self._m_recorded.inc(frames - self._counted_frames)
        if evicted > self._counted_evicted:
            self._m_evicted.inc(evicted - self._counted_evicted)
        self._counted_frames, self._counted_evicted = frames, evicted

    # -- attach / detach ------------------------------------------------------

    def _resolve_link(self, link) -> Link:
        if isinstance(link, Link):
            return link
        for candidate in self.network.links:
            if candidate.name == link:
                return candidate
        raise RecorderError("no link named %r" % (link,))

    def attach(self, link, capacity: Optional[int] = None,
               port: Optional[str] = None) -> LinkTap:
        """Tap a link (by object or name); idempotent per label.
        ``port``, if given, must name one of the link's two ends."""
        link = self._resolve_link(link)
        if port is not None and port not in (link.intf1.name,
                                             link.intf2.name):
            raise RecorderError("%r is not an end of link %s"
                                % (port, link.name))
        label = "%s:%s" % (link.name, port) if port else link.name
        existing = self.taps.get(label)
        if existing is not None:
            return existing
        tap = LinkTap(link, capacity or self.CAPACITY, port=port)
        link.taps.append(tap)
        self.taps[tap.label] = tap
        self.telemetry.events.info("netem.recorder", "recorder.attached",
                                   "tap on %s" % tap.label,
                                   link=link.name,
                                   capacity=tap.capacity)
        return tap

    def attach_port(self, switch, port_no: int) -> LinkTap:
        """Tap one switch port: frames entering/leaving that interface."""
        if isinstance(switch, str):
            switch = self.network.get(switch)
        for intf in switch.interfaces.values():
            if switch.port_number(intf) == port_no:
                if intf.link is None:
                    raise RecorderError("%s port %d is not connected"
                                        % (switch.name, port_no))
                return self.attach(intf.link, port=intf.name)
        raise RecorderError("%s has no port %d" % (switch.name, port_no))

    def attach_chain(self, chain) -> List[LinkTap]:
        """Tap every substrate link on a deployed chain's mapped paths."""
        taps = []
        seen = set()
        for path in chain.mapping.link_paths.values():
            for here, there in zip(path, path[1:]):
                for link in self.network.links_between(here, there):
                    if link.name in seen:
                        continue
                    seen.add(link.name)
                    taps.append(self.attach(link))
        if not taps:
            raise RecorderError("chain %r has no mapped substrate links"
                                % chain.sg.name)
        return taps

    def detach(self, label: str) -> None:
        if label not in self.taps:
            raise RecorderError("no tap %r" % (label,))
        self._collect()
        tap = self.taps.pop(label)
        self._counted_frames -= tap.matched
        self._counted_evicted -= tap.evicted
        if tap in tap.link.taps:
            tap.link.taps.remove(tap)
        self.telemetry.events.info("netem.recorder", "recorder.detached",
                                   "tap off %s (%d frames)" % (label,
                                                               tap.matched),
                                   link=tap.link.name)

    def detach_all(self) -> None:
        for label in list(self.taps):
            self.detach(label)

    # -- query / export -------------------------------------------------------

    def records(self, trace_id: Optional[int] = None,
                flow_trace: Optional[int] = None) -> List[TapRecord]:
        """Merged records across taps, in capture order.

        ``trace_id`` keeps only frames carrying an SLA probe emitted
        under that span (the trace-join query); ``flow_trace`` keeps
        only frames whose bytes hash to that flowtrace trace id, so
        ring captures and telemetry postcards correlate on the same
        packet.
        """
        selected = []
        for tap in self.taps.values():
            for record in tap.records:
                if trace_id is not None and record.trace_id != trace_id:
                    continue
                if flow_trace is not None and \
                        self.flow_trace_id(record) != flow_trace:
                    continue
                selected.append(record)
        selected.sort(key=lambda record: (record.time, record.seq))
        return selected

    def flow_trace_id(self, record: TapRecord) -> int:
        """The flowtrace trace id of a captured frame — the same
        seeded digest :class:`repro.telemetry.FlowTrace` derives at
        every hop, so a ring entry joins to its postcards."""
        return self.telemetry.flowtrace.digest(record.data)

    def find_span(self, record: TapRecord):
        """The pipeline span that emitted this frame, or None."""
        if record.trace_id is None:
            return None
        return self.telemetry.tracer.find_span(record.trace_id)

    def export_pcap(self, path: str, trace_id: Optional[int] = None,
                    direction: str = "rx") -> int:
        """Write matching records as classic pcap; returns the count.

        Defaults to ``rx`` records only so each frame appears once
        (every delivered frame has both a tx and an rx record);
        ``direction="both"`` keeps the duplicates, ``"tx"`` shows what
        entered the link (including frames later lost).
        """
        selected = self.records(trace_id=trace_id)
        if direction != "both":
            selected = [record for record in selected
                        if record.direction == direction]
        count = write_pcap(path, selected)
        self.telemetry.events.info("netem.recorder", "recorder.exported",
                                   "%d frames -> %s" % (count, path),
                                   path=path)
        return count

    # -- reporting ------------------------------------------------------------

    def status(self) -> Dict[str, Dict[str, float]]:
        return {label: {"kept": len(tap), "seen": tap.observed,
                        "matched": tap.matched, "evicted": tap.evicted}
                for label, tap in sorted(self.taps.items())}

    def render(self) -> str:
        if not self.taps:
            return "flight recorder: no taps attached"
        lines = ["%-24s %8s %8s %8s" % ("TAP", "KEPT", "SEEN", "EVICTED")]
        for label, tap in sorted(self.taps.items()):
            lines.append("%-24s %8d %8d %8d" % (label, len(tap),
                                                tap.observed, tap.evicted))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return "FlightRecorder(%d taps)" % len(self.taps)
