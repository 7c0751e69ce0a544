"""Emulated nodes: the Node base class, Host (with a small IP stack)
and Switch (wrapping an OpenFlow datapath)."""

import functools
import struct
from typing import Callable, Dict, List, Optional, Union

from repro.netem.interface import Interface
from repro.openflow import OpenFlowSwitch
from repro.packet import (ARP, BROADCAST, EthAddr, Ethernet, ICMP, IPAddr,
                          IPv4, UDP, pack_udp_frame, unpack_udp_frame)
from repro.packet.base import PacketError
from repro.packet.probe import PROBE_MAGIC
from repro.sim import Simulator


class Node:
    """Base emulated node: a name plus a set of interfaces."""

    def __init__(self, name: str, sim: Simulator):
        self.name = name
        self.sim = sim
        self.interfaces: Dict[str, Interface] = {}

    #: ``_receive(intf, data)`` of the subclasses that take frames; the
    #: interfaces of the others stay loose ends (``Interface.receive``)
    _receive = None

    def add_interface(self, mac: Union[str, EthAddr],
                      ip: Optional[Union[str, IPAddr]] = None,
                      prefix_len: int = 8,
                      name: str = "") -> Interface:
        if not name:
            name = "%s-eth%d" % (self.name, len(self.interfaces))
        if name in self.interfaces:
            raise ValueError("%s: interface %r exists" % (self.name, name))
        intf = Interface(name, self, EthAddr(mac),
                         IPAddr(ip) if ip is not None else None, prefix_len)
        if self._receive is not None:
            intf.receive = functools.partial(self._receive, intf)
        self.interfaces[name] = intf
        return intf

    def link_attached(self, intf: Interface) -> None:
        """A link took ``intf`` as an end, so ``intf.send`` now transmits
        on it; subclasses that hand ``intf.send`` out do it here."""

    def default_interface(self) -> Interface:
        if not self.interfaces:
            raise ValueError("%s has no interfaces" % self.name)
        return next(iter(self.interfaces.values()))

    def stop(self) -> None:
        """Shut the node down (subclasses release resources first) and
        unbind its interfaces."""
        for intf in self.interfaces.values():
            intf.unbind()

    def __repr__(self) -> str:
        return "%s(%s, %d intfs)" % (type(self).__name__, self.name,
                                     len(self.interfaces))


class PendingPing:
    """In-flight ping session state (owned by Host.ping's result)."""

    def __init__(self, result, remaining: int):
        self.result = result
        self.remaining = remaining
        self.sent_at: Dict[int, float] = {}  # seq -> send time


class Host(Node):
    """A host with ARP, ICMP echo, and UDP send/receive.

    This is the stand-in for "use standard tools to send and inspect
    live traffic" (demo step 4): :meth:`ping` is ``ping``,
    :meth:`send_udp` / :meth:`start_udp_flow` are the ``iperf`` side,
    and a flight-recorder tap on the host's port
    (:meth:`repro.netem.recorder.FlightRecorder.attach`) is ``tcpdump``.
    """

    ARP_TIMEOUT = 1.0  # seconds before a pending ARP resolution drops

    def __init__(self, name: str, sim: Simulator,
                 ip: Union[str, IPAddr], mac: Union[str, EthAddr],
                 prefix_len: int = 8):
        super().__init__(name, sim)
        self._primary = self.add_interface(mac, ip, prefix_len)
        self.arp_table: Dict[IPAddr, EthAddr] = {}
        self._arp_pending: Dict[IPAddr, List[Ethernet]] = {}
        self._udp_handlers: Dict[int, Callable] = {}
        self.udp_rx_count = 0
        self.udp_rx_bytes = 0
        # SLA probe datagrams are measurement traffic: counted apart so
        # they never skew user-traffic accounting
        self.probe_rx_count = 0
        self._pings: Dict[int, PendingPing] = {}
        self._next_ping_id = 1
        self.arp_dropped = 0  # frames queued behind an unanswered request
        self._frames = sim.frames  # slot 2: (interface, *its datagram)

    # -- convenience accessors ------------------------------------------------

    @property
    def ip(self) -> IPAddr:
        return self._primary.ip

    @property
    def mac(self) -> EthAddr:
        return self._primary.mac

    # -- transmit path --------------------------------------------------------

    def send_frame(self, frame: Ethernet) -> None:
        self._primary.send(frame.pack())

    def send_ip(self, packet: IPv4) -> None:
        """Resolve the destination and send (queues behind ARP)."""
        dst_mac = self.arp_table.get(packet.dstip)
        frame = Ethernet(src=self.mac, dst=dst_mac or BROADCAST,
                         type=Ethernet.IP_TYPE, payload=packet)
        if dst_mac is None:
            self._arp_resolve(packet.dstip, frame)
        else:
            self.send_frame(frame)

    def _arp_resolve(self, target: IPAddr, queued_frame: Ethernet) -> None:
        pending = self._arp_pending.setdefault(target, [])
        pending.append(queued_frame)
        if len(pending) > 1:
            return  # request already in flight
        request = Ethernet(src=self.mac, dst=BROADCAST,
                           type=Ethernet.ARP_TYPE,
                           payload=ARP(opcode=ARP.REQUEST, hwsrc=self.mac,
                                       protosrc=self.ip, protodst=target))
        self.send_frame(request)
        self.sim.schedule(self.ARP_TIMEOUT, self._arp_expire, target)

    def _arp_expire(self, target: IPAddr) -> None:
        unsent = len(self._arp_pending.pop(target, ()))
        if unsent:
            self.arp_dropped += unsent
            self.sim.telemetry.events.warn(
                "netem.host", "arp.timeout", "%s: %s" % (self.name, target),
                host=self.name, target=str(target), frames=unsent)

    # -- receive path ---------------------------------------------------------

    def _receive(self, intf: Interface, data: bytes) -> None:
        # Fast path, for what one struct pass can recognise: a plain UDP
        # datagram to this interface's own MAC and IP; the known frame
        # keeps it for a replay of the same object.  Everything else
        # takes the object codec.
        if intf.ip is not None:
            frames = self._frames
            record = frames.get(id(data)) or frames.admit(data)
            view = record[2]
            if view is not None and view[0] is intf:
                frames.known += 1
                self._deliver_udp(*view[1:])
                return
            frames.parsed += 1
            parsed = unpack_udp_frame(data, intf.mac.raw, intf.ip.to_int())
            if parsed is not None:
                srcip, srcport, dstport, payload = parsed
                view = record[2] = (intf, IPAddr(srcip), srcport, dstport,
                                    payload, payload.startswith(PROBE_MAGIC))
                self._deliver_udp(*view[1:])
                return
        self._receive_objects(intf, data)

    def _receive_objects(self, intf: Interface, data: bytes) -> None:
        """The object codec: the receive path for whatever the one pass
        does not claim, and the reference the one pass is tested
        against."""
        try:
            frame = Ethernet.unpack(data)
        except PacketError:
            return
        if frame.dst != intf.mac and not frame.dst.is_multicast \
                and not frame.dst.is_broadcast:
            return
        arp = frame.find(ARP)
        if arp is not None:
            self._handle_arp(arp)
            return
        ip = frame.find(IPv4)
        if ip is not None and intf.ip is not None and ip.dstip == intf.ip:
            self._handle_ip(ip)

    def _handle_arp(self, arp: ARP) -> None:
        if arp.opcode == ARP.REQUEST and arp.protodst == self.ip:
            self.arp_table[arp.protosrc] = arp.hwsrc
            reply = Ethernet(src=self.mac, dst=arp.hwsrc,
                             type=Ethernet.ARP_TYPE,
                             payload=ARP(opcode=ARP.REPLY, hwsrc=self.mac,
                                         protosrc=self.ip, hwdst=arp.hwsrc,
                                         protodst=arp.protosrc))
            self.send_frame(reply)
        elif arp.opcode == ARP.REPLY:
            self.arp_table[arp.protosrc] = arp.hwsrc
            for frame in self._arp_pending.pop(arp.protosrc, []):
                frame.dst = arp.hwsrc
                self.send_frame(frame)

    def _handle_ip(self, ip: IPv4) -> None:
        icmp = ip.find(ICMP)
        if icmp is not None:
            self._handle_icmp(ip, icmp)
            return
        udp = ip.find(UDP)
        if udp is not None:
            payload = udp.raw_payload()
            self._deliver_udp(ip.srcip, udp.srcport, udp.dstport, payload,
                              payload.startswith(PROBE_MAGIC))

    def _deliver_udp(self, srcip: IPAddr, srcport: int, dstport: int,
                     payload: bytes, is_probe: bool) -> None:
        if is_probe:
            self.probe_rx_count += 1
        else:
            self.udp_rx_count += 1
            self.udp_rx_bytes += len(payload)
        handler = self._udp_handlers.get(dstport)
        if handler is not None:
            handler(srcip, srcport, payload)

    def _handle_icmp(self, ip: IPv4, icmp: ICMP) -> None:
        if icmp.is_echo_request:
            self.send_ip(IPv4(srcip=self.ip, dstip=ip.srcip,
                              protocol=IPv4.ICMP_PROTOCOL,
                              payload=icmp.make_reply()))
        elif icmp.is_echo_reply:
            session = self._pings.get(icmp.id)
            if session is None:
                return
            sent_at = session.sent_at.pop(icmp.seq, None)
            if sent_at is None:
                return
            session.result.record_reply(self.sim.now - sent_at)

    # -- application API ------------------------------------------------------

    def bind_udp(self, port: int,
                 handler: Callable[[IPAddr, int, bytes], None]) -> None:
        """Deliver UDP datagrams for ``port`` to ``handler``."""
        self._udp_handlers[port] = handler

    def unbind_udp(self, port: int) -> None:
        self._udp_handlers.pop(port, None)

    def send_udp(self, dst: Union[str, IPAddr], dport: int,
                 payload: bytes, sport: int = 40000) -> None:
        dst = IPAddr(dst)
        dst_mac = self.arp_table.get(dst)
        if dst_mac is None:
            # object codec: the frame queues behind ARP
            self.send_ip(IPv4(srcip=self.ip, dstip=dst,
                              protocol=IPv4.UDP_PROTOCOL,
                              payload=UDP(srcport=sport, dstport=dport,
                                          payload=payload)))
        else:
            self._primary.send(self._udp_wire(dst_mac, dst, dport, payload,
                                              sport))

    def _udp_wire(self, dst_mac: EthAddr, dst: IPAddr, dport: int,
                  payload: bytes, sport: int) -> bytes:
        intf = self._primary
        return pack_udp_frame(dst_mac.raw, intf.mac.raw, intf.ip.to_int(),
                              dst.to_int(), sport, dport, payload)

    def ping(self, dst: Union[str, IPAddr], count: int = 3,
             interval: float = 1.0, payload_size: int = 56):
        """Start a ping session; returns a PingResult that fills in as
        replies arrive while the simulation runs."""
        from repro.netem.traffic import PingResult
        dst = IPAddr(dst)
        result = PingResult(str(self.ip), str(dst), count)
        ping_id = self._next_ping_id
        self._next_ping_id += 1
        session = PendingPing(result, count)
        self._pings[ping_id] = session

        # the sender is handed to each event it schedules instead of
        # closing over itself, so a finished session is freed by
        # reference counting, not left to the cyclic collector
        def send_next(seq: int, again: Callable) -> None:
            if seq > count:
                return
            session.sent_at[seq] = self.sim.now
            result.record_sent()
            # per-packet-unique payload (sender, session, seq, send
            # time) repeated to size: flow telemetry hashes frame
            # tails, and concurrent ping sessions must not collide
            head = struct.pack("!4sHId", self.ip.raw, ping_id & 0xFFFF,
                               seq, self.sim.now)
            padded = (head * (payload_size // len(head) + 1)
                      )[:payload_size] if payload_size else b""
            self.send_ip(IPv4(srcip=self.ip, dstip=dst,
                              protocol=IPv4.ICMP_PROTOCOL,
                              payload=ICMP(type=ICMP.TYPE_ECHO_REQUEST,
                                           id=ping_id, seq=seq,
                                           payload=padded)))
            if seq < count:
                self.sim.schedule(interval, again, seq + 1, again)

        send_next(1, send_next)
        return result

    def start_udp_flow(self, dst: Union[str, IPAddr], dport: int,
                       rate_pps: float, duration: float,
                       payload_size: int = 1000, sport: int = 40000):
        """Constant-rate UDP flow (the iperf stand-in).  Returns a
        TrafficReport that the *receiving* host's counters complete."""
        from repro.netem.traffic import TrafficReport
        dst = IPAddr(dst)
        report = TrafficReport(str(self.ip), str(dst), dport, rate_pps,
                               payload_size)
        interval = 1.0 / rate_pps
        total = max(1, int(round(duration * rate_pps)))
        payload = b"\x00" * payload_size
        # every datagram of the flow is the same frame, so once
        # send_udp would take its one-pass branch the wire image is
        # packed once and replayed (rebuilt if ARP re-resolves)
        wire_mac = wire = None

        def send_next(index: int, again: Callable) -> None:  # as in ping
            nonlocal wire_mac, wire
            if index >= total:
                report.finished = True
                return
            dst_mac = self.arp_table.get(dst)
            if dst_mac is None:
                self.send_udp(dst, dport, payload, sport)
            else:
                if dst_mac is not wire_mac:
                    wire_mac = dst_mac
                    wire = self._udp_wire(dst_mac, dst, dport, payload,
                                          sport)
                self._primary.send(wire)
            report.sent += 1
            self.sim.schedule(interval, again, index + 1, again)

        send_next(0, send_next)
        return report


class Switch(Node):
    """A node whose interfaces are ports of an OpenFlow datapath."""

    def __init__(self, name: str, sim: Simulator, dpid: int):
        super().__init__(name, sim)
        self.datapath = OpenFlowSwitch(sim, dpid, name)
        self._port_of: Dict[str, int] = {}

    @property
    def dpid(self) -> int:
        return self.datapath.dpid

    def add_interface(self, mac: Union[str, EthAddr],
                      ip=None, prefix_len: int = 8,
                      name: str = "") -> Interface:
        intf = super().add_interface(mac, ip, prefix_len, name)
        port_no = len(self._port_of) + 1
        port = self.datapath.add_port(port_no, intf.name, str(intf.mac))
        intf.receive = port.receive
        self._port_of[intf.name] = port_no
        return intf

    def link_attached(self, intf: Interface) -> None:
        self.datapath.ports[self._port_of[intf.name]].transmit = intf.send

    def port_number(self, intf: Interface) -> int:
        return self._port_of[intf.name]

    def stop(self) -> None:
        self.datapath.disconnect_controller()
        for port in self.datapath.ports.values():
            port.switch = port.transmit = None
        super().stop()
