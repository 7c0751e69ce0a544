"""The software OpenFlow switch (Open vSwitch stand-in)."""

from operator import itemgetter
from typing import Callable, Dict, List, Optional

from repro.openflow.actions import Group, Output
from repro.openflow.channel import ControllerChannel
from repro.openflow.flowtable import (FlowEntry, FlowTable, GroupError,
                                      GroupTable)
from repro.openflow.match import MATCH_FIELDS, flow_key
from repro.openflow import messages as msg
from repro.packet.base import PacketError
from repro.sim import Simulator

# OF 1.0 virtual port numbers.
OFPP_IN_PORT = 0xFFF8
OFPP_FLOOD = 0xFFFB
OFPP_ALL = 0xFFFC
OFPP_CONTROLLER = 0xFFFD
OFPP_LOCAL = 0xFFFE
OFPP_NONE = 0xFFFF


class SwitchPort:
    """A physical switch port.

    The emulator wires :attr:`transmit` to the attached link; incoming
    frames enter through :meth:`receive`.
    """

    def __init__(self, switch: "OpenFlowSwitch", port_no: int, name: str,
                 hw_addr: str):
        self.switch = switch
        self.port_no = port_no
        self.name = name
        self.hw_addr = hw_addr
        self.transmit: Optional[Callable[[bytes], None]] = None
        self.up = True
        self.rx_packets = 0
        self.tx_packets = 0
        self.rx_bytes = 0
        self.tx_bytes = 0
        self.rx_dropped = 0
        self.tx_dropped = 0

    def receive(self, data: bytes) -> None:
        """Frame arriving from the attached link."""
        if not self.up:
            self.rx_dropped += 1
            return
        self.rx_packets += 1
        self.rx_bytes += len(data)
        self.switch.process_packet(self.port_no, data)

    def send(self, data: bytes) -> None:
        if not self.up or self.transmit is None:
            self.tx_dropped += 1
            return
        self.tx_packets += 1
        self.tx_bytes += len(data)
        self.transmit(data)

    def description(self) -> msg.PortDescription:
        return msg.PortDescription(
            self.port_no, self.name, self.hw_addr,
            state=0 if self.up else msg.PortDescription.LINK_DOWN)

    def stats(self) -> msg.PortStats:
        return msg.PortStats(self.port_no, self.rx_packets, self.tx_packets,
                             self.rx_bytes, self.tx_bytes,
                             self.rx_dropped, self.tx_dropped)

    def __repr__(self) -> str:
        return "SwitchPort(%s:%d %s)" % (self.switch.name, self.port_no,
                                         self.name)


class OpenFlowSwitch:
    """An OF 1.0 datapath: ports + flow table + controller connection.

    Without a connected controller, table-miss packets are dropped
    (OVS's default secure mode).  ``miss_send_len`` bytes of a missed
    packet travel in the PacketIn; the rest waits in the buffer.
    """

    MICROFLOW_CAP = 4096  # flow-cache entries before a reset
    n_buffers = 256      # packet-in buffer pool
    miss_send_len = 128  # bytes of a missed packet sent with its buffer id

    def __init__(self, sim: Simulator, dpid: int, name: str = ""):
        self.sim = sim
        self.dpid = dpid
        self.name = name or ("s%d" % dpid)
        self.ports: Dict[int, SwitchPort] = {}
        self.table = FlowTable(on_removed=self._flow_removed)
        self.groups = GroupTable()
        self.channel: Optional[ControllerChannel] = None
        self._buffers: Dict[int, tuple] = {}
        self._next_buffer = 1
        self._expiry = None  # the sweep's Wakeup while connected
        # plain-int counters: this is the hot path, so telemetry pulls
        # them through a registry collector instead of per-event calls
        self.packet_in_count = 0
        self.flow_mod_count = 0
        self.group_mod_count = 0
        self.group_flip_count = 0
        self.forwarded_count = 0
        self.dropped_count = 0
        self.table_hit_count = 0
        self.table_miss_count = 0
        self.microflow_hit_count = 0
        # Flow cache (DESIGN.md "Switch flow cache").  The datapath is a
        # pure function of in_port, the header fields the installed
        # matches examine, the group table and port liveness: _flows
        # maps (in_port, those fields) -> (entry, out_ports), flushed by
        # a table mutation (table.version), GroupMod or port flip
        self._flows: Dict[tuple, tuple] = {}
        self._frames = sim.frames  # slot 1: flow_key fields, parsed once
        self._flush_caches()
        # flowtrace handle bound once; the disabled path is one
        # attribute check per frame
        self._flowtrace = sim.telemetry.flowtrace

    # -- ports ----------------------------------------------------------------

    def add_port(self, port_no: int, name: str = "",
                 hw_addr: str = "") -> SwitchPort:
        if port_no in self.ports:
            raise ValueError("%s: port %d already exists"
                             % (self.name, port_no))
        if not hw_addr:
            hw_addr = "02:%02x:%02x:%02x:%02x:%02x" % (
                (self.dpid >> 24) & 0xFF, (self.dpid >> 16) & 0xFF,
                (self.dpid >> 8) & 0xFF, self.dpid & 0xFF, port_no & 0xFF)
        port = SwitchPort(self, port_no, name or "%s-eth%d"
                          % (self.name, port_no), hw_addr)
        self.ports[port_no] = port
        if self.channel is not None and self.channel.connected:
            self.channel.send_to_controller(
                msg.PortStatus(msg.PortStatus.REASON_ADD,
                               port.description()))
        return port

    def set_port_up(self, port_no: int, up: bool) -> None:
        """Flip a port's liveness — the dataplane half of link state.

        netem calls this from ``Link.set_up`` at the same simulated
        instant the link changes, so fast-failover groups watching the
        port re-steer locally with no controller round trip.  The
        controller still hears about it: a PortStatus(REASON_MODIFY)
        goes up the channel deterministically (no discovery lag).
        """
        port = self.ports.get(port_no)
        if port is None or port.up == up:
            return
        port.up = up
        # cached verdicts may embed a group resolution through this
        # port — invalidate them all; steady-state forwarding re-caches
        self._flush_caches()
        events = self.sim.telemetry.events
        note = events.info if up else events.warn
        note("openflow.switch", "of.port.up" if up else "of.port.down",
             "%s port %d (%s)" % (self.name, port_no, port.name),
             dpid=self.dpid, port=port_no, port_name=port.name)
        if self.channel is not None and self.channel.connected:
            self.channel.send_to_controller(
                msg.PortStatus(msg.PortStatus.REASON_MODIFY,
                               port.description()))

    # -- controller connection ------------------------------------------------

    def connect_controller(self, channel: ControllerChannel) -> None:
        """Attach the control channel and start the OF handshake."""
        self.channel = channel
        channel.set_switch_receiver(self._handle_controller_message)
        channel.connect()
        channel.send_to_controller(msg.Hello())
        self._expiry = self.sim.wakeup(self._expiry_sweep)
        self._arm_expiry()

    def disconnect_controller(self) -> None:
        if self.channel is not None:
            self.channel.disconnect()
            self.channel = None
        self.table.on_removed = None  # nothing left to tell
        if self._expiry is not None:
            self._expiry.disarm()
            self._expiry = None  # the wakeup holds this switch

    def _arm_expiry(self) -> None:
        """Sweep no later than the table's next deadline; a table with
        no timed entry schedules nothing."""
        deadline = self.table._next_expiry
        if self._expiry is not None and deadline < float("inf"):
            self._expiry.arm_before(deadline)

    def _expiry_sweep(self) -> None:
        self.table.expire(self.sim.now)
        self._arm_expiry()

    def _flow_removed(self, entry: FlowEntry, reason: int) -> None:
        if (entry.flags & msg.FlowMod.SEND_FLOW_REM
                and self.channel is not None):
            self.channel.send_to_controller(msg.FlowRemoved(
                entry.match, entry.cookie, entry.priority, reason,
                entry.duration(self.sim.now), entry.packet_count,
                entry.byte_count))

    # -- datapath -------------------------------------------------------------

    def process_packet(self, in_port: int, data: bytes) -> None:
        """Run one frame through the flow table: fields from the known
        frames (parsed here if no hop has yet), verdict from the cache."""
        flowtrace = self._flowtrace
        if flowtrace.enabled:
            # recorded ahead of the pipeline so flow-cache hits are
            # postcarded too — the conformance checker needs every
            # switch a sampled packet visits
            flowtrace.record("switch", self.name, self.sim.now, data,
                             dpid=self.dpid)
        now = self.sim.now
        table = self.table
        if now >= table._next_expiry:
            table.expire(now)  # removals bump table.version: a flush below
        if self._cache_version != table.version:
            self._flush_caches()
        frames = self._frames
        record = frames.get(id(data)) or frames.admit(data)
        fields = record[1]
        if fields is not None:
            frames.known += 1
        else:
            frames.parsed += 1
            try:
                fields = record[1] = flow_key(data)
            except PacketError:  # runt frame: nothing to match on
                self.dropped_count += 1
                return
        key = (in_port, self._examined(fields))
        verdict = self._flows.get(key)
        if verdict is not None:
            self.microflow_hit_count += 1
        else:
            entry = table.lookup(data, in_port, now, fields)
            if entry is None:
                self.table_miss_count += 1
                if self.channel is None or not self.channel.connected:
                    self.dropped_count += 1
                else:
                    self._send_packet_in(in_port, data,
                                         msg.PacketIn.REASON_NO_MATCH)
                return
            verdict = entry, self._compile(entry.actions)
            if len(self._flows) >= self.MICROFLOW_CAP:
                self._flows.clear()
            self._flows[key] = verdict
        entry, out_ports = verdict
        self.table_hit_count += 1
        entry.packet_count += 1  # FlowEntry.note_hit, in place
        entry.byte_count += len(data)
        entry.last_used = now
        if not out_ports:
            self.dropped_count += 1
            return
        ports = self.ports
        for port_no in out_ports:
            port = ports.get(port_no)
            if port is None or not port.up or port.transmit is None:
                # virtual, unknown or dead port
                self._output(port_no, data, in_port)
                continue
            port.tx_packets += 1
            port.tx_bytes += len(data)
            self.forwarded_count += 1
            port.transmit(data)

    def _flush_caches(self) -> None:
        """Empty the flow cache and re-derive the key mask: the fields
        some installed match examines (in_port is always in the key)."""
        self._flows.clear()
        self._cache_version = self.table.version
        examined = [index for index, field in enumerate(MATCH_FIELDS[1:])
                    if any(getattr(entry.match, field) is not None
                           for entry in self.table.entries)]
        self._examined = (itemgetter(*examined) if examined
                          else lambda fields: None)

    def _compile(self, actions) -> tuple:
        """The output ports of an action list, in order, with groups
        resolved to their live bucket."""
        if self.groups.groups:
            # only switches with installed groups pay this scan, and
            # only on flow-cache misses — the steady-state hot path
            # replays the cached resolution
            actions = self._resolve_groups(actions)
        return tuple(action.port for action in actions
                     if isinstance(action, Output))

    def _execute(self, actions, data: bytes, in_port: Optional[int]) -> None:
        """Run a one-off action list (PacketOut, buffered release): the
        received bytes go out of every output port."""
        out_ports = self._compile(actions)
        if not out_ports:
            self.dropped_count += 1
            return
        for port_no in out_ports:
            self._output(port_no, data, in_port)

    def _resolve_groups(self, actions) -> list:
        """Expand Group actions into the live bucket's actions.

        FAST_FAILOVER semantics: first bucket whose watched port is up
        wins; with no live bucket (or an unknown group) the group
        contributes nothing, so the frame drops unless another action
        outputs it.  Bucket transitions are the dataplane failover —
        counted and logged so recovery can attribute the flip.
        """
        resolved = []
        for action in actions:
            if type(action) is not Group:
                resolved.append(action)
                continue
            entry = self.groups.get(action.group_id)
            if entry is None:
                continue
            selected = entry.select(self.ports)
            index = selected[0] if selected is not None else None
            if index != entry.current_bucket:
                self._note_group_flip(entry, index)
            if selected is not None:
                resolved.extend(selected[1].actions)
        return resolved

    def _note_group_flip(self, entry, index: Optional[int]) -> None:
        previous = entry.current_bucket
        entry.current_bucket = index
        if previous is None and index == 0:
            return  # first resolution landing on the primary bucket
        self.group_flip_count += 1
        telemetry = self.sim.telemetry
        telemetry.metrics.counter(
            "openflow.group.flips",
            "fast-failover bucket transitions").inc()
        telemetry.events.warn(
            "openflow.group", "of.group.flip",
            "%s group %d bucket %s -> %s" % (self.name, entry.group_id,
                                             previous, index),
            dpid=self.dpid, group=entry.group_id,
            from_bucket=previous if previous is not None else "",
            to_bucket=index if index is not None else "")

    def _output(self, port_no: int, data: bytes,
                in_port: Optional[int]) -> None:
        if port_no in (OFPP_FLOOD, OFPP_ALL):
            for number, port in self.ports.items():
                if port_no == OFPP_FLOOD and number == in_port:
                    continue
                port.send(data)
                self.forwarded_count += 1
            return
        if port_no == OFPP_IN_PORT:
            port_no = in_port if in_port is not None else OFPP_NONE
        if port_no == OFPP_CONTROLLER:
            self._send_packet_in(in_port or 0, data,
                                 msg.PacketIn.REASON_ACTION)
            return
        if port_no in (OFPP_NONE, OFPP_LOCAL):
            return
        port = self.ports.get(port_no)
        if port is None:
            self.dropped_count += 1
            return
        port.send(data)
        self.forwarded_count += 1

    def _send_packet_in(self, in_port: int, data: bytes,
                        reason: int) -> None:
        if len(self._buffers) >= self.n_buffers:
            # a full pool reuses the buffer held longest, as real
            # datapaths do: a packet-in the controller consumes without
            # releasing it (an LLDP probe, say) would otherwise hold its
            # buffer forever
            del self._buffers[next(iter(self._buffers))]
        buffer_id = self._next_buffer
        self._next_buffer += 1
        self._buffers[buffer_id] = (data, in_port)
        self.packet_in_count += 1
        self.channel.send_to_controller(msg.PacketIn(
            buffer_id, in_port, data[:self.miss_send_len], reason,
            total_len=len(data)))

    # -- controller message handling ------------------------------------------

    def _handle_controller_message(self, message: msg.Message) -> None:
        if isinstance(message, msg.Hello):
            return
        if isinstance(message, msg.EchoRequest):
            self.channel.send_to_controller(
                msg.EchoReply(message.data, xid=message.xid))
        elif isinstance(message, msg.FeaturesRequest):
            self.channel.send_to_controller(msg.FeaturesReply(
                self.dpid,
                [port.description() for port in self.ports.values()],
                n_buffers=self.n_buffers, xid=message.xid))
        elif isinstance(message, msg.FlowMod):
            self._handle_flow_mod(message)
        elif isinstance(message, msg.GroupMod):
            self._handle_group_mod(message)
        elif isinstance(message, msg.PacketOut):
            self._handle_packet_out(message)
        elif isinstance(message, msg.BarrierRequest):
            self.channel.send_to_controller(
                msg.BarrierReply(xid=message.xid))
        elif isinstance(message, msg.FlowStatsRequest):
            entries = self.table.stats(message.match, self.sim.now)
            self.channel.send_to_controller(msg.FlowStatsReply(
                [msg.FlowStats(entry.match, entry.priority, entry.cookie,
                               entry.duration(self.sim.now),
                               entry.packet_count, entry.byte_count,
                               entry.actions)
                 for entry in entries], xid=message.xid))
        elif isinstance(message, msg.PortStatsRequest):
            ports = (self.ports.values() if message.port_no is None
                     else [self.ports[message.port_no]]
                     if message.port_no in self.ports else [])
            self.channel.send_to_controller(msg.PortStatsReply(
                [port.stats() for port in ports], xid=message.xid))

    def _handle_flow_mod(self, flow_mod: msg.FlowMod) -> None:
        self.flow_mod_count += 1
        if flow_mod.command == msg.FlowMod.ADD:
            self.table.add(FlowEntry(
                flow_mod.match, flow_mod.actions, flow_mod.priority,
                flow_mod.idle_timeout, flow_mod.hard_timeout,
                flow_mod.cookie, flow_mod.flags, self.sim.now))
        elif flow_mod.command in (msg.FlowMod.MODIFY,
                                  msg.FlowMod.MODIFY_STRICT):
            strict = flow_mod.command == msg.FlowMod.MODIFY_STRICT
            updated = self.table.modify(flow_mod.match, flow_mod.actions,
                                        strict, flow_mod.priority)
            if not updated:
                self.table.add(FlowEntry(
                    flow_mod.match, flow_mod.actions, flow_mod.priority,
                    flow_mod.idle_timeout, flow_mod.hard_timeout,
                    flow_mod.cookie, flow_mod.flags, self.sim.now))
        elif flow_mod.command in (msg.FlowMod.DELETE,
                                  msg.FlowMod.DELETE_STRICT):
            strict = flow_mod.command == msg.FlowMod.DELETE_STRICT
            self.table.delete(flow_mod.match, strict, flow_mod.priority,
                              self.sim.now)
        # Release the buffered packet through the new actions, if asked.
        if flow_mod.buffer_id is not None:
            buffered = self._buffers.pop(flow_mod.buffer_id, None)
            if buffered is not None:
                data, in_port = buffered
                self._execute(flow_mod.actions, data, in_port)
        self._arm_expiry()

    def _handle_group_mod(self, group_mod: msg.GroupMod) -> None:
        self.group_mod_count += 1
        try:
            if group_mod.command == msg.GroupMod.ADD:
                self.groups.add(group_mod.group_id,
                                group_mod.group_type, group_mod.buckets)
            elif group_mod.command == msg.GroupMod.MODIFY:
                self.groups.modify(group_mod.group_id,
                                   group_mod.group_type,
                                   group_mod.buckets)
            elif group_mod.command == msg.GroupMod.DELETE:
                self.groups.delete(group_mod.group_id)
            else:
                raise GroupError("bad group mod command %d"
                                 % group_mod.command)
        except GroupError as exc:
            if self.channel is not None and self.channel.connected:
                self.channel.send_to_controller(msg.ErrorMessage(
                    msg.ErrorMessage.TYPE_GROUP_MOD_FAILED, exc.code,
                    xid=group_mod.xid))
            return
        # cached resolutions may reference the touched group
        self._flush_caches()

    def _handle_packet_out(self, packet_out: msg.PacketOut) -> None:
        if packet_out.buffer_id is not None:
            buffered = self._buffers.pop(packet_out.buffer_id, None)
            if buffered is None:
                return
            data, in_port = buffered
        else:
            data = packet_out.data
            in_port = packet_out.in_port
        self._execute(packet_out.actions, data, in_port)

    def __repr__(self) -> str:
        return "OpenFlowSwitch(%s, dpid=%d, %d ports, %d flows)" % (
            self.name, self.dpid, len(self.ports), len(self.table))
