"""OpenFlow 1.0 wire format: pack/unpack for the message subset.

The in-process channel normally passes message *objects*; this module
closes the fidelity gap by providing the actual OF 1.0 binary encoding
(per openflow.h of the 1.0.0 spec) for every message class in
:mod:`repro.openflow.messages`.  ``ControllerChannel(serialize=True)``
round-trips every message through these codecs, so the control plane
demonstrably speaks the real wire format.

Float timeouts/durations are carried at OF granularity (whole seconds
for timeouts, sec+nsec for durations) — the only lossy conversion.
"""

import struct
from typing import List, Optional, Tuple

from repro.openflow import messages as msg
from repro.openflow.actions import Action, Group, Output
from repro.openflow.match import Match, NO_VLAN
from repro.packet import EthAddr, IPAddr

OFP_VERSION = 0x01

# message type codes (ofp_type)
OFPT_HELLO = 0
OFPT_ERROR = 1
OFPT_ECHO_REQUEST = 2
OFPT_ECHO_REPLY = 3
OFPT_FEATURES_REQUEST = 5
OFPT_FEATURES_REPLY = 6
OFPT_PACKET_IN = 10
OFPT_FLOW_REMOVED = 11
OFPT_PORT_STATUS = 12
OFPT_PACKET_OUT = 13
OFPT_FLOW_MOD = 14
OFPT_GROUP_MOD = 15  # OF 1.1 message, carried as an extension
OFPT_STATS_REQUEST = 16
OFPT_STATS_REPLY = 17
OFPT_BARRIER_REQUEST = 18
OFPT_BARRIER_REPLY = 19

# wildcard bits (ofp_flow_wildcards)
OFPFW_IN_PORT = 1 << 0
OFPFW_DL_VLAN = 1 << 1
OFPFW_DL_SRC = 1 << 2
OFPFW_DL_DST = 1 << 3
OFPFW_DL_TYPE = 1 << 4
OFPFW_NW_PROTO = 1 << 5
OFPFW_TP_SRC = 1 << 6
OFPFW_TP_DST = 1 << 7
OFPFW_NW_SRC_SHIFT = 8
OFPFW_NW_DST_SHIFT = 14
OFPFW_DL_VLAN_PCP = 1 << 20
OFPFW_NW_TOS = 1 << 21

# action type codes
OFPAT_OUTPUT = 0
OFPAT_GROUP = 22  # OF 1.1 action, carried as an extension

OFPST_FLOW = 1
OFPST_PORT = 4

NO_BUFFER = 0xFFFFFFFF
OFPP_NONE_WIRE = 0xFFFF
OFPP_ANY_WIRE = 0xFFFFFFFF  # OF 1.1 32-bit "no port" (bucket watch)


class WireError(Exception):
    pass


# -- match ----------------------------------------------------------------


def pack_match(match: Match) -> bytes:
    wildcards = 0
    if match.in_port is None:
        wildcards |= OFPFW_IN_PORT
    if match.dl_vlan is None:
        wildcards |= OFPFW_DL_VLAN
    if match.dl_src is None:
        wildcards |= OFPFW_DL_SRC
    if match.dl_dst is None:
        wildcards |= OFPFW_DL_DST
    if match.dl_type is None:
        wildcards |= OFPFW_DL_TYPE
    if match.nw_proto is None:
        wildcards |= OFPFW_NW_PROTO
    if match.tp_src is None:
        wildcards |= OFPFW_TP_SRC
    if match.tp_dst is None:
        wildcards |= OFPFW_TP_DST
    if match.nw_tos is None:
        wildcards |= OFPFW_NW_TOS
    wildcards |= OFPFW_DL_VLAN_PCP  # pcp is not modelled

    def nw_bits(value) -> Tuple[int, IPAddr]:
        if value is None:
            return 32, IPAddr(0)
        if isinstance(value, tuple):
            addr, prefix = value
            return 32 - prefix, addr
        return 0, value

    src_wild, src_addr = nw_bits(match.nw_src)
    dst_wild, dst_addr = nw_bits(match.nw_dst)
    wildcards |= (src_wild & 0x3F) << OFPFW_NW_SRC_SHIFT
    wildcards |= (dst_wild & 0x3F) << OFPFW_NW_DST_SHIFT

    dl_src = match.dl_src.raw if match.dl_src else b"\x00" * 6
    dl_dst = match.dl_dst.raw if match.dl_dst else b"\x00" * 6
    return struct.pack(
        "!IH6s6sHBxHBBxx4s4sHH",
        wildcards,
        match.in_port or 0,
        dl_src, dl_dst,
        match.dl_vlan if match.dl_vlan is not None else 0,
        0,  # dl_vlan_pcp
        match.dl_type or 0,
        match.nw_tos or 0,
        match.nw_proto or 0,
        src_addr.raw, dst_addr.raw,
        match.tp_src or 0,
        match.tp_dst or 0)


def unpack_match(data: bytes) -> Match:
    if len(data) < 40:
        raise WireError("match requires 40 bytes, got %d" % len(data))
    (wildcards, in_port, dl_src, dl_dst, dl_vlan, _pcp, dl_type,
     nw_tos, nw_proto, nw_src, nw_dst, tp_src, tp_dst) = struct.unpack(
        "!IH6s6sHBxHBBxx4s4sHH", data[:40])
    match = Match()
    if not wildcards & OFPFW_IN_PORT:
        match.in_port = in_port
    if not wildcards & OFPFW_DL_VLAN:
        match.dl_vlan = dl_vlan
    if not wildcards & OFPFW_DL_SRC:
        match.dl_src = EthAddr(dl_src)
    if not wildcards & OFPFW_DL_DST:
        match.dl_dst = EthAddr(dl_dst)
    if not wildcards & OFPFW_DL_TYPE:
        match.dl_type = dl_type
    if not wildcards & OFPFW_NW_TOS:
        match.nw_tos = nw_tos
    if not wildcards & OFPFW_NW_PROTO:
        match.nw_proto = nw_proto
    if not wildcards & OFPFW_TP_SRC:
        match.tp_src = tp_src
    if not wildcards & OFPFW_TP_DST:
        match.tp_dst = tp_dst
    src_wild = (wildcards >> OFPFW_NW_SRC_SHIFT) & 0x3F
    dst_wild = (wildcards >> OFPFW_NW_DST_SHIFT) & 0x3F
    if src_wild == 0:
        match.nw_src = IPAddr(nw_src)
    elif src_wild < 32:
        match.nw_src = (IPAddr(nw_src), 32 - src_wild)
    if dst_wild == 0:
        match.nw_dst = IPAddr(nw_dst)
    elif dst_wild < 32:
        match.nw_dst = (IPAddr(nw_dst), 32 - dst_wild)
    return match


# -- actions -----------------------------------------------------------------


def pack_action(action: Action) -> bytes:
    if isinstance(action, Output):
        return struct.pack("!HHHH", OFPAT_OUTPUT, 8, action.port, 0xFFFF)
    if isinstance(action, Group):
        return struct.pack("!HHI", OFPAT_GROUP, 8, action.group_id)
    raise WireError("cannot serialize action %r" % action)


def pack_actions(actions: List[Action]) -> bytes:
    return b"".join(pack_action(action) for action in actions)


#: The one wire length of every action type the codec knows.
_ACTION_LENGTHS = {OFPAT_OUTPUT: 8, OFPAT_GROUP: 8}


def unpack_actions(data: bytes) -> List[Action]:
    actions: List[Action] = []
    offset = 0
    while offset < len(data):
        if len(data) - offset < 4:
            raise WireError("truncated action header")
        action_type, length = struct.unpack_from("!HH", data, offset)
        expected = _ACTION_LENGTHS.get(action_type)
        if expected is None:
            raise WireError("unknown action type %d" % action_type)
        if length != expected or offset + length > len(data):
            raise WireError("action type %d is %d bytes, not %d"
                            % (action_type, expected, length))
        body = data[offset + 4: offset + length]
        if action_type == OFPAT_OUTPUT:
            port, _max_len = struct.unpack("!HH", body)
            actions.append(Output(port))
        else:  # OFPAT_GROUP
            actions.append(Group(struct.unpack("!I", body)[0]))
        offset += length
    return actions


# -- message framing -------------------------------------------------------


def _header(msg_type: int, xid: int, body_len: int) -> bytes:
    return struct.pack("!BBHI", OFP_VERSION, msg_type, 8 + body_len, xid)


def _port_desc_bytes(desc: msg.PortDescription) -> bytes:
    name = desc.name.encode()[:15]
    return struct.pack("!H6s16sIIIIII", desc.port_no,
                       EthAddr(desc.hw_addr).raw,
                       name + b"\x00" * (16 - len(name)),
                       0, desc.state, 0, 0, 0, 0)


def _unpack_port_desc(data: bytes) -> msg.PortDescription:
    port_no, hw_addr, name, _config, state = struct.unpack_from(
        "!H6s16sII", data)
    return msg.PortDescription(port_no,
                               name.rstrip(b"\x00").decode(),
                               str(EthAddr(hw_addr)), state=state)


def _pack_bucket(bucket: msg.GroupBucket) -> bytes:
    actions = pack_actions(bucket.actions)
    watch = OFPP_ANY_WIRE if bucket.watch_port == \
        msg.GroupBucket.WATCH_NONE else bucket.watch_port
    return struct.pack("!HHII4x", 16 + len(actions), 0, watch,
                       OFPP_ANY_WIRE) + actions


def _unpack_buckets(data: bytes) -> List[msg.GroupBucket]:
    buckets: List[msg.GroupBucket] = []
    offset = 0
    while offset < len(data):
        if len(data) - offset < 16:
            raise WireError("truncated group bucket")
        length, _weight, watch, _watch_group = struct.unpack_from(
            "!HHII", data, offset)
        if length < 16 or offset + length > len(data):
            raise WireError("bad bucket length %d" % length)
        actions = unpack_actions(data[offset + 16: offset + length])
        buckets.append(msg.GroupBucket(
            actions,
            watch_port=msg.GroupBucket.WATCH_NONE
            if watch == OFPP_ANY_WIRE else watch))
        offset += length
    return buckets


def _sec_nsec(duration: float) -> Tuple[int, int]:
    """A duration as OF's (seconds, nanoseconds), rounded to the
    nearest nanosecond (truncation reads 0.127 s as 126,999,999 ns)."""
    return divmod(round(duration * 1e9), 10 ** 9)


def _duration(seconds: int, nanoseconds: int) -> float:
    if nanoseconds >= 10 ** 9:
        raise WireError("duration_nsec %d is a second or more"
                        % nanoseconds)
    return seconds + nanoseconds * 1e-9


def pack_message(message: msg.Message) -> bytes:
    """Serialize one message object to OF 1.0 wire bytes."""
    xid = message.xid
    if isinstance(message, msg.Hello):
        return _header(OFPT_HELLO, xid, 0)
    if isinstance(message, msg.EchoRequest):
        return _header(OFPT_ECHO_REQUEST, xid,
                       len(message.data)) + message.data
    if isinstance(message, msg.EchoReply):
        return _header(OFPT_ECHO_REPLY, xid,
                       len(message.data)) + message.data
    if isinstance(message, msg.FeaturesRequest):
        return _header(OFPT_FEATURES_REQUEST, xid, 0)
    if isinstance(message, msg.FeaturesReply):
        body = struct.pack("!QIB3xII", message.dpid, message.n_buffers,
                           message.n_tables, 0, 0)
        body += b"".join(_port_desc_bytes(desc)
                         for desc in message.ports)
        return _header(OFPT_FEATURES_REPLY, xid, len(body)) + body
    if isinstance(message, msg.PacketIn):
        buffer_id = message.buffer_id if message.buffer_id is not None \
            else NO_BUFFER
        body = struct.pack("!IHHBx", buffer_id, message.total_len,
                           message.in_port, message.reason)
        return _header(OFPT_PACKET_IN, xid,
                       len(body) + len(message.data)) + body + message.data
    if isinstance(message, msg.PacketOut):
        buffer_id = message.buffer_id if message.buffer_id is not None \
            else NO_BUFFER
        in_port = message.in_port if message.in_port is not None \
            else OFPP_NONE_WIRE
        actions = pack_actions(message.actions)
        data = message.data or b""
        body = struct.pack("!IHH", buffer_id, in_port, len(actions))
        return _header(OFPT_PACKET_OUT, xid,
                       len(body) + len(actions) + len(data)) \
            + body + actions + data
    if isinstance(message, msg.FlowMod):
        buffer_id = message.buffer_id if message.buffer_id is not None \
            else NO_BUFFER
        actions = pack_actions(message.actions)
        body = pack_match(message.match)
        body += struct.pack("!QHHHHIHH", message.cookie, message.command,
                            int(message.idle_timeout),
                            int(message.hard_timeout),
                            message.priority, buffer_id,
                            OFPP_NONE_WIRE, message.flags)
        return _header(OFPT_FLOW_MOD, xid, len(body) + len(actions)) \
            + body + actions
    if isinstance(message, msg.GroupMod):
        body = struct.pack("!HBxI", message.command, message.group_type,
                           message.group_id)
        body += b"".join(_pack_bucket(bucket)
                         for bucket in message.buckets)
        return _header(OFPT_GROUP_MOD, xid, len(body)) + body
    if isinstance(message, msg.FlowRemoved):
        duration_sec, duration_nsec = _sec_nsec(message.duration)
        body = pack_match(message.match)
        body += struct.pack("!QHBxIIH2xQQ", message.cookie,
                            message.priority, message.reason,
                            duration_sec, duration_nsec, 0,
                            message.packet_count, message.byte_count)
        return _header(OFPT_FLOW_REMOVED, xid, len(body)) + body
    if isinstance(message, msg.PortStatus):
        body = struct.pack("!B7x", message.reason) \
            + _port_desc_bytes(message.desc)
        return _header(OFPT_PORT_STATUS, xid, len(body)) + body
    if isinstance(message, msg.BarrierRequest):
        return _header(OFPT_BARRIER_REQUEST, xid, 0)
    if isinstance(message, msg.BarrierReply):
        return _header(OFPT_BARRIER_REPLY, xid, 0)
    if isinstance(message, msg.FlowStatsRequest):
        body = struct.pack("!HH", OFPST_FLOW, 0)
        body += pack_match(message.match)
        body += struct.pack("!BxH", 0xFF, OFPP_NONE_WIRE)
        return _header(OFPT_STATS_REQUEST, xid, len(body)) + body
    if isinstance(message, msg.PortStatsRequest):
        port_no = message.port_no if message.port_no is not None \
            else OFPP_NONE_WIRE
        body = struct.pack("!HHH6x", OFPST_PORT, 0, port_no)
        return _header(OFPT_STATS_REQUEST, xid, len(body)) + body
    if isinstance(message, msg.FlowStatsReply):
        body = struct.pack("!HH", OFPST_FLOW, 0)
        for stat in message.stats:
            actions = pack_actions(stat.actions)
            duration_sec, duration_nsec = _sec_nsec(stat.duration)
            entry = struct.pack("!HBx", 88 + len(actions), 0)
            entry += pack_match(stat.match)
            entry += struct.pack("!IIHHH6xQQQ", duration_sec,
                                 duration_nsec, stat.priority, 0, 0,
                                 stat.cookie, stat.packet_count,
                                 stat.byte_count)
            body += entry + actions
        return _header(OFPT_STATS_REPLY, xid, len(body)) + body
    if isinstance(message, msg.PortStatsReply):
        body = struct.pack("!HH", OFPST_PORT, 0)
        for stat in message.stats:
            body += struct.pack("!H6xQQQQQQQQQQQQ", stat.port_no,
                                stat.rx_packets, stat.tx_packets,
                                stat.rx_bytes, stat.tx_bytes,
                                stat.rx_dropped, stat.tx_dropped,
                                0, 0, 0, 0, 0, 0)
        return _header(OFPT_STATS_REPLY, xid, len(body)) + body
    if isinstance(message, msg.ErrorMessage):
        body = struct.pack("!HH", message.error_type, message.code) \
            + message.data
        return _header(OFPT_ERROR, xid, len(body)) + body
    raise WireError("cannot serialize %r" % message)


def unpack_message(data: bytes) -> msg.Message:
    """Parse OF 1.0 wire bytes back into a message object.  Bytes that
    are no message — a body too short for its type, a field out of its
    range, a port name that is not UTF-8 — raise :class:`WireError`."""
    try:
        return _unpack_message(data)
    except (struct.error, ValueError) as exc:
        raise WireError("malformed message: %s" % exc) from exc


def _unpack_message(data: bytes) -> msg.Message:
    if len(data) < 8:
        raise WireError("message shorter than the OF header")
    version, msg_type, length, xid = struct.unpack_from("!BBHI", data)
    if version != OFP_VERSION:
        raise WireError("unsupported OF version %#x" % version)
    if length != len(data):
        raise WireError("length field %d != buffer %d"
                        % (length, len(data)))
    body = data[8:]
    if msg_type == OFPT_HELLO:
        return msg.Hello(xid=xid)
    if msg_type == OFPT_ECHO_REQUEST:
        return msg.EchoRequest(body, xid=xid)
    if msg_type == OFPT_ECHO_REPLY:
        return msg.EchoReply(body, xid=xid)
    if msg_type == OFPT_FEATURES_REQUEST:
        return msg.FeaturesRequest(xid=xid)
    if msg_type == OFPT_FEATURES_REPLY:
        dpid, n_buffers, n_tables = struct.unpack_from("!QIB", body)
        ports = []
        offset = 24
        while offset + 48 <= len(body):
            ports.append(_unpack_port_desc(body[offset:offset + 48]))
            offset += 48
        return msg.FeaturesReply(dpid, ports, n_buffers, n_tables,
                                 xid=xid)
    if msg_type == OFPT_PACKET_IN:
        buffer_id, total_len, in_port, reason = struct.unpack_from(
            "!IHHB", body)
        payload = body[10:]
        return msg.PacketIn(
            None if buffer_id == NO_BUFFER else buffer_id,
            in_port, payload, reason, total_len=total_len, xid=xid)
    if msg_type == OFPT_PACKET_OUT:
        buffer_id, in_port, actions_len = struct.unpack_from("!IHH", body)
        actions = unpack_actions(body[8:8 + actions_len])
        payload = body[8 + actions_len:]
        return msg.PacketOut(
            actions,
            data=payload if payload else None,
            buffer_id=None if buffer_id == NO_BUFFER else buffer_id,
            in_port=None if in_port == OFPP_NONE_WIRE else in_port,
            xid=xid)
    if msg_type == OFPT_FLOW_MOD:
        match = unpack_match(body[:40])
        (cookie, command, idle_timeout, hard_timeout, priority,
         buffer_id, _out_port, flags) = struct.unpack_from(
            "!QHHHHIHH", body, 40)
        actions = unpack_actions(body[64:])
        return msg.FlowMod(match, actions, command, priority,
                           float(idle_timeout), float(hard_timeout),
                           cookie, flags,
                           None if buffer_id == NO_BUFFER else buffer_id,
                           xid=xid)
    if msg_type == OFPT_GROUP_MOD:
        if len(body) < 8:
            raise WireError("group mod body requires 8 bytes, got %d"
                            % len(body))
        command, group_type, group_id = struct.unpack_from("!HBxI", body)
        return msg.GroupMod(command, group_id, group_type,
                            _unpack_buckets(body[8:]), xid=xid)
    if msg_type == OFPT_FLOW_REMOVED:
        match = unpack_match(body[:40])
        (cookie, priority, reason, duration_sec, duration_nsec,
         _idle, packet_count, byte_count) = struct.unpack_from(
            "!QHBxIIH2xQQ", body, 40)
        return msg.FlowRemoved(match, cookie, priority, reason,
                               _duration(duration_sec, duration_nsec),
                               packet_count, byte_count, xid=xid)
    if msg_type == OFPT_PORT_STATUS:
        reason = struct.unpack_from("!B", body)[0]
        desc = _unpack_port_desc(body[8:56])
        return msg.PortStatus(reason, desc, xid=xid)
    if msg_type == OFPT_BARRIER_REQUEST:
        return msg.BarrierRequest(xid=xid)
    if msg_type == OFPT_BARRIER_REPLY:
        return msg.BarrierReply(xid=xid)
    if msg_type == OFPT_STATS_REQUEST:
        stats_type = struct.unpack_from("!H", body)[0]
        if stats_type == OFPST_FLOW:
            return msg.FlowStatsRequest(unpack_match(body[4:44]),
                                        xid=xid)
        if stats_type == OFPST_PORT:
            port_no = struct.unpack_from("!H", body, 4)[0]
            return msg.PortStatsRequest(
                None if port_no == OFPP_NONE_WIRE else port_no, xid=xid)
        raise WireError("unknown stats request type %d" % stats_type)
    if msg_type == OFPT_STATS_REPLY:
        stats_type = struct.unpack_from("!H", body)[0]
        if stats_type == OFPST_FLOW:
            return _unpack_flow_stats_reply(body[4:], xid)
        if stats_type == OFPST_PORT:
            return _unpack_port_stats_reply(body[4:], xid)
        raise WireError("unknown stats reply type %d" % stats_type)
    if msg_type == OFPT_ERROR:
        error_type, code = struct.unpack_from("!HH", body)
        return msg.ErrorMessage(error_type, code, body[4:], xid=xid)
    raise WireError("unknown message type %d" % msg_type)


def _unpack_flow_stats_reply(body: bytes, xid: int) -> msg.FlowStatsReply:
    stats = []
    offset = 0
    while offset + 88 <= len(body):
        entry_len = struct.unpack_from("!H", body, offset)[0]
        if entry_len < 88 or offset + entry_len > len(body):
            raise WireError("bad flow stats entry length %d" % entry_len)
        match = unpack_match(body[offset + 4: offset + 44])
        (duration_sec, duration_nsec, priority, _idle, _hard, cookie,
         packet_count, byte_count) = struct.unpack_from(
            "!IIHHH6xQQQ", body, offset + 44)
        actions = unpack_actions(body[offset + 88: offset + entry_len])
        stats.append(msg.FlowStats(
            match, priority, cookie,
            _duration(duration_sec, duration_nsec),
            packet_count, byte_count, actions))
        offset += entry_len
    return msg.FlowStatsReply(stats, xid=xid)


def _unpack_port_stats_reply(body: bytes, xid: int) -> msg.PortStatsReply:
    stats = []
    offset = 0
    while offset + 104 <= len(body):
        (port_no, rx_packets, tx_packets, rx_bytes, tx_bytes,
         rx_dropped, tx_dropped) = struct.unpack_from(
            "!H6xQQQQQQ", body, offset)
        stats.append(msg.PortStats(port_no, rx_packets, tx_packets,
                                   rx_bytes, tx_bytes, rx_dropped,
                                   tx_dropped))
        offset += 104
    return msg.PortStatsReply(stats, xid=xid)
