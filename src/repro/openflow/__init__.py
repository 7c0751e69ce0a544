"""OpenFlow 1.0 subset.

The emulated infrastructure's switches are OpenFlow datapaths (the
paper's Open vSwitch), programmed by the POX-analog controller through
:class:`ControllerChannel`.  Messages are Python objects rather than the
OF wire format — the channel is in-process — but the *semantics*
(12-tuple match with wildcards, priority tables, idle/hard timeouts,
packet-in/packet-out, flow-removed, stats) follow OF 1.0, which is what
the paper's steering module programs against.
"""

from repro.openflow.actions import Action, Group, Output
from repro.openflow.channel import ChannelError, ControllerChannel
from repro.openflow.flowtable import (FlowEntry, FlowTable, GroupEntry,
                                      GroupError, GroupTable)
from repro.openflow.match import Match
from repro.openflow.messages import (BarrierReply, BarrierRequest,
                                     EchoReply, EchoRequest,
                                     FeaturesReply, FeaturesRequest,
                                     FlowMod, FlowRemoved, FlowStatsReply,
                                     FlowStatsRequest, GroupBucket,
                                     GroupMod, Hello, Message,
                                     PacketIn, PacketOut, PortDescription,
                                     PortStatsReply, PortStatsRequest,
                                     PortStatus)
from repro.openflow.switch import (OFPP_ALL, OFPP_CONTROLLER, OFPP_FLOOD,
                                   OFPP_IN_PORT, OFPP_LOCAL, OFPP_NONE,
                                   OpenFlowSwitch, SwitchPort)

__all__ = [
    "Action",
    "BarrierReply",
    "BarrierRequest",
    "ChannelError",
    "ControllerChannel",
    "EchoReply",
    "EchoRequest",
    "FeaturesReply",
    "FeaturesRequest",
    "FlowEntry",
    "FlowMod",
    "FlowRemoved",
    "FlowStatsReply",
    "FlowStatsRequest",
    "FlowTable",
    "Group",
    "GroupBucket",
    "GroupEntry",
    "GroupError",
    "GroupMod",
    "GroupTable",
    "Hello",
    "Match",
    "Message",
    "OFPP_ALL",
    "OFPP_CONTROLLER",
    "OFPP_FLOOD",
    "OFPP_IN_PORT",
    "OFPP_LOCAL",
    "OFPP_NONE",
    "OpenFlowSwitch",
    "Output",
    "PacketIn",
    "PacketOut",
    "PortDescription",
    "PortStatsReply",
    "PortStatsRequest",
    "PortStatus",
    "SwitchPort",
]
