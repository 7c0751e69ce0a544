"""Audit what the switches hold, not what the controller believes."""

from repro.openflow import Match
from repro.packet import Ethernet, IPv4


def udp_flowspec(escape, port, src="h1", dst="h2"):
    """A chain flowspec of its own: UDP from ``src`` to ``dst`` port
    ``port``.  Chains between one host pair coexist only on distinct
    flowspecs (steering refuses an entry another path holds)."""
    return Match(dl_type=Ethernet.IP_TYPE, nw_src=escape.net.get(src).ip,
                 nw_dst=escape.net.get(dst).ip,
                 nw_proto=IPv4.UDP_PROTOCOL, tp_dst=port)


def audit_tables(escape):
    """The steering entries missing from their switch's flow table.

    Every entry of every installed path must sit in its switch's table
    with the same match, priority and actions.  Returns one
    ``(path_id, dpid, flow_mod)`` per entry that does not; an empty
    list means the tables hold every path.  Run the simulator first:
    a FlowMod sent but not yet delivered is missing.
    """
    tables = {switch.datapath.dpid: switch.datapath.table
              for switch in escape.net.switches()}
    missing = []
    for path_id, installed in escape.steering.paths.items():
        for dpid, flow_mod in installed.flow_mods:
            if not any(entry.match == flow_mod.match
                       and entry.priority == flow_mod.priority
                       and entry.actions == flow_mod.actions
                       for entry in tables[dpid].entries):
                missing.append((path_id, dpid, flow_mod))
    return missing
