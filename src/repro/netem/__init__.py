"""Mininet-analog network emulator.

The paper's infrastructure layer is Mininet: hosts, OpenFlow switches
and (ESCAPE's extension) VNF containers, connected by shaped veth
links, all "in a laptop".  This package reproduces that layer on the
discrete-event simulator:

* :class:`Network` — the ``Mininet`` object: ``add_host`` /
  ``add_switch`` / ``add_vnf_container`` / ``add_link`` / ``start`` /
  ``ping_all``,
* :class:`Host` — a node with a tiny IP stack (ARP, ICMP ping, UDP),
* :class:`Switch` — a node wrapping an OpenFlow datapath,
* :class:`VNFContainer` — ESCAPE's managed node: hosts Click VNFs under
  cgroup-style CPU/memory budgets, with a management port for the
  NETCONF agent,
* :class:`Link` — bandwidth/delay/loss shaping like Mininet's TCLink,
* :mod:`~repro.netem.topo` — ``Topo`` builders (single, linear, tree),
* :mod:`~repro.netem.traffic` — ping / iperf / tcpdump equivalents,
* :class:`~repro.netem.cli.CLI` — the Mininet-style command console.
"""

from repro.netem.interface import Interface
from repro.netem.link import Link
from repro.netem.net import Network, NetworkError
from repro.netem.node import Host, Node, Switch
from repro.netem.recorder import (FlightRecorder, LinkTap, RecorderError,
                                  TapRecord)
from repro.netem.resources import ResourceBudget, ResourceError
from repro.netem.topo import LinearTopo, SingleSwitchTopo, Topo, TreeTopo
from repro.netem.traffic import PingResult, TrafficReport
from repro.netem.vnf import VNFContainer, VNFProcess
from repro.netem.cli import CLI

__all__ = [
    "CLI",
    "FlightRecorder",
    "Host",
    "Interface",
    "LinearTopo",
    "Link",
    "LinkTap",
    "Network",
    "NetworkError",
    "Node",
    "RecorderError",
    "TapRecord",
    "PingResult",
    "ResourceBudget",
    "ResourceError",
    "SingleSwitchTopo",
    "Switch",
    "Topo",
    "TrafficReport",
    "TreeTopo",
    "VNFContainer",
    "VNFProcess",
]
