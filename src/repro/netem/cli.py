"""Mininet-style command console over a Network.

``CLI(net).run_command("pingall")`` returns the textual output, and
``CLI(net).interact()`` reads from stdin — which is what the
interactive example uses.  Commands mirror the Mininet console the
paper's users would drive during demo steps (1) and (4).
"""

import shlex
from typing import Callable, Dict, List, Optional

from repro.netem.node import Host, Switch
from repro.netem.vnf import VNFContainer


class CLI:
    """Dispatch textual commands against a :class:`Network`."""

    def __init__(self, net):
        self.net = net
        self.commands: Dict[str, Callable[[List[str]], str]] = {
            "help": self._cmd_help,
            "nodes": self._cmd_nodes,
            "net": self._cmd_net,
            "links": self._cmd_links,
            "dump": self._cmd_dump,
            "pingall": self._cmd_pingall,
            "ping": self._cmd_ping,
            "flows": self._cmd_flows,
            "vnfs": self._cmd_vnfs,
            "resources": self._cmd_resources,
        }

    def run_command(self, line: str) -> str:
        """Execute one command line; returns its output (or an error)."""
        try:
            # a malformed line (an unclosed quote) is an error like any
            # other failing command
            parts = shlex.split(line.strip())
            if not parts:
                return ""
            command, args = parts[0], parts[1:]
            handler = self.commands.get(command)
            if handler is None:
                return "*** Unknown command: %s (try 'help')" % command
            return handler(args)
        except Exception as exc:  # surfaced, not swallowed: CLI UX
            return "*** Error: %s" % exc

    def interact(self, input_fn=input, output_fn=print) -> None:
        """Simple REPL; 'exit'/'quit' leaves."""
        output_fn("*** ESCAPE console (type 'help')")
        while True:
            try:
                line = input_fn("escape> ")
            except EOFError:
                break
            if line.strip() in ("exit", "quit"):
                break
            output = self.run_command(line)
            if output:
                output_fn(output)

    # -- commands ---------------------------------------------------------

    def _cmd_help(self, args: List[str]) -> str:
        return "Commands: " + " ".join(sorted(self.commands))

    def _cmd_nodes(self, args: List[str]) -> str:
        return "available nodes are:\n" + " ".join(sorted(self.net.nodes))

    def _cmd_net(self, args: List[str]) -> str:
        lines = []
        for name, node in sorted(self.net.nodes.items()):
            peers = []
            for link in self.net.links_of(node):
                local = (link.intf1 if link.intf1.node is node
                         else link.intf2)
                remote = link.other_end(local)
                peers.append("%s:%s" % (remote.node.name, remote.name))
            lines.append("%s %s" % (name, " ".join(peers)))
        return "\n".join(lines)

    def _cmd_links(self, args: List[str]) -> str:
        return "\n".join(repr(link) for link in self.net.links)

    def _cmd_dump(self, args: List[str]) -> str:
        return "\n".join(repr(node)
                         for _name, node in sorted(self.net.nodes.items()))

    def _cmd_pingall(self, args: List[str]) -> str:
        sent, received = self.net.ping_all()
        dropped = 0.0 if sent == 0 else 100.0 * (sent - received) / sent
        return ("*** Results: %.0f%% dropped (%d/%d received)"
                % (dropped, received, sent))

    def _cmd_ping(self, args: List[str]) -> str:
        if len(args) < 2:
            return "usage: ping <src-host> <dst-host> [count]"
        src = self.net.get(args[0])
        dst = self.net.get(args[1])
        if not isinstance(src, Host) or not isinstance(dst, Host):
            return "*** ping needs two hosts"
        count = int(args[2]) if len(args) > 2 else 3
        result = src.ping(dst.ip, count=count)
        self.net.run(count * 1.0 + 2.0)
        return result.summary()

    def _cmd_flows(self, args: List[str]) -> str:
        lines = []
        for switch in self.net.switches():
            if args and switch.name not in args:
                continue
            lines.append("=== %s (dpid %d) ===" % (switch.name, switch.dpid))
            for entry in switch.datapath.table.entries:
                lines.append("  %r" % entry)
        return "\n".join(lines)

    def _cmd_vnfs(self, args: List[str]) -> str:
        lines = []
        for container in self.net.vnf_containers():
            lines.append("=== %s ===" % container.name)
            for vnf_id, info in sorted(container.status_report().items()):
                lines.append("  %s: %s cpu=%.2f mem=%.0f uptime=%.2fs"
                             % (vnf_id, info["status"], info["cpu"],
                                info["mem"], info["uptime"]))
        return "\n".join(lines) or "no VNF containers"

    def _cmd_resources(self, args: List[str]) -> str:
        lines = []
        for container in self.net.vnf_containers():
            snap = container.budget.snapshot()
            lines.append("%s: cpu %.2f/%.2f mem %.0f/%.0f"
                         % (container.name, snap["cpu_used"],
                            snap["cpu_capacity"], snap["mem_used"],
                            snap["mem_capacity"]))
        return "\n".join(lines) or "no VNF containers"
