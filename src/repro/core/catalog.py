"""The VNF catalog: named, parameterized Click configurations.

"ESCAPE also contains a VNF catalog, which is a built-in set of useful
VNFs implemented in Click."  Every entry renders to a complete Click
config with ``FromDevice(in0) ... ToDevice(out0)`` splices and standard
``cnt_in``/``cnt_out`` counters (the handlers the monitor reads), so
any catalog VNF drops into a chain as a bump in the wire.
"""

import re
from typing import Dict, List, Optional


class CatalogError(Exception):
    pass


class CatalogEntry:
    """One VNF type.

    ``template`` is a Click config with ``{param}`` placeholders;
    ``defaults`` supplies optional parameter values; ``devices`` lists
    the virtual interfaces the rendered config splices to;
    ``monitor_handlers`` names the handler paths worth watching.
    """

    def __init__(self, name: str, description: str, template: str,
                 devices: Optional[List[str]] = None,
                 defaults: Optional[Dict[str, str]] = None,
                 cpu: float = 0.5, mem: float = 128.0,
                 monitor_handlers: Optional[List[str]] = None):
        self.name = name
        self.description = description
        self.template = template
        self.devices = list(devices or ["in0", "out0"])
        self.defaults = dict(defaults or {})
        self.cpu = cpu
        self.mem = mem
        self.monitor_handlers = list(monitor_handlers
                                     or ["cnt_in.count", "cnt_out.count"])

    def parameters(self) -> List[str]:
        """Placeholder names appearing in the template."""
        return sorted(set(re.findall(r"\{(\w+)\}", self.template)))

    def render(self, params: Optional[Dict[str, str]] = None) -> str:
        """Fill the template; missing parameters raise CatalogError."""
        values = dict(self.defaults)
        values.update(params or {})
        missing = [name for name in self.parameters()
                   if name not in values]
        if missing:
            raise CatalogError("VNF %r needs parameters: %s"
                               % (self.name, ", ".join(missing)))
        return self.template.format(**values)

    def __repr__(self) -> str:
        return "CatalogEntry(%s)" % self.name


class VNFCatalog:
    """Named collection of catalog entries."""

    def __init__(self):
        self._entries: Dict[str, CatalogEntry] = {}

    def register(self, entry: CatalogEntry) -> CatalogEntry:
        if entry.name in self._entries:
            raise CatalogError("VNF type %r already in catalog"
                               % entry.name)
        self._entries[entry.name] = entry
        return entry

    def get(self, name: str) -> CatalogEntry:
        entry = self._entries.get(name)
        if entry is None:
            raise CatalogError("no VNF type %r in catalog (have: %s)"
                               % (name, ", ".join(sorted(self._entries))))
        return entry

    def names(self) -> List[str]:
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __repr__(self) -> str:
        return "VNFCatalog(%s)" % ", ".join(self.names())


def default_catalog() -> VNFCatalog:
    """The built-in VNF set the paper's demo picks from."""
    catalog = VNFCatalog()

    catalog.register(CatalogEntry(
        "forwarder",
        "Transparent L2 forwarder (the simplest bump in the wire).",
        "FromDevice(in0) -> cnt_in :: Counter"
        " -> cnt_out :: Counter -> ToDevice(out0);",
        cpu=0.1, mem=32.0))

    catalog.register(CatalogEntry(
        "forwarder_bidir",
        "Bidirectional transparent forwarder: traffic entering either "
        "device leaves the other, so chains built from it can carry "
        "reply traffic in reverse (return_path='chain').",
        "FromDevice(in0) -> cnt_in :: Counter -> ToDevice(out0);"
        " FromDevice(out0) -> cnt_rev :: Counter -> ToDevice(in0);",
        cpu=0.15, mem=48.0,
        monitor_handlers=["cnt_in.count", "cnt_rev.count"]))

    catalog.register(CatalogEntry(
        "firewall",
        "Stateless IP firewall; {rules} is an IPFilter rule list.",
        "FromDevice(in0) -> cnt_in :: Counter"
        " -> fw :: IPFilter({rules})"
        " -> cnt_out :: Counter -> ToDevice(out0);",
        defaults={"rules": "allow all"},
        cpu=0.5, mem=128.0,
        monitor_handlers=["cnt_in.count", "cnt_out.count",
                          "fw.passed", "fw.dropped"]))

    catalog.register(CatalogEntry(
        "nat",
        "Source NAT to {nat_ip} (bidirectional: in0/out0 outbound, "
        "in1/out1 inbound).",
        "FromDevice(in0) -> cnt_in :: Counter"
        " -> [0]rw :: IPRewriter({nat_ip});"
        " rw[0] -> cnt_out :: Counter -> ToDevice(out0);"
        " FromDevice(in1) -> cnt_rin :: Counter -> [1]rw;"
        " rw[1] -> cnt_rout :: Counter -> ToDevice(out1);",
        devices=["in0", "out0", "in1", "out1"],
        cpu=0.7, mem=256.0,
        monitor_handlers=["cnt_in.count", "cnt_out.count", "rw.mappings"]))

    catalog.register(CatalogEntry(
        "dpi",
        "Signature matcher; {signatures} is a comma-separated pattern "
        "list.  Matches are counted and dropped, clean traffic passes.",
        "FromDevice(in0) -> cnt_in :: Counter"
        " -> dpi :: StringMatcher({signatures});"
        " dpi[0] -> matched :: Counter -> Discard;"
        " dpi[1] -> cnt_out :: Counter -> ToDevice(out0);",
        defaults={"signatures": "\"EVIL\""},
        cpu=1.0, mem=512.0,
        monitor_handlers=["cnt_in.count", "cnt_out.count",
                          "matched.count", "dpi.total"]))

    catalog.register(CatalogEntry(
        "rate_limiter",
        "Packet-rate limiter at {rate} packets/second.",
        "FromDevice(in0) -> cnt_in :: Counter -> q :: Queue(200)"
        " -> sh :: Shaper({rate}) -> uq :: Unqueue"
        " -> cnt_out :: Counter -> ToDevice(out0);",
        defaults={"rate": "1000"},
        cpu=0.3, mem=64.0,
        monitor_handlers=["cnt_in.count", "cnt_out.count", "q.drops",
                          "sh.rate"]))

    catalog.register(CatalogEntry(
        "delay",
        "Fixed {delay}-second latency stage (WAN emulator).",
        "FromDevice(in0) -> cnt_in :: Counter"
        " -> dq :: DelayQueue({delay}, 2000) -> uq :: Unqueue"
        " -> cnt_out :: Counter -> ToDevice(out0);",
        defaults={"delay": "0.01"},
        cpu=0.2, mem=64.0))

    catalog.register(CatalogEntry(
        "monitor",
        "Pure measurement tap: per-protocol counters.",
        "FromDevice(in0) -> cnt_in :: Counter"
        " -> cl :: IPClassifier(tcp, udp, icmp, -);"
        " cl[0] -> tcp :: Counter -> j :: Tee;"
        " cl[1] -> udp :: Counter -> j;"
        " cl[2] -> icmp :: Counter -> j;"
        " cl[3] -> other :: Counter -> j;"
        " j -> cnt_out :: Counter -> ToDevice(out0);",
        cpu=0.2, mem=64.0,
        monitor_handlers=["cnt_in.count", "tcp.count", "udp.count",
                          "icmp.count", "other.count"]))

    catalog.register(CatalogEntry(
        "load_balancer",
        "Round-robin spread over two output devices.",
        "FromDevice(in0) -> cnt_in :: Counter -> rr :: RoundRobinSwitch;"
        " rr[0] -> cnt_a :: Counter -> ToDevice(out0);"
        " rr[1] -> cnt_b :: Counter -> ToDevice(out1);",
        devices=["in0", "out0", "out1"],
        cpu=0.4, mem=128.0,
        monitor_handlers=["cnt_in.count", "cnt_a.count", "cnt_b.count"]))

    return catalog
