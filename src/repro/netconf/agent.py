"""The VNF-container NETCONF agent (OpenYuma analog).

Wires the :data:`~repro.netconf.vnf_yang.VNF_YANG` model to a
:class:`~repro.netem.vnf.VNFContainer`: every RPC input is validated
against the YANG schema, then executed by the container's
instrumentation methods.  Migrating to a real platform would swap only
those instrumentation calls — the point the paper makes about its agent
design.
"""

import xml.etree.ElementTree as ET
from typing import List, Optional

from repro.click.element import HandlerError
from repro.click.errors import ClickError
from repro.netconf.errors import RpcError
from repro.netconf.messages import CAP_BASE_10, CAP_BASE_11, local_name, qn
from repro.netconf.server import NetconfServer
from repro.netconf.transport import InMemoryTransport
from repro.netconf.vnf_yang import VNF_NS, VNF_YANG
from repro.netconf.yang import ValidationError, compile_module, parse_yang
from repro.netem.resources import ResourceError
from repro.netem.vnf import VNFContainer

CAP_VNF = "urn:escape:capability:vnf:1.0"


class VNFAgent:
    """NETCONF agent managing one VNF container."""

    module = compile_module(parse_yang(VNF_YANG))  # read-only, shared

    def __init__(self, container: VNFContainer,
                 transport: InMemoryTransport):
        self.container = container
        self.server = NetconfServer(
            transport,
            capabilities=[CAP_BASE_10, CAP_BASE_11, CAP_VNF,
                          self.module.namespace])
        for rpc_name in self.module.rpcs:
            self.server.register_rpc(
                rpc_name,
                lambda op, name=rpc_name: self._invoke(name, op))
        telemetry = transport.sim.telemetry
        metrics = telemetry.metrics
        self._m_rpcs = metrics.counter(
            "netconf.agent.rpcs", "custom RPCs handled by VNF agents")
        self._m_rpc_errors = metrics.counter(
            "netconf.agent.rpc_errors",
            "agent RPCs rejected (validation or operation failure)")
        self._profiler = telemetry.profiler

    # -- rpc execution ----------------------------------------------------

    def _invoke(self, name: str,
                operation: ET.Element) -> Optional[List[ET.Element]]:
        profiler = self._profiler
        if profiler.enabled:
            with profiler.profile("netconf.rpc.dispatch"):
                return self._invoke_timed(name, operation)
        return self._invoke_timed(name, operation)

    def _invoke_timed(self, name: str,
                      operation: ET.Element) -> Optional[List[ET.Element]]:
        self._m_rpcs.inc()
        try:
            self.module.validate_rpc_input(name, operation)
        except ValidationError as exc:
            self._m_rpc_errors.inc()
            raise RpcError(error_type="application", tag="invalid-value",
                           message=str(exc))
        params = {local_name(child.tag): (child.text or "").strip()
                  for child in operation}
        try:
            return getattr(self, "_rpc_%s" % name)(params)
        except (ValueError, ResourceError, HandlerError,
                ClickError) as exc:
            self._m_rpc_errors.inc()
            raise RpcError(error_type="application",
                           tag="operation-failed", message=str(exc))

    def _rpc_startVNF(self, params) -> List[ET.Element]:
        devices = [dev.strip()
                   for dev in params.get("devices", "").split(",")
                   if dev.strip()]
        process = self.container.start_vnf(
            params["id"], params["click-config"], devices,
            cpu=float(params.get("cpu", 0.5)),
            mem=float(params.get("mem", 256.0)))
        status = ET.Element(qn("status", VNF_NS))
        status.text = process.status
        return [status]

    def _rpc_stopVNF(self, params) -> None:
        self.container.stop_vnf(params["id"])
        return None

    def _rpc_connectVNF(self, params) -> None:
        self.container.connect_vnf(params["id"], params["device"],
                                   params["interface"])
        return None

    def _rpc_disconnectVNF(self, params) -> None:
        self.container.disconnect_vnf(params["id"], params["device"])
        return None

    def _rpc_getVNFInfo(self, params) -> List[ET.Element]:
        process = self.container.get_vnf(params["id"])
        value = ET.Element(qn("value", VNF_NS))
        value.text = process.read_handler(params["handler"])
        return [value]

    def _rpc_listHandlers(self, params) -> List[ET.Element]:
        process = self.container.get_vnf(params["id"])
        lines = []
        for element_name, (reads, _writes) in sorted(
                process.handlers().items()):
            for handler in reads:
                lines.append("%s.%s" % (element_name, handler))
        value = ET.Element(qn("handlers", VNF_NS))
        value.text = "\n".join(lines)
        return [value]

    def _rpc_writeVNFHandler(self, params) -> None:
        process = self.container.get_vnf(params["id"])
        process.write_handler(params["handler"], params["value"])
        return None

    def __repr__(self) -> str:
        return "VNFAgent(%s, session=%d)" % (self.container.name,
                                             self.server.session_id)
