"""NETCONF + YANG management stack (the OpenYuma analog).

The paper manages VNF containers through NETCONF: an agent on each
container exposes RPCs — described in YANG, implemented by "low-level
instrumentation codes" — that the orchestrator's NETCONF client calls
to start/stop VNFs and connect/disconnect them to/from switches.

This package implements the protocol subset that workflow needs, and
no more:

* RFC 6242 framing (end-of-message and chunked) over an in-memory
  latency-modelled transport (the SSH substitution); bytes that break
  the framing end the session, never the simulation,
* hello/capability exchange, ``close-session`` and dispatch of the
  YANG-validated custom RPCs with proper ``rpc-reply`` / ``rpc-error``
  envelopes (:mod:`~repro.netconf.messages`); any other operation
  (``get``, ``edit-config``, ...) is answered
  ``operation-not-supported`` — there is no configuration datastore,
* a YANG subset parser + RPC input validator
  (:mod:`repro.netconf.yang`),
* the VNF-container agent and its YANG module
  (:mod:`~repro.netconf.agent`, :data:`~repro.netconf.vnf_yang.VNF_YANG`),
* the orchestrator-side client (:mod:`~repro.netconf.client`).
"""

from repro.netconf.agent import VNFAgent
from repro.netconf.client import NetconfClient, PendingReply
from repro.netconf.errors import (FramingError, NetconfError, RpcError,
                                  RpcTimeout, SessionError)
from repro.netconf.framing import (ChunkedFramer, EomFramer)
from repro.netconf.messages import (BASE_NS, build_hello, build_rpc,
                                    build_rpc_error, build_rpc_reply,
                                    parse_message, to_xml, from_xml)
from repro.netconf.server import NetconfServer
from repro.netconf.transport import InMemoryTransport, TransportPair
from repro.netconf.vnf_yang import VNF_YANG

__all__ = [
    "BASE_NS",
    "ChunkedFramer",
    "EomFramer",
    "FramingError",
    "InMemoryTransport",
    "NetconfClient",
    "NetconfError",
    "NetconfServer",
    "PendingReply",
    "RpcError",
    "RpcTimeout",
    "SessionError",
    "TransportPair",
    "VNFAgent",
    "VNF_YANG",
    "build_hello",
    "build_rpc",
    "build_rpc_error",
    "build_rpc_reply",
    "from_xml",
    "parse_message",
    "to_xml",
]
