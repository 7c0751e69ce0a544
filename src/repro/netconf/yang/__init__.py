"""YANG data modeling subset.

The paper: "The operation of the agent is described by the YANG data
modeling language".  This package parses YANG module text into a schema
and validates RPC input payloads against it.

Supported statements: ``module`` (namespace, prefix), ``typedef``,
``container``, ``list`` (+ ``key``), ``leaf``, ``leaf-list``, ``type``
(builtin integer family, string [+ length], boolean, enumeration,
decimal64, union-as-any), ``rpc`` (+ ``input``/``output``),
``mandatory``, ``default``, ``description``, ``range``.
"""

from repro.netconf.yang.model import (Container, Leaf, LeafList, ListNode,
                                      Module, Rpc, ValidationError,
                                      compile_module)
from repro.netconf.yang.parser import Statement, YangSyntaxError, parse_yang

__all__ = [
    "Container",
    "Leaf",
    "LeafList",
    "ListNode",
    "Module",
    "Rpc",
    "Statement",
    "ValidationError",
    "YangSyntaxError",
    "compile_module",
    "parse_yang",
]
