"""NETCONF XML message construction and parsing (RFC 6241 envelopes)."""

import xml.etree.ElementTree as ET
from typing import List, Optional, Tuple, Union

from repro.netconf.errors import NetconfError, RpcError

BASE_NS = "urn:ietf:params:xml:ns:netconf:base:1.0"
CAP_BASE_10 = "urn:ietf:params:netconf:base:1.0"
CAP_BASE_11 = "urn:ietf:params:netconf:base:1.1"


def qn(tag: str, ns: str = BASE_NS) -> str:
    """Qualified tag name in Clark notation."""
    return "{%s}%s" % (ns, tag)


def local_name(tag: str) -> str:
    """Strip the namespace from a Clark-notation tag."""
    return tag.rsplit("}", 1)[-1]


class _NotPlain(Exception):
    """The tree has a feature :func:`to_xml` leaves to ElementTree."""


# ElementTree's own escape rules and its registry of well-known
# prefixes: read, not re-implemented, so the two serialisers agree on
# every interpreter version
_escape_text = ET._escape_cdata
_escape_attribute = ET._escape_attrib
_known_prefixes = ET._namespace_map


def to_xml(element: ET.Element) -> bytes:
    """The bytes ``ET.tostring(element, encoding="utf-8",
    xml_declaration=True)`` gives, written in one pass for the trees
    this package builds: Clark-qualified tags, unqualified attribute
    names, plain ``str`` attribute values and text, no tails.  Any
    other tree goes to ``ET.tostring`` itself."""
    parts = ["<?xml version='1.0' encoding='utf-8'?>\n"]
    qnames: dict = {}    # Clark tag -> "nsN:local"
    prefixes: dict = {}  # namespace uri -> "nsN", in first-seen order
    try:
        _write_element(element, parts, qnames, prefixes)
    except _NotPlain:
        return ET.tostring(element, encoding="utf-8",
                           xml_declaration=True)
    # every namespace is declared on the root, ordered by prefix *text*
    # (ns10 before ns2); parts[1] is the root's "<nsN:local"
    parts[1] += "".join(
        ' xmlns:%s="%s"' % (prefix, _escape_attribute(uri))
        for uri, prefix in sorted(prefixes.items(),
                                  key=lambda item: item[1]))
    return "".join(parts).encode("utf-8", "xmlcharrefreplace")


def _write_element(element: ET.Element, parts: List[str], qnames: dict,
                   prefixes: dict) -> None:
    tag = element.tag
    text = element.text
    name = qnames.get(tag)
    if name is None:
        if not isinstance(tag, str) or tag[:1] != "{" or "}" not in tag:
            raise _NotPlain
        uri, local = tag[1:].rsplit("}", 1)
        prefix = prefixes.get(uri)
        if prefix is None:
            if uri in _known_prefixes:
                raise _NotPlain
            prefix = prefixes[uri] = "ns%d" % len(prefixes)
        name = qnames[tag] = "%s:%s" % (prefix, local)
    if element.tail or not (text is None or isinstance(text, str)):
        raise _NotPlain
    parts.append("<" + name)
    for key, value in element.items():
        if not (isinstance(key, str) and isinstance(value, str)) \
                or key[:1] == "{":
            raise _NotPlain
        parts.append(' %s="%s"' % (key, _escape_attribute(value)))
    if text or len(element):
        parts.append(">")
        if text:
            parts.append(_escape_text(text))
        for child in element:
            _write_element(child, parts, qnames, prefixes)
        parts.append("</%s>" % name)
    else:
        parts.append(" />")


def from_xml(data: Union[bytes, str]) -> ET.Element:
    """Parse one message; bytes the parser cannot read, an unknown
    declared encoding (``utf-9``) included, are a :class:`NetconfError`."""
    try:
        return ET.fromstring(data)
    except (ET.ParseError, LookupError, ValueError) as exc:
        raise NetconfError("malformed XML: %s" % exc)


# -- message builders ---------------------------------------------------


def build_hello(capabilities: List[str],
                session_id: Optional[int] = None) -> ET.Element:
    hello = ET.Element(qn("hello"))
    caps = ET.SubElement(hello, qn("capabilities"))
    for capability in capabilities:
        ET.SubElement(caps, qn("capability")).text = capability
    if session_id is not None:
        ET.SubElement(hello, qn("session-id")).text = str(session_id)
    return hello


def build_rpc(message_id: int, operation: ET.Element) -> ET.Element:
    rpc = ET.Element(qn("rpc"), {"message-id": str(message_id)})
    rpc.append(operation)
    return rpc


def build_rpc_reply(message_id: int,
                    body: Optional[List[ET.Element]] = None) -> ET.Element:
    reply = ET.Element(qn("rpc-reply"), {"message-id": str(message_id)})
    if body:
        for element in body:
            reply.append(element)
    else:
        ET.SubElement(reply, qn("ok"))
    return reply


def build_rpc_error(message_id: Optional[int],
                    error: RpcError) -> ET.Element:
    attrs = {"message-id": str(message_id)} if message_id is not None else {}
    reply = ET.Element(qn("rpc-reply"), attrs)
    err = ET.SubElement(reply, qn("rpc-error"))
    ET.SubElement(err, qn("error-type")).text = error.error_type
    ET.SubElement(err, qn("error-tag")).text = error.tag
    ET.SubElement(err, qn("error-severity")).text = error.severity
    if error.message:
        ET.SubElement(err, qn("error-message")).text = error.message
    if error.info:
        ET.SubElement(err, qn("error-info")).text = error.info
    return reply


def parse_rpc_error(reply: ET.Element) -> Optional[RpcError]:
    """Extract an RpcError from an rpc-reply, or None when it is ok."""
    err = reply.find(qn("rpc-error"))
    if err is None:
        return None

    def text(tag: str, default: str = "") -> str:
        node = err.find(qn(tag))
        return node.text or default if node is not None else default

    return RpcError(error_type=text("error-type", "application"),
                    tag=text("error-tag", "operation-failed"),
                    severity=text("error-severity", "error"),
                    message=text("error-message"),
                    info=text("error-info") or None)


# -- operation payload builders ------------------------------------------


def build_close_session() -> ET.Element:
    return ET.Element(qn("close-session"))


# -- message classification ------------------------------------------------


def parse_message(data: Union[bytes, str]) -> Tuple[str, ET.Element]:
    """Classify an incoming frame: ("hello"|"rpc"|"rpc-reply", root)."""
    root = from_xml(data)
    kind = local_name(root.tag)
    if kind not in ("hello", "rpc", "rpc-reply"):
        raise NetconfError("unexpected NETCONF message <%s>" % kind)
    return kind, root


def hello_capabilities(hello: ET.Element) -> List[str]:
    return [cap.text or ""
            for cap in hello.findall("%s/%s" % (qn("capabilities"),
                                                qn("capability")))]


def hello_session_id(hello: ET.Element) -> Optional[int]:
    node = hello.find(qn("session-id"))
    if node is None or not node.text:
        return None
    return _integer(node.text, "hello session-id")


def rpc_message_id(rpc: ET.Element) -> int:
    value = rpc.get("message-id")
    if value is None:
        raise NetconfError("rpc without message-id")
    return _integer(value, "rpc message-id")


def _integer(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise NetconfError("%s %r is not an integer" % (what, text))


def rpc_operation(rpc: ET.Element) -> ET.Element:
    children = list(rpc)
    if len(children) != 1:
        raise NetconfError("rpc must contain exactly one operation, got %d"
                           % len(children))
    return children[0]
