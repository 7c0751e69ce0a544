"""The IP classifier: :class:`IPClassifier` routes by a tcpdump-flavoured
expression language, one output per expression, mirroring Click's.  The
same compiler backs :class:`IPFilter`.

Expression grammar (subset of Click's)::

    expr   := or
    or     := and ('or' and)*
    and    := not (('and' | '&&') not)*
    not    := ['not' | '!'] prim
    prim   := '(' expr ')' | primitive
    primitive :=
          'ip' | 'tcp' | 'udp' | 'icmp' | 'arp'
        | ['src'|'dst'] 'host' <ip>
        | ['src'|'dst'] 'net' <ip>/<len>
        | ['src'|'dst'] 'port' <int>
        | 'ip' 'proto' <int>
        | 'icmp' 'type' <int>
        | 'vlan' [<id>]
        | 'all' | 'true' | 'none' | 'false'

``src``/``dst`` omitted means "either side matches".
"""

import re
from typing import Callable, Dict, List, Optional

from repro.click.element import PUSH, Element
from repro.click.errors import ConfigError
from repro.click.packet import ClickPacket
from repro.click.registry import element_class
from repro.packet import ARP, Ethernet, ICMP, IPAddr, IPv4, Vlan

Predicate = Callable[[ClickPacket], bool]


# -- expression compiler -------------------------------------------------

_WORD_RE = re.compile(r"\(|\)|&&|\|\||!|[^\s()!]+")


def _tokenize_expr(text: str) -> List[str]:
    return _WORD_RE.findall(text)


class _ExprParser:
    def __init__(self, tokens: List[str], source: str):
        self.tokens = tokens
        self.pos = 0
        self.source = source

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise ConfigError("truncated filter expression %r" % self.source)
        self.pos += 1
        return token

    def parse(self) -> Predicate:
        pred = self.or_expr()
        if self.peek() is not None:
            raise ConfigError("trailing tokens in filter %r" % self.source)
        return pred

    def or_expr(self) -> Predicate:
        terms = [self.and_expr()]
        while self.peek() in ("or", "||"):
            self.next()
            terms.append(self.and_expr())
        if len(terms) == 1:
            return terms[0]
        return lambda pkt: any(term(pkt) for term in terms)

    def and_expr(self) -> Predicate:
        # Adjacent primitives conjoin implicitly, tcpdump-style:
        # "tcp dst port 80" == "tcp and dst port 80".
        terms = [self.not_expr()]
        while True:
            token = self.peek()
            if token in ("and", "&&"):
                self.next()
                terms.append(self.not_expr())
            elif token is None or token in ("or", "||", ")"):
                break
            else:
                terms.append(self.not_expr())
        if len(terms) == 1:
            return terms[0]
        return lambda pkt: all(term(pkt) for term in terms)

    def not_expr(self) -> Predicate:
        if self.peek() in ("not", "!"):
            self.next()
            inner = self.not_expr()
            return lambda pkt: not inner(pkt)
        return self.primary()

    def primary(self) -> Predicate:
        if self.peek() == "(":
            self.next()
            inner = self.or_expr()
            if self.next() != ")":
                raise ConfigError("missing ')' in filter %r" % self.source)
            return inner
        return self.primitive()

    def primitive(self) -> Predicate:
        token = self.next()
        if token in ("all", "true", "any", "-"):
            return lambda pkt: True
        if token in ("none", "false"):
            return lambda pkt: False
        if token in ("src", "dst"):
            return self._directional(token)
        if token == "host":
            return self._host(None, self.next())
        if token == "net":
            return self._net(None, self.next())
        if token == "port":
            return self._port(None, int(self.next()))
        if token == "ip":
            if self.peek() == "proto":
                self.next()
                proto = int(self.next())
                return lambda pkt: (pkt.ip() is not None
                                    and pkt.ip().protocol == proto)
            return lambda pkt: pkt.ip() is not None
        if token == "tcp":
            return lambda pkt: (pkt.ip() is not None
                                and pkt.ip().protocol == IPv4.TCP_PROTOCOL)
        if token == "udp":
            return lambda pkt: (pkt.ip() is not None
                                and pkt.ip().protocol == IPv4.UDP_PROTOCOL)
        if token == "icmp":
            if self.peek() == "type":
                self.next()
                icmp_type = int(self.next())
                return lambda pkt: _icmp_type_is(pkt, icmp_type)
            return lambda pkt: (pkt.ip() is not None
                                and pkt.ip().protocol == IPv4.ICMP_PROTOCOL)
        if token == "arp":
            return lambda pkt: _find(pkt, ARP) is not None
        if token == "vlan":
            nxt = self.peek()
            if nxt is not None and nxt.isdigit():
                vid = int(self.next())
                return lambda pkt: _vlan_id(pkt) == vid
            return lambda pkt: _vlan_id(pkt) is not None
        raise ConfigError("unknown filter primitive %r in %r"
                          % (token, self.source))

    def _directional(self, direction: str) -> Predicate:
        kind = self.next()
        if kind == "host":
            return self._host(direction, self.next())
        if kind == "net":
            return self._net(direction, self.next())
        if kind == "port":
            return self._port(direction, int(self.next()))
        raise ConfigError("expected host/net/port after %r in %r"
                          % (direction, self.source))

    @staticmethod
    def _host(direction: Optional[str], text: str) -> Predicate:
        addr = IPAddr(text)

        def pred(pkt: ClickPacket) -> bool:
            ip = pkt.ip()
            if ip is None:
                return False
            if direction == "src":
                return ip.srcip == addr
            if direction == "dst":
                return ip.dstip == addr
            return ip.srcip == addr or ip.dstip == addr
        return pred

    @staticmethod
    def _net(direction: Optional[str], text: str) -> Predicate:
        if "/" not in text:
            raise ConfigError("net requires CIDR notation, got %r" % text)

        def pred(pkt: ClickPacket) -> bool:
            ip = pkt.ip()
            if ip is None:
                return False
            if direction == "src":
                return ip.srcip.in_network(text)
            if direction == "dst":
                return ip.dstip.in_network(text)
            return (ip.srcip.in_network(text)
                    or ip.dstip.in_network(text))
        return pred

    @staticmethod
    def _port(direction: Optional[str], port: int) -> Predicate:
        def pred(pkt: ClickPacket) -> bool:
            l4 = pkt.tcp() or pkt.udp()
            if l4 is None:
                return False
            if direction == "src":
                return l4.srcport == port
            if direction == "dst":
                return l4.dstport == port
            return port in (l4.srcport, l4.dstport)
        return pred


def _find(pkt: ClickPacket, kind):
    parsed = pkt.parsed()
    return parsed.find(kind) if parsed is not None else None


def _icmp_type_is(pkt: ClickPacket, icmp_type: int) -> bool:
    icmp = _find(pkt, ICMP)
    return icmp is not None and icmp.type == icmp_type


def _vlan_id(pkt: ClickPacket) -> Optional[int]:
    vlan = _find(pkt, Vlan)
    return vlan.vid if vlan is not None else None


def compile_ip_filter(expression: str) -> Predicate:
    """Compile a filter expression into a predicate on ClickPacket."""
    return _ExprParser(_tokenize_expr(expression), expression).parse()


# -- elements -------------------------------------------------------------


@element_class()
class IPClassifier(Element):
    """``IPClassifier(expr0, expr1, ...)`` — route each packet to the
    output of the first matching expression, if connected; the rest
    are dropped (add ``-`` as the last expression for a catch-all).

    Handlers: ``pattern<i>_count``, ``dropped`` (read).
    """

    INPUT_COUNT = 1
    OUTPUT_COUNT = None
    INPUT_PERSONALITY = PUSH
    OUTPUT_PERSONALITY = PUSH

    def __init__(self, name: str, config: str = ""):
        super().__init__(name, config)
        self.predicates: List[Predicate] = []
        self.match_counts: List[int] = []
        self.dropped = 0
        self.add_read_handler("dropped", lambda: self.dropped)

    def configure(self, args: List[str], keywords: Dict[str, str]) -> None:
        if not args:
            raise ConfigError("%s: needs at least one expression" % self.name)
        for index, expression in enumerate(args):
            self.predicates.append(compile_ip_filter(expression))
            self.match_counts.append(0)
            self.add_read_handler(
                "pattern%d_count" % index,
                lambda i=index: self.match_counts[i])

    def push(self, port: int, packet: ClickPacket) -> None:
        for index, predicate in enumerate(self.predicates):
            if predicate(packet):
                self.match_counts[index] += 1
                if index < self.noutputs and self.outputs[index].peers:
                    self.output_push(index, packet)
                    return
                break  # its output is unconnected
        self.dropped += 1
