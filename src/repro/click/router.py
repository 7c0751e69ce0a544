"""Router: instantiate, wire, validate and drive a Click element graph."""

from typing import Dict, List, Optional, Tuple

from repro.click.element import AGNOSTIC, PULL, PUSH, Element, HandlerError
from repro.click.errors import ConfigError
from repro.click.parser import RouterConfig, parse_config
from repro.click.registry import lookup_element
from repro.sim import Simulator


class Router:
    """A running Click configuration.

    Construction wires the element graph and performs the same static
    checks real Click does: port counts, no dangling ports, and
    push/pull personality consistency (a push output may not feed a pull
    input directly — a queue is required at every such boundary).
    """

    def __init__(self, config: RouterConfig, sim: Optional[Simulator] = None,
                 name: str = "router"):
        self.name = name
        self.sim = sim or Simulator()
        self.config = config
        self.elements: Dict[str, Element] = {}
        self.running = False
        self._instantiate()
        self._wire()
        self._resolve_personalities()
        self._check_connected()

    @classmethod
    def from_config(cls, text: str, sim: Optional[Simulator] = None,
                    name: str = "router") -> "Router":
        """Parse Click-language ``text`` and build the router."""
        return cls(parse_config(text), sim=sim, name=name)

    # -- construction ------------------------------------------------------

    def _instantiate(self) -> None:
        for spec in self.config.elements.values():
            element_cls = lookup_element(spec.class_name)
            element = element_cls(spec.name, spec.config)
            element.bind(self)
            try:
                element.configure(spec.config_args(), {})
            except (ValueError, TypeError) as exc:
                raise ConfigError("%s (%s): bad configuration: %s"
                                  % (spec.name, spec.class_name, exc))
            self.elements[spec.name] = element

    def _port_counts(self, name: str) -> Tuple[int, int]:
        element = self.elements[name]
        max_in = -1
        max_out = -1
        for conn in self.config.connections:
            if conn.to_element == name:
                max_in = max(max_in, conn.to_port)
            if conn.from_element == name:
                max_out = max(max_out, conn.from_port)
        cls = type(element)
        n_in = cls.INPUT_COUNT if cls.INPUT_COUNT is not None else max_in + 1
        n_out = (cls.OUTPUT_COUNT if cls.OUTPUT_COUNT is not None
                 else max_out + 1)
        if max_in >= n_in:
            raise ConfigError("%s has %d input(s), port %d used"
                              % (name, n_in, max_in))
        if max_out >= n_out:
            raise ConfigError("%s has %d output(s), port %d used"
                              % (name, n_out, max_out))
        return n_in, n_out

    def _wire(self) -> None:
        for name, element in self.elements.items():
            n_in, n_out = self._port_counts(name)
            element._build_ports(n_in, n_out)
        for conn in self.config.connections:
            source = self.elements.get(conn.from_element)
            target = self.elements.get(conn.to_element)
            if source is None:
                raise ConfigError("unknown element %r" % conn.from_element)
            if target is None:
                raise ConfigError("unknown element %r" % conn.to_element)
            out_port = source.outputs[conn.from_port]
            in_port = target.inputs[conn.to_port]
            if out_port.peer is not None:
                raise ConfigError("output %s[%d] connected twice"
                                  % (source.name, conn.from_port))
            out_port.peer = in_port
            in_port.peers.append(out_port)

    def _resolve_personalities(self) -> None:
        """Assign PUSH/PULL to every port, erroring on conflicts.

        Ports of an agnostic element form one mode-group (simplified
        flow-code: the element relays packets in whatever discipline its
        neighbours use, uniformly).  Connections force both endpoints
        into the same mode.  Union-find over groups, then conflict check.
        """
        parent: Dict[int, int] = {}
        fixed: Dict[int, str] = {}

        def find(key: int) -> int:
            while parent[key] != key:
                parent[key] = parent[parent[key]]
                key = parent[key]
            return key

        def union(a: int, b: int, context: str) -> None:
            ra, rb = find(a), find(b)
            if ra == rb:
                return
            mode_a, mode_b = fixed.get(ra), fixed.get(rb)
            if mode_a and mode_b and mode_a != mode_b:
                raise ConfigError(
                    "push/pull conflict at %s (insert a Queue between the "
                    "push and pull sides)" % context)
            parent[rb] = ra
            if mode_b and not mode_a:
                fixed[ra] = mode_b

        ports: List = []
        for element in self.elements.values():
            group_root: Optional[int] = None
            for port in list(element.inputs) + list(element.outputs):
                key = len(ports)
                ports.append(port)
                parent[key] = key
                if port.personality != AGNOSTIC:
                    fixed[key] = port.personality
                    continue
                if group_root is None:
                    group_root = key
                else:
                    union(group_root, key, element.name)

        index_of = {id(port): key for key, port in enumerate(ports)}
        for element in self.elements.values():
            for port in element.outputs:
                if port.peer is not None:
                    union(index_of[id(port)], index_of[id(port.peer)],
                          "%s -> %s" % (port.element.name,
                                        port.peer.element.name))

        for key, port in enumerate(ports):
            port.resolved = fixed.get(find(key), PUSH)

    def _check_connected(self) -> None:
        for element in self.elements.values():
            for port in element.inputs:
                # Fan-in is a push-only privilege (as in real Click).
                if port.resolved == PULL and len(port.peers) > 1:
                    raise ConfigError(
                        "pull input [%d]%s has %d upstream connections"
                        % (port.index, element.name, len(port.peers)))
            if getattr(type(element), "ALLOW_UNCONNECTED", False):
                continue
            for port in element.inputs:
                if not port.connected:
                    raise ConfigError("input [%d]%s is unconnected"
                                      % (port.index, element.name))
            for port in element.outputs:
                if not port.connected:
                    raise ConfigError("output %s[%d] is unconnected"
                                      % (element.name, port.index))

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Initialize every element (sources begin scheduling work)."""
        if self.running:
            return
        self.running = True
        for element in self.elements.values():
            element.initialize()

    def stop(self) -> None:
        if not self.running:
            return
        self.running = False
        for element in self.elements.values():
            element.cleanup()

    def dismantle(self) -> None:
        """Stop, then drop the graph's internal references (element <->
        router, port <-> element, port <-> peer, handler closures), so
        reference counting frees the whole graph once its owner lets go.
        A dismantled router has no elements: read counters first."""
        self.stop()
        for element in self.elements.values():
            for port in element.inputs + element.outputs:
                port.element = None
                port.peers = []
            element.inputs = element.outputs = []
            element._read_handlers.clear()
            element._write_handlers.clear()
            element.router = None
        self.elements = {}

    # -- handler namespace ----------------------------------------------------

    def element(self, name: str) -> Element:
        element = self.elements.get(name)
        if element is None:
            raise HandlerError("no element named %r" % name)
        return element

    def _split_handler(self, path: str) -> Tuple[Element, str]:
        element_name, sep, handler = path.partition(".")
        if not sep:
            raise HandlerError("handler path must be 'element.handler', "
                               "got %r" % path)
        return self.element(element_name), handler

    def read_handler(self, path: str) -> str:
        """Read ``"element.handler"`` — the Clicky monitoring interface."""
        element, handler = self._split_handler(path)
        return element.read_handler(handler)

    def write_handler(self, path: str, value: str) -> None:
        element, handler = self._split_handler(path)
        element.write_handler(handler, value)

    def handlers(self) -> Dict[str, Tuple[List[str], List[str]]]:
        """Map element name -> (read handler names, write handler names)."""
        return {name: element.handler_names()
                for name, element in self.elements.items()}

    # -- telemetry -------------------------------------------------------------

    def transfer_counts(self) -> Tuple[int, int]:
        """(total pushes, total pulls) across every element."""
        pushes = sum(e.pushed_count for e in self.elements.values())
        pulls = sum(e.pulled_count for e in self.elements.values())
        return pushes, pulls

    def flat_config(self) -> str:
        """Regenerate a canonical config string (Click's flatconfig)."""
        lines = []
        for spec in self.config.elements.values():
            lines.append("%s :: %s(%s);" % (spec.name, spec.class_name,
                                            spec.config))
        for conn in self.config.connections:
            lines.append("%s [%d] -> [%d] %s;"
                         % (conn.from_element, conn.from_port,
                            conn.to_port, conn.to_element))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return "Router(%s, %d elements, %s)" % (
            self.name, len(self.elements),
            "running" if self.running else "stopped")
