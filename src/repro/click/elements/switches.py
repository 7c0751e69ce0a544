"""Fan-out and demultiplexing elements."""

import random
import zlib
from typing import Dict, List

from repro.click.element import PUSH, Element
from repro.click.errors import ConfigError
from repro.click.packet import ClickPacket
from repro.click.registry import element_class


@element_class()
class Tee(Element):
    """``Tee(N)`` — clone each input packet to all N outputs."""

    INPUT_COUNT = 1
    OUTPUT_COUNT = None
    INPUT_PERSONALITY = PUSH
    OUTPUT_PERSONALITY = PUSH

    def configure(self, args: List[str], keywords: Dict[str, str]) -> None:
        # The output count comes from the connections; an explicit N is
        # accepted for Click compatibility but only validated, not forced.
        if len(args) > 1:
            raise ConfigError("%s: at most one argument" % self.name)
        self._declared = int(args[0]) if args else None

    def initialize(self) -> None:
        if self._declared is not None and self._declared != self.noutputs:
            raise ConfigError("%s: declared %d outputs but %d connected"
                              % (self.name, self._declared, self.noutputs))

    def push(self, port: int, packet: ClickPacket) -> None:
        for out in range(self.noutputs - 1):
            self.output_push(out, packet.clone())
        if self.noutputs:
            self.output_push(self.noutputs - 1, packet)


@element_class()
class Switch(Element):
    """``Switch([K])`` — forward every packet to output K (default 0).

    The ``switch`` write handler re-targets the output at runtime; -1
    drops everything.  This is the element ESCAPE uses to flip a VNF
    between chain branches without re-deploying.
    """

    INPUT_COUNT = 1
    OUTPUT_COUNT = None
    INPUT_PERSONALITY = PUSH
    OUTPUT_PERSONALITY = PUSH

    def __init__(self, name: str, config: str = ""):
        super().__init__(name, config)
        self.target = 0
        self.add_read_handler("switch", lambda: self.target)
        self.add_write_handler("switch", self._write_switch)

    def _write_switch(self, value: str) -> None:
        target = int(value)
        if target >= self.noutputs:
            raise ConfigError("%s: no output %d" % (self.name, target))
        self.target = target

    def configure(self, args: List[str], keywords: Dict[str, str]) -> None:
        if len(args) > 1:
            raise ConfigError("%s: at most one argument" % self.name)
        if args:
            self.target = int(args[0])

    def push(self, port: int, packet: ClickPacket) -> None:
        if 0 <= self.target < self.noutputs:
            self.output_push(self.target, packet)


@element_class()
class PaintSwitch(Element):
    """Route by the paint annotation: paint k -> output k (drop if out of
    range)."""

    INPUT_COUNT = 1
    OUTPUT_COUNT = None
    INPUT_PERSONALITY = PUSH
    OUTPUT_PERSONALITY = PUSH

    def configure(self, args: List[str], keywords: Dict[str, str]) -> None:
        pass

    def push(self, port: int, packet: ClickPacket) -> None:
        if 0 <= packet.paint < self.noutputs:
            self.output_push(packet.paint, packet)


@element_class()
class RoundRobinSwitch(Element):
    """Spread packets over the outputs in rotation (load balancer)."""

    INPUT_COUNT = 1
    OUTPUT_COUNT = None
    INPUT_PERSONALITY = PUSH
    OUTPUT_PERSONALITY = PUSH

    def __init__(self, name: str, config: str = ""):
        super().__init__(name, config)
        self._next = 0
        self.add_read_handler("next", lambda: self._next)

    def configure(self, args: List[str], keywords: Dict[str, str]) -> None:
        pass

    def push(self, port: int, packet: ClickPacket) -> None:
        if not self.noutputs:
            return
        self.output_push(self._next, packet)
        self._next = (self._next + 1) % self.noutputs


@element_class()
class HashSwitch(Element):
    """``HashSwitch(OFFSET, LENGTH)`` — hash LENGTH bytes at OFFSET and
    route to ``hash % noutputs``.  Deterministic flow-affinity spreading
    (hash the 5-tuple region for per-flow load balancing)."""

    INPUT_COUNT = 1
    OUTPUT_COUNT = None
    INPUT_PERSONALITY = PUSH
    OUTPUT_PERSONALITY = PUSH

    def __init__(self, name: str, config: str = ""):
        super().__init__(name, config)
        self.offset = 0
        self.length = 4

    def configure(self, args: List[str], keywords: Dict[str, str]) -> None:
        if len(args) != 2:
            raise ConfigError("%s: HashSwitch needs (offset, length)"
                              % self.name)
        self.offset = int(args[0])
        self.length = int(args[1])
        if self.offset < 0 or self.length <= 0:
            raise ConfigError("%s: bad offset/length" % self.name)

    def push(self, port: int, packet: ClickPacket) -> None:
        if not self.noutputs:
            return
        region = packet.data[self.offset: self.offset + self.length]
        digest = 5381
        for byte in region:
            digest = ((digest << 5) + digest + byte) & 0xFFFFFFFF
        self.output_push(digest % self.noutputs, packet)


@element_class()
class RandomSample(Element):
    """``RandomSample(P)`` — keep each packet with probability P on
    output 0; the rest go to output 1 when connected, else are dropped.
    Seeded per element name so runs stay reproducible.

    Handlers: ``sampled``, ``dropped`` (read).
    """

    INPUT_COUNT = 1
    OUTPUT_COUNT = None
    INPUT_PERSONALITY = PUSH
    OUTPUT_PERSONALITY = PUSH
    ALLOW_UNCONNECTED = True

    def __init__(self, name: str, config: str = ""):
        super().__init__(name, config)
        self.probability = 0.5
        self._rng = random.Random(zlib.crc32(name.encode()))
        self.sampled = 0
        self.dropped = 0
        self.add_read_handler("sampled", lambda: self.sampled)
        self.add_read_handler("dropped", lambda: self.dropped)

    def configure(self, args: List[str], keywords: Dict[str, str]) -> None:
        positionals, kw = self.parse_keywords(args, ["SEED"])
        if len(positionals) != 1:
            raise ConfigError("%s: RandomSample needs a probability"
                              % self.name)
        self.probability = float(positionals[0])
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigError("%s: probability out of [0,1]" % self.name)
        if "SEED" in kw:
            self._rng = random.Random(int(kw["SEED"]))

    def push(self, port: int, packet: ClickPacket) -> None:
        if self._rng.random() < self.probability:
            self.sampled += 1
            self.output_push(0, packet)
        else:
            self.dropped += 1
            if self.noutputs > 1:
                self.output_push(1, packet)
