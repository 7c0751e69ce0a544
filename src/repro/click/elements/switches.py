"""Fan-out and demultiplexing elements."""

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
