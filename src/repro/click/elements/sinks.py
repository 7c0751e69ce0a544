"""Sink elements."""

from typing import Dict, List, Optional

from repro.click.element import AGNOSTIC, PULL, Element, PullActivation
from repro.click.packet import ClickPacket
from repro.click.registry import element_class


@element_class()
class Discard(Element):
    """Swallow every packet.  Works in push mode directly; in pull mode
    it sleeps on the upstream notifier and drains a burst per wakeup
    (like real Click's Discard behind an empty-note).

    Handlers: ``count`` (read), ``reset`` (write).
    """

    INPUT_COUNT = 1
    OUTPUT_COUNT = 0
    INPUT_PERSONALITY = AGNOSTIC

    BURST = 32  # packets swallowed per activation

    def __init__(self, name: str, config: str = ""):
        super().__init__(name, config)
        self.count = 0
        self._activation = None
        self.add_read_handler("count", lambda: self.count)
        self.add_write_handler("reset", lambda _value: self._reset())

    def _reset(self) -> None:
        self.count = 0

    def configure(self, args: List[str], keywords: Dict[str, str]) -> None:
        pass  # Discard takes no arguments but tolerates an empty config

    def initialize(self) -> None:
        if self.inputs[0].resolved == PULL:
            self._activation = PullActivation(self, self._drain)
            self._activation.start()

    def cleanup(self) -> None:
        if self._activation is not None:
            self._activation.stop()
            self._activation = None

    def _drain(self) -> None:
        if not self.router.running:
            return
        moved = 0
        while moved < self.BURST:
            packet = self.input_pull(0)
            if packet is None:
                break
            self.count += 1
            moved += 1
        self._activation.reschedule(moved >= self.BURST)

    def push(self, port: int, packet: ClickPacket) -> None:
        self.count += 1


@element_class()
class Idle(Element):
    """Never produces, silently consumes; any number of ports, all of
    which may stay unconnected.  Used to cap unused ports."""

    INPUT_COUNT = None
    OUTPUT_COUNT = None
    INPUT_PERSONALITY = AGNOSTIC
    OUTPUT_PERSONALITY = AGNOSTIC
    ALLOW_UNCONNECTED = True

    def configure(self, args: List[str], keywords: Dict[str, str]) -> None:
        pass

    def push(self, port: int, packet: ClickPacket) -> None:
        pass

    def pull(self, port: int) -> Optional[ClickPacket]:
        return None
