"""Counting elements — the handlers the Clicky-style monitor reads."""

from typing import Dict, List, Optional

from repro.click.element import Element
from repro.click.packet import ClickPacket
from repro.click.registry import element_class


@element_class()
class Counter(Element):
    """Pass-through packet/byte counter.

    Handlers: ``count``, ``byte_count``, ``rate`` (packets/s over the
    element's lifetime), ``bit_rate`` (read); ``reset`` (write).
    """

    INPUT_COUNT = 1
    OUTPUT_COUNT = 1

    def __init__(self, name: str, config: str = ""):
        super().__init__(name, config)
        self.count = 0
        self.byte_count = 0
        self._first_seen: Optional[float] = None
        self._last_seen: Optional[float] = None
        self.add_read_handler("count", lambda: self.count)
        self.add_read_handler("byte_count", lambda: self.byte_count)
        self.add_read_handler("rate", self._rate)
        self.add_read_handler("bit_rate", self._bit_rate)
        self.add_write_handler("reset", lambda _value: self.reset())

    def configure(self, args: List[str], keywords: Dict[str, str]) -> None:
        pass

    def reset(self) -> None:
        self.count = 0
        self.byte_count = 0
        self._first_seen = None
        self._last_seen = None

    def _elapsed(self) -> float:
        if self._first_seen is None or self._last_seen is None:
            return 0.0
        return self._last_seen - self._first_seen

    def _rate(self) -> float:
        elapsed = self._elapsed()
        return self.count / elapsed if elapsed > 0 else 0.0

    def _bit_rate(self) -> float:
        elapsed = self._elapsed()
        return self.byte_count * 8 / elapsed if elapsed > 0 else 0.0

    def _note(self, packet: ClickPacket) -> None:
        self.count += 1
        self.byte_count += len(packet)
        now = self.router.sim.now if self.router else 0.0
        if self._first_seen is None:
            self._first_seen = now
        self._last_seen = now

    def push(self, port: int, packet: ClickPacket) -> None:
        self._note(packet)
        self.output_push(0, packet)

    def pull(self, port: int) -> Optional[ClickPacket]:
        packet = self.input_pull(0)
        if packet is not None:
            self._note(packet)
        return packet
