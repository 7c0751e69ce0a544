"""Rate limiting and delay elements."""

from collections import deque
from typing import Dict, List, Optional

from repro.click.element import PULL, PUSH, Element, Notifier
from repro.click.errors import ConfigError
from repro.click.packet import ClickPacket
from repro.click.registry import element_class


@element_class()
class Shaper(Element):
    """``Shaper(RATE)`` — pull-path packet-rate limiter: passes at most
    RATE packets/second, returning None to downstream pulls beyond that.

    Handlers: ``rate`` (read/write), ``count`` (read).
    """

    INPUT_COUNT = 1
    OUTPUT_COUNT = 1
    INPUT_PERSONALITY = PULL
    OUTPUT_PERSONALITY = PULL

    def __init__(self, name: str, config: str = ""):
        super().__init__(name, config)
        self.rate = 1000.0
        self.count = 0
        self._next_allowed = 0.0
        self.add_read_handler("rate", lambda: self.rate)
        self.add_read_handler("count", lambda: self.count)
        self.add_write_handler("rate", self._write_rate)

    def _write_rate(self, value: str) -> None:
        rate = float(value)
        if not rate > 0:  # NaN too
            raise ConfigError("%s: rate must be positive" % self.name)
        self.rate = rate

    def configure(self, args: List[str], keywords: Dict[str, str]) -> None:
        if len(args) != 1:
            raise ConfigError("%s: Shaper needs a rate" % self.name)
        self._write_rate(args[0])

    def pull(self, port: int) -> Optional[ClickPacket]:
        now = self.router.sim.now
        if now < self._next_allowed:
            return None
        packet = self.input_pull(0)
        if packet is None:
            return None
        self._next_allowed = max(self._next_allowed, now) + 1.0 / self.rate
        self.count += 1
        return packet

    def pull_hint(self, port: int) -> Optional[float]:
        """The upstream notifier is forwarded unchanged (default
        behavior); the hint adds the rate gate — a blocked driver
        should fire exactly at ``_next_allowed``."""
        upstream = self.input_hint(0)
        if upstream is None or upstream < self._next_allowed:
            return self._next_allowed
        return upstream


@element_class()
class DelayQueue(Element):
    """``DelayQueue(DELAY [, CAPACITY])`` — push in, pull out after each
    packet has aged DELAY seconds (a fixed-latency stage).

    Handlers: ``delay`` (read/write), ``length``, ``drops`` (read).
    """

    INPUT_COUNT = 1
    OUTPUT_COUNT = 1
    INPUT_PERSONALITY = PUSH
    OUTPUT_PERSONALITY = PULL

    def __init__(self, name: str, config: str = ""):
        super().__init__(name, config)
        self.delay = 0.001
        self.capacity = 1000
        self.drops = 0
        self._buffer: deque = deque()  # (ready_time, packet)
        self.notifier = Notifier()
        self.add_read_handler("delay", lambda: self.delay)
        self.add_read_handler("length", lambda: len(self._buffer))
        self.add_read_handler("drops", lambda: self.drops)
        self.add_write_handler("delay", self._write_delay)

    def _write_delay(self, value: str) -> None:
        delay = float(value)
        if not delay >= 0:  # NaN too
            raise ConfigError("%s: delay must be non-negative" % self.name)
        self.delay = delay

    def configure(self, args: List[str], keywords: Dict[str, str]) -> None:
        if not 1 <= len(args) <= 2:
            raise ConfigError("%s: DelayQueue needs DELAY [, CAPACITY]"
                              % self.name)
        self._write_delay(args[0])
        if len(args) == 2:
            self.capacity = int(args[1])

    def push(self, port: int, packet: ClickPacket) -> None:
        if len(self._buffer) >= self.capacity:
            self.drops += 1
            return
        self._buffer.append((self.router.sim.now + self.delay, packet))
        if not self.notifier.active:
            self.notifier.wake()

    def pull(self, port: int) -> Optional[ClickPacket]:
        buffer = self._buffer
        if not buffer:
            return None
        ready_time, packet = buffer[0]
        if self.router.sim.now < ready_time:
            return None
        buffer.popleft()
        if not buffer:
            self.notifier.sleep()
        return packet

    def output_notifier(self, port: int) -> Optional[Notifier]:
        return self.notifier

    def pull_hint(self, port: int) -> Optional[float]:
        """The head packet's age-out instant (the notifier alone can't
        tell a blocked driver when the delay expires)."""
        if not self._buffer:
            return None
        return self._buffer[0][0]
