"""Rate limiting, delay and AQM elements."""

import random
import zlib
from collections import deque
from typing import Dict, List, Optional

from repro.click.element import PULL, PUSH, Element, Notifier
from repro.click.errors import ConfigError
from repro.click.elements.queues import Queue
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
        if rate <= 0:
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
class BandwidthShaper(Element):
    """``BandwidthShaper(BYTES_PER_SEC)`` — token-bucket byte-rate
    limiter on the pull path.

    Handlers: ``rate`` (read/write), ``byte_count`` (read).
    """

    INPUT_COUNT = 1
    OUTPUT_COUNT = 1
    INPUT_PERSONALITY = PULL
    OUTPUT_PERSONALITY = PULL

    BUCKET_DEPTH_SECONDS = 0.05  # burst tolerance

    def __init__(self, name: str, config: str = ""):
        super().__init__(name, config)
        self.rate = 125000.0  # bytes/second (1 Mbit/s)
        self.byte_count = 0
        self._tokens = 0.0
        self._last_refill = 0.0
        self.add_read_handler("rate", lambda: self.rate)
        self.add_read_handler("byte_count", lambda: self.byte_count)
        self.add_write_handler("rate", self._write_rate)

    def _write_rate(self, value: str) -> None:
        rate = float(value)
        if rate <= 0:
            raise ConfigError("%s: rate must be positive" % self.name)
        self.rate = rate

    def configure(self, args: List[str], keywords: Dict[str, str]) -> None:
        if len(args) != 1:
            raise ConfigError("%s: BandwidthShaper needs a byte rate"
                              % self.name)
        self._write_rate(args[0])

    def initialize(self) -> None:
        self._tokens = self.rate * self.BUCKET_DEPTH_SECONDS
        self._last_refill = self.router.sim.now

    def pull(self, port: int) -> Optional[ClickPacket]:
        now = self.router.sim.now
        self._tokens = min(
            self.rate * self.BUCKET_DEPTH_SECONDS,
            self._tokens + (now - self._last_refill) * self.rate)
        self._last_refill = now
        if self._tokens <= 0:
            return None
        packet = self.input_pull(0)
        if packet is None:
            return None
        self._tokens -= len(packet)
        self.byte_count += len(packet)
        return packet

    def pull_hint(self, port: int) -> Optional[float]:
        """Exact refill instant: the time at which the bucket crosses
        one byte of credit (``pull`` requires ``_tokens > 0``)."""
        if self._tokens > 0:
            mine = self.router.sim.now
        else:
            mine = self._last_refill + (1.0 - self._tokens) / self.rate
        upstream = self.input_hint(0)
        if upstream is None or upstream < mine:
            return mine
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
        if delay < 0:
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

    def accepts_push(self, port: int) -> bool:
        return len(self._buffer) < self.capacity


@element_class()
class RED(Queue):
    """``RED(MIN_THRESH, MAX_THRESH, MAX_P [, CAPACITY])`` — random early
    detection queue: beyond MIN_THRESH the drop probability ramps
    linearly to MAX_P at MAX_THRESH; above MAX_THRESH everything drops.

    Inherits Queue's handlers, adds ``early_drops`` (read).
    """

    def __init__(self, name: str, config: str = ""):
        super().__init__(name, config)
        self.min_thresh = 5
        self.max_thresh = 50
        self.max_p = 0.02
        self.early_drops = 0
        self._rng = random.Random(zlib.crc32(name.encode()))
        self.add_read_handler("early_drops", lambda: self.early_drops)

    def configure(self, args: List[str], keywords: Dict[str, str]) -> None:
        if not 3 <= len(args) <= 4:
            raise ConfigError(
                "%s: RED needs (min_thresh, max_thresh, max_p[, capacity])"
                % self.name)
        self.min_thresh = int(args[0])
        self.max_thresh = int(args[1])
        self.max_p = float(args[2])
        if len(args) == 4:
            self.capacity = int(args[3])
        if not 0 <= self.min_thresh < self.max_thresh:
            raise ConfigError("%s: need 0 <= min_thresh < max_thresh"
                              % self.name)
        if not 0.0 < self.max_p <= 1.0:
            raise ConfigError("%s: max_p out of (0,1]" % self.name)

    def push(self, port: int, packet: ClickPacket) -> None:
        length = len(self.buffer)
        if length >= self.max_thresh or length >= self.capacity:
            self.drops += 1
            return
        if length > self.min_thresh:
            ramp = ((length - self.min_thresh)
                    / float(self.max_thresh - self.min_thresh))
            if self._rng.random() < ramp * self.max_p:
                self.early_drops += 1
                self.drops += 1
                return
        super().push(port, packet)
