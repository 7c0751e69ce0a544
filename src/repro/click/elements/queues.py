"""Queues and the pull→push converters that drain them."""

from collections import deque
from typing import Dict, List, Optional

from repro.click.element import (PULL, PUSH, Element, Notifier,
                                 PullActivation)
from repro.click.errors import ConfigError
from repro.click.packet import ClickPacket
from repro.click.registry import element_class


@element_class()
class Queue(Element):
    """``Queue([CAPACITY])`` — the push→pull boundary.  Tail-drop.

    Owns the pull path's :class:`Notifier` (Click's empty-note): the
    0→1 push transition wakes sleeping pull drivers downstream, and the
    pull that drains the buffer puts them back to sleep.

    Handlers: ``length``, ``capacity``, ``drops``, ``highwater`` (read);
    ``reset`` (write).
    """

    INPUT_COUNT = 1
    OUTPUT_COUNT = 1
    INPUT_PERSONALITY = PUSH
    OUTPUT_PERSONALITY = PULL

    def __init__(self, name: str, config: str = ""):
        super().__init__(name, config)
        self.capacity = 1000
        self.buffer: deque = deque()
        self.drops = 0
        self.highwater = 0
        self.notifier = Notifier()
        self.add_read_handler("length", lambda: len(self.buffer))
        self.add_read_handler("capacity", lambda: self.capacity)
        self.add_read_handler("drops", lambda: self.drops)
        self.add_read_handler("highwater", lambda: self.highwater)
        self.add_write_handler("reset", lambda _value: self._reset())
        self.add_write_handler("capacity", self._write_capacity)

    def _reset(self) -> None:
        self.buffer.clear()
        self.drops = 0
        self.highwater = 0
        self.notifier.sleep()

    def _write_capacity(self, value: str) -> None:
        capacity = int(value)
        if capacity <= 0:
            raise ConfigError("%s: capacity must be positive" % self.name)
        self.capacity = capacity

    def configure(self, args: List[str], keywords: Dict[str, str]) -> None:
        if len(args) > 1:
            raise ConfigError("%s: at most one argument (capacity)"
                              % self.name)
        if args:
            self._write_capacity(args[0])

    def push(self, port: int, packet: ClickPacket) -> None:
        buffer = self.buffer
        if len(buffer) >= self.capacity:
            self.drop(packet)
            return
        buffer.append(packet)
        if len(buffer) > self.highwater:
            self.highwater = len(buffer)
        flowtrace = self._flowtrace
        if flowtrace.enabled:
            flowtrace.record("queue.in",
                             "%s/%s" % (self.router.name, self.name),
                             self.router.sim.now, packet.data)
        if not self.notifier.active:
            self.notifier.wake()

    def drop(self, packet: ClickPacket) -> None:
        self.drops += 1

    def pull(self, port: int) -> Optional[ClickPacket]:
        buffer = self.buffer
        if not buffer:
            return None
        packet = buffer.popleft()
        flowtrace = self._flowtrace
        if flowtrace.enabled:
            # the queue.out − queue.in delta is this packet's residency
            flowtrace.record("queue.out",
                             "%s/%s" % (self.router.name, self.name),
                             self.router.sim.now, packet.data)
        if not buffer:
            self.notifier.sleep()
        return packet

    def output_notifier(self, port: int) -> Optional[Notifier]:
        return self.notifier

    def pull_hint(self, port: int) -> Optional[float]:
        return None  # no timing constraint: the notifier is the truth


class _PullDriver(Element):
    """Pull upstream, push downstream — event-driven (the machinery of
    :class:`Unqueue`, whose activations the profiler names
    ``_PullDriver._fire``).

    The driver sleeps while its upstream notifier is inactive, wakes on
    the 0→1 push transition, and drains up to ``burst`` packets per
    activation; when more remain it arms a same-timestamp continuation
    (a packet train in burst-sized slices), and when a rate stage
    blocks the chain it schedules one exact shot at the stage's pull
    hint.
    """

    INPUT_COUNT = 1
    OUTPUT_COUNT = 1
    INPUT_PERSONALITY = PULL
    OUTPUT_PERSONALITY = PUSH

    def __init__(self, name: str, config: str = ""):
        super().__init__(name, config)
        self.burst = 1
        self.moved = 0
        self._activation: Optional[PullActivation] = None
        self.add_read_handler("count", lambda: self.moved)

    def initialize(self) -> None:
        self._activation = PullActivation(self, self._fire)
        self._activation.start()

    def cleanup(self) -> None:
        if self._activation is not None:
            self._activation.stop()
            self._activation = None

    def _fire(self) -> None:
        if not self.router.running:
            return
        moved = 0
        burst = self.burst
        while moved < burst:
            packet = self.input_pull(0)
            if packet is None:
                break
            moved += 1
            self.output_push(0, packet)
        self.moved += moved
        self._activation.reschedule(moved >= burst)


@element_class()
class Unqueue(_PullDriver):
    """``Unqueue([BURST])`` — drain the upstream queue as fast as the
    scheduler allows, BURST packets per activation."""

    def configure(self, args: List[str], keywords: Dict[str, str]) -> None:
        positionals, kw = self.parse_keywords(args, ["BURST"])
        if positionals:
            self.burst = int(positionals[0])
            positionals = positionals[1:]
        if positionals:
            raise ConfigError("%s: too many arguments" % self.name)
        if "BURST" in kw:
            self.burst = int(kw["BURST"])
        if self.burst <= 0:
            raise ConfigError("%s: burst must be positive" % self.name)
