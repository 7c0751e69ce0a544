"""FromDevice / ToDevice — the splice between a Click VNF and the
emulated network.

The VNF container (:mod:`repro.netem.vnf`) creates one :class:`Device`
per virtual interface and installs the map on the router as
``router.device_map`` before :meth:`Router.start`.  ``FromDevice(eth0)``
then delivers frames arriving on that interface into the element graph,
and ``ToDevice(eth0)`` transmits frames out of it.
"""

from typing import Callable, Dict, List, Optional

from repro.click.element import (AGNOSTIC, PULL, PUSH, Element,
                                 PullActivation)
from repro.click.errors import ConfigError
from repro.click.packet import ClickPacket
from repro.click.registry import element_class


class Device:
    """A virtual interface endpoint shared by the container and the VNF.

    The container sets :attr:`transmit` to inject frames into the
    emulated link; the VNF's FromDevice sets :attr:`receiver` to accept
    frames coming the other way.
    """

    def __init__(self, name: str):
        self.name = name
        self.transmit: Optional[Callable[[bytes], None]] = None
        self.receiver: Optional[Callable[[bytes], None]] = None
        self.rx_packets = 0
        self.tx_packets = 0
        self.rx_bytes = 0
        self.tx_bytes = 0
        self.rx_dropped = 0
        self.tx_dropped = 0

    def deliver(self, data: bytes) -> None:
        """Called by the container when a frame arrives for the VNF."""
        if self.receiver is None:  # no FromDevice reads this interface
            self.rx_dropped += 1
            return
        self.rx_packets += 1
        self.rx_bytes += len(data)
        self.receiver(data)

    def send(self, data: bytes) -> None:
        """Called by the VNF (ToDevice) to transmit a frame."""
        if self.transmit is None:
            self.tx_dropped += 1
            return
        self.tx_packets += 1
        self.tx_bytes += len(data)
        self.transmit(data)

    def __repr__(self) -> str:
        return "Device(%s, rx=%d, tx=%d)" % (self.name, self.rx_packets,
                                             self.tx_packets)


def _lookup_device(element: Element, devname: str) -> Device:
    device_map: Dict[str, Device] = getattr(element.router, "device_map", None)
    if not device_map or devname not in device_map:
        raise ConfigError(
            "%s: no device %r attached to router %r (available: %s)"
            % (element.name, devname, element.router.name,
               sorted(device_map) if device_map else "none"))
    return device_map[devname]


@element_class()
class FromDevice(Element):
    """``FromDevice(DEVNAME)`` — push frames arriving on DEVNAME into the
    graph.  Handlers: ``count`` (read)."""

    INPUT_COUNT = 0
    OUTPUT_COUNT = 1
    OUTPUT_PERSONALITY = PUSH

    def __init__(self, name: str, config: str = ""):
        super().__init__(name, config)
        self.devname = ""
        self.count = 0
        self._device: Optional[Device] = None
        self.add_read_handler("count", lambda: self.count)
        self.add_read_handler("device", lambda: self.devname)

    def configure(self, args: List[str], keywords: Dict[str, str]) -> None:
        if len(args) != 1:
            raise ConfigError("%s: FromDevice needs a device name"
                              % self.name)
        self.devname = args[0].strip()

    def initialize(self) -> None:
        self._device = _lookup_device(self, self.devname)
        self._device.receiver = self._receive

    def cleanup(self) -> None:
        if self._device is not None and self._device.receiver == self._receive:
            self._device.receiver = None

    def _receive(self, data: bytes) -> None:
        if not self.router.running:
            return
        self.count += 1
        flowtrace = self._flowtrace
        if flowtrace.enabled:
            flowtrace.record("vnf.in", self.router.name,
                             self.router.sim.now, data)
        self.output_push(0, ClickPacket(data))


@element_class()
class ToDevice(Element):
    """``ToDevice(DEVNAME)`` — transmit frames out of DEVNAME.

    The input is agnostic: pushed frames go out immediately; with a pull
    upstream (``... -> Queue -> ToDevice``) the element sleeps on the
    upstream notifier and transmits a burst per wakeup, like Click's
    userlevel ToDevice behind an empty-note.  Handlers: ``count``
    (read).
    """

    INPUT_COUNT = 1
    OUTPUT_COUNT = 0
    INPUT_PERSONALITY = AGNOSTIC

    BURST = 32  # frames transmitted per activation

    def __init__(self, name: str, config: str = ""):
        super().__init__(name, config)
        self.devname = ""
        self.count = 0
        self._device: Optional[Device] = None
        self._activation: Optional[PullActivation] = None
        self.add_read_handler("count", lambda: self.count)
        self.add_read_handler("device", lambda: self.devname)

    def configure(self, args: List[str], keywords: Dict[str, str]) -> None:
        if len(args) != 1:
            raise ConfigError("%s: ToDevice needs a device name" % self.name)
        self.devname = args[0].strip()

    def initialize(self) -> None:
        self._device = _lookup_device(self, self.devname)
        if self.inputs[0].resolved == PULL:
            self._activation = PullActivation(self, self._drain)
            self._activation.start()

    def cleanup(self) -> None:
        if self._activation is not None:
            self._activation.stop()
            self._activation = None

    def _transmit(self, packet: ClickPacket) -> None:
        self.count += 1
        flowtrace = self._flowtrace
        if flowtrace.enabled:
            # vnf.out − vnf.in is the packet's whole element-graph
            # traversal, queue residency included
            flowtrace.record("vnf.out", self.router.name,
                             self.router.sim.now, packet.data)
        self._device.send(packet.data)

    def push(self, port: int, packet: ClickPacket) -> None:
        if self._device is None:
            self._device = _lookup_device(self, self.devname)
        self._transmit(packet)

    def _drain(self) -> None:
        if not self.router.running:
            return
        moved = 0
        while moved < self.BURST:
            packet = self.input_pull(0)
            if packet is None:
                break
            self._transmit(packet)
            moved += 1
        self._activation.reschedule(moved >= self.BURST)
