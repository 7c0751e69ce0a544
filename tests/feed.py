"""Drive a Click graph the way a VNF container does: frames arrive on a
``Device`` behind the graph's ``FromDevice`` at scheduled instants."""

from repro.click import Router
from repro.click.elements import Device

FRAME = b"frame bytes from the device\x00\x00\x00\x00"


def feed(sim, device, count, interval=1e-6, data=FRAME):
    """Schedule ``count`` deliveries of ``data`` on ``device``,
    ``interval`` seconds apart, the first ``interval`` from now."""
    for index in range(1, count + 1):
        sim.schedule(index * interval, device.deliver, data)


def fed_router(config, count=0, interval=1e-6, data=FRAME, sim=None,
               devices=("in0",)):
    """Build and start ``config`` with a ``Device`` for each name in
    ``devices`` (``router.device_map``), then :func:`feed` ``count``
    frames into ``in0``."""
    router = Router.from_config(config, sim=sim)
    router.device_map = {name: Device(name) for name in devices}
    router.start()
    feed(router.sim, router.device_map["in0"], count, interval, data)
    return router
