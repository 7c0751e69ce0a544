"""Stock Click element library.

Importing this package registers every element class with the global
registry, making them usable from configuration strings.  The set is
what the VNF catalog composes: the FromDevice/ToDevice splice that
attaches a VNF to the emulated network, counters (the handlers Clicky
reads), queues and their pull drivers, a rate limiter and a delay
stage, classifiers, NAT / firewall / DPI building blocks, fan-out and
load spreading, and the sinks.
"""

from repro.click.elements.classifiers import IPClassifier, compile_ip_filter
from repro.click.elements.counters import Counter
from repro.click.elements.device import Device, FromDevice, ToDevice
from repro.click.elements.dpi import StringMatcher
from repro.click.elements.firewall import IPFilter
from repro.click.elements.nat import IPRewriter
from repro.click.elements.queues import Queue, Unqueue
from repro.click.elements.shapers import DelayQueue, Shaper
from repro.click.elements.sinks import Discard, Idle
from repro.click.elements.switches import RoundRobinSwitch, Tee

__all__ = [
    "Counter",
    "DelayQueue",
    "Device",
    "Discard",
    "FromDevice",
    "IPClassifier",
    "IPFilter",
    "IPRewriter",
    "Idle",
    "Queue",
    "RoundRobinSwitch",
    "Shaper",
    "StringMatcher",
    "Tee",
    "ToDevice",
    "Unqueue",
    "compile_ip_filter",
]
