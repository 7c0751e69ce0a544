"""Per-layer span tracing installed from outside the program.

:class:`Tracer` is a context manager that replaces each layer's public
entry points (see :data:`ENTRY_POINTS`) with timing wrappers and puts
every original back on exit.  It must be entered *before* the network
is built: nodes capture bound methods (``intf.set_receiver(self.
_receive)``, ``port.transmit = intf.send``) at construction, and only
methods bound while the wrappers are installed are traced.

Spans nest; the stack of open spans is the Python call stack of their
wrappers.  A span's *self time* is its duration minus the time its child
spans cover, accumulated per entry point (nothing is kept per call: a
run opens tens of millions of spans), so the self times of all entry
points add up to the duration of the root spans (:meth:`Tracer.root`)
exactly.  Call counts are kept per entry point and reconciled by
``run.py`` against the program's own counters, so a refactor that binds
a hot method early cannot silently blind a layer.
"""

import importlib
import types
from time import perf_counter_ns

#: layer -> entry points, each "module:attr" or "module:Class.attr"
ENTRY_POINTS = {
    "sim": ["repro.sim.core:Simulator.run", "repro.sim.core:Simulator.step"],
    "netem.link": ["repro.netem.link:Link.transmit",
                   "repro.netem.link:Link._deliver"],
    "netem.host": ["repro.netem.node:Host.send_udp",
                   "repro.netem.node:Host._receive"],
    "packet": ["repro.packet.ethernet:Ethernet.unpack",
               "repro.packet.ethernet:Ethernet.pack"],
    "openflow.switch": [
        "repro.openflow.switch:OpenFlowSwitch.process_packet",
        "repro.openflow.switch:OpenFlowSwitch._handle_controller_message",
        "repro.openflow.switch:OpenFlowSwitch._expiry_sweep"],
    "openflow.flowtable": ["repro.openflow.flowtable:FlowTable.lookup",
                           "repro.openflow.flowtable:FlowTable.add",
                           "repro.openflow.flowtable:FlowTable.delete"],
    "openflow.wire": ["repro.openflow.wire:pack_message",
                      "repro.openflow.wire:unpack_message"],
    "click": ["repro.click.elements.device:Device.deliver"],
    "click.parser": ["repro.click.router:Router.from_config"],
    "netem.vnf": ["repro.netem.vnf:VNFContainer.start_vnf",
                  "repro.netem.vnf:VNFContainer.connect_vnf",
                  "repro.netem.vnf:VNFContainer.disconnect_vnf",
                  "repro.netem.vnf:VNFContainer.stop_vnf"],
    "netconf": ["repro.netconf.client:NetconfClient.request",
                "repro.netconf.client:NetconfClient.call",
                "repro.netconf.transport:InMemoryTransport._deliver"],
    "core.mapping": ["repro.core.mapping:ShortestPathMapper.map"],
    "core.orchestrator": ["repro.core.orchestrator:Orchestrator.deploy",
                          "repro.core.orchestrator:DeployedChain.undeploy"],
    "pox.steering": ["repro.pox.steering:TrafficSteering.install_path",
                     "repro.pox.steering:TrafficSteering.remove_path"],
    "pox.controller": [
        "repro.openflow.channel:ControllerChannel._deliver_to_controller",
        "repro.pox.discovery:Discovery._probe_round",
        "repro.pox.stats:StatsCollector._poll_round"],
    "bench.gen": ["traffic:Generator._send", "traffic:Sink.receive",
                  "traffic:ConstantFlowSink.receive"],
}

_MARK = "_ladder_span"

# ``_open[0]`` is the time covered so far by children of the span that
# is currently open; each wrapper parks its caller's value in a local
# while it runs, so the Python call stack is the span stack.  Names are
# underscored so they cannot collide with an entry point's parameters.
_SPAN_SOURCE = """
def make(_function, _index, _open, _self_ns, _calls, _clock):
    def span({params}):
        _parent = _open[0]
        _open[0] = 0
        _started = _clock()
        try:
            return _function({params})
        finally:
            _elapsed = _clock() - _started
            _self_ns[_index] += _elapsed - _open[0]
            _calls[_index] += 1
            _open[0] = _parent + _elapsed
    return span
"""


_SPAN_FACTORIES = {}   # parameter list -> compiled ``make``


def _resolve(spec):
    module_name, _, path = spec.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def installed():
    """Entry points that currently carry a wrapper (empty when clean)."""
    found = []
    for specs in ENTRY_POINTS.values():
        for spec in specs:
            owner, attr = _resolve(spec)
            raw = owner.__dict__.get(attr) if isinstance(owner, type) \
                else getattr(owner, attr)
            raw = getattr(raw, "__func__", raw)
            if getattr(raw, _MARK, False):
                found.append(spec)
    from repro.sim.core import Simulator
    if getattr(Simulator.__dict__["wakeup"], _MARK, False):
        found.append("repro.sim.core:Simulator.wakeup")
    return found


class Tracer:
    """Installs on ``__enter__``, restores every original on
    ``__exit__``; may be entered again, which lets a traced network and
    an untraced one take turns in one process."""

    def __init__(self):
        self.names = []       # span index -> entry point spec
        self.layer_of = []    # span index -> layer
        self.self_ns = []
        self.calls = []
        self._open = [0]
        # (owner, attr, wrapper), built on the first install and put
        # back on every later one: a network built inside the tracer
        # holds bound wrappers, which must stay the ones that count
        self._patches = []
        self._restore = []

    # -- spans --------------------------------------------------------------

    def _new_span(self, name, layer):
        self.names.append(name)
        self.layer_of.append(layer)
        self.self_ns.append(0)
        self.calls.append(0)
        return len(self.names) - 1

    def _wrap(self, function, index):
        """The span around one entry point.  Entry points with a plain
        positional signature get a wrapper with that same signature
        (no argument packing on the per-packet paths); the rest get a
        generic one."""
        code = (function.__code__ if type(function) is types.FunctionType
                else None)
        plain = (code is not None and not code.co_flags & 0x0C
                 and not code.co_kwonlyargcount
                 and not getattr(function, "__defaults__", None))
        params = (", ".join(code.co_varnames[:code.co_argcount]) if plain
                  else "*args, **kwargs")
        make = _SPAN_FACTORIES.get(params)
        if make is None:
            namespace = {}
            exec(_SPAN_SOURCE.format(params=params), namespace)
            make = _SPAN_FACTORIES[params] = namespace["make"]
        span = make(function, index, self._open, self.self_ns, self.calls,
                    perf_counter_ns)
        span.__name__ = getattr(function, "__name__", "span")
        span.__wrapped__ = function
        setattr(span, _MARK, True)
        return span

    def root(self, function, *args):
        """Run ``function(*args)`` as a root span of layer ``bench.gen``
        (the harness's own loop)."""
        self._open[0] = 0
        return self._root_span(function, *args)

    # -- install / restore ----------------------------------------------------

    def __enter__(self):
        if installed():
            raise RuntimeError("a tracer is already installed: %s"
                               % ", ".join(installed()))
        if not self._patches:
            for layer, specs in ENTRY_POINTS.items():
                for spec in specs:
                    self._patch(spec, self._new_span(spec, layer))
            self._root_span = self._wrap(
                lambda function, *args: function(*args),
                self._new_span("root", "bench.gen"))
            self._patch_scheduler()
        for owner, attr, wrapper in self._patches:
            self._restore.append((owner, attr, owner.__dict__.get(attr),
                                  attr in owner.__dict__))
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc_info):
        while self._restore:
            owner, attr, original, had = self._restore.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        leftovers = installed()
        if leftovers:
            raise RuntimeError("tracer left wrappers behind: %s"
                               % ", ".join(leftovers))
        return False

    def _patch(self, spec, index):
        owner, attr = _resolve(spec)
        # inherited entry points (Ethernet.pack is Header.pack) are
        # wrapped on the named class only, so nested headers packing
        # themselves do not open spans of their own
        raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
        if isinstance(raw, classmethod):
            wrapper = classmethod(self._wrap(raw.__func__, index))
        else:
            wrapper = self._wrap(raw or getattr(owner, attr), index)
        self._patches.append((owner, attr, wrapper))

    def _patch_scheduler(self):
        """``Simulator.wakeup`` exists for Click's pull activations, its
        only user: the callback is a bound method of whichever element
        pulls, so it is wrapped where it is handed over.  One-shot
        closures given straight to ``Simulator.schedule`` are *not*
        intercepted - a wrapper there would sit on every link transmit -
        so their time stays with ``sim``, their caller (on these
        workloads: the sender inside ``Host.start_udp_flow`` and
        ESCAPE's quarter-second metrics sampler)."""
        from repro.sim.core import Simulator
        wakeup = Simulator.wakeup
        index = self._new_span("repro.sim.core:Simulator.wakeup callback",
                               "click")

        def traced_wakeup(sim, callback, *args):
            return wakeup(sim, self._wrap(callback, index), *args)

        setattr(traced_wakeup, _MARK, True)
        self._patches.append((Simulator, "wakeup", traced_wakeup))

    # -- reading --------------------------------------------------------------

    def reset(self):
        for index in range(len(self.self_ns)):
            self.self_ns[index] = 0
            self.calls[index] = 0

    def snapshot(self):
        """(self ns, calls) per entry point so far, as plain dicts."""
        return ({name: self.self_ns[i] for i, name in enumerate(self.names)},
                {name: self.calls[i] for i, name in enumerate(self.names)})

    def layer_self_ns(self):
        totals = dict.fromkeys(ENTRY_POINTS, 0)
        for layer, self_ns in zip(self.layer_of, self.self_ns):
            totals[layer] += self_ns
        return totals
