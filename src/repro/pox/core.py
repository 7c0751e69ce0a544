"""The POX ``core`` object: a named component registry."""

from typing import Any, Dict, Optional

from repro.pox.events import EventMixin
from repro.sim import Simulator


class Core:
    """Component registry + shared simulator handle.

    POX components find each other through ``core.<name>``; here
    components are registered explicitly and looked up by attribute or
    :meth:`component`.
    """

    def __init__(self, sim: Optional[Simulator] = None):
        self.sim = sim or Simulator()
        self._components: Dict[str, Any] = {}
        # the telemetry bundle POX-side components report into
        self.telemetry = self.sim.telemetry

    def register(self, name: str, component: Any) -> Any:
        if name in self._components:
            raise ValueError("component %r already registered" % name)
        self._components[name] = component
        return component

    def has_component(self, name: str) -> bool:
        return name in self._components

    def component(self, name: str) -> Any:
        if name not in self._components:
            raise KeyError("no component registered as %r" % name)
        return self._components[name]

    def shutdown(self) -> None:
        """Forget every component and every subscription among them
        (POX's ``core.quit()``)."""
        for component in self._components.values():
            if isinstance(component, EventMixin):
                component._listeners.clear()
        self._components.clear()

    def __getattr__(self, name: str) -> Any:
        # Called only when normal attribute lookup fails.
        components = object.__getattribute__(self, "_components")
        if name in components:
            return components[name]
        raise AttributeError("core has no component %r" % name)

    def __repr__(self) -> str:
        return "Core(%s)" % ", ".join(sorted(self._components)) \
            if self._components else "Core()"
