"""cgroup-style resource accounting for VNF containers.

Mininet's CPULimitedHost and ESCAPE's "configurable isolation models
(based on cgroups)" become an explicit budget object: a container is
created with CPU and memory capacity, every VNF started inside it
reserves its declared demand, and starting a VNF whose demand exceeds
the remaining budget fails — which is exactly the constraint the
orchestrator's mapping algorithms optimize against.
"""

from typing import Dict


class ResourceError(Exception):
    """A reservation exceeded the remaining budget."""


class ResourceBudget:
    """Track CPU (abstract cores) and memory (MB) reservations."""

    def __init__(self, cpu: float = 1.0, mem: float = 1024.0):
        if not (cpu > 0 and mem > 0):  # NaN too
            raise ValueError("capacities must be positive (cpu=%r, mem=%r)"
                             % (cpu, mem))
        self.cpu_capacity = float(cpu)
        self.mem_capacity = float(mem)
        self.reservations: Dict[str, tuple] = {}

    @property
    def cpu_used(self) -> float:
        return sum(cpu for cpu, _mem in self.reservations.values())

    @property
    def mem_used(self) -> float:
        return sum(mem for _cpu, mem in self.reservations.values())

    @property
    def cpu_free(self) -> float:
        return self.cpu_capacity - self.cpu_used

    @property
    def mem_free(self) -> float:
        return self.mem_capacity - self.mem_used

    def can_fit(self, cpu: float, mem: float) -> bool:
        return cpu <= self.cpu_free + 1e-9 and mem <= self.mem_free + 1e-9

    def reserve(self, owner: str, cpu: float, mem: float) -> None:
        """Reserve resources for ``owner``; raises ResourceError on
        overflow or double reservation."""
        if owner in self.reservations:
            raise ResourceError("owner %r already holds a reservation"
                                % owner)
        if cpu < 0 or mem < 0:
            raise ValueError("demands must be non-negative")
        if not self.can_fit(cpu, mem):
            raise ResourceError(
                "cannot reserve cpu=%.2f mem=%.0f for %r: "
                "free cpu=%.2f mem=%.0f"
                % (cpu, mem, owner, self.cpu_free, self.mem_free))
        self.reservations[owner] = (float(cpu), float(mem))

    def release(self, owner: str) -> None:
        """Release ``owner``'s reservation (no-op when absent)."""
        self.reservations.pop(owner, None)

    def snapshot(self) -> Dict[str, float]:
        """Utilization summary for monitoring / resource views."""
        return {
            "cpu_capacity": self.cpu_capacity,
            "cpu_used": self.cpu_used,
            "mem_capacity": self.mem_capacity,
            "mem_used": self.mem_used,
        }

    def __repr__(self) -> str:
        return "ResourceBudget(cpu %.2f/%.2f, mem %.0f/%.0f)" % (
            self.cpu_used, self.cpu_capacity, self.mem_used,
            self.mem_capacity)
