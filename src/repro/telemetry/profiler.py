"""Deterministic wall-clock profiling of the framework itself.

Metrics/traces/events (PRs 1-2) observe the *simulated* system; this
module observes the *simulator* — where the reproduction's own Python
code spends host wall-clock time.  Components bracket their hot
sections in scoped *regions*::

    with profiler.profile("core.mapping.solve"):
        mapping = mapper.map(sg, view)

Regions nest (the region stack mirrors the call stack), so every
region accumulates

* ``calls`` — how many times it was entered,
* ``cum`` — cumulative (inclusive) seconds, children included,
* ``self`` — seconds minus time spent in nested regions.

``Simulator.run`` / ``step`` open every dispatch under the event's
*kind* (``repro.sim.classify_callback``: the callback's
``module.Qualname``), so event kinds and the hand-placed regions
nested under them are one table.  Every region is a root or charged
to its parent as child time, hence all self times sum to the roots'
cumulative time — there is no second instrument to reconcile with.

The profiler is off by default and the disabled path is a single
attribute check — instrumentation stays in place permanently and the
no-profile dataplane cost is guarded below 5% by
``benchmarks/test_bench_observability.py``.  When enabled, the
profiler meters *its own* bookkeeping cost too (:attr:`overhead`):
telemetry that cannot account for itself would silently poison the
numbers it reports.
"""

import time
from typing import Any, Callable, Dict, List, Optional


class RegionStat:
    """Aggregate timing of one named region across all its entries."""

    __slots__ = ("name", "calls", "cum", "self_time")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.cum = 0.0
        self.self_time = 0.0

    @property
    def per_call(self) -> float:
        """Mean self seconds per entry."""
        return self.self_time / self.calls if self.calls else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {"calls": self.calls, "cum_s": self.cum,
                "self_s": self.self_time, "per_call_s": self.per_call}

    def __repr__(self) -> str:
        return "RegionStat(%s, calls=%d, self=%.6fs, cum=%.6fs)" % (
            self.name, self.calls, self.self_time, self.cum)


def render_regions(regions: Dict[str, Dict[str, Any]],
                   limit: int = 10) -> List[str]:
    """The region table ``escape perf report`` prints:
    :meth:`RegionStat.to_dict` records by name, most self-time first;
    ``limit=0`` shows all."""
    ordered = sorted(regions.items(),
                     key=lambda item: (-item[1]["self_s"], item[0]))
    shown = ordered[:limit] if limit > 0 else ordered
    total = sum(entry["self_s"] for entry in regions.values()) or 1.0
    # event kinds are module.Qualname: size the column to them
    width = max([36] + [len(name) for name, _entry in shown])
    lines = ["%-*s %10s %12s %12s %8s %12s"
             % (width, "region", "calls", "self(s)", "cum(s)", "self%",
                "per-call")]
    for name, entry in shown:
        lines.append("%-*s %10d %12.6f %12.6f %7.1f%% %12.9f"
                     % (width, name, entry["calls"], entry["self_s"],
                        entry["cum_s"], 100.0 * entry["self_s"] / total,
                        entry["per_call_s"]))
    return lines


class _NullRegion:
    """No-op stand-in handed out while the profiler is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullRegion":
        return self

    def __exit__(self, *_exc) -> bool:
        return False


NULL_REGION = _NullRegion()


class _Region:
    """One live region entry (context manager).

    Frame layout on the profiler stack: ``[name, start,
    child_seconds]``.  ``start`` is stamped *after* the enter
    bookkeeping and the exit timestamp is read *before* the exit
    bookkeeping, so the region's measured span excludes the profiler's
    own work.  Exit bookkeeping is charged to
    :attr:`Profiler.overhead`; the (smaller) enter bookkeeping leaks
    into the parent's self time rather than paying a second clock read
    per entry.
    """

    __slots__ = ("profiler", "name")

    def __init__(self, profiler: "Profiler", name: str):
        self.profiler = profiler
        self.name = name

    def __enter__(self) -> "_Region":
        # bookkeeping first, *then* stamp: the enter cost leaks into
        # the parent's self time (sub-microsecond) instead of paying a
        # second clock read per entry — these run per event on the hot
        # path, so clock reads are budgeted
        prof = self.profiler
        frame = [self.name, 0.0, 0.0]
        prof._stack.append(frame)
        frame[1] = prof._clock()
        return self

    def __exit__(self, _exc_type, _exc, _tb) -> bool:
        prof = self.profiler
        end = prof._clock()
        stack = prof._stack
        # LIFO discipline is guaranteed by with-nesting; be lenient
        # about a foreign frame on top (a region closed twice).
        while stack:
            frame = stack.pop()
            if frame[0] == self.name:
                break
        else:
            return False
        elapsed = end - frame[1]
        if elapsed < 0.0:
            elapsed = 0.0
        self_time = elapsed - frame[2]
        if self_time < 0.0:
            self_time = 0.0
        stat = prof.stats.get(self.name)
        if stat is None:
            stat = prof.stats[self.name] = RegionStat(self.name)
        stat.calls += 1
        stat.cum += elapsed
        stat.self_time += self_time
        if stack:
            stack[-1][2] += elapsed
        prof.entries += 1
        prof.overhead += prof._clock() - end
        return False


class Profiler:
    """Scoped wall-clock regions with self/cumulative attribution.

    ``clock`` defaults to :func:`time.perf_counter`; tests inject a
    fake clock to make attribution assertions exact.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._clock = clock or time.perf_counter
        self.enabled = False
        self._stack: List[list] = []
        self.stats: Dict[str, RegionStat] = {}
        # _Region keeps no per-entry state (frames live on _stack), so
        # one instance per name serves every entry — hot regions skip
        # an allocation per call
        self._regions: Dict[str, _Region] = {}
        self.entries = 0          # region entries recorded
        self.overhead = 0.0       # seconds spent on profiler bookkeeping

    # -- control -----------------------------------------------------------

    def enable(self) -> "Profiler":
        self.enabled = True
        return self

    def disable(self) -> "Profiler":
        self.enabled = False
        self._stack = []
        return self

    def reset(self) -> None:
        """Drop every recorded sample (keeps the enabled state)."""
        self._stack = []
        self.stats = {}
        self.entries = 0
        self.overhead = 0.0

    # -- recording ---------------------------------------------------------

    def profile(self, name: str):
        """A region context manager (:data:`NULL_REGION` when off)."""
        if not self.enabled:
            return NULL_REGION
        region = self._regions.get(name)
        if region is None:
            region = self._regions[name] = _Region(self, name)
        return region

    # -- queries -----------------------------------------------------------

    def report(self) -> Dict[str, Dict[str, Any]]:
        """{region name: stat dict} — a bundle's ``profiler`` section."""
        return {name: stat.to_dict()
                for name, stat in sorted(self.stats.items())}

    def __repr__(self) -> str:
        return "Profiler(%s, %d regions, %d entries)" % (
            "on" if self.enabled else "off", len(self.stats),
            self.entries)

