"""Metric primitives and the registry that unifies them.

Three instrument kinds cover the reproduction's needs:

* :class:`Counter` — monotonically increasing event counts,
* :class:`Gauge` — point-in-time values (set directly or computed by a
  collector callback at snapshot time),
* :class:`Histogram` — value distributions over a bounded ring buffer,
  with nearest-rank percentiles.

Every metric lives in a :class:`MetricsRegistry` under a dotted
``layer.component.name`` identifier and is timestamped from the
registry's clock — wired to ``Simulator.now`` by the ESCAPE facade, so
telemetry output is as deterministic as the simulation itself.

Hot paths (per-packet switch/link/element work) deliberately do *not*
call into metric objects: they keep their plain integer counters and a
registry *collector* callback pulls those values into gauges when a
snapshot is taken.  Control-path events (RPCs, deploys, mapping) use
Counter/Histogram objects directly.
"""

import re
import time
from bisect import bisect_left
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

# layer.component.name — lowercase dotted segments; the convention is
# three segments but deeper hierarchies are allowed.
_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9][a-z0-9_-]*)+$")


class MetricError(Exception):
    """Bad metric name, kind conflict, or illegal operation."""


def nearest_rank(values, p: float) -> Optional[float]:
    """The one percentile rule: the smallest value with at least ``p``
    percent of the samples at or below it (rank ``ceil(p * n / 100)``,
    so the median of an even count is the lower middle).  ``p`` in
    [0, 100] or :class:`MetricError`, whatever the sample count; None
    on no samples."""
    if p < 0 or p > 100:
        raise MetricError("percentile must be in [0, 100], got %r" % p)
    if not values:
        return None
    ordered = sorted(values)
    return ordered[max(1, int(-(-p * len(ordered) // 100))) - 1]  # ceil


def _default_clock() -> float:
    return 0.0


def labelled_key(name: str, labels: Optional[Dict[str, str]]) -> str:
    """Registry key for a (name, labels) pair: ``name{k=v,...}``."""
    if not labels:
        return name
    return "%s{%s}" % (name, ",".join(
        "%s=%s" % (key, value) for key, value in sorted(labels.items())))


class Metric:
    """Base: a named instrument with a last-updated timestamp.

    ``labels`` (optional, immutable after creation) distinguish
    instances of one logical metric — e.g. ``sla.state`` per chain.
    Labelled metrics register under ``name{k=v}`` keys and export as
    Prometheus labelled series.
    """

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 clock: Optional[Callable[[], float]] = None,
                 labels: Optional[Dict[str, str]] = None):
        self.name = name
        self.help = help
        self.labels: Dict[str, str] = dict(labels or {})
        self._clock = clock or _default_clock
        self.last_updated: Optional[float] = None

    @property
    def key(self) -> str:
        return labelled_key(self.name, self.labels)

    def _touch(self) -> None:
        self.last_updated = self._clock()

    def _base_snapshot(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"type": self.kind,
                                "last_updated": self.last_updated}
        if self.labels:
            data["labels"] = dict(self.labels)
        return data

    def snapshot(self) -> Dict[str, Any]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, self.key)


class Counter(Metric):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 clock: Optional[Callable[[], float]] = None,
                 labels: Optional[Dict[str, str]] = None):
        super().__init__(name, help, clock, labels)
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise MetricError("counter %s cannot decrease (inc by %r)"
                              % (self.name, amount))
        self.value += amount
        self._touch()

    def snapshot(self) -> Dict[str, Any]:
        data = self._base_snapshot()
        data["value"] = self.value
        return data


class Gauge(Metric):
    """A value that can go up and down, or be computed on demand."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 clock: Optional[Callable[[], float]] = None,
                 labels: Optional[Dict[str, str]] = None):
        super().__init__(name, help, clock, labels)
        self._value: float = 0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        self._value = value
        self._fn = None
        self._touch()

    def inc(self, amount: float = 1) -> None:
        self.set(self._value + amount)

    def dec(self, amount: float = 1) -> None:
        self.set(self._value - amount)

    def set_function(self, fn: Callable[[], float]) -> None:
        """Compute the value lazily at read time (callback gauge)."""
        self._fn = fn
        self._touch()

    @property
    def value(self) -> float:
        return self._fn() if self._fn is not None else self._value

    def snapshot(self) -> Dict[str, Any]:
        data = self._base_snapshot()
        data["value"] = self.value
        return data


class Histogram(Metric):
    """A distribution over a bounded window of observations.

    Lifetime ``count``/``sum`` accumulate forever; percentiles are
    computed over the last ``size`` observations (a ring buffer), which
    bounds memory and keeps quantiles responsive to recent behaviour.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 clock: Optional[Callable[[], float]] = None,
                 labels: Optional[Dict[str, str]] = None,
                 size: int = 1024,
                 buckets: Optional[List[float]] = None):
        super().__init__(name, help, clock, labels)
        if size <= 0:
            raise MetricError("histogram %s needs a positive window size"
                              % name)
        self.size = size
        self._window: deque = deque(maxlen=size)
        self.count = 0
        self.sum: float = 0.0
        # optional explicit bucket bounds (Prometheus ``le`` upper
        # bounds, +Inf implied): lifetime counts kept per bucket
        self.bucket_bounds: Tuple[float, ...] = tuple(
            sorted(buckets)) if buckets else ()
        self._bucket_counts: List[int] = [0] * len(self.bucket_bounds)

    def observe(self, value: float) -> None:
        self._window.append(value)
        self.count += 1
        self.sum += value
        if self.bucket_bounds:
            index = bisect_left(self.bucket_bounds, value)
            if index < len(self._bucket_counts):
                self._bucket_counts[index] += 1
        self._touch()

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """Prometheus-style cumulative ``(le, count)`` pairs, always
        terminated by the mandatory ``(+Inf, lifetime count)``."""
        pairs: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bucket_bounds, self._bucket_counts):
            running += count
            pairs.append((bound, running))
        pairs.append((float("inf"), self.count))
        return pairs

    def percentile(self, p: float) -> Optional[float]:
        """:func:`nearest_rank` over the window (p in [0, 100])."""
        return nearest_rank(self._window, p)

    def snapshot(self) -> Dict[str, Any]:
        window = list(self._window)
        data = self._base_snapshot()
        data.update({
            "count": self.count,
            "sum": self.sum,
            "window": len(window),
        })
        if self.bucket_bounds:
            data["buckets"] = [[bound, count] for bound, count
                               in self.cumulative_buckets()[:-1]]
        if window:
            data.update({
                "min": min(window),
                "max": max(window),
                "mean": sum(window) / len(window),
                "p50": self.percentile(50),
                "p90": self.percentile(90),
                "p99": self.percentile(99),
            })
        return data


class MetricsRegistry:
    """All instruments of one framework instance, by dotted name.

    ``counter``/``gauge``/``histogram`` are get-or-create: repeated
    calls with one name return the same object, and asking for a name
    under a different kind is an error.  *Collectors* — callbacks
    invoked before every :meth:`snapshot` — let hot-path components
    export plain-integer counters without paying per-event costs.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self.clock = clock or _default_clock
        self._metrics: Dict[str, Metric] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []
        # self-overhead accounting: the metrics layer measures its own
        # cost (host wall-clock) as first-class numbers
        self.collect_seconds = 0.0

    # -- instrument creation ----------------------------------------------

    def _get_or_create(self, cls, name: str, help: str,
                       labels: Optional[Dict[str, str]] = None,
                       **kwargs) -> Metric:
        key = labelled_key(name, labels)
        existing = self._metrics.get(key)
        if existing is not None:
            if not isinstance(existing, cls):
                raise MetricError(
                    "metric %r already registered as %s, not %s"
                    % (key, existing.kind, cls.kind))
            return existing
        if not _NAME_RE.match(name):
            raise MetricError(
                "bad metric name %r (want dotted layer.component.name)"
                % name)
        metric = cls(name, help, clock=self.clock, labels=labels, **kwargs)
        self._metrics[key] = metric
        return metric

    def counter(self, name: str, help: str = "",
                labels: Optional[Dict[str, str]] = None) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Optional[Dict[str, str]] = None) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: Optional[Dict[str, str]] = None,
                  buckets: Optional[List[float]] = None) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels,
                                   buckets=buckets)

    # -- access -----------------------------------------------------------

    def get(self, name: str,
            labels: Optional[Dict[str, str]] = None) -> Optional[Metric]:
        return self._metrics.get(labelled_key(name, labels))

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def metrics(self) -> List[Metric]:
        return [self._metrics[name] for name in self.names()]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    # -- collectors and snapshots -----------------------------------------

    def add_collector(self,
                      fn: Callable[["MetricsRegistry"], None]) -> None:
        """Register a callback run before each snapshot; it receives the
        registry and typically sets gauges from live object state."""
        self._collectors.append(fn)

    def remove_collector(self,
                         fn: Callable[["MetricsRegistry"], None]) -> None:
        if fn in self._collectors:
            self._collectors.remove(fn)

    def collect(self) -> None:
        started = time.perf_counter()
        for collector in self._collectors:
            collector(self)
        self.collect_seconds += time.perf_counter() - started

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """{name: metric snapshot}, after running the collectors."""
        self.collect()
        return {name: metric.snapshot()
                for name, metric in sorted(self._metrics.items())}

    def __repr__(self) -> str:
        return "MetricsRegistry(%d metrics, %d collectors)" % (
            len(self._metrics), len(self._collectors))
