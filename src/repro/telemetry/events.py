"""Structured event log: the "what happened, and when" record.

Metrics say *how much*, traces say *how long*; events say *what
happened*.  Every layer emits :class:`Event` records — severity-
levelled, sim-clock timestamped, tagged, and (when a span is open)
correlated to the active trace — into one bounded ring buffer per
framework instance.  The log is queryable (by severity, source, name,
time window), streamable (subscriber callbacks, for live dashboards)
and exportable as JSON lines, so a degraded chain can be explained
after the fact: the link flap, the SLA transition it caused and the
re-steer that repaired it all share one timeline.

Severity follows syslog's spirit with four levels::

    DEBUG < INFO < WARN < ERROR

Sources follow the metric convention (``layer.component``), names are
short dotted verbs (``chain.deployed``, ``sla.violated``,
``link.down``), and tags carry the specifics.
"""

import itertools
import json
import os
from collections import deque
from typing import Any, Callable, Dict, List, Optional

DEBUG = "DEBUG"
INFO = "INFO"
WARN = "WARN"
ERROR = "ERROR"

SEVERITIES = (DEBUG, INFO, WARN, ERROR)
_RANK = {severity: rank for rank, severity in enumerate(SEVERITIES)}


class EventError(Exception):
    """Bad severity or malformed emit call."""


def severity_rank(severity: str) -> int:
    try:
        return _RANK[severity]
    except KeyError:
        raise EventError("unknown severity %r (want one of %s)"
                         % (severity, "/".join(SEVERITIES)))


class Event:
    """One structured log record."""

    __slots__ = ("seq", "time", "severity", "source", "name", "message",
                 "trace_id", "tags")

    def __init__(self, seq: int, time: float, severity: str, source: str,
                 name: str, message: str = "",
                 trace_id: Optional[int] = None,
                 tags: Optional[Dict[str, Any]] = None):
        self.seq = seq
        self.time = time
        self.severity = severity
        self.source = source
        self.name = name
        self.message = message
        self.trace_id = trace_id
        self.tags = tags or {}

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "seq": self.seq,
            "time": self.time,
            "severity": self.severity,
            "source": self.source,
            "name": self.name,
        }
        if self.message:
            data["message"] = self.message
        if self.trace_id is not None:
            data["trace_id"] = self.trace_id
        if self.tags:
            data["tags"] = {key: value for key, value
                            in sorted(self.tags.items())}
        return data

    def to_json(self) -> str:
        """One JSON-lines record (keys sorted, so logs diff cleanly)."""
        return json.dumps(self.to_dict(), sort_keys=True, default=str)

    def render(self) -> str:
        """One human-readable line (the CLI ``events`` output)."""
        tags = " ".join("%s=%s" % item for item in sorted(self.tags.items()))
        trace = (" [trace %d]" % self.trace_id
                 if self.trace_id is not None else "")
        return "%10.6f %-5s %-20s %-22s %s%s%s" % (
            self.time, self.severity, self.source, self.name,
            self.message, (" " + tags) if tags else "", trace)

    def __repr__(self) -> str:
        return "Event(%s %s/%s @%.6f)" % (self.severity, self.source,
                                          self.name, self.time)


class EventLog:
    """Bounded, sim-clocked, trace-correlated structured log.

    ``capacity`` bounds the live view (oldest records evict first);
    :meth:`record_jsonl` streams a whole run's record to disk;
    ``min_severity`` drops emits below the threshold before they cost
    anything; ``tracer`` (optional) stamps each event with the id of
    the span open at emit time, joining the event timeline to the
    trace tree.
    """

    #: the live view: every example and reference run fits (<= 144)
    CAPACITY = 256

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 capacity: int = CAPACITY, tracer=None,
                 min_severity: str = DEBUG):
        if capacity <= 0:
            raise EventError("event log capacity must be positive")
        self.clock = clock or (lambda: 0.0)
        self.capacity = capacity
        self.tracer = tracer
        self.min_severity = min_severity
        self._ring: deque = deque(maxlen=capacity)
        self._seq = itertools.count(1)
        self.emitted = 0
        self.suppressed = 0
        self._by_severity: Dict[str, int] = {s: 0 for s in SEVERITIES}
        self._subscribers: List[Callable[[Event], None]] = []

    # -- emission ----------------------------------------------------------

    def emit(self, severity: str, source: str, name: str,
             message: str = "", trace_id: Optional[int] = None,
             **tags: Any) -> Optional[Event]:
        """Append one record; returns it (or None when below threshold)."""
        if severity_rank(severity) < severity_rank(self.min_severity):
            self.suppressed += 1
            return None
        if trace_id is None and self.tracer is not None:
            current = self.tracer.current
            if current is not None:
                trace_id = current.span_id
        event = Event(next(self._seq), self.clock(), severity, source,
                      name, message, trace_id, tags)
        self._ring.append(event)
        self.emitted += 1
        self._by_severity[severity] += 1
        for subscriber in self._subscribers:
            subscriber(event)
        return event

    def debug(self, source: str, name: str, message: str = "",
              **tags: Any) -> Optional[Event]:
        return self.emit(DEBUG, source, name, message, **tags)

    def info(self, source: str, name: str, message: str = "",
             **tags: Any) -> Optional[Event]:
        return self.emit(INFO, source, name, message, **tags)

    def warn(self, source: str, name: str, message: str = "",
             **tags: Any) -> Optional[Event]:
        return self.emit(WARN, source, name, message, **tags)

    def error(self, source: str, name: str, message: str = "",
              **tags: Any) -> Optional[Event]:
        return self.emit(ERROR, source, name, message, **tags)

    def subscribe(self, callback: Callable[[Event], None]) -> None:
        """Live hook: called synchronously for every kept event."""
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[Event], None]) -> None:
        if callback in self._subscribers:
            self._subscribers.remove(callback)

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def evicted(self) -> int:
        """Records pushed out of the ring by newer ones."""
        return self.emitted - len(self._ring)

    def counts(self) -> Dict[str, int]:
        """Lifetime emit counts by severity (evictions included)."""
        return dict(self._by_severity)

    def events(self) -> List[Event]:
        return list(self._ring)

    def query(self, min_severity: str = DEBUG,
              source: Optional[str] = None, name: Optional[str] = None,
              trace_id: Optional[int] = None,
              limit: Optional[int] = None) -> List[Event]:
        """Filter retained events; ``source`` matches prefixes, so
        ``core`` selects every core-layer component."""
        floor = severity_rank(min_severity)
        selected = []
        for event in self._ring:
            if severity_rank(event.severity) < floor:
                continue
            if source is not None and not (
                    event.source == source
                    or event.source.startswith(source + ".")):
                continue
            if name is not None and event.name != name:
                continue
            if trace_id is not None and event.trace_id != trace_id:
                continue
            selected.append(event)
        if limit is not None and limit >= 0:
            selected = selected[-limit:] if limit else []
        return selected

    # -- export ------------------------------------------------------------

    def write_jsonl(self, path) -> int:
        """Write the retained events to ``path`` (str or Path; missing
        parent directories are created); returns the count."""
        return self.record_jsonl(path)()

    def record_jsonl(self, path) -> Callable[[], int]:
        """:meth:`write_jsonl`, then append every later event until the
        returned ``stop()``, which closes the file and returns the
        number of records written."""
        os.makedirs(os.path.dirname(os.fspath(path)) or os.curdir,
                    exist_ok=True)
        handle = open(path, "w")
        handle.writelines(event.to_json() + "\n" for event in self._ring)
        unseen = self.evicted  # emitted before the ring's oldest record

        def write(event: Event) -> None:
            handle.write(event.to_json() + "\n")
        # first, so events other subscribers emit in reply follow it
        self._subscribers.insert(0, write)

        def stop() -> int:
            self._subscribers.remove(write)
            handle.close()
            return self.emitted - unseen
        return stop

    def __repr__(self) -> str:
        return "EventLog(%d kept / %d emitted, capacity=%d)" % (
            len(self._ring), self.emitted, self.capacity)
