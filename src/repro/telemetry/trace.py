"""Span-based tracing over the simulated clock.

A *span* is one timed operation; spans opened while another span is
active become its children, so a chain deployment produces one tree::

    service.deploy
      service.parse_sg
      orchestrator.deploy
        orchestrator.map
        orchestrator.start_vnf
          netconf.rpc (startVNF)
          netconf.rpc (connectVNF)
        orchestrator.install_segment
          steering.install_path
            openflow.flow_mod

Spans are context managers and must be closed in LIFO order — which
Python's ``with`` nesting guarantees, including across simulator pumps
(a blocking ``PendingReply.result`` call runs nested callbacks to
completion inside the enclosing span, so their spans nest correctly).

All timestamps come from the tracer's clock (``Simulator.now`` when
bound by the ESCAPE facade), so traces are deterministic and span
durations measure *simulated* latency — e.g. a ``netconf.rpc`` span's
duration is the RPC's round trip over the emulated control network.
"""

import itertools
from collections import deque
from typing import Any, Callable, Dict, Iterator, List, Optional


class Span:
    """One timed operation in a trace tree."""

    __slots__ = ("tracer", "name", "span_id", "tags", "start", "end",
                 "children", "status")

    def __init__(self, tracer: "Tracer", name: str, span_id: int,
                 tags: Dict[str, Any]):
        self.tracer = tracer
        self.name = name
        self.span_id = span_id
        self.tags = tags
        self.start: Optional[float] = None
        self.end: Optional[float] = None
        self.children: List["Span"] = []
        self.status = "open"

    # -- context manager protocol ------------------------------------------

    def __enter__(self) -> "Span":
        self.tracer._open(self)
        return self

    def __exit__(self, exc_type, _exc, _tb) -> bool:
        # a closed span holds no tracer: the tracer keeps finished
        # traces, and the pair would be a reference cycle
        tracer, self.tracer = self.tracer, None
        if tracer is not None:
            tracer._close(self, error=exc_type is not None)
        return False  # never swallow

    # -- queries -----------------------------------------------------------

    @property
    def duration(self) -> Optional[float]:
        if self.start is None or self.end is None:
            return None
        return self.end - self.start

    def depth(self) -> int:
        """Levels in this subtree (a leaf span has depth 1)."""
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def iter_spans(self) -> Iterator["Span"]:
        """This span and every descendant, preorder."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def find(self, name: str) -> List["Span"]:
        """All spans named ``name`` in this subtree."""
        return [span for span in self.iter_spans() if span.name == name]

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "name": self.name,
            "span_id": self.span_id,
            "start": self.start,
            "end": self.end,
            "status": self.status,
        }
        if self.tags:
            data["tags"] = dict(self.tags)
        if self.children:
            data["children"] = [child.to_dict() for child in self.children]
        return data

    def render(self, indent: int = 0) -> str:
        """Indented one-line-per-span tree (the CLI ``trace`` output)."""
        duration = self.duration
        timing = ("%.6fs" % duration) if duration is not None else "?"
        tags = " ".join("%s=%s" % item for item in sorted(self.tags.items()))
        line = "%s%s [%s]%s" % ("  " * indent, self.name, timing,
                                (" " + tags) if tags else "")
        lines = [line]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return "Span(%s, id=%d, %s)" % (self.name, self.span_id,
                                        self.status)


class Tracer:
    """Creates spans, tracks the active stack, keeps finished traces.

    Finished *root* spans (those opened while no span was open) are
    retained in a bounded ring (``max_traces``); :attr:`last_trace` is
    the most recently completed one — for a chain deployment, the full
    deploy tree.  A span holds only its children, so a trace that leaves
    the ring is a tree that reference counting frees.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 max_traces: int = 16):
        self.clock = clock or (lambda: 0.0)
        self._ids = itertools.count(1)
        self._stack: List[Span] = []
        self.traces: deque = deque(maxlen=max_traces)
        self.spans_started = 0

    def span(self, name: str, **tags: Any) -> Span:
        """A new span; use as ``with tracer.span("x"): ...``."""
        return Span(self, name, next(self._ids), tags)

    # -- stack management (driven by Span's context protocol) -------------

    def _open(self, span: Span) -> None:
        span.start = self.clock()
        if self._stack:
            self._stack[-1].children.append(span)
        self._stack.append(span)
        self.spans_started += 1

    def _close(self, span: Span, error: bool = False) -> None:
        span.end = self.clock()
        span.status = "error" if error else "ok"
        stack = self._stack
        if span not in stack:
            return  # closed twice, or never opened: no frame to pop
        # LIFO discipline: with-blocks close innermost first; spans
        # left open above this one are abandoned with it
        while stack.pop() is not span:
            pass
        if not stack:
            self.traces.append(span)

    # -- queries -----------------------------------------------------------

    @property
    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    @property
    def last_trace(self) -> Optional[Span]:
        return self.traces[-1] if self.traces else None

    def find_span(self, span_id: int) -> Optional[Span]:
        """Resolve a span id against the kept traces (and the open
        stack) — how a flight-recorder frame or an event joins back to
        its pipeline span."""
        for trace in self.traces:
            for span in trace.iter_spans():
                if span.span_id == span_id:
                    return span
        for open_span in self._stack:
            for span in open_span.iter_spans():
                if span.span_id == span_id:
                    return span
        return None

    def __repr__(self) -> str:
        return "Tracer(%d traces kept, %d spans started, depth=%d)" % (
            len(self.traces), self.spans_started, len(self._stack))
