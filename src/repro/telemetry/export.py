"""Telemetry exporters: JSON snapshots and Prometheus text format.

Both formats are pure functions of the registry (and optionally the
tracer), so exporting twice without advancing the simulation yields
byte-identical output — snapshots can be diffed across runs.
"""

import json
import os
import re
from typing import Any, Dict, List, Optional

from repro.telemetry.events import EventLog
from repro.telemetry.metrics import Histogram, MetricsRegistry
from repro.telemetry.trace import Tracer

_PROM_BAD = re.compile(r"[^a-zA-Z0-9_]")


def snapshot_dict(registry: MetricsRegistry,
                  tracer: Optional[Tracer] = None,
                  events: Optional[EventLog] = None) -> Dict[str, Any]:
    """The canonical snapshot structure both exporters build on."""
    data: Dict[str, Any] = {
        "time": registry.clock(),
        "metrics": registry.snapshot(),
    }
    if tracer is not None:
        data["traces"] = [trace.to_dict() for trace in tracer.traces]
    if events is not None:
        data["events"] = [event.to_dict() for event in events.events()]
    return data


def to_json(registry: MetricsRegistry, tracer: Optional[Tracer] = None,
            events: Optional[EventLog] = None,
            indent: Optional[int] = 2) -> str:
    return json.dumps(snapshot_dict(registry, tracer, events),
                      indent=indent, sort_keys=True)


def prometheus_name(name: str) -> str:
    """``layer.component.name`` -> ``layer_component_name``."""
    return _PROM_BAD.sub("_", name)


def _escape_label_value(value: str) -> str:
    """Exposition-format escaping: backslash, double-quote and newline
    must be escaped inside label values (everything else is literal)."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _label_text(labels: Dict[str, str],
                extra: Optional[Dict[str, str]] = None) -> str:
    """``{k="v",...}`` rendering, empty string for no labels."""
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    return "{%s}" % ",".join(
        '%s="%s"' % (key, _escape_label_value(value))
        for key, value in sorted(merged.items()))


def _le_text(bound: float) -> str:
    if bound == float("inf"):
        return "+Inf"
    return "%g" % bound


def to_prometheus(registry: MetricsRegistry) -> str:
    """Prometheus exposition text: counters and gauges as-is (with
    their labels), histograms with cumulative ``_bucket`` series (the
    mandatory ``+Inf`` bucket always present) plus _count/_sum."""
    registry.collect()
    lines = []
    typed = set()
    for metric in registry.metrics():
        name = prometheus_name(metric.name)
        if name not in typed:
            typed.add(name)
            if metric.help:
                lines.append("# HELP %s %s" % (name, metric.help))
            lines.append("# TYPE %s %s" % (name, metric.kind))
        if isinstance(metric, Histogram):
            for bound, count in metric.cumulative_buckets():
                lines.append("%s_bucket%s %d" % (
                    name, _label_text(metric.labels,
                                      {"le": _le_text(bound)}), count))
            labels = _label_text(metric.labels)
            lines.append("%s_count%s %d" % (name, labels, metric.count))
            lines.append("%s_sum%s %s" % (name, labels, _fmt(metric.sum)))
        else:
            lines.append("%s%s %s" % (name, _label_text(metric.labels),
                                      _fmt(metric.value)))
    return "\n".join(lines) + ("\n" if lines else "")


def _fmt(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def writable_path(path) -> str:
    """Normalize ``path`` (str or :class:`pathlib.Path`) and create
    missing parent directories, so exports never fail on a fresh
    output tree."""
    path = os.fspath(path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return path


def find_files(root, names=("bundle.json",)) -> List[str]:
    """Every file under directory ``root`` called one of ``names``,
    sorted: the one search behind the result-bundle readers."""
    return sorted(os.path.join(folder, name)
                  for folder, _dirs, files in os.walk(os.fspath(root))
                  for name in files if name in names)


def write_snapshot(path, registry: MetricsRegistry,
                   tracer: Optional[Tracer] = None,
                   fmt: str = "json",
                   events: Optional[EventLog] = None) -> str:
    """Write a snapshot to ``path`` (str or Path; missing parent
    directories are created); returns the serialized text."""
    if fmt == "json":
        text = to_json(registry, tracer, events)
    elif fmt in ("prom", "prometheus"):
        text = to_prometheus(registry)
    else:
        raise ValueError("unknown export format %r (json or prom)" % fmt)
    with open(writable_path(path), "w") as handle:
        handle.write(text)
    return text
