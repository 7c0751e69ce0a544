"""Perf attribution reports: where the wall-clock went, and diffing.

The profiler is the one instrument that times the framework: event
kinds (the simulator opens every dispatch under its callback's name)
and the hand-placed regions nested under them live in one table.  This
module wraps that table, the dispatched-event count and the workload's
throughput numbers into one **attribution report** — a JSON structure
plus a top-consumers rendering — built from live objects
(:func:`build_report`) or from a scenario result bundle
(:func:`report_from_bundle`; :func:`load_report` reads either from
disk).

Raw wall-clock numbers are machine-dependent, so every report embeds a
*calibration unit* (:func:`calibrate`: the cost of a fixed pure-Python
loop on the same machine).  :func:`diff_reports` — ``escape perf
diff``, the before/after tool — compares two reports region by region
in those units (``per_call_self / calibration``) and gates on the
guarded regions and throughput floors.
"""

import json
import os
import time
from typing import Any, Dict, List, Optional

from repro.telemetry.export import find_files
from repro.telemetry.profiler import RegionStat, render_regions

REPORT_SCHEMA = 2

#: Regions the diff gate guards by default: present in every run of a
#: chain workload and hot enough that a slowdown there is a real
#: finding, not noise.
DEFAULT_GUARDED = (
    "netem.link.Link._deliver",
    "netem.link.transmit",
    "click.element.push",
    "openflow.wire.encode",
    "openflow.wire.decode",
    "netconf.rpc.encode",
    "netconf.rpc.decode",
    "core.mapping.solve",
    "pox.steering.install",
)

#: Throughput numbers the gate *requires*: unlike the opportunistic
#: baseline-driven comparison (any shared number is checked), a guarded
#: throughput key missing from the current report is itself a failure —
#: a workload change cannot silently drop the floor.
GUARDED_THROUGHPUT = ("udp_pps_wall",)

CALIBRATION_LOOPS = 200_000

#: What every region record carries.
REGION_FIELDS = frozenset(RegionStat("").to_dict())


class IntrospectError(Exception):
    """Unreadable or unrecognizable perf source."""


def calibrate(loops: int = CALIBRATION_LOOPS) -> float:
    """Seconds one fixed arithmetic loop takes on this machine — the
    normalization unit embedded in every bundle and report."""
    best = None
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for index in range(loops):
            total += index * 3 % 7
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return best


def _report(regions: Dict[str, Any], dispatched: Optional[int],
            throughput: Optional[Dict[str, float]],
            calibration: Optional[float],
            meta: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "schema": REPORT_SCHEMA,
        "kind": "attribution",
        "calibration_s": calibration,
        "regions": dict(regions),
        "dispatched": dispatched,
        "throughput": dict(throughput or {}),
        "meta": meta,
    }


def build_report(profiler=None, dispatched: Optional[int] = None,
                 throughput: Optional[Dict[str, float]] = None,
                 calibration: Optional[float] = None,
                 meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """One attribution report from live measurement objects.

    Any source may be absent (``None``); the report carries whatever
    was measured.  ``dispatched`` is the event count of the measured
    window (a ``sim.processed`` delta).  Without ``calibration``
    (:func:`calibrate`) the report still renders, but diffs against it
    compare raw seconds — meaningless across machines.
    """
    regions = profiler.report() if profiler is not None else {}
    return _report(regions, dispatched, throughput, calibration,
                   dict(meta or {}))


def report_from_bundle(bundle: Dict[str, Any]) -> Dict[str, Any]:
    """An attribution report out of a scenario result bundle (schema
    5: ``dispatched`` and ``calibration_s`` always, the ``profiler``
    region table when the scenario set ``profile: true``)."""
    meta = {
        "source": "bundle",
        "scenario": bundle.get("scenario", {}).get("name"),
        "seed": bundle.get("seed"),
        "sim_duration": bundle.get("sim_duration"),
        "wall_seconds": bundle.get("wall_seconds"),
    }
    return _report(bundle.get("profiler") or {}, bundle.get("dispatched"),
                   bundle.get("throughput"), bundle.get("calibration_s"),
                   meta)


def coerce_report(data: Dict[str, Any],
                  source: str = "<data>") -> Dict[str, Any]:
    """Normalize recognized perf JSON into an attribution report: an
    attribution report passes through, a scenario result bundle
    (``seed`` + ``workload``/``scenario``) is converted."""
    if not isinstance(data, dict):
        raise IntrospectError("%s: perf source must be a JSON object"
                              % source)
    if data.get("kind") == "attribution":
        report = data
    elif "seed" in data and ("workload" in data or "scenario" in data):
        report = report_from_bundle(data)
    else:
        raise IntrospectError(
            "%s: not an attribution report or result bundle (keys: %s)"
            % (source, ", ".join(sorted(data)[:8])))
    for name, entry in (report.get("regions") or {}).items():
        if not (isinstance(entry, dict) and REGION_FIELDS <= set(entry)):
            raise IntrospectError(
                "%s: region %r is not a {%s} record"
                % (source, name, ", ".join(sorted(REGION_FIELDS))))
    return report


def load_report(path) -> Dict[str, Any]:
    """Attribution report from a JSON file or a results directory
    containing exactly one ``bundle.json``."""
    path = os.fspath(path)
    if os.path.isdir(path):
        found = find_files(path)
        if not found:
            raise IntrospectError("%s: no bundle.json underneath" % path)
        if len(found) > 1:
            raise IntrospectError(
                "%s: %d bundles underneath — name one (%s, ...)"
                % (path, len(found), found[0]))
        path = found[0]
    if not os.path.isfile(path):
        raise IntrospectError("no such perf source: %s" % path)
    with open(path) as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:
            raise IntrospectError("%s: invalid JSON (%s)" % (path, exc))
    return coerce_report(data, source=path)


# -- diffing ------------------------------------------------------------------


def _deltas(base: Dict[str, float],
            cur: Dict[str, float]) -> List[Dict[str, Any]]:
    """Fractional change of every name present in both maps with a
    positive baseline value."""
    rows = []
    for name in sorted(set(base) & set(cur)):
        if not base[name] or base[name] <= 0.0:
            continue
        rows.append({"name": name, "baseline": base[name],
                     "current": cur[name],
                     "delta": cur[name] / base[name] - 1.0})
    return rows


def diff_reports(baseline: Dict[str, Any], current: Dict[str, Any],
                 threshold: float = 0.15,
                 guarded: Optional[List[str]] = None) -> Dict[str, Any]:
    """Comparison of two attribution reports.

    ``regions`` deltas compare per-call self time in calibration units
    (machine speed cancels; raw seconds when either report lacks its
    calibration), biggest mover first; ``throughput`` compares raw
    numbers.  ``findings`` is the gate over those deltas: guarded
    regions (:data:`DEFAULT_GUARDED` unless ``guarded`` names others)
    that slowed beyond ``threshold`` and throughput numbers that
    *dropped* beyond it.  A region absent from either report is
    skipped (a renamed region is a baseline update, not a regression)
    — but a :data:`GUARDED_THROUGHPUT` name the baseline carries must
    be in the current report too: a run that stops measuring
    ``udp_pps_wall`` would otherwise pass with the floor silently
    gone.  An empty findings list means the gate passes."""
    baseline = coerce_report(baseline, "<baseline>")
    current = coerce_report(current, "<current>")
    if guarded is None:
        guarded = DEFAULT_GUARDED
    normalized = bool(baseline.get("calibration_s")
                      and current.get("calibration_s"))

    def scores(report: Dict[str, Any]) -> Dict[str, float]:
        unit = report["calibration_s"] if normalized else 1.0
        return {name: entry["per_call_s"] / unit
                for name, entry in (report.get("regions") or {}).items()}

    region_deltas = _deltas(scores(baseline), scores(current))
    region_deltas.sort(key=lambda item: (-abs(item["delta"]), item["name"]))
    base_tp = baseline.get("throughput") or {}
    cur_tp = current.get("throughput") or {}
    throughput_deltas = _deltas(base_tp, cur_tp)
    findings = [dict(item, kind="region") for item in region_deltas
                if item["name"] in guarded and item["delta"] > threshold]
    findings += [dict(item, kind="throughput") for item in throughput_deltas
                 if item["delta"] < -threshold]
    findings += [{"kind": "throughput_missing", "name": name,
                  "baseline": base_tp[name]}
                 for name in GUARDED_THROUGHPUT
                 if base_tp.get(name, 0.0) > 0.0 and name not in cur_tp]
    return {
        "threshold": threshold,
        "guarded": list(guarded),
        "normalized": normalized,
        "regions": region_deltas,
        "throughput": throughput_deltas,
        "max_abs_delta": max(
            (abs(item["delta"])
             for item in region_deltas + throughput_deltas), default=0.0),
        "findings": findings,
    }


# -- rendering ----------------------------------------------------------------


def render_report(report: Dict[str, Any], limit: int = 12) -> str:
    """The human top-consumers view of one attribution report."""
    report = coerce_report(report)
    meta = report.get("meta") or {}
    header = "perf attribution"
    if meta.get("scenario") is not None:
        header += " — %s seed %s" % (meta["scenario"], meta.get("seed"))
    if report.get("calibration_s"):
        header += " (calibration %.6fs)" % report["calibration_s"]
    lines = [header]
    if report.get("dispatched") is not None:
        lines.append("dispatched %d event(s)" % report["dispatched"])
    regions = report.get("regions") or {}
    if regions:
        lines.extend(render_regions(regions, limit))
    elif meta.get("source") == "bundle":
        lines.append("no region table: the scenario ran without "
                     "`profile: true`")
    throughput = report.get("throughput") or {}
    if throughput:
        lines.append("throughput: " + "  ".join(
            "%s=%.4g" % item for item in sorted(throughput.items())))
    if len(lines) == 1:
        lines.append("(no region, event or throughput data)")
    return "\n".join(lines)


def render_diff(diff: Dict[str, Any], limit: int = 10) -> str:
    """The human view of :func:`diff_reports` output."""
    threshold = diff["threshold"]
    lines = [
        "perf diff (%s per-call, threshold %.0f%%): max |delta| %.2f%%"
        % ("calibration-normalized" if diff.get("normalized") else "raw",
           threshold * 100, 100.0 * diff.get("max_abs_delta", 0.0))]
    for section, label in (("regions", "region"),
                           ("throughput", "throughput")):
        deltas = diff.get(section) or []
        if not deltas:
            continue
        lines.append("%s deltas (%d compared):" % (label, len(deltas)))
        for item in deltas[:limit]:
            lines.append("  %-44s %10.4g -> %10.4g  %+7.2f%%"
                         % (item["name"], item["baseline"],
                            item["current"], item["delta"] * 100))
        if len(deltas) > limit:
            lines.append("  ... %d more" % (len(deltas) - limit))
    findings = diff.get("findings") or []
    if not findings:
        lines.append("perf gate PASS: no guarded region or throughput "
                     "number regressed beyond %.0f%%" % (threshold * 100))
    else:
        lines.append("perf gate FAIL: %d regression(s) beyond %.0f%%"
                     % (len(findings), threshold * 100))
    for finding in findings:
        if finding["kind"] == "throughput_missing":
            lines.append(
                "  throughput %-32s %.4g -> MISSING (guarded floor not "
                "measured)" % (finding["name"], finding["baseline"]))
        else:
            lines.append(
                "  %s %-36s %.4g -> %.4g (%+.1f%%)"
                % (finding["kind"], finding["name"], finding["baseline"],
                   finding["current"], finding["delta"] * 100))
    return "\n".join(lines)
