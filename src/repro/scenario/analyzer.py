"""Cross-seed bundle aggregation: the campaign's comparison tables.

``escape scenario report <results-dir>`` loads every ``bundle.json``
under the given paths, groups them by scenario, and renders one table
per scenario — a row per seed plus a mean row — over the headline
columns: delivered pps (simulated and wall-clock), p50/p99 one-way
delay, loss ratio, SLA violation ratio, average and median MTTR,
dataplane fast-failover flips, unrecovered chain count, and the
dispatched-event count.  :func:`report_dict` exposes
the same aggregation as JSON for dashboards and trajectory tracking,
:func:`render_csv` flattens the per-seed rows to CSV for external
plotting, and :func:`render_perf_report` (``escape perf report``)
prints each bundle's event count, profiler region table and
throughput.
"""

import csv
import io
import json
import os
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.scenario.runner import BUNDLE_NAME, BUNDLE_SCHEMA
from repro.telemetry.export import find_files
from repro.telemetry.profiler import render_regions


class AnalyzerError(Exception):
    pass


def load_bundles(paths: Union[str, os.PathLike,
                              Iterable[Union[str, os.PathLike]]]
                 ) -> List[Dict[str, Any]]:
    """Result bundles from files and/or directories (searched
    recursively for ``bundle.json``), ordered by (scenario, seed)."""
    if isinstance(paths, (str, os.PathLike)):
        paths = [paths]
    files: List[str] = []
    for path in paths:
        path = os.fspath(path)
        if os.path.isdir(path):
            files.extend(find_files(path, (BUNDLE_NAME,)))
        elif os.path.isfile(path):
            files.append(path)
        else:
            raise AnalyzerError("no such file or directory: %s" % path)
    if not files:
        raise AnalyzerError("no %s found under %s"
                            % (BUNDLE_NAME,
                               ", ".join(os.fspath(p) for p in paths)))
    bundles = []
    for name in sorted(set(files)):
        with open(name) as handle:
            try:
                bundle = json.load(handle)
            except ValueError as exc:
                raise AnalyzerError("%s: invalid JSON (%s)" % (name, exc))
        schema = bundle.get("schema") if isinstance(bundle, dict) else None
        if schema != BUNDLE_SCHEMA:
            raise AnalyzerError(
                "%s: bundle schema %r, this analyzer reads schema %d "
                "(re-run the scenario)" % (name, schema, BUNDLE_SCHEMA))
        bundle.setdefault("_path", name)
        bundles.append(bundle)
    bundles.sort(key=lambda b: (b.get("scenario", {}).get("name", ""),
                                b.get("seed", 0)))
    return bundles


def _row(bundle: Dict[str, Any]) -> Dict[str, Any]:
    workload = bundle.get("workload", {})
    recovery = bundle.get("recovery", {})
    sla = bundle.get("sla", {})
    throughput = bundle.get("throughput", {})
    protection = bundle.get("protection") or {}
    return {
        "seed": bundle.get("seed"),
        "pps_sim": throughput.get("udp_pps_sim"),
        "pps_wall": throughput.get("udp_pps_wall"),
        "delay_p50": workload.get("delay_p50"),
        "delay_p99": workload.get("delay_p99"),
        "loss_ratio": workload.get("loss_ratio"),
        "sla_violation_ratio": sla.get("violation_ratio"),
        "mttr_avg": recovery.get("mttr_avg"),
        "mttr_p50": recovery.get("mttr_p50"),
        "flips": protection.get("flips"),
        "repairs": recovery.get("repairs"),
        "unrecovered": len(recovery.get("unrecovered") or ()),
        "chains_deployed": len(bundle.get("chains", {})
                               .get("deployed") or ()),
        "chains_failed": len(bundle.get("chains", {})
                             .get("failed") or ()),
        "events": bundle.get("dispatched"),
    }


def _mean(values: List[Optional[float]]) -> Optional[float]:
    numbers = [value for value in values if value is not None]
    if not numbers:
        return None
    return sum(numbers) / len(numbers)


class CampaignReport:
    """All runs of one scenario, summarised."""

    def __init__(self, name: str, bundles: List[Dict[str, Any]]):
        self.name = name
        self.bundles = bundles
        self.rows = [_row(bundle) for bundle in bundles]

    def aggregate(self) -> Dict[str, Any]:
        keys = ("pps_sim", "pps_wall", "delay_p50", "delay_p99",
                "loss_ratio", "sla_violation_ratio", "mttr_avg",
                "mttr_p50", "flips", "events")
        summary: Dict[str, Any] = {
            key: _mean([row[key] for row in self.rows]) for key in keys}
        summary["seeds"] = [row["seed"] for row in self.rows]
        summary["unrecovered_total"] = sum(row["unrecovered"]
                                           for row in self.rows)
        summary["chains_failed_total"] = sum(row["chains_failed"]
                                             for row in self.rows)
        return summary

    def to_dict(self) -> Dict[str, Any]:
        return {"scenario": self.name, "rows": self.rows,
                "aggregate": self.aggregate()}


def group_reports(bundles: List[Dict[str, Any]]) -> List[CampaignReport]:
    grouped: Dict[str, List[Dict[str, Any]]] = {}
    for bundle in bundles:
        name = bundle.get("scenario", {}).get("name", "?")
        grouped.setdefault(name, []).append(bundle)
    return [CampaignReport(name, grouped[name])
            for name in sorted(grouped)]


def report_dict(bundles: List[Dict[str, Any]]) -> Dict[str, Any]:
    return {"campaigns": [report.to_dict()
                          for report in group_reports(bundles)]}


def _fmt(value: Optional[float], pattern: str = "%.4g") -> str:
    if value is None:
        return "-"
    return pattern % value


_COLUMNS = (
    ("seed", 6), ("pps_sim", 9), ("pps_wall", 9), ("p50[ms]", 8),
    ("p99[ms]", 8), ("loss", 7), ("sla-viol", 8), ("mttr[s]", 8),
    ("flips", 5), ("unrec", 5), ("events", 8),
)


def _render_row(label: str, row: Dict[str, Any]) -> str:
    delay_p50 = row["delay_p50"]
    delay_p99 = row["delay_p99"]
    cells = (
        label, _fmt(row["pps_sim"], "%.1f"), _fmt(row["pps_wall"], "%.1f"),
        _fmt(delay_p50 * 1e3 if delay_p50 is not None else None, "%.3f"),
        _fmt(delay_p99 * 1e3 if delay_p99 is not None else None, "%.3f"),
        _fmt(row["loss_ratio"], "%.4f"),
        _fmt(row["sla_violation_ratio"], "%.4f"),
        _fmt(row["mttr_avg"], "%.3f"),
        _fmt(row.get("flips"), "%.0f"),
        str(row["unrecovered"]),
        _fmt(row.get("events"), "%.0f"),
    )
    return "  ".join(cell.rjust(width)
                     for cell, (_name, width) in zip(cells, _COLUMNS))


def render_report(bundles: List[Dict[str, Any]]) -> str:
    """The cross-seed comparison tables, one per scenario."""
    lines: List[str] = []
    for report in group_reports(bundles):
        aggregate = report.aggregate()
        lines.append("campaign %s (%d run(s))"
                     % (report.name, len(report.rows)))
        lines.append("  ".join(name.rjust(width)
                               for name, width in _COLUMNS))
        for row in report.rows:
            lines.append(_render_row(str(row["seed"]), row))
        mean_row = dict(aggregate)
        mean_row["unrecovered"] = aggregate["unrecovered_total"]
        lines.append(_render_row("mean", mean_row))
        if aggregate["chains_failed_total"]:
            lines.append("  !! %d chain deploy(s) failed"
                         % aggregate["chains_failed_total"])
        lines.append("")
    return "\n".join(lines).rstrip()


CSV_FIELDS = ("scenario", "seed", "pps_sim", "pps_wall", "delay_p50",
              "delay_p99", "loss_ratio", "sla_violation_ratio",
              "mttr_avg", "mttr_p50", "flips", "repairs", "unrecovered",
              "chains_deployed", "chains_failed", "events")


def render_csv(bundles: List[Dict[str, Any]]) -> str:
    """Per-seed rows flattened to CSV (one header, all scenarios),
    for external plotting without scraping the table output."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=CSV_FIELDS,
                            lineterminator="\n")
    writer.writeheader()
    for report in group_reports(bundles):
        for row in report.rows:
            record = {"scenario": report.name}
            record.update({key: ("" if row.get(key) is None
                                 else row.get(key))
                           for key in CSV_FIELDS if key != "scenario"})
            writer.writerow(record)
    return buffer.getvalue().rstrip()


def render_perf_report(bundles: List[Dict[str, Any]],
                       limit: int = 12) -> str:
    """Where each run's wall-clock went: the dispatched-event count,
    the profiler's region table (event kinds and the regions nested
    under them; ``limit=0`` shows every row) and the throughput."""
    lines: List[str] = []
    for bundle in bundles:
        lines.append("perf attribution — %s seed %s"
                     % (bundle["scenario"]["name"], bundle["seed"]))
        lines.append("dispatched %d event(s)" % bundle["dispatched"])
        if bundle.get("profiler"):
            lines.extend(render_regions(bundle["profiler"], limit))
        else:
            lines.append("no region table: the scenario ran without "
                         "`profile: true`")
        lines.append("throughput: " + "  ".join(
            "%s=%.4g" % item for item in sorted(bundle["throughput"].items())))
        lines.append("")
    return "\n".join(lines).rstrip()
