"""Run reports: rebuild everything an operator needs from the run files.

A report is derived entirely from the trace records, never from other
engine state. `whatif run` builds it from the records it holds in memory,
and `whatif report` from those `load_run` reads back from the run files;
both give identical output. Three renderings: a JSON document, a
human-readable timeline, and plot-ready series with annotation markers.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import WhatifError
from .telemetry import MetricsStore
from .trace import TraceRecord, load_trace

TRACE_FILE = "trace.ndjson"
METRICS_FILE = "metrics.txt"
REPORT_FILE = "report.json"


class CorruptRun(WhatifError):
    """The output directory does not hold a complete run."""


def build_report(records: list[TraceRecord]) -> dict:
    """Shape the trace into the report structure; CorruptRun if a record lacks what it reads."""
    try:
        return _shape(records)
    except (KeyError, TypeError, AttributeError) as exc:
        raise CorruptRun(f"malformed trace record: {type(exc).__name__}: {exc}") from exc


def _shape(records: list[TraceRecord]) -> dict:
    header = next((r for r in records if r.kind == "run"), None)
    outcome = next((r for r in records if r.kind == "outcome"), None)
    if header is None or outcome is None:
        raise CorruptRun("trace is missing its run header or outcome record")

    resources: dict[str, dict] = {}
    for record in records:
        if record.kind != "transition":
            continue
        subject = record.data["subject"]
        entry = resources.setdefault(subject, {"phases": []})
        entry["phases"].append({"phase": record.data["to"], "at": record.at})
        if record.data["to"] in ("Success", "Failed"):
            entry["end"] = record.at
        if record.data.get("class"):
            entry["failure_class"] = record.data["class"]
        if record.data.get("reason"):
            entry["reason"] = record.data["reason"]
    for entry in resources.values():
        if entry["phases"]:
            entry["start"] = entry["phases"][0]["at"]

    fired = [
        {"subject": r.data.get("subject", ""), "expr": r.data.get("expr", ""), "at": r.at}
        for r in records
        if r.kind == "event" and r.data.get("event") == "Metrics" and r.data.get("fired")
    ]
    assertions = []
    for owner, texts in header.data.get("assertions", {}).items():
        for text in texts:
            hit = next((f for f in fired if f["subject"] == owner and f["expr"] == text), None)
            assertions.append({
                "owner": owner,
                "expr": text,
                "fired": hit is not None,
                "at": hit["at"] if hit else None,
            })

    annotations: dict[str, dict] = {}
    for record in records:
        if record.kind != "annotation":
            continue
        label = record.data["label"]
        what = record.data["action"]
        if what == "point":
            annotations[label] = {"kind": "Point", "label": label, "start": record.at}
        elif what == "open":
            annotations[label] = {"kind": "Region", "label": label, "start": record.at, "end": None}
        elif what == "close" and label in annotations:
            annotations[label]["end"] = record.at

    checkpoints = [
        {"name": r.data["name"], "at": r.at, "values": r.data["values"], "phases": r.data["phases"]}
        for r in records
        if r.kind == "checkpoint"
    ]

    commands = [
        {"verb": r.data["verb"], "target": r.data["target"], "at": r.at}
        for r in records
        if r.kind == "command"
    ]

    return {
        "scenario": header.data.get("scenario", ""),
        "seed": header.data.get("seed", 0),
        "executor": header.data.get("executor", ""),
        "outcome": outcome.data["outcome"],
        "reason": outcome.data.get("reason", ""),
        "actions": header.data.get("actions", []),
        "resources": resources,
        "assertions": assertions,
        "annotations": [annotations[label] for label in annotations],
        "checkpoints": checkpoints,
        "commands": commands,
    }


def load_run(out_dir) -> tuple:
    out = Path(out_dir)
    trace_path = out / TRACE_FILE
    if not trace_path.is_file():
        raise CorruptRun(f"missing {TRACE_FILE} in {out_dir}")
    try:
        records = load_trace(trace_path)
    except ValueError as exc:
        raise CorruptRun(f"unreadable trace: {exc}") from exc
    metrics_path = out / METRICS_FILE
    try:
        store = MetricsStore.load(metrics_path) if metrics_path.is_file() else MetricsStore()
    except ValueError as exc:
        raise CorruptRun(f"unreadable metrics: {exc}") from exc
    return records, store


def report_json_text(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def render_text(report: dict) -> str:
    """Human timeline: outcome, per-resource phases, annotations, checkpoints."""
    lines = [
        f"scenario: {report['scenario']}  executor: {report['executor']}  seed: {report['seed']}",
        f"outcome: {report['outcome']}  ({report['reason']})",
        "",
        "timeline:",
    ]
    moments = []
    for name, entry in report["resources"].items():
        for hop in entry["phases"]:
            moments.append((hop["at"], f"{name} -> {hop['phase']}"))
    for annotation in report["annotations"]:
        if annotation["kind"] == "Point":
            moments.append((annotation["start"], f"* {annotation['label']}"))
        else:
            end = annotation.get("end")
            span = f"[{annotation['start']:.3f} .. {end:.3f}]" if end is not None else f"[{annotation['start']:.3f} .. )"
            moments.append((annotation["start"], f"region {annotation['label']} {span}"))
    for at, text in sorted(moments, key=lambda m: m[0]):
        lines.append(f"  {at:10.3f}  {text}")
    if report["checkpoints"]:
        lines.append("")
        lines.append("checkpoints:")
        for checkpoint in report["checkpoints"]:
            values = ", ".join(f"{k}={v}" for k, v in sorted(checkpoint["values"].items()))
            lines.append(f"  {checkpoint['name']} @ {checkpoint['at']:.3f}: {values}")
    if report["assertions"]:
        lines.append("")
        lines.append("assertions:")
        for item in report["assertions"]:
            status = "FIRED" if item["fired"] else "quiet"
            lines.append(f"  [{status}] {item['owner']}: {item['expr']}")
    return "\n".join(lines) + "\n"


def plot_data(report: dict, store: MetricsStore) -> dict:
    """Per-metric series plus annotation markers for external plotting."""
    series = {name: [[at, value] for at, value in store.series(name)] for name in sorted(store.names())}
    markers = [
        {
            "label": a["label"],
            "kind": a["kind"],
            "start": a["start"],
            "end": a.get("end"),
        }
        for a in report["annotations"]
    ]
    return {"series": series, "annotations": markers, "outcome": report["outcome"]}
