"""Run reports: rebuild everything an operator needs from the run files.

A report is derived entirely from the trace records, never from other
engine state. `whatif run` builds it from the records it holds in memory,
and `whatif report` from those `load_run` reads back from the run files;
both give identical output. Three renderings: a JSON document, a
human-readable timeline, and plot-ready series with annotation markers.

Annotations mark where each workload ran and each fault was in effect.
They are derived from the records that state those facts, in the order
their labels first appear:

- a Point is a ``CreateJob`` command whose target is not a Call (a
  Service, or a cluster instance), at the command's time;
- a Region starts at a Call's ``CreateJob`` command, or at a Chaos
  action's transition to Running;
- a Region ends at that action's first transition to Success or Failed,
  or else at the ``outcome`` record's time.

Older traces also hold ``annotation`` records; the report ignores them.
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
    """Shape the trace into the report structure.

    CorruptRun if a record lacks a field the report reads, or a field it
    copies has the wrong type.
    """
    try:
        return _shape(records)
    except (KeyError, TypeError, AttributeError) as exc:
        raise CorruptRun(f"malformed trace record: {type(exc).__name__}: {exc}") from exc


def _field(record: TraceRecord, key: str, kind: type, *default):
    """The record's ``key`` field, or ``default`` when given and it is absent; CorruptRun unless a ``kind``."""
    value = record.data.get(key, *default) if default else record.data[key]
    if not isinstance(value, kind):
        raise CorruptRun(f"malformed trace record {record.seq}: {key} is not a {kind.__name__}")
    return value


def _shape(records: list[TraceRecord]) -> dict:
    header = next((r for r in records if r.kind == "run"), None)
    outcome = next((r for r in records if r.kind == "outcome"), None)
    if header is None or outcome is None:
        raise CorruptRun("trace is missing its run header or outcome record")
    actions = _field(header, "actions", list, [])
    kinds = {action["name"]: action["kind"] for action in actions}

    resources: dict[str, dict] = {}
    annotations: dict[str, dict] = {}
    regions: dict[str, dict] = {}  # the open ones, by label
    commands = []
    for record in records:
        if record.kind == "command":
            verb, target = _field(record, "verb", str), _field(record, "target", str)
            commands.append({"verb": verb, "target": target, "at": record.at})
            if verb != "CreateJob":
                continue
            if kinds.get(target) == "Call":
                annotations[target] = regions[target] = {"kind": "Region", "label": target, "start": record.at}
            else:
                annotations[target] = {"kind": "Point", "label": target, "start": record.at}
        elif record.kind == "transition":
            subject, to = _field(record, "subject", str), _field(record, "to", str)
            entry = resources.get(subject)
            if entry is None:
                entry = resources[subject] = {"phases": [], "start": record.at}
            entry["phases"].append({"phase": to, "at": record.at})
            if to == "Running" and kinds.get(subject) == "Chaos":
                annotations[subject] = regions[subject] = {"kind": "Region", "label": subject, "start": record.at}
            elif to in ("Success", "Failed"):
                entry["end"] = record.at
                if subject in regions:
                    regions.pop(subject)["end"] = record.at
            if record.data.get("class"):
                entry["failure_class"] = _field(record, "class", str)
            if record.data.get("reason"):
                entry["reason"] = _field(record, "reason", str)
    for region in regions.values():
        region["end"] = outcome.at

    fired = [
        {"subject": r.data.get("subject", ""), "expr": r.data.get("expr", ""), "at": r.at}
        for r in records
        if r.kind == "event" and r.data.get("event") == "Metrics" and r.data.get("fired")
    ]
    assertions = []
    for owner, texts in _field(header, "assertions", dict, {}).items():
        if not isinstance(texts, list):
            raise CorruptRun(f"malformed trace record {header.seq}: assertions of {owner} is not a list")
        for text in texts:
            hit = next((f for f in fired if f["subject"] == owner and f["expr"] == text), None)
            assertions.append({
                "owner": owner,
                "expr": text,
                "fired": hit is not None,
                "at": hit["at"] if hit else None,
            })

    checkpoints = [
        {
            "name": _field(r, "name", str),
            "at": r.at,
            "values": _field(r, "values", dict),
            "phases": _field(r, "phases", dict),
        }
        for r in records
        if r.kind == "checkpoint"
    ]

    return {
        "scenario": _field(header, "scenario", str, ""),
        "seed": _field(header, "seed", int, 0),
        "executor": _field(header, "executor", str, ""),
        "outcome": _field(outcome, "outcome", str),
        "reason": _field(outcome, "reason", str, ""),
        "actions": actions,
        "resources": resources,
        "assertions": assertions,
        "annotations": list(annotations.values()),
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


# json's C string encoder, the one json.dumps uses for ASCII output.
_string = json.encoder.encode_basestring_ascii


class _LeftToJson(Exception):
    """The document holds a value the writer leaves to json.dumps."""


def report_json_text(report: dict) -> str:
    """``json.dumps(report, sort_keys=True, indent=2) + "\\n"``, byte for byte:
    the text of ``report.json`` and of ``whatif report``'s JSON formats.

    json's indented encoder is pure Python, so the writer does its work for
    what reports hold: dicts with str keys, lists, tuples, strs, ints, finite
    floats, bools and None. Strings go through json's C string encoder and
    numbers through the ``repr`` json uses. Any other value (NaN, an
    infinity, a subclass, a cycle) hands the whole document to json.dumps,
    so json's own rules decide.
    """
    chunks: list[str] = []
    try:
        _write(report, "", "\n", chunks.append, set())
    except _LeftToJson:
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    chunks.append("\n")
    return "".join(chunks)


def _write(value, prefix: str, newline: str, append, open_ids: set) -> None:
    """Append ``prefix`` and the text of ``value``; ``newline`` is a line break and the indent of ``value``'s level."""
    kind = type(value)
    if kind is str:
        append(prefix + _string(value))
    elif kind is float and value - value == 0.0:  # finite
        append(prefix + float.__repr__(value))
    elif kind is int:
        append(prefix + int.__repr__(value))
    elif kind is dict or kind is list or kind is tuple:
        if not value:
            append(prefix + ("{}" if kind is dict else "[]"))
            return
        mark = id(value)
        if mark in open_ids:
            raise _LeftToJson
        open_ids.add(mark)
        inner = newline + "  "
        if kind is dict:
            separator = prefix + "{" + inner
            for key in sorted(value):
                if type(key) is not str:
                    raise _LeftToJson
                _write(value[key], separator + _string(key) + ": ", inner, append, open_ids)
                separator = "," + inner
            append(newline + "}")
        else:
            separator = prefix + "[" + inner
            for item in value:
                _write(item, separator, inner, append, open_ids)
                separator = "," + inner
            append(newline + "]")
        open_ids.discard(mark)
    elif value is None:
        append(prefix + "null")
    elif value is True:
        append(prefix + "true")
    elif value is False:
        append(prefix + "false")
    else:
        raise _LeftToJson


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
            span = f"[{annotation['start']:.3f} .. {annotation['end']:.3f}]"
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
