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
    """Shape the trace into the report structure; CorruptRun without a run or an outcome record.

    The records are the engine's own or ``load_trace``'s, so each holds the
    fields ``trace.RECORDS`` lists for its kind, in the order it states.
    """
    if not (records and records[0].kind == "run" and records[-1].kind == "outcome"):
        raise CorruptRun("trace is missing its run header or outcome record")
    header, outcome = records[0], records[-1]
    actions = header.data["actions"]
    kinds = {action["name"]: action["kind"] for action in actions}

    resources: dict[str, dict] = {}
    annotations: dict[str, dict] = {}
    regions: dict[str, dict] = {}  # the open ones, by label
    commands = []
    checkpoints = []
    fired: dict[tuple, float] = {}  # the first time of each (owner, expr)
    for record in records:
        kind, data = record.kind, record.data
        if kind == "command":
            verb, target = data["verb"], data["target"]
            commands.append({"verb": verb, "target": target, "at": record.at})
            if verb != "CreateJob":
                continue
            if kinds.get(target) == "Call":
                annotations[target] = regions[target] = {"kind": "Region", "label": target, "start": record.at}
            else:
                annotations[target] = {"kind": "Point", "label": target, "start": record.at}
        elif kind == "transition":
            subject, to = data["subject"], data["to"]
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
            if data.get("class"):
                entry["failure_class"] = data["class"]
            if data.get("reason"):
                entry["reason"] = data["reason"]
        elif kind == "checkpoint":
            checkpoints.append(
                {"name": data["name"], "at": record.at, "values": data["values"], "phases": data["phases"]})
        elif kind == "fired":
            fired.setdefault((data["owner"], data["expr"]), record.at)
    for region in regions.values():
        region["end"] = outcome.at

    assertions = [
        {"owner": owner, "expr": text, "fired": (owner, text) in fired, "at": fired.get((owner, text))}
        for owner, texts in header.data["assertions"].items()
        for text in texts
    ]

    return {
        "scenario": header.data["scenario"],
        "seed": header.data["seed"],
        "executor": header.data["executor"],
        "outcome": outcome.data["outcome"],
        "reason": outcome.data["reason"],
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
    except (ValueError, RecursionError) as exc:  # RecursionError: a line nested deeper than json can read
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
