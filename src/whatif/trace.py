"""The run trace: an append-only, totally ordered record of one run.

Each record is one newline-delimited JSON object with a sequence number,
a timestamp, a kind (run, event, command, transition, checkpoint, fired,
outcome), and the fields ``RECORDS`` lists for its kind. Each fact is
recorded once; the report derives what follows from several facts, such as
the annotations. The ``run`` record states the trace's ``format``, and
``load_trace`` reads only format ``FORMAT``. Simulated runs with the same
document and seed serialize to byte-identical traces.

A record's ``at`` is the one clock reading of the engine step that wrote it,
in seconds since the run started. So a job's Pending is stamped by the step
that created it, and a process job's Running when its event pops, not at
the spawn instant. Record times never decrease: an earlier one is an
engine defect, and ``append`` raises.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .values import Value

# One C encoder for every record, built once with the settings of
# json.dumps(..., sort_keys=True, separators=(",", ":")): ASCII output, NaN
# allowed, and the circular check through ``_open_ids``. JSONEncoder.encode
# would build a new one for every record. The arguments are markers, default,
# string encoder, indent, key and item separators, sort_keys, skipkeys and
# allow_nan.
_open_ids: dict = {}
_encode = json.encoder.c_make_encoder(
    _open_ids, json.JSONEncoder().default, json.encoder.encode_basestring_ascii, None, ":", ",", True, False, True)
# json.loads, less its wrappers: a value, with JSON whitespace around it.
_decode = json.JSONDecoder().raw_decode
_space = json.decoder.WHITESPACE.match

FORMAT = 1  # the trace format this version writes, and the only one it reads


def _actions(value) -> bool:
    return type(value) is list and all(
        type(action) is dict and type(action.get("name")) is str and type(action.get("kind")) is str
        for action in value)


def _assertions(value) -> bool:
    return type(value) is dict and all(
        type(owner) is str and type(texts) is list and all(type(text) is str for text in texts)
        for owner, texts in value.items())


def _format(value) -> bool:
    return type(value) is int and value == FORMAT


# What each kind of record holds besides seq, at and kind: its required
# fields, then its optional ones. A field is of exactly its type (a bool is
# not an int), or passes its check; a field not listed may be there too.
# The records of a trace are also in order: seq counts 0, 1, 2 and so on,
# at never decreases, the first record is ``run``, and ``outcome``, if there,
# comes once and last. ``load_trace`` refuses a trace that breaks either rule.
RECORDS = {
    "run": ({"scenario": str, "seed": int, "executor": str, "actions": _actions, "assertions": _assertions,
             "format": _format}, {}),
    "event": ({"event": str}, {"subject": str, "timer": str, "phase": str, "mode": str, "reason": str}),
    "command": ({"verb": str, "target": str, "args": dict}, {}),
    "transition": ({"subject": str, "to": str}, {"class": str, "reason": str}),
    "checkpoint": ({"name": str, "values": dict, "phases": dict}, {}),
    "fired": ({"owner": str, "expr": str}, {}),
    "outcome": ({"outcome": str, "reason": str}, {}),
}
# How an error names what a field should be.
_WHAT = {str: "a str", int: "an int", dict: "a dict", _format: str(FORMAT),
         _actions: "a list of maps, each with a str name and a str kind",
         _assertions: "a map from str to a list of str"}


def check_record(kind: str, data: dict) -> None:
    """ValueError unless ``data`` holds the fields ``RECORDS`` lists for ``kind``, each of its type."""
    fields = RECORDS.get(kind)
    if fields is None:
        raise ValueError(f"unknown record kind {kind!r}")
    required, optional = fields
    for name, want in required.items():
        value = data.get(name)
        if type(value) is not want and (type(want) is type or not want(value)):
            if name not in data:
                raise ValueError(f"{kind} record has no {name}")
            raise ValueError(f"{kind} record: {name} is not {_WHAT[want]}")
    if len(data) > len(required):  # optional or extra fields
        for name, value in data.items():
            want = optional.get(name)
            if want is not None and type(value) is not want and (type(want) is type or not want(value)):
                raise ValueError(f"{kind} record: {name} is not {_WHAT[want]}")


class TraceRecord(Value):
    __slots__ = ("seq", "at", "kind", "data")

    def __init__(self, seq: int, at: float, kind: str, data: dict | None = None):
        self.seq = seq
        self.at = at
        self.kind = kind
        self.data = {} if data is None else data

    def to_json(self) -> str:
        payload = {"seq": self.seq, "at": self.at, "kind": self.kind}
        payload.update(self.data)
        try:
            return "".join(_encode(payload, 0))
        finally:
            _open_ids.clear()  # a failed call leaves the values it entered there, alive


class RunTrace:
    """Append-only record log with non-decreasing timestamps."""

    def __init__(self):
        self.records: list[TraceRecord] = []

    def append(self, kind: str, at: float, **data) -> TraceRecord:
        """Record one fact; ValueError for an ``at`` earlier than the last record's."""
        records = self.records
        if records and at < records[-1].at:
            raise ValueError(f"{kind} record at {at!r} is earlier than the last record's {records[-1].at!r}")
        record = TraceRecord(len(records), at, kind, data)
        records.append(record)
        return record

    def __iter__(self):
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def to_text(self) -> str:
        return "".join(record.to_json() + "\n" for record in self.records)

    def save(self, path) -> None:
        Path(path).write_text(self.to_text(), encoding="ascii")


def load_trace(path) -> list[TraceRecord]:
    """Read the records of a trace file; ValueError for a line that is not one of ``RECORDS``, or out of order."""
    records = []
    for number, line in enumerate(Path(path).read_text(encoding="ascii").splitlines(), 1):
        if not line.strip():
            continue
        # A record as the engine writes it has no whitespace around it: no match needed.
        payload, end = _decode(line, 0 if line[0] == "{" else _space(line).end())
        if end != len(line):
            end = _space(line, end).end()
            if end != len(line):
                raise json.JSONDecodeError("Extra data", line, end)
        # An int seq, a finite number at (a bool is neither) and a str kind.
        seq, at = (payload.get("seq"), payload.get("at")) if isinstance(payload, dict) else (None, None)
        if not (type(seq) is int and (type(at) is int or type(at) is float and math.isfinite(at))
                and isinstance(payload.get("kind"), str)):
            raise ValueError(f"line {number} is not a record with a seq, an at and a kind")
        del payload["seq"], payload["at"]
        kind = payload.pop("kind")
        try:
            check_record(kind, payload)
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from None
        if seq != len(records):
            raise ValueError(f"line {number}: seq {seq} where {len(records)} is due")
        if not records and kind != "run":
            raise ValueError(f"line {number}: the first record is {kind}, not run")
        if records and (at < records[-1].at or records[-1].kind == "outcome"):
            raise ValueError(f"line {number}: {kind} at {at!r} after {records[-1].kind} at {records[-1].at!r}")
        records.append(TraceRecord(seq, at, kind, payload))
    return records
