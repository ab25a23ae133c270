"""The run trace: an append-only, totally ordered record of one run.

Each record is one newline-delimited JSON object with a sequence number,
a timestamp, a kind (run, event, command, transition, checkpoint,
outcome), and kind-specific fields. Each fact is recorded once; the report
derives what follows from several facts, such as the annotations. Older
traces also hold ``annotation`` records, which readers ignore. Simulated
runs with the same document and seed serialize to byte-identical traces.

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
    """Read the records of a trace file; ValueError for a line that is not one."""
    records = []
    for number, line in enumerate(Path(path).read_text(encoding="ascii").splitlines(), 1):
        if not line.strip():
            continue
        payload, end = _decode(line, _space(line).end())
        end = _space(line, end).end()
        if end != len(line):
            raise json.JSONDecodeError("Extra data", line, end)
        # An int seq, a finite number at (a bool is neither) and a str kind.
        seq, at = (payload.get("seq"), payload.get("at")) if isinstance(payload, dict) else (None, None)
        if not (type(seq) is int and (type(at) is int or type(at) is float and math.isfinite(at))
                and isinstance(payload.get("kind"), str)):
            raise ValueError(f"line {number} is not a record with a seq, an at and a kind")
        del payload["seq"], payload["at"]
        records.append(TraceRecord(seq, at, payload.pop("kind"), payload))
    return records
