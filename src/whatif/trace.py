"""The run trace: an append-only, totally ordered record of one run.

Each record is one newline-delimited JSON object with a sequence number,
a timestamp, a kind (run, event, command, transition, annotation,
checkpoint, outcome), and kind-specific fields. Simulated runs with the
same document and seed serialize to byte-identical traces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class TraceRecord:
    seq: int
    at: float
    kind: str
    data: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {"seq": self.seq, "at": self.at, "kind": self.kind}
        payload.update(self.data)
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class RunTrace:
    """Append-only record log with non-decreasing timestamps."""

    def __init__(self):
        self.records: list[TraceRecord] = []
        self._seq = 0
        self._last_at = 0.0

    def append(self, kind: str, at: float, **data) -> TraceRecord:
        at = max(at, self._last_at)
        self._last_at = at
        record = TraceRecord(self._seq, at, kind, data)
        self._seq += 1
        self.records.append(record)
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
    records = []
    for line in Path(path).read_text(encoding="ascii").splitlines():
        if not line.strip():
            continue
        payload = json.loads(line)
        seq = payload.pop("seq")
        at = payload.pop("at")
        kind = payload.pop("kind")
        records.append(TraceRecord(seq, at, kind, payload))
    return records
