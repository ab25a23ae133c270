"""Duration strings: one grammar for documents and expressions.

Durations appear in scenario files (timeouts, `after` delays, fault
durations) and inside metrics expressions (`QUERY(metric, 1m, now)`),
whose tokenizer builds its duration token from ``_SEGMENT``.
Accepted forms: a bare number (seconds) or one or more `<number><unit>`
segments with units ms, s, m, h (e.g. ``10m``, ``1h30m``, ``500ms``).
A duration is finite: YAML's ``.nan`` and ``.inf``, and digits that
overflow a float, are malformed.
"""

from __future__ import annotations

import math
import re
import sys

_SEGMENT = re.compile(r"(\d+(?:\.\d+)?)(ms|s|m|h)")

_UNIT_SECONDS = {"ms": 0.001, "s": 1.0, "m": 60.0, "h": 3600.0}


def parse_duration(value) -> float:
    """Convert a duration literal to seconds. Raises ValueError when malformed."""
    seconds = _seconds(value)
    if not math.isfinite(seconds):
        raise ValueError(f"not a finite duration: {value!r}")
    return seconds


def _seconds(value) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if value < 0:
            raise ValueError(f"negative duration: {value!r}")
        return math.inf if value > sys.float_info.max else float(value)  # an int too large for a float
    if not isinstance(value, str):
        raise ValueError(f"not a duration: {value!r}")
    text = value.strip()
    if not text:
        raise ValueError("empty duration")
    if re.fullmatch(r"\d+(?:\.\d+)?", text):
        return float(text)
    pos = 0
    total = 0.0
    for match in _SEGMENT.finditer(text):
        if match.start() != pos:
            raise ValueError(f"malformed duration: {value!r}")
        total += float(match.group(1)) * _UNIT_SECONDS[match.group(2)]
        pos = match.end()
    if pos != len(text):
        raise ValueError(f"malformed duration: {value!r}")
    return total

