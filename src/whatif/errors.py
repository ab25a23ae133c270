"""Exception types and validation findings shared across the package."""

from __future__ import annotations

from .values import FrozenValue


class WhatifError(Exception):
    """Base class for all errors raised by this package."""


# --- scenario documents ---------------------------------------------------

class ScenarioSyntaxError(WhatifError):
    """The scenario or template document is not well-formed markup."""


class SchemaError(WhatifError):
    """The document parses but violates the scenario schema, or a template input or macro does not resolve."""


class InvalidScenario(WhatifError):
    """A run was requested for a document that fails validation."""

    def __init__(self, report):
        super().__init__("scenario failed validation")
        self.report = report


# --- expressions ----------------------------------------------------------

class ExprSyntaxError(WhatifError):
    """An expression does not parse; carries the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# --- lifecycle ------------------------------------------------------------

class IllegalTransition(WhatifError):
    """A phase transition outside the legal lifecycle chain; engine bug."""


# --- telemetry ------------------------------------------------------------

class UnknownMetric(WhatifError):
    """A query names a metric that was never ingested nor declared."""


class UnknownCheckpoint(WhatifError):
    """A CHECKPOINT reference names a missing checkpoint or key."""


# --- executors ------------------------------------------------------------

class SpawnError(WhatifError):
    """A job could not be started (missing binary, missing script)."""


class UnsupportedFault(WhatifError):
    """The executor does not implement the requested fault kind."""


class TargetNotRunning(WhatifError):
    """A fault target is not running as the engine recorded it: its phase is not Running, or a kill watches it."""


# --- validation findings --------------------------------------------------

class Finding(FrozenValue):
    """One diagnostic produced by static validation."""

    __slots__ = ("severity", "location", "message")

    def __init__(self, severity: str, location: str, message: str):
        self.severity = severity  # "error" | "warning"
        self.location = location  # action name, expression text, or document path
        self.message = message

    def __str__(self) -> str:
        return f"{self.severity}: {self.location}: {self.message}"
