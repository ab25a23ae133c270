"""Pluggable job/fault backends: a deterministic simulator and local processes.

The process executor, with ``subprocess`` and ``signal``, is imported on
first use: by ``make_executor("process")`` or by looking up
``ProcessExecutor`` here.
"""

from .base import Executor, FaultSpec, JobSpec, SimEffect
from .sim import SimExecutor


def make_executor(name: str) -> Executor:
    if name == "sim":
        return SimExecutor()
    if name == "process":
        from .process import ProcessExecutor

        return ProcessExecutor()
    raise ValueError(f"unknown executor {name!r}")


def __getattr__(name: str):
    if name == "ProcessExecutor":
        from .process import ProcessExecutor

        return ProcessExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Executor",
    "FaultSpec",
    "JobSpec",
    "SimEffect",
    "SimExecutor",
    "ProcessExecutor",
    "make_executor",
]
