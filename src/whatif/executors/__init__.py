"""Pluggable job/fault backends: a deterministic simulator and local processes.

Each executor is imported on first use: by ``make_executor`` or by looking
up ``SimExecutor`` or ``ProcessExecutor`` here. The process executor brings
``signal`` with it; the document compiler, which needs only ``base``, loads
neither executor.
"""

from .base import Executor, FaultSpec, JobSpec, SimEffect


_CLASS_NAMES = {"sim": "SimExecutor", "process": "ProcessExecutor"}


def make_executor(name: str) -> Executor:
    if name not in _CLASS_NAMES:
        raise ValueError(f"unknown executor {name!r}")
    return __getattr__(_CLASS_NAMES[name])()


def __getattr__(name: str):
    if name == "SimExecutor":
        from .sim import SimExecutor

        return SimExecutor
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
