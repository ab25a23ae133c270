"""Shared fixtures: simulator harnesses, scenario building blocks, an operation counter,
and the check of every record each run writes against the trace's record table."""

import faulthandler
import os
import sys
from pathlib import Path

import pytest

import whatif
from whatif.dsl import Template, load_templates, parse_scenario
from whatif.engine import Engine
from whatif.events import Event, EventQueue, SimClock
from whatif.executors.sim import SimExecutor
from whatif.telemetry import MetricsStore
from whatif.trace import check_record

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"
WHATIF_SOURCE = str(Path(whatif.__file__).resolve().parent)


# Far above the slowest test's few seconds: a test that hangs dumps every
# thread's stack and ends the session, instead of hanging it.
TEST_TIME_LIMIT_S = 120
STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    # A copy of the session's stderr: while a test runs, fd 2 is pytest's
    # capture file, which nothing reads once the process has exited.
    config.stash[STDERR_FD] = os.dup(sys.stderr.fileno())


@pytest.fixture(autouse=True)
def time_limit(pytestconfig):
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT_S, exit=True, file=pytestconfig.stash[STDERR_FD])
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(autouse=True)
def conforming_records(monkeypatch):
    """Every run a test makes, on any executor and however it ends, writes
    only records that ``trace.RECORDS`` allows: ``check_record`` reads each
    record once ``Engine.run`` returns or raises."""
    run = Engine.run

    def checked_run(self):
        try:
            return run(self)
        finally:
            for record in self.trace:
                check_record(record.kind, record.data)

    monkeypatch.setattr(Engine, "run", checked_run)


def count_operations(fn):
    """Call ``fn``; return its result and the operations whatif's own code ran.

    An operation is a call entered or a line executed in a frame of the
    package's source, and a loop's line counts on every pass, so the count
    measures work, whatever the speed of the machine. A tracer installed
    around the call, such as a coverage tool's, is put back after it.
    """
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += 1
        return local

    def start(frame, event, arg):
        return local(frame, event, arg) if frame.f_code.co_filename.startswith(WHATIF_SOURCE) else None

    outer = sys.gettrace()
    sys.settrace(start)
    try:
        result = fn()
    finally:
        sys.settrace(outer)
    return result, count


class HarnessSim(SimExecutor):
    """A simulator the tests drive by hand, with no engine popping its queue."""

    def advance_to(self, to: float) -> list[tuple[float, Event]]:
        """Fire everything due through ``to``, in (time, seq) order.

        Returns the (due time, event) pairs delivered, with the bound clock
        left at ``to``. An entry due later stays queued where it was, so
        same-time ties keep their push order.
        """
        if to < self.clock.now():
            raise ValueError(f"cannot rewind the clock to {to}")
        delivered: list[tuple[float, Event]] = []
        heap = self.queue._heap
        while heap and heap[0][0] <= to:
            at, item = self.queue.pop_next()
            self.clock.set(at)
            if isinstance(item, Event):
                delivered.append((at, item))
            else:
                item()
        self.clock.set(to)
        return delivered


def make_sim_harness():
    """A bare simulator bound to its own queue, clock, and store."""
    executor = HarnessSim()
    queue = EventQueue()
    clock = SimClock()
    store = MetricsStore()
    executor.bind(queue, clock, store)
    return executor, queue, clock, store


@pytest.fixture
def sim_harness():
    return make_sim_harness()


def script_template(name: str, lines: list) -> Template:
    body = "script:\n" + "\n".join(f"- {line}" for line in lines) + "\n"
    return Template(name, {}, body)


def stage_template() -> Template:
    """Parameterized single-stage call used by the scheduling-policy tests."""
    body = (
        "script:\n"
        "- { at: 0s, do: running }\n"
        "- { at: {{dur}}, do: success }\n"
    )
    return Template("stage", {"dur": None}, body)


@pytest.fixture
def partition_demo():
    doc = parse_scenario((SCENARIOS / "partition-demo.yaml").read_text())
    templates = load_templates(SCENARIOS / "templates")
    return doc, templates
