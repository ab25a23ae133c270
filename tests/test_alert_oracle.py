"""Event-driven metrics alerts against brute-force and polling oracles.

A metrics assertion is evaluated only when its value can change (dispatch,
ingest of its metric, window expiry, checkpoint) and reduces its window
incrementally. Three oracles check that:

(a) at every ingest and expiry instant each incremental window equals
    `reduce_series` over `MetricsStore.query`, bit for bit;
(b) an engine that evaluates every live rule by brute force at every such
    instant reaches the same outcome, reason and fire time;
(c) an engine that polls the rules on a 1 s tick never fires earlier, and
    where it decides the run otherwise, the engine caught a condition that
    held only between two ticks.
"""

import math

import yaml
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from whatif.dsl import Template, parse_scenario, validate
from whatif.engine import Engine, Rule
from whatif.events import Event, EventKind
from whatif.expressions import REDUCERS, WindowAggregate, eval_reducer, expiry_instant, reduce_series
from whatif.telemetry import MetricPoint, MetricsStore

from test_golden import metrics_doc


# --- (a) incremental windows ------------------------------------------------------


def _result(fn):
    """A reduction's value or exception type, compared by repr (so -0.0, nan and bits count)."""
    try:
        return repr(fn())
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__


def _check_windows(store, windows, window, now):
    expected = [value for _, value in store.query("m", now - window, now)]
    for reducer, aggregate in windows.items():
        got = _result(lambda: aggregate.advance(store, now))
        want = _result(lambda: reduce_series(reducer, expected) if expected else None)
        assert got == want, (reducer, now, expected)


def _next_change(store, window, now):
    """The first instant after ``now`` at which a stored point enters or leaves the window."""
    instants = [instant for at, _ in store.series("m") for instant in (at, expiry_instant(at, window))]
    return min((instant for instant in instants if instant > now), default=None)


def _replay(steps, window):
    """Ingest each (advance, offset, value) at now += advance, stamped now + offset.

    Before each ingest, every window is also checked at each instant its
    contents change on their own (expiry or a future-stamped point entering),
    and must name that instant as its next change, the one its timer is armed for.
    """
    store = MetricsStore()
    store.declare("m")
    windows = {reducer: WindowAggregate("m", reducer, window) for reducer in REDUCERS}
    now = 0.0
    steps = list(steps) + [(10 * window + 100.0, None, None)]  # then let the window drain
    for advance, offset, value in steps:
        target = now + advance
        while True:
            due = _next_change(store, window, now)
            assert all(w.next_change() == due for w in windows.values())
            if due is None or due > target:
                break
            now = due
            _check_windows(store, windows, window, now)
        now = target
        if value is not None:
            store.ingest(MetricPoint("m", value, now + offset))
        _check_windows(store, windows, window, now)
    assert all(w.value() is None for w in windows.values())


advances = st.sampled_from([0.0, 0.0, 0.1, 0.25, 0.3, 1.0, 2.5, 7.0])
# Negative offsets stamp points in the past, some already out of the window
# (or older than the last point, which the store drops); positive ones in
# the future; zero at the ingest instant.
offsets = st.sampled_from([-40.0, -9.5, -2.0, -0.1, 0.0, 0.0, 0.0, 0.0, 0.3, 4.0])
windows_s = st.sampled_from([0.1, 1.0, 2.5, 10.0, 30.0])
finite = st.one_of(
    st.floats(-1e6, 1e6),
    st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, 1.0, 1e16, -1e16, 1e300, -1e300]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(advances, offsets, finite), max_size=40), windows_s)
@example([(0.0, 0.0, 0.0), (0.0, 0.0, -0.0), (0.5, 0.0, 0.0)], 1.0)  # equal extremes: the first one is kept
@example([(0.0, 0.0, -0.0), (0.0, 0.0, 0.0), (0.5, 0.0, -0.0)], 1.0)
def test_windows_match_brute_force(steps, window):
    _replay(steps, window)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(advances, offsets, st.one_of(
    finite, st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -1e308, 2.0 ** 1001]))), max_size=30),
    windows_s)
def test_windows_with_special_values_match_brute_force(steps, window):
    _replay(steps, window)


def test_expiry_is_the_first_instant_out_of_the_window():
    store = MetricsStore()
    store.ingest(MetricPoint("m", 1.0, 0.1))
    window = WindowAggregate("m", "COUNT", 0.2)
    assert window.advance(store, 0.1) == 1.0
    due = window.next_change()
    assert store.query("m", math.nextafter(due, 0.0) - 0.2, math.nextafter(due, 0.0))
    assert not store.query("m", due - 0.2, due)
    assert window.advance(store, due) is None


def test_expiry_when_stamp_and_window_cancel():
    # at + window rounds to (near) zero, far below the scale of either
    # operand: a walk over adjacent floats from there would crawl through
    # the subnormals, so the search must not step one ulp at a time.
    for at, span in [(-0.1, 0.1), (-3600.0, 3600.0), (-2.5, 2.5 + 2 ** -40)]:
        due = expiry_instant(at, span)
        assert not at >= due - span and at >= math.nextafter(due, -math.inf) - span


# --- (b) and (c): whole runs ---------------------------------------------------------


class BruteRules(Engine):
    """Oracle: every live rule, by brute force over the store, wherever the engine evaluates rules."""

    def _evaluate_rules(self, now, commands, changed=None):
        every = {item for pairs in self.asserts.values() for _, item in pairs if isinstance(item, Rule)}
        super()._evaluate_rules(now, commands, every)

    def _rule_value(self, rule, now):
        super()._rule_value(rule, now)  # keeps the rule's window timers as the engine has them
        return eval_reducer(rule.ast, self.store, now)


class TickReference(Engine):
    """The polling model: metrics rules are read on a 1 s tick, and when their action succeeds."""

    ticking = False
    tick_armed = False

    def _rule_value(self, rule, now):
        if self.ticking or self.nodes[rule.owner].phase.terminal:
            return eval_reducer(rule.ast, self.store, now)
        return None

    def _on_time(self, event, commands):
        if event.timer_id != "tick":
            super()._on_time(event, commands)
            return
        self.tick_armed = False
        self.ticking = True
        try:
            for name in self.asserts:
                if self._live(name):
                    self._evaluate_action_assertions(name, event.at, commands, state=True, metrics=True)
        finally:
            self.ticking = False

    def _check_completion(self):
        super()._check_completion()
        if not self.tick_armed and any(self._live(name) for name in self.asserts):
            self.tick_armed = True
            due = self.clock.now() + 1.0
            self.queue.push(due, Event(EventKind.TIME, due, timer_id="tick"))


def fire_time(result):
    """When an assertion decided the run: it fired, or it could not be evaluated."""
    for record in result.trace:
        if record.kind == "event" and record.data.get("fired"):
            return record.at
        if (record.kind == "command" and record.data["verb"] == "AbortRun"
                and "expression error" in record.data["args"]["reason"]):
            return record.at
    return None


TEMPLATES = {
    "task": Template("task", {"services": None, "dur": None},
                     "env: { TARGETS: '{{services}}' }\n"
                     "script:\n- { at: 0s, do: running }\n- { at: '{{dur}}', do: success }\n"),
}

def half_seconds(most):
    return st.integers(0, 2 * most).map(lambda half: half / 2)  # many shared instants


instants = half_seconds(20)


@st.composite
def rules(draw, checkpoint):
    reducer = draw(st.sampled_from(REDUCERS))
    metric = draw(st.sampled_from(["a", "b"]))
    window = draw(st.sampled_from(["1s", "2500ms", "5s", "12s", "1h"]))
    kind = draw(st.sampled_from(["ABOVE", "BELOW", "WITHIN", "OUTSIDE"]))
    if checkpoint and draw(st.integers(0, 2)) == 0:
        terms = [f"CHECKPOINT({checkpoint}.{metric}) * 1.5"]
        kind = "ABOVE"
    else:
        low = draw(st.integers(0, 150))
        terms = [str(low)] if kind in ("ABOVE", "BELOW") else [str(low), str(low + draw(st.integers(1, 60)))]
    return f"{reducer}() QUERY({metric}, {window}, now) IS {kind}({', '.join(terms)})"


@st.composite
def metric_documents(draw):
    """Emitters of metrics `a` and `b`, an optional checkpoint and suspend, and asserting Calls.

    The second emitter may start late, and the Calls may come first in the
    document, so a rule can read a metric or a checkpoint before it exists.
    """
    spec = []
    for e in range(draw(st.integers(1, 2))):
        effects = [{"at": "0s", "do": "running"}]
        for at in sorted(draw(st.lists(instants, max_size=14))):
            effects.append({"at": f"{at}s", "do": "metric", "name": draw(st.sampled_from(["a", "b"])),
                            "value": draw(st.integers(0, 100)) * 1.25})
        effects.append({"at": f"{draw(st.integers(21, 30))}s", "do": "success"})
        emitter = {"action": "Service", "name": f"e{e}", "service": {"script": effects}}
        if e and draw(st.booleans()):
            emitter["depends"] = {"running": ["e0"], "after": f"{draw(half_seconds(4))}s"}
        spec.append(emitter)
    checkpoint = None
    if draw(st.booleans()):
        checkpoint = "k"
        spec.append({"action": "Checkpoint", "name": "k",
                     "depends": {"running": ["e0"], "after": f"{draw(half_seconds(8))}s"},
                     "checkpoint": {"values": {"a": "MAX() QUERY(a, 1h, now)", "b": "AVG() QUERY(b, 1h, now)"}}})
    if draw(st.booleans()):
        spec.append({"action": "Chaos", "name": "pause",
                     "depends": {"running": ["e0"], "after": f"{draw(st.integers(0, 6))}s"},
                     "chaos": {"fault": {"kind": "suspend", "targets": ["e0"],
                                         "duration": f"{draw(st.integers(1, 6))}s"}}})
    calls = []
    for c in range(draw(st.integers(1, 2))):
        call = {"action": "Call", "name": f"w{c}",
                "call": {"callable": "task", "services": ["e0"],
                         "inputs": [{"dur": f"{draw(st.integers(1, 25))}s"}]},
                "assertions": draw(st.lists(rules(checkpoint), min_size=1, max_size=3))}
        depends = draw(st.sampled_from([None, {"running": ["e0"]}] + ([{"success": [checkpoint]}] if checkpoint else [])))
        if depends is not None:
            call["depends"] = dict(depends)
            if draw(st.booleans()):
                call["depends"]["after"] = f"{draw(st.integers(0, 9))}s"
        calls.append(call)
    spec = calls + spec if draw(st.booleans()) else spec + calls
    return yaml.safe_dump({"name": "alerts", "spec": spec}, sort_keys=False)


def _run(engine_class, text):
    return engine_class(parse_scenario(text), TEMPLATES).run()


# Two emitters make two rules on different metrics turn true at the same
# instant: the first in document order is reported, as a poll of every rule
# would report it, although `a` was ingested first.
SIMULTANEOUS = """
name: simultaneous
spec:
- {action: Service, name: e0, service: {script: [{at: 0s, do: running},
   {at: 3s, do: metric, name: a, value: 90}, {at: 30s, do: success}]}}
- {action: Service, name: e1, service: {script: [{at: 0s, do: running},
   {at: 3s, do: metric, name: b, value: 90}, {at: 30s, do: success}]}}
- {action: Call, name: w0, depends: {running: [e0]}, call: {callable: task, services: [e0], inputs: [{dur: 20s}]},
   assertions: ["LAST() QUERY(b, 5s, now) IS ABOVE(50)", "LAST() QUERY(a, 5s, now) IS ABOVE(50)"]}
"""

# An average leaves its band only when the low point expires.
EXPIRY = """
name: expiry
spec:
- {action: Service, name: e0, service: {script: [{at: 0s, do: running},
   {at: 1s, do: metric, name: a, value: 10}, {at: 2s, do: metric, name: a, value: 90}, {at: 30s, do: success}]}}
- {action: Call, name: w0, depends: {running: [e0]}, call: {callable: task, services: [e0], inputs: [{dur: 20s}]},
   assertions: ["AVG() QUERY(a, 2500ms, now) IS ABOVE(60)"]}
"""


# A rule reads a metric before the job that emits it has started, and a
# checkpoint after the first point of its window but before it is taken.
# Neither exists yet, which reads as no data: both runs succeed.
CALL_FIRST = """
name: call-first
spec:
- {action: Call, name: w0, call: {callable: task, services: [e0], inputs: [{dur: 10s}]},
   assertions: ["MAX() QUERY(a, 5s, now) IS ABOVE(50)"]}
- {action: Service, name: e0, service: {script: [{at: 0s, do: running},
   {at: 2s, do: metric, name: a, value: 10}, {at: 20s, do: success}]}}
"""

LATE_CHECKPOINT = """
name: late-checkpoint
spec:
- {action: Service, name: e0, service: {script: [{at: 0s, do: running},
   {at: 500ms, do: metric, name: a, value: 10}, {at: 2s, do: metric, name: a, value: 12}, {at: 20s, do: success}]}}
- {action: Checkpoint, name: k, depends: {running: [e0], after: 800ms},
   checkpoint: {values: {a: "MAX() QUERY(a, 1h, now)"}}}
- {action: Call, name: w0, depends: {running: [e0]}, call: {callable: task, services: [e0], inputs: [{dur: 10s}]},
   assertions: ["MAX() QUERY(a, 5s, now) IS ABOVE(CHECKPOINT(k.a) * 2)"]}
"""

# A metric that no job ever declares is an expression error when the
# asserting action succeeds, its last evaluation.
NEVER_DECLARED = """
name: never-declared
spec:
- {action: Call, name: w0, call: {callable: task, services: [w0], inputs: [{dur: 10s}]},
   assertions: ["MAX() QUERY(nope, 5s, now) IS ABOVE(50)"]}
"""


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(metric_documents())
@example(SIMULTANEOUS)
@example(EXPIRY)
@example(CALL_FIRST)
@example(LATE_CHECKPOINT)
def test_event_driven_matches_brute_force_and_never_fires_after_polling(text):
    assume(validate(parse_scenario(text), TEMPLATES).ok)
    engine = _run(Engine, text)
    brute = _run(BruteRules, text)
    assert (engine.outcome, engine.reason, fire_time(engine)) == (brute.outcome, brute.reason, fire_time(brute))
    polled = _run(TickReference, text)
    if fire_time(polled) is not None:
        assert fire_time(engine) is not None and fire_time(engine) <= fire_time(polled)
    elif "assertion fired" not in engine.reason:
        # A condition that holds only between two ticks fires here and not
        # there; otherwise the two verdicts agree.
        assert (engine.outcome, engine.reason) == (polled.outcome, polled.reason)


def test_examples_fire_where_expected():
    simultaneous = _run(Engine, SIMULTANEOUS)
    assert simultaneous.reason == "w0: assertion fired: LAST() QUERY(b, 5s, now) IS ABOVE(50)"
    assert fire_time(simultaneous) == 3.0
    expiry = _run(Engine, EXPIRY)
    assert "assertion fired" in expiry.reason
    assert 3.5 < fire_time(expiry) < 3.5 + 1e-9  # the 1 s point leaves at the first instant past 3.5 s
    assert fire_time(_run(TickReference, EXPIRY)) == 4.0


def test_references_that_do_not_exist_yet_read_as_no_data():
    for text in (CALL_FIRST, LATE_CHECKPOINT):
        for engine_class in (Engine, BruteRules, TickReference):
            result = _run(engine_class, text)
            assert (result.outcome.value, result.reason) == ("Success", "all actions completed"), engine_class


def test_reference_missing_when_the_action_succeeds_is_an_expression_error():
    result = _run(Engine, NEVER_DECLARED)
    assert result.reason == "w0: expression error: UnknownMetric: nope"
    assert fire_time(result) == 10.0


# --- cost -----------------------------------------------------------------------------


def test_metrics_cost_grows_linearly_in_points(monkeypatch):
    """One job emitting P points read by a 1 h MAX window: the rule reads each
    stored point once, not a copy of its window per evaluation, and the run
    records grow linearly in P."""
    rows = []
    points_from = MetricsStore.points_from

    def counted(store, name, start):
        got = points_from(store, name, start)
        rows.append(len(got))
        return got

    monkeypatch.setattr(MetricsStore, "points_from", counted)
    records = {}
    for points in (1000, 3000):
        rows.clear()
        doc, templates = metrics_doc(points)
        result = Engine(doc, templates).run()
        assert "assertion fired" in result.reason
        assert sum(rows) <= points
        records[points] = len(result.trace)
    assert records[3000] <= 3.5 * records[1000], records
