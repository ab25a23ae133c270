"""Run files: the report writer, the record encoder and the trace reader,
each against the stdlib encoding or reader it stands for."""

import gc
import json
import weakref
from collections import OrderedDict
from enum import Enum, IntEnum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from whatif.dsl import load_templates, parse_scenario
from whatif.engine import Engine, run_scenario
from whatif.executors import SimExecutor
from whatif import report
from whatif.report import build_report, report_json_text
from whatif.trace import RECORDS, RunTrace, TraceRecord, check_record, load_trace

from conftest import SCENARIOS
from oracles import load_trace_per_line
from test_cli import WATCHED

# Keys and strings with non-ASCII characters and control characters.
TEXT = st.text(max_size=8)
LEAVES = (
    st.none() | st.booleans() | TEXT
    | st.integers(min_value=-(10 ** 30), max_value=10 ** 30)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, 1e16, 1e-7, 2 ** 63])
)
DOCUMENTS = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=30,
)


def stdlib_report(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


def outcome(function, *args):
    """What a call returns, or the type and text of the error it raises."""
    try:
        return function(*args)
    except (ValueError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.fixture(scope="module")
def demo_trace():
    doc = parse_scenario((SCENARIOS / "partition-demo.yaml").read_text())
    return run_scenario(doc, load_templates(SCENARIOS / "templates")).trace


@pytest.fixture(scope="module")
def demo_lines(demo_trace):
    return demo_trace.to_text().splitlines()


class Color(str, Enum):
    RED = "red"


class Level(IntEnum):
    HIGH = 3


class Tagged(list):
    pass


class Opaque:
    pass


class TestReportWriter:
    @settings(max_examples=300, deadline=None)
    @given(DOCUMENTS)
    @example({"a": [], "b": {}, "c": (), "é\x00\n": " \x1f\"\\"})
    @example([float("nan"), float("inf"), -float("inf")])
    @example({"z": {"y": [True, False, None, -0.0, 1e16, 10 ** 40]}})
    def test_equals_json_dumps(self, document):
        assert report_json_text(document) == stdlib_report(document)

    @pytest.mark.parametrize("document", [
        {"color": Color.RED, "level": Level.HIGH},
        OrderedDict([("b", 1), ("a", [2])]),
        {"nested": {"tagged": Tagged([1, {"x": 2.5}])}},
        {"keys": {1: "int", 2.5: "float", -3: "int"}},
        {"bool keys": {True: 1, False: 0}},
        [{"at": float("nan")}, {"at": 1.0}],
    ], ids=["enums", "ordered-dict", "list-subclass", "number-keys", "bool-keys", "nan"])
    def test_values_left_to_json(self, document):
        assert report_json_text(document) == stdlib_report(document)

    def test_errors_are_json_dumps_errors(self):
        cycle: list = [1]
        cycle.append({"back": cycle})
        for document in (cycle, {"x": object()}, {"keys": {1: "int", "a": "str"}}, {"x": [Tagged([object()])]}):
            error = outcome(stdlib_report, document)
            assert error.startswith(("ValueError: ", "TypeError: "))
            assert outcome(report_json_text, document) == error

    def test_a_report_is_written_without_json(self, demo_trace, monkeypatch):
        """The values a report holds never reach the stdlib fallback."""
        document = build_report(demo_trace.records)
        expected = stdlib_report(document)
        monkeypatch.setattr(report, "json", None)
        assert report_json_text(document) == expected

    def test_shared_values_are_not_cycles(self):
        shared = {"a": [1, 2]}
        document = {"one": shared, "two": shared, "list": [shared, shared]}
        assert report_json_text(document) == stdlib_report(document)


class TestRecordEncoder:
    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(TEXT.filter(lambda key: key not in ("seq", "at", "kind")), DOCUMENTS, max_size=5))
    def test_equals_json_dumps(self, data):
        record = TraceRecord(3, 1.5, "event", data)
        expected = json.dumps({"seq": 3, "at": 1.5, "kind": "event", **data}, sort_keys=True, separators=(",", ":"))
        assert record.to_json() == expected

    def test_a_self_referencing_record_raises(self):
        data: dict = {"subject": "a"}
        data["self"] = data
        with pytest.raises(ValueError, match="Circular reference detected"):
            TraceRecord(0, 0.0, "event", data).to_json()
        assert TraceRecord(1, 1.0, "event", {"x": [{"y": 1}]}).to_json() == '{"at":1.0,"kind":"event","seq":1,"x":[{"y":1}]}'

    def test_a_failed_record_is_not_kept_alive(self):
        opaque = Opaque()
        alive = weakref.ref(opaque)
        with pytest.raises(TypeError, match="Object of type Opaque is not JSON serializable"):
            TraceRecord(0, 0.0, "event", {"x": [opaque]}).to_json()
        del opaque
        gc.collect()
        assert alive() is None


def _split_record(line: str) -> list[str]:
    cut = line.index(",") + 1
    return [line[:cut], line[cut:]]


def _renumber(lines: list[str], start: int = 0) -> list[str]:
    return [json.dumps(dict(json.loads(line), seq=seq)) for seq, line in enumerate(lines, start)]


MUTATIONS = {
    "unchanged": lambda lines: lines,
    "json-whitespace-padding": lambda lines: [" \t" + lines[0] + "  \t", *lines[1:4], "\t" + lines[4], *lines[5:]],
    "blank-lines": lambda lines: ["", lines[0], "   ", "\t", *lines[1:]],
    "truncated-line": lambda lines: [*lines[:3], lines[3][: len(lines[3]) // 2], *lines[4:]],
    "array": lambda lines: [*lines[:3], "[1,2]", *lines[3:]],
    "number": lambda lines: [*lines[:3], "7", *lines[3:]],
    "two-records-on-one-line": lambda lines: [*lines[:3], lines[3] + lines[4], *lines[5:]],
    "two-records-joined-by-a-comma": lambda lines: [*lines[:3], lines[3] + "," + lines[4], *lines[5:]],
    "one-record-over-two-lines": lambda lines: [*lines[:3], *_split_record(lines[3]), *lines[4:]],
    "trailing-garbage": lambda lines: [*lines[:3], lines[3] + " x", *lines[4:]],
    "trailing-non-json-space": lambda lines: [*lines[:3], lines[3] + "\x1f", *lines[4:]],
    "missing-at": lambda lines: [*lines[:3], '{"seq":3,"kind":"event","event":"Time"}', *lines[4:]],
    "string-at": lambda lines: [*lines[:3], '{"seq":3,"at":"0","kind":"event","event":"Time"}', *lines[4:]],
    "bool-seq": lambda lines: [*lines[:3], '{"seq":true,"at":0.0,"kind":"event","event":"Time"}', *lines[4:]],
    "bool-at": lambda lines: [*lines[:3], '{"seq":3,"at":false,"kind":"event","event":"Time"}', *lines[4:]],
    "infinite-at": lambda lines: [*lines[:3], '{"seq":3,"at":1e400,"kind":"event","event":"Time"}', *lines[4:]],
    "nan-at": lambda lines: [*lines[:3], '{"seq":3,"at":NaN,"kind":"event","event":"Time"}', *lines[4:]],
    "huge-int-at": lambda lines: [*lines[:-1], json.dumps(dict(json.loads(lines[-1]), at=int("9" * 400)))],
    "outcome-on-line-2": lambda lines: _renumber([lines[0], lines[-1], *lines[1:-1]]),
    "first-not-run": lambda lines: _renumber(lines[1:]),
    "earlier-at": lambda lines: [*lines[:3], json.dumps(dict(json.loads(lines[3]), at=-1.0)), *lines[4:]],
    "seq-gap": lambda lines: [*lines[:3], *_renumber(lines[3:], 4)],
}


class TestTraceReader:
    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_equals_the_per_line_reader(self, mutation, demo_lines, tmp_path):
        path = tmp_path / "trace.ndjson"
        path.write_text("\n".join(MUTATIONS[mutation](demo_lines)) + "\n", encoding="ascii")
        expected = outcome(load_trace_per_line, path)
        assert outcome(load_trace, path) == expected
        assert isinstance(expected, list) == (mutation in ("unchanged", "json-whitespace-padding", "blank-lines", "huge-int-at"))

    @settings(max_examples=300, deadline=None)
    @given(inserted=st.lists(st.text(alphabet=' \t{}[]",:.-+0123456789aeflnrstuE\\', max_size=30), max_size=4),
           where=st.integers(min_value=0, max_value=5))
    @example(inserted=[' {"seq":9,"at":1e2,"kind":"event","event":"x"} '], where=2)
    @example(inserted=['{"seq":9,"at":1,"kind":"event","event":"x"}{}'], where=0)
    def test_inserted_lines_equal_the_per_line_reader(self, inserted, where, tmp_path_factory):
        run = ('{"actions":[{"kind":"Call","name":"c"}],"assertions":{"c":[]},"at":0.0,"executor":"sim",'
               '"format":1,"kind":"run","scenario":"s","seed":0,"seq":0}')
        lines = [run, *('{"at":0.5,"event":"State","kind":"event","seq":%d,"tags":{"a":[1,2.5]}}' % seq for seq in range(1, 6))]
        path = tmp_path_factory.mktemp("trace") / "trace.ndjson"
        path.write_text("\n".join(lines[:where] + inserted + lines[where:]) + "\n", encoding="ascii")
        assert outcome(load_trace, path) == outcome(load_trace_per_line, path)

    def test_a_saved_trace_reads_back(self, tmp_path):
        trace = RunTrace()
        trace.append("run", 0.0, scenario="s", seed=0, executor="sim", actions=[{"kind": "Call", "name": "c"}],
                     assertions={}, format=1)
        trace.append("event", 0.25, event="State", subject="cé", phase="Running")
        trace.save(tmp_path / "trace.ndjson")
        assert load_trace(tmp_path / "trace.ndjson") == trace.records


class TestRecordTable:
    def test_every_kind_in_the_table_is_one_the_engine_writes(self, demo_trace):
        """WATCHED takes a checkpoint and fires an assertion; with the demo, the runs write every kind."""
        watched = run_scenario(parse_scenario(WATCHED)).trace
        assert {record.kind for record in [*demo_trace, *watched]} == set(RECORDS)

    @pytest.mark.parametrize("kind, data, error", [
        ("annotation", {}, "unknown record kind 'annotation'"),
        ("fired", {"owner": "a"}, "fired record has no expr"),
        ("outcome", {"outcome": "Success", "reason": 1}, "outcome record: reason is not a str"),
        ("transition", {"subject": "a", "to": "Failed", "class": None}, "transition record: class is not a str"),
        ("run", {"scenario": "s", "seed": 0.0, "executor": "sim", "actions": [], "assertions": {}, "format": 1},
         "run record: seed is not an int"),
    ])
    def test_a_record_outside_the_table_is_refused(self, kind, data, error):
        with pytest.raises(ValueError) as refused:
            check_record(kind, data)
        assert str(refused.value) == error

    def test_a_run_that_writes_a_record_outside_the_table_fails_its_test(self):
        """The suite's `conforming_records` fixture reads every record a run wrote."""
        class Terse(Engine):
            def _fire(self, name, text):
                self.trace.append("fired", self.now, owner=name)
                self._fail(f"{name}: assertion fired: {text}")

        engine = Terse(parse_scenario(WATCHED), {}, SimExecutor())
        with pytest.raises(ValueError, match="^fired record has no expr$"):
            engine.run()
        assert engine.outcome.value == "Failed"
