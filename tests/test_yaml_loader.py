"""The YAML loader against PyYAML's pure-Python safe loader.

`dsl.load_yaml` parses every document the program reads: scenarios,
template files, and instantiated template bodies. It runs on libyaml when
PyYAML has it, so on the documents the tests and the benchmark use it must
construct the values `yaml.SafeLoader` constructs, and a document that does
not parse must still fail with the program's own error at each site.

A template instance is what `load_yaml` constructs from its instantiated
text, under either loader.
"""

import datetime
import math
from contextlib import contextmanager

import pytest
import yaml

from whatif import dsl
from whatif.dsl import (
    Template,
    _YAML_LOADER,
    compile_scenario,
    instantiate_template,
    load_templates,
    load_yaml,
    parse_fault_body,
    parse_job_body,
    parse_scenario,
    validate,
)
from whatif.engine import run_scenario
from whatif.errors import ScenarioSyntaxError
from whatif.executors.base import SimEffect

from conftest import SCENARIOS
from documents import render_scenario
from test_acceptance import CORPUS_TEMPLATES
from test_golden import AFTER_RACE, _build, corpus_docs

# Templates written the way the benchmark's workload generators write them:
# flow mappings, quoted and unquoted durations, a process command.
WORKLOAD_STYLE = [
    "script:\n  - { at: '250ms', do: running }\n  - { at: 90s, do: success }\n",
    "env: { TARGETS: 'db-0, db-1, db-2' }\nscript:\n  - { at: 0s, do: running }\n  - { at: 47s, do: success }\n",
    "script:\n  - { at: 0s, do: running }\n"
    + "".join(f"  - {{ at: {25 * i}s, do: metric, name: cpu, value: {40 + i * 0.37:.2f} }}\n" for i in range(1, 40))
    + "  - { at: 2150s, do: success }\n",
    "command: /usr/bin/python3 /opt/bench/emitter.py --seed '7'\ndeclares:\n- cpu\nmetrics: stdout-lines\n",
    "kind: partition\nsource: db-0\ndirection: both\nduration: 1m\ndst: \"db-1, db-2\"\n",
]

# Scalars whose type the YAML 1.1 resolver decides, plus anchors and block text.
SCALARS = """
flags: [yes, No, on, OFF, true, ~, null]
numbers: [1e3, 0x1F, 017, 1_000, -.inf, 1:30, 3.25, '42']
when: [2001-12-14, 2001-12-14t21:59:43.10-05:00]
text: |
  two
  lines
folded: >
  one
  line
anchor: &base { at: 0s, do: running }
alias: *base
merged: { <<: *base, do: success }
unicode: "caf\\u00e9 \\U0001F600"
"""

MALFORMED = [
    "spec: [unclosed",
    "spec:\n- {action: Service, name: x\n",
    "a: b: c",
    "key: 'unterminated",
    "- item\nkey: value\n",
    "\t- tab indented\n",
]

# Scalars that the YAML 1.1 resolver types but that do not construct: both
# loaders raise a plain ValueError for them.
UNCONSTRUCTIBLE = ["2001-13-45", "0b_", "0x_"]


LIBYAML = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
LOADERS = [pytest.param(LIBYAML, id="libyaml"), pytest.param(yaml.SafeLoader, id="pure")]


@contextmanager
def loader_in_use(loader):
    saved = dsl._YAML_LOADER
    dsl._YAML_LOADER = loader
    try:
        yield
    finally:
        dsl._YAML_LOADER = saved


def counting(loader):
    """A subclass of ``loader`` that lists every stream it is made to parse."""

    class Counting(loader):
        streams = []

        def __init__(self, stream):
            self.streams.append(stream)
            super().__init__(stream)

    return Counting


def same(a, b) -> bool:
    """Equal by type and value, recursively and in order; NaN equals NaN.

    `==` would take 1, 1.0 and True for one another, and 0.0 for -0.0.
    """
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return len(a) == len(b) and all(
            same(ka, kb) and same(va, vb) for (ka, va), (kb, vb) in zip(a.items(), b.items())
        )
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, set):
        return {(type(x), repr(x)) for x in a} == {(type(y), repr(y)) for y in b}
    return repr(a) == repr(b)


def test_same_tells_types_apart():
    assert same({"a": [1, 2.5, None]}, {"a": [1, 2.5, None]})
    assert same(math.nan, float("nan"))
    for a, b in [(1, 1.0), (1, True), (0.0, -0.0), ("1", 1), ({"a": 1}, {"a": 1.0}),
                 ([1, 2], [2, 1]), ({"a": 1, "b": 2}, {"b": 2, "a": 1})]:
        assert not same(a, b), (a, b)


def _corpus() -> list[tuple]:
    """(document, templates): the demo, the valid criterion-7 corpus, three golden documents."""
    pairs = [(parse_scenario((SCENARIOS / "partition-demo.yaml").read_text()), load_templates(SCENARIOS / "templates"))]
    pairs += [(doc, CORPUS_TEMPLATES) for doc in corpus_docs()]
    pairs += [_build(name) for name in ("chain-120", "cluster-200", "metrics-300")]
    return pairs


def _instantiated(doc, templates) -> list[str]:
    """Every template text compiling this document instantiates, once per instantiation."""
    texts: list[str] = []

    def recording(template, inputs):
        texts.append(instantiate_template(template, inputs))
        return texts[-1]

    dsl.instantiate_template = recording
    try:
        compile_scenario(doc, templates)
    finally:
        dsl.instantiate_template = instantiate_template
    return texts


def _documents() -> list[str]:
    texts = [(SCENARIOS / "partition-demo.yaml").read_text(), SCALARS, AFTER_RACE, *WORKLOAD_STYLE]
    for doc, templates in _corpus():
        texts.append(render_scenario(doc))
        texts += _instantiated(doc, templates)
    return texts


def test_loader_is_libyaml_when_installed():
    assert _YAML_LOADER is (yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)


def test_loader_constructs_what_the_safe_loader_constructs():
    texts = _documents()
    assert len(texts) > 400
    for text in texts:
        assert same(load_yaml(text), yaml.load(text, Loader=yaml.SafeLoader)), text


# --- template instances ---------------------------------------------------------------

def _load(template: Template, values: dict):
    """The instance the compile builds for ``values``."""
    return load_yaml(instantiate_template(template, values))


@pytest.mark.parametrize("loader", LOADERS)
def test_plain_inputs_keep_their_yaml_types(loader):
    template = Template("t", {"x": None}, "a: {{x}}\nb: '{{x}}'\n")
    cases = [("5", 5), ("yes", True), ("~", None), ("0x1F", 31), (".5", 0.5),
             ("2001-12-14", datetime.date(2001, 12, 14)), ("1:30", 90), ("a b", "a b")]
    with loader_in_use(loader):
        for text, value in cases:
            assert same(_load(template, {"x": text}), {"a": value, "b": text}), text


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("body,expected", [
    ("a: !!omap\n- k: {{x}}\n- l: [{{x}}]\n", {"a": [("k", 5), ("l", [5])]}),
    ("a: !!pairs [{k: {{x}}}, {k: '{{x}}'}, {l: [{{x}}]}]\n", {"a": [("k", 5), ("k", "5"), ("l", [5])]}),
])
def test_a_placeholder_in_an_ordered_map_is_filled(loader, body, expected):
    # An !!omap or !!pairs entry is a (key, value) tuple.
    template = Template("t", {"x": None}, body)
    with loader_in_use(loader):
        assert same(_load(template, {"x": "5"}), expected)


# --- one parse per instance text in a compile, one plan per document ------------------

@pytest.mark.parametrize("loader", LOADERS)
def test_a_kept_plan_stays_what_its_texts_parse_to(loader):
    # A document keeps its plan, and every later compile and run of it shares
    # the stored job and fault specs, so nothing that reads them (the engine,
    # the executors) may change them.
    with loader_in_use(loader):
        corpus = _corpus()
        plans = []
        for doc, templates in corpus:
            plans.append(compile_scenario(doc, templates))
            for _ in range(2):
                run_scenario(doc, templates, seed=1)
                assert compile_scenario(doc, templates) is plans[-1], doc.name
    assert any(plan.faults for plan in plans)  # a fault template
    assert sum(len(specs) for plan in plans for specs in plan.jobs.values()) > 150
    with loader_in_use(yaml.SafeLoader):
        for (doc, templates), plan in zip(corpus, plans):
            fresh = compile_scenario(parse_scenario(render_scenario(doc)), templates)
            assert fresh.jobs == plan.jobs, doc.name
            assert fresh.faults == plan.faults, doc.name


REPEATED = """
spec:
- {action: Cluster, name: a, cluster: {templateRef: t, instances: 6, inputs: [{x: 1s}, {x: 2s}, {x: 1s}, {x: 1s}, {x: 2s}, {x: 3s}]}}
- {action: Cluster, name: b, cluster: {templateRef: u, instances: 3, inputs: [{x: '1'}, {x: '2'}, {}]}}
- {action: Service, name: c, service: {templateRef: t, inputs: [{x: 2s}]}}
"""


@pytest.mark.parametrize("loader", LOADERS)
def test_a_compile_parses_each_instance_text_once(loader):
    # A compile parses each distinct instance text once, however many
    # instances and actions make it: u's body has no placeholder, so its
    # three instances are one text.
    counted = counting(loader)
    templates = {
        "t": Template("t", {"x": None}, "script:\n- {at: '{{x}}', do: running}\n- {at: 9s, do: success}\n"),
        "u": Template("u", {"x": "5"}, "script:\n- {at: 0s, do: running}\n- {at: 9s, do: success}\n"),
    }
    doc, copy = parse_scenario(REPEATED), parse_scenario(REPEATED)
    with loader_in_use(counted):
        plan = compile_scenario(doc, templates)
        assert sorted(counted.streams) == sorted({
            instantiate_template(templates["t"], {"x": x}) for x in ("1s", "2s", "3s")
        } | {templates["u"].body})
        assert compile_scenario(copy, templates).jobs == plan.jobs
        assert len(counted.streams) == 8  # a freshly parsed document compiles on its own
    assert plan.report.ok, str(plan.report)
    starts = [[spec.script[0].offset for spec in plan.jobs[name]] for name in ("a", "b", "c")]
    assert starts == [[1.0, 2.0, 1.0, 1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [2.0]]


@pytest.mark.parametrize("loader", LOADERS)
def test_a_document_parses_its_templates_on_its_first_compile_only(loader):
    # A document keeps its plan, so its templates are parsed on its first
    # compile only; a freshly parsed equal document has no plan yet, and
    # parses them again to equal specs.
    counted = counting(loader)
    with loader_in_use(counted):
        for original, templates in _corpus():
            doc, copy = (parse_scenario(render_scenario(original)) for _ in range(2))
            start = len(counted.streams)
            first = compile_scenario(doc, templates)
            parsed = len(counted.streams) - start
            assert compile_scenario(doc, templates) is first
            run_scenario(doc, templates, seed=1)
            assert len(counted.streams) - start == parsed, doc.name
            second = compile_scenario(copy, templates)
            assert len(counted.streams) - start == 2 * parsed, doc.name
            assert second is not first
            assert second.jobs == first.jobs
            assert second.faults == first.faults
        assert counted.streams


@pytest.mark.parametrize("loader", LOADERS)
def test_a_reassigned_body_compiles_again(loader):
    # The document's plan is keyed by a copy of each template, so a body
    # changed in place compiles again, even back to a text parsed before.
    counted = counting(loader)
    running = "script:\n- {at: '{{x}}', do: running}\n- {at: 9s, do: success}\n"
    template = Template("t", {"x": None}, running)
    doc = parse_scenario("spec:\n- {action: Service, name: s, service: {templateRef: t, inputs: [{x: 1s}]}}\n")
    plans = []
    with loader_in_use(counted):
        for body in (running, "script:\n- {at: 0s, do: running}\n- {at: '{{x}}', do: failed}\n", running):
            template.body = body
            plans.append(compile_scenario(doc, {"t": template}))
            assert compile_scenario(doc, {"t": template}) is plans[-1]
        assert len(counted.streams) == 3
    assert [[(e.offset, e.op) for e in plan.jobs["s"][0].script] for plan in plans] == [
        [(1.0, "running"), (9.0, "success")], [(0.0, "running"), (1.0, "failed")], [(1.0, "running"), (9.0, "success")],
    ]
    assert plans[2] is not plans[0]


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("body", [
    "script:\n- {at: 0s, do: running}\n- {at: '{{x}}', do: success}\n",
    "script:\n- {at: 0s, do: running}\n- {at: 7s, do: success}\n",
])
def test_a_loader_switch_reuses_the_kept_plan(loader, body):
    # The plan's key holds no loader, as both loaders build equal values.
    other = counting(yaml.SafeLoader if loader is not yaml.SafeLoader else LIBYAML)
    templates = {"t": Template("t", {"x": None}, body)}
    text = "spec:\n- {action: Service, name: s, service: {templateRef: t, inputs: [{x: 7s}]}}\n"
    doc, copy = parse_scenario(text), parse_scenario(text)
    with loader_in_use(loader):
        first = compile_scenario(doc, templates)
    with loader_in_use(other):
        assert compile_scenario(doc, templates) is first
        assert not other.streams
        fresh = compile_scenario(copy, templates)
        assert len(other.streams) == 1
    assert fresh.jobs == first.jobs
    assert [(e.offset, e.op) for e in first.jobs["s"][0].script] == [(0.0, "running"), (7.0, "success")]


# A placeholder is replaced as text wherever it sits, so an input can add
# structure, and a placeholder in a comment, a key, a tag's scalar or an
# anchored node means what the instantiated text means.
POSITIONS = [
    ("{{x}}: 1\n", "5", {5: 1}),
    ("a: |\n  {{x}}\n", "5", {"a": "5\n"}),
    ("a: !!str {{x}}\n", "5", {"a": "5"}),
    ("a: &n {{x}}\nb: *n\n", "5", {"a": 5, "b": 5}),
    ("a: 1 # {{x}}\n", "5", {"a": 1}),
    ("a: 1 # {{x}}\n", "\nb: 2", {"a": 1, "b": 2}),
    ("a: 'one\n  {{x}}'\n", "5", {"a": "one 5"}),
    ("a: {{x}}\n", "b #c", {"a": "b"}),
    ("a: [{{x}}]\n", "b: 1", {"a": [{"b": 1}]}),
    ("a: x{{x}}\n", "1:30", {"a": "x1:30"}),
    ("a: [unclosed {{x}}\n", "5", yaml.YAMLError),
]


@pytest.mark.parametrize("body,x,expected", POSITIONS, ids=[body for body, _, _ in POSITIONS])
def test_an_instance_is_what_its_instantiated_text_parses_to(body, x, expected):
    template = Template("t", {"x": None}, body)
    text = instantiate_template(template, {"x": x})
    if expected is yaml.YAMLError:
        with pytest.raises(yaml.YAMLError):
            _load(template, {"x": x})
        return
    instance = _load(template, {"x": x})
    assert same(instance, expected) and same(instance, yaml.load(text, Loader=yaml.SafeLoader))


# Bodies without a placeholder: every inputs map makes the same text, and
# every instance is what it parses to. They keep aliases (a merge key, a
# recursive one), a set, ordered maps and escaped text.
PLACEHOLDER_FREE = [
    "a: 1\n", "", "plain text\n", "- 1\n- [2, {b: 3}]\n", SCALARS, *WORKLOAD_STYLE,
    "anchor: &base {at: 0s, do: running}\nscript: [*base, *base, {<<: *base, do: success}]\n",
    "a: &n [1, *n]\n", "a: !!set {x, y}\n", "a: \"\\x5f_whatif_slot_0__\"\n",
    "a: !!omap [ {k: [1]}, {l: {m: 2}} ]\n", "a: &p !!pairs [ {k: [1]}, {k: [2]} ]\nb: *p\n",
]


def _shape(value, seen=None) -> list:
    """Each container of ``value`` in walk order, as the index of its first visit.

    A tuple (an !!omap or !!pairs entry) is walked through but not counted.
    """
    seen = {} if seen is None else seen
    if isinstance(value, tuple):
        return [index for item in value for index in _shape(item, seen)]
    if not isinstance(value, (dict, list, set)):
        return []
    if id(value) in seen:
        return [seen[id(value)]]
    seen[id(value)] = len(seen)
    items = value.values() if isinstance(value, dict) else value
    return [seen[id(value)]] + [index for item in items for index in _shape(item, seen)]


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("body", PLACEHOLDER_FREE)
def test_a_body_without_placeholders_is_what_its_text_parses_to(loader, body):
    template = Template("t", {"x": "default"}, body)
    parsed = yaml.load(body, Loader=loader)
    with loader_in_use(loader):
        instances = [_load(template, {}), _load(template, {"x": "other"})]
    for instance in instances:
        if body != "a: &n [1, *n]\n":  # `same` would not end
            assert same(instance, parsed)
        else:
            assert instance["a"][0] == 1 and instance["a"][1] is instance["a"]
        # The instance shares containers where the text's aliases share them.
        assert _shape(instance) == _shape(parsed)


@pytest.mark.parametrize("loader", LOADERS)
def test_a_mutated_plan_does_not_reach_the_next_compile(loader):
    # A plan is shared read only by the runs of its document; what is tested
    # here is that a freshly parsed equal document does not share its values.
    text = """
name: mutated
spec:
- {action: Service, name: s, service: {templateRef: node, inputs: [{up: 1s}]}}
- {action: Service, name: t, service: {templateRef: fixed}}
"""
    templates = {
        "node": Template("node", {"up": None}, "script:\n- { at: {{up}}, do: running }\n- { at: 9s, do: success }\n"),
        "fixed": Template("fixed", {"up": "0s"}, "script:\n- { at: 0s, do: running }\n- { at: 9s, do: success }\n"),
    }
    with loader_in_use(loader):
        first = compile_scenario(parse_scenario(text), templates)
        for name in ("s", "t"):
            first.jobs[name][0].script.append(SimEffect(10.0, "failed"))
            first.jobs[name][0].script[0].offset = 5.0
        second = compile_scenario(parse_scenario(text), templates)
    expected = {name: [parse_job_body(load_yaml(instantiate_template(templates[ref], inputs)))]
                for name, ref, inputs in (("s", "node", {"up": "1s"}), ("t", "fixed", {}))}
    assert second.jobs == expected
    assert [e.op for e in second.jobs["t"][0].script] == ["running", "success"]


# A fault template is built as a job template is: ``load_yaml`` of its instance text.
NET = Template("net", {"src": None, "bits": "1"},
               "kind: partition\nsource: {{src}}\ndst: 'b'\nduration: {{bits}}\ndirection: both\n")
CUT = """
name: partitioned
spec:
- {action: Service, name: a, service: {script: [{at: 0s, do: running}, {at: 5s, do: success}]}}
- {action: Service, name: b, service: {script: [{at: 0s, do: running}, {at: 5s, do: success}]}}
- {action: Chaos, name: cut, depends: {running: [a, b]}, chaos: {templateRef: net, inputs: [%s]}}
"""


@pytest.mark.parametrize("loader", LOADERS)
def test_a_fault_template_compiles_to_what_its_text_parses_to(loader):
    with loader_in_use(loader):
        plan = compile_scenario(parse_scenario(CUT % "{src: a, bits: '30'}"), {"net": NET})
    assert plan.report.ok, str(plan.report)
    spec = plan.faults["cut"]
    text = instantiate_template(NET, {"src": "a", "bits": "30"})
    assert spec == parse_fault_body(yaml.load(text, Loader=yaml.SafeLoader), plan.clusters)
    assert (spec.targets, spec.dst, spec.duration) == (["a"], ["b"], 30.0)


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("body,inputs,message", [
    ("kind: partition\nsource: [{{src}}\n", "{src: a}", "fault template does not parse: "),
    ("kind: partition\nsource: {{src}}\nduration: {{bits}}\n", "{src: a, bits: '0b_'}",
     "fault template does not parse: cannot construct a value: invalid literal for int() with base 2: ''"),
    ("kind: partition\nsource: {{src}}\n", "{src: 'a, b'}", "invalid fault: partition requires source and dst"),
    ("kind: partition\nsource: '{{src}}'\ndst: b\nduration: 1s\n", "{src: c}", "unknown fault target: c"),
])
def test_fault_template_errors_read_the_same_on_every_compile(loader, body, inputs, message):
    doc = parse_scenario(CUT % inputs)
    templates = {"net": Template("net", {"src": None, "bits": "1"}, body)}
    with loader_in_use(loader):
        for _ in range(2):
            messages = [f.message for f in validate(doc, templates).findings if f.location == "cut"]
            assert len(messages) == 1 and messages[0].startswith(message), messages


def test_template_files_load_as_with_the_safe_loader():
    for file in sorted(SCENARIOS.glob("templates/*.yaml")):
        text = file.read_text()
        assert load_yaml(text, all_documents=True) == list(yaml.load_all(text, Loader=yaml.SafeLoader))


def test_malformed_documents_fail_with_both_loaders():
    for text in MALFORMED:
        with pytest.raises(yaml.YAMLError):
            yaml.load(text, Loader=yaml.SafeLoader)
        with pytest.raises(yaml.YAMLError):
            load_yaml(text)


def test_malformed_scenario_is_a_syntax_error():
    for text in MALFORMED + [f"spec: {scalar}\n" for scalar in UNCONSTRUCTIBLE]:
        with pytest.raises(ScenarioSyntaxError):
            parse_scenario(text)


def test_malformed_template_file_names_the_file(tmp_path):
    (tmp_path / "good.yaml").write_text("name: ok\nbody: 'script: []'\n")
    bad = tmp_path / "lib.yaml"
    bad.write_text("name: broken\nbody: [unclosed\n")
    with pytest.raises(ScenarioSyntaxError) as info:
        load_templates(tmp_path)
    assert str(info.value).startswith(f"{bad}: ")


def test_malformed_fault_template_is_a_finding():
    doc = parse_scenario("""
name: bad-fault
spec:
- {action: Service, name: s, service: {script: [{at: 0s, do: running}, {at: 5s, do: success}]}}
- {action: Chaos, name: cut, depends: {running: [s]}, chaos: {templateRef: net}}
""")
    report = validate(doc, {"net": Template("net", {}, "kind: partition\nsource: [s\n")})
    messages = [f.message for f in report.findings if f.location == "cut"]
    assert len(messages) == 1 and messages[0].startswith("fault template does not parse: ")


def test_malformed_job_template_is_a_finding():
    doc = parse_scenario("""
name: bad-job
spec:
- {action: Service, name: s, service: {templateRef: broken}}
- {action: Cluster, name: c, cluster: {templateRef: broken, instances: 2}}
- {action: Call, name: k, call: {callable: misspelled, services: [s]}}
""")
    templates = {
        "broken": Template("broken", {}, "script:\n- { at: 0s, do: running\n"),
        "misspelled": Template("misspelled", {}, "script:\n- { at: 0s, do: runnning }\n"),
    }
    findings = [(f.severity, f.location, f.message) for f in validate(doc, templates).findings]
    assert [location for _, location, _ in findings] == ["s", "c", "k"]
    assert all(severity == "error" for severity, _, _ in findings)
    assert all(message.startswith("template broken body does not parse: ") for _, _, message in findings[:2])
    assert findings[2][2] == "script[0]: unknown effect 'runnning'"
    assert [(f.severity, f.location, f.message) for f in validate(doc, templates).findings] == findings


def test_malformed_inline_job_body_is_a_finding():
    doc = parse_scenario("""
name: bad-inline
spec:
- {action: Service, name: key, service: {scirpt: [{at: 0s, do: running}]}}
- {action: Service, name: effect, service: {script: [{at: 0s, do: runnning}]}}
""")
    assert [str(f) for f in validate(doc).findings] == [
        "error: key: unknown job body key 'scirpt'",
        "error: effect: script[0]: unknown effect 'runnning'",
    ]


@pytest.mark.parametrize("scalar", UNCONSTRUCTIBLE)
def test_unconstructible_scalar_is_a_yaml_error(scalar):
    text = f"a: {scalar}\n"
    with pytest.raises(ValueError):
        yaml.load(text, Loader=yaml.SafeLoader)
    with pytest.raises(yaml.YAMLError, match="^cannot construct a value: "):
        load_yaml(text)
    with pytest.raises(yaml.YAMLError, match="^cannot construct a value: "):
        load_yaml(f"b: 1\n---\n{text}", all_documents=True)


def test_unconstructible_template_file_names_the_file(tmp_path):
    bad = tmp_path / "lib.yaml"
    bad.write_text("name: dated\nbody: 'script: []'\nsince: 2001-13-45\n")
    with pytest.raises(ScenarioSyntaxError) as info:
        load_templates(tmp_path)
    assert str(info.value) == f"{bad}: cannot construct a value: month must be in 1..12"


def test_unconstructible_template_input_is_a_finding():
    doc = parse_scenario("""
name: bad-input
spec:
- {action: Service, name: s, service: {templateRef: dated, inputs: [{when: "2001-13-45"}]}}
- {action: Chaos, name: cut, depends: {running: [s]}, chaos: {templateRef: net, inputs: [{bits: "0b_"}]}}
""")
    templates = {
        "dated": Template("dated", {"when": None}, "script:\n- { at: {{when}}, do: running }\n"),
        "net": Template("net", {"bits": None}, "kind: partition\nsource: s\nduration: {{bits}}\n"),
    }
    assert [str(f) for f in validate(doc, templates).findings] == [
        "error: s: template dated body does not parse: cannot construct a value: month must be in 1..12",
        "error: cut: fault template does not parse: cannot construct a value: invalid literal for int() with base 2: ''",
    ]
