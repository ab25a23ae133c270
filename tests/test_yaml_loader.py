"""The YAML loader against PyYAML's pure-Python safe loader.

`dsl.load_yaml` parses every document the program reads: scenarios,
template files, and instantiated template bodies. It runs on libyaml when
PyYAML has it, so on the documents the tests and the benchmark use it must
construct the values `yaml.SafeLoader` constructs, and a document that does
not parse must still fail with the program's own error at each site.

Each distinct instance text of a job or fault template is parsed once per
`Template` object, on the first compile that needs it, and every later
compile and run shares the stored value. So the stored value must stay what
`load_yaml(text)` constructs, under either loader: nothing may change it.
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
    """(document, templates): the demo, the valid criterion-7 corpus, three golden documents.

    Every call makes new ``Template`` objects, so that no parse stored by an
    earlier call (or under another loader) is reused.
    """
    pairs = [(parse_scenario((SCENARIOS / "partition-demo.yaml").read_text()), load_templates(SCENARIOS / "templates"))]
    fresh = {name: Template(t.name, t.parameters, t.body) for name, t in CORPUS_TEMPLATES.items()}
    pairs += [(doc, fresh) for doc in corpus_docs()]
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


# --- one parse per instance text, shared read only ----------------------------------

def _load(template: Template, values: dict):
    """The instance the compile builds for ``values``."""
    return dsl._load_instance(template, instantiate_template(template, values))


@pytest.mark.parametrize("loader", LOADERS)
def test_stored_instances_stay_what_their_texts_parse_to(loader):
    # Every compile and run after the first shares the stored values, so
    # nothing that reads them (the job and fault body parsers, the engine)
    # may change them.
    with loader_in_use(loader):
        corpus = _corpus()
        for doc, templates in corpus:
            for _ in range(2):
                compile_scenario(doc, templates)
                run_scenario(doc, templates, seed=1)
    loaded = {id(t): t for _, templates in corpus for t in templates.values()}.values()
    stored = [(text, value) for t in loaded for text, value in t._parsed.items()]
    assert any(text.startswith("kind: partition") for text, _ in stored)  # a fault template
    assert len(stored) > 150
    for text, value in stored:
        for fresh in (LIBYAML, yaml.SafeLoader):
            assert same(value, yaml.load(text, Loader=fresh)), text


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
        for _ in range(2):
            assert same(_load(template, {"x": "5"}), expected)


@pytest.mark.parametrize("loader", LOADERS)
def test_each_instance_text_is_parsed_once_per_template(loader):
    counted = counting(loader)
    templates = [Template("t", {"x": None}, "a: [{{x}}, '{{x}}']\n"), Template("u", {"x": "5"}, SCALARS)]
    with loader_in_use(counted):
        first = [_load(t, {"x": "5"}) for t in templates]
        assert len(counted.streams) == 2
        again = [_load(t, {"x": "5"}) for t in templates for _ in range(3)]
        assert len(counted.streams) == 2
        other = [_load(t, {"x": "yes"}) for t in templates for _ in range(3)]
        assert len(counted.streams) == 3  # u's body has no placeholder: its one text is stored
        _load(Template("t", {"x": None}, templates[0].body), {"x": "5"})
        assert len(counted.streams) == 4  # another Template object keeps its own
    assert same(first[0], {"a": [5, "5"]}) and same(other[0], {"a": [True, "yes"]})
    assert all(value is first[0] for value in again[:3])
    assert same(first[1], load_yaml(SCALARS)) and other[-1] is first[1]


@pytest.mark.parametrize("loader", LOADERS)
def test_templates_reused_across_compiles_are_parsed_once(loader):
    counted = counting(loader)
    with loader_in_use(counted):
        for doc, templates in _corpus():
            first = compile_scenario(doc, templates)
            parsed = len(counted.streams)
            second = compile_scenario(doc, templates)
            assert len(counted.streams) == parsed, doc.name
            assert second.jobs == first.jobs
            assert [spec for spec, _ in second.faults.values()] == [spec for spec, _ in first.faults.values()]
        assert counted.streams


@pytest.mark.parametrize("loader", LOADERS)
def test_a_reassigned_body_is_parsed_again(loader):
    counted = counting(loader)
    template = Template("t", {"x": None}, "a: {{x}}\n")
    with loader_in_use(counted):
        assert same(_load(template, {"x": "1"}), {"a": 1})
        template.body = "b: '{{x}}'\n"
        assert same(_load(template, {"x": "1"}), {"b": "1"})
        template.body = "c: 2\n"
        assert same(_load(template, {"x": "1"}), {"c": 2})
        assert len(counted.streams) == 3
        template.body = "a: {{x}}\n"  # a text parsed before
        assert same(_load(template, {"x": "1"}), {"a": 1})
        assert len(counted.streams) == 3


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("body", ["a: [{{x}}, 2001-12-14]\n", "a: [1, 2001-12-14]\n"])
def test_a_loader_switch_reuses_the_stored_value(loader, body):
    # The memo is keyed by the text alone, as both loaders build equal values.
    other = counting(yaml.SafeLoader if loader is not yaml.SafeLoader else LIBYAML)
    template = Template("t", {"x": None}, body)
    with loader_in_use(loader):
        first = _load(template, {"x": "7"})
    with loader_in_use(other):
        second = _load(template, {"x": "7"})
        assert not other.streams
    assert second is first
    assert same(first, yaml.load(instantiate_template(template, {"x": "7"}), Loader=other))


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
        for _ in range(2):  # an error is not stored
            with pytest.raises(yaml.YAMLError):
                _load(template, {"x": x})
        assert not template._parsed
        return
    first = _load(template, {"x": x})
    assert same(first, expected) and same(first, load_yaml(text))
    assert _load(template, {"x": x}) is first and list(template._parsed) == [text]


# Bodies without a placeholder: every inputs map makes the same text, so each
# is parsed once and every instance is the stored value. They keep aliases (a
# merge key, a recursive one), a set, ordered maps and escaped text.
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
def test_a_body_without_placeholders_is_parsed_once_for_any_inputs(loader, body):
    counted = counting(loader)
    template = Template("t", {"x": "default"}, body)
    with loader_in_use(counted):
        first, second = _load(template, {}), _load(template, {"x": "other"})
        assert len(counted.streams) == 1
    assert second is first
    parsed = yaml.load(body, Loader=loader)
    if body != "a: &n [1, *n]\n":  # `same` would not end
        assert same(first, parsed)
    else:
        assert first["a"][0] == 1 and first["a"][1] is first["a"]
    # The stored value shares containers where the text's aliases share them.
    assert _shape(first) == _shape(parsed)


@pytest.mark.parametrize("loader", LOADERS)
def test_a_mutated_plan_does_not_reach_the_next_compile(loader):
    doc = parse_scenario("""
name: mutated
spec:
- {action: Service, name: s, service: {templateRef: node, inputs: [{up: 1s}]}}
- {action: Service, name: t, service: {templateRef: fixed}}
""")
    templates = {
        "node": Template("node", {"up": None}, "script:\n- { at: {{up}}, do: running }\n- { at: 9s, do: success }\n"),
        "fixed": Template("fixed", {"up": "0s"}, "script:\n- { at: 0s, do: running }\n- { at: 9s, do: success }\n"),
    }
    with loader_in_use(loader):
        first = compile_scenario(doc, templates)
        for name in ("s", "t"):
            first.jobs[name][0].script.append(SimEffect(10.0, "failed"))
            first.jobs[name][0].script[0].offset = 5.0
        second = compile_scenario(doc, templates)
    expected = {name: [parse_job_body(load_yaml(instantiate_template(templates[ref], inputs)))]
                for name, ref, inputs in (("s", "node", {"up": "1s"}), ("t", "fixed", {}))}
    assert second.jobs == expected
    assert [e.op for e in second.jobs["t"][0].script] == ["running", "success"]


# A fault template is built as a job template is: through ``_load_instance``.
NET = Template("net", {"src": None, "bits": "1"},
               "kind: partition\nsource: {{src}}\ndst: 'b'\nduration: {{bits}}\ndirection: both\n")
CUT = """
name: cut
spec:
- {action: Service, name: a, service: {script: [{at: 0s, do: running}, {at: 5s, do: success}]}}
- {action: Service, name: b, service: {script: [{at: 0s, do: running}, {at: 5s, do: success}]}}
- {action: Chaos, name: cut, depends: {running: [a, b]}, chaos: {templateRef: net, inputs: [%s]}}
"""


@pytest.mark.parametrize("loader", LOADERS)
def test_a_fault_template_is_parsed_once_per_template(loader):
    counted = counting(loader)
    doc = parse_scenario(CUT % "{src: a, bits: '30'}")
    with loader_in_use(counted):
        plans = [compile_scenario(doc, {"net": Template(NET.name, NET.parameters, NET.body)})]
        templates = {"net": Template(NET.name, NET.parameters, NET.body)}
        plans += [compile_scenario(doc, templates) for _ in range(2)]
        assert len(counted.streams) == 2  # one parse for each Template object
    text = instantiate_template(NET, {"src": "a", "bits": "30"})
    for plan in plans:
        assert plan.report.ok, str(plan.report)
        spec, targets = plan.faults["cut"]
        assert spec == parse_fault_body(load_yaml(text), plan.clusters)
        assert (spec.targets, spec.dst, spec.duration) == (["a"], ["b"], 30.0)
        assert targets == [plan.nodes["a"]]


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
    # An error is not stored: the next compile finds the same.
    assert [(f.severity, f.location, f.message) for f in validate(doc, templates).findings] == findings
    assert not templates["broken"]._parsed


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
