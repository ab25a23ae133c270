"""The YAML loader against PyYAML's pure-Python safe loader.

`dsl.load_yaml` parses every document the program reads: scenarios,
template files, and each instantiated template body. It runs on libyaml
when PyYAML has it, so on the documents the tests and the benchmark use it
must construct the values `yaml.SafeLoader` constructs, and a document that
does not parse must still fail with the program's own error at each site.
"""

import pytest
import yaml

from whatif.dsl import (
    Template,
    _YAML_LOADER,
    _with_builtins,
    instantiate_template,
    load_templates,
    load_yaml,
    parse_scenario,
    render_scenario,
    validate,
)
from whatif.engine import Outcome, run_scenario
from whatif.errors import ScenarioSyntaxError

from conftest import SCENARIOS
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


def _instantiated(doc, templates) -> list[str]:
    """Every template text the engine would parse for this document."""
    texts = []
    for action in doc.actions:
        ref = action.callable if action.kind == "Call" else action.template_ref
        if ref is None or action.inline_job is not None:
            continue
        template = templates[ref]
        for inputs in action.inputs or [{}]:
            texts.append(instantiate_template(template, _with_builtins(template, inputs, action, doc)))
    return texts


def _documents() -> list[str]:
    texts = [(SCENARIOS / "partition-demo.yaml").read_text(), SCALARS, AFTER_RACE, *WORKLOAD_STYLE]
    demo_doc = parse_scenario(texts[0])
    demo_templates = load_templates(SCENARIOS / "templates")
    texts += _instantiated(demo_doc, demo_templates)
    for doc in corpus_docs():
        texts.append(render_scenario(doc))
        texts += _instantiated(doc, CORPUS_TEMPLATES)
    for name in ("chain-120", "cluster-200", "metrics-300"):
        doc, templates = _build(name)
        texts.append(render_scenario(doc))
        texts += _instantiated(doc, templates)
    return texts


def test_loader_is_libyaml_when_installed():
    assert _YAML_LOADER is (yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)


def test_loader_constructs_what_the_safe_loader_constructs():
    texts = _documents()
    assert len(texts) > 400
    for text in texts:
        assert load_yaml(text) == yaml.load(text, Loader=yaml.SafeLoader), text


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
    for text in MALFORMED:
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


def test_malformed_job_template_fails_the_run():
    doc = parse_scenario("""
name: bad-job
spec:
- {action: Service, name: s, service: {templateRef: broken}}
""")
    templates = {"broken": Template("broken", {}, "script:\n- { at: 0s, do: running\n")}
    assert validate(doc, templates).ok
    result = run_scenario(doc, templates)
    assert result.outcome is Outcome.FAILED
    assert result.reason.startswith("s: template broken body does not parse: ")
