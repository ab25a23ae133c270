"""Scenario parsing, templating, macros, and static validation."""

import copy
import math

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from conftest import SCENARIOS
from documents import action_named, render_scenario
from whatif import dsl
from whatif.dsl import (
    ACTION_KINDS,
    EFFECT_OPS,
    FAULT_KINDS,
    ActionSpec,
    DependsClause,
    ScenarioDoc,
    Template,
    compile_scenario,
    expand_macro,
    instantiate_template,
    load_templates,
    load_yaml,
    parse_scenario,
    parse_template,
    validate,
)
from whatif.durations import parse_duration
from whatif.engine import run_scenario
from whatif.errors import Finding, InvalidScenario, ScenarioSyntaxError, SchemaError
from whatif.executors.sim import SimExecutor

DEMO_KINDS = [
    ("masters", "Cluster"),
    ("boot", "Call"),
    ("import-workload", "Call"),
    ("wait-for-3x-replication", "Call"),
    ("run-workload", "Call"),
    ("partition0", "Chaos"),
]


class TestParseScenario:
    def test_demo_scenario_layout(self, partition_demo):
        doc, _ = partition_demo
        assert [(a.name, a.kind) for a in doc.actions] == DEMO_KINDS
        masters = action_named(doc, "masters")
        assert masters.instances == 4
        assert masters.tolerated_failures == 0
        boot = action_named(doc, "boot")
        assert boot.depends.running == ["masters"]
        assert boot.services == [".cluster.masters.all"]
        partition = action_named(doc, "partition0")
        assert partition.depends.success == ["wait-for-3x-replication"]
        assert partition.inputs[0]["source"] == "masters-0"
        assert partition.inputs[0]["duration"] == "10m"

    def test_empty_actions_list(self):
        doc = parse_scenario("spec: []\n")
        assert doc.actions == []
        assert doc.name == "scenario"

    def test_unknown_kind_rejected(self):
        doc = parse_scenario("spec:\n- action: Teleport\n  name: beam\n")
        assert doc.actions == []
        assert doc.findings == [Finding("error", "document", "spec[0] (beam): unknown action kind 'Teleport'")]

    def test_unknown_top_level_key_warns(self):
        doc = parse_scenario("spec: []\nextras: 1\n")
        assert doc.findings == [Finding("warning", "document", "unknown top-level key 'extras'")]

    @pytest.mark.parametrize("text,message", [
        ("- 1\n", "scenario document must be a mapping"),
        ("name: x\ndefaults: 1\n", "missing mandatory top-level key 'spec'"),
        ("spec: {a: 1}\n", "'spec' must be a list of actions"),
    ])
    def test_a_bad_document_shape_is_one_error(self, text, message):
        assert parse_scenario(text).findings == [Finding("error", "document", message)]

    def test_malformed_markup(self):
        with pytest.raises(ScenarioSyntaxError):
            parse_scenario("spec: [unclosed\n  nope: {")

    def test_missing_mandatory_field(self):
        doc = parse_scenario("spec:\n- action: Cluster\n  name: c\n  cluster: { templateRef: x }\n")
        assert doc.findings == [Finding("error", "c", "spec[0] (c): cluster requires instances")]
        assert [(a.name, a.instances) for a in doc.actions] == [("c", None)]
        assert [str(f) for f in validate(doc).findings] == ["error: c: spec[0] (c): cluster requires instances"]

    def test_bad_identifier(self):
        doc = parse_scenario("spec:\n- action: Call\n  name: 'has space'\n  call: {callable: x, services: []}\n")
        assert doc.actions == []
        assert doc.findings == [
            Finding("error", "document", "spec[0] (has space).name: invalid identifier 'has space'"),
        ]

    def test_duration_fields(self):
        doc = parse_scenario(
            "defaults: { timeout: 1h }\n"
            "spec:\n"
            "- action: Call\n  name: a\n  timeout: 90s\n"
            "  depends: { after: 500ms }\n"
            "  call: { callable: x, services: [] }\n"
        )
        assert doc.timeout == 3600.0
        assert doc.actions[0].timeout == 90.0
        assert doc.actions[0].depends.after == 0.5


class TestDurations:
    @pytest.mark.parametrize("text,expected", [
        ("10m", 600.0), ("1h", 3600.0), ("30s", 30.0), ("500ms", 0.5),
        ("1h30m", 5400.0), ("2.5s", 2.5), (42, 42.0),
    ])
    def test_parse(self, text, expected):
        assert parse_duration(text) == expected

    @pytest.mark.parametrize("bad", [
        "", "10x", "m10", "-5s", None, math.nan, math.inf, pytest.param("9" * 400, id="400-nines"),
        pytest.param("9" * 400 + "s", id="400-nines-s"), pytest.param("9" * 308 + "h", id="308-nines-h"),
        pytest.param(10**400, id="int-past-float"),
    ])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_duration(bad)


class TestTemplates:
    def test_substitution(self):
        tmpl = Template("t", {"source": None, "duration": None}, "partition {{source}} for {{duration}}")
        out = instantiate_template(tmpl, {"source": "masters-0", "duration": "10m"})
        assert out == "partition masters-0 for 10m"

    def test_zero_parameters_byte_identical(self):
        body = "exactly this body\nwith two lines"
        tmpl = Template("t", {}, body)
        assert instantiate_template(tmpl, {}) == body

    def test_unknown_parameter(self):
        tmpl = Template("t", {"source": None}, "x {{source}}")
        with pytest.raises(SchemaError, match="typo"):
            instantiate_template(tmpl, {"typo": "x"})

    def test_missing_parameter(self):
        tmpl = Template("t", {"source": None}, "x {{source}}")
        with pytest.raises(SchemaError, match="source"):
            instantiate_template(tmpl, {})

    def test_default_applies(self):
        tmpl = Template("t", {"port": "26257"}, "port={{port}}")
        assert instantiate_template(tmpl, {}) == "port=26257"
        assert instantiate_template(tmpl, {"port": "1"}) == "port=1"

    @pytest.mark.parametrize("parameters", ["[true]", "{true: 9s}"])
    def test_a_key_is_the_name_its_scalar_spells(self, parameters):
        """``{true: x}`` names the parameter declared ``[true]``, as a value ``true`` would read ``'true'``."""
        template = parse_template(yaml.safe_load(
            f"name: t\nparameters: {parameters}\nbody: 'script: [{{at: 0s, do: running}}, {{at: {{{{true}}}}, do: success}}]'\n",
        ))
        assert template.parameters.keys() == {"true"}
        doc = parse_scenario("spec:\n- {action: Service, name: s, service: {templateRef: t, inputs: [{true: 5s}]}}\n")
        assert doc.actions[0].inputs == [{"true": "5s"}]
        plan = compile_scenario(doc, {"t": template})
        assert plan.report.ok, str(plan.report)
        assert [effect.offset for effect in plan.jobs["s"][0].script] == [0.0, 5.0]

    @pytest.mark.parametrize("where,entry", [
        ("inputs[0]", "{action: Service, name: a, service: {templateRef: t, inputs: [{~: 1}]}}"),
        ("values", "{action: Checkpoint, name: a, checkpoint: {values: {~: 'SUM() QUERY(m, 1m, now)'}}}"),
    ])
    def test_a_null_key_is_a_finding(self, where, entry):
        doc = parse_scenario(f"spec:\n- {entry}\n")
        assert [str(f) for f in doc.findings] == [f"error: a: spec[0] (a).{where}: expected a scalar, got None"]
        with pytest.raises(SchemaError, match="template t: parameter: expected a scalar, got None"):
            parse_template({"name": "t", "parameters": {None: "1"}})

    def test_undeclared_placeholder_rejected_at_load(self):
        with pytest.raises(SchemaError, match="undeclared"):
            parse_template({"name": "t", "body": "oops {{ghost}}"})

    def test_single_pass_no_recursion(self):
        tmpl = Template("t", {"a": None}, "val={{a}}")
        out = instantiate_template(tmpl, {"a": "{{a}}{{b}}"})
        # Inserted text is literal; it is never expanded again.
        assert out == "val={{a}}{{b}}"

    @given(st.dictionaries(
        st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True),
        st.text(alphabet="abc123 ", max_size=8),
        max_size=4,
    ))
    def test_no_marker_survives(self, params):
        body = " ".join("{{%s}}" % name for name in params)
        tmpl = Template("t", {name: None for name in params}, body)
        out = instantiate_template(tmpl, params)
        assert "{{" not in out


class TestMacros:
    @pytest.fixture
    def clusters(self):
        return compile_scenario(ScenarioDoc(actions=[
            ActionSpec(name="masters", kind="Cluster", template_ref="x", instances=4),
        ])).clusters

    def test_all_selector(self, clusters):
        assert expand_macro(".cluster.masters.all", clusters) == [
            "masters-0", "masters-1", "masters-2", "masters-3",
        ]

    def test_index_selector(self, clusters):
        assert expand_macro(".cluster.masters.2", clusters) == ["masters-2"]

    def test_plain_name_passthrough(self, clusters):
        assert expand_macro("masters-3", clusters) == ["masters-3"]

    def test_index_out_of_range(self, clusters):
        with pytest.raises(SchemaError, match="cluster has 4 instances"):
            expand_macro(".cluster.masters.7", clusters)

    def test_unknown_cluster(self, clusters):
        with pytest.raises(SchemaError, match="unknown cluster 'ghost'"):
            expand_macro(".cluster.ghost.all", clusters)

    def test_malformed_macro(self, clusters):
        with pytest.raises(SchemaError):
            expand_macro(".cluster.masters", clusters)

    @given(st.integers(min_value=1, max_value=9))
    def test_all_returns_every_instance_in_order(self, instances):
        doc = ScenarioDoc(actions=[
            ActionSpec(name="c", kind="Cluster", template_ref="x", instances=instances),
        ])
        names = expand_macro(".cluster.c.all", compile_scenario(doc).clusters)
        assert names == [f"c-{i}" for i in range(instances)]


class TestValidate:
    def test_demo_scenario_is_clean(self, partition_demo):
        doc, templates = partition_demo
        report = validate(doc, templates)
        assert report.ok
        assert report.errors() == []

    def test_two_cycle(self):
        doc = parse_scenario(
            "spec:\n"
            "- action: Call\n  name: a\n  depends: { success: [b] }\n"
            "  call: { callable: t, services: [] }\n"
            "- action: Call\n  name: b\n  depends: { success: [a] }\n"
            "  call: { callable: t, services: [] }\n"
        )
        report = validate(doc, {"t": Template("t", {}, "command: true\n")})
        assert not report.ok
        assert any("dependency cycle" in f.message for f in report.errors())

    def test_long_chain_in_reverse_order(self):
        """The cycle search keeps its own stack, so a chain deeper than Python's recursion limit fits."""
        actions = [
            ActionSpec(name=f"c{i}", kind="Call", template_ref="t",
                       depends=DependsClause(success=[f"c{i - 1}"] if i else []))
            for i in reversed(range(1500))
        ]
        assert validate(ScenarioDoc(actions=actions), {"t": Template("t", {}, "command: true\n")}).ok
        actions[-1].depends.success = ["c1499"]
        report = validate(ScenarioDoc(actions=actions), {"t": Template("t", {}, "command: true\n")})
        assert [f.message.count("->") for f in report.errors()] == [1500]

    def test_dangling_depends(self):
        doc = parse_scenario(
            "spec:\n- action: Call\n  name: a\n  depends: { success: [ghost] }\n"
            "  call: { callable: t, services: [] }\n"
        )
        report = validate(doc, {"t": Template("t", {}, "command: true\n")})
        assert any("unknown action: ghost" in f.message for f in report.errors())

    def test_missing_template(self):
        doc = parse_scenario(
            "spec:\n- action: Call\n  name: a\n  call: { callable: nope, services: [] }\n"
        )
        report = validate(doc, {})
        assert any("unknown template: nope" in f.message for f in report.errors())

    def test_tolerated_failures_bound(self):
        doc = parse_scenario(
            "spec:\n- action: Cluster\n  name: c\n"
            "  cluster: { templateRef: t, instances: 2, toleratedFailures: 2 }\n"
        )
        report = validate(doc, {"t": Template("t", {}, "command: true\n")})
        assert any("toleratedFailures" in f.message for f in report.errors())

    def test_bad_expression(self):
        doc = parse_scenario(
            "spec:\n- action: Call\n  name: a\n  call: { callable: t, services: [] }\n"
            "  assertions: ['.state.failed(3) > 1']\n"
        )
        report = validate(doc, {"t": Template("t", {}, "command: true\n")})
        assert any("no arguments" in f.message for f in report.errors())

    def test_scope_violation_across_clusters(self):
        doc = parse_scenario(
            "spec:\n"
            "- action: Cluster\n  name: a\n  cluster: { templateRef: t, instances: 2 }\n"
            "  assertions: ['b-0.state.failed() > 0']\n"
            "- action: Cluster\n  name: b\n  cluster: { templateRef: t, instances: 2 }\n"
        )
        report = validate(doc, {"t": Template("t", {}, "command: true\n")})
        assert any("outside the local scope" in f.message for f in report.errors())

    def test_unknown_chaos_target(self):
        doc = parse_scenario(
            "spec:\n- action: Chaos\n  name: z\n"
            "  chaos: { fault: { kind: kill, targets: [ghost-1] } }\n"
        )
        report = validate(doc, {})
        assert any("unknown fault target" in f.message for f in report.errors())

    def test_duplicate_action_names(self):
        doc = parse_scenario(
            "spec:\n"
            "- action: Call\n  name: twin\n  call: { callable: t, services: [] }\n"
            "- action: Call\n  name: twin\n  call: { callable: t, services: [] }\n"
        )
        report = validate(doc, {"t": Template("t", {}, "command: true\n")})
        assert any("duplicate action name" in f.message for f in report.errors())

    def test_action_name_taken_by_a_cluster_instance(self):
        service = "- action: Service\n  name: db-1\n  service: { templateRef: t }\n"
        cluster = "- action: Cluster\n  name: db\n  cluster: { templateRef: t, instances: 2 }\n"
        templates = {"t": Template("t", {}, "command: true\n")}
        for spec in (service + cluster, cluster + service):
            report = validate(parse_scenario("spec:\n" + spec), templates)
            assert [(f.location, f.message) for f in report.errors()] == [
                ("db-1", "name used by an action and by an instance of cluster db"),
            ]

    @pytest.mark.parametrize("text,name,user", [
        ("name: db\nspec:\n- {action: Service, name: db, service: {templateRef: t}}\n", "db", "an action"),
        # a document without `name` is named `scenario`
        ("spec:\n- {action: Service, name: scenario, service: {templateRef: t}}\n", "scenario", "an action"),
        ("name: db-1\nspec:\n- {action: Cluster, name: db, cluster: {templateRef: t, instances: 2}}\n",
         "db-1", "an instance of cluster db"),
    ], ids=["named", "unnamed", "instance"])
    def test_document_name_taken_by_an_action_or_an_instance(self, text, name, user):
        # A run traces the document and its resources by name, so two of them
        # under one name would read as one resource.
        report = validate(parse_scenario(text), {"t": Template("t", {}, "command: true\n")})
        assert [(f.location, f.message) for f in report.errors()] == [(name, f"name used by the document and by {user}")]

    def test_checkpoint_reference_needs_the_checkpoint_and_its_key(self):
        def report_for(reference):
            return validate(parse_scenario(
                "spec:\n"
                "- action: Checkpoint\n  name: seen\n"
                "  checkpoint: { values: { cpu: 'MAX() QUERY(cpu, 1m, now)' } }\n"
                "- action: Call\n  name: s\n  call: { callable: t, services: [] }\n"
                f"  assertions: ['MAX() QUERY(cpu, 1m, now) IS ABOVE({reference})']\n"
            ), {"t": Template("t", {}, "command: true\n")})

        assert report_for("CHECKPOINT(seen.cpu) * 2").ok
        assert [f.message for f in report_for("CHECKPOINT(nosuch.cpu)").errors()] == [
            "assertion 'MAX() QUERY(cpu, 1m, now) IS ABOVE(CHECKPOINT(nosuch.cpu))': unknown checkpoint: nosuch",
        ]
        assert [f.message for f in report_for("CHECKPOINT(seen.mem)").errors()] == [
            "assertion 'MAX() QUERY(cpu, 1m, now) IS ABOVE(CHECKPOINT(seen.mem))': checkpoint seen has no value mem",
        ]

    def test_bad_macro_in_a_call_that_takes_services_is_a_finding(self):
        doc = parse_scenario(
            "spec:\n- action: Call\n  name: a\n  call: { callable: t, services: [ .cluster.ghost.all ] }\n"
        )
        report = validate(doc, {"t": Template("t", {"services": None}, "command: true\n")})
        assert [f.message for f in report.errors()] == ["bad target '.cluster.ghost.all': unknown cluster 'ghost'"]

    def test_an_action_named_document_is_checked_beside_a_document_error(self):
        doc = parse_scenario(
            "defaults: {timeout: .nan}\n"
            "spec:\n- {action: Service, name: document, depends: {success: [ghost]}, service: {command: 'true'}}\n"
        )
        assert [str(f) for f in validate(doc).errors()] == [
            "error: document: defaults.timeout: not a finite duration: nan",
            "error: document: unknown action: ghost",
        ]

    def test_a_template_input_that_does_not_resolve_is_a_finding(self):
        doc = parse_scenario("spec:\n- {action: Service, name: s, service: {templateRef: t, inputs: [{typo: 1}]}}\n")
        report = validate(doc, {"t": Template("t", {"source": None}, "command: {{source}}\n")})
        assert [str(f) for f in report.findings] == ["error: s: template t: unknown parameter 'typo'"]

    @pytest.mark.parametrize("kind", ["Service", "Call", "Chaos"])
    def test_only_the_first_inputs_map_is_compiled(self, kind, monkeypatch):
        bodies = {
            "Service": "{templateRef: t, inputs: [{d: 5s}, {}]}",
            "Call": "{callable: t, services: [s], inputs: [{d: 5s}, {}]}",
            "Chaos": "{templateRef: t, inputs: [{d: 5s}, {}]}",
        }
        body = "kind: suspend\ntargets: [s]\nduration: {{d}}\n" if kind == "Chaos" else \
            "script:\n- { at: 0s, do: running }\n- { at: {{d}}, do: success }\n"
        doc = parse_scenario(
            "spec:\n- {action: Service, name: s, service: {script: [{at: 0s, do: running}, {at: 9s, do: success}]}}\n"
            f"- {{action: {kind}, name: a, depends: {{running: [s]}}, {kind.lower()}: {bodies[kind]}}}\n"
        )
        loaded = []
        monkeypatch.setattr(dsl, "load_yaml", lambda text: loaded.append(text) or load_yaml(text))
        plan = compile_scenario(doc, {"t": Template("t", {"d": None}, body)})
        assert [str(f) for f in plan.report.findings] == ["warning: a: only the first inputs map is used"]
        assert loaded == [body.replace("{{d}}", "5s")]

    def test_warnings_do_not_flip_ok(self):
        doc = parse_scenario(
            "mystery: 1\n"
            "spec:\n- action: Call\n  name: a\n  call: { callable: t, services: [unknown-svc] }\n"
        )
        report = validate(doc, {"t": Template("t", {}, "command: true\n")})
        assert report.ok
        assert any(f.severity == "warning" for f in report.findings)


# A library of one process job and one job body that is no map, for the document cases below.
LIBRARY = "name: job\nbody: 'command: sleep 1'\n---\nname: listed\nbody: '- 1'\n"
SLEEPER = "{action: Service, name: s, service: {command: 'sleep 1'}}"


def _fault(body: str) -> str:
    return f"{SLEEPER}\n- {{action: Chaos, name: k, chaos: {{fault: {body}}}}}"


@pytest.mark.parametrize("library,entries,message", [
    # template library: each error stops the load
    ("- 1\n", None, "template document must be a mapping"),
    ("name: 'bad name'\n", None, "template: invalid name 'bad name'"),
    ("name: t\nparameters: 3\n", None, "template t: parameters must be a list or map"),
    ("name: t\nbody: [1]\n", None, "template t: body must be text"),
    ("name: t\n---\nname: t\n", None, "duplicate template name 't' in {file}"),
    # job bodies
    (LIBRARY, "{action: Service, name: s, service: {templateRef: listed}}", "error: s: job body must be a map"),
    (LIBRARY, "{action: Service, name: s, service: {script: 1}}", "error: s: script must be a list of effects"),
    (LIBRARY, "{action: Service, name: s, service: {command: x, env: [1]}}", "error: s: env must be a map"),
    (LIBRARY, "{action: Service, name: s, service: {command: x, declares: m}}",
     "error: s: declares must be a list of metric names"),
    (LIBRARY, "{action: Service, name: s, service: {env: {A: b}}}", "error: s: job body needs a command or a script"),
    # effects
    (LIBRARY, "{action: Service, name: s, service: {script: [1]}}", "error: s: script[0] must be a map"),
    (LIBRARY, "{action: Service, name: s, service: {script: [{at: 0s}]}}", "error: s: script[0] needs 'at' and 'do'"),
    (LIBRARY, "{action: Service, name: s, service: {script: [{at: 0s, do: metric, name: m}]}}",
     "error: s: script[0]: metric effect needs name and value"),
    (LIBRARY, "{action: Service, name: s, service: {script: [{at: 0s, do: send}]}}",
     "error: s: script[0]: send effect needs 'to'"),
    # faults
    (LIBRARY, _fault("{kind: suspend, targets: [s], duration: 0s}"),
     "error: k: invalid fault: fault duration must be positive"),
    (LIBRARY, _fault("{kind: partition, source: s, dst: s}"), "error: k: invalid fault: partition requires a duration"),
    (LIBRARY, _fault("{kind: partition, source: '', dst: s, duration: 1s}"),
     "error: k: invalid fault: partition requires at least one source and one destination"),
    (LIBRARY, _fault("{kind: kill}"), "error: k: invalid fault: kill fault requires targets"),
    (LIBRARY, _fault("{kind: suspend, targets: [], duration: 1s}"),
     "error: k: invalid fault: suspend fault requires at least one target"),
    (LIBRARY, _fault("{kind: suspend, targets: [s]}"), "error: k: invalid fault: suspend requires a duration"),
    (LIBRARY, _fault("{kind: kill, targets: 3}"),
     "error: k: invalid fault: targets must be a name, list, or comma-separated string"),
    (LIBRARY, "{action: Chaos, name: k, chaos: {fault: 1}}", "error: k: spec[0] (k): fault must be a map"),
    # checkpoint values
    (LIBRARY, "{action: Checkpoint, name: c, checkpoint: {values: [1]}}",
     "error: c: spec[0] (c): checkpoint values must map keys to expression strings"),
    (LIBRARY, "{action: Checkpoint, name: c, checkpoint: {values: {v: 'MAX() QUERY(m, 1m, now) IS ABOVE(1)'}}}",
     "error: c.v: checkpoint values take no condition"),
    (LIBRARY, "{action: Checkpoint, name: c, checkpoint: {values: {v: '.state.failed() > 1'}}}",
     "error: c.v: checkpoint values must be metrics reductions"),
    (LIBRARY, "{action: Checkpoint, name: c, checkpoint: {values: {v: 'MAX() QUERY(m, 1m)'}}}",
     "error: c.v: expression 'MAX() QUERY(m, 1m)': expected ',', found ')' (at position 17)"),
    # actions
    (LIBRARY, "{action: Service, name: s, service: {templateRef: job}, assertions: ['MAX() QUERY(m, 1m, now)']}",
     "error: s: assertion 'MAX() QUERY(m, 1m, now)' has no condition"),
    (LIBRARY, "{action: Service, name: s, service: {templateRef: job, inputs: [1]}}",
     "error: s: spec[0] (s): inputs[0] must be a map"),
    (LIBRARY, f"{SLEEPER}\n- {{action: Service, name: t, depends: {{running: s}}, service: {{templateRef: job}}}}",
     "error: t: spec[1] (t): depends.running must be a list of action names"),
    (LIBRARY, "{action: Call, name: c, call: {callable: job, services: s}}",
     "error: c: spec[0] (c): call services must be a list of names or macros"),
    (LIBRARY, "1", "error: document: spec[0]: action entry must be a map"),
])
def test_each_document_error_is_its_finding(library, entries, message, tmp_path):
    """A template library error stops its load; any other is the document's one finding."""
    file = tmp_path / "lib.yaml"
    file.write_text(library)
    if entries is None:
        with pytest.raises(SchemaError) as raised:
            load_templates(tmp_path)
        assert str(raised.value) == message.format(file=file)
        return
    doc = parse_scenario(f"spec:\n- {entries}\n")
    assert [str(f) for f in validate(doc, load_templates(tmp_path)).findings] == [message]


# --- round-trip property ---------------------------------------------------

_names = st.from_regex(r"[a-z][a-z0-9-]{0,6}", fullmatch=True)


@st.composite
def scenario_docs(draw):
    count = draw(st.integers(min_value=0, max_value=5))
    names = draw(st.lists(_names, min_size=count, max_size=count, unique=True))
    actions = []
    for i, name in enumerate(names):
        kind = draw(st.sampled_from(["Service", "Cluster", "Call", "Chaos", "Checkpoint"]))
        depends = DependsClause()
        if i and draw(st.booleans()):
            depends.success = draw(st.lists(st.sampled_from(names[:i]), max_size=2, unique=True))
        if i and draw(st.booleans()):
            depends.running = draw(st.lists(st.sampled_from(names[:i]), max_size=2, unique=True))
        if draw(st.booleans()):
            depends.after = float(draw(st.integers(min_value=0, max_value=600)))
        action = ActionSpec(name=name, kind=kind, depends=depends)
        if kind == "Cluster":
            action.template_ref = "tmpl"
            action.instances = draw(st.integers(min_value=1, max_value=5))
            action.tolerated_failures = draw(st.integers(min_value=0, max_value=action.instances - 1))
        elif kind == "Service":
            action.template_ref = "tmpl"
        elif kind == "Call":
            action.template_ref = "do-thing"
            action.services = draw(st.lists(_names, max_size=2))
        elif kind == "Chaos":
            action.inline = {"kind": "kill", "targets": ["x-0"]}
        elif kind == "Checkpoint":
            action.values = draw(st.dictionaries(
                st.from_regex(r"[a-z]{1,4}", fullmatch=True),
                st.just("MAX() QUERY(metric, 1m, now)"),
                max_size=2,
            ))
        if draw(st.booleans()):
            action.timeout = float(draw(st.integers(min_value=1, max_value=7200)))
        actions.append(action)
    defaults_timeout = draw(st.none() | st.integers(min_value=1, max_value=7200).map(float))
    doc = ScenarioDoc(name=draw(_names), actions=actions)
    doc.timeout = defaults_timeout
    return doc


@given(scenario_docs())
@settings(max_examples=60, deadline=None)
def test_parse_render_round_trip(doc):
    assert parse_scenario(render_scenario(doc)) == doc


# --- validation vs. brute force on small documents ----------------------------


def brute_force_accepts(doc: ScenarioDoc) -> bool:
    """Reference acceptance: set-membership for references, path enumeration
    for cycles. Only covers reference/cycle defects (documents built by
    ``_ref_docs`` below)."""
    names = [a.name for a in doc.actions]
    if len(set(names)) != len(names):
        return False
    for action in doc.actions:
        for dep in action.depends.names():
            if dep not in names:
                return False
    edges = {a.name: a.depends.names() for a in doc.actions}

    def paths_from(start):
        # Enumerate all simple paths; a repeated node reachable from itself
        # is a cycle.
        stack = [(start, [start])]
        while stack:
            node, path = stack.pop()
            for nxt in edges[node]:
                if nxt == start:
                    return True
                if nxt not in path:
                    stack.append((nxt, path + [nxt]))
        return False

    return not any(paths_from(name) for name in names)


@st.composite
def _ref_docs(draw):
    count = draw(st.integers(min_value=1, max_value=8))
    names = [f"a{i}" for i in range(count)]
    actions = []
    for name in names:
        pool = names + (["ghost"] if draw(st.booleans()) else [])
        deps = draw(st.lists(st.sampled_from(pool), max_size=3, unique=True))
        actions.append(ActionSpec(
            name=name, kind="Call", template_ref="t", services=[],
            depends=DependsClause(success=deps),
        ))
    return ScenarioDoc(name="gen", actions=actions)


@given(_ref_docs())
@settings(max_examples=150, deadline=None)
def test_validate_matches_brute_force(doc):
    templates = {"t": Template("t", {}, "command: true\n")}
    assert validate(doc, templates).ok == brute_force_accepts(doc)


# --- every schema error is a finding ---------------------------------------------

CORPUS = sorted(SCENARIOS.glob("*.yaml"))  # the valid documents; scenarios/invalid is not globbed
CORPUS_TEMPLATES = load_templates(SCENARIOS / "templates")


def _unknown_key(entry):
    entry["retries"] = 3


def _nan_timeout(entry):
    entry["timeout"] = math.nan


def _scalar_assertions(entry):
    entry["assertions"] = 5


def _unknown_body_key(entry):
    entry[entry["action"].lower()]["retries"] = 3


def _depends_list(entry):
    entry["depends"] = ["x"]


INJECTED_ERRORS = [_unknown_key, _nan_timeout, _scalar_assertions, _unknown_body_key, _depends_list]


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_k_injected_errors_are_k_findings_each_at_its_action(data):
    raw = yaml.safe_load(data.draw(st.sampled_from(CORPUS)).read_text())
    entries = raw["spec"]
    broken = data.draw(st.lists(st.sampled_from(range(len(entries))), unique=True))
    for index in broken:
        data.draw(st.sampled_from(INJECTED_ERRORS))(entries[index])
    report = validate(parse_scenario(yaml.safe_dump(raw, sort_keys=False)), CORPUS_TEMPLATES)
    assert sorted(f.location for f in report.errors()) == sorted(entries[index]["name"] for index in broken)


# Any YAML value. Integers stay small: a compile builds one node per
# Cluster instance, up to `MAX_INSTANCES` of them.
_SCALARS = st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=8)
_VALUES = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_SCALARS, inner, max_size=3), max_leaves=6,
)


def _mostly(valid):
    """A value from ``valid`` seven times in eight, any YAML value otherwise."""
    return st.sampled_from([valid] * 7 + [_VALUES]).flatmap(lambda strategy: strategy)


def _map(required=None, optional=None):
    return st.fixed_dictionaries(
        {key: _mostly(value) for key, value in (required or {}).items()},
        optional={key: _mostly(value) for key, value in (optional or {}).items()},
    )


_NAMES = st.sampled_from(["a", "b", "a-0", "document"])
_TARGETS = st.lists(st.sampled_from(["a", "b", "a-0", ".cluster.a.all", ".cluster.a.1", ".cluster.b"]), max_size=3)
_DURATIONS = st.sampled_from(["1s", "10m", 0, 5, -1])
_TEMPLATE_NAMES = st.sampled_from(sorted(CORPUS_TEMPLATES) + ["ghost"])
_INPUTS = st.lists(st.dictionaries(
    st.sampled_from(["services", "source", "dst", "duration", "direction", "x"]),
    st.sampled_from(["a-0", "a-0, b", "10m", "to"]),
), max_size=2)
_EXPRESSIONS = st.text(max_size=12) | st.sampled_from([
    ".state.failed() > 0", "a-0.state.running() == 1", "MAX() QUERY(m, 1m, now) IS ABOVE(1)",
    "MAX() QUERY(m, 1m, now) IS ABOVE(CHECKPOINT(a.k))", "SUM() QUERY(m, 1m, now)",
])
_SCRIPTS = st.lists(_map(
    {"at": _DURATIONS, "do": st.sampled_from(EFFECT_OPS)},
    {"name": st.just("m"), "value": _SCALARS, "to": _NAMES},
), max_size=3)
_BODIES = {
    "Service": _map(optional={"templateRef": _TEMPLATE_NAMES, "inputs": _INPUTS, "script": _SCRIPTS}),
    "Cluster": _map(
        {"templateRef": _TEMPLATE_NAMES, "instances": st.integers(0, 4)},
        {"toleratedFailures": st.integers(0, 4), "inputs": _INPUTS},
    ),
    "Call": _map({"callable": _TEMPLATE_NAMES, "services": _TARGETS}, {"inputs": _INPUTS}),
    "Chaos": _map(optional={"templateRef": _TEMPLATE_NAMES, "inputs": _INPUTS, "fault": _map(
        {"kind": st.sampled_from(FAULT_KINDS)},
        {"targets": _TARGETS, "source": _TARGETS, "dst": _TARGETS, "duration": _DURATIONS},
    )}),
    "Checkpoint": _map(optional={"values": st.dictionaries(st.sampled_from(["k", "j"]), _EXPRESSIONS, max_size=2)}),
}
_ENTRIES = st.sampled_from(ACTION_KINDS).flatmap(lambda kind: _map(
    {"action": st.just(kind), "name": _NAMES, kind.lower(): _BODIES[kind]},
    {
        "depends": _map(optional={
            "running": st.lists(_NAMES, max_size=2), "success": st.lists(_NAMES, max_size=2), "after": _DURATIONS,
        }),
        "timeout": _DURATIONS,
        "assertions": st.lists(_EXPRESSIONS, max_size=2),
    },
))
# Near-valid documents, a part of them any YAML value anywhere.
_DOCUMENTS = _VALUES | _map(
    {"spec": st.lists(_ENTRIES, max_size=4)},
    {"name": _NAMES, "defaults": _map(optional={"timeout": _DURATIONS}), "owner": _VALUES},
)


@given(_DOCUMENTS)
@settings(max_examples=200, deadline=None)
def test_only_a_syntax_error_leaves_parse_and_compile(value):
    try:
        doc = parse_scenario(yaml.safe_dump(value, sort_keys=False))
    except ScenarioSyntaxError:
        return
    report = compile_scenario(doc, CORPUS_TEMPLATES).report
    assert report.findings[:len(doc.findings)] == doc.findings
    assert not report.ok or not any(f.severity == "error" for f in doc.findings)


# --- a list or map in a scalar field of a job or fault body -------------------------

_JOB = {
    "command": "true",
    "script": [
        {"at": "0s", "do": "running"},
        {"at": "1s", "do": "metric", "name": "m", "value": 1},
        {"at": "2s", "do": "send", "to": "svc"},
        {"at": "3s", "do": "success"},
    ],
    "env": {"A": "1"},
    "declares": ["m"],
    "metrics": "none",
    "expectedRuntime": "5s",
    "kind": "job",
}
_KILL = {"kind": "kill", "targets": ["svc"], "duration": "1s"}
_PARTITION = {"kind": "partition", "source": ["svc"], "dst": ["svc"], "direction": "both", "duration": "1s"}
# (body, path to a scalar in it)
SCALAR_FIELDS = [
    *[(_JOB, path) for path in [
        ("command",), ("env", "A"), ("declares", 0), ("metrics",), ("expectedRuntime",), ("kind",),
        ("script", 0, "at"), ("script", 0, "do"), ("script", 1, "name"), ("script", 1, "value"), ("script", 2, "to"),
    ]],
    *[(_KILL, path) for path in [("kind",), ("targets", 0), ("duration",)]],
    *[(_PARTITION, path) for path in [("source", 0), ("dst", 0), ("direction",)]],
]
_NON_SCALARS = st.lists(st.integers(0, 9) | st.sampled_from(["a", "b"]), max_size=3) | st.dictionaries(
    st.sampled_from(["a", "b"]), st.integers(0, 9), max_size=2,
)
_MARK = "__value__"


def _broken(body, path, value):
    """A deep copy of ``body`` with ``value`` at ``path``."""
    body = copy.deepcopy(body)
    container = body
    for key in path[:-1]:
        container = container[key]
    container[path[-1]] = value
    return body


def _broken_action(name, field, value, templated, job_kind, templates):
    """An action whose job or fault body holds ``value`` at the field, inline or through a template input."""
    body, path = field
    kind = "Chaos" if body is not _JOB else job_kind if templated else "Service"
    if not templated:
        broken = _broken(body, path, value)
        return {"action": kind, "name": name, kind.lower(): {"fault": broken} if kind == "Chaos" else broken}
    text = yaml.safe_dump(_broken(body, path, _MARK), sort_keys=False).replace(_MARK, "{{value}}")
    templates[name] = Template(name, {"value": None}, text)
    inputs = [{"value": yaml.safe_dump(value, default_flow_style=True).strip()}]
    entry = {"templateRef": name, "inputs": inputs}
    if kind == "Cluster":
        entry["instances"] = 2
    elif kind == "Call":
        entry = {"callable": name, "services": ["svc"], "inputs": inputs}
    return {"action": kind, "name": name, kind.lower(): entry}


class _NoRun(SimExecutor):
    def start_job(self, spec):
        raise AssertionError(f"job {spec.name} started")


@pytest.mark.parametrize("field", SCALAR_FIELDS, ids=lambda f: ".".join(map(str, f[1])) + f"-{f[0]['kind']}")
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_a_list_or_map_in_a_scalar_field_is_one_finding_and_no_run(field, data):
    fields = [field] + data.draw(st.lists(st.sampled_from(SCALAR_FIELDS), max_size=2))
    templates: dict = {}
    spec = [{"action": "Service", "name": "svc", "service": {"command": "true"}}]
    for index, broken in enumerate(fields):
        spec.append(_broken_action(
            f"b{index}", broken, data.draw(_NON_SCALARS), data.draw(st.booleans()),
            data.draw(st.sampled_from(["Service", "Cluster", "Call"])), templates,
        ))
    doc = parse_scenario(yaml.safe_dump({"spec": spec}, sort_keys=False))
    report = validate(doc, templates)
    assert sorted(f.location for f in report.findings) == [f"b{index}" for index in range(len(fields))]
    assert not report.ok
    with pytest.raises(InvalidScenario):
        run_scenario(doc, templates, executor=_NoRun())


@pytest.mark.parametrize("sizes,ok", [((3, 2), True), ((3, 3), False)])
def test_the_instances_of_all_clusters_together_are_capped(sizes, ok, monkeypatch):
    monkeypatch.setattr(dsl, "MAX_INSTANCES", 5)
    text = "spec:\n" + "".join(
        f"- {{action: Cluster, name: c{i}, cluster: {{templateRef: t, instances: {n}}}}}\n" for i, n in enumerate(sizes)
    )
    plan = compile_scenario(parse_scenario(text), {"t": Template("t", {}, "command: 'true'\n")})
    assert plan.report.ok is ok
    if not ok:
        assert [str(f) for f in plan.report.findings] == ["error: document: clusters have 6 instances in all, more than 5"]
        assert list(plan.nodes) == [plan.tree.name]


@pytest.mark.parametrize("body", ["", "kill\n", "[kill]\n"])
def test_a_fault_template_that_is_no_map_is_a_finding(body):
    doc = parse_scenario(
        "spec:\n- {action: Service, name: s, service: {command: 'true'}}\n"
        "- {action: Chaos, name: k, chaos: {templateRef: f}}\n"
    )
    report = validate(doc, {"f": Template("f", {}, body)})
    assert [str(f) for f in report.findings] == ["error: k: invalid fault: fault body must be a map"]
