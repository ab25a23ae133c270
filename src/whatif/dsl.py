"""Scenario documents: parsing, templating, addressing macros, validation.

A scenario is a YAML document whose top-level ``spec:`` key lists actions
of five kinds (Service, Cluster, Chaos, Call, Checkpoint) joined by
logical dependencies::

    name: demo
    spec:
    - action: Cluster
      name: masters
      cluster: { templateRef: db.master, instances: 4 }
    - action: Call
      name: boot
      depends: { running: [ masters ] }
      call: { callable: boot, services: [ .cluster.masters.all ] }

Each entry parses into an ``ActionSpec``: a template reference
(``templateRef``, or a Call's ``callable``) or an inline body, plus its
kind's own keys. Templates live in a directory of YAML files and are
instantiated by replacing ``{{placeholder}}`` markers in a single literal
pass; the instance text is what the template means, and each compile
parses it with ``load_yaml``. The addressing macro
``.cluster.<name>.<all|index>`` expands to instance names like
``masters-0``. ``compile_scenario`` checks a document and compiles it into
a ``Plan``, which holds no run state: ``validate`` returns its findings,
every static check that keeps a run from blocking or dying on a malformed
document, and the engine runs the rest. The document keeps its plan, so one
loaded document is compiled once for ``validate`` and all its runs; it is
read only from then on.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import Optional

import yaml

from .durations import parse_duration
from .errors import ExprSyntaxError, Finding, ScenarioSyntaxError, SchemaError, quote
from .executors.base import FaultSpec, JobSpec, SimEffect
from .expressions import MetricsExprAst, check_scope, parse_expression
from .lifecycle import Phase, ResourceNode
from .values import Value

ACTION_KINDS = ("Service", "Cluster", "Chaos", "Call", "Checkpoint")

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*")
_TEMPLATE_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.-]*")
_PLACEHOLDER_RE = re.compile(r"\{\{([A-Za-z_][A-Za-z0-9_.]*)\}\}")
_MACRO_RE = re.compile(r"\.cluster\.([A-Za-z_][A-Za-z0-9_-]*)\.(all|\d+)")

MAX_INSTANCES = 100_000  # of all clusters together: each instance is a node of the run's tree
ENGINE_DEFAULT_TIMEOUT = 3600.0  # seconds: an action's timeout when neither it nor its document sets one

# PyYAML's safe loader on libyaml when PyYAML was built with it, about 8x
# faster than the pure-Python one, which it falls back to otherwise. Both
# construct the same values; only the wording of syntax errors differs.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_yaml(text: str, all_documents: bool = False):
    """Parse YAML safely: the document, or with ``all_documents`` a list of every document.

    Every error is a ``yaml.YAMLError``, also a scalar that the YAML 1.1
    resolver types but that does not construct (the date ``2001-13-45``).
    """
    try:
        if all_documents:
            return list(yaml.load_all(text, Loader=_YAML_LOADER))
        return yaml.load(text, Loader=_YAML_LOADER)
    except ValueError as exc:
        raise yaml.constructor.ConstructorError(None, None, f"cannot construct a value: {exc}") from exc


class DependsClause(Value):
    __slots__ = ("running", "success", "after")

    def __init__(
        self,
        running: Optional[list[str]] = None,
        success: Optional[list[str]] = None,
        after: Optional[float] = None,
    ):
        self.running = [] if running is None else running
        self.success = [] if success is None else success
        self.after = after

    def names(self) -> list[str]:
        return list(self.running) + list(self.success)


class ActionSpec(Value):
    """One ``spec`` entry: a template reference or an inline body, and its kind's own keys.

    ``template_ref`` is a Call's ``callable`` or another kind's ``templateRef``,
    instantiated with ``inputs``; ``inline`` is the raw mapping of a Service's
    inline job body or of a Chaos action's ``fault``.
    """

    __slots__ = (
        "name", "kind", "depends", "template_ref", "inputs", "instances", "tolerated_failures",
        "services", "values", "inline", "assertions", "timeout",
    )

    def __init__(
        self,
        name: str,
        kind: str,
        depends: Optional[DependsClause] = None,
        template_ref: Optional[str] = None,
        inputs: Optional[list[dict]] = None,
        instances: Optional[int] = None,
        tolerated_failures: int = 0,
        services: Optional[list[str]] = None,
        values: Optional[dict] = None,
        inline: Optional[dict] = None,
        assertions: Optional[list[str]] = None,
        timeout: Optional[float] = None,
    ):
        self.name = name
        self.kind = kind
        self.depends = DependsClause() if depends is None else depends
        self.template_ref = template_ref
        self.inputs = [] if inputs is None else inputs
        self.instances = instances
        self.tolerated_failures = tolerated_failures
        self.services = [] if services is None else services
        self.values = {} if values is None else values
        self.inline = inline
        self.assertions = [] if assertions is None else assertions
        self.timeout = timeout


class ScenarioDoc(Value):
    """A parsed document; ``findings`` are what its parse found, which equality ignores.

    ``_plan`` holds its last compile (see ``compile_scenario``), so a
    document is read only once compiled: to change one, build a new one.
    """

    __slots__ = ("name", "actions", "timeout", "findings", "_reported", "_plan")
    _uncompared = ("findings", "_reported", "_plan")

    def __init__(
        self,
        name: str = "scenario",
        actions: Optional[list[ActionSpec]] = None,
        timeout: Optional[float] = None,  # `defaults.timeout`
        findings: Optional[list[Finding]] = None,
    ):
        self.name = name
        self.actions = [] if actions is None else actions
        self.timeout = timeout
        self.findings = [] if findings is None else findings
        self._reported: set[int] = set()  # positions in `actions` of the actions `findings` reports
        self._plan: Optional[tuple] = None  # (key, Plan) of the last compile; see compile_scenario


class Template(Value):
    """A reusable body with ``{{placeholder}}`` markers.

    ``parameters`` maps each declared placeholder to its default value, or
    None when the caller must supply it.
    """

    __slots__ = ("name", "parameters", "body")

    def __init__(self, name: str, parameters: Optional[dict] = None, body: str = ""):
        self.name = name
        self.parameters = {} if parameters is None else parameters
        self.body = body


class ValidationReport(Value):
    __slots__ = ("findings",)

    def __init__(self, findings: Optional[list[Finding]] = None):
        self.findings = [] if findings is None else findings

    @property
    def ok(self) -> bool:
        return not any(f.severity == "error" for f in self.findings)

    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    def __str__(self) -> str:
        if not self.findings:
            return "ok"
        return "\n".join(str(f) for f in self.findings)


# --- parsing -----------------------------------------------------------------

def _require_ident(value, where: str) -> str:
    if not isinstance(value, str) or not _IDENT_RE.fullmatch(value):
        raise SchemaError(f"{where}: invalid identifier {quote(value)}")
    return value


def _coerce_str(value, where: str) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return str(value)
    raise SchemaError(f"{where}: expected a scalar, got {quote(value)}")


def _parse_inputs(raw, where: str) -> list[dict]:
    if raw is None:
        return []
    if not isinstance(raw, list):
        raise SchemaError(f"{where}: inputs must be a list of maps")
    out = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}: inputs[{i}] must be a map")
        out.append(_string_map(entry, f"{where}.inputs[{i}]"))
    return out


def _string_map(raw: dict, where: str) -> dict[str, str]:
    """``raw`` with each key and value a string, as ``_coerce_str`` makes them."""
    out = {}
    for raw_key, value in raw.items():
        name = _coerce_str(raw_key, where)
        out[name] = _coerce_str(value, f"{where}.{name}")
    return out


def _parse_duration_field(raw, where: str) -> float:
    try:
        return parse_duration(raw)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _parse_depends(raw, where: str) -> DependsClause:
    if raw is None:
        return DependsClause()
    if not isinstance(raw, dict):
        raise SchemaError(f"{where}: depends must be a map")
    _reject_extra(raw, {"running", "success", "after"}, f"{where}: unknown depends key")
    clause = DependsClause()
    for key, value in raw.items():
        if key == "after":
            clause.after = _parse_duration_field(value, f"{where}.depends.after")
        elif not isinstance(value, list) or not all(isinstance(n, str) for n in value):
            raise SchemaError(f"{where}: depends.{key} must be a list of action names")
        else:
            setattr(clause, key, list(value))
    return clause


# The keys each kind's body may hold, and those it must hold. A Service's other
# keys are its inline job body, a Chaos action's `fault` its inline fault body.
_BODY_KEYS = {
    "Cluster": ({"templateRef", "instances", "toleratedFailures", "inputs"}, ("templateRef", "instances")),
    "Service": ({"templateRef", "inputs"}, ()),
    "Call": ({"callable", "services", "inputs"}, ("callable", "services")),
    "Chaos": ({"templateRef", "fault", "inputs"}, ()),
    "Checkpoint": ({"values"}, ()),
}


def _parse_action(doc: ScenarioDoc, position: int, raw) -> None:
    """Parse one ``spec`` entry; its action joins ``doc.actions`` once its kind and name parse.

    The body parses first, as other actions' macros expand to a Cluster's
    instances: its required keys, the kind's own keys, ``inputs``, the
    template reference or inline body, then any key the kind does not take.
    """
    if not isinstance(raw, dict):
        raise SchemaError(f"spec[{position}]: action entry must be a map")
    kind, name = raw.get("action"), raw.get("name")
    where = f"spec[{position}]" + (f" ({name})" if isinstance(name, str) else "")
    if kind not in ACTION_KINDS:
        raise SchemaError(f"{where}: unknown action kind {quote(kind)}")
    _require_ident(name, f"{where}.name")

    action = ActionSpec(name=name, kind=kind)
    doc.actions.append(action)
    body_key = kind.lower()
    body = {} if raw.get(body_key) is None else raw[body_key]
    if not isinstance(body, dict):
        raise SchemaError(f"{where}: {body_key} body must be a map")
    allowed, required = _BODY_KEYS[kind]
    for key in required:
        if key not in body:
            raise SchemaError(f"{where}: {body_key} requires {key}")
    if kind == "Cluster":
        action.instances = _parse_count(body["instances"], 1, f"{where}: instances")
        action.tolerated_failures = _parse_count(body.get("toleratedFailures", 0), 0, f"{where}: toleratedFailures")
    elif kind == "Call":
        if not isinstance(body["services"], list) or not all(isinstance(s, str) for s in body["services"]):
            raise SchemaError(f"{where}: call services must be a list of names or macros")
        action.services = list(body["services"])
    elif kind == "Checkpoint":
        values = body.get("values", {})
        if not isinstance(values, dict) or not all(isinstance(v, str) for v in values.values()):
            raise SchemaError(f"{where}: checkpoint values must map keys to expression strings")
        action.values = _string_map(values, f"{where}.values")
    if "inputs" in allowed:
        action.inputs = _parse_inputs(body.get("inputs"), where)

    ref_key = "callable" if kind == "Call" else "templateRef"
    if kind == "Service":
        action.inline = {k: v for k, v in body.items() if k not in allowed} or None
        if ref_key in body and action.inline:
            raise SchemaError(f"{where}: service takes templateRef or an inline body, not both")
        if ref_key not in body and not action.inline:
            raise SchemaError(f"{where}: service requires templateRef or an inline body")
    elif kind == "Chaos":
        if (ref_key in body) == ("fault" in body):
            raise SchemaError(f"{where}: chaos requires exactly one of templateRef or fault")
        if not isinstance(body.get("fault", {}), dict):
            raise SchemaError(f"{where}: fault must be a map")
        action.inline = body.get("fault")
    if ref_key in body and ref_key in allowed:
        action.template_ref = _coerce_str(body[ref_key], f"{where}.{ref_key}")
    if kind != "Service":
        _reject_extra(body, allowed, f"{where}: unknown body key")

    action.depends = _parse_depends(raw.get("depends"), where)
    if "timeout" in raw:
        action.timeout = _parse_duration_field(raw["timeout"], f"{where}.timeout")
    if "assertions" in raw:
        if not isinstance(raw["assertions"], list) or not all(isinstance(a, str) for a in raw["assertions"]):
            raise SchemaError(f"{where}: assertions must be a list of expression strings")
        action.assertions = list(raw["assertions"])
    _reject_extra(raw, {"action", "name", "depends", "timeout", "assertions", body_key}, f"{where}: unknown key")


def _parse_count(value, least: int, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise SchemaError(f"{where} must be an integer >= {least}")
    return value


def _reject_extra(body: dict, allowed: set, message: str) -> None:
    """Raise ``<message> '<key>'`` for the first key of ``body`` not in ``allowed``."""
    for key in body:
        if key not in allowed:
            raise SchemaError(f"{message} {quote(key)}")


def _spec_entries(raw) -> list:
    if not isinstance(raw, dict):
        raise SchemaError("scenario document must be a mapping")
    if "spec" not in raw:
        raise SchemaError("missing mandatory top-level key 'spec'")
    if raw["spec"] is None:
        return []
    if not isinstance(raw["spec"], list):
        raise SchemaError("'spec' must be a list of actions")
    return raw["spec"]


def _parse_top_level(doc: ScenarioDoc, key, value) -> None:
    if key == "name":
        doc.name = _require_ident(value, "name")
    elif key == "defaults":
        if not isinstance(value, dict):
            raise SchemaError("'defaults' must be a map")
        if "timeout" in value:
            doc.timeout = _parse_duration_field(value["timeout"], "defaults.timeout")
        _reject_extra(value, {"timeout"}, "defaults: unknown key")
    elif key != "spec":
        doc.findings.append(Finding("warning", "document", f"unknown top-level key {quote(key)}"))


def parse_scenario(text: str) -> ScenarioDoc:
    """Parse a scenario document; every schema error is a finding in ``doc.findings``.

    Only text that is not YAML raises (``ScenarioSyntaxError``). An error
    stops only the top-level key or action entry it is in. An entry whose
    kind and name parse is reported at its name, at its first error, and
    stays in ``doc.actions`` with what parsed before it, so that references
    to it resolve; ``compile_scenario`` runs none of its checks. Any other
    error, and an unknown top-level key (a warning), is at ``document``.
    """
    try:
        raw = load_yaml(text)
    except yaml.YAMLError as exc:
        raise ScenarioSyntaxError(str(exc)) from exc
    doc = ScenarioDoc()
    raw = {} if raw is None else raw
    try:
        entries = _spec_entries(raw)
    except SchemaError as exc:
        doc.findings.append(Finding("error", "document", str(exc)))
        return doc
    parts = [(_parse_top_level, key, value) for key, value in raw.items()]
    parts += [(_parse_action, position, entry) for position, entry in enumerate(entries)]
    for parse, key, value in parts:
        parsed = len(doc.actions)
        try:
            parse(doc, key, value)
        except SchemaError as exc:
            location = "document"
            if len(doc.actions) > parsed:
                location = doc.actions[-1].name
                doc._reported.add(parsed)
            doc.findings.append(Finding("error", location, str(exc)))
    return doc


# --- templates -----------------------------------------------------------------

def parse_template(raw) -> Template:
    if not isinstance(raw, dict):
        raise SchemaError("template document must be a mapping")
    name = raw.get("name")
    if not isinstance(name, str) or not _TEMPLATE_NAME_RE.fullmatch(name):
        raise SchemaError(f"template: invalid name {quote(name)}")
    params_raw = raw.get("parameters")
    parameters: dict = {}
    if isinstance(params_raw, list):
        for entry in params_raw:
            parameters[_coerce_str(entry, f"template {name}: parameter")] = None
    elif isinstance(params_raw, dict):
        for given, default in params_raw.items():
            key = _coerce_str(given, f"template {name}: parameter")
            parameters[key] = None if default is None else _coerce_str(default, f"template {name}: default for {key}")
    elif params_raw is not None:
        raise SchemaError(f"template {name}: parameters must be a list or map")
    body = raw.get("body", "")
    if not isinstance(body, str):
        raise SchemaError(f"template {name}: body must be text")
    for match in _PLACEHOLDER_RE.finditer(body):
        if match.group(1) not in parameters:
            raise SchemaError(f"template {name}: undeclared placeholder {quote(match.group(1))}")
    return Template(name=name, parameters=parameters, body=body)


def load_templates(directory) -> dict[str, Template]:
    """Load every template from the YAML files of a directory."""
    path = Path(directory)
    if not path.is_dir():
        raise ScenarioSyntaxError(f"template directory not found: {directory}")
    library: dict[str, Template] = {}
    for file in sorted(list(path.glob("*.yaml")) + list(path.glob("*.yml"))):
        try:
            docs = load_yaml(file.read_text(), all_documents=True)
        except yaml.YAMLError as exc:
            raise ScenarioSyntaxError(f"{file}: {exc}") from exc
        for raw in docs:
            if raw is None:
                continue
            template = parse_template(raw)
            if template.name in library:
                raise SchemaError(f"duplicate template name {quote(template.name)} in {file}")
            library[template.name] = template
    return library


def instantiate_template(template: Template, inputs: dict) -> str:
    """Replace every ``{{placeholder}}`` with its input in one literal pass.

    This is what a template means; the result carries no remaining markers.
    A parameter's value is its input, else its default: inputs must be
    declared parameters, and parameters without defaults must be supplied.
    """
    for key in inputs:
        if key not in template.parameters:
            raise SchemaError(f"unknown parameter {quote(key)}")
    resolved = {}
    for key, default in template.parameters.items():
        if key in inputs:
            resolved[key] = inputs[key]
        elif default is not None:
            resolved[key] = default
        else:
            raise SchemaError(f"missing parameter {quote(key)}")
    return _PLACEHOLDER_RE.sub(lambda m: resolved[m.group(1)], template.body)


# --- addressing macros ------------------------------------------------------------

def cluster_child_names(cluster: str, instances: int) -> list[str]:
    return [f"{cluster}-{i}" for i in range(instances)]


def expand_macro(macro: str, clusters: dict) -> list[str]:
    """Expand ``.cluster.<name>.<all|index>`` by a cluster index (name -> instances); plain names pass through."""
    if not macro.startswith("."):
        return [macro]
    match = _MACRO_RE.fullmatch(macro)
    if match is None:
        raise SchemaError(f"malformed addressing macro {quote(macro)}")
    cluster_name, selector = match.group(1), match.group(2)
    instances = clusters.get(cluster_name)
    if instances is None:
        raise SchemaError(f"unknown cluster {quote(cluster_name)}")
    if selector == "all":
        return cluster_child_names(cluster_name, instances)
    index = int(selector)
    if index >= instances:
        raise SchemaError(f"{macro}: cluster has {instances} instances")
    return [f"{cluster_name}-{index}"]


def expand_targets(names: list[str], clusters: dict) -> list[str]:
    out: list[str] = []
    for name in names:
        out.extend(expand_macro(name, clusters))
    return out


# --- job and fault bodies --------------------------------------------------------

EFFECT_OPS = ("running", "success", "failed", "crash", "metric", "send", "block")
FAULT_KINDS = ("kill", "suspend", "partition")
_JOB_KEYS = {"command", "script", "env", "metrics", "expectedRuntime", "declares", "kind"}
_FAULT_KEYS = {"kind", "targets", "source", "dst", "direction", "duration"}


def _metric_name(raw, where: str) -> str:
    """A metric name: one word, the only form a ``metrics.txt`` line keeps."""
    name = _coerce_str(raw, where)
    if name.split() != [name]:
        raise SchemaError(f"{where}: a metric name is one word with no whitespace, got {quote(name)}")
    return name


def _parse_effect(raw, where: str) -> SimEffect:
    if not isinstance(raw, dict):
        raise SchemaError(f"{where} must be a map")
    if "at" not in raw or "do" not in raw:
        raise SchemaError(f"{where} needs 'at' and 'do'")
    offset = _parse_duration_field(raw["at"], f"{where}.at")
    op = raw["do"]
    if op not in EFFECT_OPS:
        raise SchemaError(f"{where}: unknown effect {quote(op)}")
    metric = value = target = None
    if op == "metric":
        if "name" not in raw or "value" not in raw:
            raise SchemaError(f"{where}: metric effect needs name and value")
        metric = _metric_name(raw["name"], f"{where}.name")
        try:
            value = float(raw["value"])
        except (TypeError, ValueError, OverflowError):
            value = math.nan
        if math.isnan(value):
            raise SchemaError(f"{where}.value: expected a number, got {quote(raw['value'])}")
    elif op == "send":
        if "to" not in raw:
            raise SchemaError(f"{where}: send effect needs 'to'")
        target = _coerce_str(raw["to"], f"{where}.to")
    return SimEffect(offset, op, metric=metric, value=value, target=target)


def parse_job_body(body) -> JobSpec:
    """Build a JobSpec from a resolved template body or inline action body.

    A simulated job runs a script of timed effects, a process job a command
    line. ``declares`` names metrics up front, so that a query can tell a quiet
    metric from a mis-wired one; the spec holds them, then the script's metric
    names, each once, for the engine to declare when the job starts::

        command: "python3 worker.py"            # or a script:
        script:
          - { at: 0s,  do: running }
          - { at: 2s,  do: metric, name: goroutines, value: 1200 }
          - { at: 3s,  do: send, to: masters-0 }
          - { at: 4s,  do: block }              # wait for one message
          - { at: 10s, do: success }            # or failed / crash
        env: { LEVEL: debug }
        metrics: stdout-lines                   # or none
        declares: [ goroutines ]
        expectedRuntime: 10s                    # checked, then ignored
        kind: job                               # a label, ignored
    """
    if not isinstance(body, dict):
        raise SchemaError("job body must be a map")
    _reject_extra(body, _JOB_KEYS, "unknown job body key")
    spec = JobSpec()
    if "command" in body:
        spec.command = _coerce_str(body["command"], "command")
    if "script" in body:
        if not isinstance(body["script"], list):
            raise SchemaError("script must be a list of effects")
        spec.script = [_parse_effect(e, f"script[{i}]") for i, e in enumerate(body["script"])]
        offsets = [e.offset for e in spec.script]
        if offsets != sorted(offsets):
            raise SchemaError("script offsets must be non-decreasing")
    if "env" in body:
        if not isinstance(body["env"], dict):
            raise SchemaError("env must be a map")
        spec.env = _string_map(body["env"], "env")
    if "metrics" in body:
        if body["metrics"] not in ("stdout-lines", "none"):
            raise SchemaError(f"metrics must be 'stdout-lines' or 'none', got {quote(body['metrics'])}")
        spec.metrics_source = body["metrics"]
    if "expectedRuntime" in body:
        _parse_duration_field(body["expectedRuntime"], "expectedRuntime")
    if "declares" in body:
        if not isinstance(body["declares"], list):
            raise SchemaError("declares must be a list of metric names")
        spec.declares = [_metric_name(v, f"declares[{i}]") for i, v in enumerate(body["declares"])]
    spec.declares = list(dict.fromkeys(spec.declares + [e.metric for e in spec.script if e.op == "metric"]))
    if "kind" in body:
        _coerce_str(body["kind"], "kind")
    if spec.command is None and not spec.script:
        raise SchemaError("job body needs a command or a script")
    return spec


def _target_list(raw, where: str, clusters: dict) -> list[str]:
    if isinstance(raw, str):
        names = [part.strip() for part in raw.split(",") if part.strip()]
    elif isinstance(raw, list):
        names = [_coerce_str(part, f"{where}[{i}]") for i, part in enumerate(raw)]
    else:
        raise SchemaError(f"{where} must be a name, list, or comma-separated string")
    return expand_targets(names, clusters)


def parse_fault_body(body, clusters: dict) -> FaultSpec:
    """Build a FaultSpec, expanding addressing macros by a cluster index (name -> instances)::

        kind: kill | suspend | partition
        targets: [ name-or-macro, ... ]         # kill / suspend
        source: masters-0                       # partition
        dst: "masters-1, masters-2"             # partition; list or comma string
        direction: to | from | both             # partition; both by default
        duration: 10m                           # required except for kill
    """
    if not isinstance(body, dict):
        raise SchemaError("fault body must be a map")
    kind = body.get("kind")
    if kind not in FAULT_KINDS:
        raise SchemaError(f"unknown fault kind {quote(kind)}")
    spec = FaultSpec(kind=kind)
    if "duration" in body:
        spec.duration = _parse_duration_field(body["duration"], "fault duration")
        if spec.duration <= 0:
            raise SchemaError("fault duration must be positive")
    if kind == "partition":
        if "source" not in body or "dst" not in body:
            raise SchemaError("partition requires source and dst")
        spec.targets = _target_list(body["source"], "source", clusters)
        spec.dst = _target_list(body["dst"], "dst", clusters)
        spec.direction = body.get("direction", "both")
        if spec.direction not in ("to", "from", "both"):
            raise SchemaError(f"unknown partition direction {quote(spec.direction)}")
        if not spec.targets or not spec.dst:
            raise SchemaError("partition requires at least one source and one destination")
        if spec.duration is None:
            raise SchemaError("partition requires a duration")
    else:
        if "targets" not in body:
            raise SchemaError(f"{kind} fault requires targets")
        spec.targets = _target_list(body["targets"], "targets", clusters)
        if not spec.targets:
            raise SchemaError(f"{kind} fault requires at least one target")
        if kind == "suspend" and spec.duration is None:
            raise SchemaError("suspend requires a duration")
    _reject_extra(body, _FAULT_KEYS, "unknown fault key")
    return spec


# --- compile and validate ------------------------------------------------------------

class Plan:
    """A document compiled once: what ``validate`` reports, and what a run looks up.

    Every name resolves through ``nodes``, the one index of the ownership
    tree (scenario -> actions -> cluster instances); ``clusters`` maps each
    cluster to its instance count. Keyed by action name, in document order:
    ``asserts`` holds an action's parsed (text, ast) assertions,
    ``checkpoint_exprs`` a Checkpoint's (key, ast) values, ``jobs`` a
    Service, Cluster or Call's JobSpec per inputs map (one for an inline
    body; equal instance texts share one), ``faults`` a Chaos action's
    resolved FaultSpec, ``timeouts`` every action's effective timeout.
    ``dependents`` maps (name, phase) to the indexes, in document order, of
    the actions whose ``depends`` clause can turn true when that node enters
    that phase: Running for a ``running:`` part, Success for either part. No
    other move can satisfy a clause. All of it is complete only when
    ``report.ok``. A plan holds no run state: its tree is the template each
    run copies its own nodes from, and every run shares the rest, read only.
    """

    __slots__ = (
        "report", "tree", "nodes", "clusters", "asserts", "checkpoint_exprs",
        "jobs", "faults", "timeouts", "dependents",
    )

    def __init__(self, tree: ResourceNode):
        self.report = ValidationReport()
        self.tree = tree
        self.nodes: dict[str, ResourceNode] = {tree.name: tree}
        self.clusters: dict[str, int] = {}
        self.asserts: dict[str, list] = {}
        self.checkpoint_exprs: dict[str, list] = {}
        self.jobs: dict[str, list] = {}
        self.faults: dict[str, FaultSpec] = {}
        self.timeouts: dict[str, float] = {}
        self.dependents: dict[tuple[str, Phase], list[int]] = {}

    def is_service(self, name: str) -> bool:
        node = self.nodes.get(name)
        return node is not None and node.kind == "service"

    def _add(self, node: ResourceNode, owner: ResourceNode) -> ResourceNode:
        """Attach ``node`` under ``owner`` and index it, reporting a name already taken."""
        previous = self.nodes.get(node.name)
        self.nodes[node.name] = owner.add_child(node)
        if previous is None:
            return node
        if previous is self.tree:
            user = "an action" if owner is self.tree else f"an instance of cluster {owner.name}"
            message = f"name used by the document and by {user}"
        elif previous.owner is self.tree and owner is self.tree:
            message = "duplicate action name"
        else:
            cluster = owner.name if owner is not self.tree else previous.owner.name
            message = f"name used by an action and by an instance of cluster {cluster}"
        self.report.findings.append(Finding("error", node.name, message))
        return node


def _find_cycle(edges: dict) -> Optional[list[str]]:
    """Return one dependency cycle as a name path, or None.

    A depth-first search in name and edge order, kept on explicit stacks so
    that a chain of any length fits.
    """
    done: set = set()
    for start in edges:
        if start in done:
            continue
        path, on_path, pending = [start], {start}, [iter(edges[start])]
        while pending:
            nxt = next(pending[-1], None)
            if nxt is None:
                on_path.discard(path[-1])
                done.add(path.pop())
                pending.pop()
            elif nxt in on_path:
                return path[path.index(nxt):] + [nxt]
            elif nxt not in done:
                path.append(nxt)
                on_path.add(nxt)
                pending.append(iter(edges.get(nxt, ())))
    return None


def compile_scenario(doc: ScenarioDoc, templates: Optional[dict] = None) -> Plan:
    """Check a document and compile it for a run, in one pass.

    The plan's report holds every static check that keeps a run
    well-formed: dependency cycles, dangling references (depends,
    templateRef, macros, chaos targets, checkpoints), names used twice, job
    and fault bodies that do not parse, expression errors with scope
    violations and cluster tolerance bounds. It starts with the parse's
    findings, and an action reported there gets none of these checks. A
    document whose clusters have more than ``MAX_INSTANCES`` instances in
    all gets that finding and no other check, and no instance is built.

    The document keeps the plan with a copy of each template's name,
    parameters and body: a later compile with the same copies returns it,
    and a template changed since, even in place, compiles again. A compiled
    document is read only; to change one, build a new one.
    """
    templates = templates or {}
    key = {k: (t.name, dict(t.parameters), t.body) for k, t in templates.items()}
    if doc._plan is None or doc._plan[0] != key:
        doc._plan = (key, _compile(doc, templates))
    return doc._plan[1]


def _compile(doc: ScenarioDoc, templates: dict) -> Plan:
    plan = Plan(ResourceNode(doc.name, kind="scenario"))
    findings = plan.report.findings
    findings.extend(doc.findings)
    instances = sum(action.instances or 0 for action in doc.actions)
    if instances > MAX_INSTANCES:
        findings.append(Finding(
            "error", "document", f"clusters have {instances} instances in all, more than {MAX_INSTANCES}",
        ))
        return plan

    checked = []  # (index, action, node) of each action that parsed without error
    for index, action in enumerate(doc.actions):
        node = plan._add(ResourceNode(action.name, kind=action.kind.lower()), plan.tree)
        if index not in doc._reported:
            checked.append((index, action, node))
        if action.kind == "Cluster":
            node.tolerated = action.tolerated_failures
            plan.clusters[action.name] = instances = action.instances or 0  # None: unparsed
            for child_name in cluster_child_names(action.name, instances):
                plan._add(ResourceNode(child_name, kind="service"), node)

    # Dependencies: dangling references, then cycles via topological scan.
    edges: dict[str, list[str]] = {a.name: [] for a in doc.actions}
    for index, action, _ in checked:
        for dep in action.depends.names():
            if dep not in edges:
                findings.append(Finding("error", action.name, f"unknown action: {dep}"))
            else:
                edges[action.name].append(dep)
        for dep in dict.fromkeys(action.depends.names()):
            waits = (Phase.SUCCESS,) if dep in action.depends.success else (Phase.RUNNING, Phase.SUCCESS)
            for phase in waits:
                plan.dependents.setdefault((dep, phase), []).append(index)
    cycle = _find_cycle(edges)
    if cycle is not None:
        findings.append(Finding("error", cycle[0], "dependency cycle: " + "->".join(cycle)))

    checkpoints = {a.name: a.values for a in doc.actions if a.kind == "Checkpoint"}
    scenario_timeout = ENGINE_DEFAULT_TIMEOUT if doc.timeout is None else doc.timeout
    parsed: dict = {}  # instantiated job text -> its JobSpec, across actions
    for _, action, node in checked:
        plan.timeouts[action.name] = scenario_timeout if action.timeout is None else action.timeout
        findings.extend(_compile_action(plan, action, node, templates, checkpoints, parsed))
    return plan


def validate(doc: ScenarioDoc, templates: Optional[dict] = None) -> ValidationReport:
    """Every static check that keeps a run well-formed: a copy of ``compile_scenario``'s report."""
    return ValidationReport(list(compile_scenario(doc, templates).report.findings))


def _compile_action(plan, action, node, templates, checkpoints, parsed) -> list[Finding]:
    findings: list[Finding] = []
    name, ref = action.name, action.template_ref

    if action.kind == "Cluster" and action.tolerated_failures >= action.instances:
        message = f"toleratedFailures ({action.tolerated_failures}) must be below instances ({action.instances})"
        findings.append(Finding("error", name, message))
    if action.kind != "Cluster" and len(action.inputs) > 1:
        findings.append(Finding("warning", name, "only the first inputs map is used"))

    texts: list[str] = []
    if ref is not None:
        template = templates.get(ref)
        if template is None:
            findings.append(Finding("error", name, f"unknown template: {ref}"))
        else:
            for inputs in (action.inputs if action.kind == "Cluster" else action.inputs[:1]) or [{}]:
                try:
                    inputs = _with_builtins(template, inputs, action, plan.clusters)
                except SchemaError:
                    break  # a bad services macro, reported with the call's targets below
                try:
                    texts.append(instantiate_template(template, inputs))
                except SchemaError as exc:
                    findings.append(Finding("error", name, f"template {ref}: {exc}"))
                    break

    if action.kind == "Chaos" and (action.inline is not None or texts):
        try:
            spec = parse_fault_body(
                action.inline if action.inline is not None else load_yaml(texts[0]), plan.clusters,
            )
        except yaml.YAMLError as exc:
            findings.append(Finding("error", name, f"fault template does not parse: {exc}"))
        except SchemaError as exc:
            findings.append(Finding("error", name, f"invalid fault: {exc}"))
        else:
            for target in spec.targets + spec.dst:
                if not plan.is_service(target):
                    findings.append(Finding("error", name, f"unknown fault target: {target}"))
            plan.faults[name] = spec
    elif action.kind != "Checkpoint":
        specs = plan.jobs[name] = []
        try:
            if action.inline is not None:
                specs.append(parse_job_body(action.inline))
            for text in texts:
                if text not in parsed:
                    parsed[text] = parse_job_body(load_yaml(text))
                specs.append(parsed[text])
        except yaml.YAMLError as exc:
            findings.append(Finding("error", name, f"template {ref} body does not parse: {exc}"))
        except SchemaError as exc:
            findings.append(Finding("error", name, str(exc)))

    for target in action.services:
        findings.extend(_check_target(target, name, plan))
    for text in action.assertions:
        findings.extend(_compile_assertion(plan, text, node, checkpoints))
    for key, text in action.values.items():
        findings.extend(_compile_checkpoint_value(plan, text, name, key))
    return findings


def _check_target(target, owner, plan) -> list[Finding]:
    try:
        expanded = expand_macro(target, plan.clusters)
    except SchemaError as exc:
        return [Finding("error", owner, f"bad target {quote(target)}: {exc}")]
    return [Finding("warning", owner, f"unknown service: {name}") for name in expanded if not plan.is_service(name)]


def _compile_assertion(plan, text, node, checkpoints) -> list[Finding]:
    owner = node.name
    try:
        ast = parse_expression(text)
    except ExprSyntaxError as exc:
        return [Finding("error", owner, f"expression {quote(text)}: {exc}")]
    if not isinstance(ast, MetricsExprAst):
        findings = check_scope(ast, node, plan.nodes)
    elif ast.condition is None:
        return [Finding("error", owner, f"assertion {quote(text)} has no condition")]
    else:
        findings = []
        for term in ast.condition.terms:
            if term.checkpoint is None:
                continue
            checkpoint, key = term.checkpoint
            if checkpoint not in checkpoints:
                findings.append(Finding("error", owner, f"assertion {quote(text)}: unknown checkpoint: {checkpoint}"))
            elif key not in checkpoints[checkpoint]:
                findings.append(Finding("error", owner, f"assertion {quote(text)}: checkpoint {checkpoint} has no value {key}"))
    plan.asserts.setdefault(owner, []).append((text, ast))
    return findings


def _compile_checkpoint_value(plan, text, name, key) -> list[Finding]:
    location = f"{name}.{key}"
    try:
        ast = parse_expression(text)
    except ExprSyntaxError as exc:
        return [Finding("error", location, f"expression {quote(text)}: {exc}")]
    if not isinstance(ast, MetricsExprAst):
        return [Finding("error", location, "checkpoint values must be metrics reductions")]
    if ast.condition is not None:
        return [Finding("error", location, "checkpoint values take no condition")]
    plan.checkpoint_exprs.setdefault(name, []).append((key, ast))
    return []


def _with_builtins(template: Template, inputs: dict, action: ActionSpec, clusters: dict) -> dict:
    """Auto-supplied inputs, injected only when the template declares them."""
    merged = dict(inputs)
    if "services" in template.parameters and "services" not in merged and action.kind == "Call":
        merged["services"] = ", ".join(expand_targets(action.services, clusters))
    return merged
