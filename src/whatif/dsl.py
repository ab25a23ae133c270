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

Templates live in a directory of YAML files and are instantiated by
replacing ``{{placeholder}}`` markers in a single literal pass. The
addressing macro ``.cluster.<name>.<all|index>`` expands to instance
names like ``masters-0``. ``validate`` performs every static check that
keeps a run from blocking or dying on a malformed document.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import yaml

from .durations import format_duration, parse_duration
from .errors import (
    ExprSyntaxError,
    Finding,
    IndexOutOfRange,
    MissingParameter,
    ScenarioSyntaxError,
    SchemaError,
    UnknownCluster,
    UnknownParameter,
)
from .expressions import MetricsExprAst, check_scope, parse_expression
from .lifecycle import ResourceNode

ACTION_KINDS = ("Service", "Cluster", "Chaos", "Call", "Checkpoint")

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*")
_TEMPLATE_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.-]*")
_PLACEHOLDER_RE = re.compile(r"\{\{([A-Za-z_][A-Za-z0-9_.]*)\}\}")
_MACRO_RE = re.compile(r"\.cluster\.([A-Za-z_][A-Za-z0-9_-]*)\.(all|\d+)")

ENGINE_DEFAULT_TIMEOUT = 3600.0

# PyYAML's safe loader on libyaml when PyYAML was built with it, about 8x
# faster than the pure-Python one, which it falls back to otherwise. Both
# construct the same values; only the wording of syntax errors differs.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_yaml(text: str, all_documents: bool = False):
    """Parse YAML safely: the document, or with ``all_documents`` a list of every document."""
    if all_documents:
        return list(yaml.load_all(text, Loader=_YAML_LOADER))
    return yaml.load(text, Loader=_YAML_LOADER)


@dataclass
class ScenarioDefaults:
    timeout: Optional[float] = None


@dataclass
class DependsClause:
    running: list[str] = field(default_factory=list)
    success: list[str] = field(default_factory=list)
    after: Optional[float] = None

    def is_empty(self) -> bool:
        return not self.running and not self.success and self.after is None

    def names(self) -> list[str]:
        return list(self.running) + list(self.success)


@dataclass
class ActionSpec:
    name: str
    kind: str
    depends: DependsClause = field(default_factory=DependsClause)
    template_ref: Optional[str] = None
    inputs: list[dict] = field(default_factory=list)
    # Cluster
    instances: Optional[int] = None
    tolerated_failures: int = 0
    # Call
    callable: Optional[str] = None
    services: list[str] = field(default_factory=list)
    # Chaos (inline fault body, raw mapping)
    fault: Optional[dict] = None
    # Checkpoint
    values: dict = field(default_factory=dict)
    # Service (inline job body, raw mapping)
    inline_job: Optional[dict] = None
    assertions: list[str] = field(default_factory=list)
    timeout: Optional[float] = None


@dataclass
class ScenarioDoc:
    name: str = "scenario"
    actions: list[ActionSpec] = field(default_factory=list)
    defaults: ScenarioDefaults = field(default_factory=ScenarioDefaults)
    warnings: list[str] = field(default_factory=list, compare=False)

    def action(self, name: str) -> Optional[ActionSpec]:
        for action in self.actions:
            if action.name == name:
                return action
        return None

    def clusters(self) -> dict[str, ActionSpec]:
        return {a.name: a for a in self.actions if a.kind == "Cluster"}


@dataclass
class Template:
    """A reusable body with ``{{placeholder}}`` markers.

    ``parameters`` maps each declared placeholder to its default value, or
    None when the caller must supply it.
    """

    name: str
    parameters: dict = field(default_factory=dict)
    body: str = ""


@dataclass
class ValidationReport:
    findings: list[Finding] = field(default_factory=list)

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
        raise SchemaError(f"{where}: invalid identifier {value!r}")
    return value


def _coerce_str(value, where: str) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return str(value)
    raise SchemaError(f"{where}: expected a scalar, got {value!r}")


def _parse_inputs(raw, where: str) -> list[dict]:
    if raw is None:
        return []
    if not isinstance(raw, list):
        raise SchemaError(f"{where}: inputs must be a list of maps")
    out = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}: inputs[{i}] must be a map")
        out.append({str(k): _coerce_str(v, f"{where}.inputs[{i}].{k}") for k, v in entry.items()})
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
    clause = DependsClause()
    for key, value in raw.items():
        if key in ("running", "success"):
            if not isinstance(value, list) or not all(isinstance(n, str) for n in value):
                raise SchemaError(f"{where}: depends.{key} must be a list of action names")
            setattr(clause, key, list(value))
        elif key == "after":
            clause.after = _parse_duration_field(value, f"{where}.depends.after")
        else:
            raise SchemaError(f"{where}: unknown depends key {key!r}")
    return clause


def _parse_action(raw, position: int) -> ActionSpec:
    if not isinstance(raw, dict):
        raise SchemaError(f"spec[{position}]: action entry must be a map")
    kind = raw.get("action")
    name = raw.get("name")
    where = f"spec[{position}]" + (f" ({name})" if isinstance(name, str) else "")
    if kind not in ACTION_KINDS:
        raise SchemaError(f"{where}: unknown action kind {kind!r}")
    _require_ident(name, f"{where}.name")

    action = ActionSpec(name=name, kind=kind)
    action.depends = _parse_depends(raw.get("depends"), where)
    if "timeout" in raw:
        action.timeout = _parse_duration_field(raw["timeout"], f"{where}.timeout")
    if "assertions" in raw:
        if not isinstance(raw["assertions"], list) or not all(isinstance(a, str) for a in raw["assertions"]):
            raise SchemaError(f"{where}: assertions must be a list of expression strings")
        action.assertions = list(raw["assertions"])

    body_key = kind.lower()
    body = raw.get(body_key)
    known_keys = {"action", "name", "depends", "timeout", "assertions", body_key}
    for key in raw:
        if key not in known_keys:
            raise SchemaError(f"{where}: unknown key {key!r}")
    if body is None:
        body = {}
    if not isinstance(body, dict):
        raise SchemaError(f"{where}: {body_key} body must be a map")

    parser = _BODY_PARSERS[kind]
    parser(action, body, where)
    return action


def _parse_cluster_body(action: ActionSpec, body: dict, where: str) -> None:
    if "templateRef" not in body:
        raise SchemaError(f"{where}: cluster requires templateRef")
    if "instances" not in body:
        raise SchemaError(f"{where}: cluster requires instances")
    action.template_ref = str(body["templateRef"])
    instances = body["instances"]
    if not isinstance(instances, int) or isinstance(instances, bool) or instances < 1:
        raise SchemaError(f"{where}: instances must be an integer >= 1")
    action.instances = instances
    tolerated = body.get("toleratedFailures", 0)
    if not isinstance(tolerated, int) or isinstance(tolerated, bool) or tolerated < 0:
        raise SchemaError(f"{where}: toleratedFailures must be an integer >= 0")
    action.tolerated_failures = tolerated
    action.inputs = _parse_inputs(body.get("inputs"), where)
    _reject_extra(body, {"templateRef", "instances", "toleratedFailures", "inputs"}, where)


def _parse_service_body(action: ActionSpec, body: dict, where: str) -> None:
    action.inputs = _parse_inputs(body.get("inputs"), where)
    inline = {k: v for k, v in body.items() if k not in ("templateRef", "inputs")}
    if "templateRef" in body:
        if inline:
            raise SchemaError(f"{where}: service takes templateRef or an inline body, not both")
        action.template_ref = str(body["templateRef"])
    elif inline:
        action.inline_job = inline
    else:
        raise SchemaError(f"{where}: service requires templateRef or an inline body")


def _parse_call_body(action: ActionSpec, body: dict, where: str) -> None:
    if "callable" not in body:
        raise SchemaError(f"{where}: call requires callable")
    if "services" not in body:
        raise SchemaError(f"{where}: call requires services")
    if not isinstance(body["services"], list) or not all(isinstance(s, str) for s in body["services"]):
        raise SchemaError(f"{where}: call services must be a list of names or macros")
    action.callable = str(body["callable"])
    action.services = list(body["services"])
    action.inputs = _parse_inputs(body.get("inputs"), where)
    _reject_extra(body, {"callable", "services", "inputs"}, where)


def _parse_chaos_body(action: ActionSpec, body: dict, where: str) -> None:
    action.inputs = _parse_inputs(body.get("inputs"), where)
    has_template = "templateRef" in body
    has_fault = "fault" in body
    if has_template == has_fault:
        raise SchemaError(f"{where}: chaos requires exactly one of templateRef or fault")
    if has_template:
        action.template_ref = str(body["templateRef"])
    else:
        if not isinstance(body["fault"], dict):
            raise SchemaError(f"{where}: fault must be a map")
        action.fault = dict(body["fault"])
    _reject_extra(body, {"templateRef", "fault", "inputs"}, where)


def _parse_checkpoint_body(action: ActionSpec, body: dict, where: str) -> None:
    values = body.get("values", {})
    if not isinstance(values, dict) or not all(isinstance(v, str) for v in values.values()):
        raise SchemaError(f"{where}: checkpoint values must map keys to expression strings")
    action.values = {str(k): v for k, v in values.items()}
    _reject_extra(body, {"values"}, where)


def _reject_extra(body: dict, allowed: set, where: str) -> None:
    for key in body:
        if key not in allowed:
            raise SchemaError(f"{where}: unknown body key {key!r}")


_BODY_PARSERS = {
    "Cluster": _parse_cluster_body,
    "Service": _parse_service_body,
    "Call": _parse_call_body,
    "Chaos": _parse_chaos_body,
    "Checkpoint": _parse_checkpoint_body,
}


def parse_scenario(text: str) -> ScenarioDoc:
    """Parse a scenario document.

    Actions keep document order. Unknown top-level keys are collected as
    warnings; unknown action kinds raise SchemaError.
    """
    try:
        raw = load_yaml(text)
    except yaml.YAMLError as exc:
        raise ScenarioSyntaxError(str(exc)) from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise SchemaError("scenario document must be a mapping")
    if "spec" not in raw:
        raise SchemaError("missing mandatory top-level key 'spec'")
    spec = raw["spec"]
    if spec is None:
        spec = []
    if not isinstance(spec, list):
        raise SchemaError("'spec' must be a list of actions")

    doc = ScenarioDoc()
    if "name" in raw:
        doc.name = _require_ident(raw["name"], "name")
    if "defaults" in raw:
        defaults = raw["defaults"]
        if not isinstance(defaults, dict):
            raise SchemaError("'defaults' must be a map")
        if "timeout" in defaults:
            doc.defaults.timeout = _parse_duration_field(defaults["timeout"], "defaults.timeout")
        for key in defaults:
            if key != "timeout":
                raise SchemaError(f"defaults: unknown key {key!r}")
    for key in raw:
        if key not in ("name", "spec", "defaults"):
            doc.warnings.append(f"unknown top-level key {key!r}")
    doc.actions = [_parse_action(entry, i) for i, entry in enumerate(spec)]
    return doc


def render_scenario(doc: ScenarioDoc) -> str:
    """Serialize a document back to YAML; parse(render(doc)) == doc."""
    out: dict = {"name": doc.name}
    if doc.defaults.timeout is not None:
        out["defaults"] = {"timeout": format_duration(doc.defaults.timeout)}
    out["spec"] = [_render_action(a) for a in doc.actions]
    return yaml.safe_dump(out, sort_keys=False)


def _render_action(action: ActionSpec) -> dict:
    entry: dict = {"action": action.kind, "name": action.name}
    depends: dict = {}
    if action.depends.running:
        depends["running"] = list(action.depends.running)
    if action.depends.success:
        depends["success"] = list(action.depends.success)
    if action.depends.after is not None:
        depends["after"] = format_duration(action.depends.after)
    if depends:
        entry["depends"] = depends
    body: dict = {}
    if action.kind == "Cluster":
        body["templateRef"] = action.template_ref
        body["instances"] = action.instances
        if action.tolerated_failures:
            body["toleratedFailures"] = action.tolerated_failures
    elif action.kind == "Service":
        if action.template_ref is not None:
            body["templateRef"] = action.template_ref
        else:
            body.update(action.inline_job or {})
    elif action.kind == "Call":
        body["callable"] = action.callable
        body["services"] = list(action.services)
    elif action.kind == "Chaos":
        if action.template_ref is not None:
            body["templateRef"] = action.template_ref
        else:
            body["fault"] = dict(action.fault or {})
    elif action.kind == "Checkpoint":
        if action.values:
            body["values"] = dict(action.values)
    if action.inputs:
        body["inputs"] = [dict(m) for m in action.inputs]
    if body:
        entry[action.kind.lower()] = body
    if action.assertions:
        entry["assertions"] = list(action.assertions)
    if action.timeout is not None:
        entry["timeout"] = format_duration(action.timeout)
    return entry


# --- templates -----------------------------------------------------------------

def parse_template(raw) -> Template:
    if not isinstance(raw, dict):
        raise SchemaError("template document must be a mapping")
    name = raw.get("name")
    if not isinstance(name, str) or not _TEMPLATE_NAME_RE.fullmatch(name):
        raise SchemaError(f"template: invalid name {name!r}")
    params_raw = raw.get("parameters")
    parameters: dict = {}
    if params_raw is None:
        pass
    elif isinstance(params_raw, list):
        for entry in params_raw:
            parameters[_coerce_str(entry, f"template {name}: parameter")] = None
    elif isinstance(params_raw, dict):
        for key, default in params_raw.items():
            parameters[str(key)] = None if default is None else _coerce_str(default, f"template {name}: default for {key}")
    else:
        raise SchemaError(f"template {name}: parameters must be a list or map")
    body = raw.get("body", "")
    if not isinstance(body, str):
        raise SchemaError(f"template {name}: body must be text")
    for match in _PLACEHOLDER_RE.finditer(body):
        if match.group(1) not in parameters:
            raise SchemaError(f"template {name}: undeclared placeholder {match.group(1)!r}")
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
                raise SchemaError(f"duplicate template name {template.name!r} in {file}")
            library[template.name] = template
    return library


def instantiate_template(template: Template, inputs: dict) -> str:
    """Replace every ``{{placeholder}}`` with its input in one literal pass.

    Inputs must be declared parameters; parameters without defaults must be
    supplied. The result carries no remaining markers.
    """
    for key in inputs:
        if key not in template.parameters:
            raise UnknownParameter(key)
    resolved = {}
    for key, default in template.parameters.items():
        if key in inputs:
            resolved[key] = inputs[key]
        elif default is not None:
            resolved[key] = default
        else:
            raise MissingParameter(key)
    return _PLACEHOLDER_RE.sub(lambda m: resolved[m.group(1)], template.body)


# --- addressing macros ------------------------------------------------------------

def cluster_child_names(cluster: str, instances: int) -> list[str]:
    return [f"{cluster}-{i}" for i in range(instances)]


def expand_macro(macro: str, doc: ScenarioDoc) -> list[str]:
    """Expand ``.cluster.<name>.<all|index>``; plain names pass through."""
    if not macro.startswith("."):
        return [macro]
    match = _MACRO_RE.fullmatch(macro)
    if match is None:
        raise SchemaError(f"malformed addressing macro {macro!r}")
    cluster_name, selector = match.group(1), match.group(2)
    cluster = doc.clusters().get(cluster_name)
    if cluster is None:
        raise UnknownCluster(cluster_name)
    if selector == "all":
        return cluster_child_names(cluster_name, cluster.instances)
    index = int(selector)
    if index >= cluster.instances:
        raise IndexOutOfRange(f"{macro}: cluster has {cluster.instances} instances")
    return [f"{cluster_name}-{index}"]


def expand_targets(names: list[str], doc: ScenarioDoc) -> list[str]:
    out: list[str] = []
    for name in names:
        out.extend(expand_macro(name, doc))
    return out


# --- static tree -------------------------------------------------------------------

def build_tree(doc: ScenarioDoc) -> ResourceNode:
    """Ownership skeleton: scenario -> actions -> cluster instances."""
    root = ResourceNode(doc.name, kind="scenario")
    for action in doc.actions:
        node = ResourceNode(action.name, kind=action.kind.lower())
        if action.kind == "Cluster":
            node.tolerated = action.tolerated_failures
            for child_name in cluster_child_names(action.name, action.instances):
                node.add_child(ResourceNode(child_name, kind="service"))
        root.add_child(node)
    return root


def known_service_names(doc: ScenarioDoc) -> set:
    names = set()
    for action in doc.actions:
        if action.kind == "Service":
            names.add(action.name)
        elif action.kind == "Cluster":
            names.update(cluster_child_names(action.name, action.instances))
    return names


def effective_timeout(action: ActionSpec, doc: ScenarioDoc, engine_default=ENGINE_DEFAULT_TIMEOUT):
    """Own timeout, else scenario default, else the engine default."""
    if action.timeout is not None:
        return action.timeout
    if doc.defaults.timeout is not None:
        return doc.defaults.timeout
    return engine_default


# --- validation --------------------------------------------------------------------

def _find_cycle(edges: dict) -> Optional[list[str]]:
    """Return one dependency cycle as a name path, or None."""
    visiting: dict[str, int] = {}  # 0=in stack, 1=done
    stack: list[str] = []

    def visit(node: str) -> Optional[list[str]]:
        state = visiting.get(node)
        if state == 1:
            return None
        if state == 0:
            return stack[stack.index(node):] + [node]
        visiting[node] = 0
        stack.append(node)
        for nxt in edges.get(node, ()):
            cycle = visit(nxt)
            if cycle is not None:
                return cycle
        stack.pop()
        visiting[node] = 1
        return None

    for name in edges:
        cycle = visit(name)
        if cycle is not None:
            return cycle
    return None


def validate(
    doc: ScenarioDoc,
    templates: Optional[dict] = None,
    engine_default_timeout: Optional[float] = ENGINE_DEFAULT_TIMEOUT,
) -> ValidationReport:
    """Every static check that keeps a run well-formed.

    Reports dependency cycles, dangling references (depends, templateRef,
    macros, chaos targets), expression errors with scope violations, cluster
    tolerance bounds, and actions that could block forever when no timeout
    applies at any level.
    """
    from .executors.base import parse_fault_body

    templates = templates or {}
    findings: list[Finding] = []
    for warning in doc.warnings:
        findings.append(Finding("warning", "document", warning))

    names = [a.name for a in doc.actions]
    seen: set = set()
    for name in names:
        if name in seen:
            findings.append(Finding("error", name, "duplicate action name"))
        seen.add(name)

    # Dependencies: dangling references, then cycles via topological scan.
    edges: dict[str, list[str]] = {a.name: [] for a in doc.actions}
    for action in doc.actions:
        for dep in action.depends.names():
            if dep not in seen:
                findings.append(Finding("error", action.name, f"unknown action: {dep}"))
            else:
                edges[action.name].append(dep)
    cycle = _find_cycle(edges)
    if cycle is not None:
        findings.append(Finding("error", cycle[0], "dependency cycle: " + "->".join(cycle)))

    tree = build_tree(doc)
    services = known_service_names(doc)

    for action in doc.actions:
        findings.extend(_validate_action(action, doc, templates, services, tree, parse_fault_body))

    if engine_default_timeout is None and doc.defaults.timeout is None:
        for action in doc.actions:
            if action.timeout is None and (action.depends.running or action.depends.success):
                findings.append(Finding(
                    "error", action.name,
                    "no effective timeout and a depends clause that could block forever",
                ))

    return ValidationReport(findings)


def _required_template(action: ActionSpec) -> Optional[str]:
    if action.kind in ("Cluster", "Service", "Chaos"):
        return action.template_ref
    if action.kind == "Call":
        return action.callable
    return None


def _validate_action(action, doc, templates, services, tree, parse_fault_body) -> list[Finding]:
    findings: list[Finding] = []

    if action.kind == "Cluster" and action.tolerated_failures >= action.instances:
        findings.append(Finding(
            "error", action.name,
            f"toleratedFailures ({action.tolerated_failures}) must be below instances ({action.instances})",
        ))
    if action.kind != "Cluster" and len(action.inputs) > 1:
        findings.append(Finding("warning", action.name, "only the first inputs map is used"))

    resolved_body = None
    ref = _required_template(action)
    if ref is not None and action.inline_job is None:
        template = templates.get(ref)
        if template is None:
            findings.append(Finding("error", action.name, f"unknown template: {ref}"))
        else:
            inputs_list = action.inputs or [{}]
            for inputs in inputs_list:
                try:
                    resolved_body = instantiate_template(template, _with_builtins(template, inputs, action, doc))
                except (MissingParameter, UnknownParameter) as exc:
                    findings.append(Finding(
                        "error", action.name,
                        f"template {ref}: {type(exc).__name__}: {exc}",
                    ))
                    break

    if action.kind == "Call":
        for target in action.services:
            findings.extend(_check_target(target, action, doc, services, severity="warning"))

    if action.kind == "Chaos":
        fault_body = action.fault
        if fault_body is None and resolved_body is not None:
            try:
                fault_body = load_yaml(resolved_body)
            except yaml.YAMLError as exc:
                findings.append(Finding("error", action.name, f"fault template does not parse: {exc}"))
        if isinstance(fault_body, dict):
            try:
                spec = parse_fault_body(fault_body, doc)
            except (SchemaError, UnknownCluster, IndexOutOfRange) as exc:
                findings.append(Finding("error", action.name, f"invalid fault: {exc}"))
            else:
                for target in spec.targets + spec.dst:
                    if target not in services:
                        findings.append(Finding("error", action.name, f"unknown fault target: {target}"))
        elif fault_body is not None:
            findings.append(Finding("error", action.name, "fault body must be a map"))

    for text in action.assertions:
        findings.extend(_validate_expression(text, action.name, tree, require_condition=True))
    for key, text in action.values.items():
        findings.extend(_validate_checkpoint_value(text, f"{action.name}.{key}"))

    return findings


def _check_target(target, action, doc, services, severity) -> list[Finding]:
    try:
        expanded = expand_macro(target, doc)
    except (SchemaError, UnknownCluster, IndexOutOfRange) as exc:
        return [Finding("error", action.name, f"bad target {target!r}: {exc}")]
    findings = []
    for name in expanded:
        if name not in services:
            findings.append(Finding(severity, action.name, f"unknown service: {name}"))
    return findings


def _validate_expression(text, owner, tree, require_condition) -> list[Finding]:
    try:
        ast = parse_expression(text)
    except ExprSyntaxError as exc:
        return [Finding("error", owner, f"expression {text!r}: {exc}")]
    if isinstance(ast, MetricsExprAst):
        if require_condition and ast.condition is None:
            return [Finding("error", owner, f"assertion {text!r} has no condition")]
        return []
    return check_scope(ast, owner, tree)


def _validate_checkpoint_value(text, location) -> list[Finding]:
    try:
        ast = parse_expression(text)
    except ExprSyntaxError as exc:
        return [Finding("error", location, f"expression {text!r}: {exc}")]
    if not isinstance(ast, MetricsExprAst):
        return [Finding("error", location, "checkpoint values must be metrics reductions")]
    if ast.condition is not None:
        return [Finding("error", location, "checkpoint values take no condition")]
    return []


def _with_builtins(template: Template, inputs: dict, action: ActionSpec, doc: ScenarioDoc) -> dict:
    """Auto-supplied inputs, injected only when the template declares them."""
    merged = dict(inputs)
    if "services" in template.parameters and "services" not in merged and action.kind == "Call":
        merged["services"] = ", ".join(expand_targets(action.services, doc))
    return merged
