"""Parsed documents back to text, and lookups the tests make in them.

``render_scenario`` serializes a ``ScenarioDoc`` so that
``parse_scenario(render_scenario(doc)) == doc``; the round-trip test and
the loader tests build their corpus texts with it.
"""

from typing import Optional

import yaml

from whatif.dsl import ActionSpec, ScenarioDoc


def format_duration(seconds: float) -> str:
    """Render seconds canonically, e.g. 600.0 -> "600s"."""
    if seconds == int(seconds):
        return f"{int(seconds)}s"
    return f"{seconds}s"


def action_named(doc: ScenarioDoc, name: str) -> Optional[ActionSpec]:
    return next((action for action in doc.actions if action.name == name), None)


def render_scenario(doc: ScenarioDoc) -> str:
    """Serialize a document back to YAML; parse(render(doc)) == doc."""
    out: dict = {"name": doc.name}
    if doc.timeout is not None:
        out["defaults"] = {"timeout": format_duration(doc.timeout)}
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
            body.update(action.inline or {})
    elif action.kind == "Call":
        body["callable"] = action.template_ref
        body["services"] = list(action.services)
    elif action.kind == "Chaos":
        if action.template_ref is not None:
            body["templateRef"] = action.template_ref
        else:
            body["fault"] = dict(action.inline or {})
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
