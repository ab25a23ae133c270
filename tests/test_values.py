"""Value semantics of the package's data classes.

Each class below compares by value: equal fields make equal instances (and
equal hashes, for the immutable ones), and one differing constructor
argument makes them unequal. A class with list or dict fields gives every
instance its own.
"""

import pytest

from whatif.dsl import (
    ActionSpec,
    DependsClause,
    ScenarioDoc,
    Template,
    ValidationReport,
    compile_scenario,
    parse_scenario,
)
from whatif.errors import Finding
from whatif.events import Event, EventKind
from whatif.executors.base import FaultSpec, JobSpec, SimEffect
from whatif.expressions import (
    BoolGroup,
    Compare,
    Condition,
    MetricsExprAst,
    Not,
    ScopeJob,
    ScopeSnapshot,
    StateCall,
    Term,
    _Token,
)
from whatif.lifecycle import FailureClass, Phase, ResourceNode
from whatif.trace import TraceRecord

# class -> (arguments of one instance, arguments that differ in every
# position). Each is a function so that every call builds new lists and dicts.
HASHABLE = {
    Finding: (lambda: ("error", "a", "m"), lambda: ("warning", "b", "n")),
    SimEffect: (lambda: (1.0, "metric", "m", 2.0, None), lambda: (2.0, "send", "n", 3.0, "x")),
    StateCall: (lambda: ("failed", None), lambda: ("running", "a-0")),
    Compare: (lambda: (StateCall("failed"), ">", 4), lambda: (StateCall("running"), "<", 5)),
    Not: (lambda: (StateCall("failed"),), lambda: (StateCall("running"),)),
    BoolGroup: (lambda: ("AND", (StateCall("failed"),)), lambda: ("OR", (StateCall("running"),))),
    Term: (lambda: (1.0, None, 1.0), lambda: (None, ("cp", "k"), 1.2)),
    Condition: (lambda: ("ABOVE", (Term(1.0),)), lambda: ("BELOW", (Term(2.0),))),
    MetricsExprAst: (
        lambda: ("MAX", "cpu", 60.0, None),
        lambda: ("MIN", "mem", 30.0, Condition("ABOVE", (Term(1.0),))),
    ),
    ScopeJob: (lambda: ("a", Phase.FAILED, FailureClass.EXPECTED), lambda: ("b", Phase.RUNNING, None)),
    ScopeSnapshot: (lambda: ("c", (ScopeJob("c-0", Phase.RUNNING),)), lambda: ("d", ())),
    _Token: (lambda: ("word", "MAX", 0), lambda: ("op", ">", 3)),
}

UNHASHABLE = {
    TraceRecord: (lambda: (0, 1.0, "event", {"a": 1}), lambda: (1, 2.0, "command", {"b": 2})),
    Event: (
        lambda: (EventKind.STATE, "a", "", Phase.FAILED, "kill", "r"),
        lambda: (EventKind.TIME, "b", "t", Phase.RUNNING, "crash", "s"),
    ),
    JobSpec: (
        lambda: ("j", None, [SimEffect(0.0, "running")], {"A": "1"}, "none", ["m"]),
        lambda: ("k", "true", [], {}, "stdout-lines", []),
    ),
    FaultSpec: (lambda: ("kill", ["a-0"], [], "both", None), lambda: ("partition", ["b"], ["c"], "to", 5.0)),
    DependsClause: (lambda: (["a"], ["b"], None), lambda: (["c"], [], 1.0)),
    ActionSpec: (
        lambda: ("a", "Cluster", DependsClause(), "t", [{"x": "1"}], 3, 1, [], {}, None, [], None),
        lambda: (
            "b", "Call", DependsClause(["a"]), "boot", [], None, 0, [".cluster.a.all"],
            {"k": "MAX() QUERY(m, 1m, now)"}, {"script": []}, [".state.failed() > 0"], 9.0,
        ),
    ),
    ScenarioDoc: (
        lambda: ("s", [ActionSpec("a", "Call")], None, []),
        lambda: ("t", [], 60.0, []),  # findings alone do not count
    ),
    Template: (lambda: ("t", {"p": None}, "x"), lambda: ("u", {}, "y")),
    ValidationReport: (lambda: ([Finding("error", "a", "m")],), lambda: ([],)),
}

CASES = {**HASHABLE, **UNHASHABLE}


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_equal_fields_make_equal_instances(cls):
    make, _ = CASES[cls]
    a, b = cls(*make()), cls(*make())
    assert a == b and not a != b
    assert a != object() and a != tuple(make())
    if cls in HASHABLE:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_one_differing_argument_makes_unequal_instances(cls):
    make, other = CASES[cls]
    base = cls(*make())
    changed = 0
    for position, value in enumerate(other()):
        if cls is ScenarioDoc and position == 3:
            continue  # findings: checked below
        args = list(make())
        args[position] = value
        assert cls(*args) != base, (cls.__name__, position)
        changed += 1
    assert changed


def test_scenario_doc_equality_ignores_findings():
    a = ScenarioDoc("s", [ActionSpec("a", "Call")], findings=[])
    b = ScenarioDoc("s", [ActionSpec("a", "Call")], findings=[Finding("warning", "document", "unknown top-level key 'x'")])
    assert a == b
    assert "findings=" in repr(b) and "unknown top-level key" in repr(b)


def test_repr_names_the_class_and_every_field():
    assert repr(StateCall("failed")) == "StateCall(fn='failed', subject=None)"
    assert repr(Finding("error", "a", "m")) == "Finding(severity='error', location='a', message='m')"
    assert str(Finding("error", "a", "m")) == "error: a: m"


def test_a_template_compares_and_shows_the_same_once_compiled():
    # A compile keeps nothing on a template: it holds its name, parameters and body only.
    body = "script:\n- {at: '{{p}}', do: running}\n- {at: 9s, do: success}\n"
    used, fresh = Template("t", {"p": None}, body), Template("t", {"p": None}, body)
    doc = parse_scenario("spec:\n- {action: Service, name: s, service: {templateRef: t, inputs: [{p: 1s}]}}\n")
    assert compile_scenario(doc, {"t": used}).report.ok
    assert Template.__slots__ == ("name", "parameters", "body")
    assert used == fresh
    assert repr(used) == repr(fresh) == f"Template(name='t', parameters={{'p': None}}, body={body!r})"
    with pytest.raises(TypeError):
        hash(used)


def test_a_condition_compares_and_shows_only_its_terms():
    constant = Condition("WITHIN", (Term(1.0), Term(2.0, scale=3.0)))
    assert constant._bounds == (1.0, 6.0)
    assert Condition("ABOVE", (Term(checkpoint=("k", "a")),))._bounds is None
    unresolved = Condition("WITHIN", (Term(1.0), Term(2.0, scale=3.0)))
    unresolved._bounds = None
    assert constant == unresolved and hash(constant) == hash(unresolved)
    assert repr(constant) == repr(unresolved) == (
        "Condition(kind='WITHIN', terms=(Term(value=1.0, checkpoint=None, scale=1.0), "
        "Term(value=2.0, checkpoint=None, scale=3.0)))"
    )


MUTABLE_DEFAULTS = [
    (ActionSpec, ("a", "Call")),
    (DependsClause, ()),
    (JobSpec, ()),
    (ResourceNode, ("n",)),
    (ScenarioDoc, ()),
    (FaultSpec, ("kill",)),
    (Template, ("t",)),
    (ValidationReport, ()),
    (TraceRecord, (0, 0.0, "run")),
]


def _containers(obj, path=""):
    """Every list, dict and nested data object reachable from obj's fields."""
    for name in type(obj).__slots__:
        value = getattr(obj, name)
        if isinstance(value, (list, dict, DependsClause)):
            yield path + name, value
            if isinstance(value, DependsClause):
                yield from _containers(value, f"{path}{name}.")


@pytest.mark.parametrize("cls,required", MUTABLE_DEFAULTS, ids=[cls.__name__ for cls, _ in MUTABLE_DEFAULTS])
def test_defaults_are_not_shared(cls, required):
    a, b = cls(*required), cls(*required)
    pairs = list(zip(_containers(a), _containers(b)))
    assert pairs
    for (name, x), (_, y) in pairs:
        assert x is not y, f"{cls.__name__}.{name} is shared between instances"
