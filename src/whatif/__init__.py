"""whatif: event-driven test orchestration for declarative what-if scenarios.

Scenarios are DAGs of five action kinds (Service, Cluster, Chaos, Call,
Checkpoint) with logical dependencies, execution-driven fault injection,
expected-vs-unexpected failure discrimination, and assertions over live
metrics, runnable against a deterministic simulator or local processes.

`import whatif` loads no other module. Each public name loads its module on
first access (PEP 562): `whatif.parse_scenario` loads the DSL, expressions
and PyYAML but not the engine, `whatif.Engine` the engine with the trace and
telemetry, `whatif.SimExecutor` the simulator and `whatif.ProcessExecutor`
the process executor with `signal`.
"""

__version__ = "0.1.0"

# public name -> the module it is loaded from
_SOURCES = {
    "Engine": ".engine",
    "FailureClass": ".lifecycle",
    "Outcome": ".engine",
    "Phase": ".lifecycle",
    "ProcessExecutor": ".executors",
    "ScenarioDoc": ".dsl",
    "SimExecutor": ".executors",
    "Template": ".dsl",
    "ValidationReport": ".dsl",
    "eval_state": ".expressions",
    "expand_macro": ".dsl",
    "instantiate_template": ".dsl",
    "load_templates": ".dsl",
    "make_executor": ".executors",
    "parse_expression": ".expressions",
    "parse_scenario": ".dsl",
    "run_scenario": ".engine",
    "validate": ".dsl",
}

__all__ = sorted(_SOURCES)


def __getattr__(name: str):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(_SOURCES[name], __name__), name)  # later lookups skip this hook
    return value
