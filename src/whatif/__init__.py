"""whatif: event-driven test orchestration for declarative what-if scenarios.

Scenarios are DAGs of five action kinds (Service, Cluster, Chaos, Call,
Checkpoint) with logical dependencies, execution-driven fault injection,
expected-vs-unexpected failure discrimination, and assertions over live
metrics, runnable against a deterministic simulator or local processes.
"""

from .dsl import (
    ScenarioDoc,
    Template,
    ValidationReport,
    expand_macro,
    instantiate_template,
    load_templates,
    parse_scenario,
    validate,
)
from .engine import Engine, Outcome, run_scenario
from .executors import SimExecutor, make_executor
from .expressions import eval_metrics, eval_state, parse_expression
from .lifecycle import FailureClass, Phase

__version__ = "0.1.0"


def __getattr__(name: str):
    # The process executor loads on first use; see whatif.executors.
    if name == "ProcessExecutor":
        from .executors import ProcessExecutor

        return ProcessExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Engine",
    "FailureClass",
    "Outcome",
    "Phase",
    "ProcessExecutor",
    "ScenarioDoc",
    "SimExecutor",
    "Template",
    "ValidationReport",
    "eval_metrics",
    "eval_state",
    "expand_macro",
    "instantiate_template",
    "load_templates",
    "make_executor",
    "parse_expression",
    "parse_scenario",
    "run_scenario",
    "validate",
]
