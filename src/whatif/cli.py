"""Operator commands: validate, run, and report scenarios.

Exit codes are part of the contract: 0 success, 1 the test failed,
2 invalid scenario or unreadable input, 3 run aborted (timeout or engine
error). Logs go to stderr; machine-readable output goes to files under
the run directory.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .dsl import ENGINE_DEFAULT_TIMEOUT, load_templates, parse_scenario, validate
from .durations import parse_duration
from .engine import Outcome, run_scenario
from .errors import InvalidScenario, WhatifError
from .executors import make_executor
from .report import (
    METRICS_FILE,
    REPORT_FILE,
    TRACE_FILE,
    CorruptRun,
    build_report,
    load_run,
    plot_data,
    render_text,
    report_json_text,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_TEST_FAILED = 1
EXIT_INVALID = 2
EXIT_ABORTED = 3


def _load_inputs(scenario_path: str, template_dir):
    text = Path(scenario_path).read_text()
    doc = parse_scenario(text)
    templates = load_templates(template_dir) if template_dir else {}
    return doc, templates


def cmd_validate(args) -> int:
    try:
        doc, templates = _load_inputs(args.scenario, args.templates)
    except (OSError, WhatifError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    report = validate(doc, templates, args.timeout_default)
    print(str(report))
    return EXIT_OK if report.ok else EXIT_INVALID


def cmd_run(args) -> int:
    try:
        doc, templates = _load_inputs(args.scenario, args.templates)
    except (OSError, WhatifError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    executor = make_executor(args.executor)
    try:
        result = run_scenario(
            doc, templates, executor,
            seed=args.seed, default_timeout=args.timeout_default,
        )
    except InvalidScenario as exc:  # the engine validates before it starts anything
        print(str(exc.report), file=sys.stderr)
        return EXIT_INVALID

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result.trace.save(out / TRACE_FILE)
    result.store.save(out / METRICS_FILE)
    records, store = load_run(out)
    (out / REPORT_FILE).write_text(report_json_text(build_report(records)))
    logger.info("run %s: %s (%s)", doc.name, result.outcome, result.reason)
    print(f"{result.outcome}: {result.reason}", file=sys.stderr)
    if result.outcome == Outcome.SUCCESS:
        return EXIT_OK
    if result.outcome == Outcome.FAILED:
        return EXIT_TEST_FAILED
    return EXIT_ABORTED


def cmd_report(args) -> int:
    try:
        records, store = load_run(args.out_dir)
        report = build_report(records)
    except CorruptRun as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if args.format == "json":
        sys.stdout.write(report_json_text(report))
    elif args.format == "plotdata":
        sys.stdout.write(json.dumps(plot_data(report, store), sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write(render_text(report))
    return EXIT_OK


def _duration_arg(value: str) -> float:
    try:
        return parse_duration(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="whatif", description="Event-driven what-if scenario runner")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="statically check a scenario")
    p_validate.add_argument("scenario")
    p_validate.add_argument("--templates", default=None, help="template directory")
    p_validate.add_argument("--timeout-default", type=_duration_arg, default=ENGINE_DEFAULT_TIMEOUT)
    p_validate.set_defaults(func=cmd_validate)

    p_run = sub.add_parser("run", help="run a scenario and write trace/report files")
    p_run.add_argument("scenario")
    p_run.add_argument("--templates", default=None, help="template directory")
    p_run.add_argument("--executor", choices=("sim", "process"), default="sim")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--timeout-default", type=_duration_arg, default=ENGINE_DEFAULT_TIMEOUT)
    p_run.set_defaults(func=cmd_run)

    p_report = sub.add_parser("report", help="render a completed run")
    p_report.add_argument("out_dir")
    p_report.add_argument("--format", choices=("text", "json", "plotdata"), default="text")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
