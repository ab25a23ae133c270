"""Operator commands: validate, run, and report scenarios.

Exit codes are part of the contract: 0 success, 1 the test failed,
2 invalid scenario, unreadable input or an unusable run directory, 3 run
aborted (timeout, engine error, or SIGINT, SIGTERM or SIGHUP). Logs go to
stderr; machine-readable output goes to files under the run directory,
also for an aborted run. Each run file is whole or absent.

Each command imports the modules it runs when it starts, so `validate`
loads no engine and `report` loads neither PyYAML, the DSL nor the engine.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import InvalidScenario, WhatifError

EXIT_OK = 0
EXIT_TEST_FAILED = 1
EXIT_INVALID = 2
EXIT_ABORTED = 3


def _load_inputs(scenario_path: str, template_dir):
    """Raises for an unreadable file, text that is not YAML or a bad template library, not for a schema error."""
    from .dsl import load_templates, parse_scenario

    text = Path(scenario_path).read_text()
    doc = parse_scenario(text)
    templates = load_templates(template_dir) if template_dir else {}
    return doc, templates


def cmd_validate(args) -> int:
    from .dsl import validate

    try:
        doc, templates = _load_inputs(args.scenario, args.templates)
    except (OSError, WhatifError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    report = validate(doc, templates)
    print(str(report))
    return EXIT_OK if report.ok else EXIT_INVALID


def _write_whole(path: Path, save) -> None:
    """Write a run file whole or not at all: ``save`` writes a temporary file beside ``path``, which then replaces it."""
    partial = path.with_name(f".{path.name}.partial")
    try:
        save(partial)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def cmd_run(args) -> int:
    from .engine import Engine, Outcome
    from .executors import make_executor
    from .report import METRICS_FILE, REPORT_FILE, TRACE_FILE, CorruptRun, build_report, report_json_text

    try:
        doc, templates = _load_inputs(args.scenario, args.templates)
    except (OSError, WhatifError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        engine = Engine(doc, templates, make_executor(args.executor), seed=args.seed)
    except InvalidScenario as exc:  # the engine validates before it starts anything
        print(str(exc.report), file=sys.stderr)
        return EXIT_INVALID
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID

    # SIGINT, SIGTERM and SIGHUP interrupt the run: the engine kills its jobs
    # and records an Aborted outcome, and the run files get written. Only the
    # first signal during the run interrupts; a later one would cut that
    # cleanup short. A signal after the run is only noted: the outcome is
    # decided, and its run files and exit code stand. Once the files are
    # written, the caller's handlers come back, unless this process is
    # `whatif` itself: it then ignores the three signals until it exits,
    # since the interpreter's own SIGINT handler, or a default disposition,
    # would otherwise replace the run's exit code as the process ends.
    import signal  # here, so that importing the CLI does not load it

    signalled = []  # (signal, whether it came during the run)
    running = True

    def interrupt(signum, frame):
        signalled.append((signum, running))
        if running and len(signalled) == 1:
            raise KeyboardInterrupt

    handlers = {sig: signal.signal(sig, interrupt) for sig in (signal.SIGINT, signal.SIGTERM, signal.SIGHUP)}
    escaped = False  # an exception left the run: whatever its outcome says, the run was not clean
    try:
        try:
            engine.run()
            running = False  # in the try, so that a signal just before it is caught here
        except KeyboardInterrupt:
            escaped = True  # recorded by the engine as `interrupted: KeyboardInterrupt`
        except Exception as exc:  # the engine's last records failed; the trace holds what it recorded
            escaped = True
            print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        records = engine.trace.records
        if records and records[-1].kind == "outcome":  # name only a verdict the run files hold
            print(f"{engine.outcome}: {engine.reason}", file=sys.stderr)
        else:
            print("run cut short before its outcome was recorded", file=sys.stderr)
        try:
            _write_whole(out / TRACE_FILE, engine.trace.save)
            _write_whole(out / METRICS_FILE, engine.store.save)
            report = report_json_text(build_report(engine.trace.records))
            _write_whole(out / REPORT_FILE, lambda path: path.write_text(report))
        except OSError as exc:  # the run is over, but its directory cannot hold its files
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INVALID
        except CorruptRun as exc:  # the engine's own trace holds no report: an internal error
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ABORTED
        for signum, during_run in signalled:
            if not during_run:
                print(f"{signal.Signals(signum).name} after the outcome: ignored", file=sys.stderr)
    finally:
        for sig, handler in handlers.items():
            signal.signal(sig, signal.SIG_IGN if args.own_process else handler)
    if escaped:
        return EXIT_ABORTED
    if engine.outcome == Outcome.SUCCESS:
        return EXIT_OK
    if engine.outcome == Outcome.FAILED:
        return EXIT_TEST_FAILED
    return EXIT_ABORTED


def cmd_report(args) -> int:
    from .report import CorruptRun, build_report, load_run, plot_data, render_text, report_json_text

    try:
        records, store = load_run(args.out_dir)
        report = build_report(records)
    except CorruptRun as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if args.format == "json":
        sys.stdout.write(report_json_text(report))
    elif args.format == "plotdata":
        sys.stdout.write(report_json_text(plot_data(report, store)))
    else:
        sys.stdout.write(render_text(report))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="whatif", description="Event-driven what-if scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="statically check a scenario")
    p_validate.add_argument("scenario")
    p_validate.add_argument("--templates", default=None, help="template directory")
    p_validate.set_defaults(func=cmd_validate)

    p_run = sub.add_parser("run", help="run a scenario and write trace/report files")
    p_run.add_argument("scenario")
    p_run.add_argument("--templates", default=None, help="template directory")
    p_run.add_argument("--executor", choices=("sim", "process"), default="sim")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--out", default="out")
    p_run.set_defaults(func=cmd_run)

    p_report = sub.add_parser("report", help="render a completed run")
    p_report.add_argument("out_dir")
    p_report.add_argument("--format", choices=("text", "json", "plotdata"), default="text")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    """Run one command. With ``argv`` None it is this process's own command line, and the process is `whatif`."""
    args = build_parser().parse_args(argv)
    args.own_process = argv is None
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
