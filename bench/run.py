"""whatif benchmark: seeded workloads through the public API, checked and timed.

    python3 bench/run.py --workload chain --seed 1 --seconds 30 --trace 0

Each repetition makes the calls `whatif run` makes after set-up:
`run_scenario`, `RunTrace.save`, `MetricsStore.save`, `load_run`,
`build_report` and writing `report.json` into a fresh directory. With
`--trace 0` it prints the end-to-end metrics; with `--trace 1` it alternates
plain and traced repetitions and prints per-layer metrics and the tracing
overhead. The last line of standard output is one JSON object; the exit code
is non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from reference import speed_scale
from workloads import GENERATORS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_PROBES = 20
WARMUP_REPS = 2
TIME_CAP_S = 150.0
# Percentile reported as `<metric>.tail`: p90 on simulated workloads, whose
# repetitions are short, p80 on `process`, whose repetitions wait on children.
TAIL_Q = {"sim": 0.9, "process": 0.8}


class CheckFailed(Exception):
    """An output of the program was wrong; the run must exit non-zero."""


def import_program():
    """Import whatif from this checkout's sources, never from elsewhere."""
    if not (SRC / "whatif" / "__init__.py").is_file():
        raise SystemExit(f"error: no whatif sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import whatif

    if Path(whatif.__file__).resolve().parent != SRC / "whatif":
        raise SystemExit(f"error: imported whatif from {whatif.__file__}, not {SRC}")


# --- statistics --------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile q of the samples."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def min_reps(q: float) -> int:
    """Fewest samples that leave ten beyond the nearest-rank percentile q."""
    n = 10
    while n - math.ceil(q * n) < 10:
        n += 1
    return n


# --- set-up ------------------------------------------------------------------

def probe_setup(workload) -> dict:
    """Run the set-up probe once in a fresh interpreter."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(workload.scenario), str(workload.templates)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, cwd=ROOT)
    if done.returncode != 0:
        raise CheckFailed(f"set-up probe failed: {done.stderr.strip()}")
    return json.loads(done.stdout)


def load_inputs(workload):
    from whatif import dsl

    doc = dsl.parse_scenario(workload.scenario.read_text())
    templates = dsl.load_templates(workload.templates)
    report = dsl.validate(doc, templates)
    if not report.ok:
        raise CheckFailed(f"generated scenario does not validate: {report}")
    return doc, templates


# --- one repetition ------------------------------------------------------------

@dataclass
class Sample:
    run_s: float
    detect_s: float
    teardown_s: float
    ingested: int  # metric lines ingested (process workload only)
    dropped: int
    extra: dict = field(default_factory=dict)


def _stamped_sim_clock():
    from whatif.events import SimClock

    class StampedSimClock(SimClock):
        """Simulated clock that notes the host time of every queue pop."""

        def __init__(self):
            super().__init__()
            self.stamps: list[tuple[float, float]] = []

        def set(self, at: float) -> None:
            self.stamps.append((at, perf_counter()))
            super().set(at)

    return StampedSimClock()


def repetition(workload, doc, templates, seed: int, expected_trace, tracer=None) -> tuple[Sample, bytes]:
    """One run after set-up, then the output checks."""
    from whatif import engine, report
    from whatif.events import WallClock
    from whatif.executors import ProcessExecutor, SimExecutor

    out = Path(tempfile.mkdtemp(dir=WORK))
    try:
        executor = SimExecutor() if workload.executor == "sim" else ProcessExecutor()
        clock = _stamped_sim_clock() if workload.executor == "sim" else WallClock()
        if tracer is not None:
            tracer.phase = "engine"
        start = perf_counter()
        result = engine.run_scenario(doc, templates, executor, clock=clock, seed=seed)
        returned = perf_counter()
        wall_returned = clock.now()
        if tracer is not None:
            tracer.phase = "save"
        result.trace.save(out / report.TRACE_FILE)
        result.store.save(out / report.METRICS_FILE)
        if tracer is not None:
            tracer.phase = "report"
        records, _ = report.load_run(out)
        (out / report.REPORT_FILE).write_text(report.report_json_text(report.build_report(records)))
        run_s = perf_counter() - start
        if tracer is not None:
            tracer.phase = "check"

        if workload.executor == "process":
            alive = [name for name, proc in executor.procs.items() if proc.returncode is None]
            if alive:
                for name in alive:
                    executor.procs[name].kill()
                    executor.procs[name].wait(timeout=10)
                raise CheckFailed(f"children not reaped when run_scenario returned: {alive}")

        if (str(result.outcome), result.reason) != (workload.verdict, workload.reason):
            raise CheckFailed(
                f"verdict {result.outcome}: {result.reason!r}; "
                f"expected {workload.verdict}: {workload.reason!r}")
        trace_bytes = (out / report.TRACE_FILE).read_bytes()
        if expected_trace is not None and trace_bytes != expected_trace:
            raise CheckFailed("trace bytes differ from the first repetition's")
        rebuilt = report.report_json_text(report.build_report(report.load_run(out)[0]))
        if rebuilt != (out / report.REPORT_FILE).read_text():
            raise CheckFailed("build_report(load_run(out)) differs from the written report.json")

        commands = [r for r in records if r.kind == "command"]
        fault_at = first_command_at(commands, "InjectFault")
        if workload.executor == "sim":
            # Simulated time is not host time: map the fault's instant and
            # the pop of the deciding event to the host times of those pops.
            stamps = clock.stamps
            first = bisect_left(stamps, (fault_at, -math.inf))
            verdict_host = stamps[-1][1]
            detect_s = verdict_host - stamps[first][1]
            teardown_s = returned - verdict_host
        else:
            abort_at = first_command_at(commands, "AbortRun")
            detect_s = abort_at - fault_at
            teardown_s = wall_returned - abort_at
        dropped = result.store.dropped
        ingested = len(result.store.series("cpu")) + dropped if workload.executor == "process" else 0
        sample = Sample(run_s, detect_s, teardown_s, ingested, dropped)
        if tracer is not None:
            sample.extra = traced_counts(tracer, records, out, result)
        return sample, trace_bytes
    finally:
        shutil.rmtree(out, ignore_errors=True)


def first_command_at(commands, verb: str) -> float:
    at = next((r.at for r in commands if r.data["verb"] == verb), None)
    if at is None:
        raise CheckFailed(f"no {verb} command in trace.ndjson")
    return at


def traced_counts(tracer, records, out: Path, result) -> dict:
    """Per-repetition layer counts read from the run files, plus the tracer self-check."""
    from whatif import report

    counts = {}
    for record in records:
        if record.kind == "event":
            key = f"engine.events.{record.data['event']}"
            counts[key] = counts.get(key, 0) + 1
            if record.data.get("timer") == "tick":
                counts["engine.ticks"] = counts.get("engine.ticks", 0) + 1
        elif record.kind == "command":
            key = f"engine.commands.{record.data['verb']}"
            counts[key] = counts.get(key, 0) + 1
    transitions = sum(1 for r in records if r.kind == "transition")
    trace_lines = len((out / report.TRACE_FILE).read_text().splitlines())
    metric_lines = len((out / report.METRICS_FILE).read_text().splitlines())
    counts["trace.bytes"] = (out / report.TRACE_FILE).stat().st_size
    counts["telemetry.dropped"] = result.store.dropped
    self_check(tracer.counts, trace_lines, metric_lines, transitions, result.store.dropped)
    return counts


def self_check(counts, trace_lines: int, metric_lines: int, transitions: int, dropped: int) -> None:
    """Traced counts must match the run files exactly."""
    pairs = [
        ("trace.append.calls", counts["trace.append.calls"], "lines in trace.ndjson", trace_lines),
        ("telemetry.ingest.calls - telemetry.dropped", counts["telemetry.ingest.calls"] - dropped,
         "lines in metrics.txt", metric_lines),
        ("lifecycle.advance_to.hops", counts["lifecycle.advance_to.hops"],
         "transition records", transitions),
    ]
    for name, traced, what, actual in pairs:
        if traced != actual:
            raise CheckFailed(f"tracer self-check: {name} = {traced}, but {what} = {actual}")


# --- modes -----------------------------------------------------------------------

def measure_plain(workload, seed: int, seconds: float) -> dict:
    probe_setup(workload)  # warm-up: compiles bytecode, fills the file cache
    doc, templates = load_inputs(workload)
    expected = None
    for _ in range(WARMUP_REPS):
        _, trace_bytes = repetition(workload, doc, templates, seed, expected)
        expected = trace_bytes if workload.executor == "sim" else None
    # Set-up probes are spread over the run, so that a slow spell of the
    # machine affects few of them.
    setups: list[float] = []
    samples: list[Sample] = []
    scales: list[float] = []
    q = TAIL_Q[workload.executor]
    need = min_reps(q)
    # CPU-bound timings are reported at reference speed (reference.py), by the
    # slower of the speeds measured just before and just after. That is all
    # of them except `run_s` on `process`, which mostly waits on its 100 ms
    # timer and on child start-up, neither of which slows with the CPU.
    sim = workload.executor == "sim"
    before = None
    begin = perf_counter()
    while True:
        elapsed = perf_counter() - begin
        if len(setups) < SETUP_PROBES and elapsed >= len(setups) * seconds / SETUP_PROBES:
            probe = probe_setup(workload)
            setups.append(probe["setup_s"] * probe["scale"])
            before = None
            continue
        if (elapsed >= seconds and len(samples) >= need) or elapsed >= TIME_CAP_S:
            break
        if before is None:
            before = speed_scale()
        sample, _ = repetition(workload, doc, templates, seed, expected)
        samples.append(sample)
        after = speed_scale()
        scales.append(min(before, after))
        before = after
    pct = f"p{round(q * 100)}"
    n = len(samples)
    run_scales = scales if sim else [1.0] * n
    run = [s.run_s * k for s, k in zip(samples, run_scales)]
    detect = [s.detect_s * k for s, k in zip(samples, scales)]
    teardown = [s.teardown_s * k for s, k in zip(samples, scales)]
    ref = "at reference speed"
    run_ref = ref if sim else "raw"
    metrics = {
        "setup_s": (statistics.median(setups), "s", f"median, n={len(setups)} fresh interpreters, {ref}"),
        "run_s.p50": (statistics.median(run), "s", f"n={n}, {run_ref}"
                      + (f"; raw median {statistics.median(s.run_s for s in samples):.6f}" if sim else "")),
        "run_s.tail": (percentile(run, q), "s", f"{pct}, n={n}, {run_ref}"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "ru_maxrss of this interpreter"),
        "detect_s.p50": (statistics.median(detect), "s", f"n={n}, {ref}"),
        "detect_s.tail": (percentile(detect, q), "s", f"{pct}, n={n}, {ref}"),
        "teardown_s.p50": (statistics.median(teardown), "s", f"n={n}, {ref}"),
    }
    # An operation is one repetition. A wrong verdict, a differing trace or
    # an unreaped child is a hard failure that ends the run, so `failed` is 0
    # whenever a result is printed.
    attempted, failed = n, 0
    # Metrics that BENCHMARK.json does not list are printed but not gated:
    # see README.md on `detect_s.tail`.
    gated = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    for name, (value, unit, note) in metrics.items():
        print(f"{name:<16} {value:12.6f} {unit:<3} ({note}{'' if name in gated else '; not gated'})")
    print(f"failure share    {failed}/{attempted} = {failed / attempted:.4%} "
          "(repetitions with a wrong verdict, differing trace or unreaped child / repetitions)")
    if workload.executor == "process":
        # Lines lost to the shared-name ordering defect (ROADMAP item 4). The
        # run survives them and their number varies from run to run, so they
        # are reported here and not counted as failed operations.
        ingested = sum(s.ingested for s in samples)
        dropped = sum(s.dropped for s in samples)
        print(f"drop share       {dropped}/{ingested} = {dropped / ingested:.4%} "
              "(metric lines dropped by the store / lines ingested)")
    return {
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in gated},
    }


def measure_traced(workload, seed: int, seconds: float) -> dict:
    from tracer import Tracer

    declared = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    imports = [probe_setup(workload) for _ in range(1 + SETUP_PROBES // 2)][1:]
    tracer = Tracer()
    plain_runs: list[float] = []
    reps: list[dict] = []
    run_self: dict = {}
    expected = None
    begin = perf_counter()
    while True:
        elapsed = perf_counter() - begin
        if (elapsed >= seconds and len(reps) >= 3) or elapsed >= TIME_CAP_S:
            break
        doc, templates = load_inputs(workload)
        sample, trace_bytes = repetition(workload, doc, templates, seed, expected)
        expected = trace_bytes if workload.executor == "sim" else None
        plain_runs.append(sample.run_s)

        tracer.rep = len(reps) + 1
        tracer.keep_spans = not reps
        reps.append(traced_repetition(workload, seed, tracer, expected))
        for name, value in tracer.run_self.items():
            run_self.setdefault(name, []).append(value)

    spans_file = WORK / f"spans-{workload.name}-{seed}.ndjson"
    with open(spans_file, "w") as fh:
        for span_id, parent, rep, name, start, end in tracer.spans:
            fh.write(json.dumps({"id": span_id, "parent": parent, "rep": rep, "name": name,
                                 "start": start, "end": end}) + "\n")

    names = sorted({key for rep in reps for key in rep})
    values = {name: statistics.median(rep.get(name, 0) for rep in reps) for name in names}
    values["tracer.run_s.plain"] = statistics.median(plain_runs)
    values["tracer.overhead_s"] = values["tracer.run_s.traced"] - values["tracer.run_s.plain"]
    values["cli.import_s"] = statistics.median(p["import_s"] for p in imports)
    shares = {name: statistics.median(v) for name, v in run_self.items()}
    run_total = sum(shares.values())

    print(f"traced repetitions: {len(reps)}, medians per repetition "
          f"(spans of the first in {spans_file.relative_to(ROOT)})")
    print(f"{'span':<30} {'calls':>9} {'total_s':>10} {'self_s':>10}  share of self time after set-up")
    spans = sorted((k[:-len(".self_s")] for k in values if k.endswith(".self_s")),
                   key=lambda k: (-shares.get(k, 0.0), k))
    for name in spans:
        share = f"{shares[name] / run_total:6.1%}" if name in shares else "set-up"
        print(f"{name:<30} {values[name + '.calls']:>9.0f} {values[name + '.s']:>10.6f} "
              f"{values[name + '.self_s']:>10.6f}  {share}")
    for name in sorted(declared):
        if declared[name] != "s":
            print(f"{name:<30} {values.get(name, 0):>9.0f}")
    if workload.executor == "process":
        print(f"{'events.pop_lag_s.p50':<30} {values['events.pop_lag_s.p50']:>9.6f}")
    print(f"{'cli.import_s':<30} {values['cli.import_s']:>9.6f} (median of {len(imports)} fresh interpreters)")
    print(f"tracing overhead: {values['tracer.overhead_s']:.6f} s per repetition "
          f"(traced {values['tracer.run_s.traced']:.6f} s, plain {values['tracer.run_s.plain']:.6f} s)")
    layer_check(workload.name, shares, run_total)
    return {
        "correct": True, "attempted": len(reps), "failed": 0,
        "metrics": {name: {"value": values.get(name, 0), "unit": unit} for name, unit in declared.items()},
    }


def traced_repetition(workload, seed: int, tracer, expected_trace) -> dict:
    """Set-up plus one repetition with the tracer installed; returns its layer values."""
    tracer.reset()
    tracer.phase = "setup"
    tracer.install()
    try:
        doc, templates = load_inputs(workload)
        sample, _ = repetition(workload, doc, templates, seed, expected_trace, tracer)
    finally:
        tracer.uninstall()
    values = dict(sample.extra)
    values.update(tracer.counts)
    for name, total in tracer.total.items():
        values[name + ".s"] = total
        values[name + ".self_s"] = tracer.self_time[name]
    values["engine.dependency_checks"] = values.pop("engine.dependency_satisfied.calls", 0)
    values["events.pop_lag_s.p50"] = statistics.median(tracer.lags) if tracer.lags else 0.0
    values["tracer.run_s.traced"] = sample.run_s
    return values


LAYER_CLAIMS = {
    "chain": ("lifecycle.find_node + engine.ready_since hold more self time than any other span",
              ["lifecycle.find_node", "engine.ready_since"], "top"),
    "fanout": ("engine-side dsl.yaml_load + lifecycle.aggregate_phase + expressions.snapshot_scope "
               "hold most of the self time",
               ["dsl.yaml_load.engine", "lifecycle.aggregate_phase", "expressions.snapshot_scope"], 0.5),
    "metrics": ("expressions.eval_metrics + telemetry.query hold at least a third of the self time",
                ["expressions.eval_metrics", "telemetry.query"], 1 / 3),
}


def layer_check(workload: str, shares: dict, total: float) -> None:
    """Print whether the workload still stresses the layer it was chosen for."""
    if workload not in LAYER_CLAIMS:
        return
    claim, names, rule = LAYER_CLAIMS[workload]
    held = sum(shares.get(n, 0.0) for n in names)
    if rule == "top":
        holds = all(held > v for k, v in shares.items() if k not in names)
    else:
        holds = held / total >= rule
    print(f"layer check ({workload}): {claim}: {'yes' if holds else 'NO'} "
          f"({held / total:.1%} of self time after set-up)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        workload = GENERATORS[args.workload](args.seed, Path(tmp))
        print(f"workload {workload.name}, seed {args.seed}, executor {workload.executor}, "
              f"expected {workload.verdict}: {workload.reason}")
        try:
            if args.trace:
                result = measure_traced(workload, args.seed, args.seconds)
            else:
                result = measure_plain(workload, args.seed, args.seconds)
        except CheckFailed as exc:
            print(f"output check failed: {exc}")
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
            return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
