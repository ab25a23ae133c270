"""Self-check of the benchmark's tracer: traced counts must match the run files.

    python3 -m pytest bench/tests -q
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from whatif import dsl, engine, lifecycle, report, telemetry  # noqa: E402


@pytest.fixture
def small(monkeypatch, tmp_path):
    """Smaller workloads, same shapes; run files go under the benchmark's work dir."""
    monkeypatch.setattr(workloads, "CHAIN_CALLS", 12)
    monkeypatch.setattr(workloads, "FANOUT_INSTANCES", 8)
    monkeypatch.setattr(workloads, "METRICS_POINTS", 12)
    run.WORK.mkdir(exist_ok=True)
    return tmp_path


@pytest.mark.parametrize("name", ["chain", "fanout", "metrics", "process"])
def test_traced_counts_match_run_files(small, name):
    workload = workloads.GENERATORS[name](3, small)
    tracer = tracer_mod.Tracer()
    values = run.traced_repetition(workload, 3, tracer, None)  # raises CheckFailed on a mismatch
    assert values["trace.append.calls"] > 0
    assert values["lifecycle.advance_to.hops"] > 0
    assert values["dsl.validate.calls"] == 2  # the caller's and Engine.__init__'s
    if name == "metrics":
        assert values["telemetry.ingest.calls"] > 0
        assert values["telemetry.query.points"] > 0


def test_self_check_rejects_a_mismatch():
    counts = {"trace.append.calls": 10, "telemetry.ingest.calls": 5, "lifecycle.advance_to.hops": 7}
    run.self_check(counts, trace_lines=10, metric_lines=4, transitions=7, dropped=1)
    with pytest.raises(run.CheckFailed, match="trace.append.calls"):
        run.self_check(counts, trace_lines=11, metric_lines=4, transitions=7, dropped=1)
    with pytest.raises(run.CheckFailed, match="metrics.txt"):
        run.self_check(counts, trace_lines=10, metric_lines=5, transitions=7, dropped=1)
    with pytest.raises(run.CheckFailed, match="transition"):
        run.self_check(counts, trace_lines=10, metric_lines=4, transitions=8, dropped=1)


def test_uninstall_restores_every_name():
    owners = [engine, engine.Engine, lifecycle, dsl, report, telemetry.MetricsStore]
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracer_mod.Tracer()
    tracer.install()
    assert engine.find_node is not before[0]["find_node"]
    tracer.uninstall()
    assert [dict(vars(owner)) for owner in owners] == before


def test_self_time_excludes_child_spans():
    tracer = tracer_mod.Tracer()
    tracer.phase = "engine"
    child = tracer.span("child", lambda: sum(range(20000)))
    parent = tracer.span("parent", lambda: [child() for _ in range(3)])
    parent()
    assert tracer.counts["child.calls"] == 3
    assert tracer.total["parent"] >= tracer.total["child"]
    assert tracer.self_time["parent"] == pytest.approx(tracer.total["parent"] - tracer.total["child"])


def test_percentile_leaves_ten_samples_beyond():
    for q in (0.8, 0.9):
        n = run.min_reps(q)
        values = list(range(n))
        beyond = sum(1 for v in values if v > run.percentile(values, q))
        assert beyond == 10


def test_missing_command_is_a_check_failure():
    with pytest.raises(run.CheckFailed, match="no AbortRun command"):
        run.first_command_at([], "AbortRun")
