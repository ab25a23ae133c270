"""Metrics store, checkpoints, and the annotation log."""

import pytest
from hypothesis import example, given, settings, strategies as st

from whatif.dsl import parse_scenario
from whatif.engine import Outcome, run_scenario
from whatif.errors import UnknownMetric
from whatif.events import EventKind, EventQueue, WallClock
from whatif.expressions import parse_expression
from whatif.lifecycle import Phase, ResourceNode
from whatif.telemetry import MetricsStore, snapshot


class TestStore:
    def test_ingest_then_query(self):
        store = MetricsStore()
        store.ingest("goroutines", 1200, 5.0)
        assert store.query("goroutines", 0, 10) == [(5.0, 1200)]

    def test_out_of_order_dropped_with_warning(self):
        store = MetricsStore()
        assert store.ingest("m", 1, 10.0)
        assert not store.ingest("m", 2, 9.0)
        assert store.dropped == 1
        assert store.query("m", 0, 100) == [(10.0, 1)]

    def test_nan_dropped_and_counted(self, tmp_path):
        store = MetricsStore()
        assert not store.ingest("m", float("nan"), 1.0)
        assert store.ingest("m", 100.0, 2.0)
        assert store.dropped == 1 and store.series("m") == [(2.0, 100.0)]
        path = tmp_path / "metrics.txt"
        path.write_text("metric m nan 1.0\nmetric m 100.0 2.0\n")
        loaded = MetricsStore.load(path)
        assert loaded.dropped == 1 and loaded.series("m") == [(2.0, 100.0)]

    def test_equal_timestamps_accepted(self):
        store = MetricsStore()
        store.ingest("m", 1, 10.0)
        assert store.ingest("m", 2, 10.0)
        assert len(store.query("m", 0, 100)) == 2

    def test_unknown_metric(self):
        with pytest.raises(UnknownMetric):
            MetricsStore().query("ghost", 0, 1)

    def test_window_before_first_point_is_empty(self):
        store = MetricsStore()
        store.ingest("m", 1, 50.0)
        assert store.query("m", 0, 10) == []

    def test_boundaries_inclusive(self):
        store = MetricsStore()
        for at in (1.0, 2.0, 3.0):
            store.ingest("m", at, at)
        assert [at for at, _ in store.query("m", 1.0, 3.0)] == [1.0, 2.0, 3.0]
        assert [at for at, _ in store.query("m", 1.5, 3.0)] == [2.0, 3.0]

    def test_inverted_window_rejected(self):
        store = MetricsStore()
        store.declare("m")
        with pytest.raises(ValueError):
            store.query("m", 5, 1)

    @given(st.lists(st.tuples(st.floats(min_value=0, max_value=100, allow_nan=False),
                              st.floats(allow_nan=False, min_value=-1e9, max_value=1e9)),
                    max_size=60),
           st.floats(min_value=0, max_value=100), st.floats(min_value=0, max_value=100))
    @settings(max_examples=150)
    def test_query_equals_linear_scan_of_accepted_points(self, points, a, b):
        frm, to = min(a, b), max(a, b)
        store = MetricsStore()
        store.declare("m")
        accepted = []
        last = None
        for at, value in points:
            if store.ingest("m", value, at):
                accepted.append((at, value))
                assert last is None or at >= last
                last = at
        expected = [(at, v) for at, v in accepted if frm <= at <= to]
        assert store.query("m", frm, to) == expected

    def test_ten_thousand_points_window_subset(self):
        store = MetricsStore()
        for i in range(10000):
            store.ingest("m", float(i), i / 100.0)
        window = store.query("m", 10.0, 70.0)  # one minute
        assert window == [(i / 100.0, float(i)) for i in range(1000, 7001)]

    def test_persistence_round_trip(self, tmp_path):
        store = MetricsStore()
        store.ingest("m", 1.5, 0.25)
        store.ingest("m", -2.0, 1.0)
        path = tmp_path / "metrics.txt"
        store.save(path)
        text = path.read_text()
        assert "metric m 1.5 0.25\n" in text
        loaded = MetricsStore.load(path)
        assert loaded.series("m") == store.series("m")

    @pytest.mark.parametrize("stamp", ["nan", "inf", "-inf", "soon"])
    def test_load_rejects_a_stamp_that_is_not_a_finite_number(self, tmp_path, stamp):
        path = tmp_path / "metrics.txt"
        path.write_text(f"metric m 1.0 0.5\nmetric m 2.0 {stamp}\n")
        with pytest.raises(ValueError):
            MetricsStore.load(path)

    @given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False), st.floats(allow_nan=False)),
                    min_size=1, max_size=40))
    @example([(0.0015, 1.0), (0.0016, 2.0), (1.2345678, 3.0), (-0.0, -0.0)])
    @settings(max_examples=150)
    def test_save_then_load_keeps_every_point_bit_for_bit(self, tmp_path_factory, points):
        points.sort(key=lambda point: point[0])
        store = MetricsStore()
        for at, value in points:
            assert store.ingest("m", value, at)
        path = tmp_path_factory.mktemp("run") / "metrics.txt"
        store.save(path)
        loaded = MetricsStore.load(path)
        assert [(at.hex(), value.hex()) for at, value in loaded.series("m")] == [
            (at.hex(), value.hex()) for at, value in points]


class TestNotices:
    def test_unwatched_metrics_push_nothing(self):
        store, queue = MetricsStore(), EventQueue()
        store.watch(["cpu"], queue, WallClock())
        store.ingest("mem", 1.0, 0.0)
        assert len(queue) == 0
        store.ingest("cpu", 1.0, 0.0)
        store.ingest("cpu", 2.0, 0.0)
        assert len(queue) == 1  # one pending event per metric
        assert store.take_notices() == ["cpu"]
        store.ingest("cpu", 3.0, 0.0)
        assert len(queue) == 2

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(["m0", "m1", None]), max_size=60))
    def test_no_point_is_left_without_a_pending_event(self, steps):
        """Ingests of two watched metrics interleaved with the consumer's
        turns (None): once the queue is empty, the consumer has read every
        point (a lost notice would strand some)."""
        store, queue = MetricsStore(), EventQueue()
        names = ["m0", "m1"]
        store.watch(names, queue, WallClock())
        seen = {name: 0 for name in names}

        def consume():
            popped = queue.pop_next()
            if popped is not None:
                assert popped[1].kind is EventKind.METRICS
                for name in store.take_notices():
                    seen[name] = len(store.points_from(name, 0))

        for step in steps:
            if step is None:
                consume()
            else:
                store.ingest(step, 1.0, 0.0)
        while len(queue):
            consume()
        assert seen == {name: steps.count(name) for name in names}


class TestCheckpoints:
    def tree(self):
        root = ResourceNode("scenario", kind="scenario", phase=Phase.RUNNING)
        root.add_child(ResourceNode("svc", phase=Phase.RUNNING))
        return root

    def test_snapshot_reduces_window_max(self):
        store = MetricsStore()
        for at, value in [(10, 900.0), (20, 1000.0), (30, 950.0)]:
            store.ingest("goroutines", value, at)
        exprs = [("goroutines", parse_expression("MAX() QUERY(goroutines, 5m, now)"))]
        values, phases = snapshot(exprs, self.tree(), store, now=40)
        assert values == {"goroutines": 1000.0}
        assert phases["svc"] == Phase.RUNNING

    def test_empty_exprs_phases_only(self):
        values, phases = snapshot([], self.tree(), MetricsStore(), now=1)
        assert values == {}
        assert set(phases) == {"scenario", "svc"}

    def test_quiet_metric_contributes_no_key(self):
        store = MetricsStore()
        store.declare("quiet")
        exprs = [("quiet", parse_expression("MAX() QUERY(quiet, 1m, now)"))]
        values, _ = snapshot(exprs, self.tree(), store, now=5)
        assert "quiet" not in values

    def test_unknown_metric_surfaces(self):
        exprs = [("g", parse_expression("MAX() QUERY(ghost, 1m, now)"))]
        with pytest.raises(UnknownMetric):
            snapshot(exprs, self.tree(), MetricsStore(), now=5)

    def test_repeated_reads_identical(self):
        # A checkpoint is written once, when it is taken: a later point leaves it as it was.
        doc = parse_scenario(
            "spec:\n"
            "- {action: Service, name: svc, service: {script: [{at: 0s, do: running},\n"
            "   {at: 1s, do: metric, name: m, value: 7}, {at: 3s, do: metric, name: m, value: 99},\n"
            "   {at: 4s, do: success}]}}\n"
            "- {action: Checkpoint, name: cp, depends: {running: [svc], after: 2s},\n"
            "   checkpoint: {values: {m: 'LAST() QUERY(m, 1m, now)'}}}\n"
        )
        engine = run_scenario(doc)
        assert engine.outcome is Outcome.SUCCESS
        assert engine.checkpoints == {"cp": {"m": 7.0}}
        [record] = [r for r in engine.trace if r.kind == "checkpoint"]
        assert record.at == 2.0 and record.data["values"] == {"m": 7.0}
