"""Metrics store, checkpoints, and the annotation log."""

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from whatif.errors import DuplicateCheckpoint, UnknownMetric, UnknownRegion
from whatif.events import EventKind, EventQueue, WallClock
from whatif.expressions import parse_expression
from whatif.lifecycle import Phase, ResourceNode
from whatif.telemetry import AnnotationLog, CheckpointRegistry, MetricPoint, MetricsStore


class TestStore:
    def test_ingest_then_query(self):
        store = MetricsStore()
        store.ingest(MetricPoint("goroutines", 1200, 5.0))
        assert store.query("goroutines", 0, 10) == [(5.0, 1200)]

    def test_out_of_order_dropped_with_warning(self):
        store = MetricsStore()
        assert store.ingest(MetricPoint("m", 1, 10.0))
        assert not store.ingest(MetricPoint("m", 2, 9.0))
        assert store.dropped == 1
        assert store.query("m", 0, 100) == [(10.0, 1)]

    def test_equal_timestamps_accepted(self):
        store = MetricsStore()
        store.ingest(MetricPoint("m", 1, 10.0))
        assert store.ingest(MetricPoint("m", 2, 10.0))
        assert len(store.query("m", 0, 100)) == 2

    def test_unknown_metric(self):
        with pytest.raises(UnknownMetric):
            MetricsStore().query("ghost", 0, 1)

    def test_window_before_first_point_is_empty(self):
        store = MetricsStore()
        store.ingest(MetricPoint("m", 1, 50.0))
        assert store.query("m", 0, 10) == []

    def test_boundaries_inclusive(self):
        store = MetricsStore()
        for at in (1.0, 2.0, 3.0):
            store.ingest(MetricPoint("m", at, at))
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
            if store.ingest(MetricPoint("m", value, at)):
                accepted.append((at, value))
                assert last is None or at >= last
                last = at
        expected = [(at, v) for at, v in accepted if frm <= at <= to]
        assert store.query("m", frm, to) == expected

    def test_ten_thousand_points_window_subset(self):
        store = MetricsStore()
        for i in range(10000):
            store.ingest(MetricPoint("m", float(i), i / 100.0))
        window = store.query("m", 10.0, 70.0)  # one minute
        assert window == [(i / 100.0, float(i)) for i in range(1000, 7001)]

    def test_persistence_round_trip(self, tmp_path):
        store = MetricsStore()
        store.ingest(MetricPoint("m", 1.5, 0.25))
        store.ingest(MetricPoint("m", -2.0, 1.0))
        path = tmp_path / "metrics.txt"
        store.save(path)
        text = path.read_text()
        assert "metric m 1.5 250\n" in text
        loaded = MetricsStore.load(path)
        assert loaded.series("m") == store.series("m")


class TestNotices:
    def test_unwatched_metrics_push_nothing(self):
        store, queue = MetricsStore(), EventQueue()
        store.watch(["cpu"], queue, WallClock())
        store.ingest(MetricPoint("mem", 1.0, 0.0))
        assert len(queue) == 0
        store.ingest(MetricPoint("cpu", 1.0, 0.0))
        store.ingest(MetricPoint("cpu", 2.0, 0.0))
        assert len(queue) == 1  # one pending event per metric
        assert store.take_notices() == ["cpu"]
        store.ingest(MetricPoint("cpu", 3.0, 0.0))
        assert len(queue) == 2

    def test_no_point_is_left_without_a_pending_event(self):
        """Watcher threads ingest while a consumer takes notices: after the last
        event, the consumer has read every point (a lost notice would strand some)."""
        store, queue = MetricsStore(), EventQueue()
        names = ["m0", "m1"]
        store.watch(names, queue, WallClock())
        per_thread, threads = 2000, 4
        seen = {name: 0 for name in names}
        done = threading.Event()

        def produce(i):
            for k in range(per_thread):
                store.ingest(MetricPoint(names[i % 2], float(k), 0.0))

        def consume():
            while True:
                popped = queue.pop_next()
                if popped is None:
                    if done.is_set() and len(queue) == 0:
                        return
                    continue
                assert popped[1].kind is EventKind.METRICS
                for name in store.take_notices():
                    seen[name] = len(store.points_from(name, 0))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            producers = [threading.Thread(target=produce, args=(i,)) for i in range(threads)]
            consumer = threading.Thread(target=consume)
            consumer.start()
            for thread in producers:
                thread.start()
            for thread in producers:
                thread.join(timeout=30)
            done.set()
            consumer.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not consumer.is_alive() and not any(t.is_alive() for t in producers)
        assert seen == {name: per_thread * threads // 2 for name in names}


class TestCheckpoints:
    def tree(self):
        root = ResourceNode("scenario", kind="scenario", phase=Phase.RUNNING)
        root.add_child(ResourceNode("svc", phase=Phase.RUNNING))
        return root

    def test_snapshot_reduces_window_max(self):
        store = MetricsStore()
        for at, value in [(10, 900.0), (20, 1000.0), (30, 950.0)]:
            store.ingest(MetricPoint("goroutines", value, at))
        registry = CheckpointRegistry()
        exprs = [("goroutines", parse_expression("MAX() QUERY(goroutines, 5m, now)"))]
        checkpoint = registry.snapshot("maxSeen", exprs, self.tree(), store, now=40)
        assert checkpoint.values == {"goroutines": 1000.0}
        assert checkpoint.phases["svc"] == Phase.RUNNING

    def test_empty_exprs_phases_only(self):
        registry = CheckpointRegistry()
        checkpoint = registry.snapshot("cp", [], self.tree(), MetricsStore(), now=1)
        assert checkpoint.values == {}
        assert set(checkpoint.phases) == {"scenario", "svc"}

    def test_duplicate_name(self):
        registry = CheckpointRegistry()
        registry.snapshot("cp", [], self.tree(), MetricsStore(), now=1)
        with pytest.raises(DuplicateCheckpoint):
            registry.snapshot("cp", [], self.tree(), MetricsStore(), now=2)

    def test_quiet_metric_contributes_no_key(self):
        store = MetricsStore()
        store.declare("quiet")
        registry = CheckpointRegistry()
        exprs = [("quiet", parse_expression("MAX() QUERY(quiet, 1m, now)"))]
        checkpoint = registry.snapshot("cp", exprs, self.tree(), store, now=5)
        assert "quiet" not in checkpoint.values

    def test_unknown_metric_surfaces(self):
        registry = CheckpointRegistry()
        exprs = [("g", parse_expression("MAX() QUERY(ghost, 1m, now)"))]
        with pytest.raises(UnknownMetric):
            registry.snapshot("cp", exprs, self.tree(), MetricsStore(), now=5)

    def test_repeated_reads_identical(self):
        registry = CheckpointRegistry()
        store = MetricsStore()
        store.ingest(MetricPoint("m", 7.0, 1.0))
        exprs = [("m", parse_expression("LAST() QUERY(m, 1m, now)"))]
        registry.snapshot("cp", exprs, self.tree(), store, now=2)
        first = registry.get("cp")
        store.ingest(MetricPoint("m", 99.0, 3.0))
        again = registry.get("cp")
        assert again is first and again.values == {"m": 7.0}


class TestAnnotations:
    def test_region_lifecycle(self):
        log = AnnotationLog()
        log.open_region("partition0", 10.0)
        log.close_region("partition0", 610.0)
        region = log.all()[0]
        assert (region.kind, region.start, region.end) == ("Region", 10.0, 610.0)
        assert log.open_labels() == []

    def test_point(self):
        log = AnnotationLog()
        point = log.point("svc", 1.0)
        assert point.kind == "Point" and point.end is None

    def test_close_unknown(self):
        with pytest.raises(UnknownRegion):
            AnnotationLog().close_region("ghost", 1.0)

    def test_close_clamps_to_start(self):
        log = AnnotationLog()
        log.open_region("r", 5.0)
        region = log.close_region("r", 1.0)
        assert region.end == 5.0
