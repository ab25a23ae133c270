"""Expression parsing, evaluation, reducers, and scope enforcement."""

import itertools
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from whatif.durations import parse_duration
from whatif.errors import ExprSyntaxError, UnknownCheckpoint, UnknownMetric
from whatif.expressions import (
    BoolGroup,
    Compare,
    MetricsExprAst,
    ScopeJob,
    ScopeSnapshot,
    StateCall,
    StateExprAst,
    check_scope,
    eval_metrics,
    eval_reducer,
    eval_state,
    parse_expression,
    reduce_series,
)
from whatif.lifecycle import FailureClass, Phase, ResourceNode, iter_nodes
from whatif.telemetry import MetricsStore

U, P, R, S, F = Phase.UNINITIALIZED, Phase.PENDING, Phase.RUNNING, Phase.SUCCESS, Phase.FAILED
EXP, UNEXP = FailureClass.EXPECTED, FailureClass.UNEXPECTED


def scope(*phases, owner="owner"):
    jobs = tuple(ScopeJob(f"job-{i}", p if isinstance(p, Phase) else p[0],
                          None if isinstance(p, Phase) else p[1])
                 for i, p in enumerate(phases))
    return ScopeSnapshot(owner, jobs)


class TestParse:
    def test_state_example(self):
        ast = parse_expression(".state.failed() > 4")
        assert ast == Compare(StateCall("failed"), ">", 4)

    def test_metrics_example_verbatim(self):
        ast = parse_expression("MAX() QUERY(metric, 1m, now) IS ABOVE(70000)")
        assert isinstance(ast, MetricsExprAst)
        assert ast.reducer == "MAX"
        assert ast.metric == "metric"
        assert ast.window == 60.0
        assert ast.condition.kind == "ABOVE"
        assert ast.condition.terms[0].value == 70000.0

    def test_aggregations_take_no_arguments(self):
        with pytest.raises(ExprSyntaxError, match="no arguments"):
            parse_expression(".state.failed(3) > 1")

    def test_flavor_inference(self):
        assert isinstance(parse_expression(".state.failed() > 0"), StateExprAst)
        assert isinstance(parse_expression("MAX() QUERY(m, 1m, now) IS ABOVE(1)"), MetricsExprAst)

    def test_whitespace_insensitive(self):
        a = parse_expression(".state.failed()>4")
        b = parse_expression("  .state.failed()  >  4 ")
        assert a == b

    def test_keywords_case_sensitive(self):
        with pytest.raises(ExprSyntaxError):
            parse_expression("max() QUERY(m, 1m, now) IS ABOVE(1)")
        with pytest.raises(ExprSyntaxError):
            parse_expression(".state.failed() > 0 and .state.failed() > 1")

    def test_connectives_and_parens(self):
        ast = parse_expression("(.state.running() >= 2) AND (.state.failed() == 0)")
        assert isinstance(ast, BoolGroup) and ast.op == "AND"

    def test_subject_prefix(self):
        ast = parse_expression("masters-0.state.failed() > 0")
        assert ast.call == StateCall("failed", "masters-0")

    def test_phase_string_comparison(self):
        ast = parse_expression('masters-0.state.all() == "Running"')
        assert ast.value == "Running"
        with pytest.raises(ExprSyntaxError, match="== or !="):
            parse_expression('.state.all() > "Running"')
        with pytest.raises(ExprSyntaxError, match=r"\.state\.all"):
            parse_expression('.state.failed() == "Failed"')
        with pytest.raises(ExprSyntaxError, match="unknown phase"):
            parse_expression('.state.all() == "Sideways"')

    def test_checkpoint_reference_with_scale(self):
        ast = parse_expression(
            "MAX() QUERY(goroutines, 5m, now) IS ABOVE(CHECKPOINT(maxSeen.goroutines) * 1.2)"
        )
        term = ast.condition.terms[0]
        assert term.checkpoint == ("maxSeen", "goroutines")
        assert term.scale == 1.2

    def test_within_requires_ordered_bounds(self):
        with pytest.raises(ExprSyntaxError, match="a < b"):
            parse_expression("AVG() QUERY(m, 1m, now) IS WITHIN(5, 5)")

    def test_reducer_only_is_legal(self):
        ast = parse_expression("MAX() QUERY(m, 5m, now)")
        assert ast.condition is None

    def test_error_carries_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expression(".state.failed() > ?")
        assert err.value.position == 18

    @pytest.mark.parametrize("text,message", [
        ("MAX( QUERY(m, 1m, now)", "expected ')', found 'QUERY' (at position 5)"),
        ("MAX() QUERY(m, 1m, later)", "expected 'now', found 'later' (at position 19)"),
        ("9db.state.failed() > 1", "invalid job reference '9db' (at position 0)"),
        (".state.failed() > 1.5", "state comparisons use integer literals (at position 18)"),
        (".state.failed() > AND", "expected literal, found 'AND' (at position 18)"),
        ("MAX() QUERY(5, 1m, now)", "expected metric name, found '5' (at position 12)"),
        ("MAX() QUERY(m, now, now)", "expected window duration, found 'now' (at position 15)"),
        ("MAX() QUERY(m, 1m, now) IS NEAR(1)", "expected condition, found 'NEAR' (at position 27)"),
        ("MAX() QUERY(m, 1m, now) IS ABOVE(CHECKPOINT(base))", "expected CHECKPOINT(name.key) (at position 44)"),
        ("MAX() QUERY(m, 1m, now) IS ABOVE(high)", "expected threshold term, found 'high' (at position 33)"),
    ])
    def test_each_syntax_error_names_what_it_expected(self, text, message):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expression(text)
        assert str(err.value) == message

    @given(st.text(max_size=40))
    @settings(max_examples=300)
    def test_parse_is_total(self, text):
        """Fuzzed input either parses or raises a positioned syntax error."""
        try:
            parse_expression(text)
        except ExprSyntaxError as exc:
            assert 0 <= exc.position <= max(len(text), 1)


class TestEvalState:
    def test_failed_count_threshold(self):
        assert eval_state(parse_expression(".state.failed() > 4"), scope(F, F, F, F, F))
        assert not eval_state(parse_expression(".state.failed() > 4"), scope(F, F, F, F))

    def test_vacuous_empty_scope(self):
        assert eval_state(parse_expression(".state.success() == 0"), scope())

    def test_connectives(self):
        ast = parse_expression("(.state.running() >= 2) AND (.state.failed() == 0)")
        assert eval_state(ast, scope(R, R))
        assert not eval_state(ast, scope(R, (F, UNEXP)))

    def test_failed_counts_expected_failures_too(self):
        ast = parse_expression(".state.failed() == 2")
        assert eval_state(ast, scope((F, EXP), (F, UNEXP)))

    def test_subject_filter(self):
        jobs = ScopeSnapshot("c", (ScopeJob("a", F), ScopeJob("b", R)))
        assert eval_state(parse_expression("a.state.failed() == 1"), jobs)
        assert eval_state(parse_expression("b.state.failed() == 0"), jobs)

    def test_phase_comparison_named_job(self):
        jobs = ScopeSnapshot("c", (ScopeJob("a", R),))
        assert eval_state(parse_expression('a.state.all() == "Running"'), jobs)
        assert eval_state(parse_expression('ghost.state.all() != "Running"'), jobs)

    def test_phase_comparison_aggregate(self):
        assert eval_state(parse_expression('.state.all() == "Running"'), scope(R, S))
        assert eval_state(parse_expression('.state.all() == "Success"'), scope(S, S))

    def test_monotone_in_failed_jobs(self):
        ast = parse_expression(".state.failed() > 2")
        jobs = [F, F]
        for _ in range(5):
            before = eval_state(ast, scope(*jobs))
            jobs.append(F)
            after = eval_state(ast, scope(*jobs))
            assert after or not before  # adding a Failed job never flips true -> false


# Truth-table oracle: expression battery with directly computed expectations.
_BATTERY = [
    (".state.failed() > 1", lambda c: c[F] > 1),
    (".state.failed() == 0", lambda c: c[F] == 0),
    (".state.running() >= 2", lambda c: c[R] >= 2),
    (".state.pending() < 1", lambda c: c[P] < 1),
    (".state.success() != 1", lambda c: c[S] != 1),
    (".state.all() <= 2", lambda c: c["n"] <= 2),
    ("(.state.running() >= 1) AND (.state.failed() == 0)", lambda c: c[R] >= 1 and c[F] == 0),
    ("(.state.failed() > 0) OR (.state.pending() > 0)", lambda c: c[F] > 0 or c[P] > 0),
    ("NOT (.state.failed() > 0)", lambda c: not (c[F] > 0)),
]

_JOB_KINDS = [U, P, R, S, (F, EXP), (F, UNEXP)]


def test_state_truth_table_all_scopes_up_to_three_jobs():
    checked = 0
    for size in range(4):
        for combo in itertools.combinations_with_replacement(_JOB_KINDS, size):
            snap = scope(*combo)
            counts = {phase: 0 for phase in Phase}
            for job in snap.jobs:
                counts[job.phase] += 1
            counts["n"] = len(snap.jobs)
            for text, oracle in _BATTERY:
                assert eval_state(parse_expression(text), snap) == oracle(counts), (text, combo)
                checked += 1
    assert checked == len(_BATTERY) * 84  # 84 multisets of size <= 3 over 6 job kinds


class TestReducers:
    def brute(self, reducer, values):
        return {
            "MAX": max, "MIN": min, "SUM": math.fsum,  # correctly rounded sums
            "AVG": lambda v: math.fsum(v) / len(v),
            "LAST": lambda v: v[-1],
            "COUNT": lambda v: float(len(v)),
        }[reducer](values)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=10),
           st.sampled_from(["MAX", "MIN", "AVG", "SUM", "LAST", "COUNT"]))
    def test_match_brute_force(self, values, reducer):
        assert reduce_series(reducer, values) == self.brute(reducer, values)

    def test_empty_series_has_no_reduction(self):
        with pytest.raises(ValueError):
            reduce_series("MAX", [])


class TestEvalMetrics:
    def store_with(self, points, name="metric"):
        store = MetricsStore()
        for at, value in points:
            store.ingest(name, value, at)
        return store

    def test_above_threshold(self):
        store = self.store_with([(10, 69999), (20, 70001)])
        ast = parse_expression("MAX() QUERY(metric, 1m, now) IS ABOVE(70000)")
        assert eval_metrics(ast, store, now=30)

    def test_empty_window_is_no_alert(self):
        store = self.store_with([(10, 99999)])
        ast = parse_expression("MAX() QUERY(metric, 1m, now) IS ABOVE(1)")
        assert not eval_metrics(ast, store, now=500)

    def test_unknown_metric_is_an_error(self):
        store = MetricsStore()
        ast = parse_expression("MAX() QUERY(ghost, 1m, now) IS ABOVE(1)")
        with pytest.raises(UnknownMetric):
            eval_metrics(ast, store, now=10)

    def test_declared_but_quiet_metric_is_no_alert(self):
        store = MetricsStore()
        store.declare("quiet")
        ast = parse_expression("MAX() QUERY(quiet, 1m, now) IS ABOVE(1)")
        assert not eval_metrics(ast, store, now=10)

    def test_checkpoint_scaling(self):
        # 1000 * 1.2 = 1200 threshold; window max 1100 stays quiet.
        store = self.store_with([(10, 1100)], name="goroutines")
        checkpoints = {"maxSeen": {"goroutines": 1000.0}}
        ast = parse_expression(
            "MAX() QUERY(goroutines, 5m, now) IS ABOVE(CHECKPOINT(maxSeen.goroutines) * 1.2)"
        )
        assert not eval_metrics(ast, store, now=20, checkpoints=checkpoints)
        store2 = self.store_with([(10, 1201)], name="goroutines")
        assert eval_metrics(ast, store2, now=20, checkpoints=checkpoints)
        # The term is read from the checkpoints of each call, never kept.
        assert eval_metrics(ast, store, now=20, checkpoints={"maxSeen": {"goroutines": 900.0}})

    def test_unknown_checkpoint(self):
        store = self.store_with([(10, 1)])
        ast = parse_expression("MAX() QUERY(metric, 1m, now) IS ABOVE(CHECKPOINT(none.key))")
        with pytest.raises(UnknownCheckpoint):
            eval_metrics(ast, store, now=20, checkpoints={})

    def test_within_outside(self):
        store = self.store_with([(10, 5.0)])
        assert eval_metrics(parse_expression("LAST() QUERY(metric, 1m, now) IS WITHIN(4, 6)"), store, now=20)
        assert not eval_metrics(parse_expression("LAST() QUERY(metric, 1m, now) IS OUTSIDE(4, 6)"), store, now=20)
        assert eval_metrics(parse_expression("LAST() QUERY(metric, 1m, now) IS OUTSIDE(1, 2)"), store, now=20)

    def test_referential_transparency(self):
        store = self.store_with([(10, 50), (20, 60)])
        ast = parse_expression("AVG() QUERY(metric, 1m, now) IS ABOVE(54)")
        first = eval_metrics(ast, store, now=30)
        assert all(eval_metrics(ast, store, now=30) == first for _ in range(5))

    def test_eval_reducer_returns_value_or_none(self):
        store = self.store_with([(10, 5.0), (20, 7.0)])
        ast = parse_expression("SUM() QUERY(metric, 1m, now)")
        assert eval_reducer(ast, store, now=30) == 12.0
        assert eval_reducer(ast, store, now=500) is None


class TestScope:
    def nodes(self):
        """The name index of a scenario with two 2-instance clusters."""
        root = ResourceNode("scenario", kind="scenario")
        a = root.add_child(ResourceNode("cluster-a", kind="cluster"))
        b = root.add_child(ResourceNode("cluster-b", kind="cluster"))
        for i in range(2):
            a.add_child(ResourceNode(f"cluster-a-{i}"))
            b.add_child(ResourceNode(f"cluster-b-{i}"))
        return {node.name: node for node in iter_nodes(root)}

    def check(self, ast, owner):
        nodes = self.nodes()
        return check_scope(ast, nodes[owner], nodes)

    def test_own_services_pass(self):
        ast = parse_expression("cluster-a-0.state.failed() > 0")
        assert self.check(ast, "cluster-a") == []

    def test_foreign_jobs_rejected(self):
        ast = parse_expression("cluster-b-0.state.failed() > 0")
        findings = self.check(ast, "cluster-a")
        assert findings and findings[0].severity == "error"
        assert "outside the local scope" in findings[0].message

    def test_metrics_expressions_exempt(self):
        ast = parse_expression("MAX() QUERY(anything, 1m, now) IS ABOVE(1)")
        assert self.check(ast, "cluster-a") == []

    def test_unprefixed_always_local(self):
        ast = parse_expression(".state.failed() > 0")
        assert self.check(ast, "cluster-a") == []

    def test_evaluation_sees_snapshot_only(self):
        """The evaluator cannot observe anything beyond its snapshot."""
        ast = parse_expression(".state.failed() > 0")
        snap = scope(R, S)
        assert eval_state(ast, snap) == eval_state(ast, ScopeSnapshot("elsewhere", snap.jobs))


_SEGMENTS = st.lists(
    st.tuples(st.integers(0, 999), st.none() | st.integers(0, 99), st.sampled_from(["ms", "s", "m", "h"])),
    min_size=1, max_size=4,
)


@given(_SEGMENTS)
@example([(1, None, "h"), (30, None, "m")])  # 1h30m: 5400 s
@settings(max_examples=200, deadline=None)
def test_a_query_window_reads_as_the_duration_it_writes(segments):
    """The tokenizer's duration is the document grammar: `1h30m` is 5400 s in both."""
    text = "".join(f"{whole}{'' if part is None else f'.{part}'}{unit}" for whole, part, unit in segments)
    window = parse_duration(text)
    if window <= 0:
        with pytest.raises(ExprSyntaxError, match="query window must be positive"):
            parse_expression(f"MAX() QUERY(m, {text}, now) IS ABOVE(1)")
    else:
        assert parse_expression(f"MAX() QUERY(m, {text}, now) IS ABOVE(1)").window == window
