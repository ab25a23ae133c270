"""State and metrics expressions: parsing, evaluation, scope checking.

Two grammars share one tokenizer. State expressions aggregate the lifecycle
phases of jobs in the asserting entity's local scope::

    .state.failed() > 4
    (.state.running() >= 2) AND (.state.failed() == 0)
    masters-0.state.all() == "Running"

Metrics expressions are alert-style rules over the telemetry store::

    MAX() QUERY(metric, 1m, now) IS ABOVE(70000)
    MAX() QUERY(goroutines, 5m, now) IS ABOVE(CHECKPOINT(maxSeen.goroutines) * 1.2)

A metrics expression without a condition ("reducer-only") is legal inside
Checkpoint bodies, where it yields the reduced value instead of a boolean.
Expressions evaluate as alerts: a true result means the asserted bad
condition holds and the run must fail.
"""

from __future__ import annotations

import math
import re
from collections import deque
from typing import Optional, Sequence

from .durations import _SEGMENT, parse_duration
from .errors import ExprSyntaxError, Finding, UnknownCheckpoint
from .lifecycle import (
    FailureClass,
    Phase,
    ResourceNode,
    aggregate_phase,
    find_node,  # unused here; bench/tracer.py wraps it on this module
    iter_nodes,  # likewise unused here, and wrapped there
)
from .values import FrozenValue

STATE_FNS = ("failed", "running", "success", "pending", "all")
REDUCERS = ("MAX", "MIN", "AVG", "SUM", "LAST", "COUNT")
_PHASE_NAMES = tuple(p.value for p in Phase)
_FN_PHASE = {
    "failed": Phase.FAILED,
    "running": Phase.RUNNING,
    "success": Phase.SUCCESS,
    "pending": Phase.PENDING,
}
_SUBJECT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*")


# --- ASTs -------------------------------------------------------------------

class StateExprAst(FrozenValue):
    """Marker base for state-expression nodes."""

    __slots__ = ()


class StateCall(StateExprAst):
    """Aggregation call `.state.<fn>()`, optionally scoped to one job name."""

    __slots__ = ("fn", "subject")

    def __init__(self, fn: str, subject: Optional[str] = None):
        self.fn = fn
        self.subject = subject


class Compare(StateExprAst):
    __slots__ = ("call", "op", "value")

    def __init__(self, call: StateCall, op: str, value: object):
        self.call = call
        self.op = op  # < <= > >= == !=
        self.value = value  # int count, or phase-name string (==/!= on .all() only)


class Not(StateExprAst):
    __slots__ = ("item",)

    def __init__(self, item: StateExprAst):
        self.item = item


class BoolGroup(StateExprAst):
    __slots__ = ("op", "items")

    def __init__(self, op: str, items: tuple):
        self.op = op  # AND | OR
        self.items = items


class Term(FrozenValue):
    """Threshold term: a number or CHECKPOINT(name.key), optionally scaled."""

    __slots__ = ("value", "checkpoint", "scale")

    def __init__(self, value: Optional[float] = None, checkpoint: Optional[tuple] = None, scale: float = 1.0):
        self.value = value
        self.checkpoint = checkpoint  # (checkpoint name, key)
        self.scale = scale


class Condition(FrozenValue):
    __slots__ = ("kind", "terms", "_bounds")
    _uncompared = ("_bounds",)

    def __init__(self, kind: str, terms: tuple):
        self.kind = kind  # ABOVE | BELOW | WITHIN | OUTSIDE
        self.terms = terms
        # Constant thresholds, resolved once. A checkpoint term is resolved at each
        # evaluation, since a rule can be read before its checkpoint is taken.
        self._bounds = None if any(t.checkpoint for t in terms) else tuple([t.value * t.scale for t in terms])


class MetricsExprAst(FrozenValue):
    __slots__ = ("reducer", "metric", "window", "condition")

    def __init__(
        self,
        reducer: str,
        metric: str,
        window: float,
        condition: Optional[Condition] = None,
    ):
        self.reducer = reducer
        self.metric = metric
        self.window = window  # seconds looking back from now
        self.condition = condition


class ScopeJob(FrozenValue):
    __slots__ = ("name", "phase", "failure_class")

    def __init__(self, name: str, phase: Phase, failure_class: Optional[FailureClass] = None):
        self.name = name
        self.phase = phase
        self.failure_class = failure_class


class ScopeSnapshot(FrozenValue):
    """Jobs visible to one asserting entity: only those it created.

    ``eval_state`` reads a scope only through ``count``, ``phase_of`` and
    ``aggregate``. A snapshot answers them by scanning its jobs; it is the
    reference for the engine's scopes, which answer from phase counts.
    """

    __slots__ = ("owner", "jobs")

    def __init__(self, owner: str, jobs: tuple = ()):
        self.owner = owner
        self.jobs = jobs

    def count(self, fn: str, subject: Optional[str] = None) -> int:
        """How many jobs (only ``subject``, when named) the state fn counts."""
        jobs = self.jobs
        if subject is not None:
            jobs = tuple(j for j in jobs if j.name == subject)
        if fn == "all":
            return len(jobs)
        want = _FN_PHASE[fn]
        return sum(1 for j in jobs if j.phase == want)

    def phase_of(self, subject: str) -> Optional[Phase]:
        """The named job's phase; None when it is not in the scope."""
        return next((j.phase for j in self.jobs if j.name == subject), None)

    def aggregate(self) -> Phase:
        """The phase of the whole scope, tolerating no failure."""
        return aggregate_phase([(j.phase, j.failure_class) for j in self.jobs])


# --- tokenizer ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<statefn>[A-Za-z0-9_.-]*\.state\.[A-Za-z_]+)
    | (?P<duration>(?:""" + _SEGMENT.pattern + r""")+\b)
    | (?P<number>\d+(?:\.\d+)?)
    | (?P<string>'[^']*'|"[^"]*")
    | (?P<word>[A-Za-z_][A-Za-z0-9_.:-]*)
    | (?P<op><=|>=|==|!=|<|>)
    | (?P<lparen>\()
    | (?P<rparen>\))
    | (?P<comma>,)
    | (?P<star>\*)
    """,
    re.VERBOSE,
)


class _Token(FrozenValue):
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = match.lastgroup
        if kind != "ws":
            tokens.append(_Token(kind, match.group(), pos))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> Optional[_Token]:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def next(self) -> _Token:
        token = self.peek()
        if token is None:
            raise ExprSyntaxError("unexpected end of expression", len(self.text))
        self.index += 1
        return token

    def expect(self, kind: str, what: str) -> _Token:
        token = self.next()
        if token.kind != kind:
            raise ExprSyntaxError(f"expected {what}, found {token.text!r}", token.pos)
        return token

    def expect_word(self, word: str) -> _Token:
        token = self.next()
        if token.kind != "word" or token.text != word:
            raise ExprSyntaxError(f"expected {word!r}, found {token.text!r}", token.pos)
        return token

    def done(self) -> None:
        token = self.peek()
        if token is not None:
            raise ExprSyntaxError(f"unexpected trailing input {token.text!r}", token.pos)


# --- state grammar ------------------------------------------------------------

def _parse_state(parser: _Parser) -> StateExprAst:
    node = _parse_state_and(parser)
    while True:
        token = parser.peek()
        if token is not None and token.kind == "word" and token.text == "OR":
            parser.next()
            rhs = _parse_state_and(parser)
            node = BoolGroup("OR", (node, rhs))
        else:
            return node


def _parse_state_and(parser: _Parser) -> StateExprAst:
    node = _parse_state_unary(parser)
    while True:
        token = parser.peek()
        if token is not None and token.kind == "word" and token.text == "AND":
            parser.next()
            rhs = _parse_state_unary(parser)
            node = BoolGroup("AND", (node, rhs))
        else:
            return node


def _parse_state_unary(parser: _Parser) -> StateExprAst:
    token = parser.peek()
    if token is not None and token.kind == "word" and token.text == "NOT":
        parser.next()
        return Not(_parse_state_unary(parser))
    if token is not None and token.kind == "lparen":
        parser.next()
        node = _parse_state(parser)
        parser.expect("rparen", "')'")
        return node
    return _parse_state_comparison(parser)


def _parse_state_comparison(parser: _Parser) -> Compare:
    token = parser.next()
    if token.kind != "statefn":
        raise ExprSyntaxError(f"expected aggregation call, found {token.text!r}", token.pos)
    prefix, fn = token.text.rsplit(".state.", 1)
    if fn not in STATE_FNS:
        raise ExprSyntaxError(f"unknown aggregation function {fn!r}", token.pos)
    if prefix and not _SUBJECT_RE.fullmatch(prefix):
        raise ExprSyntaxError(f"invalid job reference {prefix!r}", token.pos)
    parser.expect("lparen", "'('")
    closing = parser.next()
    if closing.kind != "rparen":
        raise ExprSyntaxError("aggregation functions take no arguments", closing.pos)
    call = StateCall(fn, prefix or None)

    op_token = parser.expect("op", "comparison operator")
    value_token = parser.next()
    if value_token.kind == "number":
        if "." in value_token.text:
            raise ExprSyntaxError("state comparisons use integer literals", value_token.pos)
        return Compare(call, op_token.text, int(value_token.text))
    if value_token.kind == "string":
        phase_name = value_token.text[1:-1]
        if op_token.text not in ("==", "!="):
            raise ExprSyntaxError("phase names compare with == or != only", op_token.pos)
        if phase_name not in _PHASE_NAMES:
            raise ExprSyntaxError(f"unknown phase name {phase_name!r}", value_token.pos)
        if call.fn != "all":
            raise ExprSyntaxError("phase comparison requires .state.all()", value_token.pos)
        return Compare(call, op_token.text, phase_name)
    raise ExprSyntaxError(f"expected literal, found {value_token.text!r}", value_token.pos)


# --- metrics grammar -----------------------------------------------------------

def _parse_metrics(parser: _Parser) -> MetricsExprAst:
    reducer_token = parser.next()
    if reducer_token.kind != "word" or reducer_token.text not in REDUCERS:
        raise ExprSyntaxError(
            f"expected reducer {'/'.join(REDUCERS)}, found {reducer_token.text!r}",
            reducer_token.pos,
        )
    parser.expect("lparen", "'('")
    parser.expect("rparen", "')'")
    parser.expect_word("QUERY")
    parser.expect("lparen", "'('")
    metric_token = parser.next()
    if metric_token.kind != "word":
        raise ExprSyntaxError(f"expected metric name, found {metric_token.text!r}", metric_token.pos)
    parser.expect("comma", "','")
    window_token = parser.next()
    if window_token.kind not in ("duration", "number"):
        raise ExprSyntaxError(f"expected window duration, found {window_token.text!r}", window_token.pos)
    try:
        window = parse_duration(window_token.text)
    except ValueError as exc:  # digits that overflow a float
        raise ExprSyntaxError(f"query window: {exc}", window_token.pos) from exc
    if window <= 0:
        raise ExprSyntaxError("query window must be positive", window_token.pos)
    parser.expect("comma", "','")
    parser.expect_word("now")
    parser.expect("rparen", "')'")

    condition = None
    if parser.peek() is not None:
        parser.expect_word("IS")
        kind_token = parser.next()
        if kind_token.kind != "word" or kind_token.text not in ("ABOVE", "BELOW", "WITHIN", "OUTSIDE"):
            raise ExprSyntaxError(f"expected condition, found {kind_token.text!r}", kind_token.pos)
        parser.expect("lparen", "'('")
        terms = [_parse_term(parser)]
        if kind_token.text in ("WITHIN", "OUTSIDE"):
            parser.expect("comma", "','")
            terms.append(_parse_term(parser))
        condition = Condition(kind_token.text, tuple(terms))
        if len(terms) == 2 and condition._bounds and condition._bounds[0] >= condition._bounds[1]:
            raise ExprSyntaxError(f"{kind_token.text} bounds require a < b", kind_token.pos)
        parser.expect("rparen", "')'")
    return MetricsExprAst(reducer_token.text, metric_token.text, window, condition)


def _parse_term(parser: _Parser) -> Term:
    token = parser.next()
    if token.kind == "word" and token.text == "CHECKPOINT":
        parser.expect("lparen", "'('")
        ref_token = parser.next()
        if ref_token.kind != "word" or "." not in ref_token.text:
            raise ExprSyntaxError("expected CHECKPOINT(name.key)", ref_token.pos)
        name, key = ref_token.text.split(".", 1)
        parser.expect("rparen", "')'")
        return Term(checkpoint=(name, key), scale=_parse_scale(parser))
    if token.kind == "number":
        return Term(value=float(token.text), scale=_parse_scale(parser))
    raise ExprSyntaxError(f"expected threshold term, found {token.text!r}", token.pos)


def _parse_scale(parser: _Parser) -> float:
    token = parser.peek()
    if token is not None and token.kind == "star":
        parser.next()
        factor = parser.expect("number", "scale factor")
        return float(factor.text)
    return 1.0


def parse_expression(text: str) -> StateExprAst | MetricsExprAst:
    """Parse an expression: a metrics one iff the text has a QUERY term, else a state one.

    Raises ExprSyntaxError with the offending character position.
    """
    parser = _Parser(text)
    if re.search(r"\bQUERY\b", text):
        ast = _parse_metrics(parser)
    else:
        ast = _parse_state(parser)
    parser.done()
    return ast


# --- evaluation ----------------------------------------------------------------

def eval_state(ast: StateExprAst, scope) -> bool:
    """Evaluate a state expression against one scope.

    ``scope`` answers the three questions of ``ScopeSnapshot``. Aggregations
    count jobs in the scope only; `.state.failed()` counts every Failed job
    regardless of its failure class. `.state.all() == "Phase"` compares the
    named job's phase, or the aggregate phase of the whole scope when no job
    is named.
    """
    if isinstance(ast, BoolGroup):
        if ast.op == "AND":
            return all(eval_state(item, scope) for item in ast.items)
        return any(eval_state(item, scope) for item in ast.items)
    if isinstance(ast, Not):
        return not eval_state(ast.item, scope)
    if isinstance(ast, Compare):
        call = ast.call
        if isinstance(ast.value, str):
            actual = scope.aggregate() if call.subject is None else scope.phase_of(call.subject)
            result = actual is not None and actual.value == ast.value
            return result if ast.op == "==" else not result
        return _apply_op(scope.count(call.fn, call.subject), ast.op, ast.value)
    raise TypeError(f"not a state expression: {ast!r}")


def _apply_op(lhs, op: str, rhs) -> bool:
    if op == "<":
        return lhs < rhs
    if op == "<=":
        return lhs <= rhs
    if op == ">":
        return lhs > rhs
    if op == ">=":
        return lhs >= rhs
    if op == "==":
        return lhs == rhs
    return lhs != rhs


def reduce_series(reducer: str, values: Sequence[float]) -> float:
    """The brute-force reduction; SUM and AVG use the correctly rounded ``math.fsum``."""
    if not values:
        raise ValueError("cannot reduce an empty series")
    if reducer == "MAX":
        return max(values)
    if reducer == "MIN":
        return min(values)
    if reducer == "AVG":
        return math.fsum(values) / len(values)
    if reducer == "SUM":
        return math.fsum(values)
    if reducer == "LAST":
        return values[-1]
    if reducer == "COUNT":
        return float(len(values))
    raise ValueError(f"unknown reducer {reducer!r}")


def eval_reducer(ast: MetricsExprAst, store, now: float) -> Optional[float]:
    """Apply the reducer over the query window; None when no data arrived."""
    series = store.query(ast.metric, now - ast.window, now)
    if not series:
        return None
    return reduce_series(ast.reducer, [value for _, value in series])


def eval_metrics(ast: MetricsExprAst, store, now: float, checkpoints=None) -> bool:
    """Evaluate an alert rule. An empty window is no data, hence no alert."""
    if ast.condition is None:
        raise ValueError("metrics expression has no condition; use eval_reducer")
    return alert_holds(ast, eval_reducer(ast, store, now), checkpoints)


def alert_holds(ast: MetricsExprAst, value: Optional[float], checkpoints=None) -> bool:
    """Whether the rule's condition holds for its reduced window ``value``.

    ``checkpoints`` maps each checkpoint taken so far to its values.
    """
    if value is None:
        return False
    terms = ast.condition._bounds
    if terms is None:
        terms = [_resolve_term(t, checkpoints) for t in ast.condition.terms]
    kind = ast.condition.kind
    if kind == "ABOVE":
        return value > terms[0]
    if kind == "BELOW":
        return value < terms[0]
    low, high = terms
    if low >= high:
        raise ValueError(f"{kind} bounds require a < b, got {low} >= {high}")
    if kind == "WITHIN":
        return low < value < high
    return value < low or value > high  # OUTSIDE


def _resolve_term(term: Term, checkpoints) -> float:
    if term.checkpoint is None:
        return term.value * term.scale
    name, key = term.checkpoint
    values = checkpoints.get(name) if checkpoints is not None else None
    if values is None:
        raise UnknownCheckpoint(name)
    if key not in values:
        raise UnknownCheckpoint(f"{name}.{key}")
    return values[key] * term.scale


# --- incremental windows ---------------------------------------------------------

# Values below this magnitude are summed exactly: fewer than 2**23 of them
# cannot overflow a partial sum.
_EXACT_LIMIT = 2.0 ** 1000


class WindowAggregate:
    """One rule's reducer over its query window, kept as points arrive and expire.

    The window holds the points of ``metric`` with ``now - window <= at <=
    now``, the test ``MetricsStore.query`` applies. ``advance`` admits the
    points accepted since its last call, read in place from the store's
    columns, and evicts those that left the window, each once, so a point
    costs O(1) amortized instead of a copy of the window per evaluation. MAX
    and MIN keep a monotonic deque; SUM and AVG keep exact Shewchuk partials
    (a value is added on admission and its negation on eviction), so they
    equal ``reduce_series`` bit for bit. While the window holds a non-finite
    or huge value it reduces by brute force.
    """

    def __init__(self, metric: str, reducer: str, window: float):
        self.metric = metric
        self.reducer = reducer
        self.window = window
        self.points: deque = deque()  # (at, value) in the window, oldest first
        self.admitted = 0  # store index of the next point to admit
        self.upcoming: Optional[float] = None  # stamp of the first point after now
        self.extremes: deque = deque()  # MAX/MIN: (store index, value), monotonic
        self.partials: list = []  # SUM/AVG: non-overlapping, exact sum of the window
        self.inexact = 0  # window values kept out of extremes and partials
        self.oldest = self.expiry = None  # the oldest point's stamp at the last expiry search, and its expiry

    def advance(self, store, now: float) -> Optional[float]:
        """The reduced window at ``now``; None when the window is empty."""
        times, values = store.columns(self.metric)
        index, end = self.admitted, len(times)
        while index < end and times[index] <= now:
            self._admit(times[index], values[index])
            index += 1
        self.upcoming = times[index] if index < end else None
        lower = now - self.window
        while self.points and self.points[0][0] < lower:
            self._evict()
        return self.value()

    def next_change(self) -> Optional[float]:
        """The first instant after the last ``advance`` at which the window changes
        without a new point: the oldest point expires or a future-stamped one enters."""
        due = self.upcoming
        if self.points:
            oldest = self.points[0][0]
            if oldest != self.oldest:
                self.oldest, self.expiry = oldest, expiry_instant(oldest, self.window)
            due = self.expiry if due is None else min(due, self.expiry)
        return due

    def value(self) -> Optional[float]:
        if not self.points:
            return None
        reducer = self.reducer
        if self.inexact:
            return reduce_series(reducer, [value for _, value in self.points])
        if reducer in ("MAX", "MIN"):
            return self.extremes[0][1]
        if reducer == "LAST":
            return self.points[-1][1]
        if reducer == "COUNT":
            return float(len(self.points))
        total = math.fsum(self.partials)
        return total if reducer == "SUM" else total / len(self.points)

    def _admit(self, at: float, value: float) -> None:
        index = self.admitted
        self.admitted += 1
        self.points.append((at, value))
        if not -_EXACT_LIMIT < value < _EXACT_LIMIT:
            self.inexact += 1
        elif self.reducer == "MAX":
            while self.extremes and self.extremes[-1][1] < value:
                self.extremes.pop()
            self.extremes.append((index, value))
        elif self.reducer == "MIN":
            while self.extremes and self.extremes[-1][1] > value:
                self.extremes.pop()
            self.extremes.append((index, value))
        elif self.reducer in ("SUM", "AVG"):
            _add_partial(self.partials, value)

    def _evict(self) -> None:
        index = self.admitted - len(self.points)
        _, value = self.points.popleft()
        if not -_EXACT_LIMIT < value < _EXACT_LIMIT:
            self.inexact -= 1
        elif self.extremes and self.extremes[0][0] == index:
            self.extremes.popleft()
        elif self.reducer in ("SUM", "AVG"):
            _add_partial(self.partials, -value)


def _add_partial(partials: list, x: float) -> None:
    """Add ``x`` to an exact sum kept as non-overlapping partials (Shewchuk 1997)."""
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


def expiry_instant(at: float, window: float) -> float:
    """The first instant ``now`` at which a point stamped ``at`` fails ``at >= now - window``."""
    # Bracket the answer between an instant still inside (lo) and one past it
    # (hi), around the estimate at + window, then bisect down to adjacent floats.
    lo = hi = at + window
    step = math.ulp(hi)
    while not at < hi - window:
        lo, hi, step = hi, hi + step, step * 2
    step = math.ulp(lo)
    while at < lo - window:
        hi, lo, step = lo, lo - step, step * 2
    while True:
        mid = lo + (hi - lo) / 2
        if not lo < mid < hi:
            return hi
        if at < mid - window:
            hi = mid
        else:
            lo = mid


# --- scope enforcement -----------------------------------------------------------

def scope_job_nodes(owner_node: ResourceNode) -> list[ResourceNode]:
    """The jobs one resource may assert over: exactly those it created.

    Clusters see their child services, and leaf actions see their own single
    job.
    """
    if owner_node.children:
        return list(owner_node.children)
    return [owner_node]


def snapshot_scope(owner_node: ResourceNode) -> ScopeSnapshot:
    """Freeze the owner's local jobs into an immutable snapshot."""
    jobs = tuple(
        ScopeJob(node.name, node.phase, node.failure_class)
        for node in scope_job_nodes(owner_node)
    )
    return ScopeSnapshot(owner_node.name, jobs)


def check_scope(ast, owner_node: ResourceNode, nodes: dict) -> list[Finding]:
    """Reject state expressions that reach outside the owner's local scope.

    Jobs referenced by name must have been created by the owner. ``nodes``
    maps every name of the tree to its node. Metrics expressions are exempt:
    cross-references to a job's performance metrics are allowed.
    """
    if isinstance(ast, MetricsExprAst):
        return []
    owner = owner_node.name
    allowed = {node.name for node in scope_job_nodes(owner_node)}
    findings = []
    for compare in iter_compares(ast):
        call = compare.call
        if call.subject is None or call.subject in allowed:
            continue
        if call.subject in nodes:
            message = f"references job {call.subject!r} outside the local scope"
        else:
            message = f"references unknown job {call.subject!r}"
        findings.append(Finding("error", owner, message))
    return findings


def iter_compares(ast):
    """Every comparison of a state expression, in document order; nothing for any other AST."""
    if isinstance(ast, Compare):
        yield ast
    elif isinstance(ast, Not):
        yield from iter_compares(ast.item)
    elif isinstance(ast, BoolGroup):
        for item in ast.items:
            yield from iter_compares(item)
