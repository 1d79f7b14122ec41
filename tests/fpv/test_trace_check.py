"""Unit tests for assertion checking over simulation traces."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fpv import TraceChecker, TraceCheckResult, check_on_trace
from repro.hdl import Design, ast
from repro.sim import Simulator, Trace
from repro.sim.compile import COMPILED, INTERPRETED, make_evaluator
from repro.sim.eval import EvalError
from repro.sva import parse_assertion
from repro.sva.model import NON_OVERLAPPED, OVERLAPPED, Assertion, SequenceTerm


@pytest.fixture(scope="module")
def arb2_trace(arb2_design):
    return Simulator(arb2_design).run(cycles=300, seed=5)


class TestTraceChecker:
    def test_proven_style_assertion_holds(self, arb2_design, arb2_trace):
        checker = TraceChecker(arb2_design.model)
        assertion = parse_assertion("(req1 == 1 && req2 == 0) |-> (gnt1 == 1);")
        result = checker.check(assertion, arb2_trace)
        assert result.holds
        assert result.triggers > 0
        assert not result.vacuous

    def test_failing_assertion_reports_cycles(self, arb2_design, arb2_trace):
        checker = TraceChecker(arb2_design.model)
        assertion = parse_assertion("(req1 == 1) |-> (gnt2 == 1);")
        result = checker.check(assertion, arb2_trace)
        assert result.violations > 0
        assert result.first_violation is not None
        assert len(result.failed_terms) == result.violations

    def test_vacuous_assertion_detected(self, arb2_design, arb2_trace):
        checker = TraceChecker(arb2_design.model)
        assertion = parse_assertion("(gnt_ == 3) |-> (gnt1 == 1);")
        result = checker.check(assertion, arb2_trace)
        assert result.vacuous
        assert result.holds

    def test_temporal_assertion_attempt_window(self, arb2_design):
        trace = Trace(signals=list(arb2_design.model.signals))
        base = {name: 0 for name in arb2_design.model.signals}
        for req1 in (1, 1, 0, 0):
            row = dict(base)
            row["req1"] = req1
            trace.append(row)
        checker = TraceChecker(arb2_design.model)
        assertion = parse_assertion("(req1 == 1) ##1 (req1 == 1) |=> (gnt1 == 0);")
        result = checker.check(assertion, trace)
        # only start cycles 0..(len-depth-1) are attempted
        assert result.attempts == len(trace) - assertion.temporal_depth
        assert result.triggers == 1

    def test_disable_iff_suppresses_attempts(self, arb2_design, arb2_trace):
        checker = TraceChecker(arb2_design.model)
        plain = parse_assertion("(req1 == 1) |-> (gnt1 == 1);")
        disabled = parse_assertion("disable iff (req1) (req1 == 1) |-> (gnt1 == 1);")
        assert checker.check(disabled, arb2_trace).triggers == 0
        assert checker.check(plain, arb2_trace).triggers > 0

    def test_check_on_trace_wrapper(self, arb2_design, arb2_trace):
        assertion = parse_assertion("(req2 == 1 && req1 == 0) |-> (gnt2 == 1);")
        result = check_on_trace(assertion, arb2_trace, arb2_design.model)
        assert result.holds

    def test_holds_on_helper(self, arb2_design, arb2_trace):
        checker = TraceChecker(arb2_design.model)
        assert checker.holds_on(
            parse_assertion("(req1 == 0 && req2 == 0) |-> (gnt1 == 0);"), arb2_trace
        )


# -- differential check against the start-by-start reference ---------------------

_DIFF_SOURCE = """
module diff(clk, rst, en, count);
  input clk, rst, en;
  output reg [3:0] count;
  always @(posedge clk) count <= rst ? 0 : count + en;
endmodule
"""
_DIFF_DESIGN = Design.from_source(_DIFF_SOURCE, name="diff")
_DIFF_SIGNALS = list(_DIFF_DESIGN.model.signals)


def reference_check(evaluator, assertion: Assertion, trace: Trace) -> TraceCheckResult:
    """The start-by-start checker the truth-mask version replaced."""

    def truth(expr, cycle):
        return bool(evaluator.eval(expr, trace.row(cycle)))

    result = TraceCheckResult()
    consequent = assertion.consequent_terms_absolute()
    last_start = trace.num_cycles - assertion.temporal_depth - 1
    for start in range(0, last_start + 1):
        result.attempts += 1
        if not all(truth(term.expr, start + term.offset) for term in assertion.antecedent):
            continue
        if assertion.disable_iff is not None and truth(assertion.disable_iff, start):
            continue
        result.triggers += 1
        for term in consequent:
            if not truth(term.expr, start + term.offset):
                result.violations += 1
                result.violation_cycles.append(start)
                result.failed_terms.append(str(term.expr))
                break
    return result


def _outcome(check, assertion, trace):
    try:
        result = check(assertion, trace)
    except EvalError:
        return "EvalError"
    return (
        result.attempts,
        result.triggers,
        result.violations,
        result.violation_cycles,
        result.failed_terms,
    )


_count = ast.Identifier("count")
_en = ast.Identifier("en")
_rst = ast.Identifier("rst")
#: Never recorded: evaluating it raises, but only where evaluation reaches it.
_ghost = ast.Identifier("ghost")

_exprs = st.one_of(
    st.builds(lambda v: ast.Binary("==", _count, ast.Number(v)), st.integers(0, 3)),
    st.builds(lambda b: ast.BitSelect(_count, ast.Number(b)), st.integers(0, 3)),
    st.sampled_from(
        [
            _en,
            _rst,
            ast.Unary("!", _en),
            ast.Binary("||", _rst, ast.Binary("==", _count, ast.Number(2))),
            ast.Binary("&&", ast.Binary("==", _count, ast.Number(3)), _ghost),
        ]
    ),
)
_terms = st.lists(st.builds(SequenceTerm, st.integers(0, 3), _exprs), min_size=1, max_size=3)
_assertions = st.builds(
    Assertion,
    antecedent=_terms,
    consequent=_terms,
    implication=st.sampled_from([OVERLAPPED, NON_OVERLAPPED]),
    disable_iff=st.one_of(st.none(), _exprs),
)
_rows = st.lists(
    st.fixed_dictionaries(
        {
            "clk": st.integers(0, 1),
            "rst": st.integers(0, 1),
            "en": st.integers(0, 1),
            "count": st.integers(0, 4),
        }
    ),
    max_size=12,
)


def _trace(rows) -> Trace:
    trace = Trace(signals=list(_DIFF_SIGNALS))
    for row in rows:
        trace.append(row)
    return trace


@pytest.mark.parametrize("backend", [INTERPRETED, COMPILED])
class TestMaskCheckerMatchesReference:
    @given(rows=_rows, assertions=st.lists(_assertions, min_size=1, max_size=4))
    def test_random_assertions(self, backend, rows, assertions):
        trace = _trace(rows)
        checker = TraceChecker(_DIFF_DESIGN.model, backend=backend)
        evaluator = make_evaluator(_DIFF_DESIGN.model, backend)
        for assertion in assertions:
            expected = _outcome(lambda a, t: reference_check(evaluator, a, t), assertion, trace)
            assert _outcome(checker.check, assertion, trace) == expected

    @given(rows=_rows, extra=_rows, assertion=_assertions)
    def test_append_after_check(self, backend, rows, extra, assertion):
        trace = _trace(rows)
        checker = TraceChecker(_DIFF_DESIGN.model, backend=backend)
        evaluator = make_evaluator(_DIFF_DESIGN.model, backend)
        _outcome(checker.check, assertion, trace)
        for row in extra:
            trace.append(row)
        expected = _outcome(lambda a, t: reference_check(evaluator, a, t), assertion, trace)
        assert _outcome(checker.check, assertion, trace) == expected

    def test_trace_shorter_than_depth(self, backend):
        trace = _trace([{"clk": 0, "rst": 0, "en": 1, "count": 0}] * 2)
        assertion = Assertion(
            antecedent=[SequenceTerm(0, _en), SequenceTerm(2, _en)],
            consequent=[SequenceTerm(1, _ghost)],
        )
        result = TraceChecker(_DIFF_DESIGN.model, backend=backend).check(assertion, trace)
        assert (result.attempts, result.triggers, result.violations) == (0, 0, 0)

    def test_unknown_consequent_signal_raises_only_once_triggered(self, backend):
        checker = TraceChecker(_DIFF_DESIGN.model, backend=backend)
        assertion = Assertion(
            antecedent=[SequenceTerm(0, _en)], consequent=[SequenceTerm(0, _ghost)]
        )
        idle = _trace([{"clk": 0, "rst": 0, "en": 0, "count": 0}] * 4)
        assert checker.check(assertion, idle).vacuous
        idle.append({"clk": 0, "rst": 0, "en": 1, "count": 0})
        with pytest.raises(EvalError):
            checker.check(assertion, idle)

    def test_error_at_a_cycle_no_live_start_reaches(self, backend):
        # ``count == 3 && ghost`` fails to evaluate only where count is 3, which
        # is cycle 0; the sole start there is already dead on ``en``.  The
        # interpreter evaluates ``&&`` lazily and never raises; the compiled
        # backend rejects the unknown signal whenever the term is reached.
        rows = [
            {"clk": 0, "rst": 0, "en": en, "count": count}
            for en, count in ((0, 3), (1, 0), (1, 1), (1, 0))
        ]
        trace = _trace(rows)
        lazy = ast.Binary("&&", ast.Binary("==", _count, ast.Number(3)), _ghost)
        assertion = Assertion(
            antecedent=[SequenceTerm(0, _en), SequenceTerm(0, lazy)],
            consequent=[SequenceTerm(0, _rst)],
        )
        checker = TraceChecker(_DIFF_DESIGN.model, backend=backend)
        evaluator = make_evaluator(_DIFF_DESIGN.model, backend)
        expected = _outcome(lambda a, t: reference_check(evaluator, a, t), assertion, trace)
        assert expected == ("EvalError" if backend == COMPILED else (4, 0, 0, [], []))
        assert _outcome(checker.check, assertion, trace) == expected
