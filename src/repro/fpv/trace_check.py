"""Evaluate assertions over simulation traces.

Used in three places: the FPV engine's simulation-falsification fallback, the
assertion miners' candidate filtering, and the test suite's cross-checks
between formal verdicts and simulated behaviour.

Every expression is evaluated once per trace into a *truth mask*: a Python
int whose bit ``c`` is set when the expression holds at cycle ``c``.  A check
then answers all start cycles at once with shifts, ANDs and popcounts.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from itertools import islice, repeat
from typing import Dict, List, Optional, Tuple

from ..hdl import ast
from ..hdl.elaborate import RtlModel
from ..sim.compile import make_evaluator
from ..sim.eval import EvalError
from ..sim.trace import Trace
from ..sva.model import Assertion

#: Per-expression masks over one trace: (truth mask, error mask).  The error
#: mask marks cycles where evaluation raised :class:`EvalError`.
_Masks = Dict[ast.Expr, Tuple[int, int]]


@dataclass
class TraceCheckResult:
    """Summary of evaluating one assertion over one trace."""

    attempts: int = 0
    triggers: int = 0
    violations: int = 0
    violation_cycles: List[int] = field(default_factory=list)
    failed_terms: List[str] = field(default_factory=list)

    @property
    def first_violation(self) -> Optional[int]:
        return self.violation_cycles[0] if self.violation_cycles else None

    @property
    def vacuous(self) -> bool:
        """True when the antecedent never matched anywhere in the trace."""
        return self.triggers == 0

    @property
    def holds(self) -> bool:
        """True when no evaluation attempt was violated."""
        return self.violations == 0


class TraceChecker:
    """Check assertions against recorded traces of one design.

    Truth masks are cached per (trace, expression) for as long as the trace
    is alive, and dropped when its cycle count changes.
    """

    def __init__(self, model: RtlModel, backend: Optional[str] = None):
        self._model = model
        self._evaluator = make_evaluator(model, backend)
        #: id(trace) -> (weak ref to the trace, its cycle count, masks).
        self._traces: Dict[int, Tuple[weakref.ref, int, _Masks]] = {}

    def check(self, assertion: Assertion, trace: Trace) -> TraceCheckResult:
        """Evaluate ``assertion`` at every possible start cycle of ``trace``.

        A term is evaluated only while some start is still live, so an
        evaluation error surfaces exactly when a start-by-start walk would
        reach the failing term.
        """
        masks = self._masks_for(trace)
        attempts = max(trace.num_cycles - assertion.temporal_depth, 0)
        live = (1 << attempts) - 1
        for term in assertion.antecedent:
            if not live:
                break
            live &= self._holds(masks, trace, term.expr, term.offset, live)
        if live and assertion.disable_iff is not None:
            # Disable the attempt when the abort condition holds at its start.
            live &= ~self._holds(masks, trace, assertion.disable_iff, 0, live)
        result = TraceCheckResult(attempts=attempts, triggers=live.bit_count())
        failures: List[Tuple[int, str]] = []
        for term in assertion.consequent_terms_absolute():
            if not live:
                break
            holds = self._holds(masks, trace, term.expr, term.offset, live)
            failed = live & ~holds
            live &= holds
            if failed:
                text = str(term.expr)
                failures.extend((start, text) for start in _set_bits(failed))
        failures.sort()
        result.violations = len(failures)
        result.violation_cycles = [start for start, _ in failures]
        result.failed_terms = [text for _, text in failures]
        return result

    def holds_on(self, assertion: Assertion, trace: Trace) -> bool:
        """True when the assertion has no violation on the trace."""
        return self.check(assertion, trace).holds

    # -- internals -------------------------------------------------------------

    def _masks_for(self, trace: Trace) -> _Masks:
        key = id(trace)
        cycles = trace.num_cycles
        entry = self._traces.get(key)
        if entry is not None and entry[0]() is trace and entry[1] == cycles:
            return entry[2]
        traces = self._traces
        ref = weakref.ref(trace, lambda _ref: traces.pop(key, None))
        masks: _Masks = {}
        traces[key] = (ref, cycles, masks)
        return masks

    def _holds(
        self, masks: _Masks, trace: Trace, expr: ast.Expr, offset: int, live: int
    ) -> int:
        """Mask of starts whose cycle ``start + offset`` satisfies ``expr``."""
        entry = masks.get(expr)
        if entry is None:
            entry = masks[expr] = self._evaluate(expr, trace)
        truth, errors = entry
        errors = (errors >> offset) & live
        if errors:
            cycle = (errors & -errors).bit_length() - 1 + offset
            self._evaluator.eval(expr, trace.row(cycle))  # raises EvalError
        return truth >> offset

    def _evaluate(self, expr: ast.Expr, trace: Trace) -> Tuple[int, int]:
        """Truth and error masks of ``expr`` over every cycle of ``trace``.

        The expression is evaluated once per distinct combination of the
        values of the signals it reads.
        """
        cycles = trace.num_cycles
        referenced = expr.signals()
        names = [name for name in trace.signals if name in referenced]
        columns = [trace.data[name] for name in names]
        keys = islice(zip(*columns), cycles) if columns else repeat((), cycles)
        evaluate = self._evaluator.eval
        memo: Dict[tuple, str] = {}
        chars: List[str] = []
        for key in keys:
            char = memo.get(key)
            if char is None:
                try:
                    char = "1" if evaluate(expr, dict(zip(names, key))) else "0"
                except EvalError:
                    char = "e"
                memo[key] = char
            chars.append(char)
        text = "".join(reversed(chars)) or "0"
        truth = int(text.replace("e", "0"), 2)
        errors = int(text.replace("1", "0").replace("e", "1"), 2) if "e" in memo.values() else 0
        return truth, errors


def _set_bits(mask: int) -> List[int]:
    """Indices of the set bits of ``mask``, ascending."""
    text = bin(mask)[:1:-1]
    return [index for index, char in enumerate(text) if char == "1"]


def check_on_trace(assertion: Assertion, trace: Trace, model: RtlModel) -> TraceCheckResult:
    """Convenience wrapper for one-off trace checks."""
    return TraceChecker(model).check(assertion, trace)
