"""Family-batched formal verification: one vectorized pass for a mutant family.

The mutation stage multiplies the FPV workload by the mutant count, yet each
mutant differs from its golden design at exactly one ``(operator, site)``.
:func:`check_family` exploits that: the golden design and all of its mutants
are lowered into one :class:`~repro.sim.vector.FamilyKernel`, and the whole
``(mutants × reachable states × input grid)`` space is advanced in a handful
of batched kernel calls instead of one full engine run per mutant.

On top of the shared sweep:

* **Delta reachability** — each mutant's breadth-first reachable-state walk
  is replayed over the family's precomputed next-state tables, seeded from
  the golden reachable set: only states whose outgoing transitions actually
  changed (or that escape the golden set entirely) cost new kernel work.
  Order, transition counts, and truncation points are identical to the
  mutant's own scalar BFS, and results land in the shared
  :class:`~repro.fpv.engine.ReachabilityCache` under each member's own key.
* **Obligation memoisation** — the proposition truth matrices are built once
  per family; a mutant whose matrices (and next-state table) are identical
  to the golden design's inherits the golden obligation verdict outright,
  re-materialising only the witness environments.
* **Witness pre-screen** — a mutant carrying a simulation-method
  :class:`~repro.mutate.semantic.DifferenceWitness` replays that witness
  trace once (batched through the family kernel) and harvests cheap kills:
  a trace violation on a mutant whose proof would be complete is a genuine
  counterexample, so the canonical path search can be skipped.  Outcomes
  (killed/survived/timeout/error), statuses, and completeness are identical
  to the per-mutant path; only the CEX representation and the ``engine``
  field reveal the shortcut.  Pass ``witness_screen=False`` for bit-identity
  of the full :class:`~repro.fpv.result.ProofResult` including CEX cycles.

Mutants that cannot ride the family kernel — structure mismatches,
un-lowerable variant expressions, a non-vectorized backend, or an incomplete
golden reachable set — transparently fall back to the ordinary per-mutant
:class:`~repro.fpv.engine.FormalEngine`, whose verdicts are the reference.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..hdl.design import Design
from ..hdl.errors import HdlError
from ..sim.compile import VECTORIZED, default_backend
from ..sim.eval import EvalError
from ..sim.vector import PLAN_MULTILIMB, FamilyKernel, FamilyLowering, lower_family
from ..sva.checker import bind
from ..sva.model import Assertion
from .engine import (
    EngineConfig,
    FormalEngine,
    ReachabilityCache,
    _deep_plan,
    _Obligation,
    assemble_exhaustive_result,
    error_result,
    fallback_stimuli,
    reachability_key,
)
from .result import Counterexample, ProofResult, ProofStatus
from .table import ObligationTable, PackedStateIndex
from .trace_check import TraceChecker
from .transition import ReachabilityResult, TransitionSystem

__all__ = ["FamilyStats", "check_family"]

#: Upper bound on family-kernel lanes per call (members × states × inputs).
_SWEEP_CHUNK_LANES = 1 << 18

#: Retained per-member table bytes before the member axis is chunked.
_MEMBER_CHUNK_BYTES = 64 << 20


def _null_term_fn(expr):
    """Obligation term hook for table-only sweeps (kernels never called)."""
    return None


class FamilyStats:
    """Counters describing how one family sweep discharged its work."""

    def __init__(self) -> None:
        self.members = 0
        self.family_members = 0
        self.family_soa_members = 0
        self.family_multilimb_members = 0
        self.fallback_members = 0
        self.memo_reused = 0
        self.screen_kills = 0
        self.delta_escape_states = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "members": self.members,
            "family_members": self.family_members,
            "family_soa_members": self.family_soa_members,
            "family_multilimb_members": self.family_multilimb_members,
            "fallback_members": self.fallback_members,
            "memo_reused": self.memo_reused,
            "screen_kills": self.screen_kills,
            "delta_escape_states": self.delta_escape_states,
        }


# ---------------------------------------------------------------------------
# The family sweep: shared truth matrices + per-member next tables
# ---------------------------------------------------------------------------


class _FamilySweep:
    """Chunked family-kernel sweep over golden reachable states × inputs."""

    def __init__(
        self,
        system: TransitionSystem,
        kernel: FamilyKernel,
        reachability: ReachabilityResult,
    ):
        self.system = system
        self.kernel = kernel
        self.states = list(reachability.states)
        self.num_states = len(self.states)
        grid = system.input_grid
        self.num_inputs = len(grid)
        self.packed_states = np.asarray(
            [kernel.pack_state(state) for state in self.states], dtype=np.int64
        )
        self.packed_grid = kernel.pack_input_grid(grid)
        self._index = PackedStateIndex(
            self.packed_states, sum(kernel.state_widths)
        )

    def golden_index(self, packed: int) -> int:
        """Golden reachable index of a packed state, or -1."""
        return self._index.index(packed)

    def sweep(
        self, members: Sequence[int], exprs: Sequence
    ) -> Tuple[Dict[int, np.ndarray], Dict[Tuple[int, object], np.ndarray]]:
        """One chunked pass serving several members at once.

        Returns ``(next_packed, truths)`` where ``next_packed[member]`` is the
        (states × inputs) packed next-state table and
        ``truths[(member, expr)]`` the boolean truth matrix.
        """
        S, I = self.num_states, self.num_inputs
        members = list(members)
        kernels = [(expr, self.kernel.exprs.compile(expr)) for expr in exprs]
        next_packed = {member: np.empty((S, I), dtype=np.int64) for member in members}
        truths = {
            (member, expr): np.empty((S, I), dtype=bool)
            for member in members
            for expr in exprs
        }
        per_state = max(len(members) * I, 1)
        chunk_states = max(1, _SWEEP_CHUNK_LANES // per_state)
        members_arr = np.asarray(members, dtype=np.int64)
        for start in range(0, S, chunk_states):
            stop = min(start + chunk_states, S)
            count = stop - start
            lanes_per_member = count * I
            member_col = np.repeat(members_arr, lanes_per_member)
            states_rep = np.tile(
                np.repeat(self.packed_states[start:stop], I), len(members)
            )
            inputs_tiled = np.tile(self.packed_grid, count * len(members))
            env, nxt = self.kernel.family_step_packed(
                member_col, states_rep, inputs_tiled
            )
            nxt = nxt.reshape(len(members), count, I)
            for position, member in enumerate(members):
                next_packed[member][start:stop] = nxt[position]
            for expr, expr_kernel in kernels:
                values = self.kernel.bool_lanes(expr_kernel(env), len(member_col))
                values = values.reshape(len(members), count, I)
                for position, member in enumerate(members):
                    truths[(member, expr)][start:stop] = values[position]
        return next_packed, truths

    def member_rows(
        self, member: int, packed_states: Sequence[int], exprs: Sequence
    ) -> Tuple[np.ndarray, Dict[object, np.ndarray]]:
        """Next rows + truth rows for states outside the golden set."""
        count = len(packed_states)
        num_inputs = self.num_inputs
        lanes = count * num_inputs
        member_col = np.full(lanes, member, dtype=np.int64)
        states_rep = np.repeat(np.asarray(packed_states, dtype=np.int64), num_inputs)
        inputs_tiled = np.tile(self.packed_grid, count)
        env, nxt = self.kernel.family_step_packed(member_col, states_rep, inputs_tiled)
        truths: Dict[object, np.ndarray] = {}
        for expr in exprs:
            values = self.kernel.bool_lanes(self.kernel.exprs.compile(expr)(env), lanes)
            truths[expr] = values.reshape(count, num_inputs)
        return nxt.reshape(count, num_inputs), truths


# ---------------------------------------------------------------------------
# Delta reachability
# ---------------------------------------------------------------------------


class _MemberReachability:
    """One mutant's reachable set, walked over the family's tables."""

    def __init__(
        self,
        result: ReachabilityResult,
        order_packed: List[int],
        extra_rows: Dict[int, np.ndarray],
        matches_golden: bool,
    ):
        self.result = result
        self.order_packed = order_packed
        #: next-state rows of states outside the golden reachable set.
        self.extra_rows = extra_rows
        #: True when the walk produced exactly the golden order (no escapes,
        #: no re-ordering, no truncation differences).
        self.matches_golden = matches_golden


def _delta_reachability(
    sweep: _FamilySweep,
    member: int,
    next_packed: np.ndarray,
    max_states: int,
    max_transitions: int,
) -> _MemberReachability:
    """Mutant BFS replayed over precomputed tables, seeded by the golden set.

    States inside the golden reachable set read their outgoing row straight
    from the family sweep; escapes batch one family-kernel call per BFS wave.
    The discovery order, transition counts, and truncation points are
    identical to running the scalar BFS on the mutant alone.
    """
    kernel = sweep.kernel
    num_inputs = sweep.num_inputs
    initial = kernel.pack_state(sweep.system.initial_state())
    visited = {initial}
    order: List[int] = [initial]
    frontier: List[int] = [initial]
    extra_rows: Dict[int, np.ndarray] = {}
    transitions = 0

    def result(complete: bool, exhausted: bool, count: int) -> _MemberReachability:
        states = [kernel.unpack_state(packed) for packed in order]
        reach = ReachabilityResult(
            states=states,
            complete=complete,
            frontier_exhausted=exhausted,
            transitions_explored=count,
        )
        golden_packed = sweep.packed_states
        matches = (
            complete
            and not extra_rows
            and len(order) == len(golden_packed)
            and order == golden_packed.tolist()
        )
        return _MemberReachability(reach, order, extra_rows, matches)

    while frontier:
        next_frontier: List[int] = []
        unknown = [
            packed
            for packed in frontier
            if sweep.golden_index(packed) < 0 and packed not in extra_rows
        ]
        if unknown:
            rows, _ = sweep.member_rows(member, unknown, ())
            for position, packed in enumerate(unknown):
                extra_rows[packed] = rows[position]
        for packed in frontier:
            golden_idx = sweep.golden_index(packed)
            row = next_packed[golden_idx] if golden_idx >= 0 else extra_rows[packed]
            remaining = max_transitions - transitions
            truncated = remaining < num_inputs
            take = row[:remaining] if truncated else row
            new_mask = np.fromiter(
                (value not in visited for value in take.tolist()),
                dtype=bool,
                count=len(take),
            )
            if new_mask.any():
                positions = np.nonzero(new_mask)[0]
                candidates = take[positions]
                _, first_index = np.unique(candidates, return_index=True)
                for k in np.sort(first_index).tolist():
                    value = int(candidates[k])
                    visited.add(value)
                    order.append(value)
                    next_frontier.append(value)
                    if len(order) >= max_states:
                        exact = transitions + int(positions[k]) + 1
                        return result(False, False, exact)
            if truncated:
                return result(False, False, max_transitions + 1)
            transitions += num_inputs
        frontier = next_frontier
    return result(True, True, transitions)


# ---------------------------------------------------------------------------
# Per-member obligation tables
# ---------------------------------------------------------------------------


class _MemberTable(ObligationTable):
    """Obligation-table view of one mutant over the family sweep's data.

    Rows are indexed in the *member's* reachability order; states inside the
    golden set gather their precomputed rows, escape states carry the rows
    computed during the delta walk.  Witness environments re-step the exact
    lanes through the family kernel with this member's id.
    """

    def __init__(
        self,
        sweep: _FamilySweep,
        member: int,
        reach: _MemberReachability,
        next_packed: np.ndarray,
        truths: Dict[Tuple[int, object], np.ndarray],
        exprs: Sequence,
    ):
        super().__init__()
        self._sweep = sweep
        self._member = member
        self.states = list(reach.result.states)
        self.num_states = len(self.states)
        self.num_inputs = sweep.num_inputs
        order = reach.order_packed
        member_index = {packed: idx for idx, packed in enumerate(order)}
        golden_rows = [sweep.golden_index(packed) for packed in order]
        self._packed_order = order

        extra_truths: Dict[int, Dict[object, np.ndarray]] = {}
        escapes = [packed for packed, row in zip(order, golden_rows) if row < 0]
        if escapes and exprs:
            _, truth_rows = sweep.member_rows(member, escapes, exprs)
            for position, packed in enumerate(escapes):
                extra_truths[packed] = {
                    expr: truth_rows[expr][position] for expr in exprs
                }

        # Next-state index matrix in member coordinates.
        next_index = np.empty((self.num_states, self.num_inputs), dtype=np.int64)
        for idx, (packed, golden_row) in enumerate(zip(order, golden_rows)):
            row = next_packed[golden_row] if golden_row >= 0 else reach.extra_rows[packed]
            next_index[idx] = np.fromiter(
                (member_index[int(value)] for value in row.tolist()),
                dtype=np.int64,
                count=self.num_inputs,
            )
        self._next_index = next_index

        for expr in exprs:
            matrix = np.empty((self.num_states, self.num_inputs), dtype=bool)
            family_matrix = truths[(member, expr)]
            for idx, (packed, golden_row) in enumerate(zip(order, golden_rows)):
                if golden_row >= 0:
                    matrix[idx] = family_matrix[golden_row]
                else:
                    matrix[idx] = extra_truths[packed][expr]
            self._truth[expr] = matrix

    def ensure_terms(self, exprs) -> None:
        missing = [expr for expr in exprs if expr not in self._truth]
        if missing:
            raise KeyError(f"family table is missing terms: {missing}")

    def can_lower(self, expr) -> bool:
        try:
            self._sweep.kernel.exprs.compile(expr)
        except Exception:
            return False
        return True

    def env_rows(self, pairs, names=None):
        lanes = len(pairs)
        states = np.asarray(
            [self._packed_order[s] for s, _ in pairs], dtype=np.int64
        )
        inputs = np.asarray(
            [int(self._sweep.packed_grid[i]) for _, i in pairs], dtype=np.int64
        )
        members = np.full(lanes, self._member, dtype=np.int64)
        env, _ = self._sweep.kernel.family_step_packed(members, states, inputs)
        keys = (
            list(names)
            if names is not None
            else list(self._sweep.system.model.signals)
        )
        return [self._sweep.kernel.env_row(env, lane, keys) for lane in range(lanes)]


# ---------------------------------------------------------------------------
# The family verifier
# ---------------------------------------------------------------------------


def _member_exhaustive(
    assertion: Assertion,
    reach: ReachabilityResult,
    system: TransitionSystem,
    config: EngineConfig,
) -> bool:
    """Mirror of :meth:`FormalEngine._can_check_exhaustively` for one member."""
    if not system.can_enumerate_inputs:
        return False
    if system.state_bits > config.max_state_bits:
        return False
    if not reach.complete:
        return False
    depth = assertion.temporal_depth + 1
    cost = reach.count * (system.input_space_size ** min(depth, 2))
    return cost <= config.max_path_evaluations * 4


def check_family(
    golden: Design,
    mutants: Sequence[Design],
    assertions: Sequence,
    config: Optional[EngineConfig] = None,
    reachability_cache: Optional[ReachabilityCache] = None,
    witnesses: Optional[Sequence] = None,
    witness_screen: bool = True,
    stats: Optional[FamilyStats] = None,
) -> List[List[ProofResult]]:
    """Check ``assertions`` against every mutant of one design family.

    Returns one verdict list per mutant, each aligned with ``assertions``.
    Every verdict's outcome classification (and, with ``witness_screen``
    off, the entire :class:`ProofResult` including counterexample cycles) is
    bit-identical to ``FormalEngine(mutant, config).check_batch(assertions)``.

    ``witnesses`` optionally carries each mutant's
    :class:`~repro.mutate.semantic.DifferenceWitness` for the pre-screen.
    """
    config = config or EngineConfig()
    mutants = list(mutants)
    items = list(assertions)
    stats = stats if stats is not None else FamilyStats()
    stats.members += len(mutants)
    if not mutants:
        return []
    if witnesses is None:
        witnesses = [None] * len(mutants)

    backend = config.backend or default_backend()
    lowering: Optional[FamilyLowering] = None
    if backend == VECTORIZED and items:
        lowering = lower_family(golden.model, [mutant.model for mutant in mutants])

    results: List[Optional[List[ProofResult]]] = [None] * len(mutants)

    def run_fallback(position: int) -> None:
        engine = FormalEngine(mutants[position], config, reachability_cache)
        results[position] = engine.check_batch(items)

    if lowering is None:
        for position in range(len(mutants)):
            run_fallback(position)
        stats.fallback_members += len(mutants)
        return results  # type: ignore[return-value]

    family_positions = lowering.accepted()
    accepted = set(family_positions)
    for position in range(len(mutants)):
        if position not in accepted:
            run_fallback(position)
            stats.fallback_members += 1

    if family_positions:
        rescued = 0
        try:
            _check_family_fast(
                golden,
                mutants,
                items,
                config,
                reachability_cache,
                lowering,
                family_positions,
                witnesses,
                witness_screen,
                results,
                stats,
            )
        except (EvalError, HdlError, KeyError, ValueError):
            # The per-mutant engines are the reference; any family-path
            # surprise falls back to them wholesale.
            for position in family_positions:
                if results[position] is None:
                    run_fallback(position)
                    stats.fallback_members += 1
                    rescued += 1
        family_count = len(family_positions) - rescued
        stats.family_members += family_count
        if lowering.plan == PLAN_MULTILIMB:
            stats.family_multilimb_members += family_count
        else:
            stats.family_soa_members += family_count

    for position in range(len(mutants)):
        if results[position] is None:  # pragma: no cover - defensive
            run_fallback(position)
    return results  # type: ignore[return-value]


def _check_family_fast(
    golden: Design,
    mutants: List[Design],
    items: List,
    config: EngineConfig,
    reachability_cache: Optional[ReachabilityCache],
    lowering: FamilyLowering,
    family_positions: List[int],
    witnesses: Sequence,
    witness_screen: bool,
    results: List[Optional[List[ProofResult]]],
    stats: FamilyStats,
) -> None:
    golden_engine = FormalEngine(golden, config, reachability_cache)
    system = golden_engine._system
    limit = config.max_path_evaluations

    # -- parse / bind once for the whole family --------------------------------
    member_results: Dict[int, List[Optional[ProofResult]]] = {
        position: [None] * len(items) for position in family_positions
    }
    bound: List[Tuple[int, Assertion]] = []
    observed: set = set()
    for index, item in enumerate(items):
        assertion, parse_error = golden_engine._to_assertion(item)
        message = None
        if parse_error is not None:
            message = parse_error
        else:
            report = bind(assertion, golden)
            if not report.ok:
                message = "; ".join(report.messages)
        if message is not None:
            for position in family_positions:
                member_results[position][index] = error_result(
                    message, mutants[position].name, assertion
                )
            continue
        observed |= assertion.signals()
        bound.append((index, assertion))
    if bound:
        system.observe(observed)

    enumerable = (
        system.can_enumerate_inputs
        and system.state_bits <= config.max_state_bits
        and lowering.kernel.packable
    )
    golden_reach = golden_engine._reachable() if enumerable else None

    if not bound or golden_reach is None or not golden_reach.complete:
        # No exhaustive checking is likely for any member (or the golden
        # set cannot seed the delta walk): run the per-member engines, but
        # still batch their falsification traces through the family kernel —
        # the trace recipe is reachability-independent, and a member that
        # does end up exhaustive simply leaves its preload unused.
        traces = (
            _family_fallback_traces(lowering, family_positions, config)
            if bound
            else None
        )
        for position in family_positions:
            engine = FormalEngine(mutants[position], config, reachability_cache)
            if traces is not None:
                engine.preload_fallback_traces(traces[position])
            results[position] = engine.check_batch(items)
        return

    # -- strategy + obligations on the golden design ---------------------------
    golden_obligations: Dict[int, _Obligation] = {}
    obligation_errors: Dict[int, str] = {}
    engine_indices: List[int] = []  # checked per member through its engine
    table_indices: List[int] = []
    for index, assertion in bound:
        try:
            obligation = _Obligation(index, assertion, golden_engine._term_fn)
        except EvalError as exc:
            obligation_errors[index] = f"evaluation error: {exc}"
            continue
        except HdlError as exc:
            obligation_errors[index] = f"elaboration error: {exc}"
            continue
        if all(
            _can_compile(lowering.kernel, expr) for expr in obligation.term_exprs()
        ):
            golden_obligations[index] = obligation
            table_indices.append(index)
        else:
            engine_indices.append(index)
    for index, message in obligation_errors.items():
        assertion = next(a for i, a in bound if i == index)
        for position in family_positions:
            member_results[position][index] = error_result(
                message, mutants[position].name, assertion
            )

    sweep = _FamilySweep(system, lowering.kernel, golden_reach)
    exprs: List = []
    seen_exprs = set()
    for index in table_indices:
        for expr in golden_obligations[index].term_exprs():
            if expr not in seen_exprs:
                seen_exprs.add(expr)
                exprs.append(expr)

    # Golden tables (member 0) back the memo comparisons for every member.
    golden_next, golden_truths = sweep.sweep([0], exprs)
    golden_next0 = golden_next[0]
    golden_view = _GoldenView(sweep, golden_next0, golden_truths, exprs)
    for obligation in golden_obligations.values():
        _run_table_obligation(golden_engine, obligation, golden_view, limit)

    # Witness-screen traces, batched once for the members that can use them.
    screen_traces = _screen_traces(
        lowering, family_positions, witnesses, witness_screen, bound
    )

    # -- per-member work, chunked along the member axis -------------------------
    bytes_per_member = sweep.num_states * sweep.num_inputs * (8 + max(len(exprs), 1))
    chunk_size = max(1, _MEMBER_CHUNK_BYTES // max(bytes_per_member, 1))
    sim_pending: List[Tuple[int, List[int], ReachabilityResult]] = []

    for chunk_start in range(0, len(family_positions), chunk_size):
        chunk_positions = family_positions[chunk_start : chunk_start + chunk_size]
        chunk_members = [lowering.member_ids[p] for p in chunk_positions]
        next_packed, truths = sweep.sweep(chunk_members, exprs)
        for position, member in zip(chunk_positions, chunk_members):
            mutant = mutants[position]
            reach = _delta_reachability(
                sweep, member, next_packed[member],
                config.max_states, config.max_transitions,
            )
            stats.delta_escape_states += len(reach.extra_rows)
            if reachability_cache is not None:
                reachability_cache.put(
                    reachability_key(mutant, config), reach.result
                )
            leftover: List[int] = list(engine_indices)
            member_table: Optional[_MemberTable] = None
            tables_match = reach.matches_golden and np.array_equal(
                next_packed[member], golden_next0
            )
            for index in table_indices:
                obligation_g = golden_obligations[index]
                assertion = obligation_g.assertion
                if not _member_exhaustive(assertion, reach.result, system, config):
                    leftover.append(index)
                    continue
                if tables_match and all(
                    np.array_equal(
                        truths[(member, expr)], golden_truths[(0, expr)]
                    )
                    for expr in obligation_g.term_exprs()
                ):
                    if obligation_g.witness is not None and member_table is None:
                        member_table = _MemberTable(
                            sweep, member, reach, next_packed[member], truths, exprs
                        )
                    outcome = _memo_result(
                        golden_engine, obligation_g, sweep, member_table,
                        reach, mutant.name,
                    )
                    if outcome is None:
                        leftover.append(index)  # golden exhausted its budget
                    else:
                        member_results[position][index] = outcome
                        stats.memo_reused += 1
                    continue
                if member_table is None:
                    member_table = _MemberTable(
                        sweep, member, reach, next_packed[member], truths, exprs
                    )
                obligation_m = _Obligation(index, assertion, _null_term_fn)
                if obligation_m.depth == 0:
                    golden_engine._vec_depth0(obligation_m, member_table)
                else:
                    plan = _deep_plan(obligation_m, member_table, limit)
                    screened = _screen_obligation(
                        golden_engine, obligation_m, plan, limit,
                        screen_traces.get(position), mutant, reach.result,
                    )
                    if screened is not None:
                        member_results[position][index] = screened
                        stats.screen_kills += 1
                        continue
                    golden_engine._vec_deep(obligation_m, member_table, plan)
                if obligation_m.budget_exhausted:
                    leftover.append(index)
                else:
                    member_results[position][index] = assemble_exhaustive_result(
                        obligation_m, reach.result, mutant.name,
                        system.state_names, system.input_names,
                    )
            if leftover:
                sim_pending.append((position, sorted(set(leftover)), reach.result))
            else:
                results[position] = member_results[position]  # type: ignore[assignment]

    # -- leftover assertions: per-member engines with batched traces ------------
    if sim_pending:
        traces = _family_fallback_traces(
            lowering, [position for position, _, _ in sim_pending], config
        )
        for position, indices, reach_result in sim_pending:
            engine = FormalEngine(mutants[position], config, reachability_cache)
            engine.preload_reachability(reach_result)
            engine.preload_fallback_traces(traces[position])
            verdicts = engine.check_batch([items[i] for i in indices])
            for index, verdict in zip(indices, verdicts):
                member_results[position][index] = verdict
            results[position] = member_results[position]  # type: ignore[assignment]

    for position in family_positions:
        if results[position] is None:
            results[position] = member_results[position]  # type: ignore[assignment]


class _GoldenView(ObligationTable):
    """Golden design's obligation table over the family sweep's member 0."""

    def __init__(self, sweep: _FamilySweep, next_packed, truths, exprs) -> None:
        super().__init__()
        self._sweep = sweep
        self.num_states = sweep.num_states
        self.num_inputs = sweep.num_inputs
        next_index = np.empty((self.num_states, self.num_inputs), dtype=np.int64)
        for idx in range(self.num_states):
            next_index[idx] = np.fromiter(
                (
                    self._sweep.golden_index(int(value))
                    for value in next_packed[idx].tolist()
                ),
                dtype=np.int64,
                count=self.num_inputs,
            )
        if (next_index < 0).any():
            raise ValueError("transition leaves the golden reachable set")
        self._next_index = next_index
        for expr in exprs:
            self._truth[expr] = truths[(0, expr)]

    def env_rows(self, pairs, names=None):
        lanes = len(pairs)
        states = np.asarray(
            [int(self._sweep.packed_states[s]) for s, _ in pairs], dtype=np.int64
        )
        inputs = np.asarray(
            [int(self._sweep.packed_grid[i]) for _, i in pairs], dtype=np.int64
        )
        members = np.zeros(lanes, dtype=np.int64)
        env, _ = self._sweep.kernel.family_step_packed(members, states, inputs)
        keys = (
            list(names)
            if names is not None
            else list(self._sweep.system.model.signals)
        )
        return [self._sweep.kernel.env_row(env, lane, keys) for lane in range(lanes)]


def _can_compile(kernel: FamilyKernel, expr) -> bool:
    try:
        kernel.exprs.compile(expr)
    except Exception:
        return False
    return True


def _run_table_obligation(
    engine: FormalEngine, obligation: _Obligation, table, limit: int
) -> None:
    """Decide one obligation on a dense table (depth-0 or deep)."""
    if obligation.depth == 0:
        engine._vec_depth0(obligation, table)
    else:
        engine._vec_deep(obligation, table)


def _memo_result(
    engine: FormalEngine,
    obligation_g: _Obligation,
    sweep: _FamilySweep,
    member_table: Optional["_MemberTable"],
    reach: _MemberReachability,
    design_name: str,
) -> Optional[ProofResult]:
    """Reuse the golden verdict for a member with identical tables.

    The obligation outcome is a deterministic function of the truth
    matrices, next-state table, and engine budgets — all equal here — so the
    decision transfers wholesale; only a counterexample's environments are
    re-materialised through the member's lanes (``member_table`` is only
    needed — and only built by the caller — in that case).  Returns ``None``
    when the golden obligation exhausted its budget (the member then falls
    back to bounded simulation on its *own* traces, exactly like the
    per-mutant path).
    """
    if obligation_g.budget_exhausted:
        return None
    clone = _Obligation(obligation_g.index, obligation_g.assertion, _null_term_fn)
    clone.triggered = obligation_g.triggered
    clone.error = obligation_g.error
    clone.decided = obligation_g.decided
    if obligation_g.witness is not None:
        if obligation_g.witness_pairs is None or member_table is None:
            return None  # pragma: no cover - vectorized refutes always set pairs
        cycles = member_table.env_rows(
            obligation_g.witness_pairs, engine._witness_names()
        )
        clone.witness = (cycles, obligation_g.witness[1])
    return assemble_exhaustive_result(
        clone,
        reach.result,
        design_name,
        sweep.system.state_names,
        sweep.system.input_names,
    )


def _screen_traces(
    lowering: FamilyLowering,
    family_positions: List[int],
    witnesses: Sequence,
    witness_screen: bool,
    bound: List[Tuple[int, Assertion]],
) -> Dict[int, Tuple]:
    """Replay difference-witness traces for screen-eligible members, batched.

    Returns ``{mutant position: (trace, seed)}``.  Only members carrying a
    simulation-method witness can be screened, and only deep obligations
    benefit, so the batch is skipped entirely when no bound assertion has
    temporal depth.
    """
    if not witness_screen:
        return {}
    if not any(assertion.temporal_depth > 0 for _, assertion in bound):
        return {}
    eligible: List[Tuple[int, int]] = []  # (position, seed)
    for position in family_positions:
        witness = witnesses[position]
        if witness is not None and getattr(witness, "method", "") == "simulation":
            eligible.append((position, int(getattr(witness, "seed", 0))))
    if not eligible:
        return {}
    from ..mutate.semantic import WITNESS_CYCLES, witness_stimulus

    seeds = sorted({seed for _, seed in eligible})
    stimuli = [witness_stimulus(seed) for seed in seeds]
    members = [lowering.member_ids[position] for position, _ in eligible]
    traces = lowering.kernel.family_simulate(members, stimuli, WITNESS_CYCLES)
    seed_slot = {seed: slot for slot, seed in enumerate(seeds)}
    return {
        position: (traces[row][seed_slot[seed]], seed)
        for row, (position, seed) in enumerate(eligible)
    }


def _screen_obligation(
    engine: FormalEngine,
    obligation: _Obligation,
    plan,
    limit: int,
    screen: Optional[Tuple],
    mutant: Design,
    reach: ReachabilityResult,
) -> Optional[ProofResult]:
    """Harvest a cheap kill from the member's difference-witness trace.

    Sound only when the table search would produce a *complete* refutation
    anyway: the caller's deep plan must say a refutation exists within
    budget (so the per-mutant outcome is CEX either way), and the trace
    violation supplies a genuine reachable counterexample.  Depth-0
    obligations are never screened — their array decision is already
    cheaper than a trace check.
    """
    if screen is None:
        return None
    if not plan.refutable or plan.charges > limit:
        return None
    trace, seed = screen
    checker = TraceChecker(mutant.model, backend=engine.backend)
    try:
        result = checker.check(obligation.assertion, trace)
    except EvalError:
        return None
    if not result.violations:
        return None
    start = result.first_violation
    window = trace.window(start, obligation.depth + 1)
    cycles = [window.row(i) for i in range(window.num_cycles)]
    return ProofResult(
        status=ProofStatus.CEX,
        assertion=obligation.assertion,
        design_name=mutant.name,
        counterexample=Counterexample(
            cycles=cycles,
            trigger_cycle=start,
            failed_term=result.failed_terms[0],
        ),
        reason=(
            "counterexample found on the mutant's difference-witness trace "
            f"(seed {seed})"
        ),
        engine="witness-screen",
        complete=True,
        states_explored=reach.count,
        depth=obligation.depth,
    )


def _family_fallback_traces(
    lowering: FamilyLowering,
    positions: List[int],
    config: EngineConfig,
) -> Dict[int, List]:
    """Falsification traces for several members, stepped as one batch.

    Bit-for-bit what each member's own
    :meth:`FormalEngine._fallback_trace_set` would simulate — same stimuli,
    cycles, and reset sequence — so preloading them changes nothing but the
    wall clock.
    """
    stimuli = fallback_stimuli(config)
    members = [lowering.member_ids[position] for position in positions]
    traces = lowering.kernel.family_simulate(
        members, stimuli, config.fallback_cycles
    )
    return {position: traces[row] for row, position in enumerate(positions)}
