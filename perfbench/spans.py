"""Per-layer spans recorded from outside the program.

:class:`Tracer` wraps public functions and methods of ``repro`` in timing
spans.  A module-level function is bound by name in every module that
imported it (``from .parser import parse_assertion``), so the tracer replaces
the function object wherever it is bound — in the defining module and in
every loaded module namespace holding the same object — and restores all of
them on :meth:`Tracer.uninstall`.  Methods are replaced on their class.

Spans nest on one stack (the benchmark runs single-threaded, FPV
``workers=1``).  A span's *self time* is its duration minus the durations of
the spans it directly encloses.  Spans stay in memory, aggregated per unit
id, and :meth:`Tracer.dump` writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import pkgutil
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: (span name, "module:qualname" of the traced callable, result hook name).
#: Several targets may share one span name; their times add up.
TARGETS: List[Tuple[str, str, Optional[str]]] = [
    ("bench.corpus", "repro.bench.corpus:get_corpus", None),
    ("bench.corpus", "repro.bench.corpus:build_design", None),
    ("bench.icl", "repro.bench.icl:build_icl_examples", None),
    ("hdl.elaborate", "repro.hdl.elaborate:elaborate", None),
    ("mining.mine", "repro.mining.miner:AssertionMiner.mine", "mining"),
    ("llm.prompt", "repro.llm.prompt:PromptBuilder.build", None),
    ("llm.generate", "repro.llm.cots:SimulatedCotsLLM.generate", None),
    ("sva.correct", "repro.sva.corrector:SyntaxCorrector.correct", "correct"),
    ("sva.parse", "repro.sva.parser:parse_assertion", None),
    ("sim.plan", "repro.sim.vector:plan_model", "plan"),
    ("sim.trace", "repro.sim.simulator:Simulator.run", "trace"),
    ("sim.batch", "repro.sim.vector:simulate_batch", None),
    ("sim.family_lower", "repro.sim.vector:lower_family", None),
    ("fpv.reach", "repro.fpv.transition:enumerate_reachable", "reach"),
    ("fpv.table", "repro.fpv.table:TransitionTable.__init__", None),
    ("fpv.table", "repro.fpv.table:TransitionTable.ensure_terms", None),
    ("fpv.tracecheck", "repro.fpv.trace_check:TraceChecker.check", None),
    ("fpv.check", "repro.fpv.engine:FormalEngine.check_batch", None),
    ("fpv.family", "repro.fpv.incremental:check_family", None),
    ("mutate.enumerate", "repro.mutate.operators:enumerate_mutants", "mutants"),
    ("mutate.semantic", "repro.mutate.semantic:SemanticContext.differences", None),
    ("mutate.apply", "repro.mutate.operators:apply_mutation", None),
    ("sched.service", "repro.core.scheduler:VerificationService.check_many", None),
    ("sched.service", "repro.core.scheduler:VerificationService.check_families", None),
    ("runtime", "repro.core.runtime:CampaignRuntime.run_campaign", None),
    ("store.write", "repro.core.store:RunStore.record_cell", None),
    ("store.verdict_write", "repro.core.store:PersistentVerdictCache.put_many", None),
    ("store.read", "repro.core.store:RunStore.completed_cells", None),
    ("store.read", "repro.core.store:RunStore.load_marked", "cells_read"),
    ("store.verdict_load", "repro.core.store:RunStore.verdict_cache", None),
    ("store.mutation_write", "repro.core.store:RunStore.append_mutation_records", None),
]

#: Binding sites that must exist: if one disappears the wrapper would
#: silently miss the calls made through it, so install fails instead.
REQUIRED_BINDINGS = {
    "repro.fpv.transition:enumerate_reachable": ["repro.fpv.engine", "repro.mutate.semantic"],
    "repro.sva.parser:parse_assertion": [
        "repro.fpv.engine",
        "repro.sva.corrector",
        "repro.core.runtime",
        "repro.core.store",
    ],
    "repro.hdl.elaborate:elaborate": ["repro.hdl.design", "repro.mutate.operators"],
    "repro.sim.vector:lower_family": ["repro.fpv.incremental"],
    "repro.mutate.operators:enumerate_mutants": ["repro.mutate.campaign"],
}


def _resolve(target: str):
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class _Agg:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Install, collect and report per-layer spans."""

    def __init__(self) -> None:
        #: Per open span, the time its direct children have covered so far.
        self._stack: List[float] = []
        #: unit id -> span name -> aggregate.
        self.units: Dict[str, Dict[str, _Agg]] = defaultdict(lambda: defaultdict(_Agg))
        self.unit = "setup"
        #: unit id -> label (cell, design batch or mutation design).
        self.labels: Dict[str, str] = {}
        #: unit id -> counter -> value, filled by the result hooks.
        self.counts: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._patches: List[Tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        # Import every repro module first: a module imported later would
        # bind the wrapper by name and keep it after uninstall.
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if info.name != "repro.__main__":
                importlib.import_module(info.name)
        for name, target, hook in TARGETS:
            owner, attr = _resolve(target)
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original, getattr(self, f"_hook_{hook}") if hook else None)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            bound_in = []
            for module_name, module in list(sys.modules.items()):
                namespace = getattr(module, "__dict__", None)
                if not isinstance(namespace, dict):
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        self._patch(module, key, wrapper)
                        bound_in.append(module_name)
            missing = set(REQUIRED_BINDINGS.get(target, ())) - set(bound_in)
            if missing:
                self.uninstall()
                raise RuntimeError(f"{target} is no longer bound in {sorted(missing)}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def paused(self):
        """Run a block with the spans removed, then put them back."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, "__dict__", {}).get(attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, function: Callable, hook: Optional[Callable]) -> Callable:
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                agg = self.units[self.unit][name]
                agg.calls += 1
                agg.total += elapsed
                agg.self_time += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                hook(args, kwargs, result)
            return result

        span.__wrapped__ = function
        span.__name__ = getattr(function, "__name__", name)
        return span

    # -- result hooks: counts measured where the work happens ----------------------

    def _count(self, key: str, value: float) -> None:
        self.counts[self.unit][key] += value

    def _hook_mining(self, args, kwargs, report) -> None:
        self._count("mining.candidates", report.num_candidates)
        self._count("mining.verified", report.num_verified)

    def _hook_correct(self, args, kwargs, result) -> None:
        self._count("sva.fixed", bool(result.applied_rules) and result.assertion is not None)
        self._count("sva.unparsable", result.assertion is None)

    def _hook_plan(self, args, kwargs, plan) -> None:
        self._count(f"sim.plans.{plan.plan}", 1)

    def _hook_cells_read(self, args, kwargs, outcomes) -> None:
        self._count("store.cells_read", 1)

    def _hook_trace(self, args, kwargs, trace) -> None:
        self._count("sim.trace_cycles", len(trace))

    def _hook_reach(self, args, kwargs, result) -> None:
        self._count("fpv.reach_states", result.count)
        self._count("fpv.reach_truncated", not result.complete)

    def _hook_mutants(self, args, kwargs, result) -> None:
        mutants, stats = result
        self._count("mutate.mutants", len(mutants))
        self._count("mutate.viable", stats.viable)
        self._count("mutate.examined", stats.viable + stats.stillborn + stats.equivalent)

    # -- reporting -------------------------------------------------------------------

    def per_round(self, rounds: int) -> Tuple[Dict[str, _Agg], Dict[str, float]]:
        """Span aggregates and counts of set-up plus one average traced round.

        Set-up ran once; every other unit belongs to one of ``rounds``
        traced rounds of identical work, so those are averaged.
        """
        spans: Dict[str, _Agg] = defaultdict(_Agg)
        counts: Dict[str, float] = defaultdict(float)
        for unit in set(self.units) | set(self.counts):
            weight = 1.0 if unit == "setup" else 1.0 / rounds
            for name, agg in self.units.get(unit, {}).items():
                into = spans[name]
                into.calls += agg.calls * weight
                into.total += agg.total * weight
                into.self_time += agg.self_time * weight
            for key, value in self.counts.get(unit, {}).items():
                counts[key] += value * weight
        return spans, counts

    def dump(self, path) -> None:
        payload = {
            "units": {
                unit: {
                    "spans": {
                        name: {"calls": agg.calls, "total_s": agg.total, "self_s": agg.self_time}
                        for name, agg in sorted(self.units.get(unit, {}).items())
                    },
                    "counts": dict(sorted(self.counts.get(unit, {}).items())),
                    "label": self.labels.get(unit),
                }
                for unit in sorted(set(self.units) | set(self.counts))
            },
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)
