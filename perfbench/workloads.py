"""The four benchmark workloads.

Each workload has a set-up step, run once per process before timing starts,
and a *round*: one closed-loop pass over the workload's fixed inputs, started
from cold program state (fresh knowledge base, fresh run store, fresh
verification service, no cached FPV engines), as a new ``repro`` process
would start.  A timed run repeats rounds until its time budget is spent.

Every round returns the verdicts it produced keyed like the recorded
reference answers (see ``reference.py``), so correctness is checked per
verdict after the timing stops.

Design choice: the design set of every workload is fixed.  A seeded draw of
designs made the spread of every rate across seeds far wider than any
usable regression bound (one heavy design such as ``ca_prng`` mines for 6 s
where the median design takes 0.3 s), so the seed varies what the program
does *on* those designs instead: the LLM sampling seed of the campaign
workload, the resume kill point, and the fpv-sweep assertions.  Successive
rounds of one run step the campaign's sampling seed, move the resume kill
point and draw further fpv-sweep assertions, so a run averages over several
of each.

Rounds and units are stamped with ``time.perf_counter()`` readings; the
runner turns the stamps into host-paced seconds (see ``pace.py``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench import corpus as corpus_module
from repro.bench import icl as icl_module
from repro.bench.knowledge import DesignKnowledgeBase
from repro.core import scheduler as scheduler_module
from repro.core.runtime import CampaignRuntime, PipelineConfig, campaign_config
from repro.core.scheduler import SchedulerConfig, VerificationService
from repro.core.store import RunStore
from repro.fpv.engine import EngineConfig
from repro.fpv.result import ProofResult
from repro.llm.cots import SimulatedCotsLLM
from repro.llm.decoding import DecodingConfig
from repro.llm.profiles import COTS_PROFILES
from repro.mutate import MutationCampaign, MutationConfig
from repro.sim.compile import VECTORIZED

#: Campaign/resume designs: every 12th test design of ``assertionbench``
#: starting at the fifth (combinational, arithmetic, counter, FSM, coding and
#: memory designs; ``fifo_mem8`` is the heavy miner).  ~2.2 s per round on a
#: 2-core Xeon, 87% of it inside knowledge mining.
CAMPAIGN_DESIGNS = (
    "decoder8",
    "rca8",
    "barrel_shifter16",
    "mod10_counter",
    "pwm4",
    "rxStateMachine",
    "hamming_decoder",
    "fifo_mem8",
)
K_VALUES = (1, 5)
#: LLM sampling seeds with recorded reference answers; round ``r`` of a run
#: with ``--seed s`` samples with decoding seed ``(s + r) % DECODE_SEEDS``.
DECODE_SEEDS = 16
#: FPV assertions per design in one fpv-sweep round (two per depth 0..2),
#: drawn from a recorded pool of eight per depth.
SWEEP_POOL_PER_DEPTH = 8
#: Golden assertions per mutation design (the miner's first verified ones).
GOLDEN_PER_DESIGN = 5

SWEEP_ENGINE = dict(fallback_cycles=256, fallback_seeds=2)


def digest(text: str) -> str:
    """Short content hash used to key generated assertion text."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def proof_answer(proof: ProofResult) -> list:
    """The part of a verdict the reference pins: status, completeness, CEX cycle."""
    cycle = proof.counterexample.trigger_cycle if proof.counterexample is not None else None
    return [proof.status.value, bool(proof.complete), cycle]


def is_fpv_verdict(proof: ProofResult) -> bool:
    """True when the FPV engine decided the verdict (not a front-end error)."""
    return proof.engine != "frontend"


def reset_engine_cache() -> None:
    """Drop the scheduler's per-process engine cache so a round starts cold.

    Engines (and the reachable sets they hold) are cached per process; a
    fresh ``repro`` process starts without them, and so does every round.
    """
    scheduler_module._WORKER_ENGINES.clear()


@dataclass
class Round:
    """What one timed round did."""

    #: ``time.perf_counter()`` at the start and end of the timed region.
    start: float = 0.0
    end: float = 0.0
    #: Closed-loop units by label, in completion order: (start, end) stamps.
    units: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    #: Outcomes the round emitted.
    emitted: int = 0
    #: FPV verdicts attempted, and how many of them are complete.
    fpv: int = 0
    complete: int = 0
    #: Observed answers, keyed like the reference.
    answers: Dict[str, list] = field(default_factory=dict)
    #: Verification-service cache stats of the round (traced runs use them).
    service_stats: Dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class MarkingStore(RunStore):
    """A run store that timestamps every commit: cells and mutation designs.

    The commit times delimit the closed-loop units of the campaign, resume
    and mutation workloads.  One ``perf_counter`` call per commit is the
    only cost it adds.
    """

    def __init__(self, root) -> None:
        super().__init__(root)
        #: (unit label, commit time) per commit.
        self.marks: List[Tuple[str, float]] = []
        #: Called with the committed cell or design, to label traced units.
        self.on_commit = None

    def record_cell(self, model_name, k, design_name, outcomes) -> None:
        super().record_cell(model_name, k, design_name, outcomes)
        self._mark(f"{model_name}/k{k}/{design_name}")

    def append_mutation_marker(self, design_name, *args, **kwargs) -> None:
        super().append_mutation_marker(design_name, *args, **kwargs)
        self._mark(design_name)

    def _mark(self, label: str) -> None:
        self.marks.append((label, time.perf_counter()))
        if self.on_commit is not None:
            self.on_commit(label)


def _unit_spans(start: float, marks: Sequence[Tuple[str, float]]) -> Dict[str, Tuple[float, float]]:
    """Each commit's unit runs from the previous commit (or ``start``) to it."""
    times = [start, *(when for _, when in marks)]
    return {label: (earlier, later) for (label, later), earlier in zip(marks, times)}


# ---------------------------------------------------------------------------
# campaign and resume
# ---------------------------------------------------------------------------


def campaign_designs(corpus):
    return [corpus.design(name) for name in CAMPAIGN_DESIGNS]


def pipeline_config(decode_seed: int, backend: Optional[str] = None) -> PipelineConfig:
    config = PipelineConfig(workers=1, decoding=DecodingConfig(seed=decode_seed))
    config.engine = dataclasses.replace(config.engine, backend=backend)
    return config


def matrix_answers(matrix, decode_seed: int) -> Tuple[Dict[str, list], int, int, int]:
    """Reference-keyed answers of a campaign matrix, plus emitted/fpv/complete."""
    answers: Dict[str, list] = {}
    emitted = fpv = complete = 0
    for model_name, sweeps in matrix.results.items():
        for k, sweep in sweeps.items():
            for evaluation in sweep.designs:
                for index, outcome in enumerate(evaluation.outcomes):
                    key = f"{decode_seed}|{model_name}|{k}|{evaluation.design_name}|{index}"
                    answers[key] = [digest(outcome.raw_text), *proof_answer(outcome.proof)]
                    emitted += 1
                    if is_fpv_verdict(outcome.proof):
                        fpv += 1
                        complete += bool(outcome.proof.complete)
    return answers, emitted, fpv, complete


def run_campaign(
    store: RunStore,
    designs,
    examples,
    decode_seed: int,
    backend: Optional[str] = None,
    resume: bool = False,
):
    """One ``repro run`` (or ``repro resume``) campaign into ``store``."""
    knowledge = DesignKnowledgeBase()
    generators = [SimulatedCotsLLM(profile, knowledge) for profile in COTS_PROFILES]
    config = pipeline_config(decode_seed, backend)
    store.begin_run(
        campaign_config(generators, K_VALUES, designs, config), resume_only=resume
    )
    with CampaignRuntime(config=config, store=store) as runtime:
        matrix = runtime.run_campaign(generators, K_VALUES, designs, examples)
        stats = runtime.service.run_stats()
    store.finish_run(stats=stats)
    store.close()
    return matrix, stats


class Workload:
    """Common state: design limit, reference answers, unit callback."""

    name = ""
    #: Rounds per run at the least.  With the default ``--seconds`` every
    #: workload runs exactly this many, so the units beyond the tail (see
    #: ``run.py``) are the same units from run to run.
    min_rounds = 6

    def __init__(self, limit: Optional[int] = None):
        #: Use only ``limit`` designs, evenly spaced (the self-test's tiny size).
        self.limit = limit
        #: Reference answers, loaded after set-up (see ``reference.py``).
        self.reference: Dict = {}
        #: Called with a label whenever a closed-loop unit completes.
        self.on_unit = None
        #: Context manager around set-up work the measured process does not
        #: do itself (resume's interrupted run); traced runs pause spans in it.
        self.untraced = contextlib.nullcontext

    def _limited(self, designs):
        if not self.limit:
            return designs
        return designs[:: max(1, len(designs) // self.limit)][: self.limit]


class CampaignWorkload(Workload):
    """``repro run``: generate → correct → verify, knowledge mining included."""

    name = "campaign"
    #: Six sampling seeds a run: what the LLM samples moves the rate and the
    #: median cell by 9% and 25% from one seed to the next, and by 3% over six.
    min_rounds = 6
    #: Rounds continue an interrupted run (``repro resume``).
    resumes = False

    def setup(self, seed: int, work: Path):
        corpus = corpus_module.get_corpus("assertionbench")
        designs = self._limited(campaign_designs(corpus))
        examples = icl_module.build_icl_examples(corpus, DesignKnowledgeBase())
        return {"designs": designs, "examples": examples}

    def round(self, inputs, seed: int, index: int, work: Path) -> Round:
        decode_seed = self.decode_seed(seed, index)
        run_dir = self.run_dir(inputs, seed, index, work)
        reset_engine_cache()
        store = MarkingStore(run_dir)
        store.on_commit = self.on_unit
        start = time.perf_counter()
        matrix, stats = run_campaign(
            store, inputs["designs"], inputs["examples"], decode_seed,
            resume=self.resumes,
        )
        end = time.perf_counter()
        answers, emitted, fpv, complete = matrix_answers(matrix, decode_seed)
        shutil.rmtree(run_dir, ignore_errors=True)
        return Round(
            start=start,
            end=end,
            units=_unit_spans(start, store.marks),
            emitted=emitted,
            fpv=fpv,
            complete=complete,
            answers=answers,
            service_stats=stats,
        )

    def run_dir(self, inputs, seed: int, index: int, work: Path) -> Path:
        """A fresh run directory for round ``index``."""
        return work / f"round-{index}"

    def decode_seed(self, seed: int, index: int) -> int:
        return (seed + index) % DECODE_SEEDS

    def expected(self, inputs, seed: int, index: int) -> Dict[str, list]:
        decode_seed = self.decode_seed(seed, index)
        names = {design.name for design in inputs["designs"]}
        prefix = f"{decode_seed}|"
        return {
            key: value
            for key, value in self.reference.items()
            if key.startswith(prefix) and key.split("|")[3] in names
        }


def cut_commit_log(run_dir: Path, seed: int, index: int) -> None:
    """Simulate a kill: keep half the commit log (± 2 lines) plus a torn line.

    The range is narrow on purpose: every cell cut changes how much a
    resume regenerates, so a wide range would move the rate with the seed.
    """
    path = run_dir / "completed.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    keep = len(lines) // 2 + random.Random(f"resume-cut|{seed}|{index}").randint(-2, 2)
    torn = lines[keep][: len(lines[keep]) // 2]
    path.write_text("".join(lines[:keep]) + torn, encoding="utf-8")


class ResumeWorkload(CampaignWorkload):
    """``repro resume`` of a campaign killed halfway: the store is *read*."""

    name = "resume"
    resumes = True
    #: One LLM sampling seed for every run: the verdict mix then never moves
    #: with ``--seed``, which drives only the kill point.
    DECODE_SEED = 0

    def setup(self, seed: int, work: Path):
        inputs = super().setup(seed, work)
        completed = work / "completed"
        with self.untraced():
            run_campaign(
                RunStore(completed), inputs["designs"], inputs["examples"], self.DECODE_SEED
            )
        inputs["completed"] = completed
        return inputs

    def decode_seed(self, seed: int, index: int) -> int:
        return self.DECODE_SEED

    def run_dir(self, inputs, seed: int, index: int, work: Path) -> Path:
        """The completed run directory, killed at round ``index``'s point."""
        run_dir = work / f"round-{index}"
        shutil.copytree(inputs["completed"], run_dir)
        cut_commit_log(run_dir, seed, index)
        return run_dir


# ---------------------------------------------------------------------------
# fpv-sweep
# ---------------------------------------------------------------------------


def sweep_pool(design) -> List[Tuple[List[str], List[str]]]:
    """Per depth 0..2, the recorded pool of well-formed candidate assertions.

    Each pool comes in two halves: bounds at or next to the output's maximum,
    which are mostly proven, and small bounds, which are mostly refuted.
    """
    model = design.model
    outputs = list(model.outputs or model.signals)
    inputs = list(model.non_clock_inputs)
    pools: List[Tuple[List[str], List[str]]] = [([], []), ([], []), ([], [])]
    for j in range(SWEEP_POOL_PER_DEPTH):
        out = outputs[j % len(outputs)]
        mask = model.signals[out].mask
        bound = (mask, mask - 1, mask >> 1, 1)[j % 4]
        inp = inputs[(j // 2) % len(inputs)]
        value = (j // 4) & model.signals[inp].mask
        small = j % 4 >= 2
        pools[0][small].append(f"({inp} >= 0) |-> ({out} <= {bound});")
        pools[1][small].append(f"({inp} == {value}) |=> ({out} <= {bound});")
        pools[2][small].append(
            f"({inp} == {value}) ##1 ({inp} == {value}) |=> ({out} <= {bound});"
        )
    return [(list(dict.fromkeys(near)), list(dict.fromkeys(small))) for near, small in pools]


def sweep_texts(design) -> List[str]:
    """Every text of the design's pools, once each."""
    return list(dict.fromkeys(
        text for halves in sweep_pool(design) for half in halves for text in half
    ))


def sweep_draw(design, seed: int, index: int) -> List[str]:
    """Round ``index``'s assertions: per depth, one from each half of the pool.

    The seed shuffles each half once; round ``index`` takes the ``index``-th
    text of each shuffle, so a run's rounds draw without replacement.  Two
    drawn from the whole pool once per run moved the share of complete
    verdicts by 4% from seed to seed; drawn afresh each round, the tail
    moved by 11%.
    """
    texts: List[str] = []
    for depth, halves in enumerate(sweep_pool(design)):
        picks: List[str] = []
        for half, pool in enumerate(halves):
            # The halves of a 1-bit output share texts; the two picks differ.
            order = [text for text in pool if text not in picks]
            random.Random(f"fpv-sweep|{seed}|{design.name}|{depth}|{half}").shuffle(order)
            if order:
                picks.append(order[index % len(order)])
        texts.extend(picks)
    return texts


def sweep_engine(backend: str) -> EngineConfig:
    return EngineConfig(backend=backend, **SWEEP_ENGINE)


class FpvSweepWorkload(Workload):
    """Every ``assertionbench`` design through ``VerificationService.check_many``."""

    name = "fpv-sweep"
    #: A round takes 4.3 s on the reference host; three make a default run.
    min_rounds = 3

    def setup(self, seed: int, work: Path):
        return {"designs": self._limited(corpus_module.get_corpus("assertionbench").all_designs())}

    def round(self, inputs, seed: int, index: int, work: Path) -> Round:
        jobs = [(design, sweep_draw(design, seed, index)) for design in inputs["designs"]]
        reset_engine_cache()
        result = Round()
        service = VerificationService(
            SchedulerConfig(engine=sweep_engine(VECTORIZED), workers=1)
        )
        result.start = time.perf_counter()
        verdict_lists = []
        for design, texts in jobs:
            unit_start = time.perf_counter()
            verdict_lists.append(service.check_many([(design, texts)])[0])
            result.units[design.name] = (unit_start, time.perf_counter())
            if self.on_unit is not None:
                self.on_unit(design.name)
        result.end = time.perf_counter()
        result.service_stats = service.run_stats()
        service.close()
        for (design, texts), verdicts in zip(jobs, verdict_lists):
            for text, proof in zip(texts, verdicts):
                result.answers[f"{design.name}|{text}"] = proof_answer(proof)
                result.emitted += 1
                if is_fpv_verdict(proof):
                    result.fpv += 1
                    result.complete += bool(proof.complete)
        return result

    def expected(self, inputs, seed: int, index: int) -> Dict[str, list]:
        keys = [
            f"{design.name}|{text}"
            for design in inputs["designs"]
            for text in sweep_draw(design, seed, index)
        ]
        return {key: self.reference.get(key) for key in keys}


# ---------------------------------------------------------------------------
# mutation
# ---------------------------------------------------------------------------


def mutation_engine(backend: Optional[str]) -> EngineConfig:
    """The ``repro mutate`` engine budgets (the campaign's) on ``backend``."""
    return dataclasses.replace(PipelineConfig().engine, backend=backend)


def golden_assertions(designs, backend: Optional[str] = None) -> Dict[str, List[str]]:
    """The miner's verified assertions per design, kept only if they pass FPV."""
    knowledge = DesignKnowledgeBase()
    golden: Dict[str, List[str]] = {}
    with VerificationService(
        SchedulerConfig(engine=mutation_engine(backend), workers=1)
    ) as service:
        for design in designs:
            texts = [
                assertion.to_sva(include_assert=True)
                for assertion in knowledge.verified_assertions(design)[:GOLDEN_PER_DESIGN]
            ]
            verdicts = service.check_design(design, texts)
            golden[design.name] = [
                text for text, proof in zip(texts, verdicts) if proof.is_pass
            ]
    return golden


def mutation_answers(summary) -> Dict[str, list]:
    return {
        f"{record.design_name}|{record.mutant_id}|{record.assertion}": [
            record.outcome,
            record.status,
            bool(record.complete),
        ]
        for record in summary.records
    }


class MutationWorkload(Workload):
    """``repro mutate``: every viable mutant × golden assertion, family-batched."""

    name = "mutation"
    #: Every round is the same work; four put the third-longest design family
    #: at the tail (see ``run.py``).
    min_rounds = 4

    def setup(self, seed: int, work: Path):
        designs = corpus_module.get_corpus("assertionbench-mutation").test_designs()
        designs = self._limited(designs)
        return {"designs": designs, "golden": golden_assertions(designs)}

    def round(self, inputs, seed: int, index: int, work: Path) -> Round:
        designs = inputs["designs"]
        reset_engine_cache()
        store = MarkingStore(work / f"round-{index}")
        store.on_commit = self.on_unit
        start = time.perf_counter()
        service = VerificationService(
            SchedulerConfig(engine=mutation_engine(VECTORIZED), workers=1),
            cache=store.verdict_cache(),
            reachability_cache=store.reachability_cache(),
        )
        with service:
            summary = MutationCampaign(service, store, MutationConfig()).run(
                designs, inputs["golden"]
            )
        store.close()
        end = time.perf_counter()
        shutil.rmtree(store.root, ignore_errors=True)

        answers = mutation_answers(summary)
        # Golden assertions are an input; a different mined set fails here.
        for design in designs:
            answers[f"golden|{design.name}"] = inputs["golden"].get(design.name, [])
        fpv = [record for record in summary.records if record.engine != "frontend"]
        return Round(
            start=start,
            end=end,
            units=_unit_spans(start, store.marks),
            emitted=len(summary),
            fpv=len(fpv),
            complete=sum(bool(record.complete) for record in fpv),
            answers=answers,
            service_stats=service.run_stats(),
        )

    def expected(self, inputs, seed: int, index: int) -> Dict[str, list]:
        names = {design.name for design in inputs["designs"]}
        expected = {
            key: value
            for key, value in self.reference["verdicts"].items()
            if key.split("|")[0] in names
        }
        for name in names:
            expected[f"golden|{name}"] = self.reference["golden"].get(name, [])
        return expected


WORKLOADS = {
    workload.name: workload
    for workload in (CampaignWorkload, ResumeWorkload, FpvSweepWorkload, MutationWorkload)
}
