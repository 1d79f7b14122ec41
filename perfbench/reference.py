"""Record the benchmark's reference answers on the ``interpreted`` backend.

The interpreted backend is the tree-walking reference evaluator: it shares
no code with the compiled closures or the vector kernels, so answers
recorded on it check every faster path.  Run from the repository root::

    python3 perfbench/reference.py                 # all workloads
    python3 perfbench/reference.py --workload mutation

The answers land in ``perfbench/reference/<workload>.json``; each timed run
compares its verdicts against them.  Recording takes several minutes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"


def reference_path(workload: str) -> Path:
    # The resume workload rebuilds the campaign's matrix: same answers.
    return REFERENCE_DIR / f"{'campaign' if workload == 'resume' else workload}.json"


def load_reference(workload: str):
    with reference_path(workload).open(encoding="utf-8") as handle:
        return json.load(handle)


def _dumps(data: dict) -> str:
    """Sorted JSON with one answer per line, so re-recordings diff by verdict."""
    lines = [
        f"{json.dumps(key)}: {_dumps(value) if isinstance(value, dict) else json.dumps(value)}"
        for key, value in sorted(data.items())
    ]
    return "{\n" + ",\n".join(lines) + "\n}"


def _write(workload: str, data) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    reference_path(workload).write_text(_dumps(data) + "\n", encoding="utf-8")


def record_campaign(work: Path) -> dict:
    from repro.bench.corpus import get_corpus
    from repro.bench.icl import build_icl_examples
    from repro.bench.knowledge import DesignKnowledgeBase
    from repro.core.store import RunStore
    from repro.sim.compile import INTERPRETED

    from workloads import DECODE_SEEDS, campaign_designs, matrix_answers, run_campaign

    corpus = get_corpus("assertionbench")
    designs = campaign_designs(corpus)
    examples = build_icl_examples(corpus, DesignKnowledgeBase())
    answers = {}
    for decode_seed in range(DECODE_SEEDS):
        matrix, _ = run_campaign(
            RunStore(work / f"seed-{decode_seed}"), designs, examples, decode_seed, INTERPRETED
        )
        answers.update(matrix_answers(matrix, decode_seed)[0])
        print(f"campaign decode seed {decode_seed}: {len(answers)} answers", flush=True)
    return answers


def record_fpv_sweep(work: Path) -> dict:
    from repro.bench.corpus import get_corpus
    from repro.fpv.engine import FormalEngine
    from repro.sim.compile import INTERPRETED

    from workloads import proof_answer, sweep_engine, sweep_texts

    answers = {}
    for design in get_corpus("assertionbench").all_designs():
        texts = sweep_texts(design)
        engine = FormalEngine(design, sweep_engine(INTERPRETED))
        for text, proof in zip(texts, engine.check_batch(texts)):
            answers[f"{design.name}|{text}"] = proof_answer(proof)
        print(f"fpv-sweep {design.name}: {len(answers)} answers", flush=True)
    return answers


def record_mutation(work: Path) -> dict:
    from repro.bench.corpus import get_corpus
    from repro.core.scheduler import SchedulerConfig, VerificationService
    from repro.mutate import MutationCampaign, MutationConfig
    from repro.sim.compile import INTERPRETED

    from workloads import golden_assertions, mutation_answers, mutation_engine

    designs = get_corpus("assertionbench-mutation").test_designs()
    golden = golden_assertions(designs, INTERPRETED)
    with VerificationService(
        SchedulerConfig(engine=mutation_engine(INTERPRETED), workers=1)
    ) as service:
        # The per-mutant path is the reference the family sweep must match.
        summary = MutationCampaign(
            service, None, MutationConfig(family_batching=False)
        ).run(designs, golden)
    return {"golden": golden, "verdicts": mutation_answers(summary)}


RECORDERS = {
    "campaign": record_campaign,
    "fpv-sweep": record_fpv_sweep,
    "mutation": record_mutation,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(RECORDERS), action="append")
    args = parser.parse_args()
    root = BENCH_DIR.parent
    if not (root / "src" / "repro").is_dir():
        print(f"error: no repro sources under {root / 'src'}", file=sys.stderr)
        return 2
    os.environ["REPRO_EVAL_BACKEND"] = "interpreted"
    for name in ("REPRO_VECTOR_PLAN", "REPRO_FPV_WORKERS"):
        os.environ.pop(name, None)
    sys.path.insert(0, str(root / "src"))
    work_root = BENCH_DIR / ".work"
    work_root.mkdir(exist_ok=True)
    for workload in args.workload or RECORDERS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory(dir=work_root) as work:
            data = RECORDERS[workload](Path(work))
        _write(workload, data)
        print(f"recorded {workload} in {time.perf_counter() - start:.1f}s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
