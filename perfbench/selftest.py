"""Self-test of the benchmark: every workload end to end at a tiny size.

Run from the repository root (about a minute)::

    python3 perfbench/selftest.py

For each workload it runs ``run.py --tiny`` untraced and traced, and checks
that the run exits 0, that its last line is the result object with every
metric ``BENCHMARK.json`` names, and that every verdict matched the
reference.  It then checks that a directory holding only ``BENCHMARK.json``
and the benchmark's files makes the runner fail without printing a result,
and that the paced clock turns synthetic probes into the expected time.
This file is not collected by the repository's tier-1 tests.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(workload: str, trace: int, names) -> None:
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    label = f"{workload} --trace {trace}"
    if done.returncode != 0:
        raise SystemExit(f"{label}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{label}: unexpected result keys {sorted(result)}")
    missing = set(names) - set(result["metrics"])
    if missing:
        raise SystemExit(f"{label}: metrics missing {sorted(missing)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise SystemExit(f"{label}: verdicts differ from the reference\n{done.stderr}")
    print(f"ok  {label}: {result['attempted']} verdicts checked")


def bare_directory_fails() -> None:
    """Without the program's sources the runner must fail, printing no result."""
    with tempfile.TemporaryDirectory(dir=BENCH_DIR / ".work") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, Path(bare) / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        done = subprocess.run(
            [sys.executable, str(Path(bare) / BENCH_DIR.name / "run.py"),
             "--workload", "campaign", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    if done.returncode == 0 or done.stdout.strip():
        raise SystemExit(f"bare directory: exit {done.returncode}, stdout {done.stdout!r}")
    print("ok  bare directory fails without a result")


def pace_is_exact() -> None:
    """Probes every 20 ms at half the reference pace: a 100 ms stretch with
    five probes in it is 50 ms of work less the probes, halved."""
    sys.path.insert(0, str(BENCH_DIR))
    from pace import REFERENCE_S, PaceClock

    clock = PaceClock()
    for k in range(10):
        clock.starts.append(k * 0.02)
        clock.ends.append(k * 0.02 + 2 * REFERENCE_S)
    expected = (0.1 - 5 * 2 * REFERENCE_S) / 2
    if abs(clock.paced(0.05, 0.15) - expected) > 1e-12:
        raise SystemExit(f"pace clock: {clock.paced(0.05, 0.15)} paced s, expected {expected}")
    print("ok  pace clock")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (BENCH_DIR / ".work").mkdir(exist_ok=True)
    for workload in (entry["name"] for entry in spec["workloads"]):
        run(workload, 0, [metric["name"] for metric in spec["end_to_end"]])
        run(workload, 1, [metric["name"] for metric in spec["per_layer"]])
    bare_directory_fails()
    pace_is_exact()
    return 0


if __name__ == "__main__":
    sys.exit(main())
