"""Stress the helper variants against the serial bin oracle.

Generates ``--blocks`` wallet blocks (n <= 1000) from ``--seed`` and runs
each through ASSISTED and LOCKFREE at 2 and 8 threads. Half of the LOCKFREE
runs get a random crash plan: a random crash point and between 1 and
``threads - 1`` crashed workers. Every run's bins are checked against
``bin_oracle``. Exits 1 on any wrong bins or error, 0 otherwise.

    PYTHONPATH=src python scripts/stress_helpers.py --seed 7 --blocks 100
"""

from __future__ import annotations

import argparse
import random
import sys
import time
import traceback

from binsched import (
    CRASH_POINTS,
    Variant,
    WorkloadSpec,
    bin_oracle,
    generate_workload,
    make_fault_plan,
    schedule,
)

THREAD_COUNTS = (2, 8)
MAX_N = 1000


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--blocks", type=int, required=True)
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    runs = crashed_runs = failures = 0
    started = time.perf_counter()
    for b in range(args.blocks):
        spec = WorkloadSpec(
            n_txns=rng.randint(1, MAX_N),
            n_accounts=rng.randint(2, 200),
            dependency_pct=rng.choice([0, 10, 40, 70, 100]),
            seed=rng.randrange(2**32),
        )
        block = generate_workload(spec)
        expected = bin_oracle(block)
        for variant in (Variant.ASSISTED, Variant.LOCKFREE):
            for threads in THREAD_COUNTS:
                faults = None
                if variant is Variant.LOCKFREE and rng.random() < 0.5:
                    faults = make_fault_plan(
                        threads,
                        crashed_pct=100 * rng.randint(1, threads - 1) / threads,
                        crash_point=rng.choice(CRASH_POINTS),
                        seed=rng.randrange(2**32),
                    )
                    crashed_runs += 1
                runs += 1
                label = f"block {b} ({spec}) {variant.value} threads={threads} faults={faults}"
                try:
                    result = schedule(block, variant, threads, faults)
                except Exception as exc:  # report every failure, keep going
                    failures += 1
                    print(f"ERROR {label}: {exc!r}", flush=True)
                    traceback.print_exc()
                    continue
                if result.assignment.initial_bin_list() != expected:
                    failures += 1
                    print(f"WRONG BINS {label}", flush=True)
    elapsed = time.perf_counter() - started
    print(
        f"{runs} runs ({crashed_runs} with crashes) over {args.blocks} blocks, "
        f"{failures} failed, {elapsed:.1f} s"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
