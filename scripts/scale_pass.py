"""Scale pass: scheduler overhead at n = 400, 3000 and 12000, against a single-pass floor.

For each size n and dependency percentage (0 and 100), on a wallet block of
1000 accounts generated from the size's fixed seed, it times, as medians
over a fixed number of repetitions:

* ``index_build_ms``: ``ConflictIndex(block)``, phase 1's serial index;
* ``frontier_loop_ms``: ``index.frontier(txn)`` for every transaction, on
  one thread;
* ``schedule_ms``: ``schedule(block, variant, 2)`` for each variant;
* ``floor_ms``: one pass that keeps, per address, the latest writer's bin
  and the highest reader bin since that writer. It gives the same bins as
  ``bin_oracle`` and is the yardstick the schedules are divided by, not an
  oracle: its bins are checked against every schedule's, untimed.

The process is pinned to one CPU, so no timing depends on the load on
another CPU; under the GIL the two scheduler threads never run Python at
once anyway. The garbage collector stays on, and a collection runs before
every timed call. The record, with the interpreter and the core count,
goes into one section of a JSON file; other sections are kept, so two
source trees can be compared in one file:

    python scripts/scale_pass.py --src ../parent/src --section parent --out BENCH.json
    python scripts/scale_pass.py --section change --out BENCH.json

A section takes 12-20 s on a 2-vCPU guest with CPython 3.11. The host's
speed drifts by up to 2x over minutes, so compare sections by ratios to
the floor, or by differences well beyond that.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

SIZES = (400, 3000, 12000)
SEEDS = {400: 1, 3000: 2, 12000: 3}  # one fixed block seed per size
REPS = {400: 41, 3000: 15, 12000: 9}
DEPENDENCY_PCTS = (0, 100)
N_ACCOUNTS = 1000
THREADS = 2


def floor_bins(txns) -> list[int]:
    """Each transaction's bin in one pass over the block, from per-address bins."""
    writer_bin: dict = {}  # address -> bin of its latest writer
    reader_bin: dict = {}  # address -> highest bin of its read-only readers since that writer
    bins = []
    for txn in txns:
        writes = txn.write_set
        reads = [a for a in txn.read_set if a not in writes]
        b = 0
        for a in writes:
            b = max(b, writer_bin.get(a, -1) + 1, reader_bin.get(a, -1) + 1)
        for a in reads:
            b = max(b, writer_bin.get(a, -1) + 1)
        for a in writes:
            writer_bin[a] = b
            reader_bin.pop(a, None)
        for a in reads:
            if reader_bin.get(a, -1) < b:
                reader_bin[a] = b
        bins.append(b)
    return bins


def timed_ms(fn) -> tuple[float, object]:
    gc.collect()
    start = time.perf_counter()
    out = fn()
    return (time.perf_counter() - start) * 1e3, out


def measure(binsched, n: int, dep: int) -> dict:
    block = binsched.generate_workload(
        binsched.WorkloadSpec(
            n_txns=n, n_accounts=N_ACCOUNTS, dependency_pct=dep, seed=SEEDS[n]
        )
    )
    variants = list(binsched.Variant)
    times: dict[str, list[float]] = {"index_build": [], "frontier_loop": [], "floor": []}
    times.update({v.value: [] for v in variants})
    for _ in range(REPS[n]):  # interleaved, so a drift in host speed hits every layer alike
        ms, index = timed_ms(lambda: binsched.ConflictIndex(block))
        times["index_build"].append(ms)
        frontier = index.frontier
        ms, _ = timed_ms(lambda: [frontier(txn) for txn in block])
        times["frontier_loop"].append(ms)
        ms, floor = timed_ms(lambda: floor_bins(block))
        times["floor"].append(ms)
        for variant in variants:
            ms, result = timed_ms(lambda: binsched.schedule(block, variant, THREADS))
            times[variant.value].append(ms)
            if result.assignment.initial_bin_list() != floor:
                raise AssertionError(f"{variant.value} bins differ from the floor's at n={n}")
    med = {name: statistics.median(values) for name, values in times.items()}
    return {
        "n": n,
        "dependency_pct": dep,
        "seed": SEEDS[n],
        "reps": REPS[n],
        "num_bins": max(floor) + 1 if floor else 0,
        "index_build_ms": med["index_build"],
        "frontier_loop_ms": med["frontier_loop"],
        "floor_ms": med["floor"],
        "schedule_ms": {v.value: med[v.value] for v in variants},
        "schedule_over_floor": {v.value: med[v.value] / med["floor"] for v in variants},
    }


def environment() -> dict:
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    pinned = None
    if affinity:
        pinned = affinity[-1]
        os.sched_setaffinity(0, {pinned})
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "gil": getattr(sys, "_is_gil_enabled", lambda: True)(),
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(affinity) if affinity else None,
        "pinned_cpu": pinned,
        "machine": platform.machine(),
        "scheduler_threads": THREADS,
        "accounts": N_ACCOUNTS,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
        help="source tree to import binsched from (default: this checkout's)",
    )
    parser.add_argument("--section", default="change", help="key of this run in the output file")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write or update")
    args = parser.parse_args(argv)
    if not (args.src / "binsched" / "__init__.py").is_file():
        sys.exit(f"error: no binsched source tree at {args.src}")
    sys.path.insert(0, str(args.src.resolve()))
    import binsched

    env = environment()
    started = time.perf_counter()
    results = []
    for n in SIZES:
        for dep in DEPENDENCY_PCTS:
            row = measure(binsched, n, dep)
            results.append(row)
            print(
                f"n={n} dep={dep}: index {row['index_build_ms']:.2f} ms, "
                f"frontiers {row['frontier_loop_ms']:.2f} ms, floor {row['floor_ms']:.2f} ms, "
                + ", ".join(
                    f"{v} {ms:.1f} ms ({row['schedule_over_floor'][v]:.1f}x)"
                    for v, ms in row["schedule_ms"].items()
                ),
                flush=True,
            )
    env["pass_s"] = time.perf_counter() - started
    record = json.loads(args.out.read_text()) if args.out.is_file() else {}
    record[args.section] = {"environment": env, "results": results}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
