"""Scale pass: scheduler overhead at n = 400, 3000 and 12000, against a single-pass floor.

For each size n and dependency percentage (0 and 100), on a wallet block of
1000 accounts generated from the size's fixed seed, it times, as medians
over a fixed number of repetitions:

* ``index_build_ms``: ``ConflictIndex(block)``, phase 1's serial index of
  every frontier;
* ``schedule_ms``: ``schedule(block, variant, 2)`` for each variant;
* ``floor_ms``: one pass that keeps, per address, the latest writer's bin
  and the highest reader bin since that writer. It gives the same bins as
  ``bin_oracle`` and is the yardstick the schedules are divided by, not an
  oracle: its bins are checked against every schedule's, untimed.

The process is pinned to one CPU, so no timing depends on the load on
another CPU; under the GIL the two scheduler threads never run Python at
once anyway. The garbage collector stays on, and a collection runs before
every timed call. The record, with the interpreter and the core count,
goes into one section of a JSON file; other sections are kept:

    python scripts/scale_pass.py --section change --out BENCH.json

A section takes 12-20 s on a 2-vCPU guest with CPython 3.11. The host's
speed drifts by up to 2x over minutes, so two sections taken one after the
other do not compare two trees fairly. ``--parent`` does: it measures the
``--src`` tree and a second one rep by rep, alternating which goes first,
each tree in its own subprocess (a fresh pair per size and dependency),
both pinned to the same CPU. The section then holds both trees' medians
and the per-rep change/parent ratios of ``schedule_ms`` and
``schedule_over_floor``; it takes about twice as long:

    python scripts/scale_pass.py --parent ../parent/src --section pr --out BENCH.json
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIZES = (400, 3000, 12000)
SEEDS = {400: 1, 3000: 2, 12000: 3}  # one fixed block seed per size
REPS = {400: 41, 3000: 15, 12000: 9}
DEPENDENCY_PCTS = (0, 100)
N_ACCOUNTS = 1000
THREADS = 2
LAYERS = ("index_build", "floor")  # the timed names that are not variants


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


def make_block(binsched, n: int, dep: int):
    spec = binsched.WorkloadSpec(
        n_txns=n, n_accounts=N_ACCOUNTS, dependency_pct=dep, seed=SEEDS[n]
    )
    return binsched.generate_workload(spec)


def one_rep(binsched, block) -> tuple[dict[str, float], list[int]]:
    """Every layer timed once, in ms, and the floor's bins, checked against every schedule's."""
    times = {}
    times["index_build"], _ = timed_ms(lambda: binsched.ConflictIndex(block))
    times["floor"], floor = timed_ms(lambda: floor_bins(block))
    for variant in binsched.Variant:
        times[variant.value], result = timed_ms(
            lambda: binsched.schedule(block, variant, THREADS)
        )
        if result.assignment.initial_bin_list() != floor:
            raise AssertionError(f"{variant.value} bins differ from the floor's at n={len(block)}")
    return times, floor


def medians(reps: list[dict[str, float]]) -> dict:
    """The layers' medians over the reps, in the record's field names."""
    med = {name: statistics.median(rep[name] for rep in reps) for name in reps[0]}
    variants = [name for name in med if name not in LAYERS]
    return {
        "index_build_ms": med["index_build"],
        "floor_ms": med["floor"],
        "schedule_ms": {v: med[v] for v in variants},
        "schedule_over_floor": {v: med[v] / med["floor"] for v in variants},
    }


def point(n: int, dep: int, floor: list[int]) -> dict:
    num_bins = max(floor) + 1 if floor else 0
    return {"n": n, "dependency_pct": dep, "seed": SEEDS[n], "reps": REPS[n], "num_bins": num_bins}


def measure(binsched, n: int, dep: int) -> dict:
    block = make_block(binsched, n, dep)
    reps = []
    for _ in range(REPS[n]):  # interleaved, so a drift in host speed hits every layer alike
        times, floor = one_rep(binsched, block)
        reps.append(times)
    return {**point(n, dep, floor), **medians(reps)}


def summary(row: dict) -> str:
    return (
        f"index {row['index_build_ms']:.2f} ms, floor {row['floor_ms']:.2f} ms, "
        + ", ".join(
            f"{v} {ms:.1f} ms ({row['schedule_over_floor'][v]:.1f}x)"
            for v, ms in row["schedule_ms"].items()
        )
    )


def serve(binsched) -> None:
    """Answer each stdin line ``n dep`` with one rep on that block, as a JSON line."""
    blocks = {}
    for line in sys.stdin:
        n, dep = map(int, line.split())
        if (n, dep) not in blocks:
            blocks[n, dep] = make_block(binsched, n, dep)
        times, floor = one_rep(binsched, blocks[n, dep])
        print(json.dumps({"times": times, "floor": floor}), flush=True)


def compare(trees: dict[str, Path], n: int, dep: int) -> dict:
    """Both trees on one block, alternating rep by rep, each in its own subprocess."""
    procs = {
        name: subprocess.Popen(
            [sys.executable, __file__, "--src", str(src), "--serve"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        for name, src in trees.items()
    }
    reps: dict[str, list[dict[str, float]]] = {name: [] for name in trees}
    floors = []
    try:
        for k in range(REPS[n]):
            order = list(trees) if k % 2 == 0 else list(reversed(trees))
            for name in order:
                procs[name].stdin.write(f"{n} {dep}\n")
                procs[name].stdin.flush()
                line = procs[name].stdout.readline()
                if not line:
                    raise RuntimeError(f"the {name} tree's subprocess exited at n={n} dep={dep}")
                answer = json.loads(line)
                reps[name].append(answer["times"])
                if answer["floor"] not in floors:
                    floors.append(answer["floor"])
    finally:
        for proc in procs.values():
            proc.stdin.close()
            proc.wait()
    if len(floors) != 1:
        raise AssertionError(f"the trees' floors differ at n={n} dep={dep}: not one block")
    parent, change = reps["parent"], reps["change"]
    variants = [v for v in parent[0] if v not in LAYERS]
    return {
        **point(n, dep, floors[0]),
        "parent": medians(parent),
        "change": medians(change),
        "change_over_parent": {
            "schedule_ms": {v: [c[v] / p[v] for p, c in zip(parent, change)] for v in variants},
            "schedule_over_floor": {
                v: [(c[v] / c["floor"]) / (p[v] / p["floor"]) for p, c in zip(parent, change)]
                for v in variants
            },
        },
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
    parser.add_argument(
        "--parent", type=Path,
        help="a second source tree to alternate with --src rep by rep, as the parent",
    )
    parser.add_argument("--section", default="change", help="key of this run in the output file")
    parser.add_argument("--out", type=Path, help="JSON file to write or update")
    parser.add_argument("--serve", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for src in (args.src, args.parent):
        if src is not None and not (src / "binsched" / "__init__.py").is_file():
            sys.exit(f"error: no binsched source tree at {src}")
    if args.out is None and not args.serve:
        parser.error("the following arguments are required: --out")
    env = environment()
    if args.parent is None or args.serve:
        sys.path.insert(0, str(args.src.resolve()))
        import binsched
    if args.serve:
        serve(binsched)
        return 0

    started = time.perf_counter()
    results = []
    for n in SIZES:
        for dep in DEPENDENCY_PCTS:
            if args.parent is None:
                row = measure(binsched, n, dep)
                print(f"n={n} dep={dep}: {summary(row)}", flush=True)
            else:
                row = compare({"parent": args.parent, "change": args.src}, n, dep)
                ratios = row["change_over_parent"]["schedule_over_floor"]
                print(
                    f"n={n} dep={dep}:\n  parent {summary(row['parent'])}\n"
                    f"  change {summary(row['change'])}\n  change/parent schedule_over_floor "
                    + ", ".join(f"{v} {statistics.median(r):.3f}" for v, r in ratios.items()),
                    flush=True,
                )
            results.append(row)
    env["pass_s"] = time.perf_counter() - started
    record = json.loads(args.out.read_text()) if args.out.is_file() else {}
    record[args.section] = {"environment": env, "results": results}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
