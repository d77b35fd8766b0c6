"""Block-replay benchmark: a validator replaying a chain, one block at a time.

The loop is closed with one client. For block ``b`` it generates the block
from ``seed + b``, then runs it under each config: ``schedule_with_watchdog``
followed by ``execute_plan``. It checks the result, and only then moves on to
the next block. One sample is the wall time from the ``schedule_with_watchdog``
call to the return of ``execute_plan``, when the block's final state exists.

Configs:

* ``standard``, ``assisted``, ``lockfree``: the three variants with the
  workload's fault plan (a delayed worker on ``faulty``, none elsewhere);
* ``lockfree_crash``: lockfree with one of the two workers crashed, the crash
  point rotating through ``CRASH_POINTS`` block by block, and no delay. Its
  block executes on the one surviving thread.

Checks, none of them timed:

* every sample: final balances equal ``execute_serial``, and bins equal those
  of the block's first successful config;
* once per run, on block 0: each config's bins equal ``bin_oracle`` and the
  conflict index's lower sets equal ``conflict_sets_oracle``.

A sample fails when it raises ``RuntimeError`` (``NonTermination`` from the
watchdog, or the helper variants' incomplete-assignment error) or produces a
wrong result. Failed samples are counted, never retried.

With ``trace=False`` the run reports the end-to-end metrics:

* ``<config>.block_ms.p50`` and ``<config>.block_ms.tail``, where the tail is
  the highest percentile with at least ten samples beyond it; the percentile
  and the sample count are printed and recorded;
* ``throughput_tps``: transactions of successful samples per timed second,
  over the four configs of a block; the median over blocks;
* ``success_pct``: successful samples as a share of those attempted. It is
  the complement of the failed share, which is printed too; a share that
  reads 0 cannot carry a relative regression bound;
* ``setup_s``: generating a block and replaying it once per config, untimed
  as a sample; the median over the first ``SETUP_REPS`` blocks.

Two measures keep runs on a shared host comparable:

* the process is pinned to one CPU. Under the GIL the two threads never run
  Python at once, and handing the GIL between two vCPUs makes a block's time
  depend on what else runs on the other one: up to 1.7x on ``hot``;
* the end-to-end times are reported at reference host speed. The speed the
  host gives the process flips between states about 2x apart, each lasting
  from milliseconds to minutes. So the run times ``calibrate``, a fixed loop
  that uses no binsched code, in wall and CPU time, before and after every
  timed span. ``HostSpeed.adjust`` rescales the CPU share of the span by the
  mean of the two and keeps the rest, such as the sleeps of ``faulty``, as
  measured. Measured values are printed and recorded beside them.

With ``trace=True`` it first replays untraced for a third of the time, then
traced, recording a span around every layer call. It reports the per-layer
metrics, among them the tracing overhead, and writes the spans to a file.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

from binsched import (
    CRASH_POINTS,
    AtomicInt,
    ConflictIndex,
    FaultPlan,
    Variant,
    WalletState,
    WorkloadSpec,
    bin_oracle,
    build_execution_plan,
    conflict_sets_oracle,
    execute_plan,
    execute_serial,
    generate_workload,
    schedule_with_watchdog,
)

# Scheduler and executor threads. The reference machine has 2 cores; more
# threads would measure the OS scheduler instead of binsched.
THREADS = 2
WATCHDOG_SECS = 5.0  # about 40x the slowest config's block time
SETUP_REPS = 9
TAIL_LADDER = (99, 95, 90, 80, 75, 50)
TAIL_MIN_BEYOND = 10
ATOMIC_OPS = 20_000
N_ACCOUNTS = 100  # caps the hot-account pool, a cap these block sizes never reach
# CPU ms of calibrate() on the reference machine (2-vCPU KVM guest, CPython
# 3.11.7) in the slower of its two usual states
CALIB_REF_MS = 1.8

MAIN_CONFIGS = ("standard", "assisted", "lockfree")
CONFIGS = MAIN_CONFIGS + ("lockfree_crash",)
VARIANT_OF = {
    "standard": Variant.STANDARD,
    "assisted": Variant.ASSISTED,
    "lockfree": Variant.LOCKFREE,
    "lockfree_crash": Variant.LOCKFREE,
}
CRASHED_WORKER = 1
DELAYED_WORKER = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_txns: int
    dependency_pct: float
    per_txn_work: float = 0.0  # seconds of simulated execution per transaction
    delay_per_claim: float = 0.0  # delay of one worker in the three main configs

    def spec(self, seed: int) -> WorkloadSpec:
        return WorkloadSpec(
            n_txns=self.n_txns,
            n_accounts=N_ACCOUNTS,
            dependency_pct=self.dependency_pct,
            seed=seed,
        )

    def fault_plan(self, config: str, block_no: int) -> FaultPlan:
        if config == "lockfree_crash":
            return FaultPlan(
                crashed_workers=frozenset({CRASHED_WORKER}),
                crash_point=CRASH_POINTS[block_no % len(CRASH_POINTS)],
            )
        if self.delay_per_claim > 0:
            return FaultPlan(
                delayed_workers=frozenset({DELAYED_WORKER}),
                delay_per_claim=self.delay_per_claim,
            )
        return FaultPlan()

    def exec_threads(self, config: str) -> int:
        return THREADS - 1 if config == "lockfree_crash" else THREADS


# Sized so that a 30 s run on the reference machine (CPython 3.11, 2 cores)
# replays about 70 blocks of ``faulty`` and 150 of ``cold`` and ``hot``: the
# tail is then p80 and p90, with at least ten samples beyond it. Within a run,
# block times of larger ``cold`` and ``hot`` blocks spread too widely for a
# run's median to repeat.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cold",
            "dependency 0: conflict-free block, time goes to phase 2 inserts, "
            "per-claim atomics and pool start-up",
            n_txns=1000,
            dependency_pct=0,
        ),
        Workload(
            "hot",
            "dependency 100: O(n^2) conflict table, long bin chains and "
            "NOT_READY skips in the helper variants",
            n_txns=400,
            dependency_pct=100,
        ),
        Workload(
            "faulty",
            "dependency 40, one worker delayed 1 ms per claim, 100 us work per "
            "transaction: the paper's latency experiment",
            n_txns=650,
            dependency_pct=40,
            per_txn_work=100e-6,
            delay_per_claim=1e-3,
        ),
    )
}


def pin_to_one_cpu() -> int | None:
    """Pin the process, and the threads it starts later, to its highest CPU."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def calibrate() -> tuple[float, float]:
    """Wall and CPU milliseconds of a fixed single-threaded loop of dict and set work.

    It uses no binsched code, so a change to the program cannot move it; it
    moves only with the speed the host gives the process. The garbage
    collector is off while it runs: a full collection of the process's heap
    would take several times the loop's own time.
    """
    gc.disable()
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        groups: dict[int, set[int]] = {}
        for i in range(5_000):
            key = i * 7919 % 5003
            members = groups.get(key)
            if members is None:
                groups[key] = members = set()
            members.add(i & 63)
    finally:
        gc.enable()
    return (time.perf_counter() - start) * 1e3, (time.process_time() - cpu_start) * 1e3


@dataclass(frozen=True)
class HostSpeed:
    """Wall and CPU milliseconds of ``calibrate`` around one timed span."""

    wall_ms: float
    cpu_ms: float

    @classmethod
    def around(cls, before: tuple[float, float], after: tuple[float, float]) -> HostSpeed:
        return cls((before[0] + after[0]) / 2, (before[1] + after[1]) / 2)

    def adjust(self, wall_ms: float, cpu_ms: float) -> float:
        """A span of ``wall_ms``, ``cpu_ms`` of it on the CPU, at reference speed.

        The span's CPU time ran ``self.cpu_ms / CALIB_REF_MS`` times slower
        than on the reference host, and waiting for the CPU (other load,
        steal) stretched it by ``self.wall_ms / self.cpu_ms``. The span's
        other time, sleeps and waits, is kept as measured.
        """
        return wall_ms + cpu_ms * (CALIB_REF_MS - self.wall_ms) / self.cpu_ms


class Tracer:
    """In-memory spans: name, start, end, parent span and block id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []

    def add(self, name: str, start: float, end: float, block: int, parent: int | None = None) -> int:
        self.spans.append(
            {"id": len(self.spans), "name": name, "start": start, "end": end,
             "parent": parent, "block": block}
        )
        return len(self.spans) - 1

    def durations_ms(self, name: str) -> list[float]:
        return [(s["end"] - s["start"]) * 1e3 for s in self.spans if s["name"] == name]


@dataclass
class Sample:
    config: str
    block: int
    n: int
    ms: float
    cpu_ms: float  # process CPU time, all threads, over the same span
    crash_point: str | None = None
    error: str | None = None
    wrong: bool = False
    bins: list[int] | None = None
    phase1_ms: float = math.nan
    phase2_ms: float = math.nan
    pool_ms: float = math.nan
    execute_ms: float = math.nan
    host: HostSpeed | None = None  # calibration around the sample
    cas_retries: int = 0
    not_ready_skips: int = 0
    final: dict | None = None  # balances, dropped once checked

    @property
    def ok(self) -> bool:
        return self.error is None and not self.wrong


def run_config(
    workload: Workload,
    config: str,
    block,
    block_no: int,
    tracer: Tracer | None = None,
    parent: int | None = None,
) -> Sample:
    """One timed replay: schedule the block, then execute its plan."""
    faults = workload.fault_plan(config, block_no)
    crash_point = faults.crash_point.value if faults.crashes_anyone else None
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        result = schedule_with_watchdog(
            block, VARIANT_OF[config], THREADS, faults, watchdog_secs=WATCHDOG_SECS
        )
        scheduled = time.perf_counter()
        final = execute_plan(
            result.plan, block, WalletState(), workload.exec_threads(config),
            workload.per_txn_work,
        )
    except RuntimeError as exc:  # NonTermination or an incomplete assignment
        return Sample(config, block_no, len(block), (time.perf_counter() - start) * 1e3,
                      (time.process_time() - cpu_start) * 1e3,
                      crash_point, error=f"{type(exc).__name__}: {exc}")
    end, cpu_end = time.perf_counter(), time.process_time()
    if tracer is not None:
        build_execution_plan(result.assignment)
        built = time.perf_counter()
        span = tracer.add(config, start, built, block_no, parent)
        tracer.add("scheduler.schedule", start, scheduled, block_no, span)
        tracer.add("executor.execute", scheduled, end, block_no, span)
        tracer.add("executor.plan_build", end, built, block_no, span)
    timing = result.timing
    return Sample(
        config, block_no, len(block), (end - start) * 1e3, (cpu_end - cpu_start) * 1e3,
        crash_point,
        bins=result.assignment.initial_bin_list(),
        phase1_ms=timing.phase1_s * 1e3,
        phase2_ms=timing.phase2_s * 1e3,
        pool_ms=(scheduled - start - timing.total_s) * 1e3,
        execute_ms=(end - scheduled) * 1e3,
        cas_retries=result.retries.cas_retries,
        not_ready_skips=result.retries.not_ready_skips,
        final=final.balances,
    )


def check_block(samples: list[Sample], block) -> None:
    """Mark wrong samples: balances against serial replay, bins against each other."""
    reference = execute_serial(block, WalletState()).balances
    reference_bins = next((s.bins for s in samples if s.error is None), None)
    for s in samples:
        if s.error is None:
            s.wrong = s.final != reference or s.bins != reference_bins
            s.final = None


def trace_layers(workload: Workload, block, b: int, tracer: Tracer, parent: int) -> None:
    """Traced run only: time, one by one, the layers a replay goes through."""
    start = time.perf_counter()
    index = ConflictIndex(block)
    built = time.perf_counter()
    for txn in block:
        index.lower_conflicts(txn)
    passed = time.perf_counter()
    execute_serial(block, WalletState(), workload.per_txn_work)
    tracer.add("conflict.index_build", start, built, b, parent)
    tracer.add("conflict.lower_conflicts", built, passed, b, parent)
    tracer.add("executor.serial", passed, time.perf_counter(), b, parent)


def replay(
    workload: Workload,
    seed: int,
    seconds: float,
    block,
    calibrations: list[tuple[float, float]],
    tracer: Tracer | None = None,
) -> list[Sample]:
    """Closed loop over blocks 0, 1, ... until ``seconds`` pass; block 0 is given.

    Appends the ``calibrate`` times before and after each sample to
    ``calibrations``.
    """
    deadline = time.perf_counter() + seconds
    samples: list[Sample] = []
    b = 0
    while True:
        gc.collect()
        calibrations.append(calibrate())
        start = time.perf_counter()
        root = tracer.add("block", start, math.nan, b) if tracer is not None else None
        if tracer is not None:
            trace_layers(workload, block, b, tracer, root)
        done = []
        for config in CONFIGS:
            done.append(run_config(workload, config, block, b, tracer, root))
            calibrations.append(calibrate())
            done[-1].host = HostSpeed.around(*calibrations[-2:])
        check_start = time.perf_counter()
        check_block(done, block)
        samples.extend(done)
        if tracer is not None:
            tracer.add("check.block", check_start, time.perf_counter(), b, root)
            tracer.spans[root]["end"] = time.perf_counter()
        if time.perf_counter() >= deadline:
            return samples
        b += 1
        start = time.perf_counter()
        block = generate_workload(workload.spec(seed + b))
        if tracer is not None:
            tracer.add("workload.generate", start, time.perf_counter(), b)


def traffic(block) -> tuple[dict, list[frozenset[int]]]:
    """cp1, cp2, table size and bin shape, from the lower conflict sets."""
    index = ConflictIndex(block)
    lower = [index.lower_conflicts(txn) for txn in block]
    dependent = [bool(s) for s in lower]
    bins: list[int] = []
    for s in lower:
        for j in s:
            dependent[j] = True
        bins.append(1 + max((bins[j] for j in s), default=-1))
    entries = sum(len(s) for s in lower)
    n = len(block)
    return {
        "cp1": 100.0 * sum(dependent) / n,
        "cp2": 100.0 * entries / n,
        "table_entries": entries,
        "num_bins": max(bins) + 1,
        "max_bin_size": max(Counter(bins).values()),
    }, lower


def oracle_check(block, lower: list[frozenset[int]], samples: list[Sample]) -> float:
    """Check block 0 against the quadratic oracles, marking wrong samples.

    The conflict sets come from the conflict index every config uses, so a
    mismatch there marks every block-0 sample wrong. Returns the oracles' time.
    """
    start = time.perf_counter()
    oracle_bins = bin_oracle(block)
    oracle_sets = conflict_sets_oracle(block)
    elapsed = time.perf_counter() - start
    for s in samples:
        if s.block == 0 and s.error is None:
            s.wrong = s.wrong or s.bins != oracle_bins or lower != oracle_sets
    return elapsed


def setup(
    workload: Workload, seed: int, calibrations: list[tuple[float, float]]
) -> tuple[list, list[tuple[float, float, HostSpeed]], list[float]]:
    """Generate a block and warm every config up by replaying it once, untimed.

    Done for each of blocks 0 to ``SETUP_REPS - 1``, so that the median
    set-up time does not hang on one block's content, with a ``calibrate``
    before and after each. Returns block 0, the set-up times in seconds as
    (wall, CPU, calibration) and the generation times in seconds.
    """
    setups, gens, blocks = [], [], []
    for b in range(SETUP_REPS):
        calibrations.append(calibrate())
        start, cpu_start = time.perf_counter(), time.process_time()
        blocks.append(generate_workload(workload.spec(seed + b)))
        gens.append(time.perf_counter() - start)
        for config in CONFIGS:
            run_config(workload, config, blocks[-1], b)
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
        calibrations.append(calibrate())
        setups.append((wall, cpu, HostSpeed.around(*calibrations[-2:])))
    return blocks[0], setups, gens


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def tail_pct(count: int) -> int:
    """Highest ladder percentile with at least ten samples beyond it."""
    for pct in TAIL_LADDER:
        if count - math.ceil(pct / 100 * count) >= TAIL_MIN_BEYOND:
            return pct
    return TAIL_LADDER[-1]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.nan


def end_to_end(
    samples: list[Sample],
    setups: list[tuple[float, float, HostSpeed]],
    at_reference_speed: bool = True,
) -> tuple[dict, dict]:
    """End-to-end metrics, at reference host speed or as measured."""

    def at_speed(wall_ms: float, cpu_ms: float, host: HostSpeed) -> float:
        return host.adjust(wall_ms, cpu_ms) if at_reference_speed else wall_ms

    metrics, tails = {}, {}
    for config in CONFIGS:
        ms = [at_speed(s.ms, s.cpu_ms, s.host) for s in samples if s.config == config and s.ok]
        pct = tail_pct(len(ms))
        tails[config] = {"percentile": pct, "samples": len(ms)}
        metrics[f"{config}.block_ms.p50"] = (percentile(ms, 50) if ms else math.nan, "ms")
        metrics[f"{config}.block_ms.tail"] = (percentile(ms, pct) if ms else math.nan, "ms")
    blocks: dict[int, list[Sample]] = {}
    for s in samples:
        blocks.setdefault(s.block, []).append(s)
    metrics["throughput_tps"] = (
        median(1e3 * sum(s.n for s in b if s.ok) / sum(at_speed(s.ms, s.cpu_ms, s.host) for s in b)
               for b in blocks.values()),
        "1/s",
    )
    metrics["success_pct"] = (100.0 * sum(s.ok for s in samples) / len(samples), "%")
    metrics["setup_s"] = (
        statistics.median(at_speed(wall * 1e3, cpu * 1e3, host) for wall, cpu, host in setups)
        / 1e3,
        "s",
    )
    return metrics, tails


def atomics_ns() -> tuple[float, float]:
    """Single-threaded cost of one fetch_add and one compare_and_set, median of 5."""
    adds, cases = [], []
    cell = AtomicInt(0)
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(ATOMIC_OPS):
            cell.fetch_add(1)
        adds.append((time.perf_counter() - start) / ATOMIC_OPS * 1e9)
        value = cell.load()
        start = time.perf_counter()
        for _ in range(ATOMIC_OPS):
            cell.compare_and_set(value, value + 1)
            value += 1
        cases.append((time.perf_counter() - start) / ATOMIC_OPS * 1e9)
    return statistics.median(adds), statistics.median(cases)


def per_layer(
    untraced: list[Sample],
    traced: list[Sample],
    tracer: Tracer,
    counts: dict,
    gens: list[float],
    oracle_s: float,
    host: HostSpeed,
) -> dict:
    def span_ms(name: str) -> float:
        return median(tracer.durations_ms(name))

    def p50_sum(samples: list[Sample]) -> float:
        return sum(median(s.ms for s in samples if s.ok and s.config == c) for c in CONFIGS)

    done = [s for s in traced if s.ok]
    m: dict[str, tuple[float, str]] = {
        "workload.generate_ms": (
            median([g * 1e3 for g in gens] + tracer.durations_ms("workload.generate")), "ms"
        ),
        "conflict.index_build_ms": (span_ms("conflict.index_build"), "ms"),
        "conflict.lower_conflicts_ms": (span_ms("conflict.lower_conflicts"), "ms"),
        "conflict.table_entries": (counts["table_entries"], "count"),
        "conflict.cp1": (counts["cp1"], "%"),
        "conflict.cp2": (counts["cp2"], "pairs/100txn"),
    }
    for config in MAIN_CONFIGS:
        mine = [s for s in done if s.config == config]
        for key in ("phase1_ms", "phase2_ms", "pool_ms"):
            m[f"scheduler.{config}.{key}"] = (median(getattr(s, key) for s in mine), "ms")
        m[f"binning.{config}.cas_retries"] = (median(s.cas_retries for s in mine), "count")
        m[f"binning.{config}.not_ready_skips"] = (median(s.not_ready_skips for s in mine), "count")
        m[f"binning.{config}.useful_ratio"] = (
            median(s.n / (s.n + s.cas_retries + s.not_ready_skips) for s in mine), "ratio"
        )
    m["binning.num_bins"] = (counts["num_bins"], "count")
    m["binning.max_bin_size"] = (counts["max_bin_size"], "count")
    m["executor.plan_build_ms"] = (span_ms("executor.plan_build"), "ms")
    for config in CONFIGS:
        m[f"executor.{config}.execute_ms"] = (
            median(s.execute_ms for s in done if s.config == config), "ms"
        )
    m["executor.serial_ms"] = (span_ms("executor.serial"), "ms")
    fetch_add, cas = atomics_ns()
    m["atomics.fetch_add_ns"] = (fetch_add, "ns")
    m["atomics.cas_ns"] = (cas, "ns")
    for point in CRASH_POINTS:
        m[f"faults.crash.{point.value}.block_ms"] = (
            median(s.ms for s in done
                   if s.config == "lockfree_crash" and s.crash_point == point.value),
            "ms",
        )
    m["check.oracle_ms"] = (oracle_s * 1e3, "ms")
    m["tracing.overhead_pct"] = (100.0 * (p50_sum(traced) / p50_sum(untraced) - 1.0), "%")
    m["host.calibrate_ms"] = (host.wall_ms, "ms")
    m["host.calibrate_cpu_ms"] = (host.cpu_ms, "ms")
    return m


def environment(
    workload: Workload, seed: int, seconds: float, trace: bool, pinned_cpu: int | None
) -> dict:
    gil = getattr(sys, "_is_gil_enabled", None)
    return {
        "python": platform.python_version(),
        "pinned_cpu": pinned_cpu,
        "implementation": platform.python_implementation(),
        "gil_enabled": gil() if gil is not None else True,
        "cpu_count": os.cpu_count(),
        "threads": THREADS,
        "n_accounts": N_ACCOUNTS,
        "watchdog_secs": WATCHDOG_SECS,
        "calib_ref_ms": CALIB_REF_MS,
        "seed": seed,
        "block_seeds": "block b is generated from seed + b",
        "seconds": seconds,
        "trace": trace,
        "workload": asdict(workload),
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """One benchmark run; writes its record (and spans) under ``out_dir``.

    The traced run replays untraced for a third of ``seconds`` first, to
    measure the tracing overhead against it.
    """
    env = environment(workload, seed, seconds, trace, pin_to_one_cpu())
    calibrations: list[tuple[float, float]] = []
    block0, setups, gens = setup(workload, seed, calibrations)
    tracer = Tracer() if trace else None
    untraced = replay(workload, seed, seconds / 3 if trace else seconds, block0, calibrations)
    traced = replay(workload, seed, seconds * 2 / 3, block0, calibrations, tracer) if trace else []
    checked = traced if trace else untraced

    counts, lower = traffic(block0)
    oracle_s = oracle_check(block0, lower, checked)
    typical = HostSpeed(*(statistics.median(c) for c in zip(*calibrations)))  # recorded only
    measured = {}
    if tracer is not None:
        metrics = per_layer(untraced, traced, tracer, counts, gens, oracle_s, typical)
        tails = {}
    else:
        metrics, tails = end_to_end(untraced, setups)
        raw = end_to_end(untraced, setups, at_reference_speed=False)[0]
        measured = {k: v for k, (v, _) in raw.items() if v != metrics[k][0]}

    samples = untraced + traced
    failures = [
        {"config": s.config, "block": s.block, "error": s.error, "wrong": s.wrong}
        for s in samples if not s.ok
    ]
    record = {
        "correct": any(s.ok for s in samples) and not any(s.wrong for s in samples),
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {
            k: {"value": None if math.isnan(v) else v, "unit": u} for k, (v, u) in metrics.items()
        },
        "failed_pct": 100.0 * len(failures) / len(samples),
        "failures": failures,
        "tail": tails,
        "blocks": len(samples) // len(CONFIGS),
        "traffic_block0": counts,
        "setup_s_reps": [[wall, cpu] for wall, cpu, _ in setups],
        "calibrate_ms": {"wall": typical.wall_ms, "cpu": typical.cpu_ms},
        "measured": measured,
        "environment": env,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{seed}-trace{int(trace)}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(tracer.spans))
    return record


def main(
    argv: list[str], workloads: dict[str, Workload] = WORKLOADS, out_dir: Path | None = None
) -> int:
    parser = argparse.ArgumentParser(description="binsched block-replay benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if out_dir is None:
        out_dir = Path(__file__).resolve().parent / "out"

    record = run(workloads[args.workload], args.seed, args.seconds, bool(args.trace), out_dir)
    print("# environment", json.dumps(record["environment"]))
    print("# traffic of block 0", json.dumps(record["traffic_block0"]))
    print(f"# blocks {record['blocks']}, samples {record['attempted']}, "
          f"failed {record['failed']}, failed_pct {record['failed_pct']:.3f}")
    for config, tail in record["tail"].items():
        print(f"# {config}: tail is p{tail['percentile']} of {tail['samples']} samples")
    for failure in record["failures"]:
        print("# failed", json.dumps(failure))
    print(f"# calibrate_ms {json.dumps(record['calibrate_ms'])}, reference {CALIB_REF_MS}")
    for name, metric in record["metrics"].items():
        print(f"# {name} {metric['value']} {metric['unit']}")
    for name, value in record["measured"].items():
        print(f"# measured {name} {value}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0
