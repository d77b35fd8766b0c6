"""End-to-end variant orchestration over a fixed worker pool.

Three variants combine the phase procedures differently:

* STANDARD: exactly-once claiming in both phases, with a barrier between
  conflict discovery and bin assignment.
* ASSISTED: helper (wraparound) procedures in both phases, still separated
  by a barrier.
* LOCKFREE: helper procedures with no barrier; each worker moves to bin
  assignment as soon as its own conflict loop terminates, so delayed or
  stopped peers never gate progress.

All three produce the same bin assignment for the same block. The barrier
variants hang if a worker stops before the rendezvous, so every run is
wrapped in a watchdog that aborts the pool and reports
:class:`NonTermination` instead of hanging the caller. :func:`schedule`
rejects crash plans on barrier variants up front;
:func:`schedule_with_watchdog` admits them, existing precisely to
demonstrate and contain that non-termination.
"""

from __future__ import annotations

import enum
import itertools
import math
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Sequence

from .binning import BinAssignment, assign_bins_helper, assign_bins_standard
from .conflict import ConflictTable, build_conflict_sets_helper, build_conflict_sets_standard
from .executor import EMPTY_PLAN, ExecutionPlan, build_execution_plan
from .faults import Aborted, FaultPlan, Site, Worker, WorkerCrashed
from .txn import Transaction

WATCHDOG_ENV_VAR = "MBPS_WATCHDOG_SECS"
DEFAULT_WATCHDOG_SECS = 30.0


class Variant(enum.Enum):
    STANDARD = "standard"
    ASSISTED = "assisted"
    LOCKFREE = "lockfree"

    @property
    def uses_barrier(self) -> bool:
        return self is not Variant.LOCKFREE

    @property
    def uses_helpers(self) -> bool:
        return self is not Variant.STANDARD


class SchedulerConfigError(ValueError):
    """Invalid run configuration, reported before any worker starts."""


class NonTermination(RuntimeError):
    """The watchdog fired: the run did not finish within its budget."""

    def __init__(self, variant: Variant, num_threads: int, watchdog_secs: float) -> None:
        super().__init__(
            f"{variant.value} run with {num_threads} threads exceeded "
            f"watchdog of {watchdog_secs:.3f}s"
        )
        self.variant = variant
        self.num_threads = num_threads
        self.watchdog_secs = watchdog_secs


@dataclass(frozen=True)
class PhaseTimings:
    phase1_s: float
    phase2_s: float
    total_s: float


@dataclass(frozen=True)
class RetryStats:
    """Helper telemetry: lost CAS races and helped dependencies.

    ``cas_retries`` counts the publication CASes lost by the helper
    procedures in either phase. STANDARD claims each slot exactly once and
    publishes without a CAS, so it always reads 0 there.

    ``not_ready_skips`` counts the frontier members a phase-2 helper found
    unassigned and pushed to resolve itself; STANDARD waits instead.
    """

    cas_retries: int
    not_ready_skips: int


@dataclass(frozen=True)
class ScheduleResult:
    conflicts: ConflictTable
    assignment: BinAssignment
    plan: ExecutionPlan
    timing: PhaseTimings
    retries: RetryStats


def resolve_watchdog_secs(watchdog_secs: float | None) -> float:
    """The argument, else the environment variable, else the default; finite and > 0."""
    if watchdog_secs is None:
        env = os.environ.get(WATCHDOG_ENV_VAR)
        try:
            watchdog_secs = float(env) if env else DEFAULT_WATCHDOG_SECS
        except ValueError:
            raise SchedulerConfigError(
                f"{WATCHDOG_ENV_VAR} must be a number of seconds, got {env!r}"
            ) from None
    if not 0 < watchdog_secs < math.inf:
        raise SchedulerConfigError(f"watchdog_secs must be finite and > 0, got {watchdog_secs}")
    return watchdog_secs


def _validate(
    variant: Variant,
    num_threads: int,
    faults: FaultPlan,
    allow_crash_on_barrier: bool,
) -> None:
    gil_enabled = getattr(sys, "_is_gil_enabled", None)
    if gil_enabled is not None and not gil_enabled():
        raise SchedulerConfigError(
            "claims and publishes rely on the GIL; run binsched on an interpreter with it enabled"
        )
    if num_threads < 1:
        raise SchedulerConfigError(f"num_threads must be >= 1, got {num_threads}")
    workers = faults.crashed_workers | faults.delayed_workers
    if workers and (min(workers) < 0 or max(workers) >= num_threads):
        raise SchedulerConfigError("fault plan names worker ids outside the pool")
    if faults.crashes_anyone and variant.uses_barrier and not allow_crash_on_barrier:
        raise SchedulerConfigError(
            f"{variant.value} is not crash tolerant; crash plans require the "
            "watchdog entry point"
        )
    if variant is Variant.LOCKFREE and len(faults.crashed_workers) >= num_threads:
        raise SchedulerConfigError("lockfree runs need at least one surviving worker")


def schedule(
    txns: Sequence[Transaction],
    variant: Variant,
    num_threads: int,
    faults: FaultPlan | None = None,
    watchdog_secs: float | None = None,
) -> ScheduleResult:
    """Run one block through a variant; strict about hazardous configs."""
    plan = faults if faults is not None else FaultPlan()
    _validate(variant, num_threads, plan, allow_crash_on_barrier=False)
    return _run_pool(txns, variant, num_threads, plan, resolve_watchdog_secs(watchdog_secs))


def schedule_with_watchdog(
    txns: Sequence[Transaction],
    variant: Variant,
    num_threads: int,
    faults: FaultPlan | None = None,
    watchdog_secs: float | None = None,
) -> ScheduleResult:
    """Like :func:`schedule` but admits crash plans on barrier variants.

    Such runs cannot finish; the watchdog aborts the pool and raises
    :class:`NonTermination` so harnesses can record the outcome.
    """
    plan = faults if faults is not None else FaultPlan()
    _validate(variant, num_threads, plan, allow_crash_on_barrier=True)
    return _run_pool(txns, variant, num_threads, plan, resolve_watchdog_secs(watchdog_secs))


def _run_pool(
    txns: Sequence[Transaction],
    variant: Variant,
    num_threads: int,
    faults: FaultPlan,
    watchdog_secs: float,
) -> ScheduleResult:
    n = len(txns)
    table = ConflictTable(txns)
    bins = BinAssignment(n)
    if n == 0:
        timing = PhaseTimings(0.0, 0.0, 0.0)
        return ScheduleResult(table, bins, EMPTY_PLAN, timing, RetryStats(0, 0))

    if variant.uses_helpers:
        phase1, phase2 = build_conflict_sets_helper, assign_bins_helper
    else:
        phase1, phase2 = build_conflict_sets_standard, assign_bins_standard
    phase1_claims = itertools.count()
    phase2_claims = itertools.count()
    abort = threading.Event()
    barrier = threading.Barrier(num_threads) if variant.uses_barrier else None
    records = [Worker(w, faults, abort) for w in range(num_threads)]
    errors: list[BaseException] = []

    def body(worker: Worker) -> None:
        worker.phase1_start = time.perf_counter()
        try:
            phase1(table, phase1_claims, worker)
            worker.phase1_end = time.perf_counter()
            worker.at(Site.INTER_PHASE)
            if barrier is not None:
                barrier.wait()
            worker.phase2_start = time.perf_counter()
            phase2(table, bins, phase2_claims, worker)
            worker.phase2_end = time.perf_counter()
        except (WorkerCrashed, Aborted, threading.BrokenBarrierError):
            return
        except BaseException as exc:
            errors.append(exc)
            abort.set()
            if barrier is not None:
                barrier.abort()

    workers = [
        threading.Thread(target=body, args=(r,), name=f"sched-{r.id}", daemon=True)
        for r in records
    ]
    started = time.perf_counter()
    for t in workers:
        t.start()
    deadline = started + watchdog_secs
    for t in workers:
        t.join(max(0.0, deadline - time.perf_counter()))
    if any(t.is_alive() for t in workers):
        abort.set()
        if barrier is not None:
            barrier.abort()
        for t in workers:
            t.join(5.0)
        raise NonTermination(variant, num_threads, watchdog_secs)
    if errors:
        raise errors[0]
    if faults.crashes_anyone and not bins.is_complete():
        # a dead worker's claim will never be redone in this variant, so
        # the pipeline can never produce a plan: report it immediately
        # instead of burning the whole watchdog budget
        raise NonTermination(variant, num_threads, watchdog_secs)
    try:
        plan = build_execution_plan(bins, table)
    except ValueError as exc:  # names the unassigned slots
        raise RuntimeError(f"worker pool exited early: {exc}") from None

    p1_start = min(r.phase1_start for r in records)
    p1_end = max(r.phase1_end for r in records if r.phase1_end is not None)
    p2_start = min(r.phase2_start for r in records if r.phase2_start is not None)
    p2_end = max(r.phase2_end for r in records if r.phase2_end is not None)
    timing = PhaseTimings(
        phase1_s=p1_end - p1_start,
        phase2_s=p2_end - p2_start,
        total_s=p2_end - p1_start,
    )
    retries = RetryStats(sum(r.cas_retries for r in records), sum(r.helped for r in records))
    return ScheduleResult(table, bins, plan, timing, retries)
