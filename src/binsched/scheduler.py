"""End-to-end variant orchestration: one block on ``num_threads`` workers.

Three variants combine the phase procedures differently:

* STANDARD: exactly-once claiming in both phases, with a barrier between
  conflict discovery and bin assignment.
* ASSISTED: helper procedures (a first pass of claims, then a sweep of the
  slots still unset) in both phases, still separated by a barrier.
* LOCKFREE: helper procedures with no barrier; each worker moves to bin
  assignment as soon as its own conflict loop terminates, so delayed or
  stopped peers never gate progress.

All three produce the same bin assignment for the same block, on the
workers of :func:`~binsched.faults.run_workers`: the calling thread and
parked peers of the process's one worker pool, which every call reuses
instead of starting threads of its own. A run has a deadline,
``watchdog_secs`` after its start, which the run's one ``Wakeup`` holds. It
ends the only places a worker blocks: a sleep on that ``Wakeup``, at the
barrier or on a dependency, and a delayed claim's sleep. The deadline ends
waits, not work: a worker that keeps working past it without waiting
finishes, on whichever thread it runs. A worker raises; the runner stops
the run: it stops the ``Wakeup``, which ends every sleep, and each worker
stops at its next wait or fault site, such as the inter-phase site every
worker visits, so a stopped barrier variant reports
:class:`NonTermination`. The runner also stops the run as soon as a worker
crashes where the variant cannot survive it: anywhere under STANDARD, and
before the meet under ASSISTED. :func:`schedule` runs any plan it can
start, and a run that a crash or the deadline leaves short raises
:class:`NonTermination`.
"""

from __future__ import annotations

import enum
import itertools
import math
import sys
import time
from dataclasses import dataclass
from typing import Sequence

from .atomics import Wakeup
from .binning import BinAssignment, assign_bins_helper, assign_bins_standard
from .conflict import PublisherTable, claim_slots_helper, claim_slots_standard
from .executor import ExecutionPlan, build_execution_plan
from .faults import CRASH_POINTS, Aborted, FaultPlan, Site, Worker, run_workers
from .txn import Transaction

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

    @property
    def fatal_crash_sites(self) -> frozenset[Site]:
        """The crash sites a run of this variant cannot survive.

        STANDARD redoes no slot a crashed worker claimed, and a barrier
        variant's meet waits for every worker, so a crash there would leave
        the survivors waiting out the deadline; LOCKFREE survives every one.
        """
        if self is Variant.STANDARD:
            return frozenset(CRASH_POINTS)
        if self is Variant.ASSISTED:
            return frozenset(CRASH_POINTS) - {Site.PHASE2_PRE_CAS}
        return frozenset()


class SchedulerConfigError(ValueError):
    """Invalid run configuration, reported before any worker starts."""


class NonTermination(RuntimeError):
    """A crash or the deadline left the assignment incomplete.

    ``watchdog_secs`` is the run's budget, not the time it took: a run whose
    every worker crashed raises at once.
    """

    def __init__(self, variant: Variant, num_threads: int, watchdog_secs: float) -> None:
        super().__init__(
            f"{variant.value} run with {num_threads} threads did not finish: "
            f"a crash or its {watchdog_secs:.3f}s watchdog stopped it"
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
    assignment: BinAssignment
    plan: ExecutionPlan
    timing: PhaseTimings
    retries: RetryStats


def check_watchdog_secs(watchdog_secs: float) -> None:
    """Reject a watchdog budget that is not finite and > 0, before anything runs."""
    if not 0 < watchdog_secs < math.inf:  # NaN too
        raise SchedulerConfigError(f"watchdog_secs must be finite and > 0, got {watchdog_secs}")


def schedule(
    txns: Sequence[Transaction],
    variant: Variant,
    num_threads: int,
    faults: FaultPlan | None = None,
    watchdog_secs: float = DEFAULT_WATCHDOG_SECS,
) -> ScheduleResult:
    """Run one block through a variant on ``num_threads`` workers.

    It refuses, with :class:`SchedulerConfigError`, only a call it cannot
    start: an interpreter without the GIL, fewer than one thread, fault ids
    outside the pool, or a ``watchdog_secs`` that is not finite and > 0; a
    block whose ids are not its positions raises ``ValueError``. It runs
    every other plan. A run that a crash or the deadline leaves short raises
    :class:`NonTermination`: at once after a crash the variant cannot
    survive (:attr:`Variant.fatal_crash_sites`) or when every worker has
    crashed, and otherwise at the deadline.
    """
    if not getattr(sys, "_is_gil_enabled", lambda: True)():
        raise SchedulerConfigError(
            "claims and publishes rely on the GIL; run binsched on an interpreter with it enabled"
        )
    if num_threads < 1:
        raise SchedulerConfigError(f"num_threads must be >= 1, got {num_threads}")
    faults = faults if faults is not None else FaultPlan()
    workers = faults.crashed_workers | faults.delayed_workers
    if workers and (min(workers) < 0 or max(workers) >= num_threads):
        raise SchedulerConfigError("fault plan names worker ids outside the pool")
    check_watchdog_secs(watchdog_secs)

    table = PublisherTable(txns)
    bins = BinAssignment(table)
    if variant.uses_helpers:
        phase1, phase2 = claim_slots_helper, assign_bins_helper
    else:
        phase1, phase2 = claim_slots_standard, assign_bins_standard
    phase1_claims = itertools.count()
    phase2_claims = itertools.count()
    abort = Wakeup(time.perf_counter() + watchdog_secs)
    arrived: list[int] = []  # the barrier variants' workers that ended phase 1
    records = [Worker(w, faults, abort) for w in range(num_threads)]

    def body(w: int) -> None:
        worker = records[w]
        worker.phase1_start = time.perf_counter()
        phase1(table, phase1_claims, worker)
        worker.phase1_end = time.perf_counter()
        worker.at(Site.INTER_PHASE)
        if variant.uses_barrier:
            arrived.append(w)
            if len(arrived) == num_threads:
                abort.wake()
            elif not abort.sleep_until(lambda: len(arrived) == num_threads):
                raise Aborted()
        worker.phase2_start = time.perf_counter()
        phase2(bins, phase2_claims, worker)
        worker.phase2_end = time.perf_counter()

    run_workers(body, num_threads, abort.stop, variant.fatal_crash_sites)
    if not bins.is_complete() and (faults.crashes_anyone or abort.stopped):
        # a dead worker's claim is never redone in this variant, and an
        # aborted run stopped short: neither can produce a plan
        raise NonTermination(variant, num_threads, watchdog_secs)
    try:
        plan = build_execution_plan(bins)
    except ValueError as exc:  # names the unassigned slots
        raise RuntimeError(f"worker pool exited early: {exc}") from None

    p1_start = min(r.phase1_start for r in records)
    p1_end = max(r.phase1_end for r in records if r.phase1_end is not None)
    # an empty block's run stopped between the phases is complete with no phase 2: it took 0 s
    p2_start = min((r.phase2_start for r in records if r.phase2_start is not None), default=p1_end)
    p2_end = max((r.phase2_end for r in records if r.phase2_end is not None), default=p2_start)
    timing = PhaseTimings(p1_end - p1_start, p2_end - p2_start, p2_end - p1_start)
    retries = RetryStats(sum(r.cas_retries for r in records), sum(r.helped for r in records))
    return ScheduleResult(bins, plan, timing, retries)


schedule_with_watchdog = schedule  # the name the benchmark harness imports
