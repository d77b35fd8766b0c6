"""Deterministic fault injection for scheduler workers.

Two fault families mirror the latency and crash experiments: delayed workers
sleep a fixed duration on every claim-loop iteration, and crashed workers
permanently stop the first time they reach their configured crash point.
A crash is a cooperative stop at an instrumented site, never a process
abort: it is reproducible and exercises exactly the recovery paths that an
OS-level kill would (a kill after a successful CAS is indistinguishable
from a stop).

A :class:`FaultPlan` is shared read-only by the whole pool. Each worker
thread gets its own :class:`Worker` record, which resolves the plan once,
at pool start, into that worker's crash site and delay; the phase
procedures call its :meth:`Worker.at` hook at each instrumented site and
count their lost CASes and helped dependencies on it.
"""

from __future__ import annotations

import enum
import random
import threading
import time
from dataclasses import dataclass


class Site(enum.Enum):
    """Instrumented locations inside the scheduler worker loops."""

    PHASE1_POST_CLAIM = "phase1_post_claim"
    PHASE1_PRE_PUBLISH = "phase1_pre_publish"
    INTER_PHASE = "inter_phase"
    PHASE2_POST_CLAIM = "phase2_post_claim"
    PHASE2_PRE_CAS = "phase2_pre_cas"


# Sites at which a crash may be scheduled. PHASE2_POST_CLAIM is a delay-only
# site: delays fire on every claim, crashes only at the four points below.
CRASH_POINTS: tuple[Site, ...] = (
    Site.PHASE1_POST_CLAIM,
    Site.PHASE1_PRE_PUBLISH,
    Site.INTER_PHASE,
    Site.PHASE2_PRE_CAS,
)

# Claim sites where delayed workers sleep, holding their claimed index.
_CLAIM_SITES: frozenset[Site] = frozenset({Site.PHASE1_POST_CLAIM, Site.PHASE2_POST_CLAIM})


class WorkerCrashed(Exception):
    """Raised inside a worker to simulate its permanent silent stop."""

    def __init__(self, worker_id: int, site: Site) -> None:
        super().__init__(f"worker {worker_id} crashed at {site.value}")
        self.worker_id = worker_id
        self.site = site


class Aborted(Exception):
    """Raised inside a worker when the run's watchdog fired."""


@dataclass(frozen=True)
class FaultPlan:
    """Immutable per-run fault assignment, shared read-only by all workers."""

    delayed_workers: frozenset[int] = frozenset()
    delay_per_claim: float = 0.0
    crashed_workers: frozenset[int] = frozenset()
    crash_point: Site = Site.PHASE1_PRE_PUBLISH

    def __post_init__(self) -> None:
        object.__setattr__(self, "delayed_workers", frozenset(self.delayed_workers))
        object.__setattr__(self, "crashed_workers", frozenset(self.crashed_workers))
        if self.delayed_workers & self.crashed_workers:
            raise ValueError("a worker cannot be both delayed and crashed")
        if self.delay_per_claim < 0:
            raise ValueError("delay_per_claim must be >= 0")
        if self.crash_point not in CRASH_POINTS:
            raise ValueError(f"{self.crash_point.value!r} is not a crash point")

    @property
    def crashes_anyone(self) -> bool:
        return bool(self.crashed_workers)


def make_fault_plan(
    num_threads: int,
    delayed_pct: float = 0.0,
    delay: float = 0.0,
    crashed_pct: float = 0.0,
    crash_point: Site = Site.PHASE1_PRE_PUBLISH,
    seed: int = 0,
) -> FaultPlan:
    """Select delayed/crashed workers deterministically from percentages.

    Counts round to nearest with a floor of one worker whenever the
    percentage is nonzero; the crashed count is additionally capped at
    ``num_threads - 1`` so at least one worker always survives.
    """
    if num_threads < 1:
        raise ValueError(f"num_threads must be >= 1, got {num_threads}")
    if not 0 <= delayed_pct <= 100 or not 0 <= crashed_pct <= 100:
        raise ValueError("percentages must lie in [0, 100]")

    def pct_to_count(pct: float) -> int:
        if pct == 0:
            return 0
        return max(1, round(num_threads * pct / 100.0))

    n_crashed = min(pct_to_count(crashed_pct), num_threads - 1)
    n_delayed = pct_to_count(delayed_pct)
    if n_crashed + n_delayed > num_threads:
        raise ValueError(
            f"fault counts overlap: {n_crashed} crashed + {n_delayed} delayed "
            f"exceed {num_threads} workers"
        )

    order = random.Random(seed).sample(range(num_threads), num_threads)
    crashed = frozenset(order[:n_crashed])
    delayed = frozenset(order[n_crashed : n_crashed + n_delayed])
    return FaultPlan(
        delayed_workers=delayed,
        delay_per_claim=delay,
        crashed_workers=crashed,
        crash_point=crash_point,
    )


class Worker:
    """One scheduler worker: its id, the run's abort event, its resolved
    crash site (or None) and per-claim delay (or 0.0), and its telemetry.

    Only the owning thread writes the counters and phase timestamps, and the
    pool reads them after the join, so none takes a lock; a crashed worker's
    counts outlive its thread.
    """

    __slots__ = (
        "id", "abort", "crash_site", "delay", "cas_retries", "helped",
        "phase1_start", "phase1_end", "phase2_start", "phase2_end",
    )

    def __init__(
        self,
        id: int,
        plan: FaultPlan = FaultPlan(),
        abort: threading.Event | None = None,
    ) -> None:
        self.id = id
        self.abort = abort if abort is not None else threading.Event()
        self.crash_site = plan.crash_point if id in plan.crashed_workers else None
        self.delay = plan.delay_per_claim if id in plan.delayed_workers else 0.0
        self.cas_retries = 0  # publication CASes lost, in either phase
        self.helped = 0  # unassigned frontier members a phase-2 helper resolved
        self.phase1_start: float | None = None
        self.phase1_end: float | None = None
        self.phase2_start: float | None = None
        self.phase2_end: float | None = None

    def at(self, site: Site) -> None:
        """Honor the plan at one instrumented site.

        Raises :class:`Aborted` when the run's abort event is set, raises
        :class:`WorkerCrashed` when the worker reaches its crash site, and
        sleeps when a delayed worker reaches a claim site, in that order.
        The "crash once" latch is realized by the worker thread itself,
        which stops permanently on the first :class:`WorkerCrashed`.
        """
        if self.abort.is_set():
            raise Aborted()
        if site is self.crash_site:
            raise WorkerCrashed(self.id, site)
        if self.delay and site in _CLAIM_SITES:
            time.sleep(self.delay)
