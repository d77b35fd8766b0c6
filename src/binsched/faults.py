"""Deterministic fault injection for scheduler workers, and the worker runner.

Two fault families mirror the latency and crash experiments: delayed workers
sleep a fixed duration on every claim, and crashed workers permanently stop
the first time they reach their configured crash point. A crash is a
cooperative stop at an instrumented site, never a process abort: it is
reproducible and exercises exactly the recovery paths that an OS-level kill
would (a kill after a successful CAS is indistinguishable from a stop).

A :class:`FaultPlan` names workers by id; :func:`run_workers` runs the last
id on the calling thread and the others on peers started in id order. Each
worker's :class:`Worker` record resolves the plan once into its crash site
and delay, and carries the run's deadline and its stop signal, ``abort``,
the run's one :class:`~binsched.atomics.Wakeup`. A worker with no fault
and no overridden :meth:`Worker.at` has no hook: the phase procedures then
only test the stop at each claim. A worker raises; the runner stops the
run: only :func:`run_workers` calls the run's ``stop``, also at once when a
worker crashes at a site the run cannot survive.
"""

from __future__ import annotations

import enum
import math
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Collection

from .atomics import Wakeup


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
    """Raised inside a worker when the run was aborted or its deadline passed."""


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
        if not 0 <= self.delay_per_claim < math.inf:  # NaN too
            raise ValueError("delay_per_claim must be finite and >= 0")
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
    """One scheduler worker: its id, the run's wakeup, ``abort``, and deadline
    (a :func:`time.perf_counter` time), its crash site (or None) and per-claim
    delay (or 0.0), its fault ``hook``, and the telemetry only its own thread
    writes, read after the join without a lock; a crashed worker's counts
    outlive its thread.

    ``hook`` is fixed when the record is built: the bound :meth:`at` for a
    worker with a crash site or a delay, or of a subclass that overrides
    :meth:`at`, and None for a plain worker, which has nothing to honor at a
    site but the stop. A phase procedure calls a hook at every site, in
    order; for a plain worker it only tests ``abort.stopped`` once per claim
    or swept slot and raises :class:`Aborted`, the test :meth:`at` starts
    with, so no Python call is made per claim.
    """

    __slots__ = (
        "id", "abort", "deadline", "crash_site", "delay", "hook", "cas_retries", "helped",
        "phase1_start", "phase1_end", "phase2_start", "phase2_end",
    )

    def __init__(
        self,
        id: int,
        plan: FaultPlan = FaultPlan(),
        abort: Wakeup | None = None,
        deadline: float = math.inf,
    ) -> None:
        self.id = id
        self.abort = abort if abort is not None else Wakeup()
        self.deadline = deadline
        self.crash_site = plan.crash_point if id in plan.crashed_workers else None
        self.delay = plan.delay_per_claim if id in plan.delayed_workers else 0.0
        hooked = self.crash_site is not None or self.delay or type(self).at is not Worker.at
        self.hook: Callable[[Site], None] | None = self.at if hooked else None
        self.cas_retries = 0  # publication CASes lost, in either phase
        self.helped = 0  # unassigned frontier members a phase-2 helper resolved
        self.phase1_start: float | None = None
        self.phase1_end: float | None = None
        self.phase2_start: float | None = None
        self.phase2_end: float | None = None

    def at(self, site: Site) -> None:
        """Honor the plan at one instrumented site.

        Raises :class:`Aborted` once the run's wakeup is stopped, raises
        :class:`WorkerCrashed` at its crash site, and sleeps when a delayed
        worker reaches a claim site, in that order; a sleep that reaches the
        deadline ends there and raises :class:`Aborted`. It stops nothing: a
        worker raises; the runner, :func:`run_workers`, stops the run.
        """
        if self.abort.stopped:
            raise Aborted()
        if site is self.crash_site:
            raise WorkerCrashed(self.id, site)
        if self.delay and site in _CLAIM_SITES:
            left = self.deadline - time.perf_counter()
            time.sleep(max(0.0, min(self.delay, left)))
            if left <= self.delay:
                raise Aborted()


def run_workers(
    body: Callable[[int], None], num_threads: int, name: str, stop: Callable[[], None],
    until: float = math.inf, fatal: Collection[Site] = (),
) -> list[threading.Thread]:
    """Run ``body(w)`` for each worker id ``w < num_threads``; the one place a run stops.

    The last id runs on the calling thread; the others on daemon threads
    ``{name}-{w}`` started in id order. A worker raises; the runner stops
    the run: a :class:`WorkerCrashed` ends its worker silently, unless its
    site is in ``fatal``, the crash sites the run cannot survive, where it
    calls ``stop()``; an :class:`Aborted` calls ``stop()``, and any other
    raise is recorded and calls ``stop()``. Peers still alive when joined
    until ``until``, a :func:`time.perf_counter` time, call ``stop()`` and
    are returned; otherwise the first recorded error is re-raised.
    """
    errors: list[BaseException] = []

    def run(w: int) -> None:
        try:
            body(w)
        except WorkerCrashed as crash:
            if crash.site in fatal:
                stop()
        except Aborted:
            stop()
        except BaseException as exc:
            errors.append(exc)
            stop()

    peers = [
        threading.Thread(target=run, args=(w,), name=f"{name}-{w}", daemon=True)
        for w in range(num_threads - 1)
    ]
    for t in peers:
        t.start()
    run(num_threads - 1)
    for t in peers:
        t.join(None if until == math.inf else max(0.0, until - time.perf_counter()))
    alive = [t for t in peers if t.is_alive()]
    if alive:
        stop()
    elif errors:
        raise errors[0]
    return alive
