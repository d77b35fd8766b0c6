"""Deterministic fault injection for scheduler workers, and the worker runner.

Two fault families mirror the latency and crash experiments: delayed workers
sleep a fixed duration on every claim, and crashed workers permanently stop
the first time they reach their configured crash point. A crash is a
cooperative stop at an instrumented site, never a process abort: it is
reproducible and exercises exactly the recovery paths that an OS-level kill
would (a kill after a successful CAS is indistinguishable from a stop).

A :class:`FaultPlan` names workers by id; :func:`run_workers` runs the last
id on the calling thread and hands the others, in id order, to parked
peers of the process's one worker pool. The pool starts no thread at
import, starts a peer only when a run needs more than are parked, and
keeps each peer for every later run; :func:`close_pool` ends the parked
ones, and a forked child starts with an empty pool. Each worker's
:class:`Worker` record resolves the plan once into its crash site and
delay, and carries its stop signal, ``abort``, the run's one
:class:`~binsched.atomics.Wakeup`, which also holds the run's deadline. A
worker with no fault and no overridden :meth:`Worker.at` has no hook: the
phase procedures then test nothing per claim. A run is stopped, or times
out, only where a worker waits: on the wakeup, in a delayed claim's sleep,
and at :meth:`Worker.at`, which every worker calls between the phases.
The deadline ends waits, not work. A worker raises; the runner stops the
run: only :func:`run_workers` calls the run's ``stop``, also at once when
a worker crashes at a site the run cannot survive. A run ends when its
workers end: the runner returns only once each of them has returned.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import os
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
    ``num_threads - 1`` so at least one worker always survives. A nonzero
    crashed percentage that the cap leaves without a worker to crash, at
    one thread, raises ``ValueError``.
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
    if crashed_pct and not n_crashed:
        raise ValueError(
            f"crashed_pct={crashed_pct:g} crashes no worker at num_threads={num_threads}: "
            "at least one worker must survive"
        )
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
    """One scheduler worker: its id, the run's wakeup, ``abort``, which holds
    the run's deadline, its crash site (or None) and per-claim delay (or
    0.0), its fault ``hook``, and the telemetry only its own thread writes,
    read without a lock once the run has ended; a crashed worker's counts
    outlive its worker.

    ``hook`` is fixed when the record is built: the bound :meth:`at` for a
    worker with a crash site or a delay, or of a subclass that overrides
    :meth:`at`, and None for a plain worker, which has nothing to honor at a
    site but the stop. A phase procedure calls a hook at every site, in
    order, and makes no Python call per claim for a plain worker. So a plain
    worker in a stopped run finishes the stretch of claims it is in, which
    the block's size bounds, and stops at its next wait or at
    :meth:`at`, which every worker calls between the phases.
    """

    __slots__ = (
        "id", "abort", "crash_site", "delay", "hook", "cas_retries", "helped",
        "phase1_start", "phase1_end", "phase2_start", "phase2_end",
    )

    def __init__(self, id: int, plan: FaultPlan = FaultPlan(), abort: Wakeup | None = None) -> None:
        self.id = id
        self.abort = abort if abort is not None else Wakeup()
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
        deadline, ``abort.deadline``, ends there and raises :class:`Aborted`.
        It stops nothing: a worker raises; the runner, :func:`run_workers`,
        stops the run.
        """
        if self.abort.stopped:
            raise Aborted()
        if site is self.crash_site:
            raise WorkerCrashed(self.id, site)
        if self.delay and site in _CLAIM_SITES:
            left = self.abort.deadline - time.perf_counter()
            time.sleep(max(0.0, min(self.delay, left)))
            if left <= self.delay:
                raise Aborted()


class _Peer:
    """One thread of the pool and its three signals, locks held while idle.

    The caller sets ``job``, releases ``go`` and waits on ``took``, which
    the peer releases as it takes the job. So the peer runs first, as a
    thread started for the run would, and claims before the caller does.
    The peer runs the job, drops it, releases ``done`` and parks on ``go``
    again. Dropping the job first leaves the run's state to its caller to
    free, inside that run, not to the peer when the next job wakes it. A
    ``None`` job ends a peer at once.
    """

    __slots__ = ("go", "took", "done", "job", "thread")

    def __init__(self) -> None:
        self.go = threading.Lock()
        self.go.acquire()
        self.took = threading.Lock()
        self.took.acquire()
        self.done = threading.Lock()
        self.done.acquire()
        self.job: Callable[[], None] | None = None
        self.thread = threading.Thread(
            target=self._serve, name=f"binsched-peer-{next(_numbers)}", daemon=True
        )
        self.thread.start()

    def _serve(self) -> None:
        while True:
            self.go.acquire()
            job, self.job = self.job, None
            if job is None:
                return
            self.took.release()
            job()
            job = None
            self.done.release()


_numbers = itertools.count()  # names the pool's threads binsched-peer-0, -1, ...
_pool_lock = threading.Lock()
_parked: list[_Peer] = []  # the pool: peers waiting for a job, taken under _pool_lock


def _park(peers: list[_Peer]) -> None:
    with _pool_lock:
        _parked.extend(peers)


def _take_peers(k: int) -> list[_Peer]:
    """``k`` peers for one run, parked ones first, starting a thread for each one missing."""
    with _pool_lock:
        keep = max(0, len(_parked) - k)
        peers = _parked[keep:]
        del _parked[keep:]
    try:
        while len(peers) < k:
            peers.append(_Peer())
    except BaseException:  # a thread that could not start: keep the peers that did
        _park(peers)
        raise
    return peers


def close_pool() -> None:
    """End and join every parked peer; the next run that needs one starts it afresh."""
    with _pool_lock:
        peers = _parked[:]
        _parked.clear()
    for peer in peers:
        peer.go.release()  # with no job: the peer exits
    for peer in peers:
        peer.thread.join()


def _forget_pool() -> None:
    # a forked child has only the forking thread: every peer, and any holder
    # of the pool's lock, stayed behind in the parent
    global _pool_lock, _parked
    _pool_lock = threading.Lock()
    _parked = []


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def run_workers(
    body: Callable[[int], None], num_threads: int, stop: Callable[[], None],
    fatal: Collection[Site] = (),
) -> None:
    """Run ``body(w)`` for each worker id ``w < num_threads``; the one place a run stops.

    The last id runs on the calling thread, after the others are handed, in
    id order, to parked peers of the process's one pool, which starts a
    thread only when a run needs more peers than are parked. Concurrent
    runs take disjoint peers. A worker raises; the runner stops the run: a
    :class:`WorkerCrashed` ends its worker silently, unless its site is in
    ``fatal``, the crash sites the run cannot survive, where it calls
    ``stop()``; an :class:`Aborted` calls ``stop()``, and any other raise is
    recorded and calls ``stop()``. The runner keeps no clock: it waits,
    with no timeout, for every peer's body to return; a stopped worker
    returns at its next wait or fault site, or when its work runs out. The
    run ends when every worker has returned: each peer parks again, and the
    first recorded error is re-raised.
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

    peers = _take_peers(num_threads - 1)
    for w, peer in enumerate(peers):
        peer.job = functools.partial(run, w)
        peer.go.release()
        peer.took.acquire()
    run(num_threads - 1)
    for peer in peers:
        peer.done.acquire()
    _park(peers)
    if errors:
        raise errors[0]
