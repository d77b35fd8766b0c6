import os
import signal
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import pytest

import binsched
import binsched.faults
import binsched.scheduler
from _helpers import (
    PEER_WORK,
    assert_pool_parked,
    pool_threads,
    random_wallet_block,
    run_with_timeout,
)
from binsched import (
    CRASH_POINTS,
    FaultPlan,
    Site,
    Variant,
    WalletState,
    bin_oracle,
    execute_plan,
    execute_serial,
    make_fault_plan,
    schedule,
)
from binsched.atomics import Wakeup
from binsched.faults import Aborted, Worker, WorkerCrashed, close_pool, run_workers


def test_one_third_of_nine_rounds_to_three():
    plan = make_fault_plan(9, delayed_pct=33.33, delay=0.005, seed=1)
    assert len(plan.delayed_workers) == 3
    assert not plan.crashed_workers


def test_no_faults_gives_empty_plan():
    plan = make_fault_plan(8, delayed_pct=0, crashed_pct=0, seed=5)
    assert not plan.delayed_workers
    assert not plan.crashed_workers


def test_99_pct_crashed_leaves_a_survivor():
    plan = make_fault_plan(8, crashed_pct=99, seed=2)
    assert len(plan.crashed_workers) == 7


def test_full_crash_percentage_still_capped():
    plan = make_fault_plan(4, crashed_pct=100, seed=0)
    assert len(plan.crashed_workers) == 3


@pytest.mark.parametrize("crashed_pct", [50, 100])
def test_a_crash_percentage_the_cap_leaves_without_a_crash_is_rejected(crashed_pct):
    # the cap keeps a lone worker alive, so the plan would crash no one under a crash label
    message = rf"^crashed_pct={crashed_pct} crashes no worker at num_threads=1: "
    with pytest.raises(ValueError, match=message):
        make_fault_plan(1, crashed_pct=crashed_pct)
    assert make_fault_plan(1, crashed_pct=0) == FaultPlan()


def test_nonzero_percentage_selects_at_least_one():
    plan = make_fault_plan(16, delayed_pct=1, crashed_pct=1, seed=9)
    assert len(plan.delayed_workers) == 1
    assert len(plan.crashed_workers) == 1


def test_plans_are_deterministic_in_the_seed():
    a = make_fault_plan(8, delayed_pct=25, delay=0.001, crashed_pct=25, seed=11)
    b = make_fault_plan(8, delayed_pct=25, delay=0.001, crashed_pct=25, seed=11)
    c = make_fault_plan(8, delayed_pct=25, delay=0.001, crashed_pct=25, seed=12)
    assert a == b
    assert (a.delayed_workers, a.crashed_workers) != (c.delayed_workers, c.crashed_workers)


def test_delayed_and_crashed_never_overlap():
    for seed in range(20):
        plan = make_fault_plan(8, delayed_pct=50, delay=0.001, crashed_pct=50, seed=seed)
        assert not plan.delayed_workers & plan.crashed_workers


def test_overflowing_selection_rejected():
    with pytest.raises(ValueError):
        make_fault_plan(4, delayed_pct=80, delay=0.001, crashed_pct=80, seed=0)


def test_a_nan_delay_is_rejected():
    # an infinite delay too: time.sleep would raise OverflowError at a delayed worker's claim
    for delay in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="delay_per_claim must be finite and >= 0"):
            FaultPlan(delayed_workers=frozenset({0}), delay_per_claim=delay)
        with pytest.raises(ValueError, match="delay_per_claim must be finite and >= 0"):
            make_fault_plan(2, delayed_pct=50, delay=delay)


def test_plan_invariants_enforced():
    with pytest.raises(ValueError):
        FaultPlan(delayed_workers=frozenset({1}), crashed_workers=frozenset({1}))
    with pytest.raises(ValueError):
        FaultPlan(delay_per_claim=-1.0)
    with pytest.raises(ValueError):
        FaultPlan(crash_point=Site.PHASE2_POST_CLAIM)


@pytest.fixture
def sleeps(monkeypatch):
    """The durations ``Worker.at`` sleeps for, recorded instead of slept."""
    slept = []
    monkeypatch.setattr("binsched.faults.time.sleep", slept.append)
    return slept


def test_fault_site_terminates_at_the_crash_point(sleeps):
    plan = FaultPlan(crashed_workers=frozenset({2}), crash_point=Site.PHASE1_PRE_PUBLISH)
    with pytest.raises(WorkerCrashed) as info:
        Worker(2, plan).at(Site.PHASE1_PRE_PUBLISH)
    assert (info.value.worker_id, info.value.site) == (2, Site.PHASE1_PRE_PUBLISH)
    assert sleeps == []


def test_fault_site_raises_worker_crash(sleeps):
    plan = FaultPlan(crashed_workers=frozenset({0}), crash_point=Site.INTER_PHASE)
    with pytest.raises(WorkerCrashed):
        Worker(0, plan).at(Site.INTER_PHASE)
    Worker(0, plan).at(Site.PHASE1_POST_CLAIM)  # other sites pass through
    assert sleeps == []


def test_fault_site_continues_for_unaffected_workers(sleeps):
    plan = FaultPlan(crashed_workers=frozenset({2}), crash_point=Site.PHASE1_PRE_PUBLISH)
    for site in Site:
        Worker(0, plan).at(site)
    assert sleeps == []


def test_fault_site_sleeps_at_claim_sites(sleeps):
    plan = FaultPlan(delayed_workers=frozenset({1}), delay_per_claim=0.005)
    Worker(1, plan).at(Site.PHASE1_POST_CLAIM)
    assert sleeps == [0.005]
    Worker(1, plan).at(Site.INTER_PHASE)
    Worker(0, plan).at(Site.PHASE2_POST_CLAIM)
    assert sleeps == [0.005]


def test_fault_site_honors_abort():
    abort = Wakeup()
    worker = Worker(0, FaultPlan(), abort)
    worker.at(Site.PHASE1_POST_CLAIM)
    abort.stop()  # a peer's stop
    with pytest.raises(Aborted):
        worker.at(Site.PHASE1_POST_CLAIM)


def test_a_delayed_claim_sleeps_at_most_to_the_deadline(sleeps):
    plan = FaultPlan(delayed_workers=frozenset({1}), delay_per_claim=60.0)
    worker = Worker(1, plan, Wakeup(time.perf_counter() + 0.5))
    with pytest.raises(Aborted):
        worker.at(Site.PHASE2_POST_CLAIM)
    assert len(sleeps) == 1 and 0 < sleeps[0] <= 0.5
    assert not worker.abort.stopped  # a worker raises; the runner stops the run
    run_workers(lambda w: worker.at(Site.PHASE2_POST_CLAIM), 1, worker.abort.stop)
    assert worker.abort.stopped  # so the worker's peers stop too


@pytest.mark.parametrize(
    "raised, stops",
    [
        (None, False),
        (WorkerCrashed(0, Site.INTER_PHASE), False),  # a crash ends its worker silently
        (Aborted(), True),
        (ValueError("worker 0 failed"), True),  # and is re-raised after the join
    ],
    ids=["returns", "crashed", "aborted", "error"],
)
def test_run_workers_runs_the_last_id_on_the_calling_thread(raised, stops):
    ran_on = {}
    stopped = []

    def body(w):
        ran_on[w] = threading.current_thread()
        if w == 0 and raised is not None:
            raise raised

    if isinstance(raised, ValueError):
        with pytest.raises(ValueError, match="worker 0 failed"):
            run_workers(body, 3, lambda: stopped.append(True))
    else:
        run_workers(body, 3, lambda: stopped.append(True))
    assert stopped == ([True] if stops else [])
    assert ran_on[2] is threading.current_thread()
    peers = {ran_on[0], ran_on[1]}
    assert len(peers) == 2 and peers <= pool_threads()  # two peers of the pool
    assert_pool_parked()  # each parked again after its worker ended, however it ended


@pytest.mark.parametrize("caller_raises", [False, True], ids=["alone", "beside_an_error"])
def test_run_workers_joins_a_slow_peer_without_a_timeout(caller_raises):
    # the runner keeps no clock: a peer still working after the caller's
    # body ended is waited for, and never stopped for being slow
    stops = []
    returned = []

    def body(w):
        if w == 0:
            time.sleep(0.3)
            returned.append(time.perf_counter())
        elif caller_raises:
            raise ValueError("worker 1 failed")

    if caller_raises:
        with pytest.raises(ValueError, match="worker 1 failed"):  # re-raised after the join
            run_workers(body, 2, lambda: stops.append(True))
    else:
        run_workers(body, 2, lambda: stops.append(True))
    ended = time.perf_counter()
    assert len(returned) == 1 and returned[0] <= ended  # the peer's body returned first
    assert stops == [True] * caller_raises  # only the error's stop
    assert_pool_parked()


def test_a_peer_whose_worker_crashed_serves_the_next_run():
    close_pool()
    ran_on, served = {}, {}

    def crashing(w):
        ran_on[w] = threading.current_thread()
        if w == 0:
            raise WorkerCrashed(0, Site.PHASE1_POST_CLAIM)

    def serving(w):
        served[w] = threading.current_thread()

    run_workers(crashing, 2, pytest.fail)
    run_workers(serving, 2, pytest.fail)
    assert served == {0: ran_on[0], 1: threading.current_thread()}
    assert_pool_parked()


def test_a_parked_peer_holds_nothing_of_its_last_run():
    # else the run's state is freed when the next run wakes the peer, inside that run
    class Body:
        def __call__(self, w):
            pass

    body = Body()
    freed = weakref.ref(body)
    run_workers(body, 3, pytest.fail)
    del body
    assert freed() is None


def test_a_worker_error_is_re_raised_and_stops_its_peers():
    abort = Wakeup(time.perf_counter() + 10)
    woken = []

    def body(w):
        if w == 0:
            raise ValueError("worker 0 failed")
        woken.append(abort.sleep_until(lambda: False))

    started = time.perf_counter()
    raised = run_with_timeout(lambda: run_workers(body, 4, abort.stop), timeout=5)
    assert [str(exc) for exc in raised] == ["worker 0 failed"]
    assert woken == [False] * 3  # every other worker's sleep ended at the stop, not its deadline
    assert time.perf_counter() - started < 5


def test_the_pool_starts_no_thread_at_import():
    src = Path(binsched.__file__).resolve().parent.parent
    code = "import threading, binsched; assert threading.active_count() == 1, threading.enumerate()"
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=30)


def test_close_pool_ends_every_thread_the_pool_started():
    close_pool()
    before = threading.active_count()
    block = random_wallet_block(seed=93, max_n=80)
    result = schedule(block, Variant.LOCKFREE, 4)
    assert threading.active_count() == before + 3
    execute_plan(result.plan, block, WalletState(), 4, PEER_WORK)
    assert threading.active_count() == before + 3  # the replay reused the schedule's peers
    assert_pool_parked()
    close_pool()
    assert threading.active_count() == before
    assert pool_threads() == set()


def test_concurrent_runs_take_disjoint_peers(monkeypatch):
    # all eight workers of two 4-thread runs wait for each other before their
    # bodies start: the rendezvous completes only if no peer serves both runs
    met = threading.Barrier(8, timeout=10)
    ran_on = []
    real = binsched.faults.run_workers

    def meeting(body, num_threads, *args, **kwargs):
        threads = {}
        ran_on.append(threads)

        def met_first(w):
            threads[w] = threading.current_thread()
            met.wait()
            body(w)

        return real(met_first, num_threads, *args, **kwargs)

    blocks = [random_wallet_block(seed=94, max_n=120), random_wallet_block(seed=95, max_n=120)]
    schedule(blocks[0], Variant.ASSISTED, 4)  # three parked peers, for both runs to ask for
    monkeypatch.setattr(binsched.scheduler, "run_workers", meeting)
    bins = [None, None]

    def run(k):
        bins[k] = schedule(blocks[k], Variant.ASSISTED, 4).assignment.initial_bin_list()

    callers = [threading.Thread(target=run, args=(k,), daemon=True) for k in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # the callers take and park peers in many interleavings
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers), "a run hung"
    assert bins == [bin_oracle(blocks[0]), bin_oracle(blocks[1])]
    first, second = (set(threads.values()) for threads in ran_on)
    assert len(first) == len(second) == 4 and not first & second
    assert_pool_parked()


def test_a_forked_child_runs_on_a_fresh_pool():
    block = random_wallet_block(seed=96, max_n=120)
    schedule(block, Variant.STANDARD, 2)  # the parent's pool now holds a parked peer
    pid = os.fork()
    if pid == 0:  # the child: only the forking thread survived the fork
        status = 1
        try:
            result = schedule(block, Variant.STANDARD, 2)
            final = execute_plan(result.plan, block, WalletState(), 2, PEER_WORK)
            ok = result.assignment.initial_bin_list() == bin_oracle(block)
            status = 0 if ok and final == execute_serial(block, WalletState()) else 1
        finally:
            os._exit(status)
    deadline = time.perf_counter() + 30
    while (waited := os.waitpid(pid, os.WNOHANG)) == (0, 0) and time.perf_counter() < deadline:
        time.sleep(0.01)
    if waited == (0, 0):
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child hung")
    assert os.waitstatus_to_exitcode(waited[1]) == 0


class OverridingWorker(Worker):
    def at(self, site):
        super().at(site)


def test_a_worker_has_a_fault_hook_only_where_there_is_one():
    plan = FaultPlan(
        delayed_workers=frozenset({1}),
        delay_per_claim=0.001,
        crashed_workers=frozenset({2}),
        crash_point=Site.PHASE2_PRE_CAS,
    )
    assert Worker(0, plan).hook is None  # nothing to honor but the stop
    for worker in (Worker(1, plan), Worker(2, plan), OverridingWorker(0)):
        assert worker.hook == worker.at


@pytest.mark.parametrize("site", CRASH_POINTS, ids=lambda s: s.value)
def test_run_workers_stops_the_run_at_a_crash_it_cannot_survive(site):
    stopped = []

    def body(w):
        if w == 0:
            raise WorkerCrashed(0, site)

    run_workers(body, 2, lambda: stopped.append(True), fatal={site})
    assert stopped == [True]
    stopped.clear()
    run_workers(body, 2, lambda: stopped.append(True), fatal=set(CRASH_POINTS) - {site})
    assert stopped == []  # a crash the run survives ends its worker silently
