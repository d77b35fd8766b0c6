import threading
import time

import pytest

from binsched import CRASH_POINTS, Aborted, FaultPlan, Site, Worker, WorkerCrashed, make_fault_plan
from binsched.atomics import Wakeup
from binsched.faults import run_workers


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
    worker = Worker(1, plan, deadline=time.perf_counter() + 0.5)
    with pytest.raises(Aborted):
        worker.at(Site.PHASE2_POST_CLAIM)
    assert len(sleeps) == 1 and 0 < sleeps[0] <= 0.5
    assert not worker.abort.stopped  # a worker raises; the runner stops the run
    assert run_workers(lambda w: worker.at(Site.PHASE2_POST_CLAIM), 1, "t", worker.abort.stop) == []
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
            run_workers(body, 3, "t", lambda: stopped.append(True))
    else:
        assert run_workers(body, 3, "t", lambda: stopped.append(True)) == []
    assert stopped == ([True] if stops else [])
    assert ran_on[2] is threading.current_thread()
    assert [ran_on[w].name for w in (0, 1)] == ["t-0", "t-1"]
    assert not ran_on[0].is_alive() and not ran_on[1].is_alive()


@pytest.mark.parametrize("caller_raises", [False, True], ids=["alone", "beside_an_error"])
def test_run_workers_returns_the_peers_alive_past_until(caller_raises):
    release = threading.Event()
    stopped = []

    def body(w):
        if w == 0:
            release.wait(5)
        elif caller_raises:
            raise ValueError("worker 1 failed")  # an alive peer takes precedence

    stuck = run_workers(body, 2, "t", lambda: stopped.append(True), until=time.perf_counter())
    assert [t.name for t in stuck] == ["t-0"]
    assert stopped == [True] * (1 + caller_raises)  # the error's stop, then the alive peer's
    release.set()
    stuck[0].join(5)
    assert not stuck[0].is_alive()


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

    run_workers(body, 2, "t", lambda: stopped.append(True), fatal={site})
    assert stopped == [True]
    stopped.clear()
    run_workers(body, 2, "t", lambda: stopped.append(True), fatal=set(CRASH_POINTS) - {site})
    assert stopped == []  # a crash the run survives ends its worker silently
