import threading

import pytest

from binsched import Aborted, FaultPlan, Site, Worker, WorkerCrashed, make_fault_plan


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
    abort = threading.Event()
    abort.set()
    with pytest.raises(Aborted):
        Worker(0, FaultPlan(), abort).at(Site.PHASE1_POST_CLAIM)
