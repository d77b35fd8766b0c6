import itertools
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from _helpers import (
    PEER_WORK,
    StepWorker,
    assert_pool_parked,
    chain_block,
    disjoint_block,
    pool_threads,
    publish,
    random_wallet_block,
    run_with_timeout,
    try_publish,
    value_of,
    wallet_block,
    wallet_blocks,
)
import binsched.faults
import binsched.scheduler
from binsched import (
    CRASH_POINTS,
    BinAssignment,
    FaultPlan,
    NonTermination,
    RetryStats,
    SchedulerConfigError,
    Site,
    Variant,
    WalletState,
    WorkloadSpec,
    bin_oracle,
    execute_plan,
    generate_workload,
    make_fault_plan,
    schedule,
    schedule_with_watchdog,
)
from binsched.atomics import Wakeup
from binsched.binning import assign_bins_helper
from binsched.conflict import PublisherTable, claim_slots_helper
from binsched.faults import Worker, WorkerCrashed, close_pool

ALL_VARIANTS = list(Variant)


def test_worked_example_all_variants():
    block = wallet_block([("A", "B"), ("C", "D"), ("B", "E")])
    for variant in ALL_VARIANTS:
        result = schedule(block, variant, num_threads=4)
        assert result.assignment.initial_bin_list() == [0, 0, 1]
        assert result.plan.bin_matrix == ((0, 1), (2,))


def test_empty_block():
    # an empty block runs the general path; a crash between the phases, which
    # stops a barrier variant before phase 2, still leaves nothing unassigned
    crash = FaultPlan(crashed_workers=frozenset({0}), crash_point=Site.INTER_PHASE)
    for variant in ALL_VARIANTS:
        for faults in (None, crash):
            result = schedule([], variant, num_threads=3, faults=faults)
            assert result.plan.num_bins == 0
            assert result.plan.bin_matrix == ()
            assert result.assignment.initial_bin_list() == []
            assert result.timing.phase2_s >= 0


@pytest.mark.parametrize("num_threads", [1, 2, 4, 8, 16])
def test_variants_agree_with_oracle(num_threads):
    block = random_wallet_block(seed=101, max_n=250)
    expected = bin_oracle(block)
    for variant in ALL_VARIANTS:
        result = schedule(block, variant, num_threads=num_threads)
        assert result.assignment.initial_bin_list() == expected


@settings(max_examples=15, deadline=None)
@given(wallet_blocks(max_n=80), st.sampled_from([1, 2, 4, 8]))
def test_variant_equivalence_property(block, num_threads):
    expected = bin_oracle(block)
    for variant in ALL_VARIANTS:
        result = schedule(block, variant, num_threads=num_threads)
        assert result.assignment.initial_bin_list() == expected


def test_delay_plans_do_not_change_the_outcome():
    block = random_wallet_block(seed=7, max_n=60)
    expected = bin_oracle(block)
    faults = make_fault_plan(4, delayed_pct=50, delay=0.002, seed=1)
    for variant in ALL_VARIANTS:
        result = schedule(block, variant, num_threads=4, faults=faults)
        assert result.assignment.initial_bin_list() == expected


@pytest.mark.parametrize("crash_point", CRASH_POINTS)
@pytest.mark.parametrize("n_crashed", [1, 4, 7])
def test_lockfree_progress_under_crashes(crash_point, n_crashed):
    block = random_wallet_block(seed=55, max_n=200)
    expected = bin_oracle(block)
    faults = FaultPlan(crashed_workers=frozenset(range(n_crashed)), crash_point=crash_point)
    result = schedule(block, Variant.LOCKFREE, num_threads=8, faults=faults)
    assert result.assignment.initial_bin_list() == expected


def test_lockfree_crash_plus_delay_mix():
    block = random_wallet_block(seed=56, max_n=100)
    faults = make_fault_plan(
        8, delayed_pct=25, delay=0.001, crashed_pct=25, crash_point=Site.PHASE1_POST_CLAIM, seed=4
    )
    result = schedule(block, Variant.LOCKFREE, num_threads=8, faults=faults)
    assert result.assignment.initial_bin_list() == bin_oracle(block)


# --- configuration errors -------------------------------------------------------


def test_zero_threads_rejected():
    with pytest.raises(SchedulerConfigError):
        schedule(wallet_block([("A", "B")]), Variant.LOCKFREE, num_threads=0)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_a_block_whose_ids_are_not_its_positions_is_rejected(variant):
    block = generate_workload(WorkloadSpec(40, 10, 100, seed=1))
    raised = run_with_timeout(
        lambda: schedule(block[10:20], variant, 2, watchdog_secs=1.0), timeout=5
    )
    assert [type(exc) for exc in raised] == [ValueError]
    assert "id 10 at position 0" in str(raised[0])


def test_out_of_range_worker_ids_rejected():
    faults = FaultPlan(crashed_workers=frozenset({9}))
    with pytest.raises(SchedulerConfigError):
        schedule(wallet_block([("A", "B")]), Variant.LOCKFREE, num_threads=2, faults=faults)


# --- watchdog and non-termination -------------------------------------------------


@pytest.mark.parametrize("variant", [Variant.STANDARD, Variant.ASSISTED])
def test_barrier_variants_hang_under_crashes(variant):
    block = random_wallet_block(seed=61, max_n=120)
    faults = FaultPlan(crashed_workers=frozenset({1}), crash_point=Site.INTER_PHASE)
    started = time.perf_counter()
    with pytest.raises(NonTermination):
        schedule(block, variant, num_threads=4, faults=faults, watchdog_secs=0.8)
    elapsed = time.perf_counter() - started
    assert elapsed < 15.0  # watchdog bounds the hang; suite never blocks


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_a_run_whose_every_worker_crashes_ends_at_once(variant):
    # every worker crashes at its first claim: no variant can finish, and the
    # run ends at once, long before the default 30 s deadline
    block = chain_block(40)
    faults = FaultPlan(crashed_workers=frozenset({0, 1}))
    raised = run_with_timeout(lambda: schedule(block, variant, 2, faults), timeout=5)
    assert [type(exc) for exc in raised] == [NonTermination]
    assert "exceeded" not in str(raised[0])


@pytest.mark.parametrize("watchdog_secs", [0, -1, float("nan"), float("inf")])
def test_watchdog_must_be_finite_and_positive(watchdog_secs):
    block = wallet_block([(f"u{i}", f"v{i}") for i in range(2000)])
    with pytest.raises(SchedulerConfigError):
        schedule(block, Variant.STANDARD, 2, watchdog_secs=watchdog_secs)


def test_lockfree_with_watchdog_completes():
    block = random_wallet_block(seed=63, max_n=120)
    faults = FaultPlan(crashed_workers=frozenset({0, 1, 2}), crash_point=Site.PHASE2_PRE_CAS)
    result = schedule(
        block, Variant.LOCKFREE, num_threads=4, faults=faults, watchdog_secs=10.0
    )
    assert result.assignment.initial_bin_list() == bin_oracle(block)


# --- the worker threads and the calling thread -------------------------------------


@pytest.fixture
def crashed_on(monkeypatch):
    """The threads on which a worker crashed, in crash order."""
    threads = []

    class Recorded(WorkerCrashed):
        def __init__(self, worker_id, site):
            super().__init__(worker_id, site)
            threads.append(threading.current_thread())

    monkeypatch.setattr(binsched.faults, "WorkerCrashed", Recorded)
    return threads


def test_no_worker_thread_outlives_its_run():
    # after every run, each thread of the pool is parked again, running no body
    block = random_wallet_block(seed=91, max_n=120)
    for variant in ALL_VARIANTS:
        result = schedule(block, variant, num_threads=4)
        assert_pool_parked()
        execute_plan(result.plan, block, WalletState(), num_threads=4, per_txn_work=PEER_WORK)
        assert_pool_parked()
    assert len(pool_threads()) >= 3
    faults = FaultPlan(crashed_workers=frozenset({1}), crash_point=Site.INTER_PHASE)
    with pytest.raises(NonTermination):
        schedule(block, Variant.STANDARD, 4, faults=faults, watchdog_secs=0.3)
    assert_pool_parked()


def test_the_calling_thread_is_one_of_the_workers(worker_threads):
    block = random_wallet_block(seed=92, max_n=60)
    close_pool()
    before = threading.enumerate()
    result = schedule(block, Variant.STANDARD, num_threads=1)
    execute_plan(result.plan, block, WalletState(), num_threads=1)
    assert worker_threads == [{0: threading.current_thread()}]  # the replay ran no worker
    assert threading.enumerate() == before  # a one-thread run starts no thread
    schedule(block, Variant.STANDARD, num_threads=4)
    ran_on = worker_threads[1]
    assert ran_on[3] is threading.current_thread()
    peers = [ran_on[w] for w in range(3)]
    assert len(set(peers)) == 3 and set(peers) == pool_threads()
    assert_pool_parked()


@pytest.mark.parametrize("crash_point", CRASH_POINTS)
@pytest.mark.parametrize("num_threads", [2, 4])
def test_lockfree_survives_a_crashed_calling_thread(crash_point, num_threads, crashed_on):
    # the calling thread runs the last id; its peers sleep on every claim,
    # so it reaches its crash point before they finish the block
    block = random_wallet_block(seed=58, max_n=200)  # 149 transfers
    faults = FaultPlan(
        delayed_workers=frozenset(range(num_threads - 1)),
        delay_per_claim=0.001,
        crashed_workers=frozenset({num_threads - 1}),
        crash_point=crash_point,
    )
    result = schedule(block, Variant.LOCKFREE, num_threads, faults=faults)
    assert result.assignment.initial_bin_list() == bin_oracle(block)
    assert crashed_on == [threading.current_thread()]


def test_standard_stops_at_once_when_a_peer_waits_on_the_crashed_calling_thread(
    crashed_on,
):
    # each transfer's frontier is the one before it. The peer sleeps on
    # every claim, so the calling thread claims a phase-2 slot and crashes
    # before publishing it, while the peer may wait on that slot; STANDARD
    # survives no crash, so the runner stops the run then, not at the deadline
    faults = FaultPlan(
        delayed_workers=frozenset({0}),
        delay_per_claim=0.005,
        crashed_workers=frozenset({1}),
        crash_point=Site.PHASE2_PRE_CAS,
    )
    started = time.perf_counter()
    with pytest.raises(NonTermination):
        schedule(chain_block(40), Variant.STANDARD, 2, faults=faults, watchdog_secs=30)
    assert time.perf_counter() - started < 1
    assert crashed_on == [threading.current_thread()]


@pytest.mark.parametrize(
    "variant, crashed, crash_point",
    [
        (Variant.STANDARD, {0, 1}, Site.PHASE2_PRE_CAS),
        (Variant.STANDARD, {0}, Site.PHASE1_POST_CLAIM),
        (Variant.STANDARD, {1}, Site.INTER_PHASE),
        (Variant.ASSISTED, {0}, Site.PHASE1_PRE_PUBLISH),
        (Variant.ASSISTED, {0}, Site.INTER_PHASE),
        (Variant.ASSISTED, {1}, Site.INTER_PHASE),
    ],
    ids=lambda v: v.value if isinstance(v, (Variant, Site)) else "-".join(map(str, sorted(v))),
)
def test_a_crash_the_variant_cannot_survive_ends_the_run_at_once(
    variant, crashed, crash_point, crashed_on
):
    # before the runner stopped such a run, the survivors slept on the crashed
    # worker's slot or at the meet until the whole 30 s budget was spent. A
    # survivor sleeps on each claim, so the crashing worker claims and reaches
    # its site in whichever order the runner starts them
    block = generate_workload(WorkloadSpec(40, 10, 100, seed=1))
    faults = FaultPlan(
        delayed_workers=frozenset({0, 1} - crashed),
        delay_per_claim=0.01,
        crashed_workers=frozenset(crashed),
        crash_point=crash_point,
    )
    assert crash_point in variant.fatal_crash_sites
    started = time.perf_counter()
    raised = run_with_timeout(
        lambda: schedule(block, variant, 2, faults, watchdog_secs=30), timeout=10
    )
    assert crashed_on, "no worker reached its crash site"
    assert [type(exc) for exc in raised] == [NonTermination]
    assert time.perf_counter() - started < 1


def test_lockfree_survives_every_crash_site():
    assert Variant.LOCKFREE.fatal_crash_sites == frozenset()
    assert Variant.ASSISTED.fatal_crash_sites == frozenset(CRASH_POINTS) - {Site.PHASE2_PRE_CAS}
    assert Variant.STANDARD.fatal_crash_sites == frozenset(CRASH_POINTS)


def test_a_peer_error_wakes_a_standard_sleeper_long_before_the_deadline(monkeypatch):
    # as above, but the calling thread raises at its pre-CAS site once the
    # delayed peer sleeps on the slot it holds: the error path must wake it
    class FailingWorker(Worker):
        def at(self, site):
            if self.id == 1 and site is Site.PHASE2_PRE_CAS:
                limit = time.perf_counter() + 5
                while not self.abort.sleepers and time.perf_counter() < limit:
                    time.sleep(0.001)
                raise ValueError("worker 1 failed")
            super().at(site)

    monkeypatch.setattr(binsched.scheduler, "Worker", FailingWorker)
    faults = FaultPlan(delayed_workers=frozenset({0}), delay_per_claim=0.005)
    started = time.perf_counter()
    raised = run_with_timeout(
        lambda: schedule(
            chain_block(40), Variant.STANDARD, 2, faults=faults, watchdog_secs=30
        ),
        timeout=10,
    )
    assert [str(exc) for exc in raised] == ["worker 1 failed"]
    assert time.perf_counter() - started < 5


@pytest.mark.parametrize("variant", [Variant.STANDARD, Variant.ASSISTED])
def test_an_error_ends_a_peers_barrier_wait_at_once(variant, monkeypatch):
    # the calling thread fails between the phases while its peer waits at
    # the barrier: the runner's stop must break the barrier, not the deadline
    class FailingWorker(Worker):
        def at(self, site):
            if self.id == 1 and site is Site.INTER_PHASE:
                time.sleep(0.05)
                raise ValueError("worker 1 failed")
            super().at(site)

    monkeypatch.setattr(binsched.scheduler, "Worker", FailingWorker)
    started = time.perf_counter()
    raised = run_with_timeout(
        lambda: schedule(chain_block(40), variant, 2, watchdog_secs=30), timeout=10
    )
    assert [str(exc) for exc in raised] == ["worker 1 failed"]
    assert time.perf_counter() - started < 5


@pytest.mark.parametrize("variant", [Variant.STANDARD, Variant.ASSISTED])
def test_the_barrier_costs_one_wake(variant, monkeypatch):
    # a wake uncounts the sleepers it notifies, so once the last worker to
    # arrive wakes the one at the barrier, phase 2's publishes on this
    # dependency-free block find no sleeper, and take no lock, except for one
    # that meets the woken sleeper while it counts itself again
    found = []

    class CountingWakeup(Wakeup):
        def wake(self):
            if self.sleepers:
                found.append(self.sleepers)
            super().wake()

    monkeypatch.setattr(binsched.scheduler, "Wakeup", CountingWakeup)
    block = disjoint_block(1000)
    for _ in range(5):
        found.clear()
        result = schedule(block, variant, 2)
        assert result.assignment.initial_bin_list() == [0] * len(block)
        assert len(found) <= 2, found


@pytest.mark.parametrize("variant", [Variant.STANDARD, Variant.ASSISTED])
def test_barrier_variants_meet_under_fast_thread_switching(variant):
    # more workers than cores, switching every microsecond: a wake lost at
    # the barrier would leave a worker asleep until the 10 s deadline, where
    # its sleep would find every peer arrived and go on
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(20):
            block = random_wallet_block(seed=800 + seed, max_n=60)
            started = time.perf_counter()
            result = schedule(block, variant, num_threads=8, watchdog_secs=10)
            assert time.perf_counter() - started < 5, seed
            assert result.assignment.initial_bin_list() == bin_oracle(block)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("num_threads", [1, 2])
def test_a_delayed_calling_thread_sleeps_only_until_the_deadline(num_threads):
    # every worker, the calling thread included, would sleep a minute on
    # its first claim: no thread but the workers is left to stop them
    watchdog = 0.5
    faults = FaultPlan(delayed_workers=frozenset(range(num_threads)), delay_per_claim=60.0)
    started = time.perf_counter()
    with pytest.raises(NonTermination):
        schedule(
            chain_block(20), Variant.STANDARD, num_threads, faults=faults, watchdog_secs=watchdog
        )
    assert time.perf_counter() - started < watchdog + 2
    assert_pool_parked()


@pytest.mark.parametrize("slow", [0, 1], ids=["peer", "caller"])
def test_a_worker_past_the_deadline_finishes_on_any_thread(slow, monkeypatch):
    # the deadline ends waits, not work: a worker that works past it without
    # waiting finishes, whether it is a pool peer (worker 0) or the calling
    # thread (worker 1). The other worker's short sleep at its first claim
    # lets the slow one claim a slot; then it bins the rest without waiting
    slept = []

    class SlowWorker(Worker):
        def at(self, site):
            if site is Site.PHASE2_POST_CLAIM and self.id not in slept:
                slept.append(self.id)
                time.sleep(1.3 if self.id == slow else 0.01)
            super().at(site)

    monkeypatch.setattr(binsched.scheduler, "Worker", SlowWorker)
    block = disjoint_block(50)
    result = schedule(block, Variant.STANDARD, 2, watchdog_secs=0.1)
    assert result.assignment.initial_bin_list() == bin_oracle(block)
    assert sorted(slept) == [0, 1]  # the slow worker held a claim past the deadline
    assert_pool_parked()


# --- result metadata ---------------------------------------------------------------


def test_timing_fields_are_sane():
    block = random_wallet_block(seed=71, max_n=150)
    result = schedule(block, Variant.LOCKFREE, num_threads=4)
    timing = result.timing
    assert timing.phase1_s >= 0
    assert timing.phase2_s >= 0
    assert timing.total_s >= max(timing.phase1_s, timing.phase2_s) - 1e-9


def test_retry_stats_are_nonnegative():
    block = random_wallet_block(seed=72, max_n=150)
    result = schedule(block, Variant.LOCKFREE, num_threads=8)
    assert result.retries.cas_retries >= 0
    assert result.retries.not_ready_skips >= 0


def test_standard_reports_no_retries():
    block = random_wallet_block(seed=72, max_n=150)
    assert schedule(block, Variant.STANDARD, num_threads=4).retries == RetryStats(0, 0)


def test_a_lost_phase1_publish_counts_one_cas_retry():
    # a peer publishes the claimed slot between the helper's compute and
    # its publish, so the helper's compare-and-set loses
    table = PublisherTable(wallet_block([("A", "B")]))

    def peer_publishes_first(site):
        if site is Site.PHASE1_PRE_PUBLISH:
            assert try_publish(table, 0, 1)  # peer 1's publish

    worker = StepWorker(peer_publishes_first)
    claim_slots_helper(table, itertools.count(), worker)
    assert worker.cas_retries == 1
    assert value_of(table, 0) == 1


def test_a_lost_phase2_publish_counts_one_cas_retry():
    table = PublisherTable(wallet_block([("A", "B")]))
    publish(table, 0, 0)
    bins = BinAssignment(table)

    def peer_publishes_first(site):
        if site is Site.PHASE2_PRE_CAS:
            assert try_publish(bins, 0, 0)

    worker = StepWorker(peer_publishes_first)
    assign_bins_helper(bins, itertools.count(), worker)
    assert worker.cas_retries == 1
    assert bins.initial_bin_list() == [0]


def test_a_crashed_workers_lost_cas_stays_counted():
    # the worker's CAS on slot 0 loses to a peer, then it crashes at its
    # next claim: the count it made before the crash stays on its record
    table = PublisherTable(wallet_block([("A", "B"), ("C", "D")]))
    claim_sites = []

    def peer_publishes_then_crash(site):
        if site is Site.PHASE1_PRE_PUBLISH:
            assert try_publish(table, 0, 1)  # peer 1's publish
        elif site is Site.PHASE1_POST_CLAIM:
            claim_sites.append(site)
            if len(claim_sites) == 2:
                raise WorkerCrashed(0, site)

    worker = StepWorker(peer_publishes_then_crash)
    with pytest.raises(WorkerCrashed):
        claim_slots_helper(table, itertools.count(), worker)
    assert worker.cas_retries == 1
    assert value_of(table, 1) is None


def test_an_incomplete_assignment_names_the_missing_slots(monkeypatch):
    monkeypatch.setattr("binsched.scheduler.assign_bins_standard", lambda *args: None)
    block = wallet_block([(f"u{i}", f"v{i}") for i in range(7)])
    with pytest.raises(RuntimeError, match=r"7 unassigned \(first: \[0, 1, 2, 3, 4\]\)"):
        schedule(block, Variant.STANDARD, num_threads=2)


@pytest.mark.parametrize(
    "entry", [schedule, schedule_with_watchdog], ids=["schedule", "schedule_with_watchdog"]
)
def test_an_interpreter_without_the_gil_is_rejected(entry, monkeypatch):
    monkeypatch.setattr("sys._is_gil_enabled", lambda: False, raising=False)
    with pytest.raises(SchedulerConfigError, match="GIL"):
        entry(wallet_block([("A", "B")]), Variant.LOCKFREE, num_threads=2)


def test_plan_consistent_with_assignment():
    block = random_wallet_block(seed=73, max_n=150)
    result = schedule(block, Variant.ASSISTED, num_threads=4)
    initial = result.assignment.initial_bin_list()
    for b, row in enumerate(result.plan.bin_matrix):
        assert list(row) == sorted(row)
        for txn_id in row:
            assert initial[txn_id] == b


def test_concurrent_schedule_calls_do_not_interfere():
    block_a = random_wallet_block(seed=81, max_n=120)
    block_b = random_wallet_block(seed=82, max_n=120)
    results: dict[str, list[int]] = {}

    def run(name, block):
        results[name] = schedule(block, Variant.LOCKFREE, 4).assignment.initial_bin_list()

    t1 = threading.Thread(target=run, args=("a", block_a))
    t2 = threading.Thread(target=run, args=("b", block_b))
    t1.start()
    t2.start()
    t1.join()
    t2.join()
    assert results["a"] == bin_oracle(block_a)
    assert results["b"] == bin_oracle(block_b)
