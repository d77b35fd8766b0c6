import dis
import gc
import itertools
import sys
import threading
import time

import networkx as nx
import pytest
from hypothesis import given, settings

from _helpers import (
    StepWorker,
    access_set_blocks,
    chain_block,
    clique_block,
    disjoint_block,
    publish,
    random_wallet_block,
    run_with_timeout,
    try_publish,
    value_of,
    wallet_block,
)
from binsched import (
    CRASH_POINTS,
    BinAssignment,
    FaultPlan,
    Site,
    bin_oracle,
    build_execution_plan,
    check_conflicts,
)
from binsched.atomics import UNASSIGNED, PublishOnceArray, Wakeup
from binsched.binning import _help, assign_bins_helper, assign_bins_standard
from binsched.conflict import PublisherTable, claim_slots_helper, claim_slots_standard
from binsched.faults import Aborted, Worker, WorkerCrashed, run_workers


def published_table(txns):
    """A publisher table over ``txns`` whose every slot worker 0 published, as after phase 1."""
    table = PublisherTable(txns)
    for t in txns:
        publish(table, t.id, 0)
    return table


def table_over(pairs):
    """An unpublished table over a wallet block of the given transfers."""
    return PublisherTable(wallet_block(pairs))


def run_assignment(txns, num_threads, use_helpers):
    bins = BinAssignment(published_table(txns))
    claims = itertools.count()
    target = assign_bins_helper if use_helpers else assign_bins_standard

    abort = Wakeup()

    def body(w):
        target(bins, claims, Worker(w, abort=abort))

    assert run_with_timeout(lambda: run_workers(body, num_threads, abort.stop)) == []
    return bins


def run_helper(bins, claims, worker=None):
    """Run one phase-2 helper over the assignment's block to its exit.

    Returns the helper's count of helped dependencies.
    """
    worker = Worker(0) if worker is None else worker
    assign_bins_helper(bins, claims, worker)
    return worker.helped


# --- bin computation ----------------------------------------------------------


def standard_bin(bins, i, worker):
    """Slot ``i``'s bin, as STANDARD's phase 2 computes and publishes it from one claim."""
    assign_bins_standard(bins, iter([i]), worker)
    return value_of(bins, i)


def test_calculate_bin_empty_conflicts():
    table = published_table(wallet_block([("A", "B")]))
    assert standard_bin(BinAssignment(table), 0, Worker(0)) == 0


def test_calculate_bin_single_dependency():
    table = published_table(wallet_block([("A", "B"), ("B", "C")]))
    assert table.index.frontiers[1] == (0,)
    bins = BinAssignment(table)
    publish(bins, 0, 2)
    assert standard_bin(bins, 1, Worker(0)) == 3


def test_calculate_bin_max_of_dependencies():
    table = published_table(wallet_block([("A", "B"), ("C", "D"), ("A", "C")]))
    assert set(table.index.frontiers[2]) == {0, 1}
    bins = BinAssignment(table)
    publish(bins, 0, 0)
    publish(bins, 1, 4)
    assert standard_bin(bins, 2, Worker(0)) == 5


def test_calculate_bin_requires_published_slot():
    # phase 2 reads the index's frontiers only once phase 1 published every slot
    table = table_over([("A", "B"), ("B", "C")])
    publish(table, 1, 0)
    claims = itertools.count()
    with pytest.raises(RuntimeError, match="phase 1 incomplete"):
        assign_bins_standard(BinAssignment(table), claims, Worker(0))
    assert next(claims) == 0  # it raised before its first claim


def test_calculate_bin_abort_breaks_the_wait():
    table = published_table(wallet_block([("A", "B"), ("B", "C")]))
    bins = BinAssignment(table)  # dependency 0 never assigned
    late = Worker(0, abort=Wakeup(time.perf_counter() - 1))
    with pytest.raises(Aborted):  # a passed deadline ends the wait
        standard_bin(bins, 1, late)
    assert not late.abort.stopped  # a worker raises; the runner stops the run
    run_workers(lambda w: standard_bin(bins, 1, late), 1, late.abort.stop)
    assert late.abort.stopped
    # so does the stop a peer made, without a deadline; a lost stop fails instead of hanging
    raised = run_with_timeout(lambda: standard_bin(bins, 1, Worker(1, abort=late.abort)), 5)
    assert len(raised) == 1 and isinstance(raised[0], Aborted)


def sleep_in_phase2(wake):
    """Slot 1 of a two-transfer block sleeps on its unassigned dependency 0
    with no deadline until ``wake(bins, wakeup)``; returns what the sleeper
    returned or raised."""
    bins = BinAssignment(published_table(wallet_block([("A", "B"), ("B", "C")])))
    wakeup = Wakeup()
    got = []

    def sleep():
        try:
            got.append(standard_bin(bins, 1, Worker(0, abort=wakeup)))
        except Aborted as exc:
            got.append(exc)

    sleeper = threading.Thread(target=sleep, daemon=True)

    def wake_once_asleep():
        sleeper.start()  # the worker's deadline is infinite: only a wake or a stop ends it
        limit = time.perf_counter() + 5
        while wakeup.sleepers != 1:
            assert time.perf_counter() < limit, "phase 2 never slept"
        wake(bins, wakeup)
        sleeper.join()

    assert run_with_timeout(wake_once_asleep, timeout=5) == []
    assert wakeup.sleepers == 0
    return got


def test_a_publish_wakes_a_phase2_sleeper():
    # a peer runs phase 2 on slot 0 alone: its publish, not the test, wakes the sleeper
    got = sleep_in_phase2(
        lambda bins, wakeup: assign_bins_standard(bins, iter([0, 2]), Worker(1, abort=wakeup))
    )
    assert got == [1]


def test_a_peer_stop_ends_a_phase2_sleep_without_a_deadline():
    got = sleep_in_phase2(lambda bins, wakeup: wakeup.stop())
    assert len(got) == 1 and isinstance(got[0], Aborted)


def test_helper_resolves_an_unassigned_dependency():
    bins = BinAssignment(published_table(wallet_block([("A", "B"), ("B", "C")])))
    claims = itertools.count(1)
    helped = run_helper(bins, claims)
    assert bins.initial_bin_list() == [0, 1]
    assert helped == 1
    assert next(claims) == 2  # one claim did both slots


def test_helper_empty_conflicts():
    bins = BinAssignment(published_table(wallet_block([("A", "B")])))
    helped = run_helper(bins, itertools.count(0))
    assert bins.initial_bin_list() == [0]
    assert helped == 0


def test_helper_equal_dependencies():
    table = published_table(wallet_block([("A", "B"), ("C", "D"), ("A", "C")]))
    assert set(table.index.frontiers[2]) == {0, 1}
    bins = BinAssignment(table)
    publish(bins, 0, 1)
    publish(bins, 1, 1)
    helped = run_helper(bins, itertools.count(2))
    assert value_of(bins, 2) == 2
    assert helped == 0


def test_helper_waits_only_on_the_frontier():
    # 0 lies in slot 2's lower set but not in its frontier: the helper must
    # not resolve it on slot 2's behalf, since 1 already bounds 2's bin
    block = wallet_block([("X", "Y")] * 3)
    table = published_table(block)
    assert table.index.frontiers[2] == (1,)
    assert table.index.lower_conflicts(block[2]) == frozenset({0, 1})
    bins = BinAssignment(table)
    publish(bins, 1, 3)
    helped = run_helper(bins, itertools.count(2))
    assert bins.initial_bin_list() == [0, 3, 4]  # 0 was filled by its own claim
    assert helped == 0


# --- helping ----------------------------------------------------------------------


def test_one_claim_resolves_a_whole_unassigned_chain():
    # the last slot of a chain block depends, link by link, on every other
    block = chain_block(60)
    bins = BinAssignment(published_table(block))
    claims = itertools.count(59)
    helped = run_helper(bins, claims)
    assert next(claims) == 60
    assert helped == 59
    assert bins.initial_bin_list() == bin_oracle(block)


def test_helper_on_an_incomplete_table_raises():
    # phase 2 reads the frontiers only once phase 1 published every slot: slot 1 is unset
    table = table_over([("A", "B"), ("B", "C")])
    publish(table, 0, 0)
    bins = BinAssignment(table)
    claims = itertools.count()
    with pytest.raises(RuntimeError, match="phase 1 incomplete"):
        run_helper(bins, claims)
    assert bins.initial_bin_list() == [UNASSIGNED, UNASSIGNED]
    assert next(claims) == 0  # it raised before its first claim


def test_crash_while_helping_a_dependency_leaves_the_rest_to_a_peer():
    # worker 0 claims the chain's last slot, publishes the bins of the two
    # deepest links it helps, and crashes before publishing the third
    block = chain_block(6)
    table = published_table(block)
    bins = BinAssignment(table)
    claims = itertools.count(5)
    pre_cas_calls = []

    def crash_on_third_pre_cas(site):
        if site is Site.PHASE2_PRE_CAS:
            pre_cas_calls.append(site)
            if len(pre_cas_calls) == 3:
                raise WorkerCrashed(0, site)

    with pytest.raises(WorkerCrashed):
        run_helper(bins, claims, StepWorker(crash_on_third_pre_cas))
    assert bins.initial_bin_list() == [0, 1, None, None, None, None]
    assert next(claims) == 6

    run_helper(bins, claims, Worker(1))
    assert bins.initial_bin_list() == bin_oracle(block)


def test_a_long_chain_resolves_without_recursion():
    n = 3000
    assert n > sys.getrecursionlimit()
    block = chain_block(n)
    bins = BinAssignment(published_table(block))
    run_helper(bins, itertools.count(n - 1))
    assert bins.initial_bin_list() == list(range(n))  # a chain's bins, as in test_oracle_chain


# --- fault sites ----------------------------------------------------------------


@pytest.mark.parametrize(
    "phase1, phase2",
    [
        (claim_slots_standard, assign_bins_standard),
        (claim_slots_helper, assign_bins_helper),
    ],
    ids=["standard", "helper"],
)
def test_each_slot_visits_its_two_sites_once_in_order(phase1, phase2):
    n = 5
    block = chain_block(n)
    table = PublisherTable(block)
    bins = BinAssignment(table)
    sites = []
    phase1(table, itertools.count(), StepWorker(sites.append))
    assert sites == [Site.PHASE1_POST_CLAIM, Site.PHASE1_PRE_PUBLISH] * n
    sites.clear()
    phase2(bins, itertools.count(), StepWorker(sites.append))
    assert sites == [Site.PHASE2_POST_CLAIM, Site.PHASE2_PRE_CAS] * n
    assert bins.initial_bin_list() == bin_oracle(block)


# --- a worker's fault hook ----------------------------------------------------

PHASES = [
    (claim_slots_standard, assign_bins_standard),
    (claim_slots_helper, assign_bins_helper),
]


def run_phase(procedure, block, worker, claims):
    """Run one phase procedure over ``block`` with phase 1 done for a phase-2 one;
    returns the array it publishes into."""
    if procedure in (claim_slots_standard, claim_slots_helper):
        array = PublisherTable(block)
    else:
        array = BinAssignment(published_table(block))
    procedure(array, claims, worker)
    return array


@pytest.mark.parametrize("procedure", [p for pair in PHASES for p in pair], ids=lambda f: f.__name__)
def test_a_stopped_plain_worker_stops_at_a_wait_or_site(procedure):
    # a plain worker tests nothing per claim: in a stopped run it finishes
    # the claims it is in and stops at its next wait or fault site
    worker = Worker(0)
    assert worker.hook is None
    worker.abort.stop()
    if procedure is assign_bins_standard:
        # its wait on unassigned member 0 ends at once; a lost stop fails instead of hanging
        bins = BinAssignment(published_table(chain_block(3)))
        started = time.perf_counter()
        raised = run_with_timeout(lambda: procedure(bins, iter([1]), worker), 5)
        assert [type(exc) for exc in raised] == [Aborted]
        assert time.perf_counter() - started < 1
        assert bins.published() == 0 and worker.abort.sleepers == 0
    else:
        claims = itertools.count()
        assert run_phase(procedure, chain_block(5), worker, claims).is_complete()
        # each slot claimed once; STANDARD's loop ends on a claim past the block
        assert next(claims) == (6 if procedure is claim_slots_standard else 5)
    with pytest.raises(Aborted):  # the site every worker visits between the phases
        worker.at(Site.INTER_PHASE)


@pytest.mark.parametrize("phase1, phase2", PHASES, ids=["standard", "helper"])
def test_a_delayed_worker_sleeps_at_every_claim(phase1, phase2, monkeypatch):
    slept = []
    monkeypatch.setattr("binsched.faults.time.sleep", slept.append)
    plan = FaultPlan(delayed_workers=frozenset({0}), delay_per_claim=0.001)
    for procedure in (phase1, phase2):
        slept.clear()
        array = run_phase(procedure, chain_block(5), Worker(0, plan), itertools.count())
        assert slept == [0.001] * 5
        assert array.is_complete()


@pytest.mark.parametrize("phase1, phase2", PHASES, ids=["standard", "helper"])
@pytest.mark.parametrize("site", CRASH_POINTS, ids=lambda s: s.value)
def test_a_crashed_worker_crashes_at_its_site(phase1, phase2, site):
    plan = FaultPlan(crashed_workers=frozenset({0}), crash_point=site)
    for procedure in (phase1, phase2):
        worker = Worker(0, plan)
        claims = itertools.count()
        prefix = "phase1" if procedure is phase1 else "phase2"
        if not site.value.startswith(prefix):  # the inter-phase site lies in neither phase
            assert run_phase(procedure, chain_block(5), worker, claims).is_complete()
            continue
        with pytest.raises(WorkerCrashed):
            run_phase(procedure, chain_block(5), worker, claims)
        assert next(claims) == 1  # at its first claim


@pytest.mark.parametrize("procedure", [p for pair in PHASES for p in pair], ids=lambda f: f.__name__)
def test_a_plain_worker_makes_no_python_call_per_claim(procedure):
    # a plain worker's claim is C calls only: the profiler records as many
    # Python calls for 1000 slots as for 10, the procedure's own and its set-up.
    # The collector is off meanwhile: a finalizer it runs, such as a suspended
    # generator's left by another test, is a Python call the procedure did not make
    def calls(n):
        block = disjoint_block(n)
        array = PublisherTable(block) if procedure.__name__.startswith("claim") else (
            BinAssignment(published_table(block))
        )
        claims = itertools.count()
        worker = Worker(0)
        called = []
        gc.collect()
        gc.disable()
        sys.setprofile(
            lambda frame, event, arg: event == "call" and called.append(frame.f_code.co_name)
        )
        try:
            procedure(array, claims, worker)
        finally:
            sys.setprofile(None)
            gc.enable()
        assert array.is_complete()
        return called

    assert calls(10) == calls(1000)


# --- a helper's first pass and its sweep -----------------------------------------

# Frontiers (), (), (0,), (): no later slot waits on slot 1, so only a sweep reaches it.
SWEEP_PAIRS = [("A", "B"), ("C", "D"), ("A", "E"), ("F", "G")]
PEER = 1  # the id a scripted peer publishes under; the helper under test is worker 0


def phase1_helper(block):
    """Phase 1's helper, the array it fills, its two sites, and ``value(i, w)``,
    what worker ``w`` must publish into slot ``i``: its own id."""
    sites = (Site.PHASE1_POST_CLAIM, Site.PHASE1_PRE_PUBLISH)
    return claim_slots_helper, PublisherTable(block), sites, lambda i, w: w


def phase2_helper(block):
    """As :func:`phase1_helper` for phase 2, where every publisher of a slot publishes its bin."""
    oracle = bin_oracle(block)
    sites = (Site.PHASE2_POST_CLAIM, Site.PHASE2_PRE_CAS)
    return assign_bins_helper, BinAssignment(published_table(block)), sites, lambda i, w: oracle[i]


helper_phases = pytest.mark.parametrize(
    "helper_phase", [phase1_helper, phase2_helper], ids=["phase1", "phase2"]
)


@helper_phases
@pytest.mark.parametrize("peer", ["crashed", "stalled"])
def test_a_helper_sweeps_the_slot_a_stopped_peer_claimed(helper_phase, peer):
    # A peer claims slot 1 at the helper's first claim site and stops before
    # publishing it. The helper ends its first pass at its one claim past n,
    # then visits slot 1's two sites and publishes it; a stalled peer that
    # resumes afterwards loses its CAS.
    block = wallet_block(SWEEP_PAIRS)
    helper, array, sites, value = helper_phase(block)
    claims = itertools.count()
    peer_claims = []
    visits = []

    def peer_claims_once(site):
        if not peer_claims:
            peer_claims.append(next(claims))
        visits.append((site, sorted(array.unpublished())))

    worker = StepWorker(peer_claims_once)
    helper(array, claims, worker)
    assert peer_claims == [1]
    assert next(claims) == len(block) + 1  # the helper drew claim n, and no more
    assert [site for site, _ in visits] == list(sites) * len(block)
    assert visits[-2:] == [(site, [1]) for site in sites]  # the swept slot comes last
    if peer == "stalled":
        assert not try_publish(array, 1, value(1, PEER))
    assert array.snapshot() == [value(i, 0) for i in range(len(block))]
    assert worker.cas_retries == 0


@helper_phases
def test_a_sweep_that_peers_finish_first_ends_the_phase(helper_phase, monkeypatch):
    # A peer claims slot 1 and stops; the helper passes n and starts its scan.
    # Between its publish-count test and the scan's first slot, a peer
    # publishes slot 1: the scan comes up empty, and the helper must leave
    # the phase without an error or another claim.
    block = wallet_block(SWEEP_PAIRS)
    helper, array, sites, value = helper_phase(block)
    claims = itertools.count()
    peer_claims = []
    visits = []
    unpublished = PublishOnceArray.unpublished

    def scan_that_a_peer_finishes_first(arr):
        def scan():  # runs at the scan's first step, after the helper's test
            for i in list(unpublished(arr)):
                assert try_publish(arr, i, value(i, PEER))
            yield from unpublished(arr)

        return scan()

    def peer_claims_once(site):
        if not peer_claims:
            peer_claims.append(next(claims))
        visits.append(site)

    monkeypatch.setattr(PublishOnceArray, "unpublished", scan_that_a_peer_finishes_first)
    worker = StepWorker(peer_claims_once)
    helper(array, claims, worker)
    assert peer_claims == [1]
    assert visits == list(sites) * (len(block) - 1)  # the helper never reached slot 1
    assert next(claims) == len(block) + 1
    assert array.snapshot() == [value(i, PEER if i == 1 else 0) for i in range(len(block))]
    assert worker.cas_retries == 0


@helper_phases
def test_a_first_pass_claim_a_peer_publishes_first_has_one_winner(helper_phase):
    # The helper does not re-read its claimed slot before the CAS: a peer that
    # publishes slot 2 at the helper's claim site for it wins, and the helper
    # tries the CAS, loses it and counts one retry.
    block = wallet_block(SWEEP_PAIRS)
    helper, array, sites, value = helper_phase(block)
    claims = itertools.count()
    peer_won = []
    visits = []

    def peer_publishes_slot_2(site):
        visits.append(site)
        if len(visits) == 5:  # slots 0 and 1 took two sites each: slot 2's claim site
            assert site is sites[0]
            peer_won.append(try_publish(array, 2, value(2, PEER)))

    worker = StepWorker(peer_publishes_slot_2)
    helper(array, claims, worker)
    assert peer_won == [True]
    assert worker.cas_retries == 1
    assert visits == list(sites) * len(block)
    assert array.snapshot() == [value(i, PEER if i == 2 else 0) for i in range(len(block))]
    assert next(claims) == len(block)  # no claim past n: every slot was published


@pytest.mark.parametrize(
    "procedure",
    [
        claim_slots_standard,
        claim_slots_helper,
        assign_bins_standard,
        assign_bins_helper,
        _help,
    ],
    ids=lambda f: f.__name__,
)
def test_phase_loops_do_not_look_up_sites_on_the_enum(procedure):
    # On CPython 3.11, reading `Site.PHASE1_POST_CLAIM` costs about 141 ns
    # (a Python-level enum descriptor) against 9 ns for the same member bound
    # to a module name (timeit, one CPU), paid at every site of every slot.
    globals_read = {
        ins.argval for ins in dis.get_instructions(procedure) if ins.opname == "LOAD_GLOBAL"
    }
    assert "Site" not in globals_read


def test_calculate_bin_makes_no_closure_cells():
    # a predicate closure in STANDARD's phase 2 itself turns its locals into
    # cells at every call: on CPython 3.11 that took an empty frontier's bin
    # from about 300 to 500 ns (timeit, one CPU), paid for every slot; the
    # closure lives in the sleep, which only an unassigned member reaches
    assert assign_bins_standard.__code__.co_cellvars == ()


# --- serial oracle --------------------------------------------------------------


def test_oracle_worked_example():
    block = wallet_block([("A", "B"), ("C", "D"), ("B", "E")])
    assert bin_oracle(block) == [0, 0, 1]


def test_oracle_disjoint():
    assert bin_oracle(disjoint_block(5)) == [0, 0, 0, 0, 0]


def test_oracle_clique():
    assert bin_oracle(clique_block(4)) == [0, 1, 2, 3]


def test_oracle_chain():
    assert bin_oracle(chain_block(3)) == [0, 1, 2]


# --- the assignment procedures ----------------------------------------------------


@pytest.mark.parametrize("use_helpers", [False, True])
def test_worked_example_assignment(use_helpers):
    block = wallet_block([("A", "B"), ("C", "D"), ("B", "E")])
    bins = run_assignment(block, num_threads=4, use_helpers=use_helpers)
    assert bins.initial_bin_list() == [0, 0, 1]
    assert build_execution_plan(bins).bin_matrix == ((0, 1), (2,))


@pytest.mark.parametrize("use_helpers", [False, True])
def test_disjoint_block_single_bin(use_helpers):
    block = disjoint_block(20)
    bins = run_assignment(block, num_threads=4, use_helpers=use_helpers)
    assert bins.initial_bin_list() == [0] * 20
    plan = build_execution_plan(bins)
    assert plan.num_bins == 1
    assert plan.bin_matrix[0] == tuple(range(20))


@pytest.mark.parametrize("use_helpers", [False, True])
def test_chain_spreads_over_bins(use_helpers):
    block = chain_block(3)
    bins = run_assignment(block, num_threads=4, use_helpers=use_helpers)
    assert bins.initial_bin_list() == [0, 1, 2]


def test_helper_empty_block_returns():
    bins = run_assignment([], num_threads=4, use_helpers=True)
    assert bins.initial_bin_list() == []


@pytest.mark.parametrize("num_threads", [1, 2, 4, 8])
@pytest.mark.parametrize("use_helpers", [False, True])
def test_assignment_equals_oracle(num_threads, use_helpers):
    block = random_wallet_block(seed=17, max_n=150)
    bins = run_assignment(block, num_threads, use_helpers)
    assert bins.initial_bin_list() == bin_oracle(block)


@pytest.mark.parametrize("use_helpers", [False, True])
def test_membership_snapshots_match_assignment(use_helpers):
    block = random_wallet_block(seed=23, max_n=120)
    bins = run_assignment(block, num_threads=6, use_helpers=use_helpers)
    initial = bins.initial_bin_list()
    members = build_execution_plan(bins).bin_matrix
    assert sum(len(m) for m in members) == len(block)
    for b, bucket in enumerate(members):
        for i in bucket:
            assert initial[i] == b
    assert frozenset().union(*members) == frozenset(range(len(block)))


def test_no_bin_contains_a_conflicting_pair():
    block = random_wallet_block(seed=29, max_n=120)
    bins = run_assignment(block, num_threads=8, use_helpers=True)
    for bucket in build_execution_plan(bins).bin_matrix:
        ordered = sorted(bucket)
        for x in range(len(ordered)):
            for y in range(x + 1, len(ordered)):
                assert not check_conflicts(block[ordered[x]], block[ordered[y]])


def test_order_preservation_for_conflicting_pairs():
    block = random_wallet_block(seed=37, max_n=120)
    initial = run_assignment(block, num_threads=4, use_helpers=True).initial_bin_list()
    for i in range(len(block)):
        for j in range(i + 1, len(block)):
            if check_conflicts(block[i], block[j]):
                assert initial[j] > initial[i]


def test_depth_matches_longest_conflict_chain():
    block = random_wallet_block(seed=41, max_n=150)
    if not block:
        return
    initial = run_assignment(block, num_threads=4, use_helpers=True).initial_bin_list()
    dag = nx.DiGraph()
    dag.add_nodes_from(range(len(block)))
    for i in range(len(block)):
        for j in range(i + 1, len(block)):
            if check_conflicts(block[i], block[j]):
                dag.add_edge(i, j)
    longest_nodes = nx.dag_longest_path_length(dag) + 1
    assert max(initial) + 1 == longest_nodes


@settings(max_examples=30, deadline=None)
@given(access_set_blocks(max_n=8))
def test_oracle_equivalence_on_arbitrary_access_sets(txns):
    bins = run_assignment(txns, num_threads=3, use_helpers=True)
    assert bins.initial_bin_list() == bin_oracle(txns)


# --- publish-once mechanics ---------------------------------------------


def test_try_assign_publishes_once():
    bins = BinAssignment(PublisherTable(disjoint_block(1)))
    assert try_publish(bins, 0, 2)
    assert not try_publish(bins, 0, 5)
    assert value_of(bins, 0) == 2
    assert bins.published() == 1


def test_assignment_publish_once_accounting():
    block = random_wallet_block(seed=43, max_n=150)
    bins = run_assignment(block, num_threads=8, use_helpers=True)
    assert bins.published() == len(block)


def test_unassigned_sentinel_distinct_from_bin_zero():
    bins = BinAssignment(PublisherTable(disjoint_block(2)))
    assert value_of(bins, 0) == UNASSIGNED
    publish(bins, 0, 0)
    assert value_of(bins, 0) == 0
    assert value_of(bins, 1) == UNASSIGNED


def test_helper_waits_for_a_slot_a_peer_claimed_and_skipped():
    # A peer claims slot 1 each time round and never fills it, while this
    # worker only ever claims the filled slot 0. The worker must not leave
    # the phase on its run of filled claims: it has to fill slot 1 itself.
    block = disjoint_block(2)
    bins = BinAssignment(published_table(block))
    claims = itertools.count()
    assert try_publish(bins, 0, 0)
    peer_claims = []

    def peer_claims_next(site):
        if site is Site.PHASE2_POST_CLAIM and len(peer_claims) < 2:
            peer_claims.append(next(claims) % 2)

    assign_bins_helper(bins, claims, StepWorker(peer_claims_next))
    assert peer_claims == [1, 1]
    assert bins.initial_bin_list() == [0, 0]
