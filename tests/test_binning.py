import dis
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
    random_wallet_block,
    run_with_timeout,
    wallet_block,
)
from binsched import (
    UNASSIGNED,
    Aborted,
    BinAssignment,
    ConflictTable,
    PublishOnceArray,
    Site,
    Worker,
    WorkerCrashed,
    assign_bins_helper,
    assign_bins_standard,
    bin_oracle,
    build_conflict_sets_helper,
    build_conflict_sets_standard,
    build_execution_plan,
    calculate_bin,
    check_conflicts,
)
from binsched.atomics import Wakeup
from binsched.faults import run_workers


def published_table(txns):
    table = ConflictTable(txns)
    for t in txns:
        table.publish(t.id, table.index.frontiers[t.id])
    return table


def table_over(pairs):
    """An unpublished table over a wallet block of the given transfers."""
    return ConflictTable(wallet_block(pairs))


def run_assignment(txns, num_threads, use_helpers):
    bins = BinAssignment(published_table(txns))
    claims = itertools.count()
    target = assign_bins_helper if use_helpers else assign_bins_standard

    abort = Wakeup()

    def body(w):
        target(bins, claims, Worker(w, abort=abort))

    assert run_with_timeout(lambda: run_workers(body, num_threads, "phase2", abort.stop)) == []
    return bins


def run_helper(bins, claims, worker=None):
    """Run one phase-2 helper over the assignment's block to its exit.

    Returns the helper's count of helped dependencies.
    """
    worker = Worker(0) if worker is None else worker
    assign_bins_helper(bins, claims, worker)
    return worker.helped


# --- bin computation ----------------------------------------------------------


def test_calculate_bin_empty_conflicts():
    table = table_over([("A", "B")])
    table.publish(0, ())
    assert calculate_bin(0, BinAssignment(table), Worker(0)) == 0


def test_calculate_bin_single_dependency():
    table = table_over([("A", "B"), ("B", "C")])
    table.publish(1, (0,))
    bins = BinAssignment(table)
    bins.publish(0, 2)
    assert calculate_bin(1, bins, Worker(0)) == 3


def test_calculate_bin_max_of_dependencies():
    table = table_over([("A", "B"), ("C", "D"), ("A", "C")])
    table.publish(2, (0, 1))
    bins = BinAssignment(table)
    bins.publish(0, 0)
    bins.publish(1, 4)
    assert calculate_bin(2, bins, Worker(0)) == 5


def test_calculate_bin_requires_published_slot():
    with pytest.raises(RuntimeError):
        calculate_bin(0, BinAssignment(table_over([("A", "B")])), Worker(0))


def test_calculate_bin_abort_breaks_the_wait():
    table = table_over([("A", "B"), ("B", "C")])
    table.publish(1, (0,))
    bins = BinAssignment(table)  # dependency 0 never assigned
    late = Worker(0, deadline=time.perf_counter() - 1)
    with pytest.raises(Aborted):  # a passed deadline ends the wait
        calculate_bin(1, bins, late)
    assert not late.abort.stopped  # a worker raises; the runner stops the run
    assert run_workers(lambda w: calculate_bin(1, bins, late), 1, "t", late.abort.stop) == []
    assert late.abort.stopped
    # so does the stop a peer made, without a deadline; a lost stop fails instead of hanging
    raised = run_with_timeout(lambda: calculate_bin(1, bins, Worker(1, abort=late.abort)), 5)
    assert len(raised) == 1 and isinstance(raised[0], Aborted)


def sleep_in_calculate_bin(wake):
    """Slot 1 of a two-transfer block sleeps on its unassigned dependency 0
    with no deadline until ``wake(bins, wakeup)``; returns what the sleeper
    returned or raised."""
    table = table_over([("A", "B"), ("B", "C")])
    table.publish(0, ())
    table.publish(1, (0,))
    bins = BinAssignment(table)
    wakeup = Wakeup()
    got = []

    def sleep():
        try:
            got.append(calculate_bin(1, bins, Worker(0, abort=wakeup)))
        except Aborted as exc:
            got.append(exc)

    sleeper = threading.Thread(target=sleep, daemon=True)

    def wake_once_asleep():
        sleeper.start()  # the worker's deadline is infinite: only a wake or a stop ends it
        limit = time.perf_counter() + 5
        while wakeup.sleepers != 1:
            assert time.perf_counter() < limit, "calculate_bin never slept"
        wake(bins, wakeup)
        sleeper.join()

    assert run_with_timeout(wake_once_asleep, timeout=5) == []
    assert wakeup.sleepers == 0
    return got


def test_a_publish_wakes_a_phase2_sleeper():
    # a peer runs phase 2 on slot 0 alone: its publish, not the test, wakes the sleeper
    got = sleep_in_calculate_bin(
        lambda bins, wakeup: assign_bins_standard(bins, iter([0, 2]), Worker(1, abort=wakeup))
    )
    assert got == [1]


def test_a_peer_stop_ends_a_phase2_sleep_without_a_deadline():
    got = sleep_in_calculate_bin(lambda bins, wakeup: wakeup.stop())
    assert len(got) == 1 and isinstance(got[0], Aborted)


def test_helper_resolves_an_unassigned_dependency():
    table = table_over([("A", "B"), ("B", "C")])
    table.publish(0, ())
    table.publish(1, (0,))
    bins = BinAssignment(table)
    claims = itertools.count(1)
    helped = run_helper(bins, claims)
    assert bins.initial_bin_list() == [0, 1]
    assert helped == 1
    assert next(claims) == 2  # one claim did both slots


def test_helper_empty_conflicts():
    table = table_over([("A", "B")])
    table.publish(0, ())
    bins = BinAssignment(table)
    helped = run_helper(bins, itertools.count(0))
    assert bins.initial_bin_list() == [0]
    assert helped == 0


def test_helper_equal_dependencies():
    table = published_table(wallet_block([("A", "B"), ("C", "D"), ("A", "C")]))
    assert set(table.frontier(2)) == {0, 1}
    bins = BinAssignment(table)
    bins.publish(0, 1)
    bins.publish(1, 1)
    helped = run_helper(bins, itertools.count(2))
    assert bins.bin_of(2) == 2
    assert helped == 0


def test_helper_waits_only_on_the_frontier():
    # 0 lies in slot 2's lower set but not in its frontier: the helper must
    # not resolve it on slot 2's behalf, since 1 already bounds 2's bin
    block = wallet_block([("X", "Y")] * 3)
    table = published_table(block)
    assert table.frontier(2) == (1,)
    assert table.index.lower_conflicts(block[2]) == frozenset({0, 1})
    bins = BinAssignment(table)
    bins.publish(1, 3)
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
    # phase 2 reads only published frontiers: slot 1's is missing
    table = table_over([("A", "B"), ("B", "C")])
    table.publish(0, ())
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
        (build_conflict_sets_standard, assign_bins_standard),
        (build_conflict_sets_helper, assign_bins_helper),
    ],
    ids=["standard", "helper"],
)
def test_each_slot_visits_its_two_sites_once_in_order(phase1, phase2):
    n = 5
    block = chain_block(n)
    table = ConflictTable(block)
    bins = BinAssignment(table)
    sites = []
    phase1(table, itertools.count(), StepWorker(sites.append))
    assert sites == [Site.PHASE1_POST_CLAIM, Site.PHASE1_PRE_PUBLISH] * n
    sites.clear()
    phase2(bins, itertools.count(), StepWorker(sites.append))
    assert sites == [Site.PHASE2_POST_CLAIM, Site.PHASE2_PRE_CAS] * n
    assert bins.initial_bin_list() == bin_oracle(block)


# --- a helper's first pass and its sweep -----------------------------------------

# Frontiers (), (), (0,), (): no later slot waits on slot 1, so only a sweep reaches it.
SWEEP_PAIRS = [("A", "B"), ("C", "D"), ("A", "E"), ("F", "G")]


def phase1_helper(block):
    """Phase 1's helper, the array it fills, its two sites and the values it must publish."""
    table = ConflictTable(block)
    sites = (Site.PHASE1_POST_CLAIM, Site.PHASE1_PRE_PUBLISH)
    return build_conflict_sets_helper, table, sites, table.index.frontiers


def phase2_helper(block):
    bins = BinAssignment(published_table(block))
    return assign_bins_helper, bins, (Site.PHASE2_POST_CLAIM, Site.PHASE2_PRE_CAS), bin_oracle(block)


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
    helper, array, sites, expected = helper_phase(block)
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
        assert not array.try_publish(1, expected[1])
    assert array.snapshot() == list(expected)
    assert worker.cas_retries == 0


@helper_phases
def test_a_sweep_that_peers_finish_first_ends_the_phase(helper_phase, monkeypatch):
    # A peer claims slot 1 and stops; the helper passes n and starts its scan.
    # Between its publish-count test and the scan's first slot, a peer
    # publishes slot 1: the scan comes up empty, and the helper must leave
    # the phase without an error or another claim.
    block = wallet_block(SWEEP_PAIRS)
    helper, array, sites, expected = helper_phase(block)
    claims = itertools.count()
    peer_claims = []
    visits = []
    unpublished = PublishOnceArray.unpublished

    def scan_that_a_peer_finishes_first(arr):
        def scan():  # runs at the scan's first step, after the helper's test
            for i in list(unpublished(arr)):
                assert arr.try_publish(i, expected[i])
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
    assert array.snapshot() == list(expected)
    assert worker.cas_retries == 0


@helper_phases
def test_a_first_pass_claim_a_peer_publishes_first_has_one_winner(helper_phase):
    # The helper does not re-read its claimed slot before the CAS: a peer that
    # publishes slot 2 at the helper's claim site for it wins, and the helper
    # tries the CAS, loses it and counts one retry.
    block = wallet_block(SWEEP_PAIRS)
    helper, array, sites, expected = helper_phase(block)
    claims = itertools.count()
    peer_won = []
    visits = []

    def peer_publishes_slot_2(site):
        visits.append(site)
        if len(visits) == 5:  # slots 0 and 1 took two sites each: slot 2's claim site
            assert site is sites[0]
            peer_won.append(array.try_publish(2, expected[2]))

    worker = StepWorker(peer_publishes_slot_2)
    helper(array, claims, worker)
    assert peer_won == [True]
    assert worker.cas_retries == 1
    assert visits == list(sites) * len(block)
    assert array.snapshot() == list(expected)
    assert next(claims) == len(block)  # no claim past n: every slot was published


@pytest.mark.parametrize(
    "procedure",
    [
        build_conflict_sets_standard,
        build_conflict_sets_helper,
        assign_bins_standard,
        assign_bins_helper,
        calculate_bin,
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
    # a predicate closure in calculate_bin itself turns its arguments into
    # cells at every call: on CPython 3.11 that took an empty frontier's call
    # from about 300 to 500 ns (timeit, one CPU), paid for every slot
    assert calculate_bin.__code__.co_cellvars == ()


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
    bins = BinAssignment(ConflictTable(disjoint_block(1)))
    assert bins.try_publish(0, 2)
    assert not bins.try_publish(0, 5)
    assert bins.bin_of(0) == 2
    assert bins.published() == 1


def test_assignment_publish_once_accounting():
    block = random_wallet_block(seed=43, max_n=150)
    bins = run_assignment(block, num_threads=8, use_helpers=True)
    assert bins.published() == len(block)


def test_unassigned_sentinel_distinct_from_bin_zero():
    bins = BinAssignment(ConflictTable(disjoint_block(2)))
    assert bins.bin_of(0) == UNASSIGNED
    bins.publish(0, 0)
    assert bins.bin_of(0) == 0
    assert bins.bin_of(1) == UNASSIGNED


def test_helper_waits_for_a_slot_a_peer_claimed_and_skipped():
    # A peer claims slot 1 each time round and never fills it, while this
    # worker only ever claims the filled slot 0. The worker must not leave
    # the phase on its run of filled claims: it has to fill slot 1 itself.
    block = disjoint_block(2)
    bins = BinAssignment(published_table(block))
    claims = itertools.count()
    assert bins.try_publish(0, 0)
    peer_claims = []

    def peer_claims_next(site):
        if site is Site.PHASE2_POST_CLAIM and len(peer_claims) < 2:
            peer_claims.append(next(claims) % 2)

    assign_bins_helper(bins, claims, StepWorker(peer_claims_next))
    assert peer_claims == [1, 1]
    assert bins.initial_bin_list() == [0, 0]
