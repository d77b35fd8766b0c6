import itertools

import pytest
from hypothesis import given, settings

from _helpers import (
    StepWorker,
    access_set_blocks,
    chain_block,
    clique_block,
    frontier_oracle,
    random_wallet_block,
    run_with_timeout,
    try_publish,
    value_of,
    wallet_block,
)
from binsched import (
    ConflictIndex,
    FaultPlan,
    Site,
    Transaction,
    TransferPayload,
    Variant,
    WorkloadSpec,
    bin_oracle,
    check_conflicts,
    conflict_sets_oracle,
    generate_workload,
    make_fault_plan,
    make_transaction,
    schedule,
)
from binsched.atomics import UNASSIGNED, Wakeup
from binsched.conflict import PublisherTable, claim_slots_helper, claim_slots_standard
from binsched.faults import Worker, WorkerCrashed, run_workers


def txn(i, reads, writes):
    return Transaction(id=i, read_set=frozenset(reads), write_set=frozenset(writes))


def published_conflicts(txns, num_threads, use_helpers, faults=None):
    """The publisher table a full scheduling run published."""
    variant = Variant.LOCKFREE if use_helpers else Variant.STANDARD
    return schedule(txns, variant, num_threads, faults=faults).assignment.table


def frontiers_of(table):
    """What phase 2 reads: each transaction's frontier in the table's index, as a set."""
    return [set(f) for f in table.index.frontiers]


def assert_frontiers_match_oracle(table, txns):
    """The table's index lists exactly the oracle's frontiers, each id once."""
    assert frontiers_of(table) == frontier_oracle(txns)
    assert all(len(f) == len(set(f)) for f in table.index.frontiers)


def assert_slots_hold_worker_ids(table, workers):
    """Every slot is published and holds the id of one of ``workers``."""
    assert all(w in workers for w in table.snapshot())


def run_standard_phase1(txns, num_threads, faults):
    """Phase 1 alone, for crash plans that ``schedule`` rejects on STANDARD."""
    table = PublisherTable(txns)
    claims = itertools.count()

    abort = Wakeup()

    def body(worker_id):  # the runner ends a crashed worker silently
        claim_slots_standard(table, claims, Worker(worker_id, faults, abort))

    assert run_with_timeout(lambda: run_workers(body, num_threads, abort.stop)) == []
    return table


# --- the pairwise predicate -------------------------------------------------


def test_disjoint_transfers_do_not_conflict():
    a = make_transaction(0, TransferPayload("A", "B", 10))
    b = make_transaction(1, TransferPayload("C", "D", 10))
    assert not check_conflicts(a, b)


def test_shared_addresses_conflict():
    a = make_transaction(0, TransferPayload("A", "B", 10))
    b = make_transaction(1, TransferPayload("B", "A", 10))
    assert check_conflicts(a, b)


def test_read_read_overlap_is_not_a_conflict():
    a = txn(0, {"X"}, set())
    b = txn(1, {"X"}, set())
    assert not check_conflicts(a, b)


def test_self_overlap_on_write_set():
    a = make_transaction(0, TransferPayload("A", "B", 1))
    assert check_conflicts(a, a)


def test_each_conflict_condition_fires():
    writer = txn(0, set(), {"X"})
    reader = txn(1, {"X"}, set())
    other_writer = txn(2, set(), {"X"})
    assert check_conflicts(writer, other_writer)  # write/write
    assert check_conflicts(reader, writer)  # read/write
    assert check_conflicts(writer, reader)  # write/read


@settings(max_examples=100)
@given(access_set_blocks(max_n=6))
def test_check_conflicts_is_symmetric(txns):
    for a in txns:
        for b in txns:
            assert check_conflicts(a, b) == check_conflicts(b, a)


# --- index vs oracle ---------------------------------------------------------


@settings(max_examples=100)
@given(access_set_blocks(max_n=10))
def test_index_matches_pairwise_definition(txns):
    index = ConflictIndex(txns)
    expected = conflict_sets_oracle(txns)
    for t in txns:
        assert index.lower_conflicts(t) == expected[t.id]


def test_the_index_rejects_ids_that_are_not_their_positions():
    block = generate_workload(WorkloadSpec(40, 10, 100, seed=1))
    with pytest.raises(ValueError, match="ids must equal their positions: id 10 at position 0"):
        ConflictIndex(block[10:20])
    with pytest.raises(ValueError, match="id 39 at position 0"):
        ConflictIndex(list(reversed(block)))


@settings(max_examples=200)
@given(access_set_blocks(max_n=10))
def test_frontier_bounds_the_bin_like_the_full_set(txns):
    index = ConflictIndex(txns)
    lower = conflict_sets_oracle(txns)
    bins = bin_oracle(txns)
    for t in txns:
        frontier = index.frontiers[t.id]
        assert len(frontier) == len(set(frontier))
        assert set(frontier) <= lower[t.id]
        assert 1 + max((bins[j] for j in frontier), default=-1) == bins[t.id]


@settings(max_examples=200)
@given(access_set_blocks(max_n=10))
def test_index_frontier_matches_frontier_oracle(txns):
    index = ConflictIndex(txns)
    expected = frontier_oracle(txns)
    for t in txns:
        frontier = index.frontiers[t.id]
        assert len(frontier) == len(set(frontier))
        assert set(frontier) == expected[t.id]


def test_frontier_keeps_the_readers_since_the_last_writer():
    block = [
        txn(0, set(), {"X"}),
        txn(1, {"X"}, set()),
        txn(2, set(), {"X"}),
        txn(3, {"X"}, set()),
        txn(4, {"X"}, set()),
        txn(5, set(), {"X"}),
        txn(6, {"X"}, set()),
    ]
    index = ConflictIndex(block)
    assert sorted(index.frontiers[5]) == [2, 3, 4]
    assert index.frontiers[6] == (5,)
    assert index.frontiers[0] == ()


def reader_run_block():
    """Long runs on one address H: a writer, 200 read-only readers, a write-only
    writer, 100 more readers, a read-write transaction and a last reader.
    Each reader also writes its own record, so its H access alone is read-only."""
    block = [txn(0, {"H"}, {"H"})]
    block += [txn(i, {"H"}, {f"r{i}"}) for i in range(1, 201)]
    block.append(txn(201, set(), {"H"}))
    block += [txn(i, {"H"}, {f"r{i}"}) for i in range(202, 302)]
    block.append(txn(302, {"H"}, {"H"}))
    block.append(txn(303, {"H"}, {"r303"}))
    return block


def test_reader_runs_match_the_oracles():
    block = reader_run_block()
    index = ConflictIndex(block)
    frontiers = frontier_oracle(block)
    lower = conflict_sets_oracle(block)
    for t in block:
        assert set(index.frontiers[t.id]) == frontiers[t.id]
        assert index.lower_conflicts(t) == lower[t.id]
    assert set(index.frontiers[201]) == set(range(201))
    assert set(index.frontiers[302]) == set(range(201, 302))


def test_a_read_only_access_has_only_its_last_writer_as_frontier():
    block = reader_run_block()
    index = ConflictIndex(block)
    last_writer = 0
    for t in block:
        if "H" in t.write_set:
            last_writer = t.id
        else:
            assert index.frontiers[t.id] == (last_writer,)


def assert_index_matches_oracles(block):
    """The index's frontiers, each id once, and lower sets equal both serial
    oracles' on every transaction."""
    index = ConflictIndex(block)
    frontiers = frontier_oracle(block)
    lower = conflict_sets_oracle(block)
    for t in block:
        frontier = index.frontiers[t.id]
        assert len(frontier) == len(set(frontier))
        assert set(frontier) == frontiers[t.id]
        assert index.lower_conflicts(t) == lower[t.id]
    return index


def test_read_only_walk_reaches_a_writer_that_was_the_first_accessor():
    # T0 writes X first; T3 reads X after two writers and conflicts with both
    block = [
        txn(0, set(), {"X"}),
        txn(1, {"X"}, {"a"}),
        txn(2, {"X"}, {"X"}),
        txn(3, {"X"}, {"b"}),
    ]
    index = assert_index_matches_oracles(block)
    assert index.lower_conflicts(block[3]) == {0, 2}
    assert index.lower_conflicts(block[1]) == {0}
    assert index.frontiers[0] == ()


def test_read_only_first_accesses_then_a_writer():
    block = [
        txn(0, {"X"}, set()),
        txn(1, {"Y"}, set()),
        txn(2, {"Y"}, set()),
        txn(3, set(), {"X"}),
        txn(4, set(), {"Y"}),
        txn(5, {"X", "Y"}, set()),
    ]
    index = assert_index_matches_oracles(block)
    assert index.frontiers[3] == (0,)
    assert sorted(index.frontiers[4]) == [1, 2]
    assert index.lower_conflicts(block[5]) == {3, 4}
    assert all(index.frontiers[t.id] == () for t in block[:3])


def test_an_address_touched_once_has_no_conflicts():
    block = [
        txn(0, set(), {"A"}),
        txn(1, {"B"}, set()),
        txn(2, {"C"}, {"C"}),
        txn(3, {"A"}, {"D"}),
    ]
    index = assert_index_matches_oracles(block)
    for t in block[:3]:
        assert index.frontiers[t.id] == () and index.lower_conflicts(t) == frozenset()
    assert index.frontiers[3] == (0,)


def test_a_conflict_free_block_lists_no_frontier_ids():
    block = generate_workload(
        WorkloadSpec(n_txns=300, n_accounts=100, dependency_pct=0, seed=3)
    )
    index = assert_index_matches_oracles(block)
    assert all(ids == () for ids in index.frontiers)


def test_a_clique_lists_each_repeated_writer_once():
    # every transfer writes X and Y, so each lists its predecessor twice
    block = clique_block(6)
    index = assert_index_matches_oracles(block)
    assert index.frontiers == [()] + [(i - 1,) for i in range(1, 6)]


@pytest.mark.parametrize("variant", list(Variant))
def test_scheduled_reader_runs_match_the_oracles(variant):
    block = reader_run_block()
    result = schedule(block, variant, num_threads=4)
    assert result.assignment.initial_bin_list() == bin_oracle(block)
    assert_frontiers_match_oracle(result.assignment.table, block)
    assert_slots_hold_worker_ids(result.assignment.table, range(4))


def test_oracle_on_worked_example():
    block = wallet_block([("A", "B"), ("C", "D"), ("B", "E")])
    assert conflict_sets_oracle(block) == [frozenset(), frozenset(), frozenset({0})]


# --- the concurrent procedures ------------------------------------------------


@pytest.mark.parametrize("use_helpers", [False, True])
def test_worked_example_table(use_helpers):
    block = wallet_block([("A", "B"), ("C", "D"), ("B", "E")])
    table = published_conflicts(block, num_threads=4, use_helpers=use_helpers)
    assert frontiers_of(table) == [set(), set(), {0}]
    assert_slots_hold_worker_ids(table, range(4))


@pytest.mark.parametrize("use_helpers", [False, True])
def test_single_transaction(use_helpers):
    block = wallet_block([("A", "B")])
    table = published_conflicts(block, num_threads=2, use_helpers=use_helpers)
    assert frontiers_of(table) == [set()]
    assert_slots_hold_worker_ids(table, range(2))


@pytest.mark.parametrize("use_helpers", [False, True])
def test_write_write_pair(use_helpers):
    block = wallet_block([("A", "B"), ("A", "B")])
    table = published_conflicts(block, num_threads=3, use_helpers=use_helpers)
    assert frontiers_of(table) == [set(), {0}]
    assert_slots_hold_worker_ids(table, range(3))


def test_empty_block_returns_immediately():
    table = published_conflicts([], num_threads=4, use_helpers=True)
    assert table.snapshot() == []


@pytest.mark.parametrize("num_threads", [1, 2, 4, 8])
@pytest.mark.parametrize("use_helpers", [False, True])
def test_schedule_independence_across_thread_counts(num_threads, use_helpers):
    block = random_wallet_block(seed=99, max_n=150)
    table = published_conflicts(block, num_threads, use_helpers)
    assert_frontiers_match_oracle(table, block)
    assert_slots_hold_worker_ids(table, range(num_threads))


@pytest.mark.parametrize("variant", list(Variant))
def test_schedule_never_builds_a_lower_set(variant, monkeypatch):
    def fail(self, txn):
        raise AssertionError(f"lower_conflicts called for T{txn.id}")

    monkeypatch.setattr(ConflictIndex, "lower_conflicts", fail)
    block = random_wallet_block(seed=21, max_n=150)
    result = schedule(block, variant, num_threads=2)
    assert result.assignment.initial_bin_list() == bin_oracle(block)
    assert_frontiers_match_oracle(result.assignment.table, block)
    assert_slots_hold_worker_ids(result.assignment.table, range(2))


def test_publish_once_accounting():
    block = random_wallet_block(seed=5, max_n=200)
    table = published_conflicts(block, num_threads=8, use_helpers=True)
    assert table.published() == len(block)
    assert_frontiers_match_oracle(table, block)
    assert_slots_hold_worker_ids(table, range(8))


@pytest.mark.parametrize("crash_point", [Site.PHASE1_POST_CLAIM, Site.PHASE1_PRE_PUBLISH])
@pytest.mark.parametrize("n_crashed", [1, 3, 7])
def test_helper_variant_survives_crashes(crash_point, n_crashed):
    # far more transactions than the 8 workers, half of them on a hot pool
    block = generate_workload(
        WorkloadSpec(n_txns=400, n_accounts=100, dependency_pct=50, seed=31)
    )
    assert any(frontier_oracle(block))
    faults = FaultPlan(
        crashed_workers=frozenset(range(n_crashed)),
        crash_point=crash_point,
    )
    table = published_conflicts(block, num_threads=8, use_helpers=True, faults=faults)
    assert_frontiers_match_oracle(table, block)
    assert table.published() == len(block)
    # a worker that crashes at a phase-1 site does so before its first publish
    assert_slots_hold_worker_ids(table, range(n_crashed, 8))


def test_standard_variant_leaves_crashed_slot_unset():
    # documented non-tolerance: the crashed worker's claim is never redone
    block = wallet_block([(f"u{i}", f"v{i}") for i in range(2000)])
    faults = FaultPlan(crashed_workers=frozenset({0}), crash_point=Site.PHASE1_POST_CLAIM)
    table = run_standard_phase1(block, num_threads=2, faults=faults)
    unset = [i for i, w in enumerate(table.snapshot()) if w is UNASSIGNED]
    assert len(unset) == 1
    assert all(value_of(table, i) == 1 for i in range(len(block)) if i not in unset)
    assert table.published() == len(block) - 1
    assert not table.is_complete()


def test_delayed_workers_change_nothing_but_time():
    block = random_wallet_block(seed=77, max_n=80)
    faults = make_fault_plan(4, delayed_pct=50, delay=0.002, seed=3)
    table = published_conflicts(block, num_threads=4, use_helpers=True, faults=faults)
    assert_frontiers_match_oracle(table, block)
    assert_slots_hold_worker_ids(table, range(4))


def test_direct_worker_invocation_single_thread():
    block = wallet_block([("A", "B"), ("B", "C"), ("C", "D")])
    table = PublisherTable(block)
    claim_slots_standard(table, itertools.count(), Worker(2))
    assert frontiers_of(table) == [set(), {0}, {1}]
    assert_frontiers_match_oracle(table, block)
    assert table.snapshot() == [2, 2, 2]

    table2 = PublisherTable(block)
    claim_slots_helper(table2, itertools.count(), Worker(2))
    assert table2.snapshot() == [2, 2, 2]
    assert table2.published() == len(block)


def test_published_slots_are_immutable_snapshots():
    block = wallet_block([("A", "B"), ("B", "A")])
    table = published_conflicts(block, num_threads=2, use_helpers=True)
    snapshot = table.index.lower_conflicts(block[1])
    assert snapshot == frozenset({0})
    assert isinstance(snapshot, frozenset)
    winner = value_of(table, 1)
    assert winner in (0, 1)
    # a second publish attempt must lose, even one boxing the winner's own id
    assert not try_publish(table, 1, winner)
    assert not try_publish(table, 1, 1 - winner)
    assert table.index.lower_conflicts(block[1]) == frozenset({0})
    assert value_of(table, 1) == winner


def test_stuck_counters_stay_within_bounds():
    """Six helpers on a small block: every slot published, the count stops at n."""
    block = random_wallet_block(seed=13, max_n=60)
    table = PublisherTable(block)
    claims = itertools.count()

    abort = Wakeup()

    def body(w):
        claim_slots_helper(table, claims, Worker(w, abort=abort))

    assert run_with_timeout(lambda: run_workers(body, 6, abort.stop)) == []
    assert table.is_complete()
    assert table.published() == len(block)
    assert_slots_hold_worker_ids(table, range(6))


def test_helper_waits_for_a_slot_a_peer_claimed_and_skipped():
    # A peer claims slot 1 each time round and never fills it, while this
    # worker only ever claims the filled slot 0. The worker must not leave
    # the phase on its run of filled claims: it has to fill slot 1 itself.
    block = wallet_block([("A", "B"), ("C", "D")])
    table = PublisherTable(block)
    claims = itertools.count()
    assert try_publish(table, 0, 1)  # peer 1's publish
    peer_claims = []

    def peer_claims_next(site):
        if site is Site.PHASE1_POST_CLAIM and len(peer_claims) < 2:
            peer_claims.append(next(claims) % 2)

    claim_slots_helper(table, claims, StepWorker(peer_claims_next))
    assert peer_claims == [1, 1]
    assert table.snapshot() == [1, 0]


# The survivor sleeps at each claim, so both crashed workers claim a slot
# and leave it to a sweep; one of the two is past slot 0, whose frontier is
# the shared ().
_CRASH_AND_SWEEP = FaultPlan(
    crashed_workers=frozenset({0, 1}),
    crash_point=Site.PHASE1_POST_CLAIM,
    delayed_workers=frozenset({2}),
    delay_per_claim=1e-4,
)


@pytest.mark.parametrize(
    "variant, num_threads, faults",
    [pytest.param(v, t, None, id=f"{v.value}-{t}") for v in Variant for t in (1, 2)]
    + [pytest.param(Variant.LOCKFREE, 3, _CRASH_AND_SWEEP, id="lockfree-3-crash")],
)
def test_every_phase1_slot_holds_the_index_frontier(monkeypatch, variant, num_threads, faults):
    # each slot, claimed or swept, holds the id of a live worker of the run,
    # and the frontier phase 2 and the plan read for it is the index's own
    # object, never a copy, whoever published the slot
    swept = []
    unpublished = PublisherTable.unpublished

    def recorded_sweep(table):
        for i in unpublished(table):
            swept.append(i)
            yield i

    monkeypatch.setattr(PublisherTable, "unpublished", recorded_sweep)
    block = clique_block(60)  # every frontier but the first is a tuple of its own
    result = schedule(block, variant, num_threads, faults)
    table = result.assignment.table
    frontiers = table.index.frontiers
    crashed = faults.crashed_workers if faults is not None else frozenset()
    assert_slots_hold_worker_ids(table, set(range(num_threads)) - crashed)
    assert all(result.plan.waits[i] is frontiers[i] for i in range(len(block)))
    if faults is not None:
        assert any(frontiers[i] for i in swept)  # a crashed worker's claim past slot 0


def test_a_stalled_claimer_loses_its_cas_to_the_sweeper_of_its_slot():
    table = PublisherTable(wallet_block([("A", "B"), ("C", "D")]))
    claims = itertools.count()
    sweeper = Worker(1)

    def stall_until_swept(site):
        # holding slot 0, the claimer lets a peer claim slot 1, pass n and sweep slot 0
        if site is Site.PHASE1_PRE_PUBLISH and not table.is_complete():
            claim_slots_helper(table, claims, sweeper)

    claimer = StepWorker(stall_until_swept)
    claim_slots_helper(table, claims, claimer)  # resumes, CASes slot 0 and loses
    assert (claimer.cas_retries, sweeper.cas_retries) == (1, 0)
    assert table.snapshot() == [1, 1]  # the sweeper's id in the slot it swept, too


@pytest.mark.parametrize("crash_point", [Site.PHASE1_POST_CLAIM, Site.PHASE1_PRE_PUBLISH])
def test_a_worker_that_crashes_in_phase1_publishes_into_no_slot(crash_point):
    # worker 0 crashes at its first claim, before any publish; worker 1 then
    # claims the rest, passes n and sweeps the abandoned slot 0
    table = PublisherTable(chain_block(5))
    claims = itertools.count()
    crashing = Worker(0, FaultPlan(crashed_workers=frozenset({0}), crash_point=crash_point))
    with pytest.raises(WorkerCrashed):
        claim_slots_helper(table, claims, crashing)
    assert table.published() == 0
    claim_slots_helper(table, claims, Worker(1))
    assert table.snapshot() == [1] * 5


def test_a_worker_that_crashes_between_the_phases_keeps_its_phase1_slots():
    # worker 0, the first started, claims before the calling thread runs; it
    # ends phase 1, then crashes, and its published slots stay its own
    block = chain_block(300)
    faults = FaultPlan(crashed_workers=frozenset({0}), crash_point=Site.INTER_PHASE)
    result = schedule(block, Variant.LOCKFREE, 2, faults)
    owners = result.assignment.table.snapshot()
    assert 0 in owners and set(owners) <= {0, 1}
    assert result.assignment.initial_bin_list() == bin_oracle(block)
