import contextlib
import copy
import dataclasses
import pickle
import sys
import threading
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from _helpers import (
    PEER_WORK,
    assert_pool_parked,
    chain_block,
    clique_block,
    disjoint_block,
    frontier_oracle,
    pool_threads,
    publish,
    random_wallet_block,
    run_with_timeout,
    wallet_block,
    wallet_blocks,
)
import binsched.executor
from binsched import (
    BinAssignment,
    ExecutionPlan,
    Transaction,
    Variant,
    WalletState,
    build_execution_plan,
    execute_plan,
    execute_serial,
    schedule,
)
from binsched.conflict import PublisherTable


def assignment_of(bins_by_txn, table=None):
    """An assignment publishing the given bins (None leaves a slot unset) over
    ``table``, by default a disjoint block's with every slot published by worker 0."""
    if table is None:
        table = PublisherTable(disjoint_block(len(bins_by_txn)))
        for i in range(table.n):
            publish(table, i, 0)
    bins = BinAssignment(table)
    for i, b in enumerate(bins_by_txn):
        if b is not None:
            publish(bins, i, b)
    return bins


# --- plan construction -----------------------------------------------------------


def test_build_plan_worked_example():
    plan = build_execution_plan(assignment_of([0, 0, 1]))
    assert plan.bin_matrix == ((0, 1), (2,))
    assert plan.num_bins == 2


def test_build_plan_empty_assignment():
    plan = build_execution_plan(assignment_of([]))
    assert plan.num_bins == 0
    assert plan.bin_matrix == ()


def test_build_plan_sorts_rows():
    plan = build_execution_plan(assignment_of([0, 0, 0]))
    assert plan.bin_matrix == ((0, 1, 2),)


def test_build_plan_rejects_incomplete_assignment():
    with pytest.raises(ValueError):
        build_execution_plan(assignment_of([0, None, 1]))


def test_scheduled_plan_waits_are_the_frontiers():
    block = random_wallet_block(seed=305, max_n=200)
    result = schedule(block, Variant.STANDARD, num_threads=2)
    assert [set(w) for w in result.plan.waits] == frontier_oracle(block)


@pytest.mark.parametrize("variant", list(Variant))
def test_the_plan_rebuilt_from_the_assignment_is_the_scheduled_plan(variant):
    block = random_wallet_block(seed=306, max_n=200)
    result = schedule(block, variant, num_threads=2)
    assert build_execution_plan(result.assignment) == result.plan


def test_plans_stay_frozen_and_hashable():
    table = PublisherTable(wallet_block([("A", "B")] * 2))
    publish(table, 0, 0)
    publish(table, 1, 0)
    plan = build_execution_plan(assignment_of([0, 1], table))
    assert plan.waits == ((), (0,))
    assert hash(plan) == hash(ExecutionPlan(plan.bin_matrix, plan.waits))
    empty = build_execution_plan(assignment_of([]))
    assert empty == ExecutionPlan(bin_matrix=(), waits=())
    assert hash(empty) == hash(ExecutionPlan(bin_matrix=(), waits=()))
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.waits = ()


# --- serial execution -----------------------------------------------------------------


def test_serial_debit_credit():
    block = wallet_block([("A", "B", 10)])
    final = execute_serial(block, WalletState({"A": 10, "B": 0}))
    assert final.balances == {"A": 0, "B": 10}


def test_serial_empty_block():
    initial = WalletState({"A": 5})
    assert execute_serial([], initial).balances == {"A": 5}


def test_serial_inverse_pair():
    block = wallet_block([("A", "B", 5), ("B", "A", 5)])
    final = execute_serial(block, WalletState({"A": 10, "B": 10}))
    assert final.balances == {"A": 10, "B": 10}


# --- parallel execution ----------------------------------------------------------------


@contextlib.contextmanager
def traced_applies():
    """Record ("start" | "end", id) around every ``_apply``, in the order they happen."""
    real_apply = binsched.executor._apply
    events = []

    def traced_apply(balances, txn):
        events.append(("start", txn.id))
        real_apply(balances, txn)
        events.append(("end", txn.id))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(binsched.executor, "_apply", traced_apply)
        yield events


@contextlib.contextmanager
def fast_thread_switching():
    """Switch threads every microsecond, so workers interleave within a transfer."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def assert_each_transfer_started_after_its_frontier_ended(events, block):
    at = {event: k for k, event in enumerate(events)}
    for txn_id, frontier in enumerate(frontier_oracle(block)):
        for dep in frontier:
            assert at[("end", dep)] < at[("start", txn_id)], (txn_id, dep)


def test_conflicting_pair_lands_in_order():
    block = wallet_block([("A", "B", 10), ("B", "A", 10)])
    result = schedule(block, Variant.LOCKFREE, num_threads=2)
    assert result.plan.num_bins == 2  # strict ordering through separate bins
    final = execute_plan(result.plan, block, WalletState({"A": 10, "B": 10}), num_threads=2)
    assert final.balances == {"A": 10, "B": 10}


@pytest.mark.parametrize("num_threads", [1, 2, 4, 8])
def test_disjoint_block_any_thread_count(num_threads):
    block = disjoint_block(40)
    result = schedule(block, Variant.STANDARD, num_threads=4)
    final = execute_plan(result.plan, block, WalletState(), num_threads=num_threads)
    assert final.balances == execute_serial(block, WalletState()).balances


def test_empty_plan_leaves_state_unchanged():
    state = WalletState({"Z": 3})
    final = execute_plan(build_execution_plan(assignment_of([])), [], state, num_threads=4)
    assert final.balances == {"Z": 3}
    assert final is not state


def test_plan_must_cover_the_block():
    block = wallet_block([("A", "B"), ("C", "D")])
    plan = build_execution_plan(assignment_of([0]))
    with pytest.raises(ValueError):
        execute_plan(plan, block, WalletState(), num_threads=2)


@pytest.mark.parametrize("num_threads", [1, 2, 8])
def test_a_payloadless_transaction_is_rejected(num_threads):
    # transfers 0-9 and 11-19 form one clique with transaction 10, so peers sleep on it
    block = clique_block(20)
    block[10] = Transaction(id=10, read_set=frozenset({"X", "Y"}), write_set=frozenset({"X", "Y"}))
    plan = schedule(block, Variant.STANDARD, num_threads=2).plan
    raised = run_with_timeout(
        lambda: execute_plan(plan, block, WalletState(), num_threads, PEER_WORK)
    )
    assert [type(exc) for exc in raised] == [ValueError]
    assert "transaction 10 has no wallet payload" in str(raised[0])
    with pytest.raises(ValueError, match="transaction 10 has no wallet payload"):
        execute_serial(block, WalletState())


@pytest.mark.parametrize("num_threads", [None, 1, 2, 8], ids=["serial", "1", "2", "8"])
def test_an_account_opens_at_zero_on_its_first_touch(num_threads):
    block = wallet_block(
        [("zero", "new", 3), ("neg", "new", 4), ("fresh", "zero", 5), ("neg", "fresh", 1)]
    )
    initial = WalletState({"zero": 0, "neg": -5, "idle": 9})
    if num_threads is None:
        final = execute_serial(block, initial)
    else:
        plan = schedule(block, Variant.STANDARD, num_threads=2).plan
        final = execute_plan(plan, block, initial, num_threads, PEER_WORK)
    assert final.balances == {"zero": 2, "neg": -10, "new": 7, "fresh": -4, "idle": 9}
    assert initial.balances == {"zero": 0, "neg": -5, "idle": 9}


def test_zero_threads_rejected():
    with pytest.raises(ValueError):
        execute_plan(build_execution_plan(assignment_of([])), [], WalletState(), num_threads=0)


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("num_threads", [2, 8])
def test_parallel_equals_serial(variant, num_threads):
    block = random_wallet_block(seed=303, max_n=300)
    result = schedule(block, variant, num_threads=4)
    final = execute_plan(result.plan, block, WalletState(), num_threads, PEER_WORK)
    serial = execute_serial(block, WalletState())
    assert final.balances == serial.balances


def test_balance_sum_is_conserved():
    block = random_wallet_block(seed=304, max_n=200)
    initial = WalletState({"A": 100})
    result = schedule(block, Variant.ASSISTED, num_threads=4)
    final = execute_plan(result.plan, block, initial, num_threads=4)
    assert final.total() == 100


@pytest.mark.parametrize(
    "per_txn_work", [-0.001, float("nan"), float("inf")], ids=["negative", "nan", "inf"]
)
def test_a_negative_or_nan_simulated_work_is_rejected(per_txn_work):
    block = wallet_block([("A", "B", 1)])
    plan = schedule(block, Variant.LOCKFREE, num_threads=1).plan
    with pytest.raises(ValueError, match="per_txn_work must be finite and >= 0"):
        execute_plan(plan, block, WalletState(), num_threads=2, per_txn_work=per_txn_work)
    with pytest.raises(ValueError, match="per_txn_work must be finite and >= 0"):
        execute_serial(block, WalletState(), per_txn_work)


@pytest.mark.parametrize("num_threads", [2, 8])
def test_replay_starts_peers_only_with_work(num_threads, worker_threads):
    block = random_wallet_block(seed=310, max_n=200)
    plan = schedule(block, Variant.STANDARD, num_threads=1).plan
    serial = execute_serial(block, WalletState()).balances
    worker_threads.clear()
    assert execute_plan(plan, block, WalletState(), num_threads).balances == serial
    assert worker_threads == []  # no run: the pool was handed no job
    assert execute_plan(plan, block, WalletState(), num_threads, PEER_WORK).balances == serial
    [ran_on] = worker_threads
    assert sorted(ran_on) == list(range(num_threads))
    assert ran_on[num_threads - 1] is threading.current_thread()
    peers = {ran_on[w] for w in range(num_threads - 1)}
    assert len(peers) == num_threads - 1 and peers <= pool_threads()
    assert_pool_parked()


def test_simulated_work_changes_time_not_state():
    block = wallet_block([("A", "B", 1), ("C", "D", 2)])
    result = schedule(block, Variant.LOCKFREE, num_threads=2)
    lazy = execute_plan(result.plan, block, WalletState(), num_threads=2, per_txn_work=0.002)
    fast = execute_plan(result.plan, block, WalletState(), num_threads=2)
    assert lazy.balances == fast.balances


def test_a_worker_error_stops_every_worker_and_is_raised(monkeypatch):
    # a clique: each transfer waits for the one before it
    block = clique_block(16)
    plan = schedule(block, Variant.STANDARD, num_threads=2).plan
    real_apply = binsched.executor._apply

    def failing_first_transfer(balances, txn):
        if txn.id == 0:
            time.sleep(0.05)  # peers claim transfers 1-3 and sleep behind this one
            raise RuntimeError("transfer 0 failed")
        real_apply(balances, txn)

    monkeypatch.setattr(binsched.executor, "_apply", failing_first_transfer)
    raised = run_with_timeout(lambda: execute_plan(plan, block, WalletState(), 4, PEER_WORK))
    assert [type(exc) for exc in raised] == [RuntimeError]
    assert [str(exc) for exc in raised] == ["transfer 0 failed"]
    assert pool_threads() == set()  # each peer stopped, parked, then closed by the guard


def test_a_transfer_waits_for_its_frontier_not_its_previous_bin(monkeypatch):
    # bins {0, 1} and {2}; transfer 2 conflicts only with transfer 1
    block = wallet_block([("A", "B"), ("C", "D"), ("D", "C")])
    plan = schedule(block, Variant.STANDARD, num_threads=2).plan
    assert plan.bin_matrix == ((0, 1), (2,))
    assert plan.waits[2] == (1,)
    real_apply = binsched.executor._apply
    transfer_2_applied = threading.Event()
    overlapped = []

    def slow_first_transfer(balances, txn):
        if txn.id == 0:  # runs until transfer 2 is applied, or gives up
            overlapped.append(transfer_2_applied.wait(timeout=5))
        real_apply(balances, txn)
        if txn.id == 2:
            transfer_2_applied.set()

    monkeypatch.setattr(binsched.executor, "_apply", slow_first_transfer)
    final = execute_plan(plan, block, WalletState(), num_threads=2, per_txn_work=PEER_WORK)
    assert overlapped == [True]
    assert final.balances == execute_serial(block, WalletState()).balances


@pytest.mark.parametrize("num_threads", [2, 8])
def test_every_transfer_starts_after_its_frontier_is_applied(num_threads):
    for seed in range(20):
        block = random_wallet_block(seed=700 + seed, max_n=120)
        plan = schedule(block, Variant.STANDARD, num_threads=2).plan
        with fast_thread_switching(), traced_applies() as events:
            final = execute_plan(plan, block, WalletState(), num_threads, per_txn_work=1e-5)
        assert_each_transfer_started_after_its_frontier_ended(events, block)
        assert final.balances == execute_serial(block, WalletState()).balances


def test_an_error_wakes_a_peer_sleeping_on_the_failed_transfer(monkeypatch):
    # transfer 1 waits for transfer 0, which fails while the peer sleeps on it
    block = wallet_block([("A", "B"), ("B", "C")])
    plan = schedule(block, Variant.STANDARD, num_threads=2).plan
    assert plan.waits[1] == (0,)
    real_apply = binsched.executor._apply
    applied = []

    def failing_first_transfer(balances, txn):
        if txn.id == 0:
            time.sleep(0.05)  # the peer claims transfer 1 and sleeps on this one
            raise RuntimeError("transfer 0 failed")
        real_apply(balances, txn)
        applied.append(txn.id)

    monkeypatch.setattr(binsched.executor, "_apply", failing_first_transfer)
    raised = run_with_timeout(lambda: execute_plan(plan, block, WalletState(), 2, PEER_WORK))
    assert [str(exc) for exc in raised] == ["transfer 0 failed"]
    assert applied == []


def test_parallel_equals_serial_under_fast_thread_switching():
    for seed in range(20):
        block = random_wallet_block(seed=900 + seed, max_n=150)
        plan = schedule(block, Variant.STANDARD, num_threads=2).plan
        with fast_thread_switching():
            final = execute_plan(plan, block, WalletState(), num_threads=8, per_txn_work=PEER_WORK)
        assert final.balances == execute_serial(block, WalletState()).balances


@settings(max_examples=15, deadline=None)
@given(
    wallet_blocks(max_n=80),
    st.sampled_from([1, 2, 4]),
    st.sampled_from(list(Variant)),
    st.sampled_from([0.0, 1e-5]),
)
# every transfer waits on the one before it, and peers sleep their work side by side
@example(chain_block(60), 4, Variant.STANDARD, 1e-5)
def test_determinism_property(block, num_threads, variant, per_txn_work):
    # transfers commute, so only the apply order shows a replay that skips a wait
    result = schedule(block, variant, num_threads=2)
    with fast_thread_switching(), traced_applies() as events:
        final = execute_plan(result.plan, block, WalletState(), num_threads, per_txn_work)
    assert_each_transfer_started_after_its_frontier_ended(events, block)
    serial = execute_serial(block, WalletState())
    assert final.balances == serial.balances
    assert final.total() == 0


# --- built plans --------------------------------------------------------------------


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
def test_a_built_plans_waits_are_the_index_frontiers(variant):
    block = random_wallet_block(seed=307, max_n=200)
    result = schedule(block, variant, num_threads=2)
    frontiers = result.assignment.table.index.frontiers
    assert result.plan.waits == tuple(frontiers)
    assert all(w is f for w, f in zip(result.plan.waits, frontiers))


def test_a_built_plan_run_against_a_block_of_another_length_is_rejected():
    block = random_wallet_block(seed=308, max_n=200)
    plan = schedule(block, Variant.STANDARD, num_threads=2).plan
    for other in (block[:-1], block + wallet_block([("A", "B")])):
        for num_threads in (1, 2):
            with pytest.raises(ValueError, match="plan is for a block of"):
                execute_plan(plan, other, WalletState(), num_threads=num_threads)


# plans for disjoint_block(3) that build_execution_plan did not make
UNBUILT_PLANS = {
    "id_listed_twice": ExecutionPlan(((0,), (0, 1, 2)), ((), (), ())),
    "waits_short_of_the_block": ExecutionPlan(((0, 1, 2),), ((), ())),
    "wait_7": ExecutionPlan(((0, 1, 2),), ((), (), (7,))),
    "wait_3": ExecutionPlan(((0, 1, 2),), ((), (), (3,))),
    "wait_minus_1": ExecutionPlan(((0, 1, 2),), ((), (), (-1,))),
    "wait_on_a_later_position": ExecutionPlan(((0,), (1,), (2,)), ((1,), (0,), ())),
    "replaced_built_plan": dataclasses.replace(build_execution_plan(assignment_of([0, 0, 0]))),
}


@pytest.mark.parametrize("num_threads", [1, 2])
@pytest.mark.parametrize("case", list(UNBUILT_PLANS))
def test_a_plan_build_execution_plan_did_not_make_is_rejected(case, num_threads):
    plan = UNBUILT_PLANS[case]
    with traced_applies() as events:
        raised = run_with_timeout(
            lambda: execute_plan(plan, disjoint_block(3), WalletState(), num_threads)
        )
    assert [type(exc) for exc in raised] == [ValueError]
    assert "only plans that build_execution_plan made" in str(raised[0])
    assert events == []


@pytest.mark.parametrize(
    "copy_plan",
    [copy.copy, copy.deepcopy, lambda plan: pickle.loads(pickle.dumps(plan))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_a_copied_built_plan_runs(copy_plan):
    block = random_wallet_block(seed=309, max_n=200)
    plan = schedule(block, Variant.STANDARD, num_threads=2).plan
    serial = execute_serial(block, WalletState()).balances
    empty = build_execution_plan(assignment_of([]))
    assert copy_plan(plan) is not plan and copy_plan(empty) is not empty
    for num_threads in (1, 2):
        final = execute_plan(copy_plan(plan), block, WalletState(), num_threads)
        assert final.balances == serial
        final = execute_plan(copy_plan(empty), [], WalletState({"Z": 3}), num_threads)
        assert final.balances == {"Z": 3}
