import dataclasses
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from _helpers import (
    disjoint_block,
    frontier_oracle,
    random_wallet_block,
    run_with_timeout,
    wallet_block,
    wallet_blocks,
)
import binsched.executor
from binsched import (
    EMPTY_PLAN,
    BinAssignment,
    ConflictTable,
    ExecutionPlan,
    Transaction,
    Variant,
    WalletState,
    build_execution_plan,
    execute_plan,
    execute_serial,
    schedule,
)


def assignment_of(bins_by_txn, table=None):
    """An assignment publishing the given bins (None leaves a slot unset) over
    ``table``, by default a disjoint block's with every frontier published."""
    if table is None:
        table = ConflictTable(disjoint_block(len(bins_by_txn)))
        for i in range(table.n):
            table.publish(i, ())
    bins = BinAssignment(table)
    for i, b in enumerate(bins_by_txn):
        if b is not None:
            bins.publish(i, b)
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


def test_build_plan_rejects_a_table_missing_a_frontier():
    block = wallet_block([("A", "B"), ("B", "C")])
    table = ConflictTable(block)
    table.publish(0, ())
    with pytest.raises(ValueError, match="lacks a frontier"):
        build_execution_plan(assignment_of([0, 1], table))


def test_plans_stay_frozen_and_hashable():
    table = ConflictTable(wallet_block([("A", "B")] * 2))
    table.publish(0, ())
    table.publish(1, (0,))
    plan = build_execution_plan(assignment_of([0, 1], table))
    assert plan.waits == ((), (0,))
    assert hash(plan) == hash(ExecutionPlan(plan.bin_matrix, plan.waits))
    assert hash(EMPTY_PLAN) == hash(ExecutionPlan(bin_matrix=(), waits=()))
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


def test_serial_materializes_unknown_accounts_at_zero():
    block = wallet_block([("A", "B", 7)])
    final = execute_serial(block, WalletState())
    assert final.balances == {"A": -7, "B": 7}


# --- parallel execution ----------------------------------------------------------------


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
    final = execute_plan(EMPTY_PLAN, [], state, num_threads=4)
    assert final.balances == {"Z": 3}
    assert final is not state


def test_plan_must_cover_the_block():
    block = wallet_block([("A", "B"), ("C", "D")])
    plan = build_execution_plan(assignment_of([0]))
    with pytest.raises(ValueError):
        execute_plan(plan, block, WalletState(), num_threads=2)


def test_plan_listing_an_id_twice_is_rejected():
    # ids {0, 1} are all present, but transfer 0 would be applied twice
    block = wallet_block([("a", "b", 5), ("c", "d", 5)])
    plan = ExecutionPlan(bin_matrix=((0,), (0, 1)), waits=((), ()))
    with pytest.raises(ValueError):
        execute_plan(plan, block, WalletState(), num_threads=2)


def test_payloadless_transactions_rejected():
    txn = Transaction(id=0, read_set=frozenset({"X"}), write_set=frozenset({"X"}))
    plan = build_execution_plan(assignment_of([0]))
    with pytest.raises(ValueError):
        execute_plan(plan, [txn], WalletState(), num_threads=1)
    with pytest.raises(ValueError):
        execute_serial([txn], WalletState())


def test_zero_threads_rejected():
    with pytest.raises(ValueError):
        execute_plan(EMPTY_PLAN, [], WalletState(), num_threads=0)


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("num_threads", [2, 8])
def test_parallel_equals_serial(variant, num_threads):
    block = random_wallet_block(seed=303, max_n=300)
    result = schedule(block, variant, num_threads=4)
    final = execute_plan(result.plan, block, WalletState(), num_threads=num_threads)
    serial = execute_serial(block, WalletState())
    assert final.balances == serial.balances


def test_balance_sum_is_conserved():
    block = random_wallet_block(seed=304, max_n=200)
    initial = WalletState({"A": 100})
    result = schedule(block, Variant.ASSISTED, num_threads=4)
    final = execute_plan(result.plan, block, initial, num_threads=4)
    assert final.total() == 100


def test_simulated_work_changes_time_not_state():
    block = wallet_block([("A", "B", 1), ("C", "D", 2)])
    result = schedule(block, Variant.LOCKFREE, num_threads=2)
    lazy = execute_plan(result.plan, block, WalletState(), num_threads=2, per_txn_work=0.002)
    fast = execute_plan(result.plan, block, WalletState(), num_threads=2)
    assert lazy.balances == fast.balances


# Three bins over disjoint transfers, each transfer waiting for the whole
# bin before its own: the waits, not conflicts, keep bin 1 after bin 0 here.
_LAYERS = (tuple(range(8)), tuple(range(8, 14)), (14, 15))
LAYERED_PLAN = ExecutionPlan(
    bin_matrix=_LAYERS,
    waits=tuple(() if t < 8 else _LAYERS[0] if t < 14 else _LAYERS[1] for t in range(16)),
)


def test_a_worker_error_stops_every_worker_and_is_raised(monkeypatch):
    real_apply = binsched.executor._apply

    def failing_first_transfer(balances, txn):
        if txn.id == 0:
            time.sleep(0.05)  # peers finish bin 0 and wait for this transfer
            raise RuntimeError("transfer 0 failed")
        real_apply(balances, txn)

    monkeypatch.setattr(binsched.executor, "_apply", failing_first_transfer)
    raised = []

    def run():
        try:
            execute_plan(LAYERED_PLAN, disjoint_block(16), WalletState(), num_threads=4)
        except RuntimeError as exc:
            raised.append(exc)

    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout=30)
    assert not caller.is_alive(), "execute_plan hung after a worker error"
    assert [str(exc) for exc in raised] == ["transfer 0 failed"]
    assert not [t for t in threading.enumerate() if t.name.startswith("exec-")]


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
    final = execute_plan(plan, block, WalletState(), num_threads=2)
    assert overlapped == [True]
    assert final.balances == execute_serial(block, WalletState()).balances


@pytest.mark.parametrize("num_threads", [2, 8])
def test_every_transfer_starts_after_its_frontier_is_applied(monkeypatch, num_threads):
    real_apply = binsched.executor._apply
    events = []  # ("start" | "end", id) in the order they happened

    def traced_apply(balances, txn):
        events.append(("start", txn.id))
        real_apply(balances, txn)
        events.append(("end", txn.id))

    monkeypatch.setattr(binsched.executor, "_apply", traced_apply)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(20):
            block = random_wallet_block(seed=700 + seed, max_n=120)
            plan = schedule(block, Variant.STANDARD, num_threads=2).plan
            events.clear()
            final = execute_plan(plan, block, WalletState(), num_threads, per_txn_work=1e-5)
            at = {event: k for k, event in enumerate(events)}
            for txn_id, frontier in enumerate(frontier_oracle(block)):
                for dep in frontier:
                    assert at[("end", dep)] < at[("start", txn_id)], (seed, txn_id, dep)
            assert final.balances == execute_serial(block, WalletState()).balances
    finally:
        sys.setswitchinterval(interval)


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
    raised = run_with_timeout(lambda: execute_plan(plan, block, WalletState(), num_threads=2))
    assert [str(exc) for exc in raised] == ["transfer 0 failed"]
    assert applied == []


def test_waits_on_a_later_transaction_are_rejected_not_hung():
    # transfers 0 and 1 wait for each other: 0 would sleep on a later position
    block = disjoint_block(2)
    plan = ExecutionPlan(bin_matrix=((0,), (1,)), waits=((1,), (0,)))
    raised = run_with_timeout(lambda: execute_plan(plan, block, WalletState(), num_threads=2))
    assert len(raised) == 1 and isinstance(raised[0], ValueError)
    assert "not earlier in plan order" in str(raised[0])


def test_waits_must_cover_the_block():
    plan = ExecutionPlan(bin_matrix=((0, 1),), waits=((),))
    with pytest.raises(ValueError):
        execute_plan(plan, disjoint_block(2), WalletState(), num_threads=2)


def test_parallel_equals_serial_under_fast_thread_switching():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(20):
            block = random_wallet_block(seed=900 + seed, max_n=150)
            plan = schedule(block, Variant.STANDARD, num_threads=2).plan
            final = execute_plan(plan, block, WalletState(), num_threads=8)
            assert final.balances == execute_serial(block, WalletState()).balances
    finally:
        sys.setswitchinterval(interval)


@settings(max_examples=15, deadline=None)
@given(wallet_blocks(max_n=80), st.sampled_from([1, 2, 4]), st.sampled_from(list(Variant)))
def test_determinism_property(block, num_threads, variant):
    result = schedule(block, variant, num_threads=2)
    final = execute_plan(result.plan, block, WalletState(), num_threads=num_threads)
    serial = execute_serial(block, WalletState())
    assert final.balances == serial.balances
    assert final.total() == 0
