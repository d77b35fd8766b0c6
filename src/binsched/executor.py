"""Stage 3: dense bin-by-bin plan construction and wallet execution.

The plan lays bins out as a ragged matrix, one ascending row of transaction
ids per bin, and records what each transaction waits for: its frontier, the
earlier conflicts phase 1 published into the conflict table that the bin
assignment owns, so ``build_execution_plan(assignment)`` needs nothing else.
Bins remain the schedule; execution replays along the frontiers. Workers
claim positions of the flattened rows in order, and a transaction starts
once every member of its frontier has been applied, not once its whole
previous bin has. Frontier members sit in lower bins, so they come earlier
in plan order, and on every account the transfers apply in id order. The final state always equals
single-threaded index-order application (:func:`execute_serial`), which is
the reference semantics for every equivalence test.

Transfers debit the sender and credit the receiver unconditionally on signed
balances; accounts absent from the initial state materialize at balance 0 on
first touch. Balance cells for every touched account are materialized before
workers start, so the map structure itself is never mutated concurrently.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Sequence

from .atomics import Wakeup
from .binning import UNASSIGNED, BinAssignment
from .faults import run_workers
from .txn import Address, Transaction


@dataclass(frozen=True)
class ExecutionPlan:
    """Ragged bin-by-bin layout and what each transaction waits for.

    ``bin_matrix[b][k]`` is a transaction id. ``waits[t]`` holds the ids that
    transaction ``t`` waits for, its frontier.
    """

    bin_matrix: tuple[tuple[int, ...], ...]
    waits: tuple[tuple[int, ...], ...]

    @property
    def num_bins(self) -> int:
        return len(self.bin_matrix)


EMPTY_PLAN = ExecutionPlan(bin_matrix=(), waits=())


def build_execution_plan(assignment: BinAssignment) -> ExecutionPlan:
    """Materialize the per-bin rows from a complete assignment, and the waits from its table.

    Rows come out ascending because ids are visited in order. The waits are
    the frontiers published in ``assignment.table``.
    """
    initial = assignment.initial_bin_list()
    if any(b is UNASSIGNED for b in initial):
        missing = [i for i, b in enumerate(initial) if b is UNASSIGNED]
        raise ValueError(f"assignment incomplete: {len(missing)} unassigned (first: {missing[:5]})")
    rows: list[list[int]] = [[] for _ in range(max(initial, default=-1) + 1)]
    for txn_id, bin_no in enumerate(initial):
        rows[bin_no].append(txn_id)
    table = assignment.table
    if not table.is_complete():
        raise ValueError("conflict table lacks a frontier for some transaction of the assignment")
    return ExecutionPlan(tuple(tuple(row) for row in rows), tuple(table.snapshot()))


@dataclass
class WalletState:
    """Account -> signed balance map; total balance is transfer-invariant."""

    balances: dict[Address, int] = field(default_factory=dict)

    def total(self) -> int:
        return sum(self.balances.values())


def _apply(balances: dict[Address, int], txn: Transaction) -> None:
    payload = txn.payload
    if payload is None:
        raise ValueError(f"transaction {txn.id} has no wallet payload to execute")
    balances[payload.from_addr] -= payload.amount
    balances[payload.to_addr] += payload.amount


def execute_serial(
    txns: Sequence[Transaction],
    initial: WalletState,
    per_txn_work: float = 0.0,
) -> WalletState:
    """Index-order single-threaded application: the reference semantics.

    ``per_txn_work`` simulates per-contract work so the serial baseline is
    cost-comparable to the parallel executor in benchmarks; it defaults to
    zero and never changes the resulting state.
    """
    balances = dict(initial.balances)
    for txn in txns:
        if txn.payload is not None:
            balances.setdefault(txn.payload.from_addr, 0)
            balances.setdefault(txn.payload.to_addr, 0)
        if per_txn_work > 0:
            time.sleep(per_txn_work)
        _apply(balances, txn)
    return WalletState(balances)


def _validate_plan(plan: ExecutionPlan, txns: Sequence[Transaction]) -> list[int]:
    """The plan's ids in plan order, once checked to partition the block."""
    order = [txn_id for row in plan.bin_matrix for txn_id in row]
    if len(order) != len(txns) or set(order) != set(range(len(txns))):
        raise ValueError("plan does not partition the block's transaction ids")
    if len(plan.waits) != len(txns):
        raise ValueError("plan's waits do not cover the block's transaction ids")
    return order


def execute_plan(
    plan: ExecutionPlan,
    txns: Sequence[Transaction],
    initial: WalletState,
    num_threads: int = 1,
    per_txn_work: float = 0.0,
) -> WalletState:
    """Apply the plan across ``num_threads``; a transaction starts once its waits are applied.

    One thread applies the rows in order. With more, the workers of
    :func:`~binsched.faults.run_workers`, the calling thread among them,
    claim positions of the flattened rows from one shared
    :func:`itertools.count` and apply the claimed transaction ``t`` once
    every member of ``plan.waits[t]`` is marked done, sleeping on one
    :class:`~binsched.atomics.Wakeup` that each worker wakes after marking
    its transaction done. Members sit earlier in plan order, so the lowest
    unfinished claimed position can always run; a worker about to sleep on
    a member that is not earlier raises ``ValueError`` instead of hanging. A
    worker that raises records the error and wakes the sleepers, so the
    peers stop and :func:`execute_plan` re-raises it.
    """
    if num_threads < 1:
        raise ValueError("num_threads must be >= 1")
    order = _validate_plan(plan, txns)

    balances = dict(initial.balances)
    for txn in txns:
        if txn.payload is None:
            raise ValueError(f"transaction {txn.id} has no wallet payload to execute")
        balances.setdefault(txn.payload.from_addr, 0)
        balances.setdefault(txn.payload.to_addr, 0)

    if plan.num_bins == 0:
        return WalletState(balances)

    if num_threads == 1:
        for txn_id in order:
            if per_txn_work > 0:
                time.sleep(per_txn_work)
            _apply(balances, txns[txn_id])
        return WalletState(balances)

    n = len(order)
    waits = plan.waits
    claims = itertools.count()
    done = [False] * n
    wakeup = Wakeup()
    errors: list[BaseException] = []
    position: list[int] = []  # plan position of each id, built at the first sleep

    def wait_for(dep: int, k: int) -> bool:
        """Sleep until ``dep`` is applied; False when a worker failed meanwhile."""
        if not position:  # racing first sleepers each store the same list, in one step
            position[:] = sorted(range(n), key=order.__getitem__)
        if position[dep] >= k:
            raise ValueError(
                f"transaction {order[k]} waits for {dep}, which is not earlier in plan order"
            )
        wakeup.sleep_until(lambda: done[dep] or errors)
        return not errors

    def body(_worker: int) -> None:
        try:
            while (k := next(claims)) < n and not errors:
                txn_id = order[k]
                deps = waits[txn_id]
                if deps:  # skips the loop's iterator for an empty frontier, as on cold blocks
                    for dep in deps:
                        if not done[dep] and not wait_for(dep, k):
                            return
                if per_txn_work > 0:
                    time.sleep(per_txn_work)
                _apply(balances, txns[txn_id])
                done[txn_id] = True
                if wakeup.sleepers:
                    wakeup.wake()
        except BaseException as exc:
            errors.append(exc)
            wakeup.wake()

    run_workers(body, num_threads, "exec")
    if errors:
        raise errors[0]
    return WalletState(balances)
