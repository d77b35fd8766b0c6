"""Stage 3: dense bin-by-bin plan construction and wallet execution.

The plan lays bins out as a ragged matrix, one ascending row of transaction
ids per bin; workers index a row directly and stop at its length. Execution
applies bins in ascending order with intra-bin parallelism:
bin-internal transactions are pairwise non-conflicting, so workers can apply
them in any interleaving. A bin ends when every one of its transactions has
been applied, and no transaction of the next bin starts before that, which
preserves the conflict order; a worker waits only while a peer still holds an
unfinished transaction of the bin, never for peers to arrive. The final state
always equals single-threaded index-order application (:func:`execute_serial`),
which is the reference semantics for every equivalence test.

Transfers debit the sender and credit the receiver unconditionally on signed
balances; accounts absent from the initial state materialize at balance 0 on
first touch. Balance cells for every touched account are materialized before
workers start, so the map structure itself is never mutated concurrently.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Sequence

from .binning import UNASSIGNED, BinAssignment
from .txn import Address, Transaction


@dataclass(frozen=True)
class ExecutionPlan:
    """Ragged bin-by-bin layout: ``bin_matrix[b][k]`` is a transaction id."""

    bin_matrix: tuple[tuple[int, ...], ...]

    @property
    def num_bins(self) -> int:
        return len(self.bin_matrix)


EMPTY_PLAN = ExecutionPlan(bin_matrix=())


def build_execution_plan(assignment: BinAssignment) -> ExecutionPlan:
    """Materialize the per-bin rows from a complete assignment.

    Rows come out ascending because ids are visited in order.
    """
    initial = assignment.initial_bin_list()
    if any(b is UNASSIGNED for b in initial):
        missing = [i for i, b in enumerate(initial) if b is UNASSIGNED]
        raise ValueError(f"assignment incomplete: {len(missing)} unassigned (first: {missing[:5]})")
    rows: list[list[int]] = [[] for _ in range(max(initial, default=-1) + 1)]
    for txn_id, bin_no in enumerate(initial):
        rows[bin_no].append(txn_id)
    return ExecutionPlan(bin_matrix=tuple(tuple(row) for row in rows))


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


def _validate_plan(plan: ExecutionPlan, txns: Sequence[Transaction]) -> None:
    ids = [txn_id for row in plan.bin_matrix for txn_id in row]
    if len(ids) != len(txns) or set(ids) != set(range(len(txns))):
        raise ValueError("plan does not partition the block's transaction ids")


def execute_plan(
    plan: ExecutionPlan,
    txns: Sequence[Transaction],
    initial: WalletState,
    num_threads: int = 1,
    per_txn_work: float = 0.0,
) -> WalletState:
    """Apply bins in order, each bin in parallel across ``num_threads``.

    Workers pull positions within the current bin's row by ``next()`` on
    the bin's shared :func:`itertools.count` until the row runs out, then
    add the count they applied to the bin's total. A worker moves to the
    next bin as soon as that total equals the row length, and waits on a
    shared condition only while a peer still applies one of the bin's
    transactions; whoever completes the bin wakes the waiters. A worker that raises records the error and wakes every
    waiter, so the peers stop and :func:`execute_plan` re-raises it.
    """
    if num_threads < 1:
        raise ValueError("num_threads must be >= 1")
    _validate_plan(plan, txns)

    balances = dict(initial.balances)
    for txn in txns:
        if txn.payload is None:
            raise ValueError(f"transaction {txn.id} has no wallet payload to execute")
        balances.setdefault(txn.payload.from_addr, 0)
        balances.setdefault(txn.payload.to_addr, 0)

    if plan.num_bins == 0:
        return WalletState(balances)

    if num_threads == 1:
        for row in plan.bin_matrix:
            for txn_id in row:
                if per_txn_work > 0:
                    time.sleep(per_txn_work)
                _apply(balances, txns[txn_id])
        return WalletState(balances)

    claims = [itertools.count() for _ in range(plan.num_bins)]
    applied = [0] * plan.num_bins  # guarded by ``latch``
    latch = threading.Condition(threading.Lock())
    errors: list[BaseException] = []  # guarded by ``latch``

    def body() -> None:
        try:
            for b, row in enumerate(plan.bin_matrix):
                claim, done = claims[b], 0
                while (k := next(claim)) < len(row):
                    if per_txn_work > 0:
                        time.sleep(per_txn_work)
                    _apply(balances, txns[row[k]])
                    done += 1
                with latch:
                    applied[b] += done
                    if done and applied[b] == len(row):
                        latch.notify_all()
                    while applied[b] < len(row) and not errors:
                        latch.wait()
                    if errors:
                        return
        except BaseException as exc:
            with latch:
                errors.append(exc)
                latch.notify_all()

    workers = [
        threading.Thread(target=body, name=f"exec-{w}", daemon=True) for w in range(num_threads)
    ]
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    if errors:
        raise errors[0]
    return WalletState(balances)
