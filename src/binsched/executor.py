"""Stage 3: dense bin-by-bin plan construction and wallet execution.

The plan lays bins out as a ragged matrix, one ascending row of transaction
ids per bin, and records what each transaction waits for: its frontier, the
earlier conflicts the conflict index lists. ``build_execution_plan(assignment)``
needs nothing else: once the assignment's publisher table is complete, the
waits are its index's frontiers, taken whole. A plan it builds is valid by
construction and is marked built, and :func:`execute_plan` runs only such
a plan, checked to be of the block's length.
Bins remain the schedule; execution replays along the frontiers. With
simulated work per transaction (``per_txn_work > 0``), workers claim
positions of the flattened rows in order, and a transaction starts once
every member of its frontier has been applied, not once its whole previous
bin has. Frontier members sit in lower bins, so they come earlier in plan
order, and on every account the transfers apply in id order. A worker
raises; the runner stops the run's :class:`~binsched.atomics.Wakeup`.
Without work the calling thread applies the rows in order and hands the
worker pool no job, because a peer could never run: under the GIL a peer
runs only while another worker gives the lock up, the wallet
:func:`_apply` is dict arithmetic that never does, and one worker claiming
in plan order finds every frontier member already applied, so it never
sleeps on a frontier either. A payload kind whose apply can block would
revisit that rule. The final state always equals single-threaded index-order application
(:func:`execute_serial`), the reference semantics for equivalence tests.

Transfers debit the sender and credit the receiver unconditionally on signed
balances. :func:`_apply` alone reads a transfer: it rejects a transaction
without a payload and opens an account absent from the initial state at
balance 0 on its first touch, so workers start on a copy of the initial map.
Under the GIL, which :func:`~binsched.scheduler.schedule` requires, each
dict ``get`` and store is one atomic step, and two transfers that touch one
account conflict, so the frontier wait orders them: no two workers ever
update one account at once.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

from .atomics import UNASSIGNED, Wakeup
from .binning import BinAssignment
from .faults import run_workers
from .txn import Address, Transaction


@dataclass(frozen=True)
class ExecutionPlan:
    """Ragged bin-by-bin layout and what each transaction waits for.

    ``bin_matrix[b][k]`` is a transaction id. ``waits[t]`` holds the ids that
    transaction ``t`` waits for, its frontier. ``_built`` is True only on a
    plan that :func:`build_execution_plan` made, the only kind of plan
    :func:`execute_plan` runs. It is outside plan equality, no constructor
    call or :func:`dataclasses.replace` sets it, and copies and pickles keep
    it.
    """

    bin_matrix: tuple[tuple[int, ...], ...]
    waits: tuple[tuple[int, ...], ...]
    _built: bool = field(default=False, init=False, repr=False, compare=False)

    @property
    def num_bins(self) -> int:
        return len(self.bin_matrix)


def _mark_built(plan: ExecutionPlan) -> ExecutionPlan:
    object.__setattr__(plan, "_built", True)
    return plan


def build_execution_plan(assignment: BinAssignment) -> ExecutionPlan:
    """Materialize the per-bin rows from a complete assignment, and the waits from its table.

    Rows come out ascending because ids are visited in order. The waits are
    the frontiers of ``assignment.table``'s index, once phase 1 published
    every slot, as a tuple of the index's own tuples. The plan is marked built.
    """
    initial = assignment.initial_bin_list()
    if not assignment.is_complete():
        missing = [i for i, b in enumerate(initial) if b is UNASSIGNED]
        raise ValueError(f"assignment incomplete: {len(missing)} unassigned (first: {missing[:5]})")
    rows: list[list[int]] = [[] for _ in range(max(initial, default=-1) + 1)]
    for txn_id, bin_no in enumerate(initial):
        rows[bin_no].append(txn_id)
    table = assignment.table
    if not table.is_complete():
        raise ValueError("publisher table lacks a frontier for some transaction of the assignment")
    plan = ExecutionPlan(tuple(tuple(row) for row in rows), tuple(table.index.frontiers))
    return _mark_built(plan)


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
    balances[payload.from_addr] = balances.get(payload.from_addr, 0) - payload.amount
    balances[payload.to_addr] = balances.get(payload.to_addr, 0) + payload.amount


def check_per_txn_work(per_txn_work: float) -> None:
    """Reject simulated work that is not finite and >= 0, before anything runs."""
    if not 0 <= per_txn_work < math.inf:  # NaN too
        raise ValueError("per_txn_work must be finite and >= 0")


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
    check_per_txn_work(per_txn_work)
    balances = dict(initial.balances)
    for txn in txns:
        if per_txn_work > 0:
            time.sleep(per_txn_work)
        _apply(balances, txn)
    return WalletState(balances)


def execute_plan(
    plan: ExecutionPlan,
    txns: Sequence[Transaction],
    initial: WalletState,
    num_threads: int = 1,
    per_txn_work: float = 0.0,
) -> WalletState:
    """Apply the plan on up to ``num_threads`` workers; a transaction starts after its waits.

    Only a plan that :func:`build_execution_plan` made runs: any other, or
    one made for a block of another length, raises ``ValueError`` before
    any transaction applies. ``num_threads`` caps the workers. The calling
    thread alone applies the rows in order at one thread, for an empty
    plan, and whenever ``per_txn_work`` is 0: a wallet :func:`_apply` never
    gives the GIL up, and one worker claiming in plan order finds every
    frontier member applied, so a peer could never run (see the module
    docstring; a payload kind whose apply can block would revisit this).
    With work and more threads, the workers of
    :func:`~binsched.faults.run_workers`, the calling thread and parked
    peers of the one worker pool, claim positions of the flattened rows
    from one shared :func:`itertools.count` and apply the claimed
    transaction ``t`` once every member of ``plan.waits[t]`` is marked
    done, sleeping on one :class:`~binsched.atomics.Wakeup` that each
    worker wakes after marking its transaction done. Members sit earlier in plan order, so the lowest
    unfinished claimed position can always run. Nothing is set up first:
    :func:`_apply` opens each account on its first touch, and raises
    ``ValueError`` for a transaction without a payload when a worker reaches
    it. A worker raises; the runner stops the wakeup, so the peers stop, and
    re-raises the error.
    """
    if num_threads < 1:
        raise ValueError("num_threads must be >= 1")
    check_per_txn_work(per_txn_work)
    if not plan._built:
        raise ValueError("execute_plan runs only plans that build_execution_plan made")
    n = len(txns)
    if len(plan.waits) != n:
        raise ValueError(f"plan is for a block of {len(plan.waits)} transactions, not {n}")

    balances = dict(initial.balances)
    rows = plan.bin_matrix
    if num_threads == 1 or per_txn_work == 0 or not rows:
        for txn_id in itertools.chain.from_iterable(rows):
            if per_txn_work > 0:
                time.sleep(per_txn_work)
            _apply(balances, txns[txn_id])
        return WalletState(balances)

    order = list(itertools.chain.from_iterable(rows))
    waits = plan.waits
    claims = itertools.count()
    done = [False] * n
    wakeup = Wakeup()

    def body(_worker: int) -> None:
        while (k := next(claims)) < n and not wakeup.stopped:
            txn_id = order[k]
            deps = waits[txn_id]
            if deps:  # skips the loop's iterator for an empty frontier, as on cold blocks
                for dep in deps:
                    if not done[dep] and not wakeup.sleep_until(lambda: done[dep]):
                        return  # a failed worker stopped the wakeup
            time.sleep(per_txn_work)
            _apply(balances, txns[txn_id])
            done[txn_id] = True
            if wakeup.sleepers:
                wakeup.wake()

    run_workers(body, num_threads, wakeup.stop)
    return WalletState(balances)
