"""Stage 3: dense bin-by-bin plan construction and wallet execution.

The plan lays bins out as a ragged matrix, one ascending row of transaction
ids per bin, and records what each transaction waits for: its frontier, the
earlier conflicts the conflict index lists. ``build_execution_plan(assignment)``
needs nothing else: it builds the rows in one scan of the ids through the
assignment's ``box_of``, and the waits are the frontiers of the index that
the assignment's publisher table built when it was made, taken whole. A plan
it builds is valid by construction and is marked built, and
:func:`execute_plan` runs only such a plan, checked to be of the block's
length.
Bins remain the schedule; execution replays along the frontiers. With
simulated work per transaction (``per_txn_work > 0``), workers claim
positions of the flattened rows in order, and a transaction starts once
every member of its frontier has been applied, not once its whole previous
bin has. Frontier members sit in lower bins, so they come earlier in plan
order, and on every account the transfers apply in id order. A worker
raises; the runner stops the run's :class:`~binsched.atomics.Wakeup`.
Without work the calling thread applies the whole plan, in plan order, with
one call of :func:`_apply_all`, and hands the worker pool no job, because a
peer could never run: under the GIL a peer runs only while another worker
gives the lock up, wallet application is dict arithmetic that never does,
and one worker claiming in plan order finds every frontier member already
applied, so it never sleeps on a frontier either. A payload kind whose
apply can block would revisit that rule. The final state always equals
single-threaded index-order application (:func:`execute_serial`), the
reference semantics for equivalence tests.

Transfers debit the sender and credit the receiver unconditionally on signed
balances. :func:`_apply_all` alone reads a transfer: it applies the
transactions it is handed in one loop, rejects a transaction without a
payload and opens an account absent from the initial state at balance 0 on
its first touch, so workers start on a copy of the initial map. Every
replay calls it once per worker, over an iterable that hands on each
transaction when it may apply: after its sleep through C iterators
(:func:`_after_work`) on the calling thread alone, and as a generator of
its claims on each worker of a parallel replay. So no replay calls a
Python function per transaction to apply it. Under the GIL, which
:func:`~binsched.scheduler.schedule` requires, each dict ``get`` and store
is one atomic step, and two transfers that touch one account conflict, so
the frontier wait orders them: no two workers ever update one account at
once.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .atomics import Wakeup
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

    The rows come from one scan of the ids through ``assignment.box_of``,
    each id appended to its bin's row, so rows come out ascending. A
    transaction in bin ``b > 0`` has a frontier member with a smaller id in
    bin ``b - 1``, so a scheduled assignment's bins first appear in id order
    and each new bin appends a row; a hand-built one that skips a bin or
    lists bins out of order gets empty rows padded up to the bin. The waits
    are the frontiers of ``assignment.table``'s index, built with the table,
    as a tuple of the index's own tuples. The plan is marked built.
    """
    if not assignment.is_complete():
        missing = list(itertools.islice(assignment.unpublished(), 5))
        unassigned = assignment.n - assignment.published()
        raise ValueError(f"assignment incomplete: {unassigned} unassigned (first: {missing})")
    box_of = assignment.box_of
    rows: list[list[int]] = []
    for txn_id in range(assignment.n):
        (bin_no,) = box_of(txn_id)
        if bin_no < len(rows):
            rows[bin_no].append(txn_id)
        else:
            while len(rows) < bin_no:  # only a hand-built assignment skips a bin
                rows.append([])
            rows.append([txn_id])
    waits = tuple(assignment.table.index.frontiers)
    plan = ExecutionPlan(tuple(map(tuple, rows)), waits)
    return _mark_built(plan)


@dataclass
class WalletState:
    """Account -> signed balance map; total balance is transfer-invariant."""

    balances: dict[Address, int] = field(default_factory=dict)

    def total(self) -> int:
        return sum(self.balances.values())


def _apply_all(balances: dict[Address, int], txns: Iterable[Transaction]) -> None:
    """Apply ``txns`` to ``balances`` in order, in one loop: the only reader of a payload."""
    get = balances.get
    for txn in txns:
        payload = txn.payload
        if payload is None:
            raise ValueError(f"transaction {txn.id} has no wallet payload to execute")
        from_addr, to_addr, amount = payload.from_addr, payload.to_addr, payload.amount
        balances[from_addr] = get(from_addr, 0) - amount
        balances[to_addr] = get(to_addr, 0) + amount


def _after_work(txns: Iterable[Transaction], per_txn_work: float) -> Iterable[Transaction]:
    """``txns``, each handed on after ``per_txn_work`` seconds of simulated work.

    Each sleep follows the draw of its transaction, so n transactions sleep
    n times, each just before its transaction applies. The sleeps run in C
    iterators, so they add no Python call per transaction.
    """
    if per_txn_work == 0:
        return txns
    sleeps = map(time.sleep, itertools.repeat(per_txn_work))
    return map(itemgetter(0), zip(txns, sleeps))


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
    _apply_all(balances, _after_work(txns, per_txn_work))
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
    any transaction applies. ``num_threads`` caps the workers. At one
    thread, for an empty plan, and whenever ``per_txn_work`` is 0, the
    calling thread alone applies the whole plan with one :func:`_apply_all`
    call over the flattened rows, each transaction after its work, if any
    (:func:`_after_work`). Without work a peer could never run: wallet
    application never gives the GIL up, and one worker claiming in plan
    order finds every frontier member applied (see the module docstring;
    a payload kind whose apply can block would revisit this).
    With work and more threads, the workers of
    :func:`~binsched.faults.run_workers`, the calling thread and parked
    peers of the one worker pool, claim positions of the flattened rows
    from one shared :func:`itertools.count` and apply the claimed
    transaction ``t`` once every member of ``plan.waits[t]`` is marked
    done and its work is slept, sleeping on one
    :class:`~binsched.atomics.Wakeup` that each worker wakes after marking
    its transaction done. Each worker makes one :func:`_apply_all` call
    over a generator of its claims, which yields a claimed transaction when
    it may apply and marks it done when the loop draws the next. Members
    sit earlier in plan order, so the lowest
    unfinished claimed position can always run. Nothing is set up first:
    :func:`_apply_all` opens each account on its first touch, and raises
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
        in_order = map(txns.__getitem__, itertools.chain.from_iterable(rows))
        _apply_all(balances, _after_work(in_order, per_txn_work))
        return WalletState(balances)

    order = list(itertools.chain.from_iterable(rows))
    waits = plan.waits
    claims = itertools.count()
    done = [False] * n
    wakeup = Wakeup()

    def claimed() -> Iterator[Transaction]:
        """A worker's claims in turn, each once its frontier is applied and its
        work slept; the draw of the next marks the last one applied."""
        while (k := next(claims)) < n and not wakeup.stopped:
            txn_id = order[k]
            deps = waits[txn_id]
            if deps:  # skips the loop's iterator for an empty frontier, as on cold blocks
                for dep in deps:
                    if not done[dep] and not wakeup.sleep_until(lambda: done[dep]):
                        return  # a failed worker stopped the wakeup
            time.sleep(per_txn_work)
            yield txns[txn_id]
            done[txn_id] = True
            if wakeup.sleepers:
                wakeup.wake()

    def body(_worker: int) -> None:
        _apply_all(balances, claimed())

    run_workers(body, num_threads, wakeup.stop)
    return WalletState(balances)
