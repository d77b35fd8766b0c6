"""Phase 2: assign each transaction to the lowest bin above its conflicts.

A transaction's bin is ``1 + max(bin of each lower conflict)``, with an
empty conflict set mapping to bin 0. Conflicting pairs therefore land in
strictly ordered bins (earlier id in the lower bin) and every bin holds only
pairwise non-conflicting transactions, so bins can execute internally in
parallel and sequentially with each other while reproducing the serial
outcome.

Phase 2 reads only each slot's *frontier*, the one set phase 1 publishes
per slot: per address, the latest earlier writer and, for a write,
the readers since it. The max over the frontier equals the max over the
full set because bins rise along each address's access chain: any other
earlier conflict on an address sits in a lower bin than a frontier member.
A transaction therefore waits only on its frontier's bins.

Each procedure takes the bin assignment it publishes into, whose ``table``
is the conflict table of the block it bins, the claim counter it draws
from, and the calling thread's :class:`~binsched.faults.Worker`, whose
fault hook it calls at each instrumented site: ``assign_bins_standard(bins,
claims, worker)`` and ``assign_bins_helper(bins, claims, worker)``, the
shape of phase 1's ``(table, claims, worker)``.
:func:`assign_bins_standard` claims each index exactly once and *blocks*
on a dependency that is still unassigned: it sleeps on the run's wakeup
until the publish, or until the wakeup stops or the deadline passes, and
then raises :class:`~binsched.faults.Aborted`: a worker raises; the runner
stops the run. Safe behind a barrier, not crash tolerant.
:func:`assign_bins_helper` never blocks. It makes a first pass over the
claims below ``n``, each handed out once, computing the claimed slot's bin
inline and CAS-publishing it without reading the slot first. Only when a
frontier member is still unassigned does it *help*: it publishes the bins
of the unassigned members itself, with an explicit stack since bin chains
run hundreds deep, before the claimed one. Its first claim past ``n`` ends
the pass: it then sweeps the slots still unset, from
:meth:`~binsched.atomics.PublishOnceArray.unpublished`, each visiting its
sites as a claim does, instead of claiming on through published slots.
It reads only frontiers phase 1 published, and raises ``RuntimeError`` on
a table phase 1 left incomplete. Bins are pure functions of the frontiers,
so every publisher of a slot publishes the same value, and work a stopped
peer abandoned is redone by whoever needs it next. A helper leaves the
phase once the publish count reaches ``n``. It counts each CAS it
loses on ``worker.cas_retries`` and each unassigned frontier member it
pushes to resolve on ``worker.helped``.

The publish-once :class:`BinAssignment` is the only bin record. Bin
membership is derived from it once, by
:func:`~binsched.executor.build_execution_plan`, after the phase has ended,
together with the frontiers of its table that the plan's transactions wait
for.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .atomics import UNASSIGNED, PublishOnceArray
from .conflict import ConflictTable, check_conflicts
from .faults import Aborted, Site, Worker
from .txn import Transaction

# Bound once: ``Site.X`` goes through the enum's Python-level descriptor on every read.
_PHASE2_POST_CLAIM = Site.PHASE2_POST_CLAIM
_PHASE2_PRE_CAS = Site.PHASE2_PRE_CAS


class BinAssignment(PublishOnceArray[int]):
    """Phase 2's publish-once bin number per transaction of ``table``'s block.

    It owns the :class:`~binsched.conflict.ConflictTable` phase 2 bins by.
    """

    __slots__ = ("table",)

    def __init__(self, table: ConflictTable) -> None:
        super().__init__(table.n)
        self.table = table

    bin_of = PublishOnceArray.get
    initial_bin_list = PublishOnceArray.snapshot


def calculate_bin(i: int, bins: BinAssignment, worker: Worker) -> int:
    """Blocking bin computation: wait until every frontier member is assigned.

    Sleeps on the run's wakeup until the publish; a stop or a passed deadline
    raise :class:`~binsched.faults.Aborted`: a worker raises; the runner stops the run.
    """
    frontier = bins.table.frontier(i)
    if frontier is None:
        raise RuntimeError(f"conflict slot {i} not published; phase 1 incomplete")
    current = -1
    for dep in frontier:
        if (dep_bin := bins.bin_of(dep)) is UNASSIGNED:
            dep_bin = _sleep_until_published(dep, bins, worker)
        if dep_bin > current:
            current = dep_bin
    return current + 1


def _sleep_until_published(dep: int, bins: BinAssignment, worker: Worker) -> int:
    """``dep``'s bin, once published; a function of its own, so that the
    predicate's closure costs :func:`calculate_bin` nothing when no member waits."""
    if not worker.abort.sleep_until(lambda: bins.bin_of(dep) is not UNASSIGNED, worker.deadline):
        raise Aborted()
    return bins.bin_of(dep)


def assign_bins_standard(bins: BinAssignment, claims: Iterator[int], worker: Worker) -> None:
    """Bins the table's block, each index claimed once; waits on deps, wakes sleepers."""
    n = bins.n
    wakeup = worker.abort
    i = next(claims)
    while i < n:
        worker.at(_PHASE2_POST_CLAIM)
        alloted = calculate_bin(i, bins, worker)
        worker.at(_PHASE2_PRE_CAS)
        bins.publish(i, alloted)
        if wakeup.sleepers:
            wakeup.wake()
        i = next(claims)


def assign_bins_helper(bins: BinAssignment, claims: Iterator[int], worker: Worker) -> None:
    """Bins the table's block: a first pass of claims, then a sweep; helps unassigned deps."""
    n = bins.n
    table = bins.table
    if not table.is_complete():
        raise RuntimeError("conflict table not fully published; phase 1 incomplete")
    frontier = table.frontier
    bin_of = bins.bin_of
    published = bins.published
    slots = claims
    while published() < n:
        i = next(slots, n)
        if i >= n:  # past the claims, or past a sweep peers finished: sweep what is unset
            slots = bins.unpublished()
            continue
        worker.at(_PHASE2_POST_CLAIM)
        current = -1
        for dep in frontier(i):
            dep_bin = bin_of(dep)
            if dep_bin is UNASSIGNED:
                _help(i, bins, worker)
                break
            if dep_bin > current:
                current = dep_bin
        else:
            worker.at(_PHASE2_PRE_CAS)
            if not bins.try_publish(i, current + 1):
                worker.cas_retries += 1


def _help(i: int, bins: BinAssignment, worker: Worker) -> None:
    """Publish slot ``i``'s bin after those of its unassigned frontier members, depth first."""
    table = bins.table
    stack = [i]
    while stack:
        j = stack[-1]
        if bins.bin_of(j) is not UNASSIGNED:
            stack.pop()
            continue
        current = -1
        for dep in table.frontier(j):
            dep_bin = bins.bin_of(dep)
            if dep_bin is UNASSIGNED:
                stack.append(dep)
                worker.helped += 1
                break
            if dep_bin > current:
                current = dep_bin
        else:
            worker.at(_PHASE2_PRE_CAS)
            if not bins.try_publish(j, current + 1):
                worker.cas_retries += 1
            stack.pop()


def bin_oracle(txns: Sequence[Transaction]) -> list[int]:
    """Serial restatement of the bin rule, independent of the shared phases.

    ``oracle[i]`` is 0 when transaction ``i`` conflicts with no earlier
    transaction, otherwise one above the highest bin among its earlier
    conflicts; computed in index order by direct pairwise checks.
    """
    out: list[int] = []
    for i, txn in enumerate(txns):
        highest = -1
        for j in range(i):
            if check_conflicts(txn, txns[j]) and out[j] > highest:
                highest = out[j]
        out.append(highest + 1)
    return out
