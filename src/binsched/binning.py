"""Phase 2: assign each transaction to the lowest bin above its conflicts.

A transaction's bin is ``1 + max(bin of each lower conflict)``, with an
empty conflict set mapping to bin 0. Conflicting pairs therefore land in
strictly ordered bins (earlier id in the lower bin) and every bin holds only
pairwise non-conflicting transactions, so bins can execute internally in
parallel and sequentially with each other while reproducing the serial
outcome.

Phase 2 reads only each transaction's *frontier*, which the conflict
table's index lists: per address, the latest earlier writer and, for a
write, the readers since it. The max over the frontier equals the max over the
full set because bins rise along each address's access chain: any other
earlier conflict on an address sits in a lower bin than a frontier member.
A transaction therefore waits only on its frontier's bins.

Each procedure takes the bin assignment it publishes into, whose ``table``
is the publisher table of the block it bins, the claim counter it draws
from, and the calling thread's :class:`~binsched.faults.Worker`:
``assign_bins_standard(bins, claims, worker)`` and
``assign_bins_helper(bins, claims, worker)``, the shape of phase 1's
``(table, claims, worker)``. Each checks once, on entry, that phase 1
published every slot, and raises ``RuntimeError`` on a table phase 1 left
incomplete; from then on it reads the frontiers from the table's index,
``index.frontiers``, built before phase 1 started. A worker with a
fault ``hook`` has it called at each instrumented site; a plain worker
has nothing tested per claim. Each reads a member's bin through the
assignment's bound ``box_of`` and publishes a fresh box, so a claim is C
calls only.
:func:`assign_bins_standard` claims each index exactly once and computes
its bin inline. It *blocks* only on a dependency that is still
unassigned: it sleeps on the run's wakeup until the publish, or until the
wakeup stops or its deadline passes, and then raises
:class:`~binsched.faults.Aborted`: a worker raises; the runner stops the
run. That sleep is the only place a plain worker of a stopped run stops
inside phase 2; a plain helper, which never waits, finishes the phase.
Safe behind a barrier, not crash tolerant.
:func:`assign_bins_helper` never blocks. It makes a first pass over the
claims below ``n``, each handed out once, computing the claimed slot's bin
inline and CAS-publishing it without reading the slot first. Only when a
frontier member is still unassigned does it *help*: it publishes the bins
of the unassigned members itself, with an explicit stack since bin chains
run hundreds deep, before the claimed one. Its first claim past ``n`` ends
the pass: it then sweeps the slots still unset, from
:meth:`~binsched.atomics.PublishOnceArray.unpublished`, each visiting its
sites as a claim does, instead of claiming on through published slots.
Bins are pure functions of the frontiers, so every publisher of a slot
publishes the same value, and work a stopped peer abandoned is redone by
whoever needs it next. A helper leaves the phase once the publish count
reaches ``n``. It counts each CAS it loses on ``worker.cas_retries`` and
each unassigned frontier member it pushes to resolve on ``worker.helped``.

The publish-once :class:`BinAssignment` is the only bin record. Bin
membership is derived from it once, by
:func:`~binsched.executor.build_execution_plan`, after the phase has ended,
together with the frontiers the plan's transactions wait for.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .atomics import PublishOnceArray
from .conflict import PublisherTable, check_conflicts
from .faults import Aborted, Site, Worker
from .txn import Transaction

# Bound once: ``Site.X`` goes through the enum's Python-level descriptor on every read.
_PHASE2_POST_CLAIM = Site.PHASE2_POST_CLAIM
_PHASE2_PRE_CAS = Site.PHASE2_PRE_CAS


class BinAssignment(PublishOnceArray[int]):
    """Phase 2's publish-once bin number per transaction of ``table``'s block.

    It owns the :class:`~binsched.conflict.PublisherTable` phase 2 bins by.
    """

    __slots__ = ("table",)

    def __init__(self, table: PublisherTable) -> None:
        super().__init__(table.n)
        self.table = table

    initial_bin_list = PublishOnceArray.snapshot


def _frontiers_of(bins: BinAssignment) -> list[tuple[int, ...]]:
    """The frontiers phase 2 reads: the index's, once phase 1 published every slot."""
    table = bins.table
    if not table.is_complete():
        raise RuntimeError("publisher table not fully published; phase 1 incomplete")
    return table.index.frontiers


def _sleep_until_published(dep: int, bins: BinAssignment, worker: Worker) -> tuple[int]:
    """``dep``'s box, once published; a function of its own, so that the
    predicate's closure costs :func:`assign_bins_standard` nothing when no
    member waits. A stop or the wakeup's passed deadline raise
    :class:`~binsched.faults.Aborted`: a worker raises; the runner stops the run."""
    box_of = bins.box_of
    if not worker.abort.sleep_until(lambda: box_of(dep) is not None):
        raise Aborted()
    return box_of(dep)


def assign_bins_standard(bins: BinAssignment, claims: Iterator[int], worker: Worker) -> None:
    """Bins the table's block, each index claimed once; waits on deps, wakes sleepers."""
    n = bins.n
    frontiers = _frontiers_of(bins)
    box_of = bins.box_of
    put = bins.put
    hook = worker.hook
    wakeup = worker.abort
    for i in claims:
        if i >= n:
            break
        if hook is not None:
            hook(_PHASE2_POST_CLAIM)
        current = -1
        deps = frontiers[i]
        if deps:  # skips the loop's iterator for an empty frontier, as on cold blocks
            for dep in deps:
                box = box_of(dep)
                if box is None:
                    box = _sleep_until_published(dep, bins, worker)
                if box[0] > current:
                    current = box[0]
        if hook is not None:
            hook(_PHASE2_PRE_CAS)
        put(i, (current + 1,))
        if wakeup.sleepers:
            wakeup.wake()


def assign_bins_helper(bins: BinAssignment, claims: Iterator[int], worker: Worker) -> None:
    """Bins the table's block: a first pass of claims, then a sweep; helps unassigned deps."""
    n = bins.n
    frontiers = _frontiers_of(bins)
    box_of = bins.box_of
    put_once = bins.put_once
    published = bins.published
    hook = worker.hook
    slots = claims
    while published() < n:
        i = next(slots, n)
        if i >= n:  # past the claims, or past a sweep peers finished: sweep what is unset
            slots = bins.unpublished()
            continue
        if hook is not None:
            hook(_PHASE2_POST_CLAIM)
        current = -1
        for dep in frontiers[i]:
            box = box_of(dep)
            if box is None:
                _help(i, bins, worker)
                break
            if box[0] > current:
                current = box[0]
        else:
            if hook is not None:
                hook(_PHASE2_PRE_CAS)
            box = (current + 1,)
            if put_once(i, box) is not box:
                worker.cas_retries += 1


def _help(i: int, bins: BinAssignment, worker: Worker) -> None:
    """Publish slot ``i``'s bin after those of its unassigned frontier members, depth first."""
    frontiers = bins.table.index.frontiers
    box_of = bins.box_of
    hook = worker.hook
    stack = [i]
    while stack:
        j = stack[-1]
        if box_of(j) is not None:
            stack.pop()
            continue
        current = -1
        for dep in frontiers[j]:
            box = box_of(dep)
            if box is None:
                stack.append(dep)
                worker.helped += 1
                break
            if box[0] > current:
                current = box[0]
        else:
            if hook is not None:
                hook(_PHASE2_PRE_CAS)
            box = (current + 1,)
            if bins.put_once(j, box) is not box:
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
