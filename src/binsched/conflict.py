"""Phase 1: pairwise conflict predicate and concurrent frontier discovery.

Two transactions conflict when their declared access sets overlap in any
write-involving way: write/write, read/write, or write/read. Read/read
overlap is not a conflict. For every transaction ``i`` the phase publishes
one value into a slot of a shared :class:`ConflictTable`: its *frontier*,
the earlier conflicts that phase 2 reads. For each address ``i`` touches,
that is the latest earlier writer, plus, when ``i`` writes the address, the
readers since that writer.

The frontier gives the same bin as the full *lower conflict set*, the ids
``j < i`` that ``i`` conflicts with, because bins rise along each address's
accesses in id order: every other earlier conflict on an address conflicts
with, and so sits in a lower bin than, a frontier member. The lower sets,
the paper's conflict table, are not built by the phase; only
:func:`lower_conflict_sets`, a plain scan, lists them.

Two discovery procedures share that contract. Each takes only the table,
whose block it schedules, the claim counter it draws from, and the calling
thread's :class:`~binsched.faults.Worker`, whose fault hook it calls at
each instrumented site: ``build_conflict_sets_standard(table, claims,
worker)`` and ``build_conflict_sets_helper(table, claims, worker)``.

* :func:`build_conflict_sets_standard` hands each index to exactly one
  worker by ``next()`` on a shared counter and stores the result. A worker
  that stops mid claim leaves its slot unset forever; this variant is not
  crash tolerant.
* :func:`build_conflict_sets_helper` claims wraparound (``mod n``), so fast
  workers recompute slots abandoned by slow or stopped peers, and publishes
  via compare-and-swap from the unset sentinel so exactly one publisher
  wins per slot. A worker leaves the phase only once the table's publish
  count reaches ``n``, which by :class:`~binsched.atomics.PublishOnceArray`'s
  invariant means every slot is published. Each CAS it loses counts one
  on ``worker.cas_retries``.

:class:`ConflictIndex`, which a :class:`ConflictTable` builds once from the
immutable block, lists every frontier, each id once, in one id-order scan,
so a phase-1 claim makes one lookup, ``index.frontiers[i]``.
:func:`conflict_sets_oracle` is the independent quadratic restatement used
to cross-check it.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .atomics import UNASSIGNED, PublishOnceArray
from .faults import Site, Worker
from .txn import Address, Transaction

# Bound once: ``Site.X`` goes through the enum's Python-level descriptor on every read.
_PHASE1_POST_CLAIM = Site.PHASE1_POST_CLAIM
_PHASE1_PRE_PUBLISH = Site.PHASE1_PRE_PUBLISH


def check_conflicts(a: Transaction, b: Transaction) -> bool:
    """True iff the two transactions overlap on any write-involving pair."""
    return (
        not a.write_set.isdisjoint(b.write_set)
        or not a.read_set.isdisjoint(b.write_set)
        or not a.write_set.isdisjoint(b.read_set)
    )


def conflict_sets_oracle(txns: Sequence[Transaction]) -> list[frozenset[int]]:
    """Serial O(n^2) reference: lower conflict sets by direct pairwise check."""
    out: list[frozenset[int]] = []
    for i, txn in enumerate(txns):
        out.append(frozenset(j for j in range(i) if check_conflicts(txn, txns[j])))
    return out


def lower_conflict_sets(txns: Sequence[Transaction]) -> list[frozenset[int]]:
    """The block's lower conflict sets, in one id-order scan.

    Per address the scan keeps the ids that touched it and the ids that
    wrote it: a write conflicts with every earlier access, a read-only
    access with every earlier write.
    """
    touched: dict[Address, list[int]] = {}
    written: dict[Address, list[int]] = {}
    out: list[frozenset[int]] = []
    for txn in txns:
        tid = txn.id
        lower: set[int] = set()
        writes = txn.write_set
        for addr in writes:
            ids = touched.setdefault(addr, [])
            lower.update(ids)
            ids.append(tid)
            written.setdefault(addr, []).append(tid)
        reads = txn.read_set
        if reads is not writes:  # a wallet transfer's sets are one object
            for addr in reads:
                if addr not in writes:
                    lower.update(written.get(addr, ()))
                    touched.setdefault(addr, []).append(tid)
        out.append(frozenset(lower))
    return out


class ConflictIndex:
    """Each transaction's frontier, listed by one id-order scan of the block.

    The scan keeps, per address, the latest writer and the read-only readers
    since it. A write access lists both, takes the reader run out and becomes
    the latest writer; a read-only access lists the writer and joins the run.
    Finishing transaction ``i``, it stores the ids it listed, each once (two
    deduplicated by one comparison, more by a set), as the tuple
    ``frontiers[i]`` (the shared ``()`` when empty). The scan checks each
    id against its position and raises ``ValueError`` at the first that
    differs. The block stays as ``txns`` for :meth:`lower_conflicts`, which
    runs :func:`lower_conflict_sets` once.
    """

    __slots__ = ("txns", "frontiers", "_lower")

    def __init__(self, txns: Sequence[Transaction]) -> None:
        self.txns = txns
        self._lower: list[frozenset[int]] | None = None
        writer: dict[Address, int] = {}  # an address's latest writer
        readers: dict[Address, list[int]] = {}  # its read-only readers since that writer
        writer_of = writer.get
        own: list[int] = []  # the current transaction's listed ids
        keep = own.append
        frontiers: list[tuple[int, ...]] = []
        for i, txn in enumerate(txns):
            tid = txn.id
            if tid != i:
                raise ValueError(f"transaction ids must equal their positions: id {tid} at position {i}")
            writes = txn.write_set
            for addr in writes:
                w = writer_of(addr)
                if w is not None:
                    keep(w)
                writer[addr] = tid
                if readers:  # a block of wallet transfers never has a reader run
                    run = readers.pop(addr, None)
                    if run is not None:
                        own += run
            reads = txn.read_set
            if reads is not writes:  # a wallet transfer's sets are one object
                for addr in reads:
                    if addr in writes:
                        continue
                    w = writer_of(addr)
                    if w is not None:
                        keep(w)
                    readers.setdefault(addr, []).append(tid)
            if not own:
                frontiers.append(())
                continue
            if len(own) == 2 and own[0] == own[1]:
                del own[1]
            frontiers.append(tuple(own) if len(own) < 3 else tuple(set(own)))
            own.clear()
        self.frontiers = frontiers

    def lower_conflicts(self, txn: Transaction) -> frozenset[int]:
        if self._lower is None:
            self._lower = lower_conflict_sets(self.txns)
        return self._lower[txn.id]


class ConflictTable(PublishOnceArray[tuple[int, ...]]):
    """Phase 1's publish-once frontiers over one block.

    The table builds the block's :class:`ConflictIndex` and owns it as
    ``index``, so the block a phase procedure schedules is always the
    table's own, ``index.txns``.
    """

    __slots__ = ("index",)

    def __init__(self, txns: Sequence[Transaction]) -> None:
        super().__init__(len(txns))
        self.index = ConflictIndex(txns)

    frontier = PublishOnceArray.get


def build_conflict_sets_standard(
    table: ConflictTable, claims: Iterator[int], worker: Worker
) -> None:
    """The table's block's frontiers, each index claimed once from ``claims``."""
    n = table.n
    frontiers = table.index.frontiers
    i = next(claims)
    while i < n:
        worker.at(_PHASE1_POST_CLAIM)
        worker.at(_PHASE1_PRE_PUBLISH)
        table.publish(i, frontiers[i])
        i = next(claims)


def build_conflict_sets_helper(
    table: ConflictTable, claims: Iterator[int], worker: Worker
) -> None:
    """The table's block's frontiers, claimed wraparound from ``claims``, CAS-published."""
    n = table.n
    frontiers = table.index.frontiers
    while table.published() < n:
        i = next(claims) % n
        worker.at(_PHASE1_POST_CLAIM)
        if table.get(i) is UNASSIGNED:
            worker.at(_PHASE1_PRE_PUBLISH)
            if not table.try_publish(i, frontiers[i]):
                worker.cas_retries += 1
