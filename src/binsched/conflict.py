"""Phase 1: the pairwise conflict predicate, each transaction's frontier, and its claims.

Two transactions conflict when their declared access sets overlap in any
write-involving way: write/write, read/write, or write/read. Read/read
overlap is not a conflict. The earlier conflicts that phase 2 reads for
transaction ``i`` are its *frontier*: for each address ``i`` touches, the
latest earlier writer, plus, when ``i`` writes the address, the readers
since that writer.

The frontier gives the same bin as the full *lower conflict set*, the ids
``j < i`` that ``i`` conflicts with, because bins rise along each address's
accesses in id order: every other earlier conflict on an address conflicts
with, and so sits in a lower bin than, a frontier member. The lower sets,
the paper's conflict table, are not built by the phase; only
:func:`lower_conflict_sets`, a plain scan, lists them.

:class:`ConflictIndex` lists every frontier, each id once, in one id-order
scan of the immutable block, which a :class:`PublisherTable` runs once when
it is built, before any worker starts. Phase 2 and the execution plan read
``index.frontiers`` once the table is complete.

Phase 1's workers claim the slots of a :class:`PublisherTable`, and each
publishes its own id into every slot it takes, so the table records who
published each slot, and the phase keeps the paper's fault sites and crash
semantics: a slot a worker claimed and never published stays unset, and
the table is complete only once every slot is published. Each procedure
takes only the table, the claim counter it draws from, and the calling
thread's :class:`~binsched.faults.Worker`, as in
``claim_slots_helper(table, claims, worker)``. Each boxes its worker's id
once, on entry, and publishes that one box, so a claim reads no frontier
and allocates nothing. A worker with a fault ``hook`` has it
called at each instrumented site; a plain worker's claim is C calls only
and tests nothing, so a plain worker in a stopped run finishes its claims
and stops at the inter-phase site after the phase.

* :func:`claim_slots_standard` hands each index to exactly one
  worker by a shared counter and stores its box with the table's bound
  ``put``. A worker that stops mid claim leaves its slot unset forever;
  this variant is not crash tolerant.
* :func:`claim_slots_helper` makes a first pass over the claims
  below ``n``, each handed out once, and publishes its box into each
  claimed slot with the table's bound ``put_once``, a compare-and-swap from
  unset that it won if it gets its own box back, without reading the slot
  first. Two publishers of one slot are always two workers, each with a
  box of its own: a worker claims each index once in its first pass, and
  its sweeps visit only slots still unset when the scan reaches them. So
  exactly one publisher wins per slot. Its first claim past ``n`` ends the
  pass: it then sweeps the slots still unset, which
  :meth:`~binsched.atomics.PublishOnceArray.unpublished` finds by a scan
  in C, visiting each slot's sites and publishing each as a claim does. So
  fast workers take over slots abandoned by slow or stopped peers without
  claiming their way through the published ones. A worker leaves the phase
  once the table's publish count reaches ``n``, which by
  :class:`~binsched.atomics.PublishOnceArray`'s invariant means every slot
  is published. Each CAS it loses counts one on ``worker.cas_retries``.

:func:`conflict_sets_oracle` is the independent quadratic restatement used
to cross-check the index.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .atomics import PublishOnceArray
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
    ``frontiers[i]`` (the shared ``()`` when empty). The scan checks each id
    against its position and raises ``ValueError`` at the first that
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


class PublisherTable(PublishOnceArray[int]):
    """Phase 1's publish-once record of which worker published each slot of one block.

    The table builds the block's :class:`ConflictIndex` and owns it as
    ``index``, so the frontiers phase 2 reads are always those of the
    table's own block, ``index.txns``.
    """

    __slots__ = ("index",)

    def __init__(self, txns: Sequence[Transaction]) -> None:
        super().__init__(len(txns))
        self.index = ConflictIndex(txns)


def claim_slots_standard(
    table: PublisherTable, claims: Iterator[int], worker: Worker
) -> None:
    """Claims each of the table's slots once from ``claims`` and publishes the worker's id."""
    n = table.n
    put = table.put
    hook = worker.hook
    mine = (worker.id,)
    for i in claims:
        if i >= n:
            break
        if hook is not None:
            hook(_PHASE1_POST_CLAIM)
            hook(_PHASE1_PRE_PUBLISH)
        put(i, mine)


def claim_slots_helper(
    table: PublisherTable, claims: Iterator[int], worker: Worker
) -> None:
    """Publishes the worker's id into the table's slots: a first pass of claims, then a sweep."""
    n = table.n
    put_once = table.put_once
    published = table.published
    hook = worker.hook
    mine = (worker.id,)
    slots = claims
    while published() < n:
        i = next(slots, n)
        if i >= n:  # past the claims, or past a sweep peers finished: sweep what is unset
            slots = table.unpublished()
            continue
        if hook is not None:
            hook(_PHASE1_POST_CLAIM)
            hook(_PHASE1_PRE_PUBLISH)
        if put_once(i, mine) is not mine:
            worker.cas_retries += 1
