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
access chain: every other earlier conflict on an address conflicts with,
and so sits in a lower bin than, a frontier member. The lower sets, which
are the paper's conflict table, are not built by the phase; the table
derives them from the block's :class:`ConflictIndex` when a caller reads a
published slot.

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

:class:`ConflictIndex` holds each address's access chain, the ids that
touch it in id order, which a :class:`ConflictTable` builds once from the
immutable block; a frontier is read off the chains without a search or a
look at unrelated transactions. :func:`conflict_sets_oracle` is the
independent quadratic restatement used to cross-check it.
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


class ConflictIndex:
    """Per-address access chains, built once per block.

    One scan of the block in id order appends each transaction to the chain
    of every address it touches, so a chain lists the address's accessors in
    id order. An address touched once has no chain list: its entry in
    ``chains`` is the lone accessor's id, and the list is made on the second
    access. The scan records an access as a span ``(addr, chain, start,
    stop)`` only when something sits before it:

    * a write access stops at the transaction's own chain position and
      starts at the address's latest earlier writer, or at 0 when there is
      none, so ``chain[start:stop]`` is that writer and the read-only
      readers since: the walk back from the transaction to the first
      writer, taken as one slice. A write at chain position 0 keeps no span;
    * a read-only access spans just its latest earlier writer, and keeps no
      span when there is none.

    A transaction with no kept span shares the empty tuple. :meth:`frontier`
    therefore makes no search, a read-only access no walk, and a
    transaction with nothing before it no work. :meth:`lower_conflicts`
    takes the chain prefix below a write access and the writers below a
    read-only one, which is exactly the pairwise definition; an access
    without a span has no lower conflict on its address. The index keeps
    the block it was built from as ``txns``; transaction ids are block
    positions.
    """

    __slots__ = ("txns", "_spans")

    def __init__(self, txns: Sequence[Transaction]) -> None:
        self.txns = txns
        # an address's accessor ids in id order; the lone accessor's id until a second access
        chains: dict[Address, int | list[int]] = {}
        # chain position of the latest writer, for addresses with a chain list
        last_writer: dict[Address, int] = {}
        chain_of = chains.get
        own: list[tuple[Address, list[int], int, int]] = []  # the current transaction's spans
        keep = own.append
        spans: list[Sequence[tuple[Address, list[int], int, int]]] = []
        for txn in txns:
            tid = txn.id
            writes = txn.write_set
            for addr in writes:
                chain = chain_of(addr)
                if chain.__class__ is list:
                    pos = len(chain)
                    span = (addr, chain, last_writer.get(addr, 0), pos)
                    last_writer[addr] = pos
                    chain.append(tid)
                elif chain is None:
                    chains[addr] = tid
                    continue
                else:
                    chains[addr] = chain = [chain, tid]
                    span = (addr, chain, 0, 1)
                    last_writer[addr] = 1
                keep(span)
            reads = txn.read_set
            if reads is not writes:  # a wallet transfer's sets are one object
                for addr in reads:
                    if addr in writes:
                        continue
                    chain = chain_of(addr)
                    if chain.__class__ is list:
                        w = last_writer.get(addr)
                        chain.append(tid)
                        if w is None:
                            continue
                        span = (addr, chain, w, w + 1)
                    elif chain is None:
                        chains[addr] = tid
                        continue
                    else:
                        chains[addr] = chain = [chain, tid]
                        if addr not in txns[chain[0]].write_set:
                            continue
                        last_writer[addr] = 0
                        span = (addr, chain, 0, 1)
                    keep(span)
            if own:
                spans.append(tuple(own))
                own.clear()
            else:
                spans.append(())
        self._spans = spans

    def lower_conflicts(self, txn: Transaction) -> frozenset[int]:
        out: set[int] = set()
        for addr, chain, _, stop in self._spans[txn.id]:
            if addr in txn.write_set:
                out.update(chain[:stop])
            else:
                out.update(self._writers_through(addr, chain, stop - 1))
        return frozenset(out)

    def _writers_through(self, addr: Address, chain: list[int], pos: int) -> Iterator[int]:
        """The writers of ``addr`` at or below ``chain[pos]``, itself a writer.

        Walks back writer to writer along each one's write span, so a run of
        read-only readers between two writers costs nothing. The walk ends
        at a writer with no earlier writer: its span starts at 0, on a
        reader, or it keeps no span, being the address's first accessor.
        """
        while True:
            j = chain[pos]
            yield j
            if pos == 0:
                return
            pos = next(s for a, _, s, _ in self._spans[j] if a == addr)
            if addr not in self.txns[chain[pos]].write_set:
                return

    def frontier(self, txn: Transaction) -> tuple[int, ...]:
        """The lower conflicts that bound the transaction's bin.

        Per address: the latest writer below ``txn.id`` and, if ``txn``
        writes the address, the readers strictly between that writer and
        ``txn.id``. A subset of :meth:`lower_conflicts`.
        """
        spans = self._spans[txn.id]
        if not spans:
            return ()
        out: list[int] = []
        for _, chain, start, stop in spans:
            out += chain[start:stop]
        return tuple(set(out)) if len(out) > 1 else tuple(out)


class ConflictTable(PublishOnceArray[tuple[int, ...]]):
    """Phase 1's publish-once frontiers over one block.

    The table builds the block's :class:`ConflictIndex` and owns it as
    ``index``, so the block a phase procedure schedules is always the
    table's own, ``index.txns``. A slot's lower conflict set is derived from
    the index when it is read, and only once the slot is published.
    """

    __slots__ = ("index",)

    def __init__(self, txns: Sequence[Transaction]) -> None:
        super().__init__(len(txns))
        self.index = ConflictIndex(txns)

    frontier = PublishOnceArray.get

    def lower(self, i: int) -> frozenset[int] | None:
        """The slot's full lower conflict set, None while unset."""
        if self.get(i) is UNASSIGNED:
            return None
        return self.index.lower_conflicts(self.index.txns[i])

    def to_lists(self) -> list[list[int] | None]:
        """Dump-friendly view of the lower sets: sorted lists, None for unset slots."""
        lower = self.index.lower_conflicts
        return [
            None if f is UNASSIGNED else sorted(lower(txn))
            for txn, f in zip(self.index.txns, self.snapshot())
        ]


def build_conflict_sets_standard(
    table: ConflictTable, claims: Iterator[int], worker: Worker
) -> None:
    """The table's block's frontiers, each index claimed once from ``claims``."""
    n = table.n
    index = table.index
    txns = index.txns
    i = next(claims)
    while i < n:
        worker.at(_PHASE1_POST_CLAIM)
        frontier = index.frontier(txns[i])
        worker.at(_PHASE1_PRE_PUBLISH)
        table.publish(i, frontier)
        i = next(claims)


def build_conflict_sets_helper(
    table: ConflictTable, claims: Iterator[int], worker: Worker
) -> None:
    """The table's block's frontiers, claimed wraparound from ``claims``, CAS-published."""
    n = table.n
    index = table.index
    txns = index.txns
    while table.published() < n:
        i = next(claims) % n
        worker.at(_PHASE1_POST_CLAIM)
        if table.get(i) is UNASSIGNED:
            frontier = index.frontier(txns[i])
            worker.at(_PHASE1_PRE_PUBLISH)
            if not table.try_publish(i, frontier):
                worker.cas_retries += 1
