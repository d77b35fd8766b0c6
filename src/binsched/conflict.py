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
immutable block. Every access records where it sits in its chain, so a
frontier is read off the chain without a search, and exactly the set
``{j < i : check_conflicts(txn_i, txn_j)}`` is enumerated without touching
unrelated transactions. :func:`conflict_sets_oracle` is the independent
quadratic restatement used to cross-check it.
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
    id order, and records each access as a span ``(addr, chain, start,
    stop)``:

    * a write access stops at the transaction's own chain position and
      starts at the address's latest earlier writer, or at 0 when there is
      none, so ``chain[start:stop]`` is that writer and the read-only
      readers since: the walk back from the transaction to the first
      writer, taken as one slice;
    * a read-only access spans just its latest earlier writer, or nothing.

    :meth:`frontier` therefore makes no search, and a read-only access no
    walk. :meth:`lower_conflicts` takes the chain prefix below a write
    access and the writers below a read-only one, which is exactly the
    pairwise definition. The index keeps the block it was built from as
    ``txns``; transaction ids are block positions.
    """

    __slots__ = ("txns", "_spans")

    def __init__(self, txns: Sequence[Transaction]) -> None:
        self.txns = txns
        chains: dict[Address, list[int]] = {}
        last_writer: dict[Address, int] = {}  # chain position of the latest writer
        spans: list[list[tuple[Address, list[int], int, int]]] = []
        for txn in txns:
            own = []
            for addr in txn.write_set:
                chain = chains.setdefault(addr, [])
                pos = len(chain)
                own.append((addr, chain, last_writer.get(addr, 0), pos))
                last_writer[addr] = pos
                chain.append(txn.id)
            for addr in txn.read_set:
                if addr not in txn.write_set:
                    chain = chains.setdefault(addr, [])
                    w = last_writer.get(addr)
                    own.append((addr, chain, 0, 0) if w is None else (addr, chain, w, w + 1))
                    chain.append(txn.id)
            spans.append(own)
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
        """The writers of ``addr`` at or below ``chain[pos]``, itself a writer or -1.

        Walks back writer to writer along each one's write span, so a run of
        read-only readers between two writers costs nothing. A span with no
        earlier writer starts at 0, on a reader or on the writer itself.
        """
        while pos >= 0:
            j = chain[pos]
            yield j
            start = next(s for a, _, s, _ in self._spans[j] if a == addr)
            pos = start if start < pos and addr in self.txns[chain[start]].write_set else -1

    def frontier(self, txn: Transaction) -> tuple[int, ...]:
        """The lower conflicts that bound the transaction's bin.

        Per address: the latest writer below ``txn.id`` and, if ``txn``
        writes the address, the readers strictly between that writer and
        ``txn.id``. A subset of :meth:`lower_conflicts`.
        """
        out: list[int] = []
        for _, chain, start, stop in self._spans[txn.id]:
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
