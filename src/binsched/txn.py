"""Transactions, addresses, and wallet-transfer payloads.

Everything here is immutable after construction and safe to share across
threads without coordination. Addresses are opaque keys: the scheduling
machinery only ever intersects read/write sets, so any hashable value works.
Wallet transfers read and write both touched balances, hence
``read_set == write_set == {from, to}`` for transactions built through
:func:`make_transaction`. Read-only or write-only transactions (useful for
exercising each conflict condition separately) can be built by constructing
:class:`Transaction` directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Union

Address = Union[str, int]


@dataclass(frozen=True)
class TransferPayload:
    """Move ``amount`` currency units from one account to another."""

    from_addr: Address
    to_addr: Address
    amount: int

    def __post_init__(self) -> None:
        if self.from_addr == self.to_addr:
            raise ValueError(f"self-transfer rejected: {self.from_addr!r} -> {self.to_addr!r}")
        if self.amount < 0:
            raise ValueError(f"negative amount rejected: {self.amount}")


@dataclass(frozen=True)
class Transaction:
    """One schedulable unit: an id, declared read/write sets, and a payload.

    ``id`` equals the transaction's position within its block; the scheduling
    algorithms rely on that to define "lower" (earlier-ordered) conflicts.
    """

    id: int
    read_set: frozenset[Address]
    write_set: frozenset[Address]
    payload: TransferPayload | None = field(default=None)

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError(f"transaction id must be >= 0, got {self.id}")
        # dataclass(frozen) does not coerce; guarantee hashable set types
        object.__setattr__(self, "read_set", frozenset(self.read_set))
        object.__setattr__(self, "write_set", frozenset(self.write_set))


def make_transaction(txn_id: int, payload: TransferPayload) -> Transaction:
    """Build a wallet transaction; both balances are read and written."""
    touched = frozenset((payload.from_addr, payload.to_addr))
    return Transaction(id=txn_id, read_set=touched, write_set=touched, payload=payload)


def transaction_to_dict(txn: Transaction) -> dict:
    if txn.payload is None:
        raise ValueError(f"transaction {txn.id} has no wallet payload; cannot serialize")
    return {
        "id": txn.id,
        "from": txn.payload.from_addr,
        "to": txn.payload.to_addr,
        "amount": txn.payload.amount,
    }


# record key -> accepted JSON types; a bool is rejected, as True would collide with 1
_RECORD_TYPES = {"id": (int,), "from": (str, int), "to": (str, int), "amount": (int,)}


def transaction_from_dict(obj: dict) -> Transaction:
    """A wallet transaction from its JSON record; ValueError names what is malformed."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected an object, got {type(obj).__name__}")
    for key, types in _RECORD_TYPES.items():
        if key not in obj:
            raise ValueError(f"missing key {key!r}")
        if isinstance(obj[key], bool) or not isinstance(obj[key], types):
            names = " or ".join(t.__name__ for t in types)
            raise ValueError(f"{key!r} must be {names}, got {obj[key]!r}")
    payload = TransferPayload(from_addr=obj["from"], to_addr=obj["to"], amount=obj["amount"])
    return make_transaction(obj["id"], payload)


def dump_workload(txns: Iterable[Transaction]) -> str:
    """Serialize a block as a JSON array; deterministic byte-for-byte."""
    return json.dumps([transaction_to_dict(t) for t in txns])


def load_workload(text: str) -> list[Transaction]:
    """Parse a block; invalid JSON or a malformed record raises ValueError saying which."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"workload is not valid JSON: {exc}") from None
    if not isinstance(raw, list):
        raise ValueError(f"workload must be a JSON list of transactions, got {type(raw).__name__}")
    txns = []
    for pos, obj in enumerate(raw):
        try:
            txn = transaction_from_dict(obj)
        except ValueError as exc:
            raise ValueError(f"workload record {pos}: {exc}") from None
        if txn.id != pos:
            raise ValueError(f"workload ids must equal positions: id {txn.id} at position {pos}")
        txns.append(txn)
    return txns
