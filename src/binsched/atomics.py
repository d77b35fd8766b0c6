"""Lock-free claims and publishes, and a lock-backed telemetry counter.

Claims and publishes take no lock: each is a single C call that calls back
into no Python code, which CPython's GIL runs as one atomic step. Nothing
here is atomic on an interpreter without the GIL. A claim is ``next()`` on
a shared :func:`itertools.count`, which hands every index out exactly once.

:class:`PublishOnceArray` keeps the one value each transaction publishes in
a scheduling phase in a dict keyed by slot. A slot is unset
(:data:`UNASSIGNED`, ``None``) until published; a falsy value such as bin 0
or an empty set is a published value. A publish is one ``dict.setdefault``
of the value boxed in a fresh 1-tuple, and only the call that stores its
box gets that box back: exactly one publisher wins even when all pass the
same object, such as the empty frontier ``()``. As ``published()`` counts
the keys, ``published() == n`` means every slot is set, wherever a worker
stops or crashes; the helper procedures leave a phase on that count.

:class:`AtomicInt` keeps a lock and serves only the telemetry counters.
"""

from __future__ import annotations

import threading
from typing import Generic, TypeVar

T = TypeVar("T")

UNASSIGNED = None
_UNSET = (UNASSIGNED,)


class AtomicInt:
    __slots__ = ("_lock", "_value")

    def __init__(self, value: int = 0) -> None:
        self._lock = threading.Lock()
        self._value = value

    def load(self) -> int:
        with self._lock:
            return self._value

    def fetch_add(self, delta: int = 1) -> int:
        """Add ``delta`` and return the value held *before* the add."""
        with self._lock:
            old = self._value
            self._value = old + delta
            return old

    def compare_and_set(self, expected: int, update: int) -> bool:
        with self._lock:
            if self._value == expected:
                self._value = update
                return True
            return False

    def __repr__(self) -> str:
        return f"AtomicInt({self.load()})"


class PublishOnceArray(Generic[T]):
    """``n`` slots, each published once, and the count of published slots."""

    __slots__ = ("n", "_slots")

    def __init__(self, n: int) -> None:
        self.n = n
        self._slots: dict[int, tuple[T]] = {}

    def get(self, i: int) -> T | None:
        """The slot's value, :data:`UNASSIGNED` while unset."""
        return self._slots.get(i, _UNSET)[0]

    def publish(self, i: int, value: T) -> None:
        """Store into a slot the caller owns, for exactly-once claiming."""
        self._slots[i] = (value,)

    def try_publish(self, i: int, value: T) -> bool:
        """Compare-and-set from unset; a loser's value is discarded."""
        box = (value,)
        return self._slots.setdefault(i, box) is box

    def published(self) -> int:
        """How many slots are set."""
        return len(self._slots)

    def is_complete(self) -> bool:
        return self.published() == self.n

    def snapshot(self) -> list[T | None]:
        """A copy of every slot's value, :data:`UNASSIGNED` for unset ones."""
        values: list[T | None] = [UNASSIGNED] * self.n
        for i, (value,) in self._slots.copy().items():  # a copy, since publishes may race
            values[i] = value
        return values
