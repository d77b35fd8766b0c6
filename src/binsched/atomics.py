"""Lock-backed atomics: a counter cell and a publish-once array.

CPython has no public fetch-and-add or compare-and-swap, so these wrap a
mutex. :class:`AtomicInt` holds one counter behind its own lock.

:class:`PublishOnceArray` holds the one value each transaction publishes in
a scheduling phase. A slot is unset (:data:`UNASSIGNED`, ``None``) until
published; a falsy value such as bin 0 or an empty set is a published value.
Writes take the array's one lock; reads take none, since a slot changes
once, from unset to its value, and loading a list item or an int is atomic
in CPython. Each publish writes its slot and then increments the publish
count inside one critical section, so the count never exceeds the number of
set slots: ``published() == n`` means every slot is set, wherever a worker
stops or crashes. The helper procedures rely on this to leave a phase on
the count alone.
"""

from __future__ import annotations

import threading
from typing import Generic, TypeVar

T = TypeVar("T")

UNASSIGNED = None


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
    """``n`` slots, each published once, plus the count of published slots."""

    __slots__ = ("n", "_lock", "_values", "_count")

    def __init__(self, n: int) -> None:
        self.n = n
        self._lock = threading.Lock()
        self._values: list[T | None] = [UNASSIGNED] * n
        self._count = 0

    def get(self, i: int) -> T | None:
        """The slot's value, :data:`UNASSIGNED` while unset; takes no lock."""
        return self._values[i]

    def publish(self, i: int, value: T) -> None:
        """Store into a slot the caller owns, for exactly-once claiming."""
        with self._lock:
            fresh = self._values[i] is UNASSIGNED
            self._values[i] = value
            self._count += fresh

    def try_publish(self, i: int, value: T) -> bool:
        """Compare-and-set from unset; a loser's value is discarded."""
        with self._lock:
            if self._values[i] is not UNASSIGNED:
                return False
            self._values[i] = value
            self._count += 1
            return True

    def published(self) -> int:
        """How many slots are set; takes no lock."""
        return self._count

    def is_complete(self) -> bool:
        return self.published() == self.n

    def snapshot(self) -> list[T | None]:
        """A copy of every slot's value, :data:`UNASSIGNED` for unset ones."""
        with self._lock:
            return list(self._values)
