"""Lock-backed atomic cells.

CPython has no public fetch-and-add or compare-and-swap, so these wrap a
per-cell mutex. Reference CAS compares by identity, matching pointer-width
CAS semantics: a superseded-but-equal snapshot must not win the race.
"""

from __future__ import annotations

import threading
from typing import Generic, TypeVar

T = TypeVar("T")


class AtomicInt:
    __slots__ = ("_lock", "_value")

    def __init__(self, value: int = 0) -> None:
        self._lock = threading.Lock()
        self._value = value

    def load(self) -> int:
        with self._lock:
            return self._value

    def store(self, value: int) -> None:
        with self._lock:
            self._value = value

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


class AtomicRef(Generic[T]):
    """Atomic reference cell; CAS succeeds only on the identical object."""

    __slots__ = ("_lock", "_value")

    def __init__(self, value: T | None = None) -> None:
        self._lock = threading.Lock()
        self._value: T | None = value

    def load(self) -> T | None:
        with self._lock:
            return self._value

    def store(self, value: T | None) -> None:
        with self._lock:
            self._value = value

    def compare_and_set(self, expected: T | None, update: T | None) -> bool:
        with self._lock:
            if self._value is expected:
                self._value = update
                return True
            return False

    def __repr__(self) -> str:
        return f"AtomicRef({self.load()!r})"
