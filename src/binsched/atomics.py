"""Lock-free claims and publishes, the wait on a publish, and a counter kept for the benchmark.

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

:class:`AtomicInt` keeps a lock and serves no library code: each
scheduler worker counts its telemetry on its own
:class:`~binsched.faults.Worker` record. It stays only because the
``perfbench`` harness times it for its ``atomics_ns`` metrics, until the
benchmark drops them (ROADMAP item 1).
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable, Generic, TypeVar

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


class Wakeup:
    """A condition and the count of its sleepers, which a waker reads without the lock.

    A waker changes the shared state, then calls :meth:`wake`; a per-slot path
    tests ``sleepers`` first, to skip the call while nobody sleeps. No wakeup
    is lost: a sleeper counts itself and tests its predicate under the lock,
    which it holds until it waits, so the test sees the change or the notify
    finds it waiting.
    """

    __slots__ = ("_cond", "sleepers")

    def __init__(self) -> None:
        self._cond = threading.Condition(threading.Lock())
        self.sleepers = 0  # changed under the lock

    def sleep_until(self, ready: Callable[[], object], deadline: float = math.inf) -> bool:
        """Wait for ``ready()``; False if the deadline, a perf_counter time, passes first."""
        with self._cond:
            self.sleepers += 1
            left = min(deadline - time.perf_counter(), threading.TIMEOUT_MAX)
            done = self._cond.wait_for(ready, left)
            self.sleepers -= 1
        return bool(done)

    def wake(self) -> None:
        """Notify every sleeper, taking the lock only when there is one."""
        if self.sleepers:
            with self._cond:
                self._cond.notify_all()


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
