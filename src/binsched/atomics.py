"""Lock-free claims and publishes, a run's wait and stop signal, and a benchmark counter.

Claims and publishes take no lock: each is a single C call that calls back
into no Python code, which CPython's GIL runs as one atomic step. Nothing
here is atomic on an interpreter without the GIL. A claim is ``next()`` on
a shared :func:`itertools.count`, which hands every index out exactly once.

:class:`PublishOnceArray` keeps the one value each transaction publishes in
a scheduling phase in a dict keyed by slot, boxed in a 1-tuple. A slot is
unset (:data:`UNASSIGNED`, ``None``) until published; a falsy value such as
bin 0 or an empty set is a published value. A publish is one bound C method
of the dict, which the array exposes: ``put``, its ``__setitem__``, for a
slot claimed once, or ``put_once``, its ``setdefault``, which stores a box
only into an unset slot and returns the box the slot then holds, so the
caller won if and only if it gets its own box back. Phase 1 boxes each
worker's id once and publishes that box into every slot it takes; phase 2
boxes each bin afresh. Either way no two publishers of a slot pass one box
object, so exactly one wins, even when two box the same value, such as bin
0. As ``published()`` counts the keys,
``published() == n`` means every slot is set, wherever a worker stops or
crashes; the helper procedures leave a phase on that count. A helper whose
claim passes ``n`` takes the slots still unset from ``unpublished()``, a
scan that runs in C, instead of claiming on.

:class:`Wakeup` is a run's one wait, meeting point and stop signal, and it
holds the run's deadline: ``stop()`` ends every sleep on it and sets
``stopped``, and no sleep outlasts ``deadline``.

:class:`AtomicInt` keeps a lock and serves no library code: each
scheduler worker counts its telemetry on its own
:class:`~binsched.faults.Worker` record. It stays only because the
``perfbench`` harness times it for its ``atomics_ns`` metrics, until the
benchmark drops them (ROADMAP item 1).
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from typing import Callable, Generic, Iterator, TypeVar

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


class Wakeup:
    """A condition, its sleeper count, which a waker reads unlocked, a ``stopped`` flag,
    and the run's ``deadline``, a :func:`time.perf_counter` time that ends every sleep.

    A waker changes the shared state, then calls :meth:`wake`, which uncounts
    the sleepers it notifies; a per-slot path tests ``sleepers`` first, to skip
    the call while nobody sleeps. No wakeup is lost: a sleeper counts itself
    before its first test of ``stopped`` and its predicate and after each wait
    a wake ended, and holds the lock from the test until it waits, so the test
    sees the change or the notify finds it waiting.
    """

    __slots__ = ("_cond", "_wakes", "sleepers", "stopped", "deadline")

    def __init__(self, deadline: float = math.inf) -> None:
        self._cond = threading.Condition(threading.Lock())
        self._wakes = 0  # changed under the lock, once per wake that found a sleeper
        self.sleepers = 0  # changed under the lock
        self.stopped = False
        self.deadline = deadline

    def sleep_until(self, ready: Callable[[], object]) -> bool:
        """Wait for ``ready()``; False once stopped or past the deadline."""
        deadline = self.deadline
        with self._cond:
            counted = None
            while True:
                if counted != self._wakes:  # not yet counted, or a wake uncounted this sleeper
                    counted = self._wakes
                    self.sleepers += 1
                done = self.stopped or ready()
                left = deadline - time.perf_counter()
                if done or left <= 0:
                    self.sleepers -= 1
                    return bool(done) and not self.stopped
                self._cond.wait(min(left, threading.TIMEOUT_MAX))

    def wake(self) -> None:
        """Notify and uncount every sleeper, taking the lock only when there is one."""
        if self.sleepers:
            with self._cond:
                self.sleepers = 0
                self._wakes += 1
                self._cond.notify_all()

    def stop(self) -> None:
        """Set ``stopped``, then notify every sleeper under the lock, so none misses it."""
        self.stopped = True
        with self._cond:
            self._cond.notify_all()


class PublishOnceArray(Generic[T]):
    """``n`` slots, each published once as a box, and the count of published slots.

    The slot dict's own bound C methods are the array's whole write and read
    protocol, as cheap as the claim they follow: ``put(i, box)`` stores into a
    slot the caller owns, ``put_once(i, box)`` stores into an unset slot and
    returns the box the slot then holds, ``box_of(i)`` returns a slot's box or
    None while unset, and ``published()``, its ``__len__``, counts the set slots.
    """

    __slots__ = ("n", "_slots", "published", "put", "put_once", "box_of")

    def __init__(self, n: int) -> None:
        self.n = n
        slots: dict[int, tuple[T]] = {}
        self._slots = slots
        self.published: Callable[[], int] = slots.__len__
        self.put: Callable[[int, tuple[T]], None] = slots.__setitem__
        self.put_once: Callable[[int, tuple[T]], tuple[T]] = slots.setdefault
        self.box_of: Callable[[int], tuple[T] | None] = slots.get

    def unpublished(self) -> Iterator[int]:
        """The slots unset when the scan reaches them, in ascending order.

        The scan is :func:`itertools.filterfalse` over the slot dict's own
        ``__contains__``, so each step runs in C. It is lazy: it skips a
        slot published before the scan reaches it, and costs only the steps
        it takes, where a snapshot would cost a pass over all ``n`` slots.
        Peers may publish every slot it has not reached, so it may end
        without yielding one.
        """
        return itertools.filterfalse(self._slots.__contains__, range(self.n))

    def is_complete(self) -> bool:
        return self.published() == self.n

    def snapshot(self) -> list[T | None]:
        """A copy of every slot's value, :data:`UNASSIGNED` for unset ones."""
        values: list[T | None] = [UNASSIGNED] * self.n
        for i, (value,) in self._slots.copy().items():  # a copy, since publishes may race
            values[i] = value
        return values
