import itertools
import sys
import threading
import time

from _helpers import disjoint_block
from binsched import (
    UNASSIGNED,
    AtomicInt,
    BinAssignment,
    ConflictTable,
    PublishOnceArray,
)
from binsched.atomics import Wakeup


def run_threads(target, num_threads):
    workers = [threading.Thread(target=target, args=(w,), daemon=True) for w in range(num_threads)]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in workers:
            t.start()
        for t in workers:
            t.join(30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old_interval)


# --- AtomicInt ------------------------------------------------------------------


def test_fetch_add_returns_the_prior_value():
    cell = AtomicInt(5)
    assert cell.fetch_add(3) == 5
    assert cell.fetch_add() == 8
    assert cell.load() == 9


def test_compare_and_set_wins_only_on_the_expected_value():
    cell = AtomicInt(1)
    assert not cell.compare_and_set(0, 7)
    assert cell.load() == 1
    assert cell.compare_and_set(1, 7)
    assert cell.load() == 7


# --- claim counters ---------------------------------------------------------------


def test_racing_claims_hand_out_every_index_exactly_once():
    num_threads, per_thread = 8, 20_000
    claims = itertools.count()
    taken = [[] for _ in range(num_threads)]
    start = threading.Barrier(num_threads)

    def claim(w):
        start.wait(30)
        taken[w].extend(next(claims) for _ in range(per_thread))

    run_threads(claim, num_threads)
    assert sorted(k for seen in taken for k in seen) == list(range(num_threads * per_thread))
    assert any(seen[-1] - seen[0] >= per_thread for seen in taken)  # the claims interleaved
    assert next(claims) == num_threads * per_thread


# --- PublishOnceArray -------------------------------------------------------------


def test_published_falsy_values_are_distinct_from_unset():
    table = ConflictTable(disjoint_block(2))
    bins = BinAssignment(table)
    assert bins.try_publish(0, 0)
    assert table.try_publish(0, ())
    assert bins.bin_of(0) == 0 and bins.bin_of(0) is not UNASSIGNED
    assert table.lower(0) == frozenset() and table.frontier(0) == ()
    assert bins.bin_of(1) is UNASSIGNED and table.get(1) is UNASSIGNED
    assert not bins.try_publish(0, 3)
    assert bins.initial_bin_list() == [0, UNASSIGNED]
    assert table.to_lists() == [[], None]


def test_is_complete_exactly_when_every_slot_is_published():
    array = PublishOnceArray(3)
    for i, value in enumerate(["a", "b", "c"]):
        assert not array.is_complete()
        assert array.published() == i
        array.publish(i, value)
    assert array.is_complete()
    assert array.published() == 3
    assert array.snapshot() == ["a", "b", "c"]


def test_empty_array_is_complete():
    assert PublishOnceArray(0).is_complete()


def test_republishing_a_slot_keeps_the_count():
    array = PublishOnceArray(2)
    array.publish(0, "a")
    array.publish(0, "b")
    assert array.published() == 1
    assert array.get(0) == "b"
    assert not array.is_complete()


def test_published_counts_the_set_slots_after_every_publish():
    # lock-free readers take published() == n to mean every slot is set, so
    # the count must equal the set slots after publishes, republishes and
    # lost compare-and-sets alike
    array = PublishOnceArray(3)

    def set_slots():
        return sum(v is not UNASSIGNED for v in array.snapshot())

    array.publish(0, "a")
    assert array.published() == set_slots() == 1
    array.publish(0, "b")
    assert array.published() == set_slots() == 1
    assert array.try_publish(1, "c")
    assert array.published() == set_slots() == 2
    assert not array.try_publish(1, "d")
    assert not array.try_publish(0, "e")
    assert array.published() == set_slots() == 2
    assert array.snapshot() == ["b", "c", UNASSIGNED]


def test_racing_try_publish_has_exactly_one_winner():
    for _ in range(50):
        array = PublishOnceArray(1)
        wins = []
        start = threading.Barrier(8)

        def race(w):
            start.wait(30)
            if array.try_publish(0, w):
                wins.append(w)

        run_threads(race, 8)
        assert len(wins) == 1
        assert array.published() == 1
        assert array.get(0) == wins[0]


def test_racing_publishes_of_one_shared_object_have_exactly_one_winner():
    # the empty frontier () and small bin numbers are shared objects, so a
    # publisher cannot tell its own win from a peer's by the stored value
    for value in ((), 0):
        for _ in range(300):
            array = PublishOnceArray(1)
            wins = []
            start = threading.Barrier(8)

            def race(w):
                start.wait(30)
                wins.append(array.try_publish(0, value))

            run_threads(race, 8)
            assert wins.count(True) == 1
            assert array.published() == 1
            assert array.get(0) is value


def test_concurrent_publishes_are_all_counted():
    # a lost count update would leave published() short of n
    n, num_threads = 4000, 8
    array = PublishOnceArray(n)

    def fill(w):
        for i in range(w, n, num_threads):
            array.try_publish(i, i)
            array.try_publish((i + 1) % n, i)

    run_threads(fill, num_threads)
    assert array.published() == n
    assert array.is_complete()
    assert all(v is not UNASSIGNED for v in array.snapshot())


def test_lock_free_reads_see_unset_or_final_values():
    # readers poll get() and published() without the lock while writers race;
    # the writers publish half their slots, then wait until every reader has
    # looked, so the readers are sure to see the array part filled
    n, num_writers, num_readers = 4000, 8, 2
    array = PublishOnceArray(n)
    start = threading.Barrier(num_writers + num_readers)
    looked = [threading.Event() for _ in range(num_readers)]
    reads = [[] for _ in range(num_readers)]
    counts = [[] for _ in range(num_readers)]
    full_views = []

    def write(w):
        mine = range(w, n, num_writers)
        for k, i in enumerate(mine):
            if k == len(mine) // 2:
                for event in looked:
                    event.wait(30)
            array.try_publish(i, (i, w))
            array.try_publish((i + 1) % n, ((i + 1) % n, w))

    def read(r):
        k = r
        while True:
            count = array.published()
            counts[r].append(count)
            if count == n:
                full_views.append([array.get(i) for i in range(n)])
                return
            reads[r].append((k, array.get(k)))
            k = (k + 7) % n
            if count > 0:
                looked[r].set()

    def body(w):
        start.wait(30)
        if w < num_writers:
            write(w)
        else:
            read(w - num_writers)

    run_threads(body, num_writers + num_readers)
    final = array.snapshot()
    assert all(v is not UNASSIGNED for v in final)
    for seen in reads:
        assert all(v is UNASSIGNED or v == final[i] for i, v in seen)
    for seen in counts:
        assert all(a <= b for a, b in zip(seen, seen[1:]))
    assert any(0 < c < n for seen in counts for c in seen)  # the readers overlapped the writers
    assert len(full_views) == num_readers
    assert all(view == final for view in full_views)


def test_snapshots_see_unset_or_final_values():
    # the writers publish half their slots, then wait until the reader has
    # taken a snapshot of the part-filled array
    n, num_writers = 4000, 8
    array = PublishOnceArray(n)
    start = threading.Barrier(num_writers + 1)
    looked = threading.Event()
    snapshots = []

    def body(w):
        start.wait(30)
        if w < num_writers:
            mine = range(w, n, num_writers)
            for k, i in enumerate(mine):
                if k == len(mine) // 2:
                    looked.wait(30)
                array.try_publish(i, (i, w))
                array.try_publish((i + 1) % n, ((i + 1) % n, w))
            return
        while True:
            snapshots.append(array.snapshot())
            if snapshots[-1].count(UNASSIGNED) == 0:
                return
            if snapshots[-1].count(UNASSIGNED) < n:
                looked.set()

    run_threads(body, num_writers + 1)
    final = array.snapshot()
    assert all(v is not UNASSIGNED for v in final)
    assert any(0 < view.count(UNASSIGNED) < n for view in snapshots)  # overlapped the writers
    for view in snapshots:
        assert all(v is UNASSIGNED or v == final[i] for i, v in enumerate(view))


# --- Wakeup -----------------------------------------------------------------------


def test_sleep_until_returns_false_only_when_the_deadline_passes_first():
    wakeup = Wakeup()
    assert wakeup.sleep_until(lambda: True)
    assert not wakeup.sleep_until(lambda: False, time.perf_counter() - 1)
    started = time.perf_counter()
    assert not wakeup.sleep_until(lambda: False, started + 0.05)
    assert time.perf_counter() - started >= 0.05
    assert wakeup.sleepers == 0
