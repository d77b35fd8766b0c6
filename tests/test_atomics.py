import itertools
import sys
import threading
import time

from _helpers import (
    disjoint_block,
    publish,
    run_with_timeout,
    try_publish,
    value_of,
)
from binsched import AtomicInt, BinAssignment
from binsched.atomics import UNASSIGNED, PublishOnceArray, Wakeup
from binsched.conflict import PublisherTable
from binsched.faults import run_workers


def run_threads(target, num_threads):
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        raised = run_with_timeout(lambda: run_workers(target, num_threads, Wakeup().stop))
    finally:
        sys.setswitchinterval(old_interval)
    assert raised == []


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
    table = PublisherTable(disjoint_block(2))
    bins = BinAssignment(table)
    assert try_publish(bins, 0, 0)
    assert try_publish(table, 0, 0)  # worker 0's id
    assert value_of(bins, 0) == 0 and value_of(bins, 0) is not UNASSIGNED
    assert table.index.lower_conflicts(table.index.txns[0]) == frozenset()
    assert value_of(table, 0) == 0
    assert value_of(bins, 1) is UNASSIGNED and value_of(table, 1) is UNASSIGNED
    assert not try_publish(bins, 0, 3)
    assert bins.initial_bin_list() == [0, UNASSIGNED]
    assert table.snapshot() == [0, UNASSIGNED]


def test_is_complete_exactly_when_every_slot_is_published():
    array = PublishOnceArray(3)
    for i, value in enumerate(["a", "b", "c"]):
        assert not array.is_complete()
        assert array.published() == i
        publish(array, i, value)
    assert array.is_complete()
    assert array.published() == 3
    assert array.snapshot() == ["a", "b", "c"]


def test_empty_array_is_complete():
    assert PublishOnceArray(0).is_complete()


def test_republishing_a_slot_keeps_the_count():
    array = PublishOnceArray(2)
    publish(array, 0, "a")
    publish(array, 0, "b")
    assert array.published() == 1
    assert value_of(array, 0) == "b"
    assert not array.is_complete()


def test_unpublished_lists_exactly_the_unset_slots_in_order():
    array = PublishOnceArray(5)
    assert list(array.unpublished()) == [0, 1, 2, 3, 4]
    publish(array, 1, 0)  # a falsy value is a published value
    assert try_publish(array, 3, ())
    assert not try_publish(array, 3, "lost")
    assert list(array.unpublished()) == [0, 2, 4]
    for i in (0, 2, 4):
        publish(array, i, i)
    assert list(array.unpublished()) == []
    assert list(PublishOnceArray(0).unpublished()) == []


def test_unpublished_skips_a_slot_published_before_the_scan_reaches_it():
    array = PublishOnceArray(4)
    scan = array.unpublished()
    assert next(scan) == 0
    publish(array, 2, "b")
    assert list(scan) == [1, 3]


def test_published_runs_no_python_frame():
    # a helper tests published() < n before every claim; as the slot dict's
    # bound __len__ it is one C call, which the profiler sees no frame of
    array = PublishOnceArray(2)
    publish(array, 0, "a")
    events = []
    sys.setprofile(lambda frame, event, arg: events.append(event))
    try:
        count = array.published()
    finally:
        sys.setprofile(None)
    assert count == 1
    assert "call" not in events


def test_published_counts_the_set_slots_after_every_publish():
    # lock-free readers take published() == n to mean every slot is set, so
    # the count must equal the set slots after publishes, republishes and
    # lost compare-and-sets alike
    array = PublishOnceArray(3)

    def set_slots():
        return sum(v is not UNASSIGNED for v in array.snapshot())

    publish(array, 0, "a")
    assert array.published() == set_slots() == 1
    publish(array, 0, "b")
    assert array.published() == set_slots() == 1
    assert try_publish(array, 1, "c")
    assert array.published() == set_slots() == 2
    assert not try_publish(array, 1, "d")
    assert not try_publish(array, 0, "e")
    assert array.published() == set_slots() == 2
    assert array.snapshot() == ["b", "c", UNASSIGNED]


def test_racing_try_publish_has_exactly_one_winner():
    for _ in range(50):
        array = PublishOnceArray(1)
        wins = []
        start = threading.Barrier(8)

        def race(w):
            start.wait(30)
            if try_publish(array, 0, w):
                wins.append(w)

        run_threads(race, 8)
        assert len(wins) == 1
        assert array.published() == 1
        assert value_of(array, 0) == wins[0]


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
                wins.append(try_publish(array, 0, value))

            run_threads(race, 8)
            assert wins.count(True) == 1
            assert array.published() == 1
            assert value_of(array, 0) is value


def test_concurrent_publishes_are_all_counted():
    # a lost count update would leave published() short of n
    n, num_threads = 4000, 8
    array = PublishOnceArray(n)

    def fill(w):
        for i in range(w, n, num_threads):
            try_publish(array, i, i)
            try_publish(array, (i + 1) % n, i)

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
            try_publish(array, i, (i, w))
            try_publish(array, (i + 1) % n, ((i + 1) % n, w))

    def read(r):
        k = r
        while True:
            count = array.published()
            counts[r].append(count)
            if count == n:
                full_views.append([value_of(array, i) for i in range(n)])
                return
            reads[r].append((k, value_of(array, k)))
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
                try_publish(array, i, (i, w))
                try_publish(array, (i + 1) % n, ((i + 1) % n, w))
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
    assert not Wakeup(time.perf_counter() - 1).sleep_until(lambda: False)
    started = time.perf_counter()
    wakeup = Wakeup(started + 0.05)
    assert not wakeup.sleep_until(lambda: False)
    assert time.perf_counter() - started >= 0.05
    assert wakeup.sleepers == 0


def test_stop_ends_every_sleep_for_good():
    wakeup = Wakeup()
    results = []

    def sleep():  # no deadline: only the stop ends it
        results.append(wakeup.sleep_until(lambda: False))

    sleepers = [threading.Thread(target=sleep, daemon=True) for _ in range(2)]

    def stop_once_asleep():
        for t in sleepers:
            t.start()
        limit = time.perf_counter() + 5
        while wakeup.sleepers != 2:
            assert time.perf_counter() < limit, "the sleepers never slept"
        wakeup.stop()
        for t in sleepers:
            t.join()

    started = time.perf_counter()
    assert run_with_timeout(stop_once_asleep, timeout=5) == []
    assert time.perf_counter() - started < 5
    assert results == [False, False]
    assert wakeup.stopped and wakeup.sleepers == 0
    wakeup.wake()  # harmless after a stop
    started = time.perf_counter()
    assert not wakeup.sleep_until(lambda: True)  # a ready sleep still fails
    assert not wakeup.sleep_until(lambda: False)  # and never waits, even with no deadline
    stopped = Wakeup(started + 5)
    stopped.stop()
    assert not stopped.sleep_until(lambda: True)  # nor with one
    assert not stopped.sleep_until(lambda: False)
    assert time.perf_counter() - started < 1
    assert wakeup.stopped and wakeup.sleepers == 0
    assert stopped.sleepers == 0


def wait_for_sleepers(wakeup, count):
    limit = time.perf_counter() + 5
    while wakeup.sleepers != count:
        assert time.perf_counter() < limit, f"sleepers never reached {count}"
        time.sleep(0.001)


def test_a_wake_uncounts_the_sleepers_it_notifies():
    wakeup = Wakeup()
    ready = []
    results = []
    sleeper = threading.Thread(
        target=lambda: results.append(wakeup.sleep_until(lambda: ready)), daemon=True
    )

    def wake_once_asleep():
        sleeper.start()
        wait_for_sleepers(wakeup, 1)
        ready.append(True)
        wakeup.wake()
        with wakeup._cond:  # the woken sleeper cannot run until this is released
            assert wakeup.sleepers == 0  # so a publish now would take no lock
        sleeper.join(5)
        assert not sleeper.is_alive()

    assert run_with_timeout(wake_once_asleep, timeout=10) == []
    assert results == [True]
    assert wakeup.sleepers == 0


def test_a_wake_before_the_predicate_holds_loses_no_sleeper():
    wakeup = Wakeup()
    ready = []
    results = []
    sleeper = threading.Thread(
        target=lambda: results.append(wakeup.sleep_until(lambda: ready)), daemon=True
    )

    def wake_early_then_late():
        sleeper.start()
        wait_for_sleepers(wakeup, 1)
        wakeup.wake()  # the predicate is still false: the sleeper sleeps on
        wait_for_sleepers(wakeup, 1)  # and counts itself again before its next test
        assert sleeper.is_alive() and results == []
        ready.append(True)
        wakeup.wake()  # so this wake, after the predicate turned true, still reaches it
        sleeper.join(5)
        assert not sleeper.is_alive()

    assert run_with_timeout(wake_early_then_late, timeout=10) == []
    assert results == [True]
    assert wakeup.sleepers == 0
