"""Stress the scheduler variants and the executor against the serial oracles.

Generates ``--blocks`` blocks (n <= 1000) from ``--seed`` and runs each
through STANDARD, ASSISTED and LOCKFREE at 2 and 8 threads. Every third
block is an access-set block of read-only, write-only and mixed
transactions over a few addresses, so frontiers hold runs of readers; the
others are wallet blocks, whose read and write sets are equal. Half of the
LOCKFREE runs get a random crash plan: a random crash point and between 1
and ``threads - 1`` crashed workers. Half of the other runs, under every
variant, get a delay plan: half the workers sleep 10 us at every claim. The
delay choices come from a second generator, so a seed's blocks and crash
plans do not depend on them. A delayed worker that finds no slot left to
claim never sleeps, so the script counts, through a stand-in for
``binsched.faults``' ``time`` module, the delayed runs that slept at least
once, and prints them per variant and thread count. A helper whose claim
passes n sweeps the slots still unset, as it must for a slot a crashed or
descheduled peer claimed; through a stand-in for
``PublishOnceArray.unpublished`` the script counts the runs in which
a helper did. Every run's bins are checked against ``bin_oracle``, and
every phase-1 slot, claimed or swept, is checked to hold ``(w,)`` for a
worker ``w`` of the run; when the crash point is a phase-1 site, no slot
may hold a crashed worker's id, since such a worker crashes before its
first publish. A wallet
block's plan is also executed by ``execute_plan`` on the surviving threads,
with 1 us of simulated work per transaction, since replay without work runs
on the calling thread alone, and checked against ``execute_serial``'s final
balances, both from one initial state that funds a seeded half of the
block's accounts, so replay meets accounts that exist and accounts it
opens. The funded accounts come from a third generator, so a seed's
blocks, bins and fault plans do not depend on them either. Access-set
blocks carry no payload, so they are not executed.
Every other block runs at a thread switch interval of 10 us, so claims and
publishes interleave more finely.
Exits 1 on any wrong bins, wrong phase-1 slot, wrong balances or error, or
when no delayed run slept or no helper swept; 0 otherwise.

    PYTHONPATH=src python scripts/stress_helpers.py --seed 7 --blocks 100
"""

from __future__ import annotations

import argparse
import collections
import functools
import random
import sys
import time
import traceback

import binsched.faults
from binsched import (
    CRASH_POINTS,
    Site,
    Transaction,
    Variant,
    WalletState,
    WorkloadSpec,
    bin_oracle,
    execute_plan,
    execute_serial,
    generate_workload,
    make_fault_plan,
    schedule,
)
from binsched.atomics import PublishOnceArray

THREAD_COUNTS = (2, 8)
MAX_N = 1000
FINE_SWITCH_INTERVAL = 1e-5  # seconds, for every other block
ACCESS_SET_EVERY = 3  # every third block is an access-set block
CLAIM_DELAY = 10e-6  # seconds a delayed worker sleeps per claim
REPLAY_WORK = 1e-6  # seconds of simulated work per transaction, so replay starts its peers
# a worker that crashes at one of these sites does so before its first phase-1 publish
PHASE1_SITES = (Site.PHASE1_POST_CLAIM, Site.PHASE1_PRE_PUBLISH)


class SleepCounter:
    """Stands in for the ``time`` module of :mod:`binsched.faults`, whose only
    sleep is a delayed worker's at a claim site, and counts those sleeps."""

    perf_counter = staticmethod(time.perf_counter)

    def __init__(self) -> None:
        self.sleeps = 0

    def sleep(self, secs: float) -> None:
        self.sleeps += 1  # a lost update between threads still leaves it above 0
        time.sleep(secs)


class SweepCounter:
    """Stands in for ``PublishOnceArray.unpublished``, which a helper calls
    only once its claim passes n, and counts those calls."""

    def __init__(self) -> None:
        self.sweeps = 0
        self.unpublished = PublishOnceArray.unpublished

    def __get__(self, array, owner=None):  # bound to the array, like the method it stands in for
        return functools.partial(self.count, array)

    def count(self, array):
        self.sweeps += 1  # a lost update between threads still leaves it above 0
        return self.unpublished(array)


def access_set_block(rng: random.Random) -> list[Transaction]:
    """Read-only (60%), write-only (20%) and mixed (20%) transactions, no payloads."""
    addrs = range(rng.randint(2, 60))
    txns = []
    for i in range(rng.randint(1, MAX_N)):
        kind = rng.choices(("read", "write", "mixed"), weights=(3, 1, 1))[0]
        reads = rng.sample(addrs, rng.randint(1, min(3, len(addrs)))) if kind != "write" else ()
        writes = rng.sample(addrs, rng.randint(1, 2)) if kind != "read" else ()
        txns.append(Transaction(id=i, read_set=frozenset(reads), write_set=frozenset(writes)))
    return txns


def funded_state(block: list[Transaction], rng: random.Random) -> WalletState:
    """An initial state that funds a ``rng``-chosen half of the block's accounts."""
    accounts = sorted({a for t in block for a in (t.payload.from_addr, t.payload.to_addr)})
    funded = rng.sample(accounts, len(accounts) // 2)
    return WalletState({a: rng.randint(1, 10**6) for a in funded})


def check_run(block, variant, threads, faults, expected, initial, expected_balances) -> list[str]:
    """Schedule one run, and execute it from ``initial`` unless
    ``expected_balances`` is None; return what went wrong, if anything."""
    try:
        result = schedule(block, variant, threads, faults)
        if expected_balances is not None:
            live_threads = threads - (len(faults.crashed_workers) if faults is not None else 0)
            final = execute_plan(result.plan, block, initial, live_threads, REPLAY_WORK)
    except Exception as exc:  # report every failure, keep going
        traceback.print_exc()
        return [f"ERROR {exc!r}"]
    problems = []
    if result.assignment.initial_bin_list() != expected:
        problems.append("WRONG BINS")
    table = result.assignment.table
    boxes = {table.box_of(i) for i in range(len(block))}
    if not boxes <= {(w,) for w in range(threads)}:
        problems.append("A PHASE-1 SLOT HOLDS NO WORKER ID OF THE RUN")
    if faults is not None and faults.crash_point in PHASE1_SITES:
        if not boxes.isdisjoint({(w,) for w in faults.crashed_workers}):
            problems.append("A PHASE-1 SLOT HOLDS THE ID OF A WORKER THAT CRASHED IN PHASE 1")
    if expected_balances is not None and final.balances != expected_balances:
        problems.append("WRONG BALANCES")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--blocks", type=int, required=True)
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    delay_rng = random.Random(f"delays-{args.seed}")
    fund_rng = random.Random(f"funds-{args.seed}")
    runs = crashed_runs = swept_runs = failures = 0
    delayed_runs = collections.Counter()  # runs with a delay plan, by (variant, threads)
    slept_runs = collections.Counter()  # those in which a delayed worker slept
    funded_accounts = 0
    counter = SleepCounter()
    sweeps = SweepCounter()
    binsched.faults.time = counter
    PublishOnceArray.unpublished = sweeps
    default_interval = sys.getswitchinterval()
    started = time.perf_counter()
    try:
        for b in range(args.blocks):
            sys.setswitchinterval(FINE_SWITCH_INTERVAL if b % 2 else default_interval)
            if b % ACCESS_SET_EVERY == ACCESS_SET_EVERY - 1:
                block = access_set_block(rng)
                spec = f"access-set block, n={len(block)}"
                initial = expected_balances = None
            else:
                spec = WorkloadSpec(
                    n_txns=rng.randint(1, MAX_N),
                    n_accounts=rng.randint(2, 200),
                    dependency_pct=rng.choice([0, 10, 40, 70, 100]),
                    seed=rng.randrange(2**32),
                )
                block = generate_workload(spec)
                initial = funded_state(block, fund_rng)
                funded_accounts += len(initial.balances)
                expected_balances = execute_serial(block, initial).balances
            expected = bin_oracle(block)
            for variant in (Variant.STANDARD, Variant.ASSISTED, Variant.LOCKFREE):
                for threads in THREAD_COUNTS:
                    faults = None
                    if variant is Variant.LOCKFREE and rng.random() < 0.5:
                        faults = make_fault_plan(
                            threads,
                            crashed_pct=100 * rng.randint(1, threads - 1) / threads,
                            crash_point=rng.choice(CRASH_POINTS),
                            seed=rng.randrange(2**32),
                        )
                        crashed_runs += 1
                    elif delay_rng.random() < 0.5:
                        faults = make_fault_plan(
                            threads,
                            delayed_pct=50,
                            delay=CLAIM_DELAY,
                            seed=delay_rng.randrange(2**32),
                        )
                        delayed_runs[variant, threads] += 1
                    runs += 1
                    sleeps_before, sweeps_before = counter.sleeps, sweeps.sweeps
                    problems = check_run(
                        block, variant, threads, faults, expected, initial, expected_balances
                    )
                    if counter.sleeps > sleeps_before:  # only a delay plan sleeps
                        slept_runs[variant, threads] += 1
                    if sweeps.sweeps > sweeps_before:  # only a helper sweeps
                        swept_runs += 1
                    for problem in problems:
                        failures += 1
                        print(
                            f"{problem}: block {b} ({spec}) {variant.value} threads={threads}"
                            f" faults={faults} switch_interval={sys.getswitchinterval()}",
                            flush=True,
                        )
    finally:
        sys.setswitchinterval(default_interval)
        binsched.faults.time = time
        PublishOnceArray.unpublished = sweeps.unpublished
    elapsed = time.perf_counter() - started
    print(
        f"{runs} runs ({crashed_runs} with crashes, {delayed_runs.total()} with delays,"
        f" {slept_runs.total()} of which slept; {swept_runs} in which a helper swept)"
        f" over {args.blocks} blocks ({funded_accounts} accounts funded), "
        f"{failures} failed, {elapsed:.1f} s"
    )
    print(
        "delayed runs that slept: "
        + ", ".join(
            f"{variant.value} at {threads} threads {slept_runs[variant, threads]}"
            f" of {delayed_runs[variant, threads]}"
            for variant in Variant
            for threads in THREAD_COUNTS
        )
    )
    if not slept_runs:
        print("no delayed run slept, so no delay plan was exercised")
        return 1
    if not swept_runs:
        print("no helper claimed past n, so no sweep was exercised")
        return 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
