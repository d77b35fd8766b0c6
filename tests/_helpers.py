"""Shared test fixtures: block builders, hypothesis strategies, a scripted worker,
publish-once slot access, a hang guard and a look at the worker pool."""

from __future__ import annotations

import random
import threading

from hypothesis import strategies as st

import binsched.faults
from binsched import Transaction, TransferPayload, WorkloadSpec, generate_workload, make_transaction
from binsched.atomics import UNASSIGNED
from binsched.faults import Worker, close_pool

# seconds of simulated work per transaction, for tests of the parallel replay:
# execute_plan hands work to pool peers only when there is work to sleep
PEER_WORK = 1e-6


class StepWorker(Worker):
    """A worker whose fault hook runs ``step(site)``, a peer's interleaved
    step, in place of a fault plan."""

    def __init__(self, step, wid=0):
        super().__init__(wid)
        self.step = step

    def at(self, site):
        self.step(site)


def publish(array, i, value):
    """Store ``value`` into slot ``i`` of a publish-once array, as a claimer that owns it."""
    array.put(i, (value,))


def try_publish(array, i, value):
    """Compare-and-set slot ``i`` from unset to ``value``; True for the one winner."""
    box = (value,)
    return array.put_once(i, box) is box


def value_of(array, i):
    """Slot ``i``'s published value, ``UNASSIGNED`` while unset."""
    box = array.box_of(i)
    return UNASSIGNED if box is None else box[0]


def run_with_timeout(fn, timeout=30):
    """Run ``fn`` on a daemon thread and return what it raised, as a list.

    Fails if ``fn`` is still running after ``timeout`` seconds, so a lost
    wakeup fails the test instead of hanging it, or if a thread it started
    outlives it once the pool's parked peers are closed: a peer still
    running a body is not parked, so it fails the check.
    """
    before = set(threading.enumerate())
    raised = []

    def run():
        try:
            fn()
        except Exception as exc:
            raised.append(exc)

    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout=timeout)
    assert not caller.is_alive(), f"still running after {timeout} s"
    close_pool()
    assert set(threading.enumerate()) <= before
    return raised


def pool_threads():
    """The live threads of the worker pool, parked or not."""
    return {t for t in threading.enumerate() if t.name.startswith("binsched-peer-")}


def parked_threads():
    """The threads of the pool's parked peers, each handed no job and running none."""
    peers = binsched.faults._parked
    return {peer.thread for peer in peers if peer.job is None and peer.go.locked()}


def assert_pool_parked():
    """Every live thread of the worker pool is parked."""
    assert pool_threads() == parked_threads()


def transfer(a, b, amount=10):
    return TransferPayload(a, b, amount)


def wallet_block(pairs):
    """Build a block from a list of (from, to) or (from, to, amount)."""
    txns = []
    for i, pair in enumerate(pairs):
        txns.append(make_transaction(i, transfer(*pair)))
    return txns


def disjoint_block(n):
    return wallet_block([(f"d{i}a", f"d{i}b") for i in range(n)])


def chain_block(n):
    """T_i transfers from account i to i+1, so consecutive txns conflict."""
    return wallet_block([(f"n{i}", f"n{i + 1}") for i in range(n)])


def clique_block(n):
    """Every transaction touches the same pair: a full conflict clique."""
    return wallet_block([("X", "Y")] * n)


def random_wallet_block(seed, max_n=120):
    rng = random.Random(seed)
    spec = WorkloadSpec(
        n_txns=rng.randint(1, max_n),
        n_accounts=rng.randint(2, 40),
        dependency_pct=rng.choice([0, 10, 30, 50, 80, 100]),
        seed=rng.randint(0, 2**32),
    )
    return generate_workload(spec)


def frontier_oracle(txns):
    """Serial O(n^2) restatement of each transaction's frontier, as sets.

    For each address ``i`` touches, scan ``j = i-1 ... 0`` for the latest
    writer; when ``i`` writes the address, also keep the readers passed on
    the way to that writer.
    """
    out = []
    for i, txn in enumerate(txns):
        frontier = set()
        for addr in txn.read_set | txn.write_set:
            for j in range(i - 1, -1, -1):
                if addr in txns[j].write_set:
                    frontier.add(j)
                    break
                if addr in txn.write_set and addr in txns[j].read_set:
                    frontier.add(j)
        out.append(frontier)
    return out


_addresses = st.integers(min_value=0, max_value=10)


@st.composite
def access_set_blocks(draw, max_n=10):
    """Blocks with arbitrary read/write sets, including read- or write-only."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    txns = []
    for i in range(n):
        reads = frozenset(draw(st.sets(_addresses, max_size=3)))
        writes = frozenset(draw(st.sets(_addresses, max_size=3)))
        txns.append(Transaction(id=i, read_set=reads, write_set=writes))
    return txns


@st.composite
def wallet_blocks(draw, max_n=60):
    spec = WorkloadSpec(
        n_txns=draw(st.integers(min_value=0, max_value=max_n)),
        n_accounts=draw(st.integers(min_value=2, max_value=30)),
        dependency_pct=draw(st.sampled_from([0, 20, 50, 100])),
        seed=draw(st.integers(min_value=0, max_value=2**20)),
    )
    return generate_workload(spec)
