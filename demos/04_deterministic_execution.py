"""Execute a scheduled plan in parallel and compare with serial replay.

Bins remain the schedule, and execution replays along phase 1's frontiers:
a transaction starts once its frontier, the latest earlier transaction on
each of its accounts, has been applied, not once its whole previous bin
has. So on every account the transfers apply in index order, and the final
wallet state always equals plain index-order execution; the total balance
is conserved. The plan takes the frontiers from the conflict index of the
table that the bin assignment owns. Replay starts its peers only with
simulated per-transaction work, the one thing here that releases the
interpreter lock; without it the calling thread applies the plan alone.
So the demo replays with work on 8 threads, checks the state against
serial replay, and shows the speedup.
"""

import time

from binsched import (
    Variant,
    WalletState,
    WorkloadSpec,
    execute_plan,
    execute_serial,
    generate_workload,
    schedule,
)

block = generate_workload(WorkloadSpec(n_txns=600, n_accounts=50, dependency_pct=20, seed=3))
result = schedule(block, Variant.LOCKFREE, num_threads=8)
print(f"scheduled {len(block)} transactions into {result.plan.num_bins} bins")

work = 0.001
t0 = time.perf_counter()
serial = execute_serial(block, WalletState(), per_txn_work=work)
serial_s = time.perf_counter() - t0
t0 = time.perf_counter()
parallel = execute_plan(result.plan, block, WalletState(), num_threads=8, per_txn_work=work)
parallel_s = time.perf_counter() - t0
print(f"parallel state equals serial state: {parallel.balances == serial.balances}")
print(f"total balance conserved (sum = {parallel.total()})")
print(
    f"\nwith {work * 1e3:.0f} ms simulated work per transaction: "
    f"serial {serial_s:.2f} s, 8-thread plan {parallel_s:.2f} s "
    f"({serial_s / parallel_s:.1f}x speedup)"
)
