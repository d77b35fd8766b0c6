"""Compare the three scheduler variants on one generated block.

STANDARD claims each index exactly once and separates the phases with a
barrier. ASSISTED keeps the barrier but lets fast workers redo slots that
slow peers abandoned. LOCKFREE drops the barrier entirely: each worker
moves on as soon as its own conflict loop terminates. All three produce
the identical bin assignment; they differ only in how they cope with slow
or dead workers.
"""

from binsched import Variant, WorkloadSpec, bin_oracle, generate_workload, schedule

block = generate_workload(WorkloadSpec(n_txns=800, n_accounts=100, dependency_pct=50, seed=7))
expected = bin_oracle(block)
print(f"block: {len(block)} transactions, {max(expected) + 1} bins by the serial oracle\n")

for variant in Variant:
    result = schedule(block, variant, num_threads=8)
    timing = result.timing
    same = result.assignment.initial_bin_list() == expected
    print(
        f"{variant.value:9s} matches oracle: {same}   "
        f"phase1 {timing.phase1_s * 1e3:6.1f} ms   "
        f"phase2 {timing.phase2_s * 1e3:6.1f} ms   "
        f"total {timing.total_s * 1e3:6.1f} ms   "
        f"(cas retries {result.retries.cas_retries}, "
        f"helped dependencies {result.retries.not_ready_skips})"
    )

print("\nidentical assignments from every variant and thread count is the")
print("point: a validator re-running the block always lands in the same bins.")
