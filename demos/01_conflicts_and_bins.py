"""Walk through conflict detection and bin assignment on a tiny block.

Two wallet transfers conflict when they touch a common account with at
least one write involved; read-read overlap alone is harmless. Every
transaction is then assigned the lowest bin strictly above all of its
earlier conflicts, so a bin never holds two conflicting transactions.
Phase 1 publishes only each transaction's frontier: per account, the
latest earlier writer (and, for a write, the readers since it). Phase 2
reads it. Bins rise along each account's access chain, so the frontier
yields the same bin as the full lower conflict set, which the table's
index lists from the block only when asked.
"""

from binsched import (
    TransferPayload,
    Variant,
    bin_oracle,
    check_conflicts,
    conflict_sets_oracle,
    make_transaction,
    schedule,
)

block = [
    make_transaction(0, TransferPayload("alice", "bob", 10)),
    make_transaction(1, TransferPayload("carol", "dave", 10)),
    make_transaction(2, TransferPayload("bob", "erin", 5)),
    make_transaction(3, TransferPayload("erin", "alice", 1)),
    make_transaction(4, TransferPayload("bob", "alice", 2)),
]

print("pairwise conflicts (write-involving overlap):")
for a in block:
    for b in block:
        if a.id < b.id and check_conflicts(a, b):
            shared = (a.read_set | a.write_set) & (b.read_set | b.write_set)
            print(f"  T{a.id} ~ T{b.id}  (shared accounts: {sorted(shared)})")

result = schedule(block, Variant.LOCKFREE, num_threads=4)
table = result.assignment.table  # the publisher table the bins came from
print("\nfrontiers (what phase 2 reads) and lower sets (derived on request):")
for txn, conflicts in zip(block, conflict_sets_oracle(block)):
    frontier = sorted(table.index.frontiers[txn.id])
    assert table.index.lower_conflicts(txn) == conflicts
    print(f"  T{txn.id}: frontier {frontier or 'none'}, lower {sorted(conflicts) or 'none'}")

print("\nbin rule: 1 + max(bin of frontier), empty frontier -> bin 0")
print(f"  serial oracle says: {bin_oracle(block)}")
print(f"  4-thread lockfree run: {result.assignment.initial_bin_list()}")
print("\nexecution plan (bins are the schedule; each transaction waits for its frontier):")
for b, row in enumerate(result.plan.bin_matrix):
    print(f"  bin {b}: transactions {list(row)}")
