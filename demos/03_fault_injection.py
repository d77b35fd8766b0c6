"""Inject delays and crashes into scheduler workers.

Delayed workers sleep on every claim they take, holding the claimed slot.
Crashed workers stop silently at an instrumented site and never run again.
The lock-free variant survives any strict subset of workers crashing; the
barrier variants cannot, so they run under a watchdog that reports
NON_TERMINATION instead of hanging.
"""

from binsched import (
    FaultPlan,
    NonTermination,
    Site,
    Variant,
    WorkloadSpec,
    bin_oracle,
    generate_workload,
    make_fault_plan,
    schedule,
)

block = generate_workload(WorkloadSpec(n_txns=600, n_accounts=100, dependency_pct=40, seed=9))
expected = bin_oracle(block)

print("1) 40% of workers delayed 5 ms per claim (helpers recompute their slots):")
delays = make_fault_plan(8, delayed_pct=40, delay=0.005, seed=1)
for variant in Variant:
    result = schedule(block, variant, num_threads=8, faults=delays)
    print(
        f"   {variant.value:9s} total {result.timing.total_s * 1e3:6.1f} ms, "
        f"matches oracle: {result.assignment.initial_bin_list() == expected}"
    )

print("\n2) lockfree with 7 of 8 workers crashed before publishing:")
crashes = FaultPlan(crashed_workers=frozenset(range(7)), crash_point=Site.PHASE1_PRE_PUBLISH)
result = schedule(block, Variant.LOCKFREE, num_threads=8, faults=crashes)
print(
    f"   survivor finished the whole block alone, matches oracle: "
    f"{result.assignment.initial_bin_list() == expected}"
)

print("\n3) the standard variant under the same crash (watchdog set to 1 s):")
try:
    schedule(
        block,
        Variant.STANDARD,
        num_threads=8,
        faults=FaultPlan(crashed_workers=frozenset({0}), crash_point=Site.PHASE1_PRE_PUBLISH),
        watchdog_secs=1.0,
    )
    print("   unexpectedly completed")
except NonTermination as hang:
    print(f"   reported: {hang}")
