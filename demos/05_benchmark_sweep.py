"""Run a small benchmark sweep and render the median report.

A sweep is the product of its axes: block size, dependency percentage, and
the delayed and crashed shares of workers. This one varies only the block
size, so it is the paper's fault-free baseline. The harness generates a
workload per block size and repetition, schedules and executes it, and
appends one CSV row per scheduler. The report step aggregates repetitions to
medians, one series per scheduler.
"""

from binsched import (
    BenchConfig,
    SchedulerKind,
    aggregate_rows,
    report,
    run_benchmark,
)

config = BenchConfig(
    n_txns_values=(100, 200, 400),
    dependency_pct_values=(30.0,),
    schedulers=(SchedulerKind.SERIAL, SchedulerKind.STANDARD, SchedulerKind.LOCKFREE),
    num_threads=8,
    repetitions=3,
    per_txn_work=0.0005,
    base_seed=11,
)

rows = run_benchmark(config)
print(f"collected {len(rows)} rows "
      f"({len(config.n_txns_values)} points x {len(config.schedulers)} schedulers x "
      f"{config.repetitions} reps)\n")

print("median report (CSV):")
print(report(rows, "csv"))

print("median throughput by scheduler and block size:")
for row in aggregate_rows(rows):
    print(f"  {row.scheduler:9s} n={row.n_txns:4d}  {row.throughput_tps:10.0f} txns/s")
