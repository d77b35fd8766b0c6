"""Multi-bin parallel transaction scheduling with deterministic replay.

A block of read/write-annotated transactions is partitioned into bins of
pairwise non-conflicting transactions. Bins are the schedule; execution
replays along each transaction's frontier, its earlier conflicts that bound
its bin, and the final state always matches single-threaded index-order
execution. Three scheduler variants trade synchronization for resilience,
and a fault-injection harness reproduces latency and crash experiments.
"""

from .atomics import AtomicInt
from .bench import (
    CSV_HEADER,
    NON_TERMINATION_FLAG,
    BenchConfig,
    BenchRow,
    SchedulerKind,
    aggregate_rows,
    render_rows,
    report,
    rows_from_csv,
    rows_to_csv,
    run_benchmark,
    sweep_points,
)
from .binning import BinAssignment, bin_oracle
from .conflict import ConflictIndex, check_conflicts, conflict_sets_oracle
from .executor import (
    ExecutionPlan,
    WalletState,
    build_execution_plan,
    execute_plan,
    execute_serial,
)
from .faults import CRASH_POINTS, FaultPlan, Site, make_fault_plan
from .scheduler import (
    NonTermination,
    RetryStats,
    SchedulerConfigError,
    Variant,
    schedule,
    schedule_with_watchdog,
)
from .txn import (
    Transaction,
    TransferPayload,
    dump_workload,
    load_workload,
    make_transaction,
    transaction_from_dict,
    transaction_to_dict,
)
from .workload import WorkloadSpec, compute_conflict_params, generate_workload

__version__ = "0.1.0"

__all__ = [
    "AtomicInt",
    "BenchConfig",
    "BenchRow",
    "BinAssignment",
    "CRASH_POINTS",
    "CSV_HEADER",
    "ConflictIndex",
    "ExecutionPlan",
    "FaultPlan",
    "NON_TERMINATION_FLAG",
    "NonTermination",
    "RetryStats",
    "SchedulerConfigError",
    "SchedulerKind",
    "Site",
    "Transaction",
    "TransferPayload",
    "Variant",
    "WalletState",
    "WorkloadSpec",
    "aggregate_rows",
    "bin_oracle",
    "build_execution_plan",
    "check_conflicts",
    "compute_conflict_params",
    "conflict_sets_oracle",
    "dump_workload",
    "execute_plan",
    "execute_serial",
    "generate_workload",
    "load_workload",
    "make_fault_plan",
    "make_transaction",
    "render_rows",
    "report",
    "rows_from_csv",
    "rows_to_csv",
    "run_benchmark",
    "schedule",
    "schedule_with_watchdog",
    "sweep_points",
    "transaction_from_dict",
    "transaction_to_dict",
]
