"""Benchmark harness: sweeps, CSV rows, and report aggregation.

A sweep is the product of four axes: block size, dependency percentage, and
the shares of delayed and crashed workers. The paper's three experiments are
choices of which axis varies: a baseline sweeps the block axes with no
faults, a latency sweep varies the delayed share and a crash sweep the
crashed share; a sweep may vary both fault axes at once. A sweep with any
crashed share is rejected before any row runs if it names a scheduler that
cannot survive a crash at its crash point (:attr:`Variant.fatal_crash_sites`).
Every measurement appends one row; callers can sink rows incrementally so an
interrupted run preserves partial data. Medians across repetitions are the
job of :func:`aggregate_rows` / :func:`report`, not the runner.

A crashed worker stays dead for the whole pipeline: the execution stage of
a crash run uses only the surviving threads, which is what makes crash
overhead visible when per-transaction work is simulated.
"""

from __future__ import annotations

import csv
import enum
import io
import itertools
import json
import statistics
import time
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable, Iterable, Sequence

from .executor import WalletState, check_per_txn_work, execute_plan, execute_serial
from .faults import FaultPlan, Site, make_fault_plan
from .scheduler import (
    DEFAULT_WATCHDOG_SECS,
    NonTermination,
    ScheduleResult,
    Variant,
    check_watchdog_secs,
    schedule,
)
from .workload import WorkloadSpec, compute_conflict_params, generate_workload

NON_TERMINATION_FLAG = "NON_TERMINATION"


class SchedulerKind(enum.Enum):
    SERIAL = "serial"
    STANDARD = "standard"
    ASSISTED = "assisted"
    LOCKFREE = "lockfree"

    @property
    def variant(self) -> Variant | None:
        if self is SchedulerKind.SERIAL:
            return None
        return Variant(self.value)


@dataclass(frozen=True)
class BenchRow:
    scheduler: str
    n_txns: int
    dependency_pct: float
    cp1: float
    cp2: float
    cp3: float
    num_threads: int
    delayed_pct: float
    crashed_pct: float
    exec_time_s: float
    throughput_tps: float
    num_bins: int
    phase1_s: float
    phase2_s: float
    exec_stage_s: float
    seed: int
    rep: int
    flags: str = ""


_FIELD_ORDER = [f.name for f in fields(BenchRow)]
CSV_HEADER = ",".join(_FIELD_ORDER)
# under ``from __future__ import annotations`` each field's type is its annotation's text
_CONVERTERS = {f.name: {"int": int, "float": float, "str": str}[f.type] for f in fields(BenchRow)}


@dataclass(frozen=True)
class BenchConfig:
    n_txns_values: tuple[int, ...]
    dependency_pct_values: tuple[float, ...]
    schedulers: tuple[SchedulerKind, ...]
    num_threads: int = 8
    delayed_pct_values: tuple[float, ...] = (0.0,)
    crashed_pct_values: tuple[float, ...] = (0.0,)
    delay_s: float = 0.005
    crash_point: Site = Site.PHASE1_PRE_PUBLISH
    repetitions: int = 5
    per_txn_work: float = 0.0
    n_accounts: int = 100
    amount_range: tuple[int, int] = (1, 100)
    base_seed: int = 1
    fault_seed: int = 0
    watchdog_secs: float = DEFAULT_WATCHDOG_SECS

    def __post_init__(self) -> None:
        points = sweep_points(self)  # the product is empty exactly when an axis is
        if not points or not self.schedulers:
            raise ValueError("sweep axes and scheduler list must be non-empty")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        check_per_txn_work(self.per_txn_work)
        # a bad workload, percentage, crash point, delay or budget fails before any row runs
        for n, dep, delayed_pct, crashed_pct in points:
            self.workload_spec(n, dep)
            self.fault_plan(delayed_pct, crashed_pct)
        check_watchdog_secs(self.watchdog_secs)
        if any(self.crashed_pct_values):
            for kind in self.schedulers:
                if kind.variant and self.crash_point in kind.variant.fatal_crash_sites:
                    point = self.crash_point.value
                    raise ValueError(f"{kind.value} cannot survive a crash at {point}")

    def workload_spec(self, n_txns: int, dependency_pct: float, seed: int = 0) -> WorkloadSpec:
        """The workload of a sweep point with this size and dependency percentage."""
        return WorkloadSpec(n_txns, self.n_accounts, dependency_pct, self.amount_range, seed)

    def fault_plan(self, delayed_pct: float, crashed_pct: float) -> FaultPlan:
        """The fault plan of a sweep point with these delayed and crashed percentages."""
        return make_fault_plan(
            self.num_threads,
            delayed_pct=delayed_pct,
            delay=self.delay_s,
            crashed_pct=crashed_pct,
            crash_point=self.crash_point,
            seed=self.fault_seed,
        )


def sweep_points(config: BenchConfig) -> list[tuple[int, float, float, float]]:
    """(n_txns, dependency_pct, delayed_pct, crashed_pct) per sweep point, in run order."""
    block_axes = config.n_txns_values, config.dependency_pct_values
    return list(itertools.product(*block_axes, config.delayed_pct_values, config.crashed_pct_values))


def run_benchmark(
    config: BenchConfig,
    on_row: Callable[[BenchRow], None] | None = None,
) -> list[BenchRow]:
    """Execute the configured sweep; one row per point x scheduler x rep."""
    rows: list[BenchRow] = []
    for n, dep in itertools.product(config.n_txns_values, config.dependency_pct_values):
        for rep in range(config.repetitions):  # one block per rep, run at every fault point
            seed = config.base_seed + rep
            block = generate_workload(config.workload_spec(n, dep, seed))
            params = compute_conflict_params(block)
            fault_points = itertools.product(config.delayed_pct_values, config.crashed_pct_values)
            for delayed_pct, crashed_pct in fault_points:
                base = BenchRow(
                    scheduler="",
                    n_txns=n,
                    dependency_pct=dep,
                    cp1=params.cp1,
                    cp2=params.cp2,
                    cp3=params.cp3,
                    num_threads=config.num_threads,
                    delayed_pct=delayed_pct,
                    crashed_pct=crashed_pct,
                    exec_time_s=0.0,
                    throughput_tps=0.0,
                    num_bins=0,
                    phase1_s=0.0,
                    phase2_s=0.0,
                    exec_stage_s=0.0,
                    seed=seed,
                    rep=rep,
                )
                for kind in config.schedulers:
                    rows.append(_measure(kind, block, base, config))
                    if on_row is not None:
                        on_row(rows[-1])
    return rows


def _measure(kind: SchedulerKind, block, base: BenchRow, config: BenchConfig) -> BenchRow:
    n = len(block)
    if kind is SchedulerKind.SERIAL:
        t0 = time.perf_counter()
        execute_serial(block, WalletState(), config.per_txn_work)
        elapsed = time.perf_counter() - t0
        return replace(
            base,
            scheduler=kind.value,
            num_threads=1,
            exec_time_s=elapsed,
            throughput_tps=_throughput(n, elapsed),
            exec_stage_s=elapsed,
        )

    variant = kind.variant
    assert variant is not None
    faults = config.fault_plan(base.delayed_pct, base.crashed_pct)
    try:
        result, _, schedule_s, exec_stage = run_block(
            block, variant, config.num_threads, faults, config.per_txn_work, config.watchdog_secs
        )
    except NonTermination as hang:
        return replace(
            base,
            scheduler=kind.value,
            exec_time_s=hang.watchdog_secs,
            throughput_tps=_throughput(n, hang.watchdog_secs),
            flags=NON_TERMINATION_FLAG,
        )
    total = schedule_s + exec_stage
    return replace(
        base,
        scheduler=kind.value,
        exec_time_s=total,
        throughput_tps=_throughput(n, total),
        num_bins=result.plan.num_bins,
        phase1_s=result.timing.phase1_s,
        phase2_s=result.timing.phase2_s,
        exec_stage_s=exec_stage,
    )


def run_block(
    block,
    variant: Variant,
    num_threads: int,
    faults: FaultPlan,
    per_txn_work: float,
    watchdog_secs: float = DEFAULT_WATCHDOG_SECS,
) -> tuple[ScheduleResult, WalletState, float, float]:
    """Schedule ``block`` under the watchdog, then execute it on the threads ``faults`` spares.

    Returns the result, the final state and the wall times of both stages.
    """
    t0 = time.perf_counter()
    result = schedule(block, variant, num_threads, faults, watchdog_secs)
    schedule_s = time.perf_counter() - t0
    live_threads = max(1, num_threads - len(faults.crashed_workers))
    t0 = time.perf_counter()
    final = execute_plan(result.plan, block, WalletState(), live_threads, per_txn_work)
    return result, final, schedule_s, time.perf_counter() - t0


def _throughput(n: int, elapsed: float) -> float:
    return n / elapsed if elapsed > 0 else 0.0


# --- rendering and aggregation -------------------------------------------

def rows_to_csv(rows: Iterable[BenchRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_FIELD_ORDER)
    for row in rows:
        record = asdict(row)
        writer.writerow([record[name] for name in _FIELD_ORDER])
    return buf.getvalue()


def rows_from_csv(text: str) -> list[BenchRow]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != _FIELD_ORDER:
        raise ValueError(f"unexpected CSV header: {header}")
    rows = []
    for record in reader:
        if not record:
            continue
        if len(record) != len(_FIELD_ORDER):
            raise ValueError(
                f"line {reader.line_num}: {len(record)} fields, expected {len(_FIELD_ORDER)}"
            )
        kwargs = {}
        for name, value in zip(_FIELD_ORDER, record):
            try:
                kwargs[name] = _CONVERTERS[name](value)
            except ValueError as exc:
                raise ValueError(f"line {reader.line_num}: {name}: {exc}") from None
        rows.append(BenchRow(**kwargs))
    return rows


_GROUP_KEY = ("scheduler", "n_txns", "dependency_pct", "num_threads", "delayed_pct", "crashed_pct")
_MEDIAN_FIELDS = (
    "cp1", "cp2", "cp3", "exec_time_s", "throughput_tps",
    "phase1_s", "phase2_s", "exec_stage_s",
)


def aggregate_rows(rows: Sequence[BenchRow]) -> list[BenchRow]:
    """Median per sweep point; non-terminating rows annotate but never vote.

    The aggregated row reuses the schema: ``rep`` holds the number of
    repetitions that entered the median and ``seed`` the first seed seen.
    """
    if not rows:
        raise ValueError("no rows to aggregate")
    groups: dict[tuple, list[BenchRow]] = {}
    for row in rows:
        key = tuple(getattr(row, name) for name in _GROUP_KEY)
        groups.setdefault(key, []).append(row)

    aggregated = []
    for key in sorted(groups):
        members = groups[key]
        clean = [r for r in members if not r.flags]
        flagged = len(clean) < len(members)
        voters = clean if clean else members
        medians = {
            name: statistics.median(getattr(r, name) for r in voters) for name in _MEDIAN_FIELDS
        }
        aggregated.append(
            replace(
                voters[0],
                **medians,
                num_bins=statistics.median_low(r.num_bins for r in voters),
                seed=voters[0].seed,
                rep=len(voters),
                flags=NON_TERMINATION_FLAG if flagged else "",
            )
        )
    return aggregated


def render_rows(rows: Sequence[BenchRow], fmt: str = "csv") -> str:
    if fmt == "csv":
        return rows_to_csv(rows)
    if fmt == "json":
        return json.dumps([asdict(r) for r in rows], indent=2)
    if fmt == "gnuplot":
        out = []
        for scheduler in sorted({r.scheduler for r in rows}):
            out.append(f"# scheduler: {scheduler}")
            out.append("# " + " ".join(_FIELD_ORDER[1:-1]))
            for row in rows:
                if row.scheduler != scheduler:
                    continue
                record = asdict(row)
                out.append(" ".join(str(record[name]) for name in _FIELD_ORDER[1:-1]))
            out.append("")
        return "\n".join(out)
    raise ValueError(f"unknown report format: {fmt}")


def report(rows: Sequence[BenchRow], fmt: str = "csv") -> str:
    """Aggregate repetitions to medians and render them."""
    return render_rows(aggregate_rows(rows), fmt)
