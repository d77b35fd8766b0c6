"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criteria 1-3 share a 200-block corpus; each criterion times its own
checks against its stated budget.
"""

import random
import statistics
import time

import pytest

from _helpers import PEER_WORK, frontier_oracle
from binsched import (
    CRASH_POINTS,
    BenchConfig,
    FaultPlan,
    NonTermination,
    SchedulerKind,
    Site,
    Variant,
    WalletState,
    WorkloadSpec,
    bin_oracle,
    build_execution_plan,
    compute_conflict_params,
    conflict_sets_oracle,
    execute_plan,
    execute_serial,
    generate_workload,
    run_benchmark,
    schedule,
)

THREAD_COUNTS = (1, 2, 4, 8)
_cache: dict = {}


class criterion:
    """Context manager printing `[criterion NN] PASS/FAIL title (elapsed)`."""

    def __init__(self, num: int, title: str, budget_s: float | None = None):
        self.num = num
        self.title = title
        self.budget_s = budget_s

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.started
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\n[criterion {self.num:02d}] {status} {self.title} ({elapsed:.1f}s)")
        if exc_type is None and self.budget_s is not None:
            assert elapsed < self.budget_s, (
                f"criterion {self.num} exceeded its {self.budget_s:.0f}s budget: {elapsed:.1f}s"
            )
        return False


def corpus_blocks():
    """200 seeded blocks, n in [1, 500], dependency in {0, 20, 50, 100}."""
    if "blocks" not in _cache:
        rng = random.Random(2024)
        deps = (0, 20, 50, 100)
        blocks = []
        for k in range(200):
            spec = WorkloadSpec(
                n_txns=rng.randint(1, 500),
                n_accounts=100,
                dependency_pct=deps[k % len(deps)],
                seed=1000 + k,
            )
            blocks.append(generate_workload(spec))
        _cache["blocks"] = blocks
    return _cache["blocks"]


def corpus_conflicts():
    if "conflicts" not in _cache:
        _cache["conflicts"] = [conflict_sets_oracle(b) for b in corpus_blocks()]
    return _cache["conflicts"]


def corpus_frontiers():
    if "frontiers" not in _cache:
        _cache["frontiers"] = [frontier_oracle(b) for b in corpus_blocks()]
    return _cache["frontiers"]


def test_criterion_01_conflict_table_oracle_equivalence():
    with criterion(1, "conflict-table oracle equivalence", budget_s=60):
        blocks = corpus_blocks()
        oracles = corpus_conflicts()
        for block, oracle, frontiers in zip(blocks, oracles, corpus_frontiers()):
            expected = [sorted(s) for s in oracle]
            for num_threads in THREAD_COUNTS:
                for variant in (Variant.STANDARD, Variant.LOCKFREE):
                    table = schedule(block, variant, num_threads).assignment.table
                    assert [sorted(table.index.lower_conflicts(t)) for t in block] == expected
                    assert [set(f) for f in table.snapshot()] == frontiers


def test_criterion_02_bin_oracle_equivalence():
    with criterion(2, "bin oracle equivalence for all variants", budget_s=120):
        blocks = corpus_blocks()
        representatives = []
        for block in blocks:
            expected = bin_oracle(block)
            result = None
            for num_threads in THREAD_COUNTS:
                for variant in Variant:
                    result = schedule(block, variant, num_threads)
                    assert result.assignment.initial_bin_list() == expected
            representatives.append(result.assignment)
        _cache["assignments"] = representatives


def test_criterion_03_bin_safety():
    with criterion(3, "no bin contains a conflicting pair"):
        blocks = corpus_blocks()
        oracles = corpus_conflicts()
        assignments = _cache.get("assignments") or [
            schedule(b, Variant.LOCKFREE, 4).assignment for b in blocks
        ]
        for block, conflicts, assignment in zip(blocks, oracles, assignments):
            bins = assignment.initial_bin_list()
            for i, lower in enumerate(conflicts):
                for j in lower:
                    assert bins[i] != bins[j], f"conflicting pair ({j},{i}) shares bin {bins[i]}"
            members = build_execution_plan(assignment).bin_matrix
            assert sum(len(m) for m in members) == len(block)
            for b, bucket in enumerate(members):
                for i in bucket:
                    assert bins[i] == b


def test_criterion_04_determinism_theorem():
    with criterion(4, "parallel state equals serial state, sum conserved", budget_s=300):
        rng = random.Random(999)
        deps = (0, 20, 50, 100)
        for k in range(100):
            spec = WorkloadSpec(
                n_txns=rng.randint(1, 1000),
                n_accounts=100,
                dependency_pct=deps[k % len(deps)],
                seed=5000 + k,
            )
            block = generate_workload(spec)
            serial = execute_serial(block, WalletState())
            assert serial.total() == 0
            for variant in Variant:
                for num_threads in (2, 8):
                    result = schedule(block, variant, num_threads)
                    final = execute_plan(
                        result.plan, block, WalletState(), num_threads, PEER_WORK
                    )
                    assert final.balances == serial.balances
                    assert final.total() == 0


def test_criterion_05_crash_resilience():
    with criterion(5, "lockfree completes with 1..7 of 8 workers crashed"):
        block = generate_workload(WorkloadSpec(600, 100, 40, seed=42))
        expected_bins = bin_oracle(block)
        conflicts = conflict_sets_oracle(block)
        serial = execute_serial(block, WalletState())
        for crash_point in CRASH_POINTS:
            for n_crashed in range(1, 8):
                faults = FaultPlan(
                    crashed_workers=frozenset(range(n_crashed)), crash_point=crash_point
                )
                started = time.perf_counter()
                result = schedule(
                    block, Variant.LOCKFREE, 8, faults=faults, watchdog_secs=30.0
                )
                assert time.perf_counter() - started < 30.0
                bins = result.assignment.initial_bin_list()
                assert bins == expected_bins, (crash_point, n_crashed)
                for i, lower in enumerate(conflicts):
                    for j in lower:
                        assert bins[i] != bins[j]
                final = execute_plan(result.plan, block, WalletState(), 8 - n_crashed)
                assert final.balances == serial.balances
                assert final.total() == 0


def test_criterion_06_barrier_non_tolerance():
    with criterion(6, "barrier variants report NON_TERMINATION under crashes"):
        block = generate_workload(WorkloadSpec(600, 100, 40, seed=43))
        expected_bins = bin_oracle(block)
        watchdog = 0.75
        barrier_gated = (Site.PHASE1_POST_CLAIM, Site.PHASE1_PRE_PUBLISH, Site.INTER_PHASE)
        for variant in (Variant.STANDARD, Variant.ASSISTED):
            # pre-barrier crashes: worker 0 starts first and always wins its
            # first phase-1 claim, so it dies before the rendezvous and the
            # barrier can never fill
            for crash_point in barrier_gated:
                faults = FaultPlan(crashed_workers=frozenset({0}), crash_point=crash_point)
                started = time.perf_counter()
                with pytest.raises(NonTermination):
                    schedule(
                        block, variant, 8, faults=faults, watchdog_secs=watchdog
                    )
                # the watchdog bounds the hang; the suite never blocks
                assert time.perf_counter() - started < watchdog * 8 + 5

            # post-barrier crash: every worker dies on its first phase-2
            # claim, so most of the assignment provably never completes
            all_dead = FaultPlan(
                crashed_workers=frozenset(range(8)), crash_point=Site.PHASE2_PRE_CAS
            )
            started = time.perf_counter()
            with pytest.raises(NonTermination):
                schedule(block, variant, 8, faults=all_dead, watchdog_secs=watchdog)
            assert time.perf_counter() - started < watchdog * 8 + 5

        # the assisted variant's helpers do cover a post-barrier crash that
        # leaves survivors: only the barrier itself is crash-intolerant
        survivors = FaultPlan(crashed_workers=frozenset({0}), crash_point=Site.PHASE2_PRE_CAS)
        result = schedule(
            block, Variant.ASSISTED, 8, faults=survivors, watchdog_secs=10.0
        )
        assert result.assignment.initial_bin_list() == expected_bins


def test_criterion_07_speedup_trend():
    with criterion(7, "lockfree end-to-end <= 0.5x serial at n=1200", budget_s=120):
        block = generate_workload(WorkloadSpec(1200, 100, 0, seed=44))
        work = 0.001
        t0 = time.perf_counter()
        serial_state = execute_serial(block, WalletState(), work)
        serial_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        result = schedule(block, Variant.LOCKFREE, 8)
        final = execute_plan(result.plan, block, WalletState(), 8, work)
        lockfree_s = time.perf_counter() - t0

        assert final.balances == serial_state.balances
        assert lockfree_s <= 0.5 * serial_s, (
            f"lockfree {lockfree_s:.2f}s vs serial {serial_s:.2f}s"
        )


def test_criterion_08_latency_trend():
    with criterion(8, "helpers beat the barrier variant under 40% delays", budget_s=180):
        config = BenchConfig(
            n_txns_values=(600,),
            dependency_pct_values=(100.0,),
            schedulers=(SchedulerKind.STANDARD, SchedulerKind.ASSISTED, SchedulerKind.LOCKFREE),
            num_threads=8,
            delayed_pct_values=(40.0,),
            delay_s=0.005,
            repetitions=5,
            per_txn_work=0.0,
            base_seed=45,
        )
        rows = run_benchmark(config)
        times = {kind.value: [] for kind in config.schedulers}
        for row in rows:
            assert not row.flags
            times[row.scheduler].append(row.exec_time_s)
        med = {name: statistics.median(ts) for name, ts in times.items()}
        assert med["lockfree"] <= med["standard"], med
        assert med["assisted"] <= med["standard"], med
        lf_wins = sum(l <= s for l, s in zip(times["lockfree"], times["standard"]))
        as_wins = sum(a <= s for a, s in zip(times["assisted"], times["standard"]))
        assert lf_wins >= 4, f"lockfree <= standard in only {lf_wins}/5 pairings"
        assert as_wins >= 4, f"assisted <= standard in only {as_wins}/5 pairings"


def test_criterion_09_crash_overhead_trend():
    with criterion(9, "lockfree throughput drops as crash percentage rises", budget_s=120):
        config = BenchConfig(
            n_txns_values=(600,),
            dependency_pct_values=(40.0,),
            schedulers=(SchedulerKind.LOCKFREE,),
            num_threads=8,
            crashed_pct_values=(0.0, 80.0),
            crash_point=Site.PHASE1_PRE_PUBLISH,
            repetitions=3,
            per_txn_work=0.001,
            base_seed=46,
        )
        rows = run_benchmark(config)
        tput = {}
        for row in rows:
            assert not row.flags
            tput.setdefault(row.crashed_pct, []).append(row.throughput_tps)
        assert statistics.median(tput[80.0]) <= statistics.median(tput[0.0]), tput


def test_criterion_10_conflict_parameter_arithmetic():
    with criterion(10, "cp1 + cp3 = 100 and zero dependency means cp1 = 0"):
        rng = random.Random(77)
        for n in (1, 7, 50, 200, 600):
            for dep in (0, 20, 40, 100):
                for _ in range(3):
                    spec = WorkloadSpec(n, 100, dep, seed=rng.randint(0, 2**32))
                    params = compute_conflict_params(generate_workload(spec))
                    assert params.cp1 + params.cp3 == 100.0
                    if dep == 0:
                        assert params.cp1 == 0.0
