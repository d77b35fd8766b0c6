"""Seeded synthetic wallet blocks with a tunable dependency percentage.

Roughly ``dependency_pct`` percent of the transactions draw both accounts
from a small hot pool, which makes each of them conflict with other hot
transactions with near certainty; the remainder use fresh per-transaction
account pairs and therefore conflict with nothing. The hot-pool size was
calibrated by measuring cp1 across seeds: about ``sqrt(hot_count)`` accounts
keeps isolated hot transactions vanishingly rare while still mixing
write/write and read/write overlaps.

Three conflict parameters describe a block: cp1 is the percentage of
transactions with at least one dependency, cp3 the percentage with none
(cp1 + cp3 = 100), and cp2 counts unordered conflicting pairs per hundred
transactions. cp2 uses the pair-count reading, which is a distinct,
monotone conflict-density measure; it can exceed 100 on dense blocks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from .conflict import lower_conflict_sets
from .txn import Transaction, TransferPayload, make_transaction


@dataclass(frozen=True)
class WorkloadSpec:
    n_txns: int
    n_accounts: int
    dependency_pct: float
    amount_range: tuple[int, int] = (1, 100)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_txns < 0:
            raise ValueError("n_txns must be >= 0")
        if self.n_accounts < 2:
            raise ValueError("n_accounts must be >= 2")
        if not 0 <= self.dependency_pct <= 100:
            raise ValueError("dependency_pct must lie in [0, 100]")
        lo, hi = self.amount_range
        if lo < 0 or hi < lo:
            raise ValueError(f"invalid amount_range {self.amount_range}")


@dataclass(frozen=True)
class ConflictParams:
    cp1: float
    cp2: float
    cp3: float

    def __post_init__(self) -> None:
        if not 0 <= self.cp1 <= 100 or not 0 <= self.cp3 <= 100 or self.cp2 < 0:
            raise ValueError(f"conflict parameters out of range: {self}")


def _hot_pool_size(hot_count: int, n_accounts: int) -> int:
    if hot_count <= 0:
        return 2
    return min(n_accounts, max(2, round(math.sqrt(hot_count)) + 1))


def generate_workload(spec: WorkloadSpec) -> list[Transaction]:
    """Deterministic block generation from the spec's seed."""
    rng = random.Random(spec.seed)
    n = spec.n_txns
    hot_count = round(n * spec.dependency_pct / 100.0)
    hot_positions = set(rng.sample(range(n), hot_count)) if hot_count else set()
    pool = [f"a{k}" for k in range(_hot_pool_size(hot_count, spec.n_accounts))]
    lo, hi = spec.amount_range

    txns: list[Transaction] = []
    for i in range(n):
        if i in hot_positions:
            from_addr, to_addr = rng.sample(pool, 2)
        else:
            # fresh pair, never reused: cold transactions conflict with nothing
            from_addr, to_addr = f"c{i}a", f"c{i}b"
        amount = rng.randint(lo, hi)
        txns.append(make_transaction(i, TransferPayload(from_addr, to_addr, amount)))
    return txns


def compute_conflict_params(txns: Sequence[Transaction]) -> ConflictParams:
    """Measure cp1/cp2/cp3 from the block's lower conflict sets; empty input is all-zero.

    Each conflicting pair appears once, in the lower set of its later member,
    so the lower-set sizes sum to the pair count.
    """
    n = len(txns)
    if n == 0:
        return ConflictParams(0.0, 0.0, 0.0)
    dependent: set[int] = set()
    pair_count = 0
    for tid, lower in enumerate(lower_conflict_sets(txns)):
        if lower:
            pair_count += len(lower)
            dependent.add(tid)
            dependent.update(lower)
    cp1 = 100.0 * len(dependent) / n
    return ConflictParams(cp1=cp1, cp2=100.0 * pair_count / n, cp3=100.0 - cp1)
