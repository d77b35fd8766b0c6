import itertools

import pytest
from hypothesis import given, settings, strategies as st

from _helpers import access_set_blocks, wallet_block, wallet_blocks
from binsched import (
    WorkloadSpec,
    check_conflicts,
    compute_conflict_params,
    dump_workload,
    generate_workload,
)


def brute_force_params(txns):
    """Independent restatement: mark dependents and count pairs directly."""
    n = len(txns)
    if n == 0:
        return 0.0, 0.0, 0.0
    dependent = set()
    pairs = 0
    for i, j in itertools.combinations(range(n), 2):
        if check_conflicts(txns[i], txns[j]):
            pairs += 1
            dependent.update((i, j))
    cp1 = 100.0 * len(dependent) / n
    return cp1, 100.0 * pairs / n, 100.0 - cp1


def test_empty_workload():
    assert generate_workload(WorkloadSpec(0, 2, 0, seed=1)) == []


def test_empty_input_params_all_zero():
    params = compute_conflict_params([])
    assert (params.cp1, params.cp2, params.cp3) == (0.0, 0.0, 0.0)


def test_zero_dependency_block_is_pairwise_disjoint():
    txns = generate_workload(WorkloadSpec(100, 50, 0, seed=3))
    assert len(txns) == 100
    for a, b in itertools.combinations(txns, 2):
        assert not check_conflicts(a, b)
    assert compute_conflict_params(txns).cp1 == 0.0


def test_determinism_byte_for_byte():
    spec = WorkloadSpec(80, 20, 35, amount_range=(1, 9), seed=42)
    first = dump_workload(generate_workload(spec))
    second = dump_workload(generate_workload(spec))
    assert first == second


def test_different_seeds_differ():
    a = generate_workload(WorkloadSpec(50, 20, 50, seed=1))
    b = generate_workload(WorkloadSpec(50, 20, 50, seed=2))
    assert a != b


def test_worked_example_three_txns():
    txns = wallet_block([("A", "B"), ("C", "D"), ("B", "E")])
    params = compute_conflict_params(txns)
    assert params.cp1 == pytest.approx(200 / 3)
    assert params.cp2 == pytest.approx(100 / 3)
    assert params.cp3 == pytest.approx(100 / 3)


def test_two_identical_transfers():
    txns = wallet_block([("A", "B"), ("A", "B")])
    params = compute_conflict_params(txns)
    assert params.cp1 == 100.0
    assert params.cp2 == 50.0
    assert params.cp3 == 0.0


def test_cp1_tracks_dependency_pct_across_seeds():
    # generator calibration: n=600 at 40% must land within +/-10 points of 40
    # for at least 95 of 100 seeds (it lands within rounding for all of them)
    hits = 0
    for seed in range(100):
        txns = generate_workload(WorkloadSpec(600, 100, 40, seed=seed))
        if abs(compute_conflict_params(txns).cp1 - 40.0) <= 10.0:
            hits += 1
    assert hits >= 95


def test_rejects_invalid_specs():
    with pytest.raises(ValueError):
        WorkloadSpec(-1, 10, 0)
    with pytest.raises(ValueError):
        WorkloadSpec(10, 1, 0)
    with pytest.raises(ValueError):
        WorkloadSpec(10, 10, 101)
    with pytest.raises(ValueError):
        WorkloadSpec(10, 10, 0, amount_range=(5, 2))


@settings(max_examples=40)
@given(st.one_of(wallet_blocks(max_n=50), access_set_blocks(max_n=10)))
def test_cp_arithmetic_and_brute_force_agreement(txns):
    params = compute_conflict_params(txns)
    cp1, cp2, cp3 = brute_force_params(txns)
    assert params.cp1 == pytest.approx(cp1)
    assert params.cp2 == pytest.approx(cp2)
    assert params.cp3 == pytest.approx(cp3)
    if txns:
        assert params.cp1 + params.cp3 == 100.0


@settings(max_examples=20)
@given(
    st.integers(min_value=0, max_value=2**20),
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=2, max_value=30),
    st.sampled_from([0, 20, 50, 100]),
)
def test_generation_is_deterministic(seed, n, accounts, dep):
    spec = WorkloadSpec(n, accounts, dep, seed=seed)
    assert dump_workload(generate_workload(spec)) == dump_workload(generate_workload(spec))
