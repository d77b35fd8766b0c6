import json

import pytest
from hypothesis import given, strategies as st

from binsched import (
    Transaction,
    TransferPayload,
    dump_workload,
    load_workload,
    make_transaction,
    transaction_from_dict,
    transaction_to_dict,
)


def test_transfer_reads_and_writes_both_balances():
    txn = make_transaction(0, TransferPayload("A", "B", 10))
    assert txn.read_set == frozenset({"A", "B"})
    assert txn.write_set == frozenset({"A", "B"})


def test_reverse_transfer_same_access_sets():
    txn = make_transaction(1, TransferPayload("B", "A", 10))
    assert txn.id == 1
    assert txn.read_set == txn.write_set == frozenset({"A", "B"})


def test_self_transfer_rejected():
    with pytest.raises(ValueError):
        TransferPayload("A", "A", 5)


def test_negative_amount_rejected():
    with pytest.raises(ValueError):
        TransferPayload("A", "B", -1)


def test_zero_amount_allowed():
    assert TransferPayload("A", "B", 0).amount == 0


def test_negative_id_rejected():
    with pytest.raises(ValueError):
        make_transaction(-1, TransferPayload("A", "B", 1))


def test_transactions_are_immutable_values():
    a = make_transaction(0, TransferPayload("A", "B", 10))
    b = make_transaction(0, TransferPayload("A", "B", 10))
    assert a == b
    with pytest.raises(AttributeError):
        a.id = 3  # type: ignore[misc]


def test_access_union_is_exactly_the_address_pair():
    txn = make_transaction(4, TransferPayload("P", "Q", 3))
    assert txn.read_set | txn.write_set == {"P", "Q"}


def test_custom_access_sets_supported():
    read_only = Transaction(id=0, read_set=frozenset({"X"}), write_set=frozenset())
    assert read_only.payload is None
    assert read_only.write_set == frozenset()


def test_json_shape_matches_interface():
    txn = make_transaction(0, TransferPayload("A", "B", 10))
    assert transaction_to_dict(txn) == {"id": 0, "from": "A", "to": "B", "amount": 10}


def test_json_round_trip():
    txn = make_transaction(3, TransferPayload("A", "B", 7))
    assert transaction_from_dict(transaction_to_dict(txn)) == txn


def test_workload_file_round_trip():
    txns = [
        make_transaction(0, TransferPayload("A", "B", 10)),
        make_transaction(1, TransferPayload("C", "D", 5)),
    ]
    text = dump_workload(txns)
    assert json.loads(text)[0]["from"] == "A"
    assert load_workload(text) == txns


def test_workload_positions_must_match_ids():
    text = json.dumps([{"id": 1, "from": "A", "to": "B", "amount": 1}])
    with pytest.raises(ValueError):
        load_workload(text)


def record(**overrides):
    """A valid workload record with some fields replaced."""
    return {"id": 0, "from": "A", "to": "B", "amount": 5, **overrides}


def test_workload_must_be_a_list():
    with pytest.raises(ValueError, match="JSON list"):
        load_workload(json.dumps(record()))


def test_workload_record_must_be_an_object():
    with pytest.raises(ValueError, match="record 1: expected an object"):
        load_workload(json.dumps([record(), [1, "A", "B", 5]]))


@pytest.mark.parametrize("key", ["id", "from", "to", "amount"])
def test_workload_record_missing_a_key_rejected(key):
    obj = record()
    del obj[key]
    with pytest.raises(ValueError, match=f"record 0: missing key '{key}'"):
        load_workload(json.dumps([obj]))


@pytest.mark.parametrize("key", ["id", "amount"])
@pytest.mark.parametrize("value", ["5", 5.5, 1.0, True, None])
def test_workload_id_and_amount_must_be_integers(key, value):
    with pytest.raises(ValueError, match=f"record 0: '{key}' must be int,"):
        load_workload(json.dumps([record(**{key: value})]))


@pytest.mark.parametrize("key", ["from", "to"])
@pytest.mark.parametrize("value", [["A"], {"a": 1}, 1.5, False, None])
def test_workload_addresses_must_be_strings_or_integers(key, value):
    with pytest.raises(ValueError, match=f"record 0: '{key}' must be str or int,"):
        load_workload(json.dumps([record(**{key: value})]))


def test_integer_addresses_accepted():
    assert load_workload(json.dumps([record(**{"from": 1, "to": 2})]))[0].write_set == {1, 2}


def test_payloadless_transaction_not_serializable():
    txn = Transaction(id=0, read_set=frozenset({"X"}), write_set=frozenset({"X"}))
    with pytest.raises(ValueError):
        transaction_to_dict(txn)


@given(
    st.integers(min_value=0, max_value=1000),
    st.text(min_size=1, max_size=4),
    st.text(min_size=1, max_size=4),
    st.integers(min_value=0, max_value=10**6),
)
def test_equal_arguments_build_equal_transactions(txn_id, a, b, amount):
    if a == b:
        return
    first = make_transaction(txn_id, TransferPayload(a, b, amount))
    second = make_transaction(txn_id, TransferPayload(a, b, amount))
    assert first == second
    assert first.read_set | first.write_set == {a, b}
