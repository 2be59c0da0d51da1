import pytest

from mcjacobi.partitions import (
    check_partition,
    contains,
    count_contained,
    count_partitions,
    enumerate_partitions,
    format_partition,
    pad,
    parse_partition,
    trim,
    weight,
)


def test_enumerate_small_cases():
    assert enumerate_partitions(2, 2) == [(0, 0), (1, 0), (2, 0), (1, 1)]
    assert enumerate_partitions(0, 3) == [(0, 0, 0)]
    assert enumerate_partitions(3, 1) == [(0,), (1,), (2,), (3,)]


def test_count_partitions_stops_at_the_bound():
    for w in range(7):
        for r in (1, 2, 3, 5):
            total = len(enumerate_partitions(w, r))
            assert count_partitions(w, r, total + 1) == total
            assert count_partitions(w, r, max(1, total - 2)) == max(1, total - 2)
    # lazy: the count stops at the bound however large the weight
    assert count_partitions(10**12, 10**6, 401) == 401


def test_count_contained_matches_enumeration():
    for r in (1, 2, 3, 4):
        for m in enumerate_partitions(7, r):
            expect = sum(contains(m, k) for k in enumerate_partitions(weight(m), r))
            assert count_contained(m) == expect
    assert count_contained(()) == 1
    assert count_contained((40, 30)) == 806


def test_enumerate_order_is_weight_then_revlex():
    parts = enumerate_partitions(4, 3)
    keys = [(weight(p), tuple(-x for x in p)) for p in parts]
    assert keys == sorted(keys)
    assert len(parts) == len(set(parts))


def test_enumerate_closed_under_containment():
    for r in (1, 2, 3):
        listed = set(enumerate_partitions(5, r))
        for m in listed:
            for k in enumerate_partitions(5, r):
                if contains(m, k):
                    assert k in listed


def test_contains():
    assert contains((2, 1), (1, 1))
    assert not contains((1, 0), (2, 0))
    assert contains((3, 2, 1), (3, 2, 1))
    assert contains((2, 1), (1,))  # padding to a common length


def test_non_partition_rejected():
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, -1))


def test_pad_trim_roundtrip():
    assert pad((2, 1), 4) == (2, 1, 0, 0)
    assert trim((2, 1, 0, 0)) == (2, 1)
    with pytest.raises(ValueError):
        pad((2, 1, 1), 2)


def test_serialization():
    assert format_partition((2, 1, 0)) == "2,1,0"
    assert parse_partition("2,1,0") == (2, 1, 0)
    assert parse_partition("") == ()
