import tracemalloc
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matbisim import lts, partition
from matbisim.algebra import ActionAlphabet, ActionMatrix
from matbisim.partition import (
    ORACLE_BATCH,
    ModelFormatError,
    Partition,
    canonical_distributor_real,
    enumerate_partitions,
    format_partition,
    parse_partition,
    require_bool_collector,
    require_real_collector,
    split_by_keys,
)
from references import BELL

AB = ActionAlphabet(("a", "b"))


@st.composite
def partitions(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    labels = draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n))
    return Partition.from_assignment(labels)


def test_canonical_ordering_and_equality():
    p = Partition(4, ((3, 1), (2, 0)))
    assert p.blocks == ((0, 2), (1, 3))
    assert p == Partition(4, ((0, 2), (1, 3)))
    assert p.assignment == (0, 1, 0, 1)
    assert p.block_of(3) == 1


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(3, ((0, 1),))  # state 2 missing
    with pytest.raises(ValueError):
        Partition(3, ((0, 1), (1, 2)))  # overlap
    with pytest.raises(ValueError):
        Partition(3, ((0, 1, 2), ()))  # empty block
    with pytest.raises(ValueError):
        Partition(2, ((0, 5),))  # out of range


def test_collector_examples():
    assert Partition.identity(3).collector_bool(AB) == ActionMatrix.identity(AB, 3)
    assert Partition.single_block(2).collector_bool(AB) == ActionMatrix.from_bits(AB, [[1], [1]])
    interleaved = Partition(4, ((0, 2), (1, 3)))
    assert interleaved.collector_bool(AB) == ActionMatrix.from_bits(AB, [[1, 0], [0, 1], [1, 0], [0, 1]])
    assert np.array_equal(
        interleaved.collector_real(),
        np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]),
    )


def test_collectors_with_bad_entries_are_refused():
    with pytest.raises(ValueError, match="not a collector"):
        require_bool_collector(ActionMatrix.from_bits(AB, [[1, 1], [0, 1]]))  # two entries in a row
    with pytest.raises(ValueError, match="not a collector"):
        require_bool_collector(ActionMatrix.from_bits(AB, [[1, 0], [1, 0]]))  # empty column
    with pytest.raises(ValueError, match="not a collector"):
        require_real_collector(np.array([[0.5, 0.5], [1.0, 0.0]]))


def test_real_collector_refusals_on_tall_and_stacked_collectors():
    tall = Partition.from_assignment([s % 3 for s in range(5001)]).collector_real()
    stack = np.array([p.collector_real() for p in enumerate_partitions(6) if p.num_blocks == 3])
    require_real_collector(tall)
    require_real_collector(stack, stacked=True)
    for v, stacked, row in ((tall, False, (4000,)), (stack, True, (40, 4))):
        half = v.copy()
        half[row] = [0.5, 0.5, 0.0]  # the row still sums to 1
        two = v.copy()
        two[row] = [1.0, 1.0, 0.0]
        empty = v.copy()
        empty[..., 2] = 0.0
        empty[..., 0] += v[..., 2]  # every row keeps one unit entry
        for bad in (half, two, empty):
            with pytest.raises(ValueError, match="not a collector"):
                require_real_collector(bad, stacked=stacked)
    with pytest.raises(ValueError, match="not a collector"):
        require_real_collector(stack)


def test_canonical_distributors():
    v = ActionMatrix.from_bits(AB, [[1], [1]])
    assert lts.canonical_distributor(v) == v.transpose()
    assert np.allclose(canonical_distributor_real(np.array([[1.0], [1.0]])), [[0.5, 0.5]])
    assert np.allclose(canonical_distributor_real(np.eye(3)), np.eye(3))


@settings(max_examples=60)
@given(partitions())
def test_distributor_invariants(p):
    v_bool = p.collector_bool(AB)
    u_bool = lts.canonical_distributor(v_bool)
    assert u_bool @ v_bool == ActionMatrix.identity(AB, p.num_blocks)
    ones = ActionMatrix.full(AB, p.n, 1)
    assert u_bool @ ones == ActionMatrix.full(AB, p.num_blocks, 1)

    v_real = p.collector_real()
    u_real = canonical_distributor_real(v_real)
    assert np.allclose(u_real @ v_real, np.eye(p.num_blocks), atol=1e-12)
    assert np.allclose(u_real.sum(axis=1), 1.0, atol=1e-12)


def test_enumerate_partitions_counts_match_bell_numbers():
    for n in range(1, 9):
        keys = [(p.num_blocks, p.blocks) for p in enumerate_partitions(n)]
        assert len(keys) == BELL[n]
        assert len(set(keys)) == BELL[n]
        # coarsest first, the order the oracle minimises
        assert all(a < b for a, b in zip(keys, keys[1:]))


def test_enumerate_partitions_is_lazy_at_the_oracle_bound():
    assert next(enumerate_partitions(12)) == Partition.single_block(12)
    # 1 + S(12, 2) = 2048 partitions have at most two blocks
    head = list(islice(enumerate_partitions(12), 2049))
    assert [p.num_blocks for p in head[:2048]] == [1] + [2] * 2047
    assert head[2048] == Partition(12, ((0,), (1,), tuple(range(2, 12))))


def _lattice_in_batches(n):
    """The concatenated label rows of the oracle's enumerator, checked: Bell(n)
    canonical rows whose ``(num_blocks, key)`` strictly increase, where the
    key is block 0's states, -1, block 1's states, -1, and so on, so that
    comparing keys compares ``blocks``."""
    runs = list(partition._label_batches(n))
    rows = np.concatenate([r for _, r in runs])
    blocks = np.concatenate([np.full(len(r), k) for k, r in runs])
    assert rows.dtype == np.int8 and len(rows) == BELL[n]
    # restricted growth: each label at most one above every label before it
    assert (rows[:, 0] == 0).all()
    assert (rows[:, 1:] <= np.maximum.accumulate(rows, axis=1)[:, :-1] + 1).all()
    assert (rows.max(axis=1) + 1 == blocks).all()
    states = np.argsort(rows, axis=1, kind="stable")
    key = np.full((len(rows), 2 * n), -1)
    np.put_along_axis(key, np.arange(n) + np.take_along_axis(rows, states, axis=1), states, axis=1)
    full = np.column_stack([blocks, key])
    step = full[1:] - full[:-1]
    first = (step != 0).argmax(axis=1)
    assert (step[np.arange(len(step)), first] > 0).all()
    return rows


def test_label_batches_at_the_smallest_lattice_of_several_batches():
    n = next(n for n in range(1, 13) if BELL[n] > ORACLE_BATCH)
    rows = _lattice_in_batches(n)
    assert [p.assignment for p in enumerate_partitions(n)] == list(map(tuple, rows.tolist()))


def test_label_batches_split_large_block_counts_on_the_first_block(monkeypatch):
    # with 40 rows a batch, 8 states in 2..6 blocks are built a first block
    # at a time, and so are most of the smaller lattices they are built from
    expected = [p.assignment for p in enumerate_partitions(8)]
    monkeypatch.setattr(partition, "ORACLE_BATCH", 40)
    assert list(map(tuple, _lattice_in_batches(8).tolist())) == expected


def test_oracle_stacks_fill_up_or_grow_with_the_rank(monkeypatch):
    # both schedules hold the lattice in order, the one-block row alone and
    # before any row is grown; a stack by rank closes at the end of a run
    # once it holds more rows than all stacks before it
    grown = []
    real = partition._sorted_rows
    monkeypatch.setattr(partition, "_sorted_rows", lambda *args: grown.append(args) or real(*args))
    lattice = np.concatenate([rows for _, rows in partition._label_batches(7)])
    for by_rank, sizes in ((False, [1, 256, 256, 256, 108]), (True, [1, 63, 256, 256, 256, 45])):
        grown.clear()
        stacks = partition._stacks(7, by_rank)
        first = next(stacks)
        assert first.tolist() == [[0] * 7] and not grown
        stacks = [first, *stacks]
        assert [len(s) for s in stacks] == sizes
        assert np.array_equal(np.concatenate(stacks), lattice)
    assert [len(s) for s in partition._stacks(6, True)] == [1, 31, 90, 81]
    assert [len(s) for s in partition._stacks(1, True)] == [1]


def test_enumerating_twelve_states_through_six_blocks_stays_small():
    # S(12, 5) = 1,379,400 rows; grown and sorted at once they need hundreds of MB
    rows = 0
    tracemalloc.start()
    try:
        for blocks, run in partition._label_batches(12):
            if blocks > 6:
                break
            rows += len(run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == 1 + 2047 + 86526 + 611501 + 1379400 + 1323652
    assert peak < 32 * 2**20


def test_split_by_keys_refines_within_blocks():
    p = Partition.single_block(4)
    refined = split_by_keys(p, ["x", "y", "x", "z"])
    assert refined == Partition(4, ((0, 2), (1,), (3,)))
    # splitting never merges
    again = split_by_keys(refined, ["k"] * 4)
    assert again == refined


def test_partition_text_round_trip():
    p = Partition(5, ((0, 3), (1,), (2, 4)))
    assert parse_partition(format_partition(p)) == p
    shuffled = "partition 5\n2 4\n0 3\n# a comment\n1\n"
    assert parse_partition(shuffled) == p


def test_partition_text_errors():
    with pytest.raises(ModelFormatError):
        parse_partition("5\n0 1 2 3 4\n")
    with pytest.raises(ModelFormatError):
        parse_partition("partition x\n")
    with pytest.raises(ModelFormatError):
        parse_partition("partition 3\n0 1\n")  # missing state 2
    with pytest.raises(ModelFormatError):
        parse_partition("partition 2\n0 zero\n")


def test_trusted_partitions_equal_validated_ones():
    import random

    rng = random.Random(3)
    labels = [[rng.randrange(n) for _ in range(n)] for n in range(1, 9) for _ in range(20)]
    built = [Partition.from_assignment(lab) for lab in labels]
    built += [p for n in range(1, 7) for p in enumerate_partitions(n)]
    for p in built:
        checked = Partition(p.n, p.blocks)
        assert p == checked and hash(p) == hash(checked)
        assert p.blocks == checked.blocks
        assert p.assignment == checked.assignment
        assert [p.block_of(s) for s in range(p.n)] == list(checked.assignment)
    with pytest.raises(ValueError, match="at least one state"):
        Partition.from_assignment([])


def test_canonical_distributor_is_exact_to_rounding_for_large_blocks():
    # UV = I and U1 = 1 hold by construction, so nothing re-verifies them:
    # off-diagonal entries are exact zeros, the rest is |B| copies of 1/|B|.
    # Every block size up to 1000, then every 97th, and 10^4.
    for size in [*range(1, 1001), *range(1001, 10_000, 97), 10_000]:
        v = np.zeros((size + 1, 2))
        v[:size, 0] = 1.0
        v[size, 1] = 1.0
        u = canonical_distributor_real(v)
        uv = u @ v
        assert uv[0, 1] == 0.0 and uv[1, 0] == 0.0, size
        assert abs(uv[0, 0] - 1.0) <= 1e-12 and uv[1, 1] == 1.0, size
        assert np.all(np.abs(u.sum(axis=1) - 1.0) <= 1e-12), size
