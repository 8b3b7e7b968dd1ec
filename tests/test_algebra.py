import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matbisim.algebra import (
    ActionAlphabet,
    ActionMatrix,
    MatrixShapeError,
    SingularMatrixError,
    first_difference,
    rt_closure,
    solve_linear,
)

AB = ActionAlphabet(("a", "b"))
ABC = ActionAlphabet(("a", "b", "c"))


def mat(entries, alphabet=AB):
    return ActionMatrix.from_sets(alphabet, entries)


# -- strategies -------------------------------------------------------------

dims = st.integers(min_value=1, max_value=4)


@st.composite
def matrices(draw, rows=None, cols=None, zero_one=False):
    r = draw(dims) if rows is None else rows
    c = draw(dims) if cols is None else cols
    full = AB.full_mask
    if zero_one:
        cell = st.sampled_from((0, full))
    else:
        cell = st.integers(min_value=0, max_value=full)
    data = draw(st.lists(st.lists(cell, min_size=c, max_size=c), min_size=r, max_size=r))
    return ActionMatrix(AB, tuple(tuple(row) for row in data))


@st.composite
def square_zero_one(draw):
    n = draw(dims)
    return draw(matrices(rows=n, cols=n, zero_one=True))


@st.composite
def mul_chain(draw):
    a, b, c = draw(dims), draw(dims), draw(dims)
    d = draw(dims)
    return (
        draw(matrices(rows=a, cols=b)),
        draw(matrices(rows=b, cols=c)),
        draw(matrices(rows=c, cols=d)),
    )


# -- alphabet -----------------------------------------------------------------


def test_alphabet_rejects_duplicates_and_reserved_label():
    with pytest.raises(ValueError):
        ActionAlphabet(("a", "a"))
    with pytest.raises(ValueError):
        ActionAlphabet(("a", "tau"))
    with pytest.raises(ValueError):
        ActionAlphabet(("",))


def test_alphabet_masks_round_trip():
    assert ABC.mask_of(("a", "c")) == 0b101
    assert ABC.labels_of(0b101) == ("a", "c")
    assert ABC.full_mask == 0b111


# -- semiring operations ------------------------------------------------------


def test_add_identity_and_union():
    m = mat([[("a",), ()], [("b",), ("a", "b")]])
    zero = ActionMatrix.zeros(AB, 2, 2)
    assert m + zero == m
    assert mat([[("a",)]]) + mat([[("b",)]]) == mat([[("a", "b")]])
    assert m + m == m


def test_mul_identity():
    m = mat([[("a",), ()], [("b",), ("a", "b")]])
    assert ActionMatrix.identity(AB, 2) @ m == m
    assert m @ ActionMatrix.identity(AB, 2) == m


def test_mul_hand_expanded_two_by_two():
    left = mat([[("a",), ("b",)], [(), ()]])
    right = mat([[(), ()], [("b",), ()]])
    assert left @ right == mat([[("b",), ()], [(), ()]])


def test_collector_transpose_times_collector_is_identity():
    # rows e1, e2, e1: two inhabited classes
    v = ActionMatrix.from_bits(AB, [[1, 0], [0, 1], [1, 0]])
    assert v.transpose() @ v == ActionMatrix.identity(AB, 2)


def test_meet_idempotent_and_identity():
    m = mat([[("a",), ("b",)], [(), ("a", "b")]])
    assert m.meet(m) == m
    assert m.meet(ActionMatrix.full(AB, 2, 2)) == m


def test_meet_with_identity_keeps_diagonal_only():
    s = ActionMatrix.from_bits(AB, [[1, 1], [0, 1]])
    expected = ActionMatrix.from_bits(AB, [[1, 0], [0, 1]])
    assert s.meet(ActionMatrix.identity(AB, 2)) == expected


def test_leq_examples():
    m = mat([[("a",), ()], [("b",), ("a", "b")]])
    assert m <= m
    assert ActionMatrix.zeros(AB, 2, 2) <= m
    assert not mat([[("a", "b")]]) <= mat([[("a",)]])


def test_dimension_mismatches_raise():
    m = mat([[("a",)]])
    n = mat([[("a",), ()]])
    with pytest.raises(MatrixShapeError):
        m + n
    with pytest.raises(MatrixShapeError):
        m.meet(n)
    with pytest.raises(MatrixShapeError):
        n @ n
    with pytest.raises(MatrixShapeError):
        m <= n


@settings(max_examples=60)
@given(st.data())
def test_semiring_laws(data):
    a = data.draw(dims)
    m = data.draw(matrices(rows=a, cols=a))
    n = data.draw(matrices(rows=a, cols=a))
    p = data.draw(matrices(rows=a, cols=a))
    assert (m + n) + p == m + (n + p)
    assert m + n == n + m
    assert m + m == m
    assert m @ (n + p) == m @ n + m @ p
    assert (m @ n) @ p == m @ (n @ p)


@settings(max_examples=60)
@given(mul_chain())
def test_mul_associativity_rectangular(chain):
    m, n, p = chain
    assert (m @ n) @ p == m @ (n @ p)


@settings(max_examples=60)
@given(st.data())
def test_leq_is_a_partial_order(data):
    a, b = data.draw(dims), data.draw(dims)
    m = data.draw(matrices(rows=a, cols=b))
    n = data.draw(matrices(rows=a, cols=b))
    p = data.draw(matrices(rows=a, cols=b))
    assert m <= m
    if m <= n and n <= p:
        assert m <= p
    if m <= n and n <= m:
        assert m == n


# -- closure ------------------------------------------------------------------


def test_closure_single_edge():
    s = ActionMatrix.from_bits(AB, [[0, 1], [0, 0]])
    assert rt_closure(s) == ActionMatrix.from_bits(AB, [[1, 1], [0, 1]])


def test_closure_of_zero_is_identity():
    assert rt_closure(ActionMatrix.zeros(AB, 3, 3)) == ActionMatrix.identity(AB, 3)


def test_closure_three_cycle_is_all_ones():
    s = ActionMatrix.from_bits(AB, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert rt_closure(s) == ActionMatrix.full(AB, 3, 3)


def test_closure_rejects_non_zero_one():
    with pytest.raises(ValueError):
        rt_closure(mat([[("a",)]]))
    with pytest.raises(MatrixShapeError):
        rt_closure(ActionMatrix.zeros(AB, 2, 3))


@settings(max_examples=80)
@given(square_zero_one())
def test_closure_properties(s):
    star = rt_closure(s)
    eye = ActionMatrix.identity(AB, s.rows)
    assert eye <= star
    assert s @ star <= star
    assert star @ star == star
    assert rt_closure(star) == star


def test_first_difference():
    m = mat([[("a",), ()], [(), ()]])
    n = mat([[("a",), ()], [(), ("b",)]])
    assert first_difference(m, m) is None
    assert first_difference(m, n) == (1, 1)


# -- reference semantics: entries as plain label sets ------------------------
#
# Each operation is restated on lists of frozensets of label indices and the
# two must agree entry for entry.  The 70-label alphabet needs masks wider
# than 64 bits.

WIDE = [ActionAlphabet(tuple(f"l{i}" for i in range(k))) for k in (1, 3, 70)]
shapes = st.integers(min_value=1, max_value=6)


@st.composite
def label_sets(draw, alphabet, rows, cols, zero_one=False):
    everything = frozenset(range(alphabet.size))
    if zero_one:
        cell = st.sampled_from((frozenset(), everything))
    else:
        cell = st.frozensets(st.integers(min_value=0, max_value=alphabet.size - 1))
    return [[draw(cell) for _ in range(cols)] for _ in range(rows)]


def as_matrix(alphabet, sets):
    return ActionMatrix.from_sets(alphabet, [[[alphabet.names[l] for l in cell] for cell in row] for row in sets])


def masks(sets):
    return tuple(tuple(sum(1 << l for l in cell) for cell in row) for row in sets)


def ref_product(a, b):
    return [
        [frozenset().union(*(a[i][m] & b[m][j] for m in range(len(b)))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def ref_closure(s, everything):
    n = len(s)
    reach = [[i == j or bool(s[i][j]) for j in range(n)] for i in range(n)]
    for m in range(n):
        for i in range(n):
            for j in range(n):
                reach[i][j] = reach[i][j] or (reach[i][m] and reach[m][j])
    return [[everything if x else frozenset() for x in row] for row in reach]


def ref_first_difference(a, b):
    return next(((i, j) for i in range(len(a)) for j in range(len(a[0])) if a[i][j] != b[i][j]), None)


@pytest.mark.parametrize("alphabet", WIDE, ids=lambda a: f"{a.size}-labels")
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_operations_match_label_set_reference(alphabet, data):
    r, m, c = data.draw(shapes), data.draw(shapes), data.draw(shapes)
    a = data.draw(label_sets(alphabet, r, m))
    b = data.draw(label_sets(alphabet, r, m))
    d = data.draw(label_sets(alphabet, m, c))
    i, j = data.draw(st.integers(0, r - 1)), data.draw(st.integers(0, m - 1))
    smaller = [[cell if (x, y) != (i, j) else frozenset() for y, cell in enumerate(row)] for x, row in enumerate(a)]
    ma, mb, md, ms = (as_matrix(alphabet, x) for x in (a, b, d, smaller))

    assert ma.data == masks(a)
    assert ActionMatrix(alphabet, ma.data) == ma
    assert all(ma.mask_at(x, y) == masks(a)[x][y] for x in range(r) for y in range(m))
    assert (ma @ md).data == masks(ref_product(a, d))
    assert (ma + mb).data == masks([[p | q for p, q in zip(ra, rb)] for ra, rb in zip(a, b)])
    assert ma.meet(mb).data == masks([[p & q for p, q in zip(ra, rb)] for ra, rb in zip(a, b)])
    assert ma.transpose().data == masks([list(col) for col in zip(*a)])
    for x, sx, y, sy in ((ma, a, mb, b), (ms, smaller, ma, a), (ma, a, ms, smaller)):
        assert (x <= y) == all(p <= q for rp, rq in zip(sx, sy) for p, q in zip(rp, rq))
        assert (x == y) == (sx == sy)
        assert first_difference(x, y) == ref_first_difference(sx, sy)
    assert hash(ma) == hash(as_matrix(alphabet, a))

    n = data.draw(shapes)
    s = data.draw(label_sets(alphabet, n, n, zero_one=True))
    everything = frozenset(range(alphabet.size))
    assert rt_closure(as_matrix(alphabet, s)).data == masks(ref_closure(s, everything))


# -- real solver ---------------------------------------------------------------


def test_solve_trivial_cases():
    eye = np.eye(3)
    b = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    assert np.allclose(solve_linear(eye, b), b)
    assert np.allclose(solve_linear(2.0 * np.eye(2), np.eye(2)), 0.5 * np.eye(2))


def test_solve_back_substitution_example():
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    assert np.allclose(solve_linear(a, np.array([1.0, 0.0])), [1.0, 0.0])


def test_solve_singular_raises():
    with pytest.raises(SingularMatrixError):
        solve_linear(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 0.0]))
    with pytest.raises(SingularMatrixError):
        solve_linear(np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([1.0, 0.0]))


def test_solve_pivot_threshold_is_relative_to_the_column():
    # the second pivot is the 2e-13 or 1e-11 left after eliminating the first
    # column, against PIVOT_RTOL = 1e-12 of the column's largest entry
    with pytest.raises(SingularMatrixError):
        solve_linear(np.array([[1.0, 1.0], [1.0, 1.0 + 2e-13]]), np.array([1.0, 0.0]))
    a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-11]])
    b = np.array([2.0, 2.0 + 1e-11])
    assert np.allclose(a @ solve_linear(a, b), b, rtol=0.0, atol=1e-12)


def test_solve_rejects_non_finite_and_bad_shapes():
    with pytest.raises(ValueError):
        solve_linear(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.array([1.0, 0.0]))
    with pytest.raises(MatrixShapeError):
        solve_linear(np.ones((2, 3)), np.ones(2))
    with pytest.raises(MatrixShapeError):
        solve_linear(np.eye(2), np.ones(3))


def test_solve_residuals_on_well_conditioned_systems(rng):
    for _ in range(50):
        n = rng.randint(1, 8)
        a = np.array([[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)])
        a += n * np.eye(n)  # diagonally dominant, hence well conditioned
        if np.linalg.cond(a) >= 1e8:
            continue
        b = np.array([rng.uniform(-5, 5) for _ in range(n)])
        x = solve_linear(a, b)
        assert np.max(np.abs(a @ x - b)) <= 1e-9
        assert np.allclose(x, np.linalg.solve(a, b), atol=1e-9)
