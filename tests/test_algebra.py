import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matbisim.algebra import (
    ActionAlphabet,
    ActionMatrix,
    PIVOT_RTOL,
    MatrixShapeError,
    SingularMatrixError,
    rt_closure,
    solve_linear,
)

from references import textbook_solve

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


# -- the solver against the textbook loop ------------------------------------


def _structured_systems(gen, n):
    """Diagonal, permuted triangular, block-diagonal, sparse and dense
    matrices of ``n`` states."""
    diagonal = np.diag(gen.uniform(0.5, 2.0, n) * gen.choice([-1.0, 1.0], n))
    upper = np.triu(gen.standard_normal((n, n))) + diagonal
    rows, cols = np.eye(n)[gen.permutation(n)], np.eye(n)[gen.permutation(n)]
    blocks = np.zeros((n, n))
    start = 0
    while start < n:
        end = min(n, start + int(gen.integers(1, 5)))
        blocks[start:end, start:end] = gen.standard_normal((end - start, end - start))
        start = end
    sparse = gen.standard_normal((n, n)) * (gen.random((n, n)) < 3.0 / n) + diagonal
    return {
        "diagonal": diagonal,
        "upper": upper,
        "lower": upper.T,
        "row-permuted upper": rows @ upper,
        "column-permuted lower": upper.T @ cols,
        "permuted both ways": rows @ upper @ cols,
        "block-diagonal": blocks + 1e-3 * diagonal,
        "permuted block-diagonal": rows @ blocks @ rows.T + 1e-3 * diagonal,
        "sparse": sparse,
        "dense": gen.standard_normal((n, n)),
    }


def _right_hand_sides(gen, n):
    zeros = gen.random((n, 3)) < 0.5
    # generator right-hand sides -(Q 1_C) hold -0.0 where a row has no rate
    return gen.standard_normal(n), gen.standard_normal((n, 4)), -np.where(zeros, 0.0, gen.random((n, 3)))


def _assert_solves_as_the_textbook_loop(a, b, label):
    try:
        expected = textbook_solve(a, b)
    except SingularMatrixError as exc:
        with pytest.raises(SingularMatrixError) as got:
            solve_linear(a, b)
        assert str(got.value) == str(exc), label
        return
    got = solve_linear(a, b)
    assert got.shape == expected.shape and np.array_equal(got, expected), label


def test_solver_equals_the_textbook_loop_on_structured_systems():
    gen = np.random.default_rng(7)
    swaps = 0
    for n in (1, 2, 3, 5, 8, 13, 40, 90):
        for name, a in _structured_systems(gen, n).items():
            swaps += name.startswith("row") and not np.array_equal(np.argmax(np.abs(a), axis=0), np.arange(n))
            for b in _right_hand_sides(gen, n):
                _assert_solves_as_the_textbook_loop(a, b, (name, n, b.shape))
    assert swaps  # the row-permuted systems do pivot


def _seeded_systems(gen, n):
    """Diagonal, upper-triangular, general and near-singular matrices of
    ``n`` states, with no ``-0.0`` entry.  The near-singular ones put a
    pivot about ``PIVOT_RTOL`` times its column's largest entry, on either
    side: one triangular (its pivot is checked before any step) and one
    with a column close to a combination of the others."""
    diagonal = np.diag(gen.uniform(0.5, 2.0, n) * gen.choice([-1.0, 1.0], n))
    upper = np.triu(gen.standard_normal((n, n)))
    general = gen.standard_normal((n, n))
    k = int(gen.integers(n))
    tiny_pivot = upper + diagonal
    tiny_pivot[k, k] = gen.uniform(0.5, 2.0) * PIVOT_RTOL * np.abs(tiny_pivot[:, k]).max()
    dependent = general.copy()
    dependent[:, k] = np.delete(general, k, axis=1) @ gen.standard_normal(n - 1) + 10.0 ** gen.uniform(-16, -8) * gen.standard_normal(n)
    return {"diagonal": diagonal, "upper": upper + diagonal, "general": general, "tiny pivot": tiny_pivot, "dependent": dependent}


def test_solver_matches_the_plain_loop_bitwise():
    """Without ``-0.0`` in the input, the values are bitwise those of the
    plain loop, and a refusal names the same column."""
    gen = np.random.default_rng(20)
    refused = dict.fromkeys(("tiny pivot", "dependent"), 0)
    for case in range(1500):
        n = int(gen.integers(1, 11))
        b = gen.standard_normal(n) if case % 2 else gen.standard_normal((n, 3))
        for name, a in _seeded_systems(gen, n).items():
            try:
                expected = textbook_solve(a, b)
            except SingularMatrixError as exc:
                refused[name] += 1
                with pytest.raises(SingularMatrixError) as got:
                    solve_linear(a, b)
                assert str(got.value) == str(exc), (name, case)
                continue
            got = solve_linear(a, b)
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), (name, case)
    assert set(refused) == {"tiny pivot", "dependent"} and min(refused.values()) > 100, refused


def test_solver_equals_the_textbook_loop_on_chain_systems(monkeypatch):
    """The transient blocks, recurrent-class systems and ``UΠV`` that the
    projection and the candidate distributor solve."""
    import random

    from matbisim import generate, mrc

    systems = []

    def recorded(a, b):
        systems.append((np.array(a), np.array(b)))
        return solve_linear(a, b)

    monkeypatch.setattr(mrc, "solve_linear", recorded)
    rng = random.Random(3)
    for base in (2, 3, 4, 12, 40):
        chain, part = generate.fast_funnel_chain(rng, base_states=base)
        mrc.default_tau_distributor(chain, part.collector_real())
    for _ in range(60):
        chain = generate.random_mrc_fast(rng, n=rng.randint(2, 30), p_fast=rng.choice((0.1, 0.3, 0.6)))
        mrc.ergodic_projection(chain.qf)
    assert len(systems) > 60
    assert any(np.count_nonzero(np.tril(a, -1)) for a, _ in systems)  # some need elimination
    for a, b in systems:
        _assert_solves_as_the_textbook_loop(a, b, a.shape)
        _assert_solves_as_the_textbook_loop(a, b[:, 0] if b.ndim == 2 else b, a.shape)


def test_solver_refuses_as_the_textbook_loop_does():
    gen = np.random.default_rng(11)
    for n in (2, 3, 6, 20):
        k = n // 2
        zero_column = gen.standard_normal((n, n))
        zero_column[:, k] = 0.0
        # nothing below the diagonal in column k, and nothing on it
        zero_pivot = np.triu(gen.standard_normal((n, n))) + 3.0 * np.eye(n)
        zero_pivot[k, k] = 0.0
        # a pivot just under PIVOT_RTOL times its column's largest entry,
        # alone in its column, and after a step of elimination
        tiny = np.diag(gen.uniform(1.0, 2.0, n))
        tiny[0, k] = 1.0
        tiny[k, k] = 0.99 * PIVOT_RTOL
        eliminated = np.eye(n)
        eliminated[k - 1 : k + 2, k - 1] = 1.0
        eliminated[k - 1 : k + 2, k] = 1.0 + np.array([0.0, 0.5, 0.9])[: n - k + 1] * PIVOT_RTOL
        for a in (zero_column, zero_pivot, tiny, eliminated):
            for b in (np.ones(n), np.ones((n, 2))):
                with pytest.raises(SingularMatrixError, match=f"^pivot for column {k} below threshold$"):
                    solve_linear(a, b)
                _assert_solves_as_the_textbook_loop(a, b, n)
    with pytest.raises(SingularMatrixError, match="^pivot for column 0 below threshold$"):
        solve_linear(np.zeros((3, 3)), np.ones(3))
