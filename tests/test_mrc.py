import math
import random
import time

import mpmath
import numpy as np
import pytest
import scipy.linalg

from matbisim import generate, mrc
from matbisim.mrc import (
    DistributorError,
    GeneratorError,
    Mrc,
    MrcFast,
    adapt_diagonal,
    as_fast_chain,
    default_tau_distributor,
    ergodic_projection,
    format_mrc,
    limit_chain,
    parse_distributor,
    parse_mrc,
    project_stack,
    tau_distributor_residuals,
    total_reward,
    transition_matrix,
    validate_generator,
)
from matbisim.partition import CheckFailed, ModelFormatError, Partition, Search, enumerate_partitions

ABSORBING_Q = np.array([[-1.0, 1.0], [0.0, 0.0]])
SYMMETRIC_Q = np.array([[-2.0, 2.0], [2.0, -2.0]])


def real_collector(*blocks):
    n = sum(len(b) for b in blocks)
    return Partition(n, tuple(tuple(b) for b in blocks)).collector_real()


# -- generators and model validation -------------------------------------------


def test_validate_generator_accepts_standard_cases(reward_chain):
    assert np.allclose(validate_generator(np.zeros((3, 3))), 0.0)
    cleaned = validate_generator(reward_chain.q)
    assert np.allclose(cleaned, [[-2, 1, 1], [0, 0, 0], [1, 0, -1]])


def test_validate_generator_rejects_bad_rows():
    with pytest.raises(GeneratorError, match="row 0"):
        validate_generator(np.array([[1.0, -1.0], [0.0, 0.0]]))
    with pytest.raises(GeneratorError, match="row sum"):
        validate_generator(np.array([[-1.0, 2.0], [0.0, 0.0]]))
    with pytest.raises(GeneratorError):
        validate_generator(np.ones((2, 3)))


def test_validate_generator_bound_scales_with_the_rate_sum():
    # 1e-2 off a rate sum of 2e7 is 5e-10 of it; 1 off is 5e-8
    validate_generator(np.array([[-2e7 + 1e-2, 2e7], [0.0, 0.0]]))
    with pytest.raises(GeneratorError, match="row 0: row sum"):
        validate_generator(np.array([[-2e7 + 1.0, 2e7], [0.0, 0.0]]))
    with pytest.raises(GeneratorError, match="row 1: row sum"):  # the rates sum past the largest float
        validate_generator(np.array([[0.0, 0.0, 0.0], [1e308, 0.0, 1e308], [0.0, 0.0, 0.0]]))


def test_validate_generator_clamps_noise():
    q = np.array([[-1.0, 1.0 - 1e-12], [1e-12, -1e-12]])
    cleaned = validate_generator(q)
    assert np.all(cleaned.sum(axis=1) == 0.0)
    assert np.all(cleaned[~np.eye(2, dtype=bool)] >= 0.0)


def test_mrc_validation():
    with pytest.raises(ValueError):
        Mrc([0.5, 0.4], ABSORBING_Q, [0.0, 1.0])  # probabilities sum to 0.9
    with pytest.raises(ValueError):
        Mrc([1.5, -0.5], ABSORBING_Q, [0.0, 1.0])
    with pytest.raises(ValueError):
        Mrc([1.0, 0.0], ABSORBING_Q, [0.0, 1.0, 2.0])
    chain = Mrc([1.0, 0.0], ABSORBING_Q, [0.0, 1.0])
    with pytest.raises(ValueError):
        chain.q[0, 0] = 5.0  # frozen


# -- transient analysis ----------------------------------------------------------


def test_transition_matrix_at_zero_is_identity():
    assert np.array_equal(transition_matrix(ABSORBING_Q, 0.0), np.eye(2))
    assert np.array_equal(transition_matrix(np.zeros((3, 3)), 2.5), np.eye(3))


def test_transition_matrix_closed_form_absorbing():
    p = transition_matrix(ABSORBING_Q, 1.0)
    expected = np.array([[math.exp(-1.0), 1.0 - math.exp(-1.0)], [0.0, 1.0]])
    assert np.max(np.abs(p - expected)) <= 1e-12


def test_transition_matrix_rows_sum_to_one(rng):
    for _ in range(25):
        q = generate.random_generator(rng, rng.randint(1, 6))
        t = rng.uniform(0.0, 8.0)
        p = transition_matrix(q, t)
        assert np.all(p >= -1e-12)
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-9


def test_transition_matrix_semigroup_property(rng):
    for _ in range(15):
        q = generate.random_generator(rng, rng.randint(1, 5))
        s, t = rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0)
        lhs = transition_matrix(q, s + t)
        rhs = transition_matrix(q, s) @ transition_matrix(q, t)
        assert np.max(np.abs(lhs - rhs)) <= 1e-8


def test_transition_matrix_matches_dense_exponential(rng):
    for _ in range(15):
        q = generate.random_generator(rng, rng.randint(1, 6))
        t = rng.uniform(0.0, 50.0)
        assert np.max(np.abs(transition_matrix(q, t) - scipy.linalg.expm(q * t))) <= 1e-9


def test_transition_matrix_rejects_negative_time():
    with pytest.raises(ValueError):
        transition_matrix(ABSORBING_Q, -0.1)


def test_transition_matrix_rejects_non_finite_time():
    for t in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            transition_matrix(ABSORBING_Q, t)
    with pytest.raises(ValueError, match="too long"):
        transition_matrix(SYMMETRIC_Q, 1e308)  # ‖Qt‖₁ overflows


def two_edge_generator(rng, n=6):
    """Generator with two out-edges per state, rates uniform in 0.3-3."""
    q = np.zeros((n, n))
    for i in range(n):
        for j in rng.sample([j for j in range(n) if j != i], 2):
            q[i, j] = rng.uniform(0.3, 3.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


def test_transition_matrix_meets_tolerance_over_long_horizons():
    # the documented range: rates 0.3-3, horizons up to 1e6, every entry
    # within 1e-9 of a 50-digit reference
    rng = random.Random(4)
    with mpmath.workdps(50):
        for _ in range(5):
            q = two_edge_generator(rng)
            exact = mpmath.matrix(q.tolist())
            for t in (0.1, 1.0, 10.0, 1e2, 1e3, 1e4, 1e5, 1e6):
                reference = np.array(mpmath.expm(exact * t).tolist(), dtype=float)
                assert np.max(np.abs(transition_matrix(q, t) - reference)) <= 1e-9, t


def test_transition_matrix_refuses_horizons_that_lose_probability_mass():
    # rows of e^(Qt) sum to 1; past the documented range the squarings leak
    # mass, and a loss above the tolerance is refused instead of returned
    rng = random.Random(1)
    refused = 0
    for _ in range(5):
        q = generate.random_generator(rng, 6)
        assert np.max(np.abs(transition_matrix(q, 1e6).sum(axis=1) - 1.0)) <= 1e-9
        try:
            rows = transition_matrix(q, 1e7).sum(axis=1)
        except ValueError as exc:
            assert "too long for these rates" in str(exc)
            refused += 1
        else:
            assert np.max(np.abs(rows - 1.0)) <= 1e-9
    assert refused >= 1


def test_transition_matrices_equal_one_transition_matrix_per_time(monkeypatch):
    # shared scaled steps, unsorted and repeated: bit for bit the matrices
    # of one call per time, and one Padé quotient for the one step
    from matbisim import algebra

    calls = []

    def counted(a):
        calls.append(a.shape)
        return algebra.pade_quotient(a)

    times = (2.0, 0.0, 4.0, 0.5, 1.0, 2.0, 0.5, 4.0, 0.0)
    q = 4.0 * two_edge_generator(random.Random(2))
    assert 0.5 * np.max(np.abs(q).sum(axis=0)) > algebra.PADE_THETA  # so 0.5 .. 4 share one step
    monkeypatch.setattr(mrc, "pade_quotient", counted)
    shared = list(mrc.transition_matrices(q, times))
    assert len(calls) == 1
    for t, p in zip(times, shared, strict=True):
        assert np.array_equal(p, transition_matrix(q, t)), t

    chain, _ = generate.fast_funnel_chain(random.Random(0), base_states=12)
    limit = limit_chain(chain)
    g = limit.generator
    assert 0.5 * np.max(np.abs(g).sum(axis=0)) > algebra.PADE_THETA
    shared = list(mrc.transition_matrices(g, times, require_generator=False))
    for t, p in zip(times, shared, strict=True):
        assert np.array_equal(p, transition_matrix(g, t, require_generator=False)), t
    for t, p in zip(times, limit.transitions(times), strict=True):
        assert np.array_equal(p, limit.transition(t)), t


def test_transition_matrices_refuse_the_first_failing_time_in_the_callers_order():
    # 1e15 and the times past it lose mass on this chain; 4e15 shares the
    # step of 1e15 and comes first in the caller's order
    out = mrc.transition_matrices(ABSORBING_Q, (1.0, 4e15, 1e15))
    assert np.array_equal(next(out), transition_matrix(ABSORBING_Q, 1.0))
    with pytest.raises(ValueError, match=r"^time 4e\+15 is too long for these rates$"):
        next(out)
    with pytest.raises(ValueError, match=r"^time 1e\+17 is too long for these rates$"):
        list(mrc.transition_matrices(ABSORBING_Q, (1e17, 1e15, -1.0)))
    with pytest.raises(ValueError, match="^time must be nonnegative$"):
        list(mrc.transition_matrices(ABSORBING_Q, (-1.0, 1e15)))


def test_transition_matrices_meet_tolerance_over_long_horizons():
    # the documented range through one call: each time from 1 on is the
    # previous one to the tenth power, so the error of the 0.1 quotient
    # compounds; every entry stays within 1e-9 of a 50-digit reference
    rng = random.Random(4)
    times = (0.1, 1.0, 10.0, 1e2, 1e3, 1e4, 1e5, 1e6)
    with mpmath.workdps(50):
        for _ in range(5):
            q = two_edge_generator(rng)
            exact = mpmath.matrix(q.tolist())
            for t, p in zip(times, mrc.transition_matrices(q, times), strict=True):
                reference = np.array(mpmath.expm(exact * t).tolist(), dtype=float)
                assert np.max(np.abs(p - reference)) <= 1e-9, t


@pytest.mark.parametrize(
    "q, times",
    [
        (ABSORBING_Q, (0.1, 0.3)),  # 0.3 / 0.1 is 2.9999999999999996, and 3 * 0.1 is not 0.3
        (1e-3 * ABSORBING_Q, (1e-300, 1e10)),  # the ratio overflows to inf
        (ABSORBING_Q, (5e-324, 1.0)),  # the ratio overflows, and 5e-324 / PADE_THETA underflows to 0
    ],
)
def test_transition_matrices_power_only_exact_multiples(q, times):
    for t, p in zip(times, mrc.transition_matrices(q, times), strict=True):
        alone = transition_matrix(q, t)
        assert np.max(np.abs(p - alone)) <= 1e-12 * np.max(np.abs(alone)), t


def test_total_reward_examples(reward_chain):
    assert total_reward(reward_chain, 0.0) == 1.0  # exact: P(0) = I
    absorbing = Mrc([1.0, 0.0], ABSORBING_Q, [0.0, 1.0])
    assert abs(total_reward(absorbing, 30.0) - 1.0) <= 1e-9
    zero_reward = Mrc([1.0, 0.0], ABSORBING_Q, [0.0, 0.0])
    assert total_reward(zero_reward, 1.7) == 0.0


# -- ordinary lumping ---------------------------------------------------------------


def test_strong_check_examples():
    chain = Mrc([0.5, 0.5], SYMMETRIC_Q, [3.0, 3.0])
    assert mrc.check(chain, np.eye(2), "strong").passed
    assert mrc.check(chain, real_collector((0, 1)), "strong").passed
    uneven = Mrc([0.5, 0.5], SYMMETRIC_Q, [3.0, 4.0])
    report = mrc.check(uneven, real_collector((0, 1)), "strong")
    assert not report.passed and report.violated == "VUρ = ρ"


def test_strong_lump_collapses_symmetric_pair():
    chain = Mrc([0.5, 0.5], SYMMETRIC_Q, [3.0, 3.0])
    lumped = mrc.lump(chain, real_collector((0, 1)), "strong")
    assert lumped.num_states == 1
    assert lumped.q[0, 0] == 0.0
    assert lumped.rho[0] == 3.0
    assert lumped.sigma[0] == 1.0


def test_strong_lump_requires_passing_check():
    uneven = Mrc([0.5, 0.5], SYMMETRIC_Q, [3.0, 4.0])
    with pytest.raises(CheckFailed):
        mrc.lump(uneven, real_collector((0, 1)), "strong")


def test_strong_lump_rows_sum_to_zero(rng):
    for _ in range(25):
        base = generate.random_mrc(rng, n=rng.randint(1, 4))
        chain, part = generate.duplicate_states_mrc(rng, base)
        lumped = mrc.lump(chain, part.collector_real(), "strong")
        assert np.max(np.abs(lumped.q.sum(axis=1))) <= 1e-12


def test_strong_verdict_and_lump_are_distributor_independent(rng):
    for _ in range(30):
        base = generate.random_mrc(rng, n=rng.randint(1, 4))
        chain, part = generate.duplicate_states_mrc(rng, base)
        v = part.collector_real()
        u = generate.random_real_distributor(rng, part)
        assert mrc.check(chain, v, "strong", distributor=u).passed
        a = mrc.lump(chain, v, "strong")
        b = mrc.lump(chain, v, "strong", distributor=u)
        assert np.max(np.abs(a.q - b.q)) <= 1e-9
        assert np.max(np.abs(a.rho - b.rho)) <= 1e-9


def test_reward_preserved_under_ordinary_lumping(rng):
    for _ in range(20):
        base = generate.random_mrc(rng, n=rng.randint(1, 4))
        chain, part = generate.duplicate_states_mrc(rng, base)
        lumped = mrc.lump(chain, part.collector_real(), "strong")
        for t in (0.0, 0.1, 1.0, 10.0):
            assert abs(total_reward(chain, t) - total_reward(lumped, t)) <= 1e-8


def test_strong_check_on_fast_chain_constrains_both_generators():
    # only state 0 has a fast step out of the merged block
    qf = validate_generator(np.array([[-1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    fast = MrcFast([0.5, 0.5, 0.0], np.zeros((3, 3)), qf, [1.0, 1.0, 1.0])
    report = mrc.check(fast, real_collector((0, 1), (2,)), "strong")
    assert not report.passed and report.violated == "VUQfV = QfV"


# -- ergodic projection ----------------------------------------------------------------


def test_projection_examples():
    still = ergodic_projection(np.zeros((2, 2)))
    assert np.array_equal(still.pi, np.eye(2))
    assert still.recurrent_classes == ((0,), (1,))
    assert still.transient == ()

    absorbed = ergodic_projection(ABSORBING_Q)
    assert np.allclose(absorbed.pi, [[0.0, 1.0], [0.0, 1.0]])
    assert absorbed.recurrent_classes == ((1,),)
    assert absorbed.transient == (0,)

    mixing = ergodic_projection(np.array([[-1.0, 1.0], [1.0, -1.0]]))
    assert np.allclose(mixing.pi, [[0.5, 0.5], [0.5, 0.5]])
    assert mixing.recurrent_classes == ((0, 1),)


def test_projection_invariants_and_long_horizon_oracle(rng):
    # beside small random generators, the fast generators of funnels and of
    # chains of up to 30 states, whose transient blocks and classes are
    # larger systems to solve
    generators = [generate.random_generator(rng, rng.randint(1, 8)) for _ in range(25)]
    generators += [generate.fast_funnel_chain(rng, base_states=base)[0].qf for base in (12, 40)]
    generators += [generate.random_mrc_fast(rng, n=n, p_fast=p).qf for n, p in ((30, 0.05), (30, 0.1), (20, 0.3), (30, 0.6))]
    for q in generators:
        proj = ergodic_projection(q)
        pi = proj.pi
        assert np.all(pi >= 0.0)
        assert np.max(np.abs(pi.sum(axis=1) - 1.0)) <= 1e-9
        assert np.max(np.abs(pi @ pi - pi)) <= 1e-9
        assert np.max(np.abs(pi @ q)) <= 1e-9
        assert np.max(np.abs(q @ pi)) <= 1e-9
        max_rate = float(np.max(np.abs(q)))
        if max_rate > 0.0:
            horizon = 1e4 / max_rate
            assert np.max(np.abs(pi - transition_matrix(q, horizon))) <= 1e-6


def test_projection_is_read_through_its_factors(rng):
    # every product of the factored operator agrees with the dense Π, on
    # stacked operands too
    noise = np.random.default_rng(4)
    for _ in range(30):
        chain = generate.random_mrc_fast(rng, n=rng.randint(1, 8), p_fast=0.7)
        proj = ergodic_projection(chain.qf)
        pi, n = proj.pi, chain.num_states
        x, y, z = (noise.uniform(-1.0, 1.0, (n, n)) for _ in range(3))
        stack = noise.uniform(-1.0, 1.0, (3, n, 2))
        k = len(proj.recurrent_classes)
        assert np.allclose(proj.e(x), proj.stationary @ x, rtol=0, atol=1e-12)
        assert np.allclose(proj.a(x[:k]), proj.trapping @ x[:k], rtol=0, atol=1e-12)
        assert np.allclose(proj.times_e(x[:, :k]), x[:, :k] @ proj.stationary, rtol=0, atol=1e-12)
        closed = proj @ (x @ proj)
        cases = [
            (proj, pi),
            (x @ proj, x @ pi),
            (proj @ proj, pi @ pi),
            (closed, pi @ x @ pi),
            (y @ closed, y @ pi @ x @ pi),
            (closed @ (y @ proj), pi @ x @ pi @ y @ pi),
            ((z @ closed) @ (y @ closed), z @ pi @ x @ pi @ y @ pi @ x @ pi),
        ]
        for factored, dense in cases:
            assert np.allclose(factored @ z, dense @ z, rtol=0, atol=1e-9)
            assert np.allclose(factored @ stack, dense @ stack, rtol=0, atol=1e-9)


def _candidate_generators(chain, blocks: int) -> np.ndarray:
    """The fast generator restricted to every partition with ``blocks`` blocks, stacked."""
    n = chain.num_states
    labels = np.array([p.assignment for p in enumerate_partitions(n) if p.num_blocks == blocks])
    return adapt_diagonal(chain.qf, (labels[:, :, None] == np.arange(blocks)).astype(float))


def _divides(q, transient) -> bool:
    """Whether the transient block of ``q`` is solved by division: nothing
    off its diagonal, no zero on it."""
    block = q[np.ix_(transient, transient)]
    return bool(transient) and np.count_nonzero(block) == len(transient) and bool(block.diagonal().all())


def test_stacked_projection_is_each_members_projection_bitwise():
    rng = random.Random(14)
    transient = multi_state = divided = 0
    for n in range(2, 8):
        for _ in range(2 if n < 7 else 1):
            chain = generate.random_mrc_fast(rng, n=n, p_fast=rng.uniform(0.3, 0.8))
            for blocks in range(1, n + 1):
                stack = _candidate_generators(chain, blocks)
                pi = project_stack(stack)[0]
                assert pi.shape == stack.shape
                for q, member in zip(stack, pi):
                    alone = ergodic_projection(q)
                    assert np.array_equal(member, alone.pi)
                    transient += bool(alone.transient)
                    multi_state += any(len(c) > 1 for c in alone.recurrent_classes)
                    divided += _divides(q, alone.transient)
    assert transient > 100 and multi_state > 100
    # the transient blocks that are divided by their diagonal give the
    # stacked and the single projection the same bits too
    assert divided > 0
    # all-zero stacks, with more than one leading axis: every state is its own class
    for shape in ((1, 1, 1), (5, 4, 4), (2, 3, 6, 6)):
        pi = project_stack(np.zeros(shape))[0]
        assert np.array_equal(pi, np.broadcast_to(np.eye(shape[-1]), shape))


def test_projection_validates_its_generator_and_refuses_a_stack():
    # project_stack trusts its stack; ergodic_projection, the public entry,
    # validates one generator and refuses a stack
    chain = generate.random_mrc_fast(random.Random(3), n=5)
    stack = _candidate_generators(chain, 2)
    negative = stack[3].copy()
    negative[0, 1] = -1.0
    with pytest.raises(GeneratorError, match="^row 0: negative rate"):
        ergodic_projection(negative)
    with pytest.raises(GeneratorError, match="generator must be square"):
        ergodic_projection(stack)


def nested_two_cycles(k):
    """A chain of k two-cycles {2i, 2i+1}, each linked to the one below it
    (2i -> 2i-2): every node has an in- and an out-edge, and no node of a
    lower class reaches a higher one."""
    i = np.arange(k)
    src = np.concatenate([2 * i, 2 * i + 1, 2 * i[1:]])
    dst = np.concatenate([2 * i + 1, 2 * i, 2 * i[1:] - 2])
    return src, dst, 2 * k


def test_strong_components_partition_the_nodes_as_scipy_does():
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    rng = np.random.default_rng(19)
    graphs = []
    for _ in range(1000):
        size = int(rng.integers(1, 61))
        adj = rng.random((size, size)) < rng.uniform(0.0, 0.3)
        np.fill_diagonal(adj, False)
        graphs.append((*np.nonzero(adj), size))
    none = np.zeros(0, dtype=np.intp)
    graphs += [(none, none, size) for size in (1, 2, 60)]
    # stacks as project_stack builds them: node s·n + i is state i of member s
    for members, n, density in ((256, 7, 0.2), (40, 12, 0.1), (3, 50, 0.05)):
        adj = rng.random((members, n, n)) < density
        adj[:, np.arange(n), np.arange(n)] = False
        src, col = np.nonzero(adj.reshape(members * n, n))
        graphs.append((src, src - src % n + col, members * n))
    # rings and paths, with node ids running with and against the edges
    line = np.arange(500)
    for src, dst in ((line, (line + 1) % 500), (line[:-1], line[1:])):
        graphs += [(src, dst, 500), (dst, src, 500)]
    graphs += [nested_two_cycles(k) for k in (600, 4800)]

    for src, dst, size in graphs:
        count, labels = mrc._strong_components(src, dst, size)
        graph = csr_matrix((np.ones(len(src)), (src, dst)), shape=(size, size))
        expected_count, expected = connected_components(graph, directed=True, connection="strong")
        assert count == expected_count and labels.shape == (size,)
        assert set(labels.tolist()) == set(range(count))
        # each component of one labelling is exactly one component of the other
        assert len(set(zip(labels.tolist(), expected.tolist()))) == count


def test_strong_components_take_linear_time_on_long_chains_of_components():
    # 9600 nodes in 4800 components: linear work is milliseconds, while a
    # pass that peels one component per sweep over the edges takes minutes.
    src, dst, size = nested_two_cycles(4800)
    start = time.perf_counter()
    count, labels = mrc._strong_components(src, dst, size)
    assert time.perf_counter() - start < 2.0
    assert count == 4800 and (labels[0::2] == labels[1::2]).all()


# -- weak bisimulation --------------------------------------------------------------


def test_weak_check_degenerates_to_strong_without_fast_part(rng):
    for _ in range(30):
        chain = generate.random_mrc(rng, n=rng.randint(1, 5))
        fast = as_fast_chain(chain)
        v = generate.random_partition(rng, chain.num_states).collector_real()
        assert mrc.check(fast, v, "weak").passed == mrc.check(chain, v, "strong").passed


def test_weak_check_examples(fast_absorbing):
    v = real_collector((0, 1))
    assert mrc.check(fast_absorbing, v, "weak").passed
    assert mrc.check(fast_absorbing, np.eye(2), "weak").passed
    strong = mrc.check(fast_absorbing, v, "strong")
    assert not strong.passed  # rewards differ inside the class


def test_weak_check_reports_smoothed_reward_violation():
    fast = MrcFast([1.0, 0.0, 0.0], np.zeros((3, 3)), validate_generator(np.array(
        [[-1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    )), [0.0, 5.0, 7.0])
    report = mrc.check(fast, real_collector((0, 2), (1,)), "weak")
    assert not report.passed and report.violated == "VUΠρ = Πρ"


# -- distributor certification ----------------------------------------------------------


def test_default_distributor_without_fast_part_is_the_canonical_one(rng):
    for _ in range(15):
        base = generate.random_mrc(rng, n=rng.randint(1, 4))
        chain, part = generate.duplicate_states_mrc(rng, base)
        fast = as_fast_chain(chain)
        v = part.collector_real()
        w = default_tau_distributor(fast, v)
        expected = v.T / v.sum(axis=0)[:, None]
        assert np.max(np.abs(w - expected)) <= 1e-12


def test_default_distributor_fast_absorbing(fast_absorbing):
    w = default_tau_distributor(fast_absorbing, real_collector((0, 1)))
    assert np.max(np.abs(w - np.array([[0.0, 1.0]]))) <= 1e-12


def test_default_distributor_requires_weak_check():
    uneven = MrcFast([0.5, 0.5], SYMMETRIC_Q, np.zeros((2, 2)), [3.0, 4.0])
    with pytest.raises(CheckFailed):
        default_tau_distributor(uneven, real_collector((0, 1)))


def test_distributor_residuals_certify_funnels(rng):
    for _ in range(20):
        chain, part = generate.fast_funnel_chain(rng)
        v = part.collector_real()
        w = default_tau_distributor(chain, v)
        residuals = tau_distributor_residuals(chain, v, w)
        assert set(residuals) == {"W1 = 1", "WV = I", "ΠVW = ΠVWΠ", "proj(WQfV) = WΠV"}
        assert max(residuals.values()) <= 1e-8


def _dense_weak(chain, v, w=None):
    """The weak rows, the candidate distributor (or ``w``), its residuals
    and the lumped generators, with ``Π`` formed as the array
    ``trapping @ stationary``."""
    fast = as_fast_chain(chain)
    proj = ergodic_projection(fast.qf)
    pi = proj.trapping @ proj.stationary
    rows = [pi @ fast.rho.reshape(-1, 1), pi @ v, pi @ fast.qs @ pi @ v]
    for (_, x), dense in zip(mrc.conditions(chain, "weak")(v), rows, strict=True):
        assert _near(x, dense)
    if w is None:
        up = mrc.canonical_distributor(v) @ pi
        w = np.linalg.solve(up @ v, up)
    pvw = pi @ v @ w
    residuals = {
        "W1 = 1": mrc.max_abs_diff(w.sum(axis=1), np.ones(len(w))),
        "WV = I": mrc.max_abs_diff(w @ v, np.eye(v.shape[1])),
        "ΠVW = ΠVWΠ": mrc.max_abs_diff(pvw, pvw @ pi),
    }
    try:
        residuals["proj(WQfV) = WΠV"] = mrc.max_abs_diff(ergodic_projection(w @ fast.qf @ v).pi, w @ pi @ v)
    except GeneratorError:
        residuals["proj(WQfV) = WΠV"] = math.inf
    return w, residuals, (w @ fast.qs @ v, w @ fast.qf @ v)


def _near(x, dense):
    x, dense = np.asarray(x), np.asarray(dense)
    return x.shape == dense.shape and bool(np.all(np.abs(x - dense) <= 1e-12 * np.maximum(1.0, np.abs(dense))))


def test_factored_projection_matches_dense_evaluation():
    # the weak rows, the candidate distributor, every certification residual
    # and the lumped generators read through Π = A E agree with those of
    # the dense Π = trapping @ stationary
    rng = random.Random(29)
    cases = []
    for _ in range(25):
        chain = generate.random_mrc_fast(rng, max_states=8, p_fast=0.6)
        cases.append((chain, Search(chain, "weak").coarsest()))
        chain, planted = generate.duplicate_states_mrc(rng, generate.random_mrc_fast(rng, max_states=5))
        cases.append((chain, planted))
        cases.append(generate.fast_funnel_chain(rng, base_states=rng.randint(2, 30)))
    plain = generate.random_mrc(rng, n=7)  # Π = I
    cases.append((plain, Search(plain, "weak").coarsest()))
    certified = perturbed = singular = 0
    for chain, part in cases:
        v = part.collector_real()
        try:
            w, residuals, lumped = _dense_weak(chain, v)
        except np.linalg.LinAlgError:  # UΠV is singular: no candidate either way
            with pytest.raises(DistributorError, match="singular"):
                default_tau_distributor(chain, v)
            singular += 1
            continue
        assert _near(default_tau_distributor(chain, v), w)
        assert all(_near(x, residuals[name]) for name, x in tau_distributor_residuals(chain, v, w).items())
        quotient = mrc.lump(chain, v, "weak")
        assert _near(quotient.qs, validate_generator(lumped[0])) and _near(quotient.qf, validate_generator(lumped[1]))
        certified += 1
        # a supplied distributor off the candidate: residuals far from zero
        noisy = w + 1e-3 * np.random.default_rng(certified).uniform(-1.0, 1.0, w.shape)
        residuals = _dense_weak(chain, v, noisy)[1]
        factored = tau_distributor_residuals(chain, v, noisy)
        assert factored.keys() == residuals.keys()
        assert all(_near(x, residuals[name]) for name, x in factored.items())
        perturbed += factored["ΠVW = ΠVWΠ"] > 1e-6
    assert certified > 45 and perturbed > 35 and singular > 10, (certified, perturbed, singular)


def test_singular_class_projection_refuses_the_candidate():
    # a transient state alone in its block: its block holds no stationary
    # mass, so (UA)(EV) has a zero column and no candidate exists, whether
    # the transient block is solved by division (the first chain) or not
    chains = [
        MrcFast([1.0, 0.0], np.zeros((2, 2)), validate_generator(np.array([[-1.0, 1.0], [0.0, 0.0]])), [1.0, 2.0]),
        MrcFast([1.0, 0.0, 0.0], np.zeros((3, 3)), validate_generator(np.array(
            [[-2.0, 1.0, 1.0], [1.0, -1.5, 0.5], [0.0, 0.0, 0.0]]
        )), [1.0, 2.0, 3.0]),
    ]
    for chain, diagonal in zip(chains, (True, False), strict=True):
        v = np.eye(chain.num_states)
        proj = ergodic_projection(chain.qf)
        assert _divides(chain.qf, proj.transient) == diagonal
        assert mrc.check(chain, v, "weak").passed
        ua = mrc.canonical_distributor(v) @ proj.trapping
        assert np.linalg.matrix_rank(ua @ proj.e(v)) < v.shape[1]
        with pytest.raises(DistributorError, match="singular to tolerance"):
            default_tau_distributor(chain, v)
        with pytest.raises(DistributorError, match="singular to tolerance"):
            mrc.lump(chain, v, "weak")


def fan_chain(rng):
    """A cloned plain chain whose clone groups are weak blocks, each group
    of two or more clones joined by a transient entry that fans out by fast
    steps into every clone, or by a fast cycle through its clones.

    An entry traps into as many recurrent classes as its group has clones,
    so ``A`` has rows with more than one nonzero; the group is a weak block
    with recurrent mass, so the candidate distributor is certified."""
    base, part = generate.duplicate_states_mrc(rng, generate.random_mrc(rng, n=rng.randint(2, 5)), p_clone=0.7)
    n0 = base.num_states
    groups = [list(b) for b in part.blocks]
    fans = [g for g in groups if len(g) > 1 and rng.random() < 0.7]
    n = n0 + len(fans)
    qs, qf = np.zeros((n, n)), np.zeros((n, n))
    qs[:n0, :n0] = base.q
    np.fill_diagonal(qs, 0.0)
    sigma, rho = np.zeros(n), np.zeros(n)
    sigma[:n0], rho[:n0] = base.sigma, base.rho
    for entry, group in enumerate(fans, start=n0):
        qf[entry, group] = [rng.uniform(0.5, 3.0) for _ in group]
        qs[entry, rng.randrange(n0)] = rng.uniform(0.3, 3.0)
        rho[entry] = rng.uniform(0.0, 5.0)  # invisible behind the fast steps
        group.append(entry)
    for group in groups:
        if len(group) > 1 and group[-1] < n0:
            for x, y in zip(group, group[1:] + group[:1]):
                qf[x, y] = rng.uniform(0.5, 3.0)
    np.fill_diagonal(qs, -qs.sum(axis=1))
    np.fill_diagonal(qf, -qf.sum(axis=1))
    return MrcFast(sigma, qs, qf, rho), Partition(n, tuple(tuple(sorted(g)) for g in groups))


def _dense_commutation_gap(chain, v, w, times):
    """``max |Π̂ e^(Π̂Q̂sΠ̂t) − W Π e^(ΠQsΠt) V|`` over ``times``, from dense
    projections and SciPy's exponential."""
    pi = ergodic_projection(chain.qf).pi
    pi_hat = ergodic_projection(w @ chain.qf @ v).pi
    slow, slow_hat = pi @ chain.qs @ pi, pi_hat @ (w @ chain.qs @ v) @ pi_hat
    return max(
        np.max(np.abs(pi_hat @ scipy.linalg.expm(slow_hat * t) - w @ pi @ scipy.linalg.expm(slow * t) @ v)) for t in times
    )


def test_weak_lumping_through_the_class_part_matches_dense_evaluation():
    # chains whose transient states trap into two or more classes: the
    # candidate, read through its class part, and a supplied distributor
    # give the residuals, quotient and commutation verdict of dense W
    from matbisim.mrc import verify_limit_commutation

    rng = random.Random(37)
    times = (0.0, 0.5, 1.0, 2.0)
    split_rows = supplied = refused = redrawn = 0
    for _ in range(40):
        chain, part = fan_chain(rng)
        v = part.collector_real()
        proj = ergodic_projection(chain.qf)
        split_rows += int(np.count_nonzero((proj.trapping > 0).sum(axis=1) > 1))
        w, residuals, lumped = _dense_weak(chain, v)
        candidate = default_tau_distributor(chain, v)
        assert _near(candidate, w)
        # another certified distributor: each clone group's weights on its
        # recurrent singletons drawn afresh
        other = candidate.copy()
        for j, block in enumerate(part.blocks):
            single = [x for x in block if (proj.classes[x] >= 0) and proj.weights[x] == 1.0]
            if len(single) == len(block) - 1 > 1:
                other[j, single] = np.random.default_rng(j).dirichlet(np.ones(len(single)))
        redrawn += not np.array_equal(other, candidate)
        noisy = w + 1e-3 * np.random.default_rng(supplied).uniform(-1.0, 1.0, w.shape)
        for given in (None, other, noisy):
            dense_w = w if given is None else given
            residuals = _dense_weak(chain, v, dense_w)[1]
            factored = tau_distributor_residuals(chain, v, dense_w)
            assert factored.keys() == residuals.keys()
            assert all(_near(x, residuals[name]) for name, x in factored.items())
            if max(residuals.values()) > 1e-9:
                refused += 1
                with pytest.raises(DistributorError, match="failed certification"):
                    mrc.lump(chain, v, "weak", distributor=given)
                with pytest.raises(DistributorError, match="failed certification"):
                    verify_limit_commutation(chain, v, given)
                continue
            supplied += given is not None
            quotient = mrc.lump(chain, v, "weak", distributor=given)
            dense_qs, dense_qf = dense_w @ chain.qs @ v, dense_w @ chain.qf @ v
            assert _near(quotient.qs, validate_generator(dense_qs)) and _near(quotient.qf, validate_generator(dense_qf))
            assert _near(quotient.rho, dense_w @ chain.rho) and _near(quotient.sigma, chain.sigma @ v)
            gap = _dense_commutation_gap(chain, v, dense_w, times)
            assert gap <= 1e-12
            assert verify_limit_commutation(chain, v, given, times)
            assert not verify_limit_commutation(chain, v, given, times, tolerance=-1.0)
    assert split_rows > 40 and supplied > 20 and refused >= 40 and redrawn > 10, (split_rows, supplied, refused, redrawn)


def test_weak_table_holds_no_dense_projection():
    # the dense table holds Π and ΠQsΠ, two n x n arrays, at once; read
    # through Π = A E, building and evaluating it peaks below that
    import tracemalloc

    chain, _ = generate.fast_funnel_chain(random.Random(0), base_states=260)
    n = chain.num_states
    v = Partition.single_block(n).collector_real()
    assert n >= 400
    tracemalloc.start()
    try:
        rows = mrc.conditions(chain, "weak")(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [x.shape for _, x in rows] == [(n, 1)] * 3
    assert peak < 2 * n * n * 8, peak / (n * n * 8)


def test_bad_external_distributor_is_rejected(fast_absorbing):
    v = real_collector((0, 1))
    with pytest.raises(DistributorError):
        mrc.lump(fast_absorbing, v, "weak", distributor=np.array([[1.0, 0.0]]))


def test_lump_weak_examples(fast_absorbing):
    lumped = mrc.lump(fast_absorbing, real_collector((0, 1)), "weak")
    assert lumped.num_states == 1
    assert lumped.qs[0, 0] == 0.0 and lumped.qf[0, 0] == 0.0
    assert abs(lumped.rho[0] - 5.0) <= 1e-12
    assert lumped.sigma[0] == 1.0

    still = as_fast_chain(Mrc([0.25, 0.75], SYMMETRIC_Q, [1.0, 2.0]))
    same = mrc.lump(still, np.eye(2), "weak", distributor=np.eye(2))
    assert np.allclose(same.qs, still.qs) and np.allclose(same.rho, still.rho)


def test_lump_weak_outputs_are_valid_chains(rng):
    for _ in range(15):
        chain, part = generate.fast_funnel_chain(rng)
        lumped = mrc.lump(chain, part.collector_real(), "weak")
        assert np.max(np.abs(lumped.qs.sum(axis=1))) <= 1e-12
        assert np.max(np.abs(lumped.sigma.sum() - 1.0)) <= 1e-9


# -- limit chain ------------------------------------------------------------------------


def test_limit_chain_without_fast_part_is_plain_evolution(rng):
    chain = generate.random_mrc(rng, n=3)
    limit = limit_chain(as_fast_chain(chain))
    for t in (0.0, 0.7, 2.0):
        assert np.max(np.abs(limit.transition(t) - transition_matrix(chain.q, t))) <= 1e-9


def test_limit_chain_is_discontinuous_at_zero(fast_absorbing):
    limit = limit_chain(fast_absorbing)
    pi = ergodic_projection(fast_absorbing.qf).pi
    for t in (0.0, 1.0, 3.0):
        assert np.max(np.abs(limit.transition(t) - pi)) <= 1e-12
    assert np.max(np.abs(limit.transition(0.0) - np.eye(2))) > 0.5


def test_limit_chain_mixes_slow_and_fast():
    # fast mixing pair {0,1}, slow escape to the absorbing state 2
    qf = validate_generator(np.array([[-3.0, 3.0, 0.0], [3.0, -3.0, 0.0], [0.0, 0.0, 0.0]]))
    qs = validate_generator(np.array([[-1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    limit = limit_chain(MrcFast([1.0, 0.0, 0.0], qs, qf, [0.0, 0.0, 1.0]))
    p = limit.transition(2.0)
    expected_escape = 1.0 - math.exp(-0.5 * 2.0)  # class leaves at the averaged rate
    assert abs(p[0, 2] - expected_escape) <= 1e-9


def test_limit_chain_exponentiates_the_class_generator(rng):
    chains = [generate.fast_funnel_chain(rng)[0] for _ in range(4)]
    chains += [generate.random_mrc_fast(rng, max_states=6) for _ in range(12)]
    for chain in chains:
        limit = limit_chain(chain)
        proj = limit.projection
        k = len(proj.recurrent_classes)
        assert limit.generator.shape == (k, k)
        assert np.array_equal(proj.trapping @ proj.stationary, proj.pi)
        assert np.max(np.abs(proj.stationary @ proj.trapping - np.eye(k))) <= 1e-14
        assert np.array_equal(limit.transition(0.0), proj.pi)
        slow = proj.pi @ chain.qs @ proj.pi
        for t in (0.5, 2.0, 10.0):
            dense = proj.pi @ scipy.linalg.expm(slow * t)
            assert np.max(np.abs(limit.transition(t) - dense)) <= 1e-11


def test_discontinuous_strong_check(fast_absorbing):
    """Ordinary lumping of the discontinuous limit chain is the weak check:
    its rows ``Πρ``, ``Π`` and ``ΠQsΠ`` are the weak table's, and on 300
    seeded ``random_mrc_fast`` chains with random partitions the two gave the
    same verdict and the same violated row every time."""
    assert mrc.check(fast_absorbing, np.eye(2), "weak").passed
    assert mrc.check(fast_absorbing, real_collector((0, 1)), "weak").passed

    mixed = MrcFast([0.5, 0.5, 0.0], np.zeros((3, 3)), validate_generator(
        np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    ), [1.0, 2.0, 2.0])
    report = mrc.check(mixed, real_collector((0, 1), (2,)), "weak")
    assert not report.passed and report.violated == "VUΠρ = Πρ"


# -- limit/lump commutation ---------------------------------------------------------------


def test_limit_commutation_examples(fast_absorbing, rng):
    assert mrc_diagram_no_fast(rng)
    v = real_collector((0, 1))
    w = default_tau_distributor(fast_absorbing, v)
    from matbisim.mrc import verify_limit_commutation

    assert verify_limit_commutation(fast_absorbing, v, w, (0.0, 0.5, 1.0, 2.0))
    for _ in range(15):
        chain, part = generate.fast_funnel_chain(rng)
        assert verify_limit_commutation(chain, part.collector_real(), tolerance=1e-7)


def mrc_diagram_no_fast(rng):
    from matbisim.mrc import verify_limit_commutation

    base = generate.random_mrc(rng, n=3)
    chain, part = generate.duplicate_states_mrc(rng, base)
    return verify_limit_commutation(as_fast_chain(chain), part.collector_real())


# -- branching ---------------------------------------------------------------------------


def test_adapt_diagonal_examples():
    qf = validate_generator(np.array([[-2.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    assert np.allclose(adapt_diagonal(qf, np.eye(3)), 0.0)
    assert np.allclose(adapt_diagonal(qf, real_collector((0, 1, 2))), qf)
    restricted = adapt_diagonal(qf, real_collector((0, 1), (2,)))
    assert np.allclose(restricted, [[-1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def test_branching_check_examples(fast_absorbing, rng):
    # no fast part: reduces to the strong conditions
    for _ in range(20):
        chain = generate.random_mrc(rng, n=rng.randint(1, 4))
        fast = as_fast_chain(chain)
        v = generate.random_partition(rng, chain.num_states).collector_real()
        assert mrc.check(fast, v, "branching").passed == mrc.check(fast, v, "strong").passed
    # identity collector: everything is saturated
    for _ in range(10):
        chain = generate.random_mrc_fast(rng, n=rng.randint(1, 4))
        assert mrc.check(chain, np.eye(chain.num_states), "branching").passed
    # in-class fast step
    assert mrc.check(fast_absorbing, real_collector((0, 1)), "branching").passed


def test_branching_does_not_imply_weak(branching_witness):
    chain, part = branching_witness
    v = part.collector_real()
    assert mrc.check(chain, v, "branching").passed
    weak = mrc.check(chain, v, "weak")
    assert not weak.passed
    assert weak.violated == "VUΠρ = Πρ"
    w = weak.witness
    assert (w.row, w.col) == (0, 0)
    assert abs(w.lhs - 2.0) <= 1e-12 and abs(w.rhs - 3.0) <= 1e-12
    # the even coarser two-block solution found by exhaustive search
    coarser = real_collector((0, 4), (1, 2, 3))
    assert mrc.check(chain, coarser, "branching").passed
    assert not mrc.check(chain, coarser, "weak").passed


# -- text format ----------------------------------------------------------------------------


def test_parse_mrc_matches_hand_built(reward_chain):
    assert np.allclose(reward_chain.q, [[-2, 1, 1], [0, 0, 0], [1, 0, -1]])
    assert np.allclose(reward_chain.sigma, [0.5, 0.5, 0.0])
    assert np.allclose(reward_chain.rho, [2.0, 0.0, 1.0])
    assert isinstance(reward_chain, Mrc)


def test_parse_format_round_trip(rng, fast_absorbing):
    for _ in range(20):
        chain = generate.random_mrc_fast(rng, n=rng.randint(1, 5))
        again = as_fast_chain(parse_mrc(format_mrc(chain)))  # zero fast part reads back plain
        assert np.array_equal(again.qs, chain.qs)
        assert np.array_equal(again.qf, chain.qf)
        assert np.array_equal(again.sigma, chain.sigma)
        assert np.array_equal(again.rho, chain.rho)
    assert format_mrc(parse_mrc(format_mrc(fast_absorbing))) == format_mrc(fast_absorbing)


def test_parse_mrc_errors():
    with pytest.raises(ModelFormatError):
        parse_mrc("mrc 2\ninit 0:0.9\nreward 0 0\n")  # probabilities off
    with pytest.raises(ModelFormatError):
        parse_mrc("mrc 2\ninit 0:1\nreward 0\n")  # reward count
    with pytest.raises(ModelFormatError):
        parse_mrc("mrc 2\ninit 0:1\nreward 0 0\nrate 0 0 1\n")  # self rate
    with pytest.raises(ModelFormatError):
        parse_mrc("mrc 2\ninit 0:1\nreward 0 0\nrate 0 1 -2\n")  # negative rate
    with pytest.raises(ModelFormatError):
        parse_mrc("mrc 2\ninit 0:1 0:0\nreward 0 0\n")  # duplicate init entry


def test_parsed_generators_are_their_own_validation(rng):
    # parse_mrc stores its generators without validate_generator, so that
    # must return them unchanged, bit for bit
    chains = [generate.random_mrc_fast(rng, n=rng.randint(1, 9), p_fast=0.5) for _ in range(20)]
    chains += [generate.random_mrc(rng, n=rng.randint(1, 9)) for _ in range(20)]
    chains += [generate.fast_funnel_chain(rng, base_states=b)[0] for b in (2, 20, 80)]
    texts = [format_mrc(chain) for chain in chains]
    # rates across ten orders of magnitude, with parallel lines summed in file order
    wide = random.Random(7)
    lines = [f"rate {i} {wide.randrange(30)} {10 ** wide.uniform(-3, 7)!r}" for i in range(30) for _ in range(12)]
    lines = [line for line in lines if line.split()[1] != line.split()[2]]
    texts.append("mrc 30\ninit 0:1\nreward " + " ".join(["1"] * 30) + "\n" + "\n".join(lines) + "\n")
    for text in texts:
        chain = parse_mrc(text)
        for q in (chain.qs, chain.qf) if isinstance(chain, MrcFast) else (chain.q,):
            assert not q.flags.writeable
            # a writable copy takes the whole cleaning path; the stored array is returned as it is
            assert validate_generator(q.copy()).tobytes() == q.tobytes()
            assert validate_generator(q) is q


def test_projection_keeps_the_generator_it_validated(fast_absorbing):
    # a chain's own generator is kept as it is, with no copy; any other is
    # kept as validated, read-only, and the argument is left alone
    assert ergodic_projection(fast_absorbing.qf).generator is fast_absorbing.qf
    q = np.array([[-1.0, 1.0, -1e-12], [0.0, 0.0, 0.0], [2.0, 0.0, -2.0]])
    kept = ergodic_projection(q).generator
    assert kept.tobytes() == validate_generator(q).tobytes() and not kept.flags.writeable
    assert q.flags.writeable and q[0, 2] == -1e-12


def _validation(q, atol=1e-9):
    """What validate_generator makes of ``q``: the bits it returns, or its refusal."""
    try:
        return validate_generator(q, atol=atol).tobytes()
    except ValueError as exc:
        return type(exc), str(exc)


def test_read_only_generators_need_no_copy_only_when_validation_keeps_them():
    # a read-only generator is returned as it is exactly when the cleaning
    # path would return its bits; otherwise it is cleaned or refused as a
    # writable copy is
    funnel = generate.fast_funnel_chain(random.Random(5), base_states=150)[0]  # several row blocks
    assert funnel.num_states > 2**15 // funnel.num_states
    thirds = np.array([[0.0, 0.1, 0.2], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    np.fill_diagonal(thirds, -thirds.sum(axis=1))
    thirds = validate_generator(thirds)
    assert thirds.sum(axis=1)[0] == -2.7755575615628914e-17
    kept = [(funnel.qs, 1e-9), (funnel.qf, 1e-9), (thirds, 1e-9), (validate_generator(np.zeros((3, 3))), 1e-9)]
    # each differs from a kept generator in one respect; a zero row's
    # diagonal is -0.0, as validation writes it
    changed = [
        (np.zeros((3, 3)), 1e-9),  # +0.0 diagonals
        (np.array([[-1.0, 1.0], [-0.0, -0.0]]), 1e-9),  # a -0.0 rate
        (np.array([[-1.0, 1.0 - 1e-12], [1e-12, -1e-12]]), 1e-9),  # noise that is clamped
        (np.array([[-1.0, 1.0 + 1e-12], [0.0, -0.0]]), 1e-9),  # a diagonal within tolerance
        (np.array([[1.0, -1.0], [0.0, -0.0]]), 1e-9),  # a negative rate
        (np.array([[-1e-10, 1e-9], [0.0, -0.0]]), 1e-9),  # a bad row sum
        (thirds, 1e-17),  # a row that sums to -2.8e-17, refused below that
        (np.array([[-np.inf, np.inf], [0.0, -0.0]]), 1e-9),
        (np.array([[-np.inf, 1e308, 1e308], [0.0, -0.0, 0.0], [0.0, 0.0, -0.0]]), 1e-9),
        (funnel.qs.T, 1e-9),  # not C-ordered
        (np.zeros((2, 3)), 1e-9),
        (np.zeros((2, 2, 2)), 1e-9),
    ]
    for i, (q, atol) in enumerate(kept + changed):
        frozen = np.array(q)
        frozen.setflags(write=False)
        assert _validation(frozen, atol) == _validation(np.array(q), atol)
        if i < len(kept) + 4:  # the first four changed ones are cleaned
            assert (validate_generator(frozen, atol=atol) is frozen) == (i < len(kept))
    ints = np.array([[-1, 1], [0, 0]])
    ints.setflags(write=False)
    assert validate_generator(ints).dtype == float


def _format_by_cells(model) -> str:
    """The chain format written by visiting every cell of every generator."""
    fast = isinstance(model, MrcFast)
    n = model.num_states
    lines = [f"mrc {n}"]
    lines.append("init " + " ".join(f"{i}:{float(model.sigma[i])!r}" for i in range(n) if model.sigma[i] != 0.0))
    lines.append("reward " + " ".join(repr(float(r)) for r in model.rho))
    for name, q in (("rate", model.qs if fast else model.q),) + ((("fast", model.qf),) if fast else ()):
        for i in range(n):
            for j in range(n):
                if i != j and q[i, j] != 0.0:
                    lines.append(f"{name} {i} {j} {float(q[i, j])!r}")
    return "\n".join(lines) + "\n"


def test_format_lists_rates_as_the_cell_loop(rng):
    chains = [generate.random_mrc_fast(rng, n=rng.randint(1, 12), p_fast=rng.choice((0.1, 0.5))) for _ in range(30)]
    chains += [generate.random_mrc(rng, n=rng.randint(1, 12)) for _ in range(30)]
    chains += [generate.fast_funnel_chain(rng, base_states=b)[0] for b in (2, 30)]
    chains.append(MrcFast([1.0, 0.0], ABSORBING_Q, np.zeros((2, 2)), [1.0, 2.0]))  # a fast part with no rate
    assert any(isinstance(c, MrcFast) for c in chains) and any(isinstance(c, Mrc) for c in chains)
    for chain in chains:
        assert format_mrc(chain).encode() == _format_by_cells(chain).encode()


def test_parallel_rate_lines_accumulate():
    chain = parse_mrc("mrc 2\ninit 0:1\nreward 0 0\nrate 0 1 1\nrate 0 1 2\n")
    assert chain.q[0, 1] == 3.0


def test_parse_distributor():
    w = parse_distributor("dist 1 2\n0.0 1.0\n")
    assert np.array_equal(w, [[0.0, 1.0]])
    with pytest.raises(ModelFormatError):
        parse_distributor("dist 2 2\n1 0\n")
    with pytest.raises(ModelFormatError):
        parse_distributor("dist 1 2\n1 0 0\n")
    for bad in ("nan", "1e400", "x"):
        with pytest.raises(ModelFormatError, match="^line 2:"):
            parse_distributor(f"dist 1 2\n{bad} 0\n")


def test_parse_distributor_refuses_dimensions_below_one():
    # the header names the fault, as every other distributor fault names its line
    for text in ("dist 0 2\n", "dist 0 0\n", "dist -1 2\n", "dist 1 0\n", "dist 2 -3\n1 0\n0 1\n"):
        with pytest.raises(ModelFormatError, match="^line 1: dimensions must be at least 1$"):
            parse_distributor(text)
    with pytest.raises(ModelFormatError, match="^line 2: dimensions must be at least 1$"):
        parse_distributor("# a distributor\ndist 0 2\n")


def test_weak_lump_and_diagram_project_twice(monkeypatch, rng):
    # once for Π = proj(Qf) and once for proj(WQfV), however many steps use them
    import matbisim.mrc as mrc_mod
    from matbisim.mrc import verify_limit_commutation

    calls = []
    real = mrc_mod.ergodic_projection

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(mrc_mod, "ergodic_projection", counted)
    chain, part = generate.fast_funnel_chain(rng)
    mrc.lump(chain, part.collector_real(), "weak")
    assert len(calls) == 2
    calls.clear()
    assert verify_limit_commutation(chain, part.collector_real(), tolerance=1e-7)
    assert len(calls) == 2


def test_weak_lump_validates_the_lumped_fast_generator_once(monkeypatch, rng):
    # WQfV is validated once, to project it for the certificate, and that
    # generator is the quotient's Qf, bit for bit as validated afresh
    chain, part = generate.fast_funnel_chain(rng)
    v, k = part.collector_real(), part.num_blocks
    assert k < chain.num_states
    shapes = []
    monkeypatch.setattr(mrc, "validate_generator", lambda q, **kw: shapes.append(np.shape(q)) or validate_generator(q, **kw))
    lumped = mrc.lump(chain, v, "weak")
    assert shapes.count((k, k)) == 2
    w = default_tau_distributor(chain, v)
    for lumped_q, q in ((lumped.qf, chain.qf), (lumped.qs, chain.qs)):
        assert lumped_q.tobytes() == validate_generator(w @ q @ v).tobytes()
