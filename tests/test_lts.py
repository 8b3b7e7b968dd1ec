import pytest

from matbisim import generate, lts
from matbisim.algebra import ActionAlphabet, ActionMatrix, rt_closure
from matbisim.lts import (
    Lts,
    format_lts,
    parse_lts,
    tau_closure,
    verify_branching_commutation,
    verify_weak_commutation,
)
from matbisim.partition import CheckFailed, ModelFormatError, Partition
from references import check_strong_relational, verify_closure_identities


def collector(sys_, *blocks):
    return Partition(sys_.num_states, tuple(tuple(b) for b in blocks)).collector_bool(sys_.alphabet)


def identity_collector(sys_):
    return Partition.identity(sys_.num_states).collector_bool(sys_.alphabet)


TAU_PAIR = "lts 2\nalphabet a\ninit 0\nterm 1\n0 tau 1\n"
# 0 can do a directly or first take an internal step to 1
BRANCH3 = "lts 3\nalphabet a\ninit 0\nterm\n0 tau 1\n1 a 2\n0 a 2\n"


# -- model and format ---------------------------------------------------------


def test_four_state_parses_to_expected_matrices(four_state):
    ab = four_state.alphabet
    assert ab.names == ("a", "b", "c", "d")
    assert four_state.initial == ActionMatrix.from_bits(ab, [[1, 0, 0, 0]])
    assert four_state.visible == ActionMatrix.from_sets(
        ab,
        [
            [(), ("a",), ("a",), ()],
            [(), (), (), ("b", "c")],
            [(), (), (), ("b",)],
            [(), (), ("d",), ()],
        ],
    )
    assert four_state.internal.is_zero()
    assert four_state.terminating == ActionMatrix.from_bits(ab, [[1], [0], [0], [1]])


def test_parse_rejects_malformed_input():
    with pytest.raises(ModelFormatError):
        parse_lts("alphabet a\n")
    with pytest.raises(ModelFormatError):
        parse_lts("lts 2\nalphabet\ninit 0\nterm\n")  # empty alphabet
    with pytest.raises(ModelFormatError):
        parse_lts("lts 2\nalphabet a tau\ninit 0\nterm\n")
    with pytest.raises(ModelFormatError):
        parse_lts("lts 2\nalphabet a\ninit 5\nterm\n")
    with pytest.raises(ModelFormatError):
        parse_lts("lts 2\nalphabet a\ninit 0\nterm\n0 b 1\n")  # unknown label
    with pytest.raises(ModelFormatError):
        parse_lts("lts 2\nalphabet a\ninit 0\nterm\n0 a\n")


def test_duplicate_transitions_are_idempotent():
    once = parse_lts("lts 2\nalphabet a\ninit 0\nterm\n0 a 1\n")
    twice = parse_lts("lts 2\nalphabet a\ninit 0\nterm\n0 a 1\n0 a 1\n0 a 1\n")
    assert once == twice


def test_format_round_trip_is_canonical(four_state, rng):
    text = format_lts(four_state)
    assert parse_lts(text) == four_state
    assert format_lts(parse_lts(text)) == text
    for _ in range(20):
        sys_ = generate.random_lts(rng, max_states=6)
        assert parse_lts(format_lts(sys_)) == sys_


def test_lts_requires_nonempty_alphabet():
    empty = ActionAlphabet(())
    with pytest.raises(ValueError):
        Lts(
            alphabet=empty,
            initial=ActionMatrix(empty, ((0,),)),
            visible=ActionMatrix.zeros(empty, 1, 1),
            internal=ActionMatrix.zeros(empty, 1, 1),
            terminating=ActionMatrix.zeros(empty, 1, 1),
        )


# -- strong check --------------------------------------------------------------


def test_strong_identity_passes(four_state):
    assert lts.check(four_state, identity_collector(four_state), "strong").passed


def test_strong_merge_of_a_successors_fails_on_actions(four_state):
    report = lts.check(four_state, collector(four_state, (0,), (1, 2), (3,)), "strong")
    assert not report.passed
    assert report.violated == "VUAV = AV"
    w = report.witness
    assert (w.row, w.col) == (2, 2)
    assert w.lhs == ("b", "c")
    assert w.rhs == ("b",)


def test_strong_merge_of_initial_fails_on_termination(four_state):
    report = lts.check(four_state, collector(four_state, (0, 1), (2,), (3,)), "strong")
    assert not report.passed
    assert report.violated == "VUρ = ρ"


def test_strong_internal_condition():
    # one state has an internal step, the other does not
    sys_ = parse_lts("lts 3\nalphabet a\ninit 0\nterm\n0 tau 2\n")
    report = lts.check(sys_, collector(sys_, (0, 1), (2,)), "strong")
    assert not report.passed
    assert report.violated == "VUSV = SV"


def test_strong_verdict_is_distributor_independent(rng):
    for _ in range(40):
        sys_ = generate.random_lts(rng, max_states=5)
        part = generate.random_partition(rng, sys_.num_states)
        v = part.collector_bool(sys_.alphabet)
        u = generate.random_bool_distributor(rng, part, sys_.alphabet)
        default = lts.check(sys_, v, "strong")
        custom = lts.check(sys_, v, "strong", distributor=u)
        assert default.passed == custom.passed
        if default.passed:
            assert lts.lump(sys_, v, "strong") == lts.lump(sys_, v, "strong", distributor=u)


# -- weak check ------------------------------------------------------------------


def test_weak_equals_strong_without_internal_steps(rng):
    for _ in range(40):
        sys_ = generate.random_lts(rng, max_states=5, p_internal=0.0)
        v = generate.random_partition(rng, sys_.num_states).collector_bool(sys_.alphabet)
        assert lts.check(sys_, v, "weak").passed == lts.check(sys_, v, "strong").passed


def test_weak_merges_across_internal_step():
    pair = parse_lts(TAU_PAIR)
    v = collector(pair, (0, 1))
    assert lts.check(pair, v, "weak").passed
    strong = lts.check(pair, v, "strong")
    assert not strong.passed and strong.violated == "VUρ = ρ"


def test_strong_implies_weak(rng):
    hits = 0
    for _ in range(60):
        base = generate.random_lts(rng, max_states=4)
        sys_, part = generate.duplicate_states_lts(rng, base)
        v = part.collector_bool(sys_.alphabet)
        assert lts.check(sys_, v, "strong").passed
        assert lts.check(sys_, v, "weak").passed
        hits += 1
    assert hits == 60


# -- branching check ---------------------------------------------------------------


def test_branching_with_identity_collector_matches_strong(rng):
    for _ in range(40):
        sys_ = generate.random_lts(rng, max_states=5)
        v = identity_collector(sys_)
        assert lts.check(sys_, v, "branching").passed == lts.check(sys_, v, "strong").passed


def test_branching_merges_internal_pair():
    pair = parse_lts(TAU_PAIR)
    assert lts.check(pair, collector(pair, (0, 1)), "branching").passed


def test_branching_textbook_three_state():
    sys_ = parse_lts(BRANCH3)
    assert lts.check(sys_, collector(sys_, (0, 1), (2,)), "branching").passed


def test_branching_implies_weak(rng):
    checked = 0
    for _ in range(150):
        sys_ = generate.random_lts(rng, max_states=5)
        v = generate.random_partition(rng, sys_.num_states).collector_bool(sys_.alphabet)
        if lts.check(sys_, v, "branching").passed:
            checked += 1
            assert lts.check(sys_, v, "weak").passed
    assert checked > 10


# -- relational cross-check ----------------------------------------------------------


def test_relational_matches_saturation_form(four_state, rng):
    for blocks in (((0,), (1,), (2,), (3,)), ((0,), (1, 2), (3,)), ((0, 1), (2,), (3,))):
        v = collector(four_state, *blocks)
        assert check_strong_relational(four_state, v).passed == lts.check(four_state, v, "strong").passed
    for _ in range(80):
        sys_ = generate.random_lts(rng, max_states=6)
        v = generate.random_partition(rng, sys_.num_states).collector_bool(sys_.alphabet)
        assert check_strong_relational(sys_, v).passed == lts.check(sys_, v, "strong").passed


# -- quotients --------------------------------------------------------------------


def test_lump_with_identity_is_the_same_system(four_state):
    assert lts.lump(four_state, identity_collector(four_state), "strong") == four_state


def test_lump_merges_twin_loop_states():
    sys_ = parse_lts("lts 2\nalphabet a\ninit 0\nterm\n0 a 0\n0 a 1\n1 a 0\n1 a 1\n")
    v = collector(sys_, (0, 1))
    lumped = lts.lump(sys_, v, "strong")
    assert lumped.num_states == 1
    assert lumped.visible == ActionMatrix.from_sets(sys_.alphabet, [[("a",)]])


def test_lump_places_initial_class():
    sys_ = parse_lts("lts 3\nalphabet a\ninit 1\nterm\n0 a 1\n2 a 1\n0 a 2\n2 a 0\n")
    report = lts.check(sys_, collector(sys_, (0, 2), (1,)), "strong")
    assert report.passed
    lumped = lts.lump(sys_, collector(sys_, (0, 2), (1,)), "strong")
    assert lumped.initial_state == 1  # class of the old initial state


def test_lump_weak_collapses_internal_pair():
    pair = parse_lts(TAU_PAIR)
    lumped = lts.lump(pair, collector(pair, (0, 1)), "weak")
    assert lumped.num_states == 1
    assert lumped.internal == ActionMatrix.from_bits(pair.alphabet, [[1]])
    assert lumped.terminating == ActionMatrix.from_bits(pair.alphabet, [[1]])
    assert lumped.visible.is_zero()


def test_lump_branching_quotient_of_textbook_example():
    sys_ = parse_lts(BRANCH3)
    lumped = lts.lump(sys_, collector(sys_, (0, 1), (2,)), "branching")
    assert lumped.num_states == 2
    assert lumped.visible == ActionMatrix.from_sets(sys_.alphabet, [[(), ("a",)], [(), ()]])


def test_lump_refuses_failing_check(four_state):
    with pytest.raises(CheckFailed) as exc:
        lts.lump(four_state, collector(four_state, (0, 1), (2,), (3,)), "strong")
    assert exc.value.report.violated == "VUρ = ρ"
    with pytest.raises(CheckFailed):
        lts.lump(four_state, collector(four_state, (0, 1), (2,), (3,)), "weak")


# -- internal closure ---------------------------------------------------------------


def test_tau_closure_without_internal_steps(four_state):
    closed = tau_closure(four_state)
    assert closed.visible == four_state.visible
    assert closed.internal == ActionMatrix.identity(four_state.alphabet, 4)
    assert closed.terminating == four_state.terminating


def test_tau_closure_pulls_termination_back():
    pair = parse_lts(TAU_PAIR)
    closed = tau_closure(pair)
    assert closed.terminating == ActionMatrix.from_bits(pair.alphabet, [[1], [1]])
    assert rt_closure(closed.internal) == closed.internal


# -- identity and commutation verifiers ------------------------------------------------


def test_closure_identities_with_identity_collector(rng):
    for _ in range(20):
        sys_ = generate.random_lts(rng, max_states=5)
        assert verify_closure_identities(sys_, identity_collector(sys_))


def test_closure_identities_on_merged_internal_pair():
    pair = parse_lts(TAU_PAIR)
    assert verify_closure_identities(pair, collector(pair, (0, 1)))


def test_closure_identities_hold_under_weak_check(rng):
    seen = 0
    for _ in range(120):
        sys_ = generate.random_lts(rng, max_states=5)
        v = generate.random_partition(rng, sys_.num_states).collector_bool(sys_.alphabet)
        if lts.check(sys_, v, "weak").passed:
            seen += 1
            assert verify_closure_identities(sys_, v)
    assert seen > 10


def test_closure_identities_can_fail_for_arbitrary_collectors():
    # two disjoint internal edges bridged by a middle class: the class-level
    # closure connects the outer classes, the state-level one does not
    sys_ = parse_lts("lts 4\nalphabet a\ninit 0\nterm\n0 tau 1\n2 tau 3\n")
    v = collector(sys_, (0,), (1, 2), (3,))
    u = v.transpose()
    lifted = u @ rt_closure(sys_.internal) @ v
    closed = rt_closure(u @ sys_.internal @ v)
    # the inclusion holds for every collector; only the reverse one fails
    assert lifted <= closed
    assert lifted != closed
    assert lts.check(sys_, v, "weak").violated == "VUΠV = ΠV"
    assert not verify_closure_identities(sys_, v)


def test_weak_commutation_examples_and_plants(rng):
    pair = parse_lts(TAU_PAIR)
    assert verify_weak_commutation(pair, collector(pair, (0, 1)))
    assert verify_weak_commutation(pair, identity_collector(pair))
    for _ in range(40):
        base = generate.random_lts(rng, max_states=4)
        sys_, part = generate.plant_internal_feeder(rng, base)
        v = part.collector_bool(sys_.alphabet)
        assert verify_weak_commutation(sys_, v)


def test_branching_commutation_examples_and_plants(rng):
    sys_ = parse_lts(BRANCH3)
    assert verify_branching_commutation(sys_, collector(sys_, (0, 1), (2,)))
    assert verify_branching_commutation(sys_, identity_collector(sys_))
    for _ in range(40):
        base = generate.random_lts(rng, max_states=4)
        grown, part = generate.plant_internal_feeder(rng, base)
        v = part.collector_bool(grown.alphabet)
        assert verify_branching_commutation(grown, v)


def test_commutation_verifiers_enforce_preconditions(four_state):
    v = collector(four_state, (0, 1), (2,), (3,))
    with pytest.raises(CheckFailed):
        verify_weak_commutation(four_state, v)
    with pytest.raises(CheckFailed):
        verify_branching_commutation(four_state, v)
