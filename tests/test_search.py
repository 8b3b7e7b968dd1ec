from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matbisim import generate
from matbisim.mrc import Mrc, parse_mrc
from matbisim.lts import Lts, parse_lts
from matbisim.family import family_of
from matbisim.partition import (
    CheckReport,
    Partition,
    Search,
    enumerate_partitions,
    passes,
    refinement_fixpoint,
)
from references import BELL, brute_force_coarsest

KINDS = ("strong", "weak", "branching")


def test_four_state_coarsest_is_discrete(four_state):
    for kind in KINDS:
        assert Search(four_state, kind).coarsest() == Partition.identity(4)
    oracle = brute_force_coarsest(four_state, Search(four_state, "strong").checker)
    assert oracle == Partition.identity(4)


def test_symmetric_pair_collapses_to_one_block():
    chain = Mrc([0.5, 0.5], np.array([[-2.0, 2.0], [2.0, -2.0]]), [3.0, 3.0])
    for kind in KINDS:
        assert Search(chain, kind).coarsest() == Partition.single_block(2)


def test_distinct_self_loops_force_identity():
    sys_ = parse_lts("lts 3\nalphabet a b c\ninit 0\nterm\n0 a 0\n1 b 1\n2 c 2\n")
    for kind in KINDS:
        assert Search(sys_, kind).coarsest() == Partition.identity(3)


def test_refinement_stops_once_every_block_is_a_singleton():
    # a partition of singletons cannot split, so no round confirms it
    chain = Mrc([1.0, 0.0, 0.0], np.zeros((3, 3)), [1.0, 2.0, 3.0])
    search = Search(chain, "strong")
    rounds = []

    def counted(p):
        rounds.append(p)
        return search.signatures(p)

    assert refinement_fixpoint(3, counted) == Partition.identity(3)
    assert rounds == [Partition.single_block(3)]
    assert search.coarsest() == Partition.identity(3)


def test_refine_evaluates_the_table_once_per_partition(monkeypatch):
    # the fixpoint's last round evaluates the table of the partition it
    # returns, and the final check reads those rows: the branching
    # closure, in class, is formed once per round and not once more
    import random

    from matbisim import lts, mrc, partition

    rounds, closures = [], []
    split = partition.split_by_keys
    monkeypatch.setattr(partition, "split_by_keys", lambda p, keys: rounds.append(p) or split(p, keys))
    stack = mrc.project_stack
    monkeypatch.setattr(mrc, "project_stack", lambda q: closures.append(q.shape) or stack(q))
    chain, _ = generate.fast_funnel_chain(random.Random(1), base_states=10)
    assert chain.num_states > 12  # refinement, not the oracle
    assert Search(chain, "branching").coarsest().num_blocks == 10
    assert len(closures) == len(rounds) == 2

    rounds.clear()
    in_class = lts.branching_closure
    monkeypatch.setattr(lts, "branching_closure", lambda m, v: closures.append(v.shape) or in_class(m, v))
    rng = random.Random(2)
    system, _ = generate.duplicate_states_lts(rng, generate.random_lts(rng, n=8))
    closures.clear()
    assert Search(system, "branching").coarsest().num_blocks == 5
    assert len(closures) == len(rounds) == 4


def test_one_state_and_twin_states():
    single = Mrc([1.0], np.zeros((1, 1)), [2.0])
    assert brute_force_coarsest(single, Search(single, "strong").checker) == Partition.single_block(1)
    twins = parse_lts("lts 2\nalphabet a\ninit 0\nterm\n0 a 0\n0 a 1\n1 a 0\n1 a 1\n")
    assert brute_force_coarsest(twins, Search(twins, "strong").checker) == Partition.single_block(2)


def test_weak_coarsest_uses_internal_closure(tau_pair):
    assert Search(tau_pair, "strong").coarsest() == Partition.identity(2)
    assert Search(tau_pair, "weak").coarsest() == Partition.single_block(2)
    assert Search(tau_pair, "branching").coarsest() == Partition.single_block(2)


def test_refinement_matches_oracle_on_random_lts(rng):
    for _ in range(40):
        sys_ = generate.random_lts(rng, n=rng.randint(1, 5))
        for kind in KINDS:
            assert Search(sys_, kind).coarsest() == brute_force_coarsest(
                sys_, Search(sys_, kind).checker
            ), (kind, sys_)


def test_refinement_matches_oracle_on_random_mrc(rng):
    for _ in range(25):
        chain = generate.random_mrc_fast(rng, n=rng.randint(1, 4), p_fast=0.3)
        for kind in KINDS:
            assert Search(chain, kind).coarsest() == brute_force_coarsest(
                chain, Search(chain, kind).checker
            ), (kind, chain)


def test_coarsest_with_planted_structure(rng):
    for _ in range(20):
        base = generate.random_lts(rng, max_states=3)
        sys_, part = generate.duplicate_states_lts(rng, base)
        found = Search(sys_, "strong").coarsest()
        # the planted merge is a strong bisimulation, so the coarsest result
        # can only be coarser than or equal to it
        assert found.num_blocks <= part.num_blocks


def test_coarsest_output_passes_its_own_checker(rng):
    for _ in range(20):
        chain = generate.random_mrc_fast(rng, n=rng.randint(1, 4))
        for kind in KINDS:
            found = Search(chain, kind).coarsest()
            checker = Search(chain, kind).checker
            assert checker(chain, found).passed


def test_branching_mrc_coarsest_found_by_lattice_search(branching_witness):
    chain, part = branching_witness
    found = Search(chain, "branching").coarsest()
    oracle = brute_force_coarsest(chain, Search(chain, "branching").checker)
    assert found == oracle
    assert found.num_blocks == 2
    assert found == Partition(5, ((0, 1, 2, 3), (4,)))
    # two more passing partitions, pairwise incomparable with the winner:
    # maximal branching bisimulations are not unique here
    checker = Search(chain, "branching").checker
    assert checker(chain, part).passed
    assert checker(chain, Partition(5, ((0, 4), (1, 2, 3)))).passed


def test_chain_branching_fixpoint_can_be_finer_than_the_oracle():
    # above the oracle's state bound, coarsest() returns the refinement
    # fixpoint: it passes its check but need not be maximal.  Here Π_V of the
    # one-block start sends state 2 into two recurrent classes with different
    # rewards, all three states split, and {1, 2} is never revisited.
    chain = parse_mrc("mrc 3\ninit 0:1\nreward 2.17 3.18 0.434\nrate 0 2 1\nrate 1 2 1\nfast 2 0 1\nfast 2 1 1\n")
    search = Search(chain, "branching")
    assert search.oracle == Partition(3, ((0,), (1, 2)))
    fixpoint = refinement_fixpoint(3, search.signatures)
    assert fixpoint == Partition.identity(3)
    assert search.checker(chain, fixpoint).passed


def test_chain_branching_fixpoint_against_the_oracle():
    # records the gap on seeded chains up to 8 states; asserts only what holds
    import random

    rng = random.Random(7)
    gaps = 0
    for i in range(220):
        if i % 3 == 0:
            chain = generate.random_mrc_fast(rng, n=rng.randint(2, 7))
        elif i % 3 == 1:
            chain = generate.duplicate_states_mrc(rng, generate.random_mrc_fast(rng, n=rng.randint(1, 3)))[0]
        else:
            chain = generate.fast_funnel_chain(rng, base_states=rng.randint(2, 4))[0]
        assert chain.num_states <= 8
        search = Search(chain, "branching")
        fixpoint = refinement_fixpoint(chain.num_states, search.signatures)
        assert search.checker(chain, fixpoint).passed
        assert fixpoint.num_blocks >= search.oracle.num_blocks
        gaps += fixpoint.num_blocks > search.oracle.num_blocks
    assert gaps >= 1


def test_custom_checker_is_honored():
    chain = Mrc([0.5, 0.5], np.array([[-1.0, 1.0], [1.0, -1.0]]), [3.0, 3.0])

    def only_identity(model, p):
        from matbisim.partition import CheckReport, Witness

        if p.is_identity():
            return CheckReport("custom", True)
        return CheckReport("custom", False, "custom", Witness(0, 0, 0.0, 1.0, 1.0))

    assert brute_force_coarsest(chain, only_identity) == Partition.identity(2)


@lru_cache(maxsize=None)
def _all_partitions(n: int) -> tuple[Partition, ...]:
    """Every partition of ``{0..n-1}``: state ``s`` joins each block of a
    partition of ``{0..s-1}`` or opens its own."""
    parts = [[]]
    for s in range(n):
        parts = [p[:i] + [p[i] + [s]] + p[i + 1:] for p in parts for i in range(len(p))] + [p + [[s]] for p in parts]
    return tuple(Partition(n, tuple(map(tuple, p))) for p in parts)


def _coarse_key(p: Partition):
    return (p.num_blocks, p.blocks)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_oracle_stops_at_the_coarsest_passing_partition(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    every = _all_partitions(n)
    passing = data.draw(st.sets(st.sampled_from(every), max_size=6))
    calls = []

    def checker(model, p):
        calls.append(p)
        return CheckReport("custom", p in passing, None if p in passing else "custom")

    model = SimpleNamespace(num_states=n)
    if not passing:
        with pytest.raises(ValueError, match="no partition passed"):
            brute_force_coarsest(model, checker)
        assert len(calls) == BELL[n]
        return
    expected = min(passing, key=_coarse_key)
    assert brute_force_coarsest(model, checker) == expected
    rank = sorted(every, key=_coarse_key).index(expected)
    assert len(calls) == rank + 1


def test_probe_candidates_keep_restricted_growth_order():
    import random

    found = [p.assignment for p in generate._candidate_partitions(random.Random(0), 4)]
    assert found == [
        (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1), (0, 0, 1, 2),
        (0, 1, 0, 0), (0, 1, 0, 1), (0, 1, 0, 2), (0, 1, 1, 0), (0, 1, 1, 1),
        (0, 1, 1, 2), (0, 1, 2, 0), (0, 1, 2, 1), (0, 1, 2, 2),
    ]


def test_identity_collector_passes_strong_everywhere(rng):
    for _ in range(25):
        sys_ = generate.random_lts(rng, max_states=6)
        checker = Search(sys_, "strong").checker
        assert checker(sys_, Partition.identity(sys_.num_states)).passed
        chain = generate.random_mrc_fast(rng, n=rng.randint(1, 5))
        checker = Search(chain, "strong").checker
        assert checker(chain, Partition.identity(chain.num_states)).passed


def test_oracle_state_bound():
    chain = Mrc(np.full(13, 1.0 / 13.0), np.zeros((13, 13)), np.zeros(13))
    with pytest.raises(ValueError, match="state bound"):
        brute_force_coarsest(chain, Search(chain, "strong").checker)
    with pytest.raises(ValueError, match="state bound"):
        Search(chain, "strong").oracle


def _outcome(search):
    try:
        return search()
    except ValueError as exc:
        return str(exc)


def _planted_models(rng):
    """Random systems and chains, and clones of small ones: with planted
    lumpings every equality of a table decides some candidates."""
    models = [generate.random_lts(rng, n=rng.randint(1, 7)) for _ in range(6)]
    models += [generate.duplicate_states_lts(rng, generate.random_lts(rng, max_states=3))[0] for _ in range(3)]
    models += [generate.random_mrc_fast(rng, n=rng.randint(1, 6), p_fast=rng.choice((0.2, 0.5))) for _ in range(4)]
    models += [generate.duplicate_states_mrc(rng, generate.random_mrc_fast(rng, max_states=3))[0] for _ in range(6)]
    models += [generate.duplicate_states_mrc(rng, generate.random_mrc(rng, max_states=3))[0] for _ in range(2)]
    return models


def test_stacked_oracle_matches_the_one_at_a_time_search(branching_witness, monkeypatch):
    # stacks of 5 cut inside a block count and straddle several, and stacks
    # of 1 hold every candidate alone; padded blocks raise no warning
    import random
    import warnings

    from matbisim import partition

    models = _planted_models(random.Random(13)) + [branching_witness[0]]
    assert max(model.num_states for model in models) == 7
    for model in models:
        for kind in KINDS:
            search = Search(model, kind)
            single = _outcome(lambda: brute_force_coarsest(model, search.checker))
            for size in (1, 5, 256):
                monkeypatch.setattr(partition, "ORACLE_STACK", size)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    stacked = _outcome(lambda: Search(model, kind).oracle)
                assert stacked == single, (kind, size, model)


def test_stacked_rows_are_the_per_candidate_rows():
    # two stacks per model: every partition with about half as many blocks
    # as states, read under the canonical distributor; and every partition
    # with that many blocks or one more, each padded with empty blocks to
    # the wider count, read under the default one, as the oracle reads its
    # stacks (the canonical distributor refuses an empty column).  Each
    # stacked row and pass flag is the candidate's own, and a padded column
    # holds exact zeros or empty sets.
    import random
    import warnings

    for model in _planted_models(random.Random(4)):
        n, family = model.num_states, family_of(model)
        blocks = (n + 1) // 2
        for counts, padded in (((blocks,), False), ((blocks, blocks + 1), True)):
            stack = [p for p in enumerate_partitions(n) if p.num_blocks in counts]
            width = max(p.num_blocks for p in stack)
            assert width == max(counts) or n == 1  # one-state models have no second count
            v = family.collectors(model, np.array([p.assignment for p in stack])[:, :, None] == np.arange(width))
            for kind in KINDS:
                search = Search(model, kind)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    rows = search.table(v)
                    u = None if padded else family.canonical_distributor(v)
                    passed = passes(rows, family.kernel(v, u, search.atol))
                assert passed.shape == (len(stack),)
                for s, p in enumerate(stack):
                    single = search.table(family.collector(model, p))
                    assert [name for name, _ in rows] == [name for name, _ in single]
                    for (_, x), (_, y) in zip(rows, single):
                        if isinstance(model, Lts):
                            x, y = x.planes, y.planes
                        x = np.broadcast_to(x, (len(stack), *x.shape[-y.ndim :]))[s]
                        own = y.shape[-1]
                        if isinstance(model, Lts):
                            assert np.array_equal(x[..., :own], y)
                        else:
                            np.testing.assert_allclose(x[..., :own], y, rtol=0, atol=1e-12)
                        assert not x[..., own:].any()
                    assert bool(passed[s]) == search.checker(model, p).passed, (kind, p)


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_oracle_builds_the_kind_table_once_per_model(monkeypatch):
    import random

    from matbisim import lts, mrc

    closures = _counting(monkeypatch, lts, "rt_closure")
    sys_ = generate.random_lts(random.Random(5), n=7)
    checker = Search(sys_, "weak").checker
    brute_force_coarsest(sys_, checker)
    assert len(closures) == 1

    projections = _counting(monkeypatch, mrc, "ergodic_projection")
    chain = generate.random_mrc_fast(random.Random(5), n=6)
    brute_force_coarsest(chain, Search(chain, "weak").checker)
    assert len(projections) == 1

    with pytest.raises(ValueError):
        checker(generate.random_lts(random.Random(6), n=7), Partition.identity(7))


def test_branching_oracle_projects_each_stack_once(monkeypatch):
    import random

    from matbisim import mrc

    rng = random.Random(0)
    clones = (generate.duplicate_states_mrc(rng, generate.random_mrc(rng, n=4))[0] for _ in range(50))
    chain = next(c for c in clones if c.num_states == 6)
    stacks = _counting(monkeypatch, mrc, "project_stack")
    singles = _counting(monkeypatch, mrc, "ergodic_projection")
    candidates = _counting(monkeypatch, Search, "checker")
    answer = Search(chain, "branching").oracle
    # stacks by rank: the one-block candidate, the 31 and the 90 with two
    # and three blocks, then the other 81
    assert answer.num_blocks == 4
    assert len(stacks) == 4 and not singles and not candidates
    # the one-at-a-time reference projects once per candidate it checks
    assert brute_force_coarsest(chain, Search(chain, "branching").checker) == answer
    assert len(stacks) - 4 == len(candidates) > 1 + 31 + 90


def test_each_refine_command_builds_the_kind_table_once(monkeypatch, tmp_path, capsys):
    import random

    from matbisim import lts, mrc, partition
    from matbisim.cli import main

    def refine(model, kind, *extra):
        path = tmp_path / "model.txt"
        path.write_text(lts.format_lts(model) if isinstance(model, lts.Lts) else mrc.format_mrc(model))
        code = main(["refine", str(path), "--kind", kind, *extra])
        capsys.readouterr()
        return code

    closures = _counting(monkeypatch, lts, "rt_closure")
    assert refine(generate.random_lts(random.Random(5), n=7), "weak", "--oracle") == 0
    assert len(closures) == 1

    projections = _counting(monkeypatch, mrc, "ergodic_projection")
    chain, _ = generate.fast_funnel_chain(random.Random(5))
    assert refine(chain, "weak") == 0
    assert len(projections) == 1
    assert refine(chain, "weak", "--oracle") == 0
    assert len(projections) == 2

    searches = _counting(monkeypatch, partition, "_label_batches")
    assert refine(generate.random_mrc_fast(random.Random(5), n=6), "branching", "--oracle") == 0
    assert len(searches) == 1


def test_weak_diagram_command_closes_internal_steps_twice(monkeypatch, capsys):
    # once for the system's weak table, once for the lumped system
    from matbisim import lts
    from matbisim.cli import main

    models = Path(__file__).resolve().parents[1] / "models"
    closures = _counting(monkeypatch, lts, "rt_closure")
    argv = ["diagram", str(models / "tau_pair.lts"), "--partition", str(models / "tau_pair_merged.partition")]
    assert main([*argv, "--kind", "weak"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert len(closures) == 2


def test_branching_search_and_reward_validate_each_generator_once(monkeypatch, tmp_path, capsys):
    import random

    from matbisim import mrc
    from matbisim.cli import main

    rng = random.Random(2)
    clones = (generate.duplicate_states_mrc(rng, generate.random_mrc(rng, n=5))[0] for _ in range(50))
    plain = next(c for c in clones if c.num_states > 6)
    funnel, _ = generate.fast_funnel_chain(rng, base_states=6)
    small, _ = generate.fast_funnel_chain(rng, base_states=3)
    validations = _counting(monkeypatch, mrc, "validate_generator")
    # a chain holds validated generators: its branching table restricts them
    # as they are, in every round and every oracle stack
    for chain in (plain, funnel):
        search = Search(chain, "branching")
        assert search.checker(chain, refinement_fixpoint(chain.num_states, search.signatures)).passed
    assert small.num_states <= 6 and Search(small, "branching").oracle
    assert not validations
    # the reward command exponentiates the generator it read, validated by
    # the parser, at every horizon without validating it again
    path = tmp_path / "plain.mrc"
    path.write_text(mrc.format_mrc(plain))
    assert main(["reward", str(path), "--times", "0", "0.5", "1", "2", "10"]) == 0
    capsys.readouterr()
    assert len(validations) == 0
    # direct calls still validate and refuse
    with pytest.raises(mrc.GeneratorError, match="^row 0: negative rate -1.0 to state 1$"):
        mrc.adapt_diagonal(np.array([[1.0, -1.0], [0.0, 0.0]]), np.eye(2))
    with pytest.raises(mrc.GeneratorError, match="^row 1: row sum 1.0 exceeds tolerance$"):
        mrc.transition_matrix(np.array([[0.0, 0.0], [1.0, 0.0]]), 1.0)
