"""Each bisimulation kind is one table of ``VUX = X`` equalities.  The
refinement signatures are the rows of its ``X``, so one refinement round
leaves a partition unchanged exactly when the partition passes the check."""

import random

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matbisim import generate, lts, mrc
from matbisim.algebra import DEFAULT_ATOL
from matbisim.mrc import Mrc, MrcFast, _cluster_keys
from matbisim.partition import Partition, Search, kinds, split_by_keys

KINDS = ("strong", "weak", "branching")


def _stable_iff_passing(pairs, check) -> dict[str, int]:
    """Assert the agreement on every (model, partition, kind); count passes per kind."""
    passes = dict.fromkeys(KINDS, 0)
    for model, p in pairs:
        for kind in KINDS:
            stable = split_by_keys(p, Search(model, kind).signatures(p)) == p
            passed = check(model, p, kind).passed
            assert stable == passed, (kind, p)
            passes[kind] += passed
    return passes


def test_lts_signatures_are_the_check():
    rng = random.Random(11)
    pairs = []
    for _ in range(200):
        sys_ = generate.random_lts(rng, max_states=8)
        pairs.append((sys_, generate.random_partition(rng, sys_.num_states)))
    passes = _stable_iff_passing(pairs, lambda m, p, kind: lts.check(m, p.collector_bool(m.alphabet), kind))
    assert min(passes.values()) >= 30, passes


def _mrc_check(model, p, kind):
    return mrc.check(model, p.collector_real(), kind)


def test_weak_is_strong_over_the_closed_matrices():
    # row for row and bit for bit, matched by role: Πρ with ρ, ΠV with the
    # closed internal steps, ΠAΠV (ΠQsΠV) with the closed visible (slow) ones
    rng = random.Random(13)
    for _ in range(60):
        sys_ = generate.random_lts(rng, max_states=6)
        v = generate.random_partition(rng, sys_.num_states).collector_bool(sys_.alphabet)
        term, visible, internal = lts.conditions(lts.tau_closure(sys_), "strong")(v)
        for (_, x), (_, y) in zip(lts.conditions(sys_, "weak")(v), (term, internal, visible)):
            assert x.planes.shape == y.planes.shape and x.planes.tobytes() == y.planes.tobytes()
    for _ in range(60):
        chain = generate.random_mrc_fast(rng, max_states=6, p_fast=0.5)
        v = generate.random_partition(rng, chain.num_states).collector_real()
        # Π read through its factors Π = A E, as the weak table reads it; the
        # dense evaluation is compared within a tolerance in test_mrc.py
        pi = mrc.ergodic_projection(chain.qf)
        closed = (("ΠQsΠ", pi @ (chain.qs @ pi)), ("Π", pi))
        term, slow, fast = kinds("strong", pi @ chain.rho.reshape(-1, 1), closed, None, None, False)(v)
        for (_, x), (_, y) in zip(mrc.conditions(chain, "weak")(v), (term, fast, slow)):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()


def test_mrc_signatures_are_the_check_on_random_chains():
    rng = random.Random(12)
    pairs = []
    for _ in range(150):
        chain = generate.random_mrc_fast(rng)
        pairs.append((chain, generate.random_partition(rng, chain.num_states)))
    passes = _stable_iff_passing(pairs, _mrc_check)
    assert min(passes.values()) >= 30, passes


def test_mrc_signatures_are_the_check_on_planted_lumpings():
    rng = random.Random(13)
    pairs = []
    for _ in range(150):
        chain, planted = generate.duplicate_states_mrc(rng, generate.random_mrc_fast(rng, max_states=4))
        pairs += [(chain, planted), (chain, generate.random_partition(rng, chain.num_states))]
    passes = _stable_iff_passing(pairs, _mrc_check)
    assert min(passes.values()) >= 150, passes


def _perturbed(rng, chain, scale):
    """``chain`` with its rewards and present rates moved by up to ``scale``."""

    def jitter(q):
        q = q.copy()
        np.fill_diagonal(q, 0.0)
        present = q > 0.0
        q[present] = np.clip(q[present] + scale * rng.uniform(-1.0, 1.0, present.sum()), 0.0, None)
        np.fill_diagonal(q, -q.sum(axis=1))
        return q

    rho = chain.rho + scale * rng.uniform(-1.0, 1.0, chain.num_states)
    if isinstance(chain, MrcFast):
        return MrcFast(chain.sigma, jitter(chain.qs), jitter(chain.qf), rho)
    return Mrc(chain.sigma, jitter(chain.q), rho)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(["plain", "fast", "clones"]),
    scale=st.floats(0.1, 3.0),
)
# chained clone groups on which a fixpoint of tolerance-connected groups
# fails its own check, for both kinds and for weak only
@example(seed=4, family="clones", scale=1.0)
@example(seed=6, family="clones", scale=3.0)
def test_refinement_passes_its_own_check_near_tolerance(seed, family, scale):
    rng = random.Random(seed)
    if family == "plain":
        chain = generate.random_mrc(rng)
    elif family == "fast":
        chain = generate.random_mrc_fast(rng)
    else:
        # cloning twice gives groups of up to four equal states, so that
        # perturbed members can chain within tolerance
        chain, _ = generate.duplicate_states_mrc(rng, generate.random_mrc_fast(rng, max_states=3))
        chain, _ = generate.duplicate_states_mrc(rng, chain, p_clone=0.9)
    chain = _perturbed(np.random.default_rng(seed), chain, scale * DEFAULT_ATOL)
    for kind in ("strong", "weak"):
        found = Search(chain, kind).coarsest()  # raises CheckFailed on a failing fixpoint
        assert mrc.check(chain, found.collector_real(), kind).passed


def _spreads(keys, rows):
    keys = np.asarray(keys)
    return [np.ptp(rows[keys == k], axis=0).max() for k in np.unique(keys)]


def test_cluster_keys_bound_spread_and_keep_separated_clusters():
    atol = 1e-9
    rng = np.random.default_rng(3)
    # five clusters of spread at most 1e-12, pairwise farther apart than atol
    # in some coordinate, in two blocks
    centres = np.array([[0.0, 0.0], [0.0, 2e-9], [1.5e-9, 0.0], [1.0, 1.0], [1.0, 1.0 + 1.1e-9]])
    cluster = rng.integers(0, 5, 60)
    rows = centres[cluster] + rng.uniform(0.0, 1e-12, (60, 2))
    block = rng.integers(0, 2, 60)
    p = Partition.from_assignment(block.tolist())
    keys = _cluster_keys(p, rows, atol)
    assert Partition.from_assignment(keys) == Partition.from_assignment(list(zip(block, cluster)))
    assert max(_spreads(keys, rows)) <= atol

    # a chain of within-atol steps spanning 20 atol is cut, and every piece
    # spreads at most atol
    steps = np.cumsum(rng.uniform(0.2, 0.9, 40)) * atol
    rows = np.column_stack([steps, np.zeros(40)])
    keys = _cluster_keys(Partition.single_block(40), rows, atol)
    assert len(set(keys)) > 1
    assert max(_spreads(keys, rows)) <= atol
