"""Each bisimulation kind is one table of ``VUX = X`` equalities.  The
refinement signatures are the rows of its ``X``, so one refinement round
leaves a partition unchanged exactly when the partition passes the check."""

import random

from matbisim import generate
from matbisim.lts import check_lts
from matbisim.lts import refinement_signatures as lts_signatures
from matbisim.mrc import check_mrc
from matbisim.mrc import refinement_signatures as mrc_signatures
from matbisim.partition import split_by_keys

KINDS = ("strong", "weak", "branching")


def _stable_iff_passing(pairs, signatures, check) -> dict[str, int]:
    """Assert the agreement on every (model, partition, kind); count passes per kind."""
    passes = dict.fromkeys(KINDS, 0)
    for model, p in pairs:
        for kind in KINDS:
            stable = split_by_keys(p, signatures(model, kind)(p)) == p
            passed = check(model, p, kind).passed
            assert stable == passed, (kind, p)
            passes[kind] += passed
    return passes


def test_lts_signatures_are_the_check():
    rng = random.Random(11)
    pairs = []
    for _ in range(200):
        lts = generate.random_lts(rng, max_states=8)
        pairs.append((lts, generate.random_partition(rng, lts.num_states)))
    passes = _stable_iff_passing(
        pairs, lts_signatures, lambda m, p, kind: check_lts(m, p.collector_bool(m.alphabet), kind)
    )
    assert min(passes.values()) >= 30, passes


def _mrc_check(model, p, kind):
    return check_mrc(model, p.collector_real(), kind)


def test_mrc_signatures_are_the_check_on_random_chains():
    rng = random.Random(12)
    pairs = []
    for _ in range(150):
        chain = generate.random_mrc_fast(rng)
        pairs.append((chain, generate.random_partition(rng, chain.num_states)))
    passes = _stable_iff_passing(pairs, mrc_signatures, _mrc_check)
    assert min(passes.values()) >= 30, passes


def test_mrc_signatures_are_the_check_on_planted_lumpings():
    rng = random.Random(13)
    pairs = []
    for _ in range(150):
        chain, planted = generate.duplicate_states_mrc(rng, generate.random_mrc_fast(rng, max_states=4))
        pairs += [(chain, planted), (chain, generate.random_partition(rng, chain.num_states))]
    passes = _stable_iff_passing(pairs, mrc_signatures, _mrc_check)
    assert min(passes.values()) >= 150, passes
