"""Branching bisimulation checked relationally, independently of the matrix tables.

The reference below is the textbook definition with explicit termination
(van Glabbeek & Weijland 1996) in plain sets and loops.  A partition is a
branching bisimulation when, for any two states ``s`` and ``t`` of one
block, every move ``s -a-> s'`` is matched either by ``a = τ`` with ``s'``
in the block of ``t``, or by ``t =τ*=> t₁ -a-> t'`` with ``t₁`` in the
block of ``s`` and ``t'`` in the block of ``s'``; and termination of ``s``
is matched by ``t =τ*=> t₁↓`` with ``t₁`` in the block of ``s``.  The
internal path to ``t₁`` may leave the block.

The matrix check reads internal paths only inside the block (``Π_V``), so
it accepts a subset of these partitions; both have the same coarsest one.
Systems are read through their :func:`~matbisim.lts.format_lts` text, as in
``test_relational_weak``.
"""

import random

from matbisim import generate, lts
from matbisim.partition import Partition, Search, enumerate_partitions
from test_relational_weak import TAU, read_edges, tau_reach

WITNESS = "lts 4\nalphabet a\ninit 3\nterm 0\n0 a 0\n0 a 2\n0 a 3\n1 tau 3\n2 a 0\n2 tau 1\n2 a 2\n3 tau 2\n"


def is_branching_bisimulation(text: str, blocks) -> bool:
    n, term, moves = read_edges(text)
    reach = tau_reach(n, moves)
    block_of = {s: b for b, block in enumerate(blocks) for s in block}
    out = [[(label, dst) for src, label, dst in moves if src == s] for s in range(n)]
    for block in blocks:
        for t in block:
            # t =τ*=> t₁ with t₁ in the block, and the (label, target block) of t₁'s moves
            stops = [t1 for t1 in reach[t] if block_of[t1] == block_of[t]]
            matched = {(label, block_of[dst]) for t1 in stops for label, dst in out[t1]}
            stops_terminate = any(t1 in term for t1 in stops)
            for s in block:
                if s in term and not stops_terminate:
                    return False
                for label, dst in out[s]:
                    if label == TAU and block_of[dst] == block_of[t]:
                        continue
                    if (label, block_of[dst]) not in matched:
                        return False
    return True


def relational_coarsest(system: lts.Lts) -> Partition:
    """The partition with the fewest blocks that passes the reference."""
    text = lts.format_lts(system)
    return next(p for p in enumerate_partitions(system.num_states) if is_branching_bisimulation(text, p.blocks))


def test_matrix_branching_implies_relational_branching():
    rng = random.Random(5)
    passed = stricter = 0
    for _ in range(300):
        system = generate.random_lts(rng, n=rng.randint(2, 5))
        text = lts.format_lts(system)
        for p in enumerate_partitions(system.num_states):
            relational = is_branching_bisimulation(text, p.blocks)
            if lts.check(system, lts.collector(system, p), "branching").passed:
                assert relational, (text, p.blocks)
                passed += 1
            else:
                stricter += relational
    assert passed > 300 and stricter > 0


def test_witness_passes_relationally_but_not_in_class():
    blocks = ((0,), (1, 2), (3,))
    assert is_branching_bisimulation(WITNESS, blocks)
    system = lts.parse_lts(WITNESS)
    report = lts.check(system, lts.collector(system, Partition(4, blocks)), "branching")
    assert not report.passed and report.violated == "VUΠ_V AV = Π_V AV"


def test_coarsest_branching_partition_is_the_relational_one():
    rng = random.Random(6)
    merged = 0
    for _ in range(300):
        system = generate.random_lts(rng, n=rng.randint(1, 6))
        coarsest = Search(system, "branching").coarsest()
        assert coarsest == relational_coarsest(system), lts.format_lts(system)
        merged += coarsest.num_blocks < system.num_states
    assert merged > 30
