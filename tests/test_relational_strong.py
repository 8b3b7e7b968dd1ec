"""Strong bisimulation checked relationally, independently of the matrix tables.

The reference below is the textbook definition (Park, Milner) with explicit
termination, in plain sets and loops: a partition is a strong bisimulation
when, for any two states ``p`` and ``q`` of one block, every move
``p -a-> p'`` (``τ`` is a label like any other) is matched by a move
``q -a-> q'`` with ``q'`` in the block of ``p'``, and ``p`` terminates only
if ``q`` does.  Systems are read through their
:func:`~matbisim.lts.format_lts` text, as in ``test_relational_weak``.

Weak bisimulation is strong bisimulation of the system closed under
internal steps (Milner's saturation), so the same reference run on the
text of :func:`~matbisim.lts.tau_closure` decides the weak check too.
"""

import random

from matbisim import generate, lts
from matbisim.partition import enumerate_partitions
from test_relational_weak import read_edges


def is_strong_bisimulation(text: str, blocks) -> bool:
    n, term, moves = read_edges(text)
    block_of = {s: b for b, block in enumerate(blocks) for s in block}
    out = [{(label, block_of[dst]) for src, label, dst in moves if src == s} for s in range(n)]
    for block in blocks:
        for p in block:
            for q in block:
                if p in term and q not in term or not out[p] <= out[q]:
                    return False
    return True


def _systems():
    """300 random systems of 2–5 states, 5301 partitions in all."""
    rng = random.Random(5)
    return [generate.random_lts(rng, n=rng.randint(2, 5)) for _ in range(300)]


def test_reference_on_the_bundled_systems(four_state, tau_pair):
    text = lts.format_lts(four_state)
    assert is_strong_bisimulation(text, [[0], [1], [2], [3]])
    assert not is_strong_bisimulation(text, [[0, 1, 2, 3]])
    # the internal step tells the pair apart strongly, not weakly
    text = lts.format_lts(tau_pair)
    assert not is_strong_bisimulation(text, [[0, 1]])
    assert is_strong_bisimulation(lts.format_lts(lts.tau_closure(tau_pair)), [[0, 1]])


def test_strong_check_is_relational_strong_bisimulation():
    compared = 0
    for system in _systems():
        text = lts.format_lts(system)
        for p in enumerate_partitions(system.num_states):
            matrix = lts.check(system, lts.collector(system, p), "strong").passed
            assert matrix == is_strong_bisimulation(text, p.blocks), (text, p.blocks)
            compared += 1
    assert compared == 5301


def test_weak_check_is_relational_strong_bisimulation_of_the_closure():
    compared = 0
    for system in _systems():
        closed = lts.format_lts(lts.tau_closure(system))
        for p in enumerate_partitions(system.num_states):
            matrix = lts.check(system, lts.collector(system, p), "weak").passed
            assert matrix == is_strong_bisimulation(closed, p.blocks), (closed, p.blocks)
            compared += 1
    assert compared == 5301
