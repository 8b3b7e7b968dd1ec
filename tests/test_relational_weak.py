"""Weak bisimulation checked relationally, independently of the matrix tables.

The reference below is the textbook definition (Milner, with explicit
termination) in plain sets and loops: a partition is a weak bisimulation
when, for any two states ``p`` and ``q`` of one block, every move of ``p``
is matched by ``q`` into the block of its target, a visible ``a`` by a weak
move ``τ*aτ*`` and a ``τ`` by ``τ*``, and termination of ``p`` is matched
by ``τ*↓`` from ``q``.  It reads a system only through its
:func:`~matbisim.lts.format_lts` text.
"""

import random

from matbisim import generate, lts
from matbisim.partition import enumerate_partitions

TAU = "tau"


def read_edges(text: str):
    """States, terminating states and ``(source, label, target)`` moves."""
    n, term, moves = 0, set(), set()
    for line in text.splitlines():
        head, *rest = line.split()
        if head == "lts":
            n = int(rest[0])
        elif head == "term":
            term = {int(s) for s in rest}
        elif head not in ("alphabet", "init"):
            moves.add((int(head), rest[0], int(rest[1])))
    return n, term, moves


def tau_reach(n: int, moves) -> list[set]:
    """``τ*`` successors of every state, itself included."""
    reach = []
    for s in range(n):
        seen, todo = {s}, [s]
        while todo:
            p = todo.pop()
            for src, label, dst in moves:
                if src == p and label == TAU and dst not in seen:
                    seen.add(dst)
                    todo.append(dst)
        reach.append(seen)
    return reach


def is_weak_bisimulation(text: str, blocks) -> bool:
    n, term, moves = read_edges(text)
    reach = tau_reach(n, moves)
    block_of = {s: b for b, block in enumerate(blocks) for s in block}

    def weak_targets(q, label):
        if label == TAU:
            return reach[q]
        return {t for r in reach[q] for src, a, mid in moves if src == r and a == label for t in reach[mid]}

    for block in blocks:
        for p in block:
            for q in block:
                if p in term and not reach[q] & term:
                    return False
                for src, label, dst in moves:
                    if src == p and block_of[dst] not in {block_of[t] for t in weak_targets(q, label)}:
                        return False
    return True


def test_reference_on_the_bundled_tau_pair(tau_pair):
    text = lts.format_lts(tau_pair)
    assert is_weak_bisimulation(text, [[0, 1]])
    assert is_weak_bisimulation(text, [[0], [1]])


def test_weak_check_is_relational_weak_bisimulation():
    rng = random.Random(5)
    compared = 0
    for _ in range(300):
        system = generate.random_lts(rng, n=rng.randint(2, 5))
        text = lts.format_lts(system)
        for p in enumerate_partitions(system.num_states):
            matrix = lts.check(system, lts.collector(system, p), "weak").passed
            assert matrix == is_weak_bisimulation(text, p.blocks), (text, p.blocks)
            compared += 1
    assert compared == 5301
