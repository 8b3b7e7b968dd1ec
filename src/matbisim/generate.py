"""Seeded random model builders: plain random instances, instances with
planted bisimulations (state duplication, internal feeders, fast funnels),
and the randomized search for a branching-but-not-weak reward chain.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import mrc
from .algebra import DEFAULT_ATOL, ActionAlphabet, ActionMatrix
from .mrc import Mrc, MrcFast, format_mrc, parse_mrc
from .lts import Lts
from .partition import (
    CheckReport,
    Partition,
    Search,
    enumerate_partitions,
    format_partition,
    parse_partition,
)

_LABEL_POOL = ("a", "b", "c", "d")


# ---------------------------------------------------------------------------
# Transition systems
# ---------------------------------------------------------------------------


def random_alphabet(rng: random.Random, max_actions: int = 3) -> ActionAlphabet:
    return ActionAlphabet(_LABEL_POOL[: rng.randint(1, max_actions)])


def random_lts(
    rng: random.Random,
    *,
    n: int | None = None,
    max_states: int = 8,
    alphabet: ActionAlphabet | None = None,
    p_visible: float = 0.25,
    p_internal: float = 0.2,
    p_term: float = 0.35,
) -> Lts:
    if n is None:
        n = rng.randint(1, max_states)
    if alphabet is None:
        alphabet = random_alphabet(rng)
    visible = [[0] * n for _ in range(n)]
    internal = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            if rng.random() < p_visible:
                visible[i][j] = rng.randrange(1, alphabet.full_mask + 1)
            if rng.random() < p_internal:
                internal[i, j] = True
    term = [[rng.random() < p_term] for _ in range(n)]
    return _lts(alphabet, rng.randrange(n), ActionMatrix(alphabet, visible), internal, term)


def _lts(alphabet: ActionAlphabet, init: int, visible: ActionMatrix, internal, term) -> Lts:
    """System from its initial state, visible matrix and 0-1 internal and
    termination arrays."""
    return Lts(
        alphabet=alphabet,
        initial=ActionMatrix.from_bits(alphabet, [np.arange(visible.rows) == init]),
        visible=visible,
        internal=ActionMatrix.from_bits(alphabet, internal),
        terminating=ActionMatrix.from_bits(alphabet, term),
    )


def random_partition(rng: random.Random, n: int) -> Partition:
    return Partition.from_assignment([rng.randrange(max(1, rng.randint(1, n))) for _ in range(n)])


def _spread_mask(rng: random.Random, mask: int, slots: int) -> list[int]:
    """Distribute a label mask over several targets so the union is the mask."""
    parts = [0] * slots
    bit = 1
    rest = mask
    while rest:
        if rest & 1:
            chosen = [k for k in range(slots) if rng.random() < 0.5] or [rng.randrange(slots)]
            for k in chosen:
                parts[k] |= bit
        rest >>= 1
        bit <<= 1
    return parts


def _consecutive_groups(sizes: list[int]) -> list[list[int]]:
    """Consecutive state ranges of the given sizes, numbered from 0."""
    starts = np.cumsum([0, *sizes]).tolist()
    return [list(range(a, b)) for a, b in zip(starts, starts[1:])]


def _clone_groups(rng: random.Random, n0: int, p_clone: float) -> list[list[int]]:
    """Clone groups of one or two new states per base state; at least one
    state is cloned."""
    copies = [1 + (1 if rng.random() < p_clone else 0) for _ in range(n0)]
    if sum(copies) == n0:
        copies[rng.randrange(n0)] = 2
    return _consecutive_groups(copies)


def duplicate_states_lts(rng: random.Random, base: Lts, *, p_clone: float = 0.5) -> tuple[Lts, Partition]:
    """Expand states into clone groups; the group partition is a strong
    bisimulation of the result by construction."""
    n0 = base.num_states
    groups = _clone_groups(rng, n0, p_clone)
    total = sum(map(len, groups))
    base_visible = base.visible.data
    base_internal = base.internal.support()
    visible = [[0] * total for _ in range(total)]
    internal = np.zeros((total, total), dtype=bool)
    for s in range(n0):
        for t in range(n0):
            vmask = base_visible[s][t]
            for x in groups[s]:
                if vmask:
                    for y, part in zip(groups[t], _spread_mask(rng, vmask, len(groups[t]))):
                        visible[x][y] |= part
                if base_internal[s, t]:
                    chosen = [y for y in groups[t] if rng.random() < 0.5] or [rng.choice(groups[t])]
                    internal[x, chosen] = True
    origin = [s for s in range(n0) for _ in groups[s]]
    term = base.terminating.support()[origin]
    init = groups[base.initial_state][0]
    expanded = _lts(base.alphabet, init, ActionMatrix(base.alphabet, visible), internal, term)
    return expanded, Partition(total, tuple(tuple(g) for g in groups))


def plant_internal_feeder(rng: random.Random, base: Lts) -> tuple[Lts, Partition]:
    """Append a fresh state with a single internal step into an existing one.

    Merging the feeder with its target is a weak (and branching)
    bisimulation but generally not a strong one.
    """
    n = base.num_states
    target = rng.randrange(n)
    alphabet = base.alphabet
    visible = ActionMatrix.from_planes(alphabet, np.pad(base.visible.planes, ((0, 0), (0, 1), (0, 1))))
    internal = np.pad(base.internal.support(), ((0, 1), (0, 1)))
    internal[n, target] = True
    term = np.pad(base.terminating.support(), ((0, 1), (0, 0)))
    grown = _lts(alphabet, base.initial_state, visible, internal, term)
    blocks = [(s,) for s in range(n) if s != target] + [(target, n)]
    return grown, Partition(n + 1, tuple(blocks))


def random_bool_distributor(rng: random.Random, p: Partition, alphabet: ActionAlphabet) -> ActionMatrix:
    """A random distributor for the partition's boolean collector: rows are
    supported on their own block and each label lands on some member."""
    data = [[0] * p.n for _ in range(p.num_blocks)]
    for k, block in enumerate(p.blocks):
        for part, s in zip(_spread_mask(rng, alphabet.full_mask, len(block)), block):
            data[k][s] = part
    return ActionMatrix(alphabet, tuple(tuple(r) for r in data))


def random_real_distributor(rng: random.Random, p: Partition) -> np.ndarray:
    u = np.zeros((p.num_blocks, p.n))
    for k, block in enumerate(p.blocks):
        weights = np.array([rng.random() + 0.05 for _ in block])
        u[k, list(block)] = weights / weights.sum()
    return u


# ---------------------------------------------------------------------------
# Reward chains
# ---------------------------------------------------------------------------


def random_generator(
    rng: random.Random,
    n: int,
    *,
    p_edge: float = 0.4,
    rates: tuple[float, float] = (0.3, 3.0),
) -> np.ndarray:
    return _draw_generator(rng, n, p_edge, lambda: rng.uniform(*rates))


def _draw_generator(rng: random.Random, n: int, p_edge: float, rate) -> np.ndarray:
    """Generator with each off-diagonal edge present with ``p_edge``, at the rate ``rate()``."""
    q = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < p_edge:
                q[i, j] = rate()
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


def random_sigma(rng: random.Random, n: int) -> np.ndarray:
    weights = np.array([rng.random() + 0.01 for _ in range(n)])
    return weights / weights.sum()


def random_mrc(rng: random.Random, *, n: int | None = None, max_states: int = 8) -> Mrc:
    if n is None:
        n = rng.randint(1, max_states)
    rho = np.array([rng.uniform(0.0, 5.0) for _ in range(n)])
    return Mrc(random_sigma(rng, n), random_generator(rng, n), rho)


def random_mrc_fast(
    rng: random.Random,
    *,
    n: int | None = None,
    max_states: int = 6,
    p_fast: float = 0.3,
) -> MrcFast:
    if n is None:
        n = rng.randint(1, max_states)
    rho = np.array([rng.uniform(0.0, 5.0) for _ in range(n)])
    return MrcFast(
        random_sigma(rng, n),
        random_generator(rng, n),
        random_generator(rng, n, p_edge=p_fast),
        rho,
    )


def _spread_value(rng: random.Random, value: float, slots: int) -> list[float]:
    weights = [rng.random() + 0.05 for _ in range(slots)]
    total = sum(weights)
    return [value * w / total for w in weights]


def duplicate_states_mrc(rng: random.Random, base: Mrc | MrcFast, *, p_clone: float = 0.5):
    """Expand states into clone groups; the group partition is an ordinary
    lumping of the result by construction (rates split inside classes)."""
    fast = isinstance(base, MrcFast)
    n0 = base.num_states
    groups = _clone_groups(rng, n0, p_clone)
    total = sum(map(len, groups))

    def expand(q0: np.ndarray) -> np.ndarray:
        q = np.zeros((total, total))
        for s in range(n0):
            for t in range(n0):
                if s != t and q0[s, t] > 0.0:
                    for x in groups[s]:
                        for y, share in zip(groups[t], _spread_value(rng, q0[s, t], len(groups[t]))):
                            q[x, y] += share
        np.fill_diagonal(q, -q.sum(axis=1))
        return q

    sigma = np.zeros(total)
    rho = np.zeros(total)
    for s in range(n0):
        for x, share in zip(groups[s], _spread_value(rng, float(base.sigma[s]), len(groups[s]))):
            sigma[x] = share
        for x in groups[s]:
            rho[x] = base.rho[s]
    part = Partition(total, tuple(tuple(g) for g in groups))
    if fast:
        return MrcFast(sigma, expand(base.qs), expand(base.qf), rho), part
    return Mrc(sigma, expand(base.q), rho), part


def fast_funnel_chain(rng: random.Random, *, base_states: int | None = None) -> tuple[MrcFast, Partition]:
    """Chain where some states are split into an entry plus a core joined by
    an in-class fast step.

    Merging each entry with its core is a weak bisimulation whose
    class-level projection is the identity, so the default distributor
    construction succeeds; the entry rewards are arbitrary, so the merge is
    generally not an ordinary lumping.
    """
    if base_states is None:
        base_states = rng.randint(2, 4)
    base = random_mrc(rng, n=base_states)
    expanded = [s for s in range(base_states) if rng.random() < 0.6]
    if not expanded:
        expanded = [rng.randrange(base_states)]

    index = _consecutive_groups([2 if s in expanded else 1 for s in range(base_states)])
    total = sum(map(len, index))
    qs = np.zeros((total, total))
    qf = np.zeros((total, total))
    sigma = np.zeros(total)
    rho = np.zeros(total)
    for s in range(base_states):
        core = index[s][-1]
        entry = index[s][0]
        rho[core] = base.rho[s]
        if len(index[s]) == 2:
            rho[entry] = rng.uniform(0.0, 5.0)  # invisible behind the fast step
            qf[entry, core] = rng.uniform(0.5, 3.0)
        sigma[entry] = base.sigma[s]
        for t in range(base_states):
            if t != s and base.q[s, t] > 0.0:
                targets = index[t]
                for y, share in zip(targets, _spread_value(rng, float(base.q[s, t]), len(targets))):
                    qs[core, y] += share
    np.fill_diagonal(qs, -qs.sum(axis=1))
    np.fill_diagonal(qf, -qf.sum(axis=1))
    part = Partition(total, tuple(tuple(index[s]) for s in range(base_states)))
    return MrcFast(sigma, qs, qf, rho), part


# ---------------------------------------------------------------------------
# Probe: does the branching check imply the weak check?
# ---------------------------------------------------------------------------

_PROBE_RATES = (0.5, 1.0, 2.0)
_PROBE_REWARDS = (0.0, 1.0, 2.0, 5.0)


@dataclass(frozen=True)
class ProbeCounterexample:
    model: MrcFast
    partition: Partition
    instance_index: int
    weak_violated: str
    revalidated: bool


@dataclass(frozen=True)
class ProbeResult:
    instances: int
    counterexample: ProbeCounterexample | None


def _probe_instance(rng: random.Random, max_states: int) -> MrcFast:
    n = rng.choice([3, 4, 4, min(5, max_states)] if max_states >= 4 else [3])
    n = min(n, max_states)
    rate = partial(rng.choice, _PROBE_RATES)
    qs = np.zeros((n, n)) if rng.random() < 0.4 else _draw_generator(rng, n, 0.15, rate)
    qf = _draw_generator(rng, n, 0.22, rate)
    rho = np.array([rng.choice(_PROBE_REWARDS) for _ in range(n)])
    sigma = np.zeros(n)
    sigma[0] = 1.0
    return MrcFast(sigma, qs, qf, rho)


def _candidate_partitions(rng: random.Random, n: int) -> list[Partition]:
    if n <= 4:
        # restricted-growth order: the probe reports the first hit in it
        return sorted((p for p in enumerate_partitions(n) if not p.is_identity()), key=lambda p: p.assignment)
    seen: set = set()
    out = []
    for _ in range(40):
        p = random_partition(rng, n)
        if not p.is_identity() and p.blocks not in seen:
            seen.add(p.blocks)
            out.append(p)
        if len(out) >= 20:
            break
    return out


def _revalidate(model: MrcFast, p: Partition, atol: float) -> tuple[bool, CheckReport]:
    """Round-trip through the text formats and re-run both checks."""
    chain = parse_mrc(format_mrc(model))
    part = parse_partition(format_partition(p))
    v = part.collector_real()
    again_branching = mrc.check(chain, v, "branching", atol=atol)
    again_weak = mrc.check(chain, v, "weak", atol=atol)
    return again_branching.passed and not again_weak.passed, again_weak


def probe_branching_weak(
    seed: int = 0,
    count: int = 1000,
    *,
    max_states: int = 5,
    atol: float = DEFAULT_ATOL,
) -> ProbeResult:
    """Search random small chains for a partition passing the branching
    check but failing the weak check.  Returns the first hit, re-validated
    through the text round-trip, or a clean completion."""
    if max_states < 1 or count < 0:
        raise ValueError("the probe needs at least one state and a nonnegative count")
    rng = random.Random(seed)
    for idx in range(count):
        chain = _probe_instance(rng, max_states)
        branching = Search(chain, "branching", atol=atol).checker
        weak = None  # built on the first candidate that passes branching
        for p in _candidate_partitions(rng, chain.num_states):
            if not branching(chain, p).passed:
                continue
            weak = weak or Search(chain, "weak", atol=atol).checker
            if weak(chain, p).passed:
                continue
            ok, again_weak = _revalidate(chain, p, atol)
            return ProbeResult(
                idx + 1,
                ProbeCounterexample(chain, p, idx, again_weak.violated or "", ok),
            )
    return ProbeResult(count, None)
