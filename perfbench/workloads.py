"""Seeded model families and the fixed operation batch of each workload.

The benchmark owns these generators so that the inputs stay the same when
the program's own ``matbisim.generate`` changes.  They follow the same
constructions (sparse random systems, state duplication, internal feeders,
fast funnels), but every size is fixed by the workload's schedule: the seed
only moves edges, labels, rates and rewards.

Models are written in the program's text formats; the program receives
nothing else.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

KINDS = ("strong", "weak", "branching")
LABELS = ("a", "b", "c")
REWARD_TIMES = ("0.1", "1", "10", "100", "1000", "10000", "100000")


# ---------------------------------------------------------------------------
# Transition systems: visible[label] and internal as sets of (src, dst)
# ---------------------------------------------------------------------------


@dataclass
class LtsModel:
    n: int
    visible: dict[str, set[tuple[int, int]]]
    internal: set[tuple[int, int]]
    term: set[int]
    init: int = 0


@dataclass
class MrcModel:
    n: int
    sigma: list[float]
    rho: list[float]
    slow: dict[tuple[int, int], float]
    fast: dict[tuple[int, int], float] = field(default_factory=dict)


def _groups(rng: random.Random, n0: int) -> list[list[int]]:
    """Exactly half of the states (rounded down) get a clone."""
    cloned = set(rng.sample(range(n0), n0 // 2))
    groups, total = [], 0
    for s in range(n0):
        size = 2 if s in cloned else 1
        groups.append(list(range(total, total + size)))
        total += size
    return groups


def _nonempty_subset(rng: random.Random, items: list[int]) -> list[int]:
    return [x for x in items if rng.random() < 0.5] or [rng.choice(items)]


def sparse_lts(rng: random.Random, n: int, *, visible_per_state: int = 3, tau_per_state: int = 1) -> LtsModel:
    """``n`` states, ``3n`` visible and ``n`` internal edges at random."""
    visible = {lab: set() for lab in LABELS}
    for _ in range(visible_per_state * n):
        visible[rng.choice(LABELS)].add((rng.randrange(n), rng.randrange(n)))
    internal = set()
    for _ in range(tau_per_state * n):
        s, t = rng.randrange(n), rng.randrange(n)
        if s != t:
            internal.add((s, t))
    term = {s for s in range(n) if rng.random() < 0.3}
    return LtsModel(n, visible, internal, term, init=0)


def duplicate_lts(rng: random.Random, base: LtsModel) -> tuple[LtsModel, list[list[int]]]:
    """Clone half of the states; the clone groups form a strong bisimulation.

    Each edge into a group is spread over a non-empty subset of the group,
    label by label, as in ``matbisim.generate.duplicate_states_lts``.
    """
    groups = _groups(rng, base.n)
    visible = {lab: set() for lab in LABELS}
    internal = set()
    for lab in LABELS:
        for s, t in sorted(base.visible[lab]):
            for x in groups[s]:
                for y in _nonempty_subset(rng, groups[t]):
                    visible[lab].add((x, y))
    for s, t in sorted(base.internal):
        for x in groups[s]:
            for y in _nonempty_subset(rng, groups[t]):
                internal.add((x, y))
    term = {x for s in base.term for x in groups[s]}
    n = sum(len(g) for g in groups)
    return LtsModel(n, visible, internal, term, init=groups[base.init][0]), groups


def plant_feeders(rng: random.Random, model: LtsModel, blocks: list[list[int]], count: int) -> list[list[int]]:
    """Append ``count`` fresh states, each with one internal step into an
    earlier state, and return ``blocks`` with each feeder joined to its
    target's block.  The joined partition is a weak and a branching
    bisimulation but in general not a strong one."""
    block_of = {s: k for k, b in enumerate(blocks) for s in b}
    merged = [list(b) for b in blocks]
    for _ in range(count):
        feeder = model.n
        target = rng.randrange(feeder)
        model.internal.add((feeder, target))
        model.n += 1
        block_of[feeder] = block_of[target]
        merged[block_of[target]].append(feeder)
    return merged


def planted_lts(rng: random.Random, n0: int) -> tuple[LtsModel, dict[str, list[list[int]]]]:
    """Sparse system, cloned, then ``n/8`` feeders.

    Returns the model and its planted partitions: ``strong`` (clone groups,
    feeders alone) and ``weak`` (feeders joined to their targets)."""
    model, groups = duplicate_lts(rng, sparse_lts(rng, n0))
    n1 = model.n
    weak = plant_feeders(rng, model, groups, n1 // 8)
    strong = [list(g) for g in groups] + [[s] for s in range(n1, model.n)]
    return model, {"strong": strong, "weak": weak}


def format_lts(m: LtsModel) -> str:
    lines = [
        f"lts {m.n}",
        "alphabet " + " ".join(LABELS),
        f"init {m.init}",
        ("term " + " ".join(str(s) for s in sorted(m.term))).rstrip(),
    ]
    edges = [(s, k, t) for k, lab in enumerate(LABELS) for s, t in m.visible[lab]]
    edges += [(s, len(LABELS), t) for s, t in m.internal]
    for s, k, t in sorted(edges):
        lines.append(f"{s} {LABELS[k] if k < len(LABELS) else 'tau'} {t}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Reward chains
# ---------------------------------------------------------------------------


def _sparse_rates(rng: random.Random, n: int, per_state: float, lo: float = 0.3, hi: float = 3.0) -> dict:
    """About ``per_state`` random out-edges per state (a fraction is a
    per-state probability of one edge)."""
    rates: dict[tuple[int, int], float] = {}
    if n < 2:
        return rates
    for s in range(n):
        edges = int(per_state) + (rng.random() < per_state % 1)
        for _ in range(edges):
            t = rng.randrange(n - 1)
            t += t >= s
            rates[(s, t)] = rates.get((s, t), 0.0) + rng.uniform(lo, hi)
    return rates


def _distribution(rng: random.Random, n: int) -> list[float]:
    w = [rng.random() + 0.01 for _ in range(n)]
    total = sum(w)
    return [x / total for x in w]


def _shares(rng: random.Random, value: float, slots: int) -> list[float]:
    w = [rng.random() + 0.05 for _ in range(slots)]
    total = sum(w)
    return [value * x / total for x in w]


def sparse_mrc(rng: random.Random, n: int, *, per_state: float = 4, fast_per_state: float = 0) -> MrcModel:
    return MrcModel(
        n,
        _distribution(rng, n),
        [rng.uniform(0.0, 5.0) for _ in range(n)],
        _sparse_rates(rng, n, per_state),
        _sparse_rates(rng, n, fast_per_state, 0.5, 3.0),
    )


def duplicate_mrc(rng: random.Random, base: MrcModel) -> tuple[MrcModel, list[list[int]]]:
    """Clone half of the states, splitting each rate over the target group;
    the clone groups form an ordinary lumping (both generators)."""
    groups = _groups(rng, base.n)

    def expand(rates: dict) -> dict:
        out: dict[tuple[int, int], float] = {}
        for (s, t), value in sorted(rates.items()):
            for x in groups[s]:
                for y, share in zip(groups[t], _shares(rng, value, len(groups[t]))):
                    out[(x, y)] = out.get((x, y), 0.0) + share
        return out

    n = sum(len(g) for g in groups)
    sigma, rho = [0.0] * n, [0.0] * n
    for s, g in enumerate(groups):
        for x, share in zip(g, _shares(rng, base.sigma[s], len(g))):
            sigma[x] = share
            rho[x] = base.rho[s]
    return MrcModel(n, sigma, rho, expand(base.slow), expand(base.fast)), groups


def funnel_mrc(rng: random.Random, base_states: int) -> tuple[MrcModel, list[list[int]]]:
    """Split 60% of a sparse chain's states into an entry plus a core joined
    by an in-class fast step, as in ``matbisim.generate.fast_funnel_chain``.

    Joining each entry with its core is a weak bisimulation, generally not an
    ordinary lumping: the entry rewards are arbitrary."""
    base = sparse_mrc(rng, base_states, per_state=5)
    expanded = set(rng.sample(range(base_states), round(0.6 * base_states)))
    index, total = [], 0
    for s in range(base_states):
        size = 2 if s in expanded else 1
        index.append(list(range(total, total + size)))
        total += size
    sigma, rho = [0.0] * total, [0.0] * total
    slow: dict[tuple[int, int], float] = {}
    fast: dict[tuple[int, int], float] = {}
    for s in range(base_states):
        entry, core = index[s][0], index[s][-1]
        rho[core] = base.rho[s]
        if entry != core:
            rho[entry] = rng.uniform(0.0, 5.0)
            fast[(entry, core)] = rng.uniform(0.5, 3.0)
        sigma[entry] = base.sigma[s]
    for (s, t), value in sorted(base.slow.items()):
        core = index[s][-1]
        for y, share in zip(index[t], _shares(rng, value, len(index[t]))):
            slow[(core, y)] = slow.get((core, y), 0.0) + share
    return MrcModel(total, sigma, rho, slow, fast), index


def format_mrc(m: MrcModel) -> str:
    lines = [
        f"mrc {m.n}",
        "init " + " ".join(f"{i}:{p!r}" for i, p in enumerate(m.sigma) if p != 0.0),
        "reward " + " ".join(repr(r) for r in m.rho),
    ]
    for name, rates in (("rate", m.slow), ("fast", m.fast)):
        for (s, t), value in sorted(rates.items()):
            lines.append(f"{name} {s} {t} {value!r}")
    return "\n".join(lines) + "\n"


def format_partition(n: int, blocks: list[list[int]]) -> str:
    blocks = sorted((sorted(b) for b in blocks), key=lambda b: b[0])
    return "\n".join([f"partition {n}"] + [" ".join(map(str, b)) for b in blocks]) + "\n"


# ---------------------------------------------------------------------------
# Workloads: fixed size schedules and operation batches
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One CLI invocation of the batch; file arguments name files of
    ``Workload.files`` and ``--json`` is added when it runs."""

    id: str
    argv: list[str]


@dataclass
class Workload:
    files: dict[str, str]                            # file name -> text
    planted: dict[str, dict[str, list[list[int]]]]   # model file -> name -> blocks
    ops: list[Op]
    warmup: Op                                       # one cheap operation for set-up


def _refines(key: str, path: str, extra: tuple[str, ...] = ()) -> list[Op]:
    tag = "oracle" if extra else "refine"
    return [Op(f"{key}/{tag}-{kind}", ["refine", path, "--kind", kind, *extra]) for kind in KINDS]


def _with_partition(key: str, command: str, path: str, part: str, kind: str) -> Op:
    return Op(f"{key}/{command}-{kind}", [command, path, "--partition", f"{key}.{part}.partition", "--kind", kind])


def _lts_refine(seed: int) -> Workload:
    rng = random.Random(f"lts-refine/{seed}")
    files, planted, ops = {}, {}, []
    # Base sizes 24/36/48/60 give 40, 60, 81 and 101 states after cloning
    # and feeders.
    for n0 in (24, 36, 48, 60):
        model, parts = planted_lts(rng, n0)
        key = f"s{model.n}"
        path = f"{key}.lts"
        files[path] = format_lts(model)
        planted[path] = parts
        for name, blocks in parts.items():
            files[f"{key}.{name}.partition"] = format_partition(model.n, blocks)
        ops += _refines(key, path)
        ops.append(_with_partition(key, "check", path, "weak", "strong"))
        ops.append(_with_partition(key, "check", path, "weak", "weak"))
        ops.append(_with_partition(key, "lump", path, "strong", "strong"))
        ops.append(_with_partition(key, "lump", path, "weak", "branching"))
    return Workload(files, planted, ops, warmup=ops[4])  # the smallest model's weak check


def _mrc_pipeline(seed: int) -> Workload:
    rng = random.Random(f"mrc-pipeline/{seed}")
    files, planted, ops = {}, {}, []
    reward = ["--times", *REWARD_TIMES]
    # Funnels of 38/75/150 base states have 61, 120 and 240 states.
    for base in (38, 75, 150):
        model, blocks = funnel_mrc(rng, base)
        key = f"f{model.n}"
        path = f"{key}.mrc"
        files[path] = format_mrc(model)
        files[f"{key}.weak.partition"] = format_partition(model.n, blocks)
        planted[path] = {"weak": blocks}
        ops += _refines(key, path)
        ops += [_with_partition(key, cmd, path, "weak", "weak") for cmd in ("check", "lump", "diagram")]
        ops.append(Op(f"{key}/reward", ["reward", path, *reward]))
    # Cloned sparse chains of 40/80 base states (60 and 120 states), without
    # and with fast transitions.
    for base, fast in ((40, 0), (80, 0), (40, 0.3), (80, 0.3)):
        model, blocks = duplicate_mrc(rng, sparse_mrc(rng, base, per_state=3, fast_per_state=fast))
        key = f"d{model.n}" + ("f" if fast else "")
        path = f"{key}.mrc"
        files[path] = format_mrc(model)
        files[f"{key}.strong.partition"] = format_partition(model.n, blocks)
        planted[path] = {"strong": blocks}
        ops += _refines(key, path)
        ops.append(_with_partition(key, "check", path, "strong", "strong"))
        ops.append(Op(f"{key}/reward", ["reward", path, *reward]))
    return Workload(files, planted, ops, warmup=ops[3])  # the smallest funnel's weak check


def _oracle_small(seed: int) -> Workload:
    rng = random.Random(f"oracle-small/{seed}")
    files, planted, ops = {}, {}, []
    # Criterion 11's mix: plain systems, chains with fast transitions, and
    # cloned plain chains (4 base states, so 6 states).
    schedule = [("lts", 5), ("lts", 6), ("lts", 6), ("lts", 7), ("fast", 5), ("fast", 6), ("fast", 6),
                ("dup", 4), ("dup", 4)]
    for i, (family, n) in enumerate(schedule):
        key = f"{family}{i}"
        if family == "lts":
            path = f"{key}.lts"
            files[path] = format_lts(sparse_lts(rng, n, visible_per_state=2))
        elif family == "fast":
            path = f"{key}.mrc"
            files[path] = format_mrc(sparse_mrc(rng, n, per_state=2, fast_per_state=1))
        else:
            path = f"{key}.mrc"
            model, blocks = duplicate_mrc(rng, sparse_mrc(rng, n, per_state=2))
            files[path] = format_mrc(model)
            planted[path] = {"strong": blocks}
        ops += _refines(key, path, ("--oracle",))
    return Workload(files, planted, ops, warmup=ops[0])


BUILDERS = {"lts-refine": _lts_refine, "mrc-pipeline": _mrc_pipeline, "oracle-small": _oracle_small}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)
