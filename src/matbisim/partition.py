"""State-space partitions, collector/distributor matrices, and the search
for coarsest bisimulations (iterated refinement plus an exhaustive oracle).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .algebra import DEFAULT_ATOL, ActionAlphabet, ActionMatrix

#: The oracle refuses more states: B(13) is 27,644,437 partitions.
MAX_ORACLE_STATES = 12

#: Most candidates :attr:`Search.oracle` evaluates in one stack, consecutive
#: in its order whatever their block counts.  A stack is as wide as its
#: largest block count, so at the 12-state bound a stacked array still holds
#: at most 256·12·12 entries per label plane: 0.15 MB per plane as
#: ``float32``, 0.3 MB as ``float64``.
ORACLE_STACK = 256

#: Most partitions the oracle's enumerator grows and sorts at once
#: (:func:`_label_batches`); up to 9 states the whole lattice is one batch.
#: Larger block counts are split on their first block.  At the 12-state
#: bound the whole lattice then peaks at about 12 MB of arrays, and one run
#: holds at most S(11, 5) = 246,730 rows of 12 bytes (the 6-block partitions
#: whose first block is ``{0}``).  Growing and sorting all S(12, 5) =
#: 1,379,400 partitions in 5 blocks at once would peak at about 370 MB.
ORACLE_BATCH = 1 << 16


class ModelFormatError(ValueError):
    """Malformed model, partition, or distributor text."""


@dataclass(frozen=True)
class Witness:
    """First offending entry of a violated matrix equality.

    ``lhs``/``rhs`` are label tuples in the boolean world and floats in the
    real world; ``residual`` is set for real comparisons only.
    """

    row: int
    col: int
    lhs: object
    rhs: object
    residual: float | None = None


@dataclass(frozen=True)
class CheckReport:
    """Verdict of one bisimulation check."""

    kind: str
    passed: bool
    violated: str | None = None
    witness: Witness | None = None

    def __post_init__(self):
        if self.passed != (self.violated is None):
            raise ValueError("passed iff no violated equality")


class CheckFailed(ValueError):
    """An operation requiring a passing check was given a failing one."""

    def __init__(self, report: CheckReport):
        super().__init__(f"{report.kind} check failed on {report.violated!r}")
        self.report = report


def require_passed(report: CheckReport) -> None:
    if not report.passed:
        raise CheckFailed(report)


@dataclass(frozen=True)
class Partition:
    """Partition of ``{0..n-1}`` in canonical form.

    Blocks are sorted internally and ordered by smallest member, so
    structural equality decides partition equality.  The constructor sorts
    and validates its blocks.  :meth:`from_assignment`,
    :func:`enumerate_partitions` and :attr:`Search.oracle` build theirs from
    canonical label rows and skip both; the oracle builds one, its answer.
    """

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("partitions need at least one state")
        blocks = tuple(sorted((tuple(sorted(b)) for b in self.blocks), key=lambda b: b[0] if b else -1))
        object.__setattr__(self, "blocks", blocks)
        seen: set[int] = set()
        for block in blocks:
            if not block:
                raise ValueError("empty block")
            for s in block:
                if not 0 <= s < self.n:
                    raise ValueError(f"state {s} out of range")
                if s in seen:
                    raise ValueError(f"state {s} in two blocks")
                seen.add(s)
        if len(seen) != self.n:
            first = next((i for i, s in enumerate(sorted(seen)) if i != s), len(seen))
            raise ValueError(f"{self.n - len(seen)} states not covered, the first is {first}")

    @classmethod
    def _canonical(cls, assignment: tuple[int, ...], num_blocks: int) -> "Partition":
        """Trusted constructor: ``assignment`` numbers the blocks ``0..num_blocks-1``
        in order of their smallest member, so the blocks are canonical as built."""
        blocks: list[list[int]] = [[] for _ in range(num_blocks)]
        for state, block in enumerate(assignment):
            blocks[block].append(state)
        p = object.__new__(cls)
        object.__setattr__(p, "n", len(assignment))
        object.__setattr__(p, "blocks", tuple(map(tuple, blocks)))
        p.__dict__["assignment"] = assignment
        return p

    @classmethod
    def identity(cls, n: int) -> "Partition":
        return cls.from_assignment(range(n))

    @classmethod
    def single_block(cls, n: int) -> "Partition":
        return cls.from_assignment([0] * n)

    @classmethod
    def from_assignment(cls, labels: Sequence) -> "Partition":
        """Group states by equal (hashable) labels; blocks are numbered in
        order of first appearance, which is canonical."""
        number = {}
        assignment = tuple(number.setdefault(lab, len(number)) for lab in labels)
        if not number:
            raise ValueError("partitions need at least one state")
        return cls._canonical(assignment, len(number))

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @cached_property
    def assignment(self) -> tuple[int, ...]:
        out = [0] * self.n
        for k, block in enumerate(self.blocks):
            for s in block:
                out[s] = k
        return tuple(out)

    def block_of(self, state: int) -> int:
        return self.assignment[state]

    def is_identity(self) -> bool:
        return self.num_blocks == self.n

    def collector_bool(self, alphabet: ActionAlphabet) -> ActionMatrix:
        """n x N collector over the given alphabet (0-1 entries)."""
        return ActionMatrix.from_bits(alphabet, np.arange(self.num_blocks) == np.array(self.assignment)[:, None])

    def collector_real(self) -> np.ndarray:
        v = np.zeros((self.n, self.num_blocks))
        v[np.arange(self.n), self.assignment] = 1.0
        return v


def table(constant: tuple[str, object], *named: tuple[str, object]) -> Callable[[object], list]:
    """The table ``V -> [(name, X)]``: the ``V``-independent row ``constant``
    first, then ``(name, M @ V)`` for each named ``M``, in the order given.
    The matrices may be of either family, and ``V`` may be a stack."""
    return lambda v: [constant, *((name, m @ v) for name, m in named)]


def kinds(kind: str, rho, generators, closure: Callable, in_class: Callable, unit: bool) -> Callable[[object], list]:
    """The table ``V -> [(name, X)]`` of one bisimulation kind, each row
    stating ``VUX = X``, for either semiring.  A family reads it by giving
    ``rho``, the termination or reward column; ``generators``, the symbols
    and matrices of the visible (slow) and then the internal (fast) steps,
    which strong constrains each as it is (a plain chain gives its one
    ``Q``); ``closure(M)``, the closure ``Π`` of the internal steps, over
    which weak is strong; ``in_class(M, V)``, that closure kept inside the
    classes of ``V``, for branching; and ``unit``, whether the branching
    middle carries ``I``.  Over the action-set semiring ``I`` absorbs inert
    internal steps; over the reals ``VUV = V`` makes it neutral, so the
    middle is ``Π_V Qf V``.  Products that do not depend on the partition
    are formed once, here; weak's closed visible steps as ``Π (M Π)`` for
    the visible ``M``, so that a closure read through its factors (reward
    chains) is never formed as an array.  Over action sets the product is
    exact, so the order does not change a bit.
    """
    if kind == "strong":
        return table(("VUρ = ρ", rho), *((f"VU{a}V = {a}V", m) for a, m in generators))
    (a, visible), (s, internal) = generators
    if kind == "weak":
        pi = closure(internal)
        return table(("VUΠρ = Πρ", pi @ rho), ("VUΠV = ΠV", pi), (f"VUΠ{a}ΠV = Π{a}ΠV", pi @ (visible @ pi)))
    if kind != "branching":
        raise ValueError(f"unknown kind {kind!r}")
    # A space ends the subscript of Π_V, and of a symbol such as Qs.
    step, move = (f"Π_V {m}{' ' * (len(m) > 1)}" for m in (s, a))
    middle = f"(I + {step})V" if unit else f"{step}V"

    def branching(v) -> list:
        pi_v = in_class(internal, v)
        inert = pi_v @ (internal @ v)
        return [
            ("VUΠ_V ρ = Π_V ρ", pi_v @ rho),
            (f"VU{middle} = {middle}", v + inert if unit else inert),
            (f"VU{move}V = {move}V", pi_v @ (visible @ v)),
        ]

    return branching


def split_by_keys(p: Partition, keys: Sequence) -> Partition:
    """Refine ``p`` by grouping, inside each block, states with equal keys."""
    return Partition.from_assignment(list(zip(p.assignment, keys)))


def verdict(kind: str, rows, read: Callable) -> CheckReport:
    """The first ``VUX = X`` of ``rows`` that fails.  ``read``, a family's
    block-constancy kernel, takes ``X`` to its missed entries and a thunk
    that reports the witness."""
    for name, x in rows:
        missed, witness = read(x)
        if missed.any():
            return CheckReport(kind, False, name, witness())
        del missed, witness  # the witness holds the row's arrays: free them before the next row
    return CheckReport(kind, True)


def passes(rows, read: Callable) -> np.ndarray:
    """Whether every ``VUX = X`` of ``rows`` holds, per stacked collector,
    by the family kernel ``read`` of :func:`verdict`."""
    return ~np.any([read(x)[0].any(axis=(-2, -1)) for _, x in rows], axis=0)


def evaluate(model, v, kind: str, *, atol: float = DEFAULT_ATOL, distributor=None) -> tuple[CheckReport, list]:
    """Check ``v`` against one kind, under ``distributor`` if one is given;
    also return the evaluated equalities.  The model's family validates
    ``v`` and ``distributor``, builds the kind's table and reads it with
    its kernel, to ``atol`` over the reals and exactly over action sets."""
    from .family import family_of

    family = family_of(model)
    v = family.require_collector(model, v)
    u = None if distributor is None else family.require_distributor(v, distributor, atol)
    rows = family.conditions(model, kind)(v)
    return verdict(kind, rows, family.kernel(v, u, atol)), rows


def check(model, v, kind: str, *, atol: float = DEFAULT_ATOL, distributor=None) -> CheckReport:
    """Verdict of one kind on ``v``: the first equality of its table that fails."""
    return evaluate(model, v, kind, atol=atol, distributor=distributor)[0]


# ---------------------------------------------------------------------------
# Collector / distributor helpers
# ---------------------------------------------------------------------------


def require_bool_collector(v: ActionMatrix) -> None:
    ones = v.support()
    if not (
        v.alphabet.size and v.is_zero_one() and (ones.sum(axis=1) == 1).all() and ones.any(axis=0).all()
    ):
        raise ValueError("not a collector: need exactly one full entry per row and no empty column")


def require_real_collector(v: np.ndarray, *, stacked: bool = False) -> None:
    """A collector; with ``stacked``, also a stack of them on leading axes.

    Rows and columns are summed as products with a ones vector, all rows of
    a stack in one: NumPy reduces a short axis of a tall array row by row,
    and sums of 0-1 entries are exact in any order.
    """
    v = np.asarray(v, dtype=float)
    if not (
        (v.ndim == 2 or stacked and v.ndim > 2)
        and ((v == 0.0) | (v == 1.0)).all()
        and (np.dot(v.reshape(math.prod(v.shape[:-1]), v.shape[-1]), np.ones(v.shape[-1])) == 1.0).all()
        and (np.ones(v.shape[-2]) @ v >= 1.0).all()
    ):
        raise ValueError("not a collector: need exactly one unit entry per row and no empty column")


def canonical_distributor_real(v: np.ndarray) -> np.ndarray:
    """Row-normalized transpose: each class row averages its members.

    It is a distributor of every collector, so nothing is re-verified: the
    off-diagonal entries of ``UV`` are exact zeros, and each diagonal entry
    and row sum of ``U`` adds ``|B|`` copies of ``1/|B|``, within
    ``|B|·2⁻⁵³`` of 1.  A stack of collectors gets a stack of distributors.
    """
    v = np.asarray(v, dtype=float)
    require_real_collector(v, stacked=True)
    return np.swapaxes(v, -1, -2) / v.sum(axis=-2)[..., :, None]


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


def _tokens(lines):
    """The tokens of each line; '#' starts a comment."""
    return (raw.split("#", 1)[0].split() if "#" in raw else raw.split() for raw in lines)


def content_lines(text: str):
    """Token lists of non-empty lines, with 1-based line numbers."""
    return [(lineno, tokens) for lineno, tokens in enumerate(_tokens(text.splitlines()), start=1) if tokens]


def first_token(text: str) -> str | None:
    """First token of :func:`content_lines`, without tokenizing the rest."""
    return next((tokens[0] for tokens in _tokens(text.splitlines()) if tokens), None)


def read_edges(text: str, heads: int, fields: np.dtype):
    """The token lists of the first ``heads`` lines of :func:`content_lines`,
    and every later line read by NumPy's C reader into one structured array
    of dtype ``fields``, skipping blank and comment lines as that function
    does.  A fixed-width string field drops trailing NULs, so a text that
    holds a NUL is refused, and cuts longer tokens short, so such a field
    must be wider than every token it accepts; give an ``object`` field
    where no width bounds them.

    Raised, for the caller to read the text line by line: a
    :class:`ValueError` for a line with another number of fields, a field
    that does not convert, or a text that is not ASCII, since the C reader
    reads some non-ASCII tokens into numbers that ``int()`` refuses; and
    any warning of the C reader, as an error.  It warns on a file without
    edge lines, and some NumPy versions read ``1.0`` as an integer with only
    a warning.
    """
    lines = text.splitlines() if text.isascii() and "\0" not in text else []  # no header lines
    header = []
    for at, tokens in enumerate(_tokens(lines)):
        if tokens:
            header.append(tokens)
            if len(header) == heads:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    return header, np.loadtxt(lines[at + 1 :], fields, ndmin=1)
    raise ValueError  # too few header lines, or not ASCII, or a NUL


def _parse_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ModelFormatError(f"line {lineno}: {what} must be an integer, got {token!r}") from None


def parse_state(token: str, lineno: int, n: int) -> int:
    i = _parse_int(token, lineno, "state index")
    if not 0 <= i < n:
        raise ModelFormatError(f"line {lineno}: state {i} out of range 0..{n - 1}")
    return i


def parse_model_header(tokens: list[str], lineno: int, header: str) -> int:
    """State count from a model file's first line, ``<header> <n>``."""
    if tokens[0] != header or len(tokens) != 2:
        raise ModelFormatError(f"line {lineno}: expected '{header} <n>'")
    try:
        n = int(tokens[1])
    except ValueError:
        raise ModelFormatError(f"line {lineno}: state count must be an integer") from None
    if n < 1:
        raise ModelFormatError(f"line {lineno}: need at least one state")
    return n


def parse_partition(text: str) -> Partition:
    lines = content_lines(text)
    if not lines or lines[0][1][0] != "partition":
        raise ModelFormatError("partition files start with 'partition <n>'")
    lineno, header = lines[0]
    if len(header) != 2:
        raise ModelFormatError(f"line {lineno}: expected 'partition <n>'")
    n = _parse_int(header[1], lineno, "state count")
    blocks = [tuple(_parse_int(t, lineno, "state index") for t in tokens) for lineno, tokens in lines[1:]]
    try:
        return Partition(n, blocks)
    except ValueError as exc:
        raise ModelFormatError(f"invalid partition: {exc}") from exc


def format_partition(p: Partition) -> str:
    return f"partition {p.n}\n" + "".join(" ".join(map(str, block)) + "\n" for block in p.blocks)


# ---------------------------------------------------------------------------
# Coarsest-partition search
# ---------------------------------------------------------------------------


def _grow(n: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Every partition of ``n`` states into ``lo..hi`` blocks as a label row,
    with its block count, in no useful order.

    A row labels each state with its block, and blocks are numbered by their
    smallest state, so each label is at most one more than the largest before
    it.  Rows grow a state at a time: a state joins one of the row's blocks
    only while the states after it can still open the ``lo``-th block, and
    opens a new one while the row has fewer than ``hi``, so every row
    completes.
    """
    rows = np.zeros((1, n), np.int8)
    used = np.ones(1, np.intp)
    for s in range(1, n):
        join = used + (n - 1 - s) >= lo
        children = np.where(join, used, 0) + (used < hi)
        parent = np.repeat(np.arange(len(used)), children)
        label = np.arange(len(parent)) - (np.cumsum(children) - children)[parent]
        label = np.where(join[parent], label, used[parent])
        rows = rows[parent]
        rows[:, s] = label
        used = np.maximum(used[parent], label + 1)
    return rows, used


def _sorted_rows(n: int, lo: int, hi: int) -> np.ndarray:
    """The rows of :func:`_grow` in increasing ``(num_blocks, blocks)``.

    One ``lexsort`` orders them by block count, then by a key that lists the
    states block by block, as ``blocks`` does, each as ``state - n·block``.
    Where two partitions first differ, either both rows' states lie in one
    block and compare as states, or one row has moved on to the next block
    while the other's block goes on: the moved row's state then compares
    below the other's, as the shorter of two tuples with equal heads does.
    So comparing keys column by column compares ``blocks`` tuple by tuple.
    """
    rows, used = _grow(n, lo, hi)
    in_blocks = np.sort(rows * np.int16(n) + np.arange(n, dtype=np.int16), axis=1)  # n·block + state
    key = 2 * (in_blocks % n) - in_blocks
    return rows[np.lexsort((*key.T[::-1], used))]


def _block_count_pieces(n: int, k: int) -> Iterator[np.ndarray]:
    """The label rows of ``n`` states in ``k`` blocks, in order, in pieces.

    Up to ``ORACLE_BATCH`` rows are grown and sorted at once.  More are split
    on the first block, which ``blocks`` compares first: the first blocks
    come in order from the two-block rows, and each takes the sorted rows of
    the states outside it in ``k - 1`` blocks, built once per number of
    outside states.
    """
    if _partitions_by_block_count(n)[k - 1] <= ORACLE_BATCH:
        yield _sorted_rows(n, k, k)
        return
    outside_rows = {}
    for first in _sorted_rows(n, 2, 2):  # label 1 marks the states outside the first block
        outside = np.flatnonzero(first)
        m = len(outside)
        if m < k - 1:
            continue
        if m not in outside_rows:
            outside_rows[m] = np.concatenate(list(_block_count_pieces(m, k - 1)))
        rest = outside_rows[m]
        piece = np.zeros((len(rest), n), np.int8)
        piece[:, outside] = rest + 1
        yield piece


def _label_batches(n: int) -> Iterator[tuple[int, np.ndarray]]:
    """Every partition of ``n`` states as an ``int8`` label row, in the
    oracle's order: runs ``(k, rows)`` of rows with ``k`` blocks each, in
    increasing ``(num_blocks, blocks)`` within and across runs.

    The one-block row comes first, before any row is grown.  Consecutive
    block counts with at most ``ORACLE_BATCH`` partitions together are
    grown and sorted in one batch, so up to 9 states the rest of the
    lattice is one.  A larger block count comes from
    :func:`_block_count_pieces`, each piece a run.  Nothing is kept between
    calls.
    """
    counts = _partitions_by_block_count(n)
    yield 1, np.zeros((1, n), np.int8)
    k = 2
    while k <= n:
        hi = k
        while hi < n and sum(counts[k - 1 : hi + 1]) <= ORACLE_BATCH:
            hi += 1
        if counts[k - 1] <= ORACLE_BATCH:
            yield from zip(range(k, hi + 1), np.split(_sorted_rows(n, k, hi), np.cumsum(counts[k - 1 : hi - 1])))
        else:
            yield from ((k, piece) for piece in _block_count_pieces(n, k))
        k = hi + 1


def _stacks(n: int, by_rank: bool) -> Iterator[np.ndarray]:
    """The oracle's candidates in its order, in stacks of up to
    ``ORACLE_STACK`` consecutive rows across block counts.

    A stack closes when it is full, or at the end of a run of
    :func:`_label_batches` once it holds more rows than all earlier stacks
    (``by_rank``) or ``ORACLE_STACK`` times more (otherwise).  Either way
    the first stack is the one-block row alone, checked before the lattice
    is grown.  After it, a stack ``by_rank`` closes at the first run end
    where it outgrows the rows before it, so a search checks few rows past
    its answer's block count; any other stack fills up, so a search takes
    few stacks.
    """
    held, done = np.zeros((0, n), np.int8), 0
    for _, rows in _label_batches(n):
        held = np.concatenate((held, rows))
        while len(held) > min(done if by_rank else done * ORACLE_STACK, ORACLE_STACK - 1):
            stack, held = held[:ORACLE_STACK], held[ORACLE_STACK:]
            done += len(stack)
            yield stack
    if len(held):
        yield held


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of ``{0..n-1}``, coarsest first: in strictly increasing
    ``(num_blocks, blocks)`` order, built one at a time from the label rows
    of :func:`_label_batches`, which come a batch at a time."""
    for blocks, rows in _label_batches(n):
        for row in rows.tolist():
            yield Partition._canonical(tuple(row), blocks)


def refinement_fixpoint(n: int, signature_fn: Callable[[Partition], Sequence]) -> Partition:
    """Iterate block splitting from the one-block partition to a fixpoint.

    ``signature_fn`` may depend on the current partition (the branching
    closures do), so signatures are recomputed every round.  A partition of
    singletons cannot split, so it is returned without a confirming round.
    """
    part = Partition.single_block(n)
    while not part.is_identity():
        refined = split_by_keys(part, signature_fn(part))
        if refined == part:
            break
        part = refined
    return part


def _partitions_by_block_count(n: int) -> list[int]:
    """Stirling numbers of the second kind S(n, 1) .. S(n, n): how many
    partitions of ``n`` states have 1 .. n blocks."""
    row = [1]  # S(0, 0)
    for _ in range(n):  # S(m + 1, k) = k S(m, k) + S(m, k - 1)
        row = [k * a + b for k, (a, b) in enumerate(zip(row + [0], [0] + row))]
    return row[1:]


class Search:
    """Coarsest-partition search for one model and one kind.

    The model's family is looked up and the kind's table is built once,
    here; the checker, the refinement signatures and the exhaustive oracle
    all read that table.
    """

    def __init__(self, model, kind: str, *, atol: float = DEFAULT_ATOL):
        from .family import family_of

        self.model, self.kind, self.atol = model, kind, atol
        self.family = family_of(model)
        self.table = self.family.conditions(model, kind)
        self._last = None  # (partition, collector, rows) of the last signatures
        # Without a unique coarsest solution the refinement fixpoint need not
        # have the fewest blocks, so instances the oracle can afford use it.
        self.exhaustive = kind not in self.family.UNIQUE_COARSEST and model.num_states <= MAX_ORACLE_STATES

    def checker(self, model, p: Partition) -> CheckReport:
        """The verdict on ``p`` under the canonical distributor.  The table
        :meth:`signatures` evaluated on ``p`` in the last round is read here,
        and released, instead of being evaluated again."""
        if model is not self.model:
            raise ValueError("checker was built for another model")
        last, self._last = self._last, None
        v, rows = last[1:] if last is not None and last[0] is p else self._evaluate(p)
        return verdict(self.kind, rows, self.family.kernel(v, None, self.atol))

    def _evaluate(self, p: Partition) -> tuple:
        v = self.family.collector(self.model, p)
        return v, self.table(v)

    def signatures(self, p: Partition) -> list:
        self._last = None  # one table at a time
        v, rows = self._evaluate(p)
        self._last = p, v, rows
        return self.family.signature_keys(p, rows, self.atol)

    @cached_property
    def oracle(self) -> Partition:
        """Exhaustive search: the passing partition with the fewest blocks,
        ties broken by canonical form.

        The candidates are the label rows of :func:`_label_batches`, coarsest
        first, in the stacks of :func:`_stacks`: the one-block row alone,
        then up to ``ORACLE_STACK`` consecutive rows at a time across block
        counts.  Stacks fill up, except for the kinds in the family's
        ``STACKS_BY_RANK``, whose table costs by the candidate; theirs grow
        with the rows checked before them.  So the first that passes is the
        minimum over ``(num_blocks, blocks)``, and the cost is the rank of
        the answer, not Bell(n).  Each
        stack becomes one collector array with a leading stack axis, as wide
        as its widest candidate: a candidate with fewer blocks gets empty
        padded blocks, whose all-zero (or all-empty) columns of every ``X``
        are constant on every block.  The kind's table is evaluated on the
        stack once, and the family's block-constancy kernel decides every
        ``VUX = X`` of the stack from labels it finds once.  The answer, the
        first passing row, is the only :class:`Partition` built.  The tests
        hold it to a one-at-a-time search with :meth:`checker`.
        """
        n = self.model.num_states
        if n > MAX_ORACLE_STATES:
            raise ValueError(f"state bound exceeded: {n} > {MAX_ORACLE_STATES} (Bell number too large)")
        for stack in _stacks(n, self.kind in self.family.STACKS_BY_RANK):
            v = self.family.collectors(self.model, stack[..., None] == np.arange(stack.max() + 1))
            passed = passes(self.table(v), self.family.kernel(v, None, self.atol))
            if passed.any():
                return Partition.from_assignment(stack[passed.argmax()].tolist())
        raise ValueError("no partition passed the checker")

    def coarsest(self) -> Partition:
        """Coarsest partition whose collector passes the bisimulation check.

        Kinds in the family's ``UNIQUE_COARSEST`` use signature refinement.
        Branching on reward chains has no unique coarsest solution in general,
        so small instances fall back to the exhaustive lattice search; larger
        ones return the refinement fixpoint, which passes its own check but may
        not have the fewest blocks.  A fixpoint that fails its own check raises
        :class:`CheckFailed`.
        """
        if self.exhaustive:
            return self.oracle
        result = refinement_fixpoint(self.model.num_states, self.signatures)
        require_passed(self.checker(self.model, result))
        return result

