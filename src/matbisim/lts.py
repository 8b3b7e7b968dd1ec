"""Labeled transition systems with explicit termination, in matrix form.

A system is (initial indicator, visible transition matrix, internal 0-1
matrix, termination indicator).  Keeping the internal steps in their own
matrix keeps the whole algebra inside one alphabet.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .algebra import (
    DEFAULT_ATOL,
    TAU_LABEL,
    ActionAlphabet,
    ActionMatrix,
    block_labels,
    rt_closure,
)
from .partition import (
    ModelFormatError,
    Partition,
    Witness,
    check,
    content_lines,
    evaluate,
    kinds,
    parse_model_header,
    parse_state,
    read_edges,
    require_bool_collector,
    require_passed,
    verdict,
)

@dataclass(frozen=True)
class Lts:
    """Transition system of dimension ``n`` over a fixed visible alphabet."""

    alphabet: ActionAlphabet
    initial: ActionMatrix      # 1 x n, 0-1, exactly one nonzero entry
    visible: ActionMatrix      # n x n, action-set entries
    internal: ActionMatrix     # n x n, 0-1 (internal steps)
    terminating: ActionMatrix  # n x 1, 0-1

    def __post_init__(self):
        if self.alphabet.size == 0:
            raise ValueError("alphabet must contain at least one visible action")
        n = self.visible.rows
        for m in (self.initial, self.visible, self.internal, self.terminating):
            if m.alphabet != self.alphabet:
                raise ValueError("all matrices must share the system alphabet")
        if self.visible.shape != (n, n) or self.internal.shape != (n, n):
            raise ValueError("transition matrices must be square and agree in size")
        if self.initial.shape != (1, n):
            raise ValueError(f"initial vector must be 1 x {n}")
        if self.terminating.shape != (n, 1):
            raise ValueError(f"termination vector must be {n} x 1")
        for m, what in ((self.initial, "initial"), (self.internal, "internal"), (self.terminating, "termination")):
            if not m.is_zero_one():
                raise ValueError(f"{what} matrix must be 0-1")
        if np.count_nonzero(self.initial.support()) != 1:
            raise ValueError("initial vector must have exactly one nonzero entry")

    @property
    def num_states(self) -> int:
        return self.visible.rows

    @property
    def initial_state(self) -> int:
        return int(np.flatnonzero(self.initial.support())[0])


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


def parse_lts(text: str) -> Lts:
    """Parse the line-oriented system format.

    Header: ``lts <n>``, ``alphabet <a1> ...``, ``init <i>``,
    ``term <i1> ...`` (possibly empty), then one ``<src> <label> <dst>``
    per transition.  The label ``tau`` feeds the internal matrix; repeated
    transition lines are idempotent.  The header lines are split into
    tokens, and all edge lines are read at once by NumPy's C reader
    (:func:`~matbisim.partition.read_edges`); every state, headers
    included, is range-checked in one array.  Only a text that fails
    somewhere is read again line by line, which names its first bad line.
    So is a valid text without edge lines, one that is not ASCII or holds
    a NUL (in a comment), and one whose edge lines hold a state that the C
    reader refuses and ``int()`` reads, such as ``1_0``.
    """
    try:
        ((head, n), (alpha, *names), (init_kw, init), (term_kw, *term)), edges = read_edges(text, 4, _EDGE)
        n, alphabet = int(n), ActionAlphabet(tuple(names))
        states = np.concatenate([np.array([init, *term], dtype=np.intp), edges["src"], edges["dst"]])
        if (head, alpha, init_kw, term_kw) == ("lts", "alphabet", "init", "term") and names and 0 <= states.min() and states.max() < n:
            return _system(alphabet, n, states[0], states[1 : len(term) + 1], edges["label"].tolist(), edges["src"], edges["dst"])
    except (ValueError, KeyError, OverflowError, Warning):
        pass
    return _system(*_by_line(content_lines(text)))


#: The fields of an edge line, as :func:`~matbisim.partition.read_edges` reads them.
_EDGE = np.dtype([("src", np.intp), ("label", object), ("dst", np.intp)])


def _by_line(lines) -> tuple:
    """The parts of :func:`parse_lts` read a line at a time, to name the first bad line."""
    if len(lines) < 4:
        raise ModelFormatError("expected header lines: lts, alphabet, init, term")
    (ln0, h0), (ln1, h1), (ln2, h2), (ln3, h3) = lines[:4]
    n = parse_model_header(h0, ln0, "lts")
    if h1[0] != "alphabet":
        raise ModelFormatError(f"line {ln1}: expected 'alphabet <labels...>'")
    try:
        alphabet = ActionAlphabet(tuple(h1[1:]))
    except ValueError as exc:
        raise ModelFormatError(f"line {ln1}: {exc}") from exc
    if alphabet.size == 0:
        raise ModelFormatError(f"line {ln1}: alphabet must list at least one visible action")
    if h2[0] != "init" or len(h2) != 2:
        raise ModelFormatError(f"line {ln2}: expected 'init <state>'")
    if h3[0] != "term":
        raise ModelFormatError(f"line {ln3}: expected 'term <states...>'")

    init = parse_state(h2[1], ln2, n)
    term = [parse_state(t, ln3, n) for t in h3[1:]]
    src, labels, dst = [], [], []
    for lineno, tokens in lines[4:]:
        if len(tokens) != 3:
            raise ModelFormatError(f"line {lineno}: expected '<src> <label> <dst>'")
        src.append(parse_state(tokens[0], lineno, n))
        dst.append(parse_state(tokens[2], lineno, n))
        if tokens[1] not in alphabet and tokens[1] != TAU_LABEL:
            raise ModelFormatError(f"line {lineno}: unknown label {tokens[1]!r}")
        labels.append(tokens[1])
    return alphabet, n, init, term, labels, src, dst


def _system(alphabet: ActionAlphabet, n: int, init, term, labels, src, dst) -> Lts:
    """The system of parsed parts, without the checks of :meth:`Lts.__post_init__`: the parser made them."""
    plane = list(map({name: k for k, name in enumerate((*alphabet.names, TAU_LABEL))}.__getitem__, labels))  # before allocating
    planes = np.zeros((alphabet.size + 1, n, n), dtype=bool)  # tau's plane is the last
    planes[plane, src, dst] = True
    ends = np.zeros((2, n), dtype=bool)
    ends[0, init] = ends[1, term] = True
    lts, bits = object.__new__(Lts), partial(ActionMatrix.from_bits, alphabet)
    lts.__dict__.update(alphabet=alphabet, initial=bits(ends[:1]), terminating=bits(ends[1:].T))
    lts.__dict__.update(visible=ActionMatrix.from_planes(alphabet, planes[:-1]), internal=bits(planes[-1]))
    return lts


def format_lts(lts: Lts) -> str:
    """Canonical text form; parse/format round-trips exactly."""
    n = lts.num_states
    lines = [
        f"lts {n}",
        "alphabet " + " ".join(lts.alphabet.names),
        f"init {lts.initial_state}",
        ("term " + " ".join(str(i) for i in np.flatnonzero(lts.terminating.support()))).rstrip(),
    ]
    names = lts.alphabet.names + (TAU_LABEL,)
    # (n, n, k + 1) label flags per transition; the last one is tau
    cells = np.concatenate([lts.visible.planes, lts.internal.support()[None]]).transpose(1, 2, 0)
    for i, j, b in np.argwhere(cells).tolist():
        lines.append(f"{i} {names[b]} {j}")
    return "\n".join(lines) + "\n"


parse_model = parse_lts
format_model = format_lts


def read_distributor(path) -> None:
    """Refused: distributor files hold real matrices for reward chains, and
    a transition-system quotient takes the transpose of its collector."""
    raise ValueError("transition systems take no distributor file: the quotient uses the collector's transpose")


# ---------------------------------------------------------------------------
# Bisimulation checks
# ---------------------------------------------------------------------------


def require_collector(lts: Lts, v: ActionMatrix) -> ActionMatrix:
    if v.alphabet != lts.alphabet:
        raise ValueError("collector must share the system alphabet")
    if v.rows != lts.num_states:
        raise ValueError(f"collector has {v.rows} rows for a {lts.num_states}-state system")
    require_bool_collector(v)
    return v


def require_distributor(v: ActionMatrix, u: ActionMatrix, atol: float) -> ActionMatrix:
    """``u``, once it is a distributor of ``v``; entries are exact, so
    ``atol`` is not read."""
    if u.shape != (v.cols, v.rows):
        raise ValueError("distributor shape must be the collector's transpose shape")
    if u @ v != ActionMatrix.identity(v.alphabet, v.cols):
        raise ValueError("UV = I fails: not a distributor")
    if not u.planes.any(axis=2).all():
        raise ValueError("U1 = 1 fails: not a distributor")
    return u


def collector(lts: Lts, p: Partition) -> ActionMatrix:
    return p.collector_bool(lts.alphabet)


def collectors(lts: Lts, member: np.ndarray) -> ActionMatrix:
    """Stacked collectors: ``member[s, i, j]`` says whether state ``i`` is
    in block ``j`` of partition ``s``."""
    return ActionMatrix.from_bits(lts.alphabet, member)


def canonical_distributor(v: ActionMatrix) -> ActionMatrix:
    """The transpose, a distributor of every collector."""
    return v.transpose()


def kernel(v: ActionMatrix, u, atol: float):
    """The block-constancy kernel of ``V``, a collector or stack: for any
    distributor, ``VUX = X`` holds plane by plane exactly when the rows of
    ``X`` are constant on the blocks.  A miss is an entry where a row
    differs from that of its block's first member, so the verdict forms no
    product; entries are exact, so ``atol`` is not read.  Only a failing
    row forms ``VUX`` (``u`` None is the transpose), for its witness: the
    first entry where ``VUX`` and ``X`` differ.
    """
    _, rep = block_labels(v.planes)

    def read(x: ActionMatrix):
        planes = np.broadcast_to(x.planes, (*v.planes.shape[:-1], x.cols))
        rows = planes.reshape(-1, x.cols)
        missed = (rows[rep] != rows).reshape(planes.shape).any(axis=-3)
        return missed, lambda: _witness(v @ ((v.transpose() if u is None else u) @ x), x)

    return read


def _witness(lhs: ActionMatrix, rhs: ActionMatrix) -> Witness:
    """The first entry where the sides differ on some label plane, with the
    label sets of both sides there."""
    i, j = np.argwhere((lhs.planes != rhs.planes).any(axis=-3))[0].tolist()
    return Witness(i, j, *(lhs.alphabet.labels_of(m.mask_at(i, j)) for m in (lhs, rhs)))


def conditions(lts: Lts, kind: str) -> Callable[[ActionMatrix], list]:
    """The kind's table :func:`~matbisim.partition.kinds` read over the
    action-set semiring: ``A`` and ``S`` closed by :func:`rt_closure`, in
    class by :func:`branching_closure`, with ``I`` in the branching middle.
    Entries are exact, so the table takes no tolerance.

    Weak is strong over the closed system :func:`tau_closure`, so its middle
    saturates the closed visible part (``VUΠAΠV = ΠAΠV``).  The paper's
    Definition 3, read literally, has ``VUΠAΠV = ΠV`` there; that is not
    weak bisimulation.
    """
    return kinds(kind, lts.terminating, (("A", lts.visible), ("S", lts.internal)), rt_closure, branching_closure, True)


def branching_closure(internal: ActionMatrix, v: ActionMatrix) -> ActionMatrix:
    """Closure of the internal steps restricted to same-class pairs."""
    return rt_closure(internal.meet(v @ v.transpose()))


# ---------------------------------------------------------------------------
# Quotients and closure
# ---------------------------------------------------------------------------


def lump(
    lts: Lts,
    v: ActionMatrix,
    kind: str,
    *,
    atol: float = DEFAULT_ATOL,
    distributor: ActionMatrix | None = None,
) -> Lts:
    """Quotient ``U M V`` of every matrix ``M`` by a bisimulation of the kind.

    The strong quotient is independent of the distributor; the weak and
    branching ones depend on it, and the default is the transpose.
    """
    require_passed(check(lts, v, kind, distributor=distributor))
    u = canonical_distributor(v) if distributor is None else distributor
    return Lts(
        alphabet=lts.alphabet,
        initial=lts.initial @ v,
        visible=u @ lts.visible @ v,
        internal=u @ lts.internal @ v,
        terminating=u @ lts.terminating,
    )


def tau_closure(lts: Lts) -> Lts:
    """System closed under internal-step sequences.

    Visible part becomes ΠAΠ, the internal part the closure Π itself, and
    termination is pulled back along internal paths.
    """
    pi = rt_closure(lts.internal)
    return Lts(
        alphabet=lts.alphabet,
        initial=lts.initial,
        visible=pi @ lts.visible @ pi,
        internal=pi,
        terminating=pi @ lts.terminating,
    )


# ---------------------------------------------------------------------------
# Commutation verifiers
# ---------------------------------------------------------------------------


def verify_weak_commutation(lts: Lts, v: ActionMatrix) -> bool:
    """Closing internal steps and lumping commute for weak bisimulations.

    Compares the closure of the lumped system against the lump of the
    closed system on the visible part and on termination, which are the
    weak rows ``ΠAΠV`` and ``Πρ``.  Requires the weak check to pass.
    """
    require_collector(lts, v)
    u = v.transpose()
    rows = conditions(lts, "weak")(v)
    require_passed(verdict("weak", rows, kernel(v, u, DEFAULT_ATOL)))
    (_, closed_term), _, (_, closed_visible_v) = rows
    lumped_closure = rt_closure(u @ lts.internal @ v)
    visible_ok = lumped_closure @ (u @ lts.visible @ v) @ lumped_closure == u @ closed_visible_v
    term_ok = lumped_closure @ (u @ lts.terminating) == u @ closed_term
    return visible_ok and term_ok


def verify_branching_commutation(lts: Lts, v: ActionMatrix) -> bool:
    """Same commutation statement for branching bisimulations.

    The three equalities compare the branching-lumped system against the
    quotient of the class-restricted closure.  Requires the branching
    check to pass.
    """
    require_passed(check(lts, v, "branching"))
    u = v.transpose()
    n = lts.num_states
    eye_n = ActionMatrix.identity(lts.alphabet, n)
    eye_cls = ActionMatrix.identity(lts.alphabet, v.cols)
    keep = rt_closure(lts.internal).meet(v @ u)  # S* restricted to class pairs
    internal_ok = eye_cls + u @ lts.internal @ v == u @ (keep @ (eye_n + lts.internal)) @ v
    visible_ok = u @ lts.visible @ v == u @ (keep @ lts.visible) @ v
    term_ok = u @ lts.terminating == u @ (keep @ lts.terminating)
    return internal_ok and visible_ok and term_ok


# ---------------------------------------------------------------------------
# Hooks for the coarsest-partition engine
# ---------------------------------------------------------------------------


#: Kinds whose coarsest bisimulation is unique, so refinement finds it.
UNIQUE_COARSEST = ("strong", "weak", "branching")

#: Kinds whose oracle stacks grow with the rank of the answer: none, since
#: every table here costs by the stack (:func:`~matbisim.partition._stacks`).
STACKS_BY_RANK = ()


def signature_keys(p: Partition, rows, atol: float = DEFAULT_ATOL) -> list:
    """Per-state rows of every evaluated ``X``.  Blocks split where these
    differ, so the fixpoint's rows are block-constant: the check
    (:func:`kernel`) then passes."""
    xs = np.concatenate([x.planes for _, x in rows], axis=2)
    return [state.tobytes() for state in xs.transpose(1, 0, 2)]
