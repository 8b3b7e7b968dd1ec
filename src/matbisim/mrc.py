"""Markov reward chains, with and without fast (instantaneous-in-the-limit)
transitions: transient analysis, ordinary/weak/branching lumping checks,
ergodic projections, limit chains, and the distributor certification
needed for weak lumping.

The ergodic projection ``Π`` of the fast generator is kept as its factors
``Π = A E``, the trapping probabilities ``A`` and the stationary vectors
``E`` of the recurrent classes, and is read through ``@``
(:class:`~matbisim.algebra.Factored`); the ``n x n`` array is built only on
request.  So the weak rows are ``A (E ρ)``, ``A (E V)`` and ``A (G (E V))``
for the class generator ``G = E Qs A``, and no weak chain command forms
``Π`` or ``ΠQsΠ``.  The weak distributor candidate ``(UΠV)^-1 UΠ`` is kept
as its class part ``C = ((UA)(EV))^-1 (UA)``, with ``W = C E``, so weak
``lump`` and ``diagram`` form neither ``W`` nor its products over all
states.

Transient analysis takes the matrix exponential by scaling and squaring
with the [13/13] Padé approximant (Higham 2005).  The limit chain is
exponentiated on its recurrent classes: its transition matrix
``Π e^(ΠQsΠ t)`` is ``A e^(G t) E``.  Tested against a 50-digit reference
for rates 0.3–3 and horizons up to 1e6: every entry within 1e-9 absolute.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .algebra import (
    DEFAULT_ATOL,
    PADE_THETA,
    Factored,
    block_labels,
    max_abs_diff,
    pade_quotient,
    real_matrix,
    solve,
)
from .partition import (
    ModelFormatError,
    Partition,
    Witness,
    canonical_distributor_real as canonical_distributor,
    check,
    content_lines,
    evaluate,
    kinds,
    parse_model_header,
    parse_state,
    read_edges,
    require_passed,
    require_real_collector,
    verdict,
)

#: Rates at or below this are structurally absent for the ergodic projection.
EDGE_TOL = 1e-12

class GeneratorError(ValueError):
    """Matrix is not a rate generator (negative rate or bad row sum)."""


class DistributorError(ValueError):
    """A distributor candidate failed its certification."""


def validate_generator(q, *, atol: float = DEFAULT_ATOL) -> np.ndarray:
    """Check generator shape and return a cleaned copy.

    A row may sum to at most ``atol`` times its rate sum (at least 1) away
    from zero.  Off-diagonal entries in ``[-atol, 0)`` are clamped to zero
    and the diagonal is recomputed as the negated off-diagonal row sum, so
    the result has exact zero row sums.  A read-only generator that this
    would return bit for bit, as a chain stores its own, is returned as it
    is (:func:`_is_validated`), so that no ``n x n`` copy is made.
    """
    if _is_validated(q, atol):
        return q
    q = real_matrix(q)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise GeneratorError("generator must be square")
    off = q.copy()
    np.fill_diagonal(off, 0.0)
    bad = np.argwhere(off < -atol)
    if bad.size:
        i, j = map(int, bad[0])
        raise GeneratorError(f"row {i}: negative rate {float(q[i, j])!r} to state {j}")
    # The bound scales with the rates: a diagonal written as minus their sum
    # misses it by a rounding of that sum.
    with np.errstate(over="ignore"):  # a sum past the largest float is refused below
        sums = q.sum(axis=1)
        bound = atol * np.maximum(1.0, off.sum(axis=1))
    bad = np.flatnonzero(~(np.abs(sums) <= bound) | (bound == math.inf))
    if bad.size:
        i = int(bad[0])
        raise GeneratorError(f"row {i}: row sum {float(sums[i])!r} exceeds tolerance")
    off = np.clip(off, 0.0, None)
    np.fill_diagonal(off, -off.sum(axis=1))
    return off


def _is_validated(q, atol: float) -> bool:
    """Whether ``q`` is a read-only C-ordered float array that
    :func:`validate_generator` would return unchanged and without refusing
    it: no off-diagonal entry below ``+0.0``, each diagonal entry the
    negated sum of the others, and each row sum finite and within the bound.

    The off-diagonal sums are taken on copies of about 2^15 entries at a
    time, their diagonal zeroed; NumPy sums each row on its own, so they
    have the bits of the sums over the whole matrix.
    """
    if type(q) is not np.ndarray or q.dtype != float or q.ndim != 2 or q.flags.writeable or not q.flags.c_contiguous:
        return False
    n = len(q)
    if q.shape[1] != n:
        return False
    step = max(1, 2**15 // n)
    offsum = np.empty(n)
    with np.errstate(all="ignore"):  # a sum that is not finite is refused below
        for i in range(0, n, step):
            off = q[i : i + step].copy()
            off.flat[i :: n + 1] = 0.0  # entry (r, i + r) of the block
            if np.signbit(off).any():
                return False
            offsum[i : i + step] = off.sum(axis=1)
        bound = atol * np.maximum(1.0, offsum)
        sums = np.abs(q.sum(axis=1))
    return bool(np.isfinite(bound).all() and (sums <= bound).all() and q.diagonal().tobytes() == (-offsum).tobytes())


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _freeze_chain(chain, sigma, rho, **generators: np.ndarray) -> None:
    """Validate the initial and reward vectors against the validated
    generators and store all of them read-only."""
    n = next(iter(generators.values())).shape[0]
    sigma = real_matrix(sigma).reshape(-1)
    if sigma.shape != (n,):
        raise ValueError(f"initial vector must have {n} entries")
    if np.any(sigma < -DEFAULT_ATOL):
        raise ValueError("negative initial probability")
    sigma = np.clip(sigma, 0.0, None)
    if abs(sigma.sum() - 1.0) > DEFAULT_ATOL:
        raise ValueError(f"initial probabilities sum to {float(sigma.sum())!r}, not 1")
    rho = real_matrix(rho).reshape(-1)
    if rho.shape != (n,):
        raise ValueError(f"reward vector must have {n} entries")
    for name, arr in {"sigma": sigma, **generators, "rho": rho}.items():
        object.__setattr__(chain, name, _freeze(arr))


def _trusted(cls, sigma, rho, **generators: np.ndarray):
    """A chain of ``cls`` whose generators are stored without
    :func:`validate_generator`, because it would return them unchanged."""
    chain = object.__new__(cls)
    _freeze_chain(chain, sigma, rho, **generators)
    return chain


@dataclass(frozen=True, eq=False)
class Mrc:
    """Reward chain (initial distribution, generator, reward rates)."""

    sigma: np.ndarray
    q: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        _freeze_chain(self, self.sigma, self.rho, q=validate_generator(self.q))

    @property
    def num_states(self) -> int:
        return self.q.shape[0]


@dataclass(frozen=True, eq=False)
class MrcFast:
    """Reward chain with separate slow and fast generators.

    The full rate matrix is the slow part plus the fast part scaled by a
    speed parameter that is taken to infinity in the limit analyses.
    """

    sigma: np.ndarray
    qs: np.ndarray
    qf: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        qs = validate_generator(self.qs)
        qf = validate_generator(self.qf)
        if qf.shape != qs.shape:
            raise ValueError("slow and fast generators must agree in size")
        _freeze_chain(self, self.sigma, self.rho, qs=qs, qf=qf)

    @property
    def num_states(self) -> int:
        return self.qs.shape[0]


def as_fast_chain(model: Mrc | MrcFast) -> MrcFast:
    if isinstance(model, MrcFast):
        return model
    n = model.num_states
    qf = np.zeros((n, n))
    np.fill_diagonal(qf, -0.0)  # as validate_generator writes a zero generator
    return _trusted(MrcFast, model.sigma, model.rho, qs=model.q, qf=qf)


# ---------------------------------------------------------------------------
# Transient analysis
# ---------------------------------------------------------------------------


def transition_matrices(q, times: Sequence[float], *, atol: float = DEFAULT_ATOL, require_generator: bool = True):
    """Yield ``e^(q t)`` for each ``t`` of ``times``, in order.

    Fresh, ``q t`` is scaled by ``2^-s`` until its 1-norm is at most
    ``PADE_THETA``, and the Padé quotient of the scaled step
    (:func:`~matbisim.algebra.pade_quotient`: six products and a solve) is
    squared ``s`` times.  A time ``t = m t'``, an exact integer multiple of
    a smaller time ``t'`` of the call, is ``(e^(q t'))^m`` by binary
    powering (squarings first) wherever its ``⌊log₂ m⌋ + popcount(m) − 1``
    products are fewer than those fresh, the solve counted as one; ``t'``
    is the largest such time.  So ``0.1, 1, 10, …`` take one quotient and
    four products per later time, and ``2^d`` times a fresh time that
    squares at least once has the bits it would have alone.  Times are
    reached in ascending order, and a matrix is held only while a later
    time is powered from it or it waits for its turn; do not write to a
    yielded one.  With ``require_generator`` off any square matrix is
    accepted (the class generators of :func:`verify_limit_commutation`).

    Rows of ``e^(qt)`` sum to 1 where those of ``q`` sum to 0; a time at
    which the products lose more than ``atol`` of that is refused in its
    turn, as is a time that is negative or not finite.
    """
    if require_generator:
        q = validate_generator(q, atol=atol)
    else:
        q = real_matrix(q)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("matrix must be square")
    width = float(np.max(np.sum(np.abs(q), axis=0))) if q.size else 0.0
    fresh = {t: math.ceil(math.log2(max(t * width / PADE_THETA, 1.0))) for t in times if 0.0 < t * width < math.inf}
    ordered, base = sorted(fresh), {}  # base: powered time -> the time and multiple it is powered from
    for i, t in enumerate(ordered):
        cost = 7 + fresh[t]  # of a fresh evaluation: six products, the solve and the squarings
        for b in reversed(ordered[:i]):
            # the ratio may be inf, so it is bounded by the cost before it is rounded
            if t / b < 2**cost and (m := round(t / b)) * b == t and m.bit_length() + m.bit_count() - 2 < cost:
                base[t] = b, m
                break
    uses = Counter(t for t in times if t in fresh) + Counter(b for b, _ in base.values())
    held, ahead = {}, iter(ordered)  # held: time -> e^(qt), while it has uses to come
    for t in times:
        if not math.isfinite(t):
            raise ValueError("time must be finite")
        if t < 0:
            raise ValueError("time must be nonnegative")
        if t in fresh:
            with np.errstate(over="ignore", invalid="ignore"):  # for a generator, refused below
                while t not in held:  # a time with no base is its scaled step's quotient to the power 2^s
                    s = next(ahead)
                    b, m = base.get(s, (None, 2 ** fresh[s]))
                    held[s] = np.linalg.matrix_power(pade_quotient(q * (s / m)) if b is None else held[b], m)
                    uses[b] -= 1
            r = held[t]
            uses[t] -= 1
            held = {s: p for s, p in held.items() if uses[s]}
        else:
            r = np.eye(q.shape[0])
        lost = t in fresh and np.max(np.abs(q.sum(axis=1))) <= atol and not np.max(np.abs(r.sum(axis=1) - 1.0)) <= atol
        if lost or not math.isfinite(t * width):
            raise ValueError(f"time {t:g} is too long for these rates")
        yield r
        del r  # the caller may free it before the next time is computed


def transition_matrix(q, t: float, *, atol: float = DEFAULT_ATOL, require_generator: bool = True) -> np.ndarray:
    """``e^(q t)``: :func:`transition_matrices` at one horizon."""
    return next(transition_matrices(q, (t,), atol=atol, require_generator=require_generator))


def total_reward(model: Mrc, t: float, *, atol: float = DEFAULT_ATOL) -> float:
    """Expected reward rate at time ``t``: initial @ P(t) @ rewards."""
    return float(model.sigma @ transition_matrix(model.q, t, atol=atol) @ model.rho)


# ---------------------------------------------------------------------------
# Check helpers
# ---------------------------------------------------------------------------


def require_collector(model, v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    require_real_collector(v)
    if v.shape[0] != model.num_states:
        raise ValueError(f"collector has {v.shape[0]} rows for a {model.num_states}-state chain")
    return v


def require_distributor(v: np.ndarray, u, atol: float) -> np.ndarray:
    """``u`` as a real matrix, once it is a distributor of ``v`` to ``atol``."""
    u = real_matrix(u)
    if u.shape != (v.shape[1], v.shape[0]):
        raise ValueError("distributor shape must be collector transposed")
    if max_abs_diff(u @ v, np.eye(v.shape[1])) > atol:
        raise ValueError("UV = I fails: not a distributor")
    if max_abs_diff(u.sum(axis=1), np.ones(len(u))) > atol:
        raise ValueError("U1 = 1 fails: not a distributor")
    return u


def collector(model: Mrc | MrcFast, p: Partition) -> np.ndarray:
    return p.collector_real()


def collectors(model: Mrc | MrcFast, member: np.ndarray) -> np.ndarray:
    """Stacked collectors: ``member[s, i, j]`` says whether state ``i`` is
    in block ``j`` of partition ``s``."""
    return member.astype(float)


def kernel(v: np.ndarray, u, atol: float):
    """The block-constancy kernel of ``V``, a collector or a stack of them.

    Each row less that of its block's first member ``r`` is ``d = X − X[r]``,
    and ``VUX − X = VUd − d`` since ``VUVR = VR``: exact zeros on equal rows
    of any size.  ``VUd`` is the block mean of ``d``, by label for the
    canonical ``U`` (``u`` None), else ``Ud`` read by label.  A miss is
    ``|VUd − d| > atol``; the witness reads ``VUX`` there as ``VUd + X[r]``.
    """
    lead = v.shape[:-1]
    block, rep = block_labels(v)
    size = np.maximum(np.bincount(block), 1)[:, None]  # a padded block of an oracle stack is empty: its mean is 0, not 0/0

    def read(x):
        c = x.shape[-1]
        x = np.broadcast_to(x, (*lead, c)).reshape(-1, c)
        d = x - x[rep]
        if u is None:  # one bin per block and column
            mean = np.bincount((block[:, None] * c + np.arange(c)).ravel(), d.ravel()).reshape(-1, c) / size
        else:
            mean = (u @ d.reshape(*lead, c)).reshape(-1, c)
        missed = np.abs(mean[block] - d) > atol

        def witness():
            i, j = np.argwhere(missed)[0].tolist()
            lhs, rhs = float(mean[block[i], j] + x[rep[i], j]), float(x[i, j])
            return Witness(i, j, lhs, rhs, abs(lhs - rhs))

        return missed.reshape(*lead, c), witness

    return read


def conditions(model: Mrc | MrcFast, kind: str) -> Callable[[np.ndarray], list]:
    """The kind's table :func:`~matbisim.partition.kinds` read over the
    reals: ``Qs`` and ``Qf`` (a plain chain's ``Q`` for strong), closed by
    ``Π = proj(Qf)``, in class by the projection of :func:`adapt_diagonal`,
    with no ``I`` in the branching middle.  The generators were validated
    when the chain was built, so the table takes no tolerance.  ``Π`` is
    the :class:`ErgodicProjection` itself, so the weak rows are read through
    its factors and ``ΠQsΠ`` is ``A G E``; it need not be a generator: weak's
    closed matrices make no chain.
    """
    return _conditions(model, kind, ergodic_projection)


def _conditions(model: Mrc | MrcFast, kind: str, closure: Callable) -> Callable[[np.ndarray], list]:
    """:func:`conditions` with ``Π`` taken from ``closure(Qf)``."""
    fast = as_fast_chain(model)
    generators = (("Q", model.q),) if kind == "strong" and isinstance(model, Mrc) else (("Qs", fast.qs), ("Qf", fast.qf))
    return kinds(kind, fast.rho.reshape(-1, 1), generators, closure, _in_class, False)


def _in_class(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``Π_V``, the projection of ``q`` restricted to the classes of ``v``,
    for a collector or a stack of them.  Candidates of an oracle stack often
    share their restriction, so each distinct one is projected once and its
    ``Π`` given to every member that has it: the same generator gives the
    same bits."""
    keep = _restrict(q, v)
    if keep.ndim == 2:  # one collector: nothing to share, and no copy of a large generator
        return project_stack(keep)[0]
    # Each member as one bytes scalar: NumPy sorts those about ten times
    # faster than it sorts rows with np.unique(axis=0).
    members = keep.reshape(-1, q.size).view(np.dtype((np.void, keep.itemsize * q.size)))
    distinct, which = np.unique(members, return_inverse=True)
    return project_stack(distinct.view(keep.dtype).reshape(-1, *q.shape))[0][which.reshape(keep.shape[:-2])]


# ---------------------------------------------------------------------------
# Ergodic projection
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ErgodicProjection(Factored):
    """Long-run occupation operator ``Π`` of a fast generator, kept as its
    factors ``Π = A E`` and read through ``@`` (:class:`~matbisim.algebra.Factored`),
    with the validated ``generator`` it projects.

    ``pi`` is stochastic and idempotent, annihilates the generator on both
    sides, and its rows mix the stationary vectors of the recurrent classes
    according to trapping probabilities: ``pi = trapping @ stationary``,
    where the ``n x k`` ``trapping`` has indicator rows on recurrent states
    and trapping probabilities on transient ones, row ``k`` of the
    ``k x n`` ``stationary`` is the stationary vector of class ``k``, and
    ``stationary @ trapping`` is the identity.  ``E`` is stored as each
    state's class (-1 on transient states) and stationary weight; ``pi``,
    ``stationary``, ``recurrent_classes`` and ``transient`` are built when
    first read.
    """

    generator: np.ndarray | None = None

    @cached_property
    def pi(self) -> np.ndarray:
        # Entry (i, j) is A[i, class of j]·μ_j: the one nonzero term of (AE)[i, j], so exact.
        return _freeze(self.times_e(self.trapping))

    @cached_property
    def stationary(self) -> np.ndarray:
        return _freeze(self.times_e(np.eye(self.trapping.shape[1])))

    @cached_property
    def recurrent_classes(self) -> tuple[tuple[int, ...], ...]:
        grouped, starts, _ = self.grouped
        return tuple(tuple(c.tolist()) for c in np.split(grouped, starts[1:]))

    @cached_property
    def transient(self) -> tuple[int, ...]:
        return tuple(self.grouped[2].tolist())


def ergodic_projection(qf, *, atol: float = DEFAULT_ATOL) -> ErgodicProjection:
    """Structural long-run projection of a generator.

    ``qf`` is validated here, to ``atol``, by :func:`validate_generator`,
    which raises :class:`GeneratorError` on a stack or a non-generator.

    Recurrent classes are the strongly connected components without outgoing
    rates; each gets a stationary vector, transient states get trapping
    probabilities, and rows are assembled from those pieces.  Rates at or
    below ``EDGE_TOL`` do not count as edges, which keeps numerically-zero
    generators (such as certified lumped fast parts) structurally still.

    This is the stack-of-one case of :func:`project_stack`, which takes
    validated generators ``(..., n, n)`` and returns every ``Π`` in one
    pass, each bitwise equal to this function's ``pi`` of that member.
    Only the factors are computed here.
    """
    q = validate_generator(qf, atol=atol)
    return ErgodicProjection(*map(_freeze, _factors(q)), generator=_freeze(q))


def _strong_components(src, dst, size: int) -> tuple[int, np.ndarray]:
    """Strongly connected components of the digraph on nodes ``0..size-1``
    with edges ``src[e] -> dst[e]``: their number and each node's component.

    Tarjan's algorithm, iterative over CSR arrays, so it takes time linear in
    nodes and edges whatever the graph's shape.  A node with no in-edge or
    no out-edge is a component of its own and is labelled in NumPy first;
    the depth-first search visits only the others, which keeps a stack of
    mostly absorbing members cheap.
    """
    out_degree = np.bincount(src, minlength=size)
    ends = np.cumsum(out_degree).tolist()
    starts = [0, *ends[:-1]]
    heads = dst[np.argsort(src, kind="stable")].tolist()
    alone = (out_degree == 0) | (np.bincount(dst, minlength=size) == 0)
    count = int(np.count_nonzero(alone))
    labels = np.full(size, -1)
    labels[alone] = np.arange(count)
    labels = labels.tolist()
    # Visit order, from 2 up; 0 is unvisited and 1 is labelled in NumPy.  A
    # visited node with no label yet is on the stack.
    index = alone.astype(int).tolist()
    low = [0] * size
    stack = []
    visited = 1
    for root in np.flatnonzero(~alone).tolist():
        if index[root]:
            continue
        visited += 1
        index[root] = low[root] = visited
        stack.append(root)
        calls = [[root, starts[root]]]  # each frame: node, next edge to follow
        while calls:
            frame = calls[-1]
            v, e = frame
            end = ends[v]
            while e < end:
                w = heads[e]
                e += 1
                if not index[w]:
                    break
                if labels[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                calls.pop()
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        labels[w] = count
                        if w == v:
                            break
                    count += 1
                if calls:
                    u = calls[-1][0]
                    low[u] = min(low[u], low[v])
                continue
            frame[1] = e
            visited += 1
            index[w] = low[w] = visited
            stack.append(w)
            calls.append([w, starts[w]])
    return count, np.array(labels, dtype=np.intp)


def project_stack(q: np.ndarray):
    """Ergodic projections of a stack of generators ``(..., n, n)``: ``Π``
    and the factors of :func:`_factors`."""
    trapping, classes, weights = _factors(q)
    # Entry (i, j) is A[i, class of j]·μ_j: the one nonzero term of (AE)[i, j], so exact.
    pi = np.take_along_axis(trapping, np.maximum(classes, 0)[..., None, :], axis=-1) * weights[..., None, :]
    return pi, trapping, classes, weights


def _factors(q: np.ndarray):
    """The factors ``Π = A E`` of the ergodic projections of a stack of
    generators ``(..., n, n)``.

    Every member must be a generator as :func:`validate_generator` returns
    it; nothing is checked here.  A chain's own generators, and their
    restrictions by :func:`_restrict`, are.

    Returns, per member, the trapping probabilities ``A`` as ``(..., n, k)``,
    where ``k`` is the most recurrent classes of any member and a member
    with fewer has zero columns; each state's class ``(..., n)``, -1 on
    transient states, with the classes of a member numbered by their
    smallest state; and each state's stationary weight ``(..., n)``, 0 on
    transient states.

    The stack's strongly connected components are found in one graph, where
    state ``i`` of member ``s`` is node ``s·n + i``, by one pass of Tarjan's
    algorithm (:func:`_strong_components`), linear in the states and fast
    edges of the stack.
    Singleton recurrent classes have weight 1.  Each larger class and each
    member's transient block is solved on its own submatrix by
    :func:`~matbisim.algebra.solve`, so every member gets the bits it would
    get alone: a transient block with nothing off its diagonal, as where
    every transient state steps straight into a class, is divided by its
    diagonal, and every other system goes to LAPACK.  These systems are
    nonsingular for a generator; an exactly singular one raises
    ``np.linalg.LinAlgError``.
    """
    lead, n = q.shape[:-2], q.shape[-1]
    stack = math.prod(lead)
    size = stack * n
    q = q.reshape(stack, n, n)
    adj = q > EDGE_TOL
    diagonal = np.arange(n)
    adj[:, diagonal, diagonal] = False
    src, col = np.nonzero(adj.reshape(size, n))
    dst = src - src % n + col
    n_comp, labels = _strong_components(src, dst, size)
    has_exit = np.zeros(n_comp, dtype=bool)
    has_exit[labels[src[labels[src] != labels[dst]]]] = True
    # A stable sort lists each component's states in increasing order.
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels, minlength=n_comp)
    starts = np.cumsum(sizes) - sizes
    recurrent = np.flatnonzero(~has_exit)
    recurrent = recurrent[np.argsort(order[starts[recurrent]])]  # by smallest state
    member = order[starts[recurrent]] // n
    counts = np.bincount(member, minlength=stack)
    class_of = np.full(n_comp, -1)
    class_of[recurrent] = np.arange(len(recurrent)) - (np.cumsum(counts) - counts)[member]
    classes = class_of[labels]

    weights = ((sizes[labels] == 1) & (classes >= 0)).astype(float)
    for c in recurrent[sizes[recurrent] > 1].tolist():
        states = order[starts[c] : starts[c] + sizes[c]]
        s, idx = divmod(states, n)
        a = q[s[0]][np.ix_(idx, idx)].T
        a[-1, :] = 1.0
        b = np.zeros(len(idx))
        b[-1] = 1.0
        mu = np.clip(solve(a, b), 0.0, None)
        mu /= mu.sum()
        weights[states] = mu

    width = int(counts.max(initial=0))
    trapping = np.zeros((stack, n, width))
    rec = np.flatnonzero(classes >= 0)
    trapping[rec // n, rec % n, classes[rec]] = 1.0
    transient = np.flatnonzero(classes < 0)
    owners, first = np.unique(transient // n, return_index=True)
    for s, tr in zip(owners.tolist(), np.split(transient % n, first[1:])):
        k = counts[s]
        trap = solve(q[s][np.ix_(tr, tr)], -(q[s][tr] @ trapping[s, :, :k]))
        trap = np.clip(trap, 0.0, None)
        trap /= trap.sum(axis=1, keepdims=True)
        trapping[s, tr, :k] = trap

    return trapping.reshape(*lead, n, width), classes.reshape(*lead, n), weights.reshape(*lead, n)


# ---------------------------------------------------------------------------
# Weak bisimulation and the certified distributor
# ---------------------------------------------------------------------------


def tau_distributor_residuals(model: Mrc | MrcFast, v, w, *, atol: float = DEFAULT_ATOL) -> dict[str, float]:
    """Residuals of the four distributor-certification identities.

    An invalid lumped fast generator shows up as an infinite residual on
    the projection identity.
    """
    fast = as_fast_chain(model)
    v = require_collector(fast, v)
    return _residuals(fast, v, w, ergodic_projection(fast.qf), atol)[0]


def _residuals(fast: MrcFast, v: np.ndarray, w, proj: ErgodicProjection, atol: float) -> tuple[dict[str, float], np.ndarray, Factored, ErgodicProjection | None]:
    """The residuals of the supplied ``w``, or of the candidate
    ``(UΠV)^-1 UΠ`` when it is None, given ``Π = A E``; also that
    distributor, as ``W = C E`` by ``C`` and the factors that give ``E``,
    and the projection of ``WQfV``, which holds ``WQfV`` validated, or None
    when it is not a generator.

    The candidate is kept as its class part ``C = ((UA)(EV))^-1 (UA)``
    (blocks x classes) over ``E`` of ``Π`` (``f`` is ``proj``), refused
    when ``(UA)(EV)`` is exactly singular; a near-singular one misses
    ``WV = I``.  A supplied ``W`` is ``C`` itself, over the factors of the
    identity, where each state is its own class.  So ``W x = C (E x)``,
    ``x W = (x C) E`` and ``W x V = C ((E x) V)``: the candidate's ``W`` is
    never formed, and no product runs over its ``n`` columns.

    ``ΠVW − ΠVWΠ`` is ``A (R − RAE)`` for ``R = (EV) W``, and its largest
    entry is that of ``R − RAE``: each row of ``A`` is a convex combination
    of unit rows, and each class has a unit row.  ``RA`` is ``(EV)(WA)``,
    and ``WΠV`` is ``(WA)(EV)``.  ``W1`` is read as ``WV1``, the row sums
    of ``WV``, since ``V1 = 1``.
    """
    ev, f = proj.e(v), proj
    if w is None:
        ua = canonical_distributor(v) @ proj.trapping
        try:
            c = solve(ua @ ev, ua)
        except np.linalg.LinAlgError as exc:
            raise DistributorError(
                "class-level projection UΠV is singular to tolerance; supply an external distributor"
            ) from exc
    else:
        # E = I: each state is its own class, of weight 1; A is never read
        c, f = real_matrix(w), Factored(None, np.arange(len(v)), np.ones(len(v)))
        if c.shape != (v.shape[1], v.shape[0]):
            raise ValueError("distributor shape must be collector transposed")
    wa, wv = c @ f.e(proj.trapping), c @ f.e(v)
    out = {
        "W1 = 1": max_abs_diff(wv.sum(axis=1), np.ones(len(wv))),
        "WV = I": max_abs_diff(wv, np.eye(len(wv))),
        "ΠVW = ΠVWΠ": max_abs_diff(f.times_e(ev @ c), proj.times_e(ev @ wa)),
    }
    try:
        hat = ergodic_projection(c @ (f.e(fast.qf) @ v), atol=atol)
        out["proj(WQfV) = WΠV"] = max_abs_diff(hat.pi, wa @ ev)
    except GeneratorError:
        hat = None
        out["proj(WQfV) = WΠV"] = math.inf
    return out, c, f, hat


def _certified(
    model: Mrc | MrcFast, v, w, atol: float
) -> tuple[MrcFast, np.ndarray, np.ndarray, Factored, ErgodicProjection, ErgodicProjection]:
    """Check weak, take the supplied ``w`` or the candidate ``(UΠV)^-1 UΠ``
    (:func:`_residuals`), and certify it.

    Returns the fast chain, the collector, the distributor as ``C`` and the
    factors of ``E``, the projection of ``Qf`` and that of ``WQfV``; each
    generator is validated and projected once.
    """
    fast = as_fast_chain(model)
    v = require_collector(fast, v)
    proj = ergodic_projection(fast.qf)
    require_passed(verdict("weak", _conditions(fast, "weak", lambda _: proj)(v), kernel(v, None, atol)))
    residuals, c, f, hat = _residuals(fast, v, w, proj, atol)
    name, worst = max(residuals.items(), key=lambda kv: kv[1])
    if worst > atol:
        raise DistributorError(f"{'candidate' if f is proj else 'supplied'} distributor failed certification: {name} residual {worst:g}")
    return fast, v, c, f, proj, hat


def default_tau_distributor(model: Mrc | MrcFast, v, atol: float = DEFAULT_ATOL) -> np.ndarray:
    """Distributor candidate ``(UΠV)^-1 UΠ`` with mandatory certification,
    as the dense ``W = C E`` of its class part ``C`` (:func:`_certified`).

    Requires a passing weak check.  Raises :class:`DistributorError` when
    the class-level projection ``UΠV`` is exactly singular, or refused by
    its residuals: when any certification identity misses.  Callers may then
    supply an external distributor instead.
    """
    c, f = _certified(model, v, None, atol)[2:4]
    return f.times_e(c)


def lump(
    model: Mrc | MrcFast, v, kind: str, *, atol: float = DEFAULT_ATOL, distributor=None
) -> Mrc | MrcFast:
    """Quotient chain of a lumping of the kind.

    Ordinary (``"strong"``) lumping does not depend on the distributor.
    Weak lumping takes ``distributor`` or the candidate ``(UΠV)^-1 UΠ`` and
    certifies it.  The candidate's quotient is read through its class part:
    ``W Qs V = C ((E Qs) V)``, and ``W Qf V`` likewise.  No branching
    quotient is defined for reward chains.
    """
    if kind == "branching":
        raise ValueError("no branching quotient is defined for reward chains")
    if kind == "weak":
        fast, v, c, f, _, hat = _certified(model, v, distributor, atol)
        try:
            qs_hat = validate_generator(c @ (f.e(fast.qs) @ v), atol=atol)
        except GeneratorError as exc:
            raise DistributorError(f"lumped generator invalid: {exc}") from exc
        return _trusted(MrcFast, fast.sigma @ v, c @ f.e(fast.rho[:, None]), qs=qs_hat, qf=hat.generator)
    require_passed(check(model, v, kind, atol=atol, distributor=distributor))
    v = real_matrix(v)
    u = canonical_distributor(v) if distributor is None else real_matrix(distributor)
    if isinstance(model, MrcFast):
        return MrcFast(model.sigma @ v, u @ model.qs @ v, u @ model.qf @ v, u @ model.rho)
    return Mrc(model.sigma @ v, u @ model.q @ v, u @ model.rho)


# ---------------------------------------------------------------------------
# Limit chain
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LimitChain:
    """Discontinuous chain reached when fast transitions become instant.

    ``transition(t)`` equals the projection at ``t = 0`` (not the identity),
    which is the discontinuity.  ``generator`` is the ``k x k`` class-level
    generator ``G = E Qs A`` of the projection's factors ``Π = A E``; since
    ``ΠQsΠ = A G E`` and ``E A = I``, ``Π e^(ΠQsΠ t) = A e^(G t) E``.
    """

    generator: np.ndarray
    projection: ErgodicProjection

    def transition(self, t: float, *, atol: float = DEFAULT_ATOL) -> np.ndarray:
        return next(self.transitions((t,), atol=atol))

    def transitions(self, times: Sequence[float], *, atol: float = DEFAULT_ATOL):
        """:meth:`transition` at each of ``times``, as :func:`transition_matrices`
        yields them, each ``A e^(G t) E`` read through the factors: the rows
        of ``e^(G t)`` copied onto the states with a class and only the
        others multiplied, then each column scaled by its state's weight."""
        proj = self.projection
        return map(lambda p: proj.times_e(proj.a(p)), transition_matrices(self.generator, times, atol=atol, require_generator=False))


def limit_chain(model: Mrc | MrcFast, *, atol: float = DEFAULT_ATOL) -> LimitChain:
    """Limit of the chain as the fast-transition speed goes to infinity.

    The smoothed slow part has zero row sums but is a generator only after
    aggregation onto the recurrent classes; that class-level generator is
    validated here and kept.
    """
    fast = as_fast_chain(model)
    return _limit_chain(fast, ergodic_projection(fast.qf), atol)


def _limit_chain(fast: MrcFast, proj: ErgodicProjection, atol: float) -> LimitChain:
    g = proj.e(fast.qs) @ proj.trapping  # as in the weak table's (E Qs) A
    try:
        validate_generator(g, atol=max(atol, 1e-12) * max(1, fast.num_states))
    except GeneratorError as exc:
        raise GeneratorError(f"limit generator restricted to recurrent classes is invalid: {exc}") from exc
    return LimitChain(_freeze(g), proj)


def verify_limit_commutation(
    model: Mrc | MrcFast,
    v,
    w=None,
    times: Sequence[float] = (0.0, 0.5, 1.0, 2.0),
    *,
    atol: float = DEFAULT_ATOL,
    tolerance: float | None = None,
) -> bool:
    """Taking the fast-speed limit and lumping commute.

    Compares, at each sample time, the limit transition matrix of the
    lumped chain, ``Π̂ e^(Π̂Q̂sΠ̂ t)``, against the lumped limit transition
    matrix of the original chain, ``W Π e^(ΠQsΠ t) V``.  Both are read on
    classes, as :class:`LimitChain` reads a limit: the first as
    ``Â e^(Ĝ t) Ê`` through the factors ``Π̂ = Â Ê`` of the lumped fast
    part and ``Ĝ = Ê Q̂s Â``, with ``Q̂s = W Qs V`` read through the
    candidate's class part; the second as ``(WA) e^(G t) (EV)``.  No ``n x
    n`` product is formed.  Each side's times come from one
    :func:`transition_matrices`, which powers the default times from 0.5:
    one Padé quotient per side.  Requires a passing weak check and a
    certified distributor.
    """
    tol = 10.0 * atol if tolerance is None else tolerance
    fast, v, c, f, proj, hat = _certified(model, v, w, atol)
    lumped = LimitChain(hat.e(c @ (f.e(fast.qs) @ v)) @ hat.trapping, hat).transitions(times, atol=atol)
    limit = transition_matrices(_limit_chain(fast, proj, atol).generator, times, atol=atol, require_generator=False)
    wa, ev = c @ f.e(proj.trapping), proj.e(v)
    del c, f, proj  # only these products of them are read below: free them before the exponentials
    # zip pulls the limit side first, so that no lumped Â p̂ Ê is held through the limit side's Padé quotient
    return all(max_abs_diff(p_hat, wa @ p @ ev) <= tol for p, p_hat in zip(limit, lumped))


# ---------------------------------------------------------------------------
# Branching bisimulation
# ---------------------------------------------------------------------------


def adapt_diagonal(qf, v) -> np.ndarray:
    """Restrict fast rates to same-class pairs, repairing the diagonal.

    Cross-class off-diagonal rates are zeroed and each diagonal entry is
    recomputed as the negated sum of the retained rates of its row, the
    minimal change making the restriction a generator again.  A stack of
    collectors gives a stack of restrictions.
    """
    q = validate_generator(qf)
    v = np.asarray(v, dtype=float)
    require_real_collector(v, stacked=True)
    if v.shape[-2] != q.shape[0]:
        raise ValueError("collector rows must match generator size")
    return _restrict(q, v)


def _restrict(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """:func:`adapt_diagonal` of ``q``, a validated generator, by ``v``, a
    collector or stack of collectors that fits it."""
    keep = q * (v @ np.swapaxes(v, -1, -2))
    diagonal = np.arange(q.shape[0])
    keep[..., diagonal, diagonal] = 0.0
    keep[..., diagonal, diagonal] = -keep.sum(axis=-1)
    return keep


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------


def _number(token: str, lineno: int, what: str) -> float:
    try:
        x = float(token)
    except ValueError:
        raise ModelFormatError(f"line {lineno}: {what} must be a number, got {token!r}") from None
    if not math.isfinite(x):
        raise ModelFormatError(f"line {lineno}: {what} must be finite")
    return x


def parse_mrc(text: str) -> Mrc | MrcFast:
    """Parse the line-oriented chain format.

    Header: ``mrc <n>``, ``init <i>:<p> ...``, ``reward <r0> ... <r_n-1>``,
    then ``rate <src> <dst> <value>`` (slow) and ``fast <src> <dst> <value>``
    lines.  Diagonals are derived; self-rates are rejected; parallel rate
    lines accumulate.  Without any ``fast`` line the result is a plain chain.
    The text is read as :func:`~matbisim.lts.parse_lts` reads it: the
    header lines are split into tokens and the edge lines read at once by
    NumPy's C reader, the states and the reals are checked at once, and
    only a text that fails is read again line by line, to name its first
    bad line.  So is a valid text without edge lines, one that is not
    ASCII or holds a NUL (in a comment), and one whose edge lines hold a
    number that the C reader refuses and ``int()`` or ``float()`` reads,
    such as ``1_0``.
    """
    try:
        ((head, n), (init_kw, *init), (reward_kw, *reward)), edges = read_edges(text, 3, _EDGE)
        at, colons, probs = zip(*(token.partition(":") for token in init))
        n, k = int(n), len(at)
        start, src, dst, value = np.array(at, dtype=np.intp), edges["src"], edges["dst"], edges["value"]
        states = np.concatenate([start, src, dst])
        reals = np.concatenate([np.array([*reward, *probs], dtype=float), value])  # the rewards, then what must be nonnegative
        fast = edges["kind"] == "fast"
        valid = (head, init_kw, reward_kw, len(reward), {*colons}) == ("mrc", "init", "reward", n, {":"}) and (fast | (edges["kind"] == "rate")).all()
        valid = valid and 0 <= states.min() and states.max() < n and np.bincount(start).max() == 1 and (src != dst).all()
        if valid and np.isfinite(reals).all() and (reals[n:] >= 0).all():
            sigma = np.zeros(n)
            sigma[start] = reals[n : n + k]
            chain, finite = _chain(n, sigma, reals[:n], fast, src, dst, value)
            if finite.all():  # and the chain held the init sum to DEFAULT_ATOL
                return chain
    except (ValueError, OverflowError, Warning):
        pass
    return _by_line(content_lines(text))


#: The fields of an edge line, as :func:`~matbisim.partition.read_edges` reads
#: them; ``rate`` and ``fast`` fit in the kind's five characters with one to spare.
_EDGE = np.dtype([("kind", "U5"), ("src", np.intp), ("dst", np.intp), ("value", float)])


def _by_line(lines) -> Mrc | MrcFast:
    """:func:`parse_mrc` a line at a time, to name the first bad line."""
    if len(lines) < 3:
        raise ModelFormatError("expected header lines: mrc, init, reward")
    (ln0, h0), (ln1, h1), (ln2, h2) = lines[:3]
    n = parse_model_header(h0, ln0, "mrc")

    if h1[0] != "init" or len(h1) < 2:
        raise ModelFormatError(f"line {ln1}: expected 'init <state>:<probability> ...'")
    sigma = np.zeros(n)
    seen: set[int] = set()
    for token in h1[1:]:
        if ":" not in token:
            raise ModelFormatError(f"line {ln1}: expected '<state>:<probability>', got {token!r}")
        idx_tok, p_tok = token.split(":", 1)
        i = parse_state(idx_tok, ln1, n)
        if i in seen:
            raise ModelFormatError(f"line {ln1}: state {i} appears twice in init")
        seen.add(i)
        p = _number(p_tok, ln1, "probability")
        if p < 0:
            raise ModelFormatError(f"line {ln1}: negative probability {p!r}")
        sigma[i] = p
    # held to the chain constructor's tolerance, and named by its line
    if abs(sigma.sum() - 1.0) > DEFAULT_ATOL:
        raise ModelFormatError(f"line {ln1}: initial probabilities sum to {float(sigma.sum())!r}, not 1")

    if h2[0] != "reward" or len(h2) != n + 1:
        raise ModelFormatError(f"line {ln2}: expected 'reward' with {n} values")
    rho = np.array([_number(tok, ln2, "reward") for tok in h2[1:]])

    edges = lines[3:]
    fast, src, dst, value = [], [], [], []
    for lineno, tokens in edges:
        if len(tokens) != 4 or tokens[0] not in ("rate", "fast"):
            raise ModelFormatError(f"line {lineno}: expected 'rate|fast <src> <dst> <value>'")
        fast.append(tokens[0] == "fast")
        src.append(parse_state(tokens[1], lineno, n))
        dst.append(parse_state(tokens[2], lineno, n))
        if src[-1] == dst[-1]:
            raise ModelFormatError(f"line {lineno}: self-rates are not allowed")
        value.append(_number(tokens[3], lineno, "rate"))
        if value[-1] < 0:
            raise ModelFormatError(f"line {lineno}: negative rate {value[-1]!r}")
    chain, finite = _chain(n, sigma, rho, np.array(fast, dtype=bool), *np.array([src, dst], dtype=np.intp), np.array(value))
    if not finite.all():
        raise _overflow(edges, *~finite)
    return chain


def _chain(n: int, sigma, rho, fast, src, dst, value) -> tuple:
    """The chain of parsed columns, and whether the rates out of each state
    of ``Qs`` and of ``Qf`` sum to a float; parallel lines add in file order."""
    cells = src * n + dst  # without weights NumPy counts in integers
    qs, qf = (np.bincount(cells[kind], value[kind], n * n).reshape(n, n).astype(float, copy=False) for kind in (~fast, fast))
    with np.errstate(over="ignore"):  # the caller refuses a row that passes the largest float
        for q in (qs, qf):
            np.fill_diagonal(q, -q.sum(axis=1))
    # validate_generator would return these unchanged: nonnegative rates, each diagonal minus their sum
    chain = _trusted(MrcFast, sigma, rho, qs=qs, qf=qf) if fast.any() else _trusted(Mrc, sigma, rho, q=qs)
    return chain, np.isfinite([qs.diagonal(), qf.diagonal()])


def _overflow(edges, slow_rows, fast_rows) -> ModelFormatError:
    """The error for rows whose rates sum past the largest float.  It names
    the line at which such a row's total, summed in file order, overflows,
    or the last line of such a row if only NumPy's summation order does."""
    totals: dict[tuple[str, int], float] = {}
    for lineno, (kind, src, _, value) in edges:
        state = int(src)
        if (fast_rows if kind == "fast" else slow_rows)[state]:
            found = lineno, state
            totals[kind, state] = total = totals.get((kind, state), 0.0) + float(value)
            if total == math.inf:
                break
    lineno, state = found
    return ModelFormatError(f"line {lineno}: rates out of state {state} sum to more than the largest float")


def format_mrc(model: Mrc | MrcFast) -> str:
    """Canonical text form; parse/format round-trips exactly."""
    fast = isinstance(model, MrcFast)
    n = model.num_states
    lines = [f"mrc {n}"]
    lines.append("init " + " ".join(f"{i}:{float(model.sigma[i])!r}" for i in range(n) if model.sigma[i] != 0.0))
    lines.append("reward " + " ".join(repr(float(r)) for r in model.rho))
    for name, q in (("rate", model.qs if fast else model.q),) + ((("fast", model.qf),) if fast else ()):
        rate = q != 0.0
        np.fill_diagonal(rate, False)
        src, dst = np.nonzero(rate)  # row-major
        lines += [f"{name} {i} {j} {x!r}" for i, j, x in zip(src.tolist(), dst.tolist(), q[src, dst].tolist())]
    return "\n".join(lines) + "\n"


def parse_distributor(text: str) -> np.ndarray:
    """Parse an explicit distributor: ``dist <N> <n>`` plus N rows of n reals."""
    lines = content_lines(text)
    if not lines or lines[0][1][0] != "dist":
        raise ModelFormatError("distributor files start with 'dist <N> <n>'")
    ln0, header = lines[0]
    if len(header) != 3:
        raise ModelFormatError(f"line {ln0}: expected 'dist <N> <n>'")
    try:
        big_n, n = int(header[1]), int(header[2])
    except ValueError:
        raise ModelFormatError(f"line {ln0}: dimensions must be integers") from None
    if min(big_n, n) < 1:
        raise ModelFormatError(f"line {ln0}: dimensions must be at least 1")
    if len(lines) - 1 != big_n:
        raise ModelFormatError(f"expected {big_n} rows, found {len(lines) - 1}")
    rows = []
    for lineno, tokens in lines[1:]:
        if len(tokens) != n:
            raise ModelFormatError(f"line {lineno}: expected {n} values")
        rows.append([_number(t, lineno, "value") for t in tokens])
    return real_matrix(rows)


parse_model = parse_mrc
format_model = format_mrc


def read_distributor(path) -> np.ndarray:
    return parse_distributor(path.read_text())


# ---------------------------------------------------------------------------
# Hooks for the coarsest-partition engine
# ---------------------------------------------------------------------------


def _cut_column(group: np.ndarray, x: np.ndarray, atol: float) -> np.ndarray:
    """Refine ``group`` by one column so that every group spreads at most
    ``atol`` in ``x``.

    States are sorted by (group, value).  A group is cut at every gap above
    ``atol``; a run that still spreads more than ``atol`` is cut greedily
    from its minimum.  Returns new group ids numbered from 0.
    """
    order = np.lexsort((x, group))
    xs = x[order]
    cut = np.empty(len(xs), dtype=bool)
    cut[0] = True
    cut[1:] = (np.diff(group[order]) != 0) | (np.diff(xs) > atol)
    starts = np.flatnonzero(cut)
    ends = np.append(starts[1:], len(xs))
    wide = xs[ends - 1] - xs[starts] > atol
    for start, end in zip(starts[wide].tolist(), ends[wide].tolist()):
        pos = start
        while pos < end:
            nxt = pos + int(np.searchsorted(xs[pos:end], xs[pos] + atol, side="right"))
            while xs[nxt - 1] - xs[pos] > atol:  # the sum above may round up
                nxt -= 1
            if nxt < end:
                cut[nxt] = True
            pos = nxt
    out = np.empty_like(group)
    out[order] = np.cumsum(cut) - 1
    return out


def _cluster_keys(p: Partition, rows: np.ndarray, atol: float) -> list:
    """Per-state keys splitting each block into groups that spread at most
    ``atol`` in every column of ``rows``.

    Columns are cut one after another (:func:`_cut_column`).  Only those
    where some row lies at least ``atol / 4`` from its block's first row are
    read: a column that spreads more than ``atol`` on a block, even by a
    rounding of its spread, is among them, and the others spread at most
    ``atol / 2`` and cut nothing.  Row groups farther apart than ``atol``
    are never merged, and a chain of within-tolerance steps is cut, so every
    row of a stable block lies within ``atol`` of the block mean.
    """
    group = np.array(p.assignment)
    far = rows[np.array([block[0] for block in p.blocks])[group]]
    far -= rows
    for col in np.flatnonzero((np.abs(far, out=far) >= atol / 4).any(axis=0)).tolist():
        group = _cut_column(group, rows[:, col], atol)
    return group.tolist()


#: Kinds whose coarsest lumping is unique, so refinement finds it.
UNIQUE_COARSEST = ("strong", "weak")

#: Kinds whose table costs by the candidate, not by the stack: branching
#: projects each distinct restriction of an oracle stack on its own
#: (:func:`_in_class`), so the oracle grows their stacks with the rank of
#: the answer instead of filling them (:func:`~matbisim.partition._stacks`).
STACKS_BY_RANK = ("branching",)


def signature_keys(p: Partition, rows, atol: float = DEFAULT_ATOL) -> list:
    """Per-state rows of every evaluated ``X``, clustered to tolerance inside
    each block, so that every row of a stable block lies within ``atol`` of
    its block mean, which the check (:func:`kernel`) compares."""
    return _cluster_keys(p, np.hstack([x for _, x in rows]), atol)
