"""References that the tests hold the program to.  They sit beside the
relational references of ``test_relational_*.py``, not in ``src/``: nothing
in the program calls them, and a reference should not live in the code it
checks.  Each imports from ``matbisim`` only what builds its inputs."""

import numpy as np

from matbisim.algebra import PIVOT_RTOL, SingularMatrixError, rt_closure
from matbisim.partition import MAX_ORACLE_STATES, CheckReport, Witness, enumerate_partitions

#: Bell numbers B(0)..B(12): how many partitions the oracle may check.
BELL = (1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597)


def brute_force_coarsest(model, checker):
    """The exhaustive oracle one candidate at a time: the first partition,
    coarsest first, that ``checker(model, partition)`` passes, so the one
    with the fewest blocks, ties broken by canonical form."""
    n = model.num_states
    if n > MAX_ORACLE_STATES:
        raise ValueError(f"state bound exceeded: {n} > {MAX_ORACLE_STATES} (Bell number too large)")
    for p in enumerate_partitions(n):
        if checker(model, p).passed:
            return p
    raise ValueError("no partition passed the checker")


def check_strong_relational(lts, v):
    """Strong check of a transition system through the relation
    ``R = V Vᵀ``: ``Rρ ≤ ρ``, ``RA ≤ AR`` and ``RS ≤ SR``.  The witness is
    an entry in the left side and not in the right."""
    r = v @ v.transpose()
    conditions = (
        ("Rρ ≤ ρ", r @ lts.terminating, lts.terminating),
        ("RA ≤ AR", r @ lts.visible, lts.visible @ r),
        ("RS ≤ SR", r @ lts.internal, lts.internal @ r),
    )
    for name, lhs, rhs in conditions:
        if not lhs <= rhs:
            i, j = np.argwhere((lhs.planes > rhs.planes).any(axis=0))[0].tolist()
            labels = (m.alphabet.labels_of(m.mask_at(i, j)) for m in (lhs, rhs))
            return CheckReport("strong-relational", False, name, Witness(i, j, *labels))
    return CheckReport("strong-relational", True)


def verify_closure_identities(lts, v):
    """``VᵀΠV = (VᵀSV)*`` and ``ΠVVᵀ = ΠVVᵀΠ`` for ``Π = S*``; both hold
    whenever the weak check passes.  ``VᵀΠV ≤ (VᵀSV)*`` holds for every
    collector, since ``VVᵀ ≥ I``; the reverse needs ``VUΠV = ΠV``, as the
    class-level closure may connect classes that no internal path does."""
    u = v.transpose()
    pi = rt_closure(lts.internal)
    pvv = pi @ v @ u
    return u @ pi @ v == rt_closure(u @ lts.internal @ v) and pvv == pvv @ pi


def textbook_solve(a, b):
    """Gaussian elimination with partial pivoting as a plain loop, the
    textbook loop that :func:`matbisim.algebra.solve_linear` names: every
    step takes the first largest entry of its column as the pivot and
    updates every row below it, zero multipliers included, and every row is
    substituted by a dot product.  A pivot smaller than ``PIVOT_RTOL``
    times the largest initial magnitude of its column is refused."""
    m = np.array(a, dtype=float)
    rhs = np.array(b, dtype=float)
    n = m.shape[0]
    vector = rhs.ndim == 1
    rhs = rhs.reshape(n, -1)
    scale = np.max(np.abs(m), axis=0)
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(m[i, k]))
        if scale[k] == 0.0 or abs(m[p, k]) < PIVOT_RTOL * scale[k]:
            raise SingularMatrixError(f"pivot for column {k} below threshold")
        m[[k, p]], rhs[[k, p]] = m[[p, k]], rhs[[p, k]]
        for i in range(k + 1, n):
            factor = m[i, k] / m[k, k]
            m[i, k:] -= factor * m[k, k:]
            rhs[i] -= factor * rhs[k]
    x = np.empty_like(rhs)
    for k in reversed(range(n)):
        x[k] = (rhs[k] - m[k, k + 1 :] @ x[k + 1 :]) / m[k, k]
    return x[:, 0] if vector else x
