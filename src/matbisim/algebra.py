"""Matrix algebra over an action-set semiring, plus real-matrix helpers.

Boolean side: matrix entries are subsets of a fixed label alphabet, stored
as label planes, one boolean array per label.  Addition is entrywise union,
multiplication is the union-of-intersections product (per label, a boolean
matrix product, all labels in one batched real product), and ``<=`` is
entrywise inclusion.  Matrices whose entries are only the empty or the full
set play the role of 0-1 matrices (collectors, internal-step matrices,
indicator vectors); all their planes are equal.  Bit masks (bit ``l`` for
label ``l``) remain the exchange format for single entries and for
``ActionMatrix.data``.

Real side: plain numpy arrays, a finiteness-checking constructor, a
small pivoted solver with a deterministic singularity threshold, and the
[13/13] Padé approximant of the matrix exponential.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

DEFAULT_ATOL = 1e-9

#: Relative pivot threshold of :func:`solve_linear`.
PIVOT_RTOL = 1e-12

#: Largest 1-norm at which the [13/13] Padé approximant of the exponential
#: meets double precision in backward error (Higham 2005, Table 2.3).
PADE_THETA = 5.371920351148152

#: Coefficients b_0 .. b_13 of the [13/13] Padé approximant.
_PADE_13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)

#: Reserved label for internal steps; never part of an alphabet.
TAU_LABEL = "tau"


class MatrixShapeError(ValueError):
    """Operand dimensions (or alphabets) do not line up."""


class SingularMatrixError(ValueError):
    """Elimination met a pivot below the singularity threshold."""


@dataclass(frozen=True)
class ActionAlphabet:
    """Ordered set of visible action labels.

    The internal-step label ``"tau"`` is reserved and may never appear here;
    internal steps live in a separate 0-1 matrix.
    """

    names: tuple[str, ...]

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate action labels")
        for name in names:
            if not name:
                raise ValueError("empty action label")
            if name == TAU_LABEL:
                raise ValueError(f"label {TAU_LABEL!r} is reserved for internal steps")

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    @property
    def size(self) -> int:
        return len(self.names)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.names)) - 1

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"unknown action label {label!r}") from None

    def mask_of(self, labels: Iterable[str]) -> int:
        mask = 0
        for label in labels:
            mask |= 1 << self.index(label)
        return mask

    def labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(n for i, n in enumerate(self.names) if mask >> i & 1)


def format_entry(alphabet: ActionAlphabet, mask: int) -> str:
    """Render one matrix entry: 0, 1, or a braced label set."""
    if mask == 0:
        return "0"
    if mask == alphabet.full_mask:
        return "1"
    return "{" + ",".join(alphabet.labels_of(mask)) + "}"


class ActionMatrix:
    """Rectangular matrix with action-set entries, stored as label planes.

    ``planes`` is a read-only ``(k, rows, cols)`` boolean array, one plane per
    label of the alphabet: ``planes[l, i, j]`` says whether label ``l`` is in
    entry ``(i, j)``.  The semiring operations are entrywise array operations
    on the planes, and the product is one batched matrix product of all
    planes.  ``data`` is a derived view: one bit mask per entry, bit ``l``
    for label ``l``, as a tuple of row tuples.  Values are immutable; every
    operation returns a fresh matrix.

    A stack of matrices of one shape is one value whose planes carry leading
    stack axes, ``(..., k, rows, cols)``: shapes, products, sums, meets,
    transposes, supports and :func:`rt_closure` read the last axes and
    broadcast over the rest, so a stack combines with a single matrix.  Entry
    access (``data``, ``mask_at``, printing) reads single matrices only.
    """

    __slots__ = ("alphabet", "planes")

    def __init__(self, alphabet: ActionAlphabet, data: Sequence[Sequence[int]]):
        rows = tuple(tuple(row) for row in data)
        if not rows or not rows[0]:
            raise MatrixShapeError("matrices must have at least one row and column")
        width = len(rows[0])
        full = alphabet.full_mask
        for row in rows:
            if len(row) != width:
                raise MatrixShapeError("ragged rows")
            for mask in row:
                if not 0 <= mask <= full:
                    raise ValueError("entry mask out of range for alphabet")
        masks = np.array(rows, dtype=object)
        planes = np.array([(masks >> label) & 1 for label in range(alphabet.size)], dtype=bool)
        self._init(alphabet, planes.reshape(alphabet.size, len(rows), width))

    def _init(self, alphabet: ActionAlphabet, planes: np.ndarray) -> None:
        planes.flags.writeable = False
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "planes", planes)

    def __setattr__(self, name, value):
        raise AttributeError("ActionMatrix is immutable")

    def __reduce__(self):
        return ActionMatrix, (self.alphabet, self.data)

    # -- constructors -------------------------------------------------

    @classmethod
    def _wrap(cls, alphabet: ActionAlphabet, planes: np.ndarray) -> "ActionMatrix":
        """Adopt a fresh boolean array of the right shape without checks."""
        m = object.__new__(cls)
        m._init(alphabet, planes)
        return m

    @classmethod
    def from_planes(cls, alphabet: ActionAlphabet, planes) -> "ActionMatrix":
        """Build from a ``(k, rows, cols)`` array of label planes (copied)."""
        planes = np.array(planes, dtype=bool)
        if planes.ndim != 3 or planes.shape[0] != alphabet.size:
            raise MatrixShapeError(f"need one plane per label, got shape {planes.shape}")
        if not planes.shape[1] or not planes.shape[2]:
            raise MatrixShapeError("matrices must have at least one row and column")
        return cls._wrap(alphabet, planes)

    @classmethod
    def zeros(cls, alphabet: ActionAlphabet, rows: int, cols: int) -> "ActionMatrix":
        return cls.from_bits(alphabet, np.zeros((rows, cols), dtype=bool))

    @classmethod
    def full(cls, alphabet: ActionAlphabet, rows: int, cols: int) -> "ActionMatrix":
        return cls.from_bits(alphabet, np.ones((rows, cols), dtype=bool))

    @classmethod
    def identity(cls, alphabet: ActionAlphabet, n: int) -> "ActionMatrix":
        return cls.from_bits(alphabet, np.eye(n, dtype=bool))

    @classmethod
    def from_sets(cls, alphabet: ActionAlphabet, entries: Sequence[Sequence[Iterable[str]]]) -> "ActionMatrix":
        return cls(alphabet, tuple(tuple(alphabet.mask_of(cell) for cell in row) for row in entries))

    @classmethod
    def from_bits(cls, alphabet: ActionAlphabet, bits) -> "ActionMatrix":
        """Build a 0-1 matrix, or a stack of them from ``(..., rows, cols)``
        bits: truthy cells become the full set.  The bits are copied once;
        every label plane is a read-only view of that copy."""
        bits = np.array(bits, dtype=bool)
        if bits.ndim < 2:
            raise MatrixShapeError("a 0-1 matrix needs rows of equal length")
        if not bits.shape[-2] or not bits.shape[-1]:
            raise MatrixShapeError("matrices must have at least one row and column")
        planes = np.broadcast_to(bits[..., None, :, :], (*bits.shape[:-2], alphabet.size, *bits.shape[-2:]))
        return cls._wrap(alphabet, planes)

    # -- shape ---------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.planes.shape[-2]

    @property
    def cols(self) -> int:
        return self.planes.shape[-1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.planes.shape[-2:]

    def _check_alphabet(self, other: "ActionMatrix") -> None:
        if self.alphabet != other.alphabet:
            raise MatrixShapeError("matrices over different alphabets")

    def _check_same_shape(self, other: "ActionMatrix", what: str) -> None:
        self._check_alphabet(other)
        if self.shape != other.shape:
            raise MatrixShapeError(f"cannot {what} {self.shape} and {other.shape}")

    # -- entry access ----------------------------------------------------

    @property
    def data(self) -> tuple[tuple[int, ...], ...]:
        """Bit-mask view: entry ``(i, j)`` has bit ``l`` iff label ``l`` is in it."""
        masks = np.zeros(self.shape, dtype=object)
        for label, plane in enumerate(self.planes):
            masks[plane] += 1 << label
        return tuple(map(tuple, masks.tolist()))

    def mask_at(self, i: int, j: int) -> int:
        return sum(1 << int(label) for label in np.flatnonzero(self.planes[:, i, j]))

    def support(self) -> np.ndarray:
        """``(..., rows, cols)`` boolean array of the nonempty entries."""
        return self.planes.any(axis=-3)

    # -- semiring operations ----------------------------------------------

    def __add__(self, other: "ActionMatrix") -> "ActionMatrix":
        self._check_same_shape(other, "add")
        return ActionMatrix._wrap(self.alphabet, self.planes | other.planes)

    def __matmul__(self, other: "ActionMatrix") -> "ActionMatrix":
        """Union of intersections: per label, a boolean product, computed for
        all labels at once as one batched real product, then thresholded.
        A 0-1 factor built by :meth:`from_bits` enters as its one plane, so
        the product of two of them is one plane, broadcast to every label."""
        self._check_alphabet(other)
        if self.cols != other.rows:
            raise MatrixShapeError(f"cannot multiply {self.shape} by {other.shape}")
        # BLAS may leave a stale invalid-operation flag behind; 0-1 factors
        # have no NaN or infinity for it to report.
        with np.errstate(invalid="ignore"):
            product = np.matmul(_distinct_planes(self.planes), _distinct_planes(other.planes)) > 0
        if product.shape[-3] != self.alphabet.size:
            product = np.broadcast_to(product, (*product.shape[:-3], self.alphabet.size, *product.shape[-2:]))
        return ActionMatrix._wrap(self.alphabet, product)

    def meet(self, other: "ActionMatrix") -> "ActionMatrix":
        """Entrywise intersection."""
        self._check_same_shape(other, "meet")
        return ActionMatrix._wrap(self.alphabet, self.planes & other.planes)

    def transpose(self) -> "ActionMatrix":
        return ActionMatrix._wrap(self.alphabet, np.swapaxes(self.planes, -1, -2))

    def __le__(self, other: "ActionMatrix") -> bool:
        """Entrywise inclusion."""
        self._check_same_shape(other, "compare")
        return not (self.planes & ~other.planes).any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, ActionMatrix):
            return NotImplemented
        return self.alphabet == other.alphabet and np.array_equal(self.planes, other.planes)

    def __hash__(self) -> int:
        return hash((self.alphabet, self.planes.shape, self.planes.tobytes()))

    def is_zero_one(self) -> bool:
        """Every entry is empty or full: all label planes agree (as they do
        when they view one plane)."""
        planes = self.planes
        return planes.strides[-3] == 0 or bool((planes == planes[..., :1, :, :]).all())

    def is_zero(self) -> bool:
        return not self.planes.any()

    def __repr__(self):
        return f"ActionMatrix(alphabet={self.alphabet!r}, data={self.data!r})"

    def __str__(self):
        rendered = [[format_entry(self.alphabet, m) for m in row] for row in self.data]
        width = max(len(cell) for row in rendered for cell in row)
        return "\n".join(" ".join(cell.rjust(width) for cell in row) for row in rendered)


def _distinct_planes(planes: np.ndarray) -> np.ndarray:
    """``float32`` planes for a product; label planes that view one plane
    (a :meth:`ActionMatrix.from_bits` matrix) are cast as that one plane."""
    if planes.strides[-3] == 0:
        planes = planes[..., :1, :, :]
    return planes.astype(np.float32)


def rt_closure(m: ActionMatrix) -> ActionMatrix:
    """Least reflexive-transitive 0-1 matrix above ``m``.

    Squares ``I + m`` until it stops growing; the infinite power sum
    stabilizes after at most n steps, so this takes about log2(n) products.
    A stack is closed in one batch of products, until all of it stops
    growing.
    """
    if m.rows != m.cols:
        raise MatrixShapeError("closure needs a square matrix")
    if not m.is_zero_one():
        raise ValueError("closure is defined for 0-1 matrices only")
    reach = m.support() | np.eye(m.rows, dtype=bool)
    while True:
        step = reach.astype(np.float32)
        grown = (step @ step) > 0
        if np.array_equal(grown, reach):
            return ActionMatrix.from_bits(m.alphabet, reach)
        reach = grown


def block_labels(member: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The column of each row's unit and the first row of that column, by
    ``argmax`` along each axis of a ``(..., n, N)`` collector or stack of
    them (boolean or real): each state's block and that block's first
    member.  Both are flat over the stack: block ``j`` of member ``s`` is
    ``s·N + j`` and its state ``i`` is ``s·n + i``."""
    *_, n, k = member.shape
    member = member.reshape(-1, n, k)
    at = np.arange(len(member))[:, None]
    block = (member.argmax(axis=2) + k * at).ravel()
    return block, (member.argmax(axis=1) + n * at).ravel()[block]


# ---------------------------------------------------------------------------
# Real matrices
# ---------------------------------------------------------------------------


def real_matrix(entries) -> np.ndarray:
    """Copy input to a float array, rejecting NaN and infinities."""
    arr = np.array(entries, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite entries")
    return arr


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise MatrixShapeError(f"cannot compare shapes {a.shape} and {b.shape}")
    return float(np.max(np.abs(a - b))) if a.size else 0.0


@dataclass(frozen=True, eq=False)
class Factored:
    """The real ``n x n`` matrix ``L A M E``, kept as its factors and read
    through ``@``; an ergodic projection is ``Π = A E``.

    ``A`` (``trapping``, ``n x k``) has the unit row of its class on each
    state with one (``classes`` at least 0) and convex combinations of unit
    rows on the others (-1).  ``E`` (``k x n``) holds each state's
    ``weights`` entry in its class's row.  ``M`` (``k x k``) and ``L``
    (``n x n``) are identities while None.

    ``F @ x`` is ``L (A (M (E x)))`` for an array ``x``, ``x @ F`` is held
    as ``L = x``, and ``F @ F'`` over the same ``A`` and ``E`` is
    ``L A (M (E L' A) M') E``.  So ``Π @ (Qs @ Π)`` is ``A G E`` with the
    class generator ``G = (E Qs) A``, and ``(ΠQsΠ) @ V`` is ``A (G (E V))``:
    no ``n x n`` array is formed.
    """

    trapping: np.ndarray
    classes: np.ndarray
    weights: np.ndarray
    middle: np.ndarray | None = None
    left: np.ndarray | None = None

    __array_ufunc__ = None  # so that NumPy defers ``x @ F`` to ``F.__rmatmul__``

    @cached_property
    def grouped(self):
        """The states with a class, grouped by class in increasing order;
        where each class starts among them; and the states without one."""
        states = np.flatnonzero(self.classes >= 0)
        grouped = states[np.argsort(self.classes[states], kind="stable")]
        return grouped, np.flatnonzero(np.diff(self.classes[grouped], prepend=-1)), np.flatnonzero(self.classes < 0)

    def e(self, x):
        """``E x`` on the last-but-one axis: each class's rows of ``x``
        summed by weight, a gather where every class has one state (of
        weight 1)."""
        grouped, starts, _ = self.grouped
        y = x[..., grouped, :]
        return y if len(starts) == len(grouped) else np.add.reduceat(y * self.weights[grouped, None], starts, axis=-2)

    def a(self, y):
        """``A y``: class rows copied onto the states with a class, and only
        the other states' rows multiplied."""
        transient = self.grouped[2]
        out = y[..., np.maximum(self.classes, 0), :]
        out[..., transient, :] = self.trapping[transient] @ y
        return out

    def times_e(self, z):
        """``z E``: the column of each state's class times its weight, and
        exact zeros on states without a class."""
        return np.where(self.classes >= 0, z[..., self.classes] * self.weights, 0.0)

    def __matmul__(self, x):
        if isinstance(x, Factored):
            middle = self.e(x.trapping) if x.left is None else self.e(x.left) @ x.trapping
            middle = middle if self.middle is None else self.middle @ middle
            middle = middle if x.middle is None else middle @ x.middle
            return Factored(self.trapping, self.classes, self.weights, middle, self.left)
        y = self.e(x)
        y = self.a(y if self.middle is None else self.middle @ y)
        return y if self.left is None else self.left @ y

    def __rmatmul__(self, x):
        return Factored(self.trapping, self.classes, self.weights, self.middle, x if self.left is None else x @ self.left)


def solve_linear(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` by Gaussian elimination with partial pivoting.

    A pivot smaller than ``PIVOT_RTOL`` times the largest initial magnitude
    of its column raises :class:`SingularMatrixError`; this makes the
    singularity verdict deterministic and independent of elimination
    history.

    Work is done only where the matrix has entries.  The pivots of the
    columns before the first with an entry below the diagonal are checked
    in one step, since no step there swaps or updates, and elimination
    starts at that column; so a triangular matrix takes no step at all.  A
    step updates only the rows with an entry in the pivot column (all of
    them as one slice when every row has one, none when only the pivot is
    left), since the others have a zero multiplier; and back-substitution
    divides the rows with nothing above the diagonal in one step, since
    their dot products are whole zeros.  The pivots, the verdict and the
    values are those of the textbook loop that updates every row
    (``tests/references.py``); only the sign of a zero can differ, where an
    input holds ``-0.0`` that a zero multiplier would have turned into
    ``+0.0``.
    """
    m = real_matrix(a)
    rhs = real_matrix(b)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise MatrixShapeError("solver needs a square coefficient matrix")
    n = m.shape[0]
    vector = rhs.ndim == 1
    if rhs.shape[0] != n or rhs.ndim > 2:
        raise MatrixShapeError("right-hand side has the wrong number of rows")
    rhs = rhs.reshape(n, -1)
    col_scale = np.max(np.abs(m), axis=0)
    # Before the first column whose last entry is below the diagonal (or
    # that has none), no step swaps or updates, so each pivot is its
    # diagonal entry.
    lower = n - 1 - np.argmax(m[::-1] != 0.0, axis=0) > np.arange(n)
    start = int(np.argmax(lower)) if lower.any() else n
    if start:
        small = np.flatnonzero((col_scale[:start] == 0.0) | (np.abs(np.diagonal(m)[:start]) < PIVOT_RTOL * col_scale[:start]))
        if small.size:
            raise SingularMatrixError(f"pivot for column {small[0]} below threshold")
    # Column k below the pivot is never read after step k, so no step
    # updates it.
    for k in range(start, n):
        column = np.abs(m[k:, k])
        p = k + int(np.argmax(column))
        if col_scale[k] == 0.0 or column[p - k] < PIVOT_RTOL * col_scale[k]:
            raise SingularMatrixError(f"pivot for column {k} below threshold")
        if p != k:
            m[[k, p]] = m[[p, k]]
            rhs[[k, p]] = rhs[[p, k]]
        entries = np.count_nonzero(column)
        if entries == n - k:
            factors = m[k + 1 :, k] / m[k, k]
            m[k + 1 :, k + 1 :] -= np.outer(factors, m[k, k + 1 :])
            rhs[k + 1 :] -= np.outer(factors, rhs[k])
        elif entries > 1:
            rows = k + 1 + np.flatnonzero(m[k + 1 :, k])
            factors = m[rows, k] / m[k, k]
            m[rows, k + 1 :] -= np.outer(factors, m[k, k + 1 :])
            rhs[rows] -= np.outer(factors, rhs[k])
    # a row's last entry is on or above the diagonal, whose pivot is nonzero
    coupled = n - 1 - np.argmax(m[:, ::-1] != 0.0, axis=1) > np.arange(n)
    x = np.divide(rhs, np.diagonal(m)[:, None], out=np.empty_like(rhs), where=~coupled[:, None])
    for k in np.flatnonzero(coupled)[::-1].tolist():
        x[k] = (rhs[k] - m[k, k + 1 :] @ x[k + 1 :]) / m[k, k]
    return x[:, 0] if vector else x


def pade_quotient(a: np.ndarray) -> np.ndarray:
    """The [13/13] Padé approximant ``R = (V - U)^-1 (V + U)`` of ``e^a``
    (Higham 2005), within double precision where ``a`` has 1-norm at most
    ``PADE_THETA``.  It is evaluated from the even powers ``A², A⁴, A⁶``:
    six products and one solve.  The powers and ``a`` are released before
    the solve, so a caller passes ``a`` as a temporary."""
    n = a.shape[0]
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    scratch = np.empty_like(a)

    def even(c6: float, c4: float, c2: float, c0: float = 0.0) -> np.ndarray:
        out = np.multiply(a6, c6)
        out += np.multiply(a4, c4, out=scratch)
        out += np.multiply(a2, c2, out=scratch)
        out.flat[:: n + 1] += c0
        return out

    b = _PADE_13
    u = a6 @ even(b[13], b[11], b[9])
    u += even(b[7], b[5], b[3], b[1])
    u = a @ u
    v = a6 @ even(b[12], b[10], b[8])
    v += even(b[6], b[4], b[2], b[0])
    del a, a2, a4, a6, scratch
    v -= u  # V - U
    u *= 2.0
    u += v  # V + U
    return np.linalg.solve(v, u)
