"""Independent output checks: the benchmark's own parsers and its own NumPy
reading of the ``V U X = X`` equalities.  Nothing here imports matbisim.

Boolean side: a label-set matrix is a ``(k, rows, cols)`` bool array, one
layer per visible label; 0-1 matrices have every layer equal.  The
semiring product is one boolean product per label.

Real side: the distributor is the normalized transpose, so ``V U X = X``
says every row of ``X`` equals its block mean.  The ergodic projection is
the spectral projector onto the null space of the fast generator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

#: A partition the program returns must pass our reading of its equalities
#: within this absolute tolerance (the program itself uses 1e-9).
PASS_TOL = 1e-8
#: A partition counts as clearly passing (planted partitions, merges) or
#: clearly failing (check verdicts) outside the band [CLEAR_TOL, PASS_TOL].
CLEAR_TOL = 1e-11
#: Reward values must be within the CLI's default ``--tol`` of the reference.
REWARD_TOL = 1e-9
#: Lumped rates and rewards must match our own quotient this closely.
QUOTIENT_TOL = 1e-7
#: Default sample times of ``matbisim diagram``.
DIAGRAM_TIMES = (0.0, 0.5, 1.0, 2.0)


class Invalid(Exception):
    """An output that fails validation; ``category`` is ``wrong`` or ``accuracy``."""

    def __init__(self, reason: str, category: str = "wrong"):
        super().__init__(reason)
        self.category = category


# ---------------------------------------------------------------------------
# Parsers for the program's text formats
# ---------------------------------------------------------------------------


def _lines(text: str) -> list[list[str]]:
    out = []
    for raw in text.splitlines():
        body = raw.split("#", 1)[0].split()
        if body:
            out.append(body)
    return out


@dataclass
class BoolModel:
    labels: list[str]
    init: int
    term: np.ndarray      # (n,) bool
    visible: np.ndarray   # (k, n, n) bool
    internal: np.ndarray  # (n, n) bool

    @property
    def n(self) -> int:
        return self.internal.shape[0]


@dataclass
class RealModel:
    sigma: np.ndarray
    rho: np.ndarray
    qs: np.ndarray
    qf: np.ndarray
    has_fast: bool

    @property
    def n(self) -> int:
        return self.qs.shape[0]


def parse_lts(text: str) -> BoolModel:
    lines = _lines(text)
    n = int(lines[0][1])
    labels = lines[1][1:]
    init = int(lines[2][1])
    term = np.zeros(n, dtype=bool)
    term[[int(s) for s in lines[3][1:]]] = True
    visible = np.zeros((len(labels), n, n), dtype=bool)
    internal = np.zeros((n, n), dtype=bool)
    for src, lab, dst in lines[4:]:
        if lab == "tau":
            internal[int(src), int(dst)] = True
        else:
            visible[labels.index(lab), int(src), int(dst)] = True
    return BoolModel(labels, init, term, visible, internal)


def _with_diagonal(q: np.ndarray) -> np.ndarray:
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


def parse_mrc(text: str) -> RealModel:
    lines = _lines(text)
    n = int(lines[0][1])
    sigma = np.zeros(n)
    for tok in lines[1][1:]:
        i, p = tok.split(":")
        sigma[int(i)] = float(p)
    rho = np.array([float(x) for x in lines[2][1:]])
    qs, qf = np.zeros((n, n)), np.zeros((n, n))
    has_fast = False
    for kind, src, dst, value in lines[3:]:
        target = qf if kind == "fast" else qs
        has_fast |= kind == "fast"
        target[int(src), int(dst)] += float(value)
    return RealModel(sigma, rho, _with_diagonal(qs), _with_diagonal(qf), has_fast)


def canonical(blocks) -> list[list[int]]:
    """Blocks sorted inside and ordered by smallest member."""
    return sorted((sorted(int(s) for s in b) for b in blocks), key=lambda b: b[0])


def parse_partition(text: str) -> list[list[int]]:
    return canonical([int(s) for s in line] for line in _lines(text)[1:])


def collector(n: int, blocks) -> np.ndarray:
    v = np.zeros((n, len(blocks)))
    for k, b in enumerate(blocks):
        v[list(b), k] = 1.0
    return v


# ---------------------------------------------------------------------------
# Transition systems over the action-set semiring
# ---------------------------------------------------------------------------


def _bprod(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Semiring product; 2-D operands are 0-1 matrices shared by all labels."""
    return np.matmul(x.astype(np.float64), y.astype(np.float64)) > 0.5


def _closure(s: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure by repeated squaring."""
    r = s | np.eye(s.shape[0], dtype=bool)
    while True:
        nxt = _bprod(r, r)
        if np.array_equal(nxt, r):
            return r
        r = nxt


def lts_conditions(m: BoolModel, blocks, kind: str) -> list[tuple[str, np.ndarray]]:
    """The observation matrices ``X`` of ``V U X = X`` for one kind."""
    v = collector(m.n, blocks) > 0.5
    rho = m.term[:, None]
    if kind == "strong":
        return [("rho", rho), ("AV", _bprod(m.visible, v)), ("SV", _bprod(m.internal, v))]
    if kind == "weak":
        pi = _closure(m.internal)
        return [
            ("Pi rho", _bprod(pi, rho)),
            ("Pi V", _bprod(pi, v)),
            ("Pi A Pi V", _bprod(_bprod(_bprod(pi, m.visible), pi), v)),
        ]
    if kind == "branching":
        pi_v = _closure(m.internal & _bprod(v, v.T))
        eye = np.eye(m.n, dtype=bool)
        return [
            ("Pi_V rho", _bprod(pi_v, rho)),
            ("(I + Pi_V S) V", _bprod(eye | _bprod(pi_v, m.internal), v)),
            ("Pi_V A V", _bprod(_bprod(pi_v, m.visible), v)),
        ]
    raise ValueError(kind)


def lts_violation(m: BoolModel, blocks, kind: str) -> str | None:
    """Name of the first equality ``V Vᵀ X = X`` that fails, or None."""
    v = collector(m.n, blocks) > 0.5
    for name, x in lts_conditions(m, blocks, kind):
        if not np.array_equal(_bprod(v, _bprod(v.T, x)), x):
            return name
    return None


def lts_quotient(m: BoolModel, blocks) -> BoolModel:
    """Quotient with the transpose distributor: ``Vᵀ X V`` throughout."""
    v = collector(m.n, blocks) > 0.5
    u = v.T
    block_of = {s: k for k, b in enumerate(blocks) for s in b}
    return BoolModel(
        m.labels,
        block_of[m.init],
        _bprod(u, m.term[:, None])[:, 0],
        _bprod(_bprod(u, m.visible), v),
        _bprod(_bprod(u, m.internal), v),
    )


# ---------------------------------------------------------------------------
# Reward chains over the reals
# ---------------------------------------------------------------------------


def projection(q: np.ndarray) -> np.ndarray:
    """Ergodic projection of a generator: the spectral projector
    ``R (L R)^-1 L`` onto its null space along its range."""
    from scipy.linalg import null_space

    r = null_space(q)
    left = null_space(q.T).T
    pi = r @ np.linalg.solve(left @ r, left)
    if np.max(np.abs(q @ pi)) > 1e-10 or np.max(np.abs(pi @ pi - pi)) > 1e-10:
        raise RuntimeError("validator: ergodic projection did not converge")
    return pi


def _block_residual(v: np.ndarray, x: np.ndarray) -> float:
    """``max |V U X - X|`` with ``U`` the normalized transpose."""
    u = v.T / v.sum(axis=0)[:, None]
    x = x.reshape(x.shape[0], -1)
    return float(np.max(np.abs(v @ (u @ x) - x))) if x.size else 0.0


def restrict_fast(qf: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Fast rates between same-class states only, diagonal repaired."""
    return _with_diagonal(qf * (v @ v.T))


def mrc_conditions(m: RealModel, blocks, kind: str) -> list[tuple[str, np.ndarray]]:
    v = collector(m.n, blocks)
    if kind == "strong":
        return [("rho", m.rho), ("QsV", m.qs @ v), ("QfV", m.qf @ v)]
    if kind == "weak":
        pi = projection(m.qf)
        return [("Pi rho", pi @ m.rho), ("Pi V", pi @ v), ("Pi Qs Pi V", pi @ m.qs @ pi @ v)]
    if kind == "branching":
        pi_v = projection(restrict_fast(m.qf, v))
        return [("Pi_V rho", pi_v @ m.rho), ("Pi_V Qf V", pi_v @ m.qf @ v), ("Pi_V Qs V", pi_v @ m.qs @ v)]
    raise ValueError(kind)


def mrc_residual(m: RealModel, blocks, kind: str) -> float:
    """Largest ``|V U X - X|`` over the kind's equalities."""
    v = collector(m.n, blocks)
    return max(_block_residual(v, x) for _, x in mrc_conditions(m, blocks, kind))


def weak_distributor(m: RealModel, blocks) -> np.ndarray:
    """Certified distributor ``(UΠV)^-1 UΠ`` of a weak lumping."""
    v = collector(m.n, blocks)
    u = v.T / v.sum(axis=0)[:, None]
    pi = projection(m.qf)
    return np.linalg.solve(u @ pi @ v, u @ pi)


def expm(a: np.ndarray) -> np.ndarray:
    from scipy.linalg import expm as _expm

    return _expm(a)


def reward_reference(m: RealModel, times) -> list[float]:
    """``σ e^(Qt) ρ``, or the limit-chain form ``σ Π e^(ΠQsΠ t) ρ``."""
    if m.has_fast:
        pi = projection(m.qf)
        g = pi @ m.qs @ pi
        return [float(m.sigma @ pi @ expm(g * t) @ m.rho) for t in times]
    return [float(m.sigma @ expm(m.qs * t) @ m.rho) for t in times]


def limit_commutes(m: RealModel, blocks, times=DIAGRAM_TIMES) -> float:
    """Largest gap between the lumped limit chain and the limit of the
    lumped chain at the sample times."""
    v = collector(m.n, blocks)
    w = weak_distributor(m, blocks)
    pi = projection(m.qf)
    g = pi @ m.qs @ pi
    qf_hat = _with_diagonal(w @ m.qf @ v)
    pi_hat = projection(qf_hat)
    g_hat = pi_hat @ (w @ m.qs @ v) @ pi_hat
    return max(float(np.max(np.abs(pi_hat @ expm(g_hat * t) - w @ pi @ expm(g * t) @ v))) for t in times)


# ---------------------------------------------------------------------------
# Per-operation validation
# ---------------------------------------------------------------------------


def _coarser_or_equal(result, planted) -> bool:
    """Every planted block lies inside one result block."""
    block_of = {s: k for k, b in enumerate(result) for s in b}
    return all(len({block_of[s] for s in b}) == 1 for b in planted)


class Validator:
    """Validates the outputs of one workload's operations.

    ``texts`` maps file names to the model and partition texts the program
    was given; ``planted`` maps a model file name to the partitions planted
    in it, by name.
    """

    def __init__(self, texts: dict[str, str], planted: dict[str, dict[str, list[list[int]]]]):
        self.texts = texts
        self.planted = {f: {k: canonical(b) for k, b in parts.items()} for f, parts in planted.items()}
        self._models: dict[str, object] = {}
        self.reward_errors: list[float] = []

    def model(self, fname: str):
        if fname not in self._models:
            text = self.texts[fname]
            self._models[fname] = parse_lts(text) if text.startswith("lts") else parse_mrc(text)
        return self._models[fname]

    def residual(self, fname: str, blocks, kind: str) -> float:
        """0 or 1 for transition systems; the real residual for chains."""
        m = self.model(fname)
        if isinstance(m, BoolModel):
            return 0.0 if lts_violation(m, blocks, kind) is None else 1.0
        return mrc_residual(m, blocks, kind)

    def validate(self, argv: list[str], code: int, stdout: str) -> None:
        """Raise :class:`Invalid` unless the output of ``matbisim <argv>`` is right."""
        try:
            payload = json.loads(stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            raise Invalid(f"exit {code}, no JSON report on stdout") from None
        command, fname = argv[0], argv[1]

        def option(name: str) -> str | None:
            return argv[argv.index(name) + 1] if name in argv else None

        kind = option("--kind")
        part = option("--partition")
        planted = parse_partition(self.texts[part]) if part else None
        if command == "refine":
            self._refine(fname, kind, "--oracle" in argv, code, payload)
        else:
            getattr(self, "_" + command)(fname, kind, planted, code, payload)

    # -- commands ----------------------------------------------------------

    def _refine(self, fname, kind, oracle, code, payload):
        if code != 0:
            raise Invalid(f"refine exited {code}")
        result = canonical(payload["partition"])
        res = self.residual(fname, result, kind)
        if res > PASS_TOL:
            raise Invalid(f"refined partition fails {kind} equalities (residual {res:.3g})")
        for name, blocks in self.planted.get(fname, {}).items():
            if self.residual(fname, blocks, kind) <= CLEAR_TOL and not _coarser_or_equal(result, blocks):
                raise Invalid(f"refined partition is finer than the planted {name} partition")
        if oracle:
            if payload.get("oracle_agrees") is not True or canonical(payload["oracle"]) != result:
                raise Invalid("oracle disagrees with refinement")
            for a in range(len(result)):
                for b in range(a + 1, len(result)):
                    merged = [blk for k, blk in enumerate(result) if k not in (a, b)] + [result[a] + result[b]]
                    if self.residual(fname, canonical(merged), kind) <= CLEAR_TOL:
                        raise Invalid(f"blocks {a} and {b} can be merged: result is not coarsest")

    def _check(self, fname, kind, planted, code, payload):
        res = self.residual(fname, planted, kind)
        verdict = payload.get("verdict")
        if code != {"pass": 0, "fail": 1}.get(verdict):
            raise Invalid(f"check exited {code} with verdict {verdict!r}")
        if res <= CLEAR_TOL and verdict != "pass":
            raise Invalid("check fails a partition that satisfies the equalities")
        if res > PASS_TOL and verdict != "fail":
            raise Invalid(f"check passes a partition with residual {res:.3g}")

    def _lump(self, fname, kind, planted, code, payload):
        if code != 0:
            raise Invalid(f"lump exited {code}")
        m = self.model(fname)
        text = payload["model"]
        if isinstance(m, BoolModel):
            got, want = parse_lts(text), lts_quotient(m, planted)
            same = (
                got.init == want.init
                and np.array_equal(got.term, want.term)
                and np.array_equal(got.visible, want.visible)
                and np.array_equal(got.internal, want.internal)
            )
            if not same:
                raise Invalid("quotient system differs from Vᵀ X V")
            return
        got = parse_mrc(text)
        v = collector(m.n, planted)
        w = weak_distributor(m, planted)
        want = [m.sigma @ v, w @ m.rho, _with_diagonal(w @ m.qs @ v), _with_diagonal(w @ m.qf @ v)]
        gap = max(float(np.max(np.abs(a - b))) for a, b in zip([got.sigma, got.rho, got.qs, got.qf], want))
        if gap > QUOTIENT_TOL:
            raise Invalid(f"weak quotient differs from the certified distributor's by {gap:.3g}")

    def _diagram(self, fname, kind, planted, code, payload):
        gap = limit_commutes(self.model(fname), planted)
        verdict = payload.get("verdict")
        if code != {"pass": 0, "fail": 1}.get(verdict):
            raise Invalid(f"diagram exited {code} with verdict {verdict!r}")
        if gap <= PASS_TOL and verdict != "pass":
            raise Invalid(f"diagram fails, but the limits commute within {gap:.3g}")
        if gap > 1e-6 and verdict != "fail":
            raise Invalid(f"diagram passes, but the limits differ by {gap:.3g}")

    def _reward(self, fname, kind, planted, code, payload):
        if code != 0:
            raise Invalid(f"reward exited {code}")
        m = self.model(fname)
        if payload.get("limit") != m.has_fast:
            raise Invalid("limit-chain flag does not match the model")
        times = payload["times"]
        ref = reward_reference(m, times)
        errs = [abs(v - r) for v, r in zip(payload["values"], ref)]
        self.reward_errors.append(max(errs))
        misses = [f"t={t:g}: {e:.2g}" for t, e in zip(times, errs) if e > REWARD_TOL]
        if misses:
            raise Invalid("reward off the expm reference by more than 1e-9 at " + ", ".join(misses), "accuracy")
