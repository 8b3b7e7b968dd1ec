"""Each family decides ``VUX = X`` as block-constancy.  These tests keep the
dense ``v @ (u @ x)`` as the reference for both kernels, over the canonical
and over random distributors, single and stacked, and pin the weak chain
refinements whose fixpoint failed its own check while the check compared
rows with that dense block mean."""

import random

import numpy as np
import pytest

from matbisim import DEFAULT_ATOL, CheckReport, MrcFast, Partition, Search, Witness, generate, lts, mrc
from matbisim.cli import main
from matbisim.partition import enumerate_partitions, passes, verdict

KINDS = ("strong", "weak", "branching")


def dense_lts(kind, v, u, rows):
    """The first ``VUX = X`` that fails, with ``VUX`` formed as ``v @ (u @ x)``."""
    for name, x in rows:
        lhs = v @ (u @ x)
        differs = (lhs.planes != x.planes).any(axis=-3)
        if differs.any():
            i, j = divmod(int(np.flatnonzero(differs)[0]), differs.shape[-1])
            sides = [v.alphabet.labels_of(m.mask_at(i, j)) for m in (lhs, x)]
            return CheckReport(kind, False, name, Witness(i, j, *sides))
    return CheckReport(kind, True)


def dense_mrc(v, u, rows, atol):
    """``(name, row, col, VUX there)`` of the first entry where the dense
    ``v @ (u @ x)`` misses ``x`` by more than ``atol``, or None; the largest
    residual; and whether any residual lies within 1e-6·atol of ``atol``."""
    first, worst, near = None, 0.0, False
    for name, x in rows:
        lhs = v @ (u @ x)
        residual = np.abs(lhs - x)
        worst = max(worst, float(residual.max()))
        near = near or bool((np.abs(residual - atol) <= 1e-6 * atol).any())
        if first is None and (residual > atol).any():
            i, j = divmod(int(np.flatnonzero(residual > atol)[0]), x.shape[-1])
            first = name, i, j, float(lhs[i, j])
    return first, worst, near


def _partitions(rng, model, planted):
    """A random partition, the planted one and every kind's coarsest."""
    found = [Search(model, kind).coarsest() for kind in KINDS]
    return [generate.random_partition(rng, model.num_states), planted, *found]


def _stack(n):
    """Every partition of ``n`` states into about half as many blocks."""
    blocks = (n + 1) // 2
    return blocks, np.array([p.assignment for p in enumerate_partitions(n) if p.num_blocks == blocks])


def test_lts_kernel_gives_the_dense_verdict_and_witness():
    rng = random.Random(26)
    failed = 0
    for _ in range(40):
        system, planted = generate.duplicate_states_lts(rng, generate.random_lts(rng, max_states=4))
        for kind in KINDS:
            table = lts.conditions(system, kind)
            for p in _partitions(rng, system, planted):
                v = p.collector_bool(system.alphabet)
                rows = table(v)
                for u in (None, generate.random_bool_distributor(rng, p, system.alphabet)):
                    reference = dense_lts(kind, v, v.transpose() if u is None else u, rows)
                    assert verdict(kind, rows, lts.kernel(v, u, DEFAULT_ATOL)) == reference
                    failed += not reference.passed
            blocks, labels = _stack(system.num_states)
            v = lts.collectors(system, labels[:, :, None] == np.arange(blocks))
            passed = passes(table(v), lts.kernel(v, None, DEFAULT_ATOL))
            for s, row in enumerate(labels):
                single = Partition.from_assignment(row.tolist()).collector_bool(system.alphabet)
                assert passed[s] == dense_lts(kind, single, single.transpose(), table(single)).passed
    assert failed > 100  # the sample is not all passes


def test_mrc_kernel_gives_the_dense_verdict_and_witness_away_from_the_tolerance():
    rng = random.Random(26)
    atol = 1e-9
    compared = failed = skipped = 0
    for _ in range(30):
        chain, planted = generate.duplicate_states_mrc(rng, generate.random_mrc_fast(rng, max_states=4))
        for kind in KINDS:
            table = mrc.conditions(chain, kind)
            for p in _partitions(rng, chain, planted):
                v = p.collector_real()
                rows = table(v)
                for u in (None, generate.random_real_distributor(rng, p)):
                    first, worst, near = dense_mrc(v, mrc.canonical_distributor(v) if u is None else u, rows, atol)
                    report = verdict(kind, rows, mrc.kernel(v, u, atol))
                    if abs(worst - atol) <= 1e-6 * atol:
                        skipped += 1
                        continue
                    compared += 1
                    assert report.passed == (first is None), (kind, p)
                    if first is None or near:
                        continue
                    failed += 1
                    w = report.witness
                    assert (report.violated, w.row, w.col) == first[:3]
                    assert w.rhs == float(dict(rows)[report.violated][w.row, w.col])
                    assert abs(w.lhs - first[3]) <= 1e-12 * max(1.0, abs(w.rhs))
                    assert w.residual > atol
            blocks, labels = _stack(chain.num_states)
            v = mrc.collectors(chain, labels[:, :, None] == np.arange(blocks))
            passed = passes(table(v), mrc.kernel(v, None, atol))
            for s, row in enumerate(labels):
                v = Partition.from_assignment(row.tolist()).collector_real()
                first, worst, _ = dense_mrc(v, mrc.canonical_distributor(v), table(v), atol)
                if abs(worst - atol) > 1e-6 * atol:
                    assert passed[s] == (first is None)
    assert skipped <= compared // 100
    assert failed > 100


def _sample():
    """150 chains of 3-8 states with dense fast parts."""
    rng = random.Random(4)
    return [generate.random_mrc_fast(rng, n=rng.randint(3, 8), p_fast=0.6) for _ in range(150)]


@pytest.mark.parametrize("tol, scale", [(1e-16, 1.0), (1e-9, 1e7)])
def test_weak_refinement_passes_its_own_check_below_the_rounding_of_the_rows(tol, scale):
    # the dense block mean of equal rows lands about an ulp of |x| away from
    # them: this sample's weak fixpoints failed their own check on 65 chains
    # at 1e-16 and, with rewards scaled by 1e7, on 31 at the default 1e-9
    for chain in _sample():
        chain = MrcFast(chain.sigma, chain.qs, chain.qf, chain.rho * scale)
        Search(chain, "weak", atol=tol).coarsest()  # raises CheckFailed if it fails its check


GEN053 = """mrc 6
init 0:0.06783993972981321 1:0.3212690507625189 2:0.3492866144820253 3:0.14286619769811562 4:0.011354029498172219 5:0.1073841678293548
reward 3.790328519166524 4.0083249558787255 3.120746041420259 4.230294756814858 1.425316763488108 2.4586980640091545
rate 0 2 0.6962299202902649
rate 0 4 1.308363203915152
rate 1 2 2.352268581021451
rate 2 5 2.0775377926515306
rate 3 2 0.9194540997353942
rate 4 0 1.223958376530459
rate 4 3 1.6847724305775649
rate 5 0 1.2863179275026748
rate 5 2 1.6720301194874845
rate 5 4 2.796272829955
fast 0 5 1.4359873390091984
fast 1 2 0.7902941315174081
fast 1 5 0.9966368894465056
fast 2 1 0.9688563175137006
fast 2 3 0.8320332176355847
fast 2 5 2.1379626285459112
fast 3 4 2.095820849325429
fast 3 5 1.6977841500400654
fast 4 1 1.2278806247651193
fast 4 2 1.243026329710074
fast 5 4 1.315246115190808
"""


def test_refine_weak_at_a_tolerance_below_the_rows_rounding_exits_0(tmp_path, capsys):
    # generated model 53 of the command-line corpus: its weak fixpoint used
    # to fail its own check, "error: weak check failed on 'VUΠV = ΠV'", exit 1
    path = tmp_path / "gen053.mrc"
    path.write_text(GEN053)
    assert main(["refine", str(path), "--kind", "weak", "--tol", "1e-16"]) == 0
    assert capsys.readouterr().out == "partition 6\n0 1 2 3 4 5\n"
