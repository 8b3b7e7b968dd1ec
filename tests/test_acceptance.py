"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with ``pytest -s`` to see them).

Criterion 3a checks the class-level closure identity ``VᵀΠV = (VᵀSV)*`` in
the form the program states it.  The inclusion ``VᵀΠV ≤ (VᵀSV)*`` holds for
every collector and is asserted on all instances.  Equality needs the weak
equality ``VVᵀΠV = ΠV`` and is asserted exactly where the weak check passes.
For arbitrary collectors equality is false: quotienting can connect classes
through states that no internal path connects (see ``test_closure_
identities_can_fail_for_arbitrary_collectors`` in test_lts.py for a
four-state witness).  3a reports how many random collectors violate it.
"""

import json
import random

import numpy as np

from matbisim import generate, lts, mrc
from matbisim.algebra import ActionMatrix, rt_closure
from matbisim.cli import main as cli_main
from matbisim.lts import (
    verify_branching_commutation,
    verify_weak_commutation,
)
from matbisim.mrc import (
    as_fast_chain,
    default_tau_distributor,
    ergodic_projection,
    parse_mrc,
    tau_distributor_residuals,
    total_reward,
    transition_matrix,
    validate_generator,
    verify_limit_commutation,
)
from matbisim.partition import (
    Partition,
    Search,
    parse_partition,
)
from references import brute_force_coarsest, check_strong_relational


def record(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def seeded(n: int) -> random.Random:
    return random.Random(n)


def test_criterion_01_four_state_reproduction(four_state):
    ab = four_state.alphabet
    sigma_ok = four_state.initial == ActionMatrix.from_bits(ab, [[1, 0, 0, 0]])
    a_ok = four_state.visible == ActionMatrix.from_sets(
        ab,
        [
            [(), ("a",), ("a",), ()],
            [(), (), (), ("b", "c")],
            [(), (), (), ("b",)],
            [(), (), ("d",), ()],
        ],
    )
    rho_ok = four_state.terminating == ActionMatrix.from_bits(ab, [[1], [0], [0], [1]])
    ident = Partition.identity(4).collector_bool(ab)
    strong_ok = lts.check(four_state, ident, "strong").passed
    search = Search(four_state, "strong")
    coarsest = search.coarsest()
    oracle = brute_force_coarsest(four_state, search.checker)
    discrete_ok = coarsest == Partition.identity(4) == oracle
    record(
        "1",
        sigma_ok and a_ok and rho_ok and strong_ok and discrete_ok,
        "four-state system parses to the expected matrices; identity passes strong; coarsest is discrete",
    )


def test_criterion_02_reward_chain_reproduction(reward_chain):
    q_ok = np.array_equal(reward_chain.q, np.array([[-2.0, 1.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, -1.0]]))
    validate_generator(reward_chain.q)
    r0 = total_reward(reward_chain, 0.0)
    record("2", q_ok and r0 == 1.0, f"generator rows match and R(0) = {r0} exactly")


def test_criterion_03a_closure_identity_for_every_collector():
    # VVᵀ ≥ I gives VᵀSᵏV ≤ (VᵀSV)ᵏ, so the inclusion holds for every
    # collector; the reverse inclusion needs VVᵀΠV = ΠV, one of the weak
    # equalities, so equality is asserted only where the weak check passes
    rng = seeded(3)
    not_included = []
    weak_passing = 0
    weak_unequal = []
    violators = 0
    violators_saturated = []
    for i in range(500):
        sys_ = generate.random_lts(rng, max_states=8)
        p = generate.random_partition(rng, sys_.num_states)
        v = p.collector_bool(sys_.alphabet)
        u = v.transpose()
        pi = rt_closure(sys_.internal)
        lifted = u @ pi @ v
        closed = rt_closure(u @ sys_.internal @ v)
        if not lifted <= closed:
            not_included.append((i, p.blocks))
        weak = lts.check(sys_, v, "weak").passed
        if weak:
            weak_passing += 1
        if lifted == closed:
            continue
        violators += 1
        if weak:
            weak_unequal.append((i, p.blocks))
        if v @ (u @ (pi @ v)) == pi @ v:
            violators_saturated.append((i, p.blocks))

    def first(found):
        return f" (first at {found[0]})" if found else ""

    record(
        "3a",
        not not_included and not weak_unequal and not violators_saturated and weak_passing >= 50,
        f"VᵀΠV ≤ (VᵀSV)* failed on {len(not_included)} of 500 random collectors{first(not_included)}; "
        f"equality failed on {len(weak_unequal)} of {weak_passing} weak-passing ones{first(weak_unequal)}; "
        f"{violators} arbitrary collectors violate equality, "
        f"{len(violators_saturated)} of them with VVᵀΠV = ΠV{first(violators_saturated)}",
    )


def test_criterion_03b_projection_identity_under_weak_check():
    rng = seeded(3)
    checked = 0
    failures = 0
    for _ in range(500):
        sys_ = generate.random_lts(rng, max_states=8)
        p = generate.random_partition(rng, sys_.num_states)
        v = p.collector_bool(sys_.alphabet)
        if not lts.check(sys_, v, "weak").passed:
            continue
        checked += 1
        pi = rt_closure(sys_.internal)
        pvv = pi @ v @ v.transpose()
        if pvv != pvv @ pi:
            failures += 1
    record("3b", failures == 0 and checked >= 50, f"saturation identity held on all {checked} weak-passing pairs")


def _found_bisimulations(rng, count, kind):
    """Coarsest partitions of randomly grown systems; plants keep a healthy
    share of them nontrivial."""
    found = []
    while len(found) < count:
        base = generate.random_lts(rng, max_states=4)
        style = rng.random()
        if style < 0.4:
            sys_, _ = generate.plant_internal_feeder(rng, base)
        elif style < 0.7:
            sys_, _ = generate.duplicate_states_lts(rng, base)
        else:
            sys_ = generate.random_lts(rng, max_states=6)
        part = Search(sys_, kind).coarsest()
        found.append((sys_, part))
    return found


def test_criterion_04_commuting_diagrams():
    rng = seeded(4)
    weak_failures = 0
    branching_failures = 0
    nontrivial = 0
    for sys_, part in _found_bisimulations(rng, 200, "weak"):
        v = part.collector_bool(sys_.alphabet)
        nontrivial += part.num_blocks < sys_.num_states
        if not verify_weak_commutation(sys_, v):
            weak_failures += 1
    for sys_, part in _found_bisimulations(rng, 200, "branching"):
        v = part.collector_bool(sys_.alphabet)
        if not verify_branching_commutation(sys_, v):
            branching_failures += 1
    record(
        "4",
        weak_failures == 0 and branching_failures == 0 and nontrivial >= 100,
        f"weak/branching commutation on 200+200 found bisimulations "
        f"({nontrivial} nontrivial weak): {weak_failures}+{branching_failures} failures",
    )


def test_criterion_05_branching_implies_weak():
    rng = seeded(5)
    antecedents = 0
    failures = 0
    pairs = []
    for _ in range(400):
        sys_ = generate.random_lts(rng, max_states=6)
        pairs.append((sys_, generate.random_partition(rng, sys_.num_states)))
    while len(pairs) < 500:
        base = generate.random_lts(rng, max_states=4)
        sys_, part = generate.plant_internal_feeder(rng, base)
        pairs.append((sys_, part))
    for sys_, part in pairs:
        v = part.collector_bool(sys_.alphabet)
        if lts.check(sys_, v, "branching").passed:
            antecedents += 1
            if not lts.check(sys_, v, "weak").passed:
                failures += 1
    record(
        "5",
        failures == 0 and antecedents >= 100,
        f"branching-passing implies weak-passing on {antecedents} of 500 pairs: {failures} failures",
    )


def test_criterion_06_relational_cross_check():
    rng = seeded(6)
    disagreements = 0
    for _ in range(500):
        sys_ = generate.random_lts(rng, max_states=6)
        v = generate.random_partition(rng, sys_.num_states).collector_bool(sys_.alphabet)
        if check_strong_relational(sys_, v).passed != lts.check(sys_, v, "strong").passed:
            disagreements += 1
    record("6", disagreements == 0, f"relational vs saturation strong check on 500 pairs: {disagreements} disagreements")


def test_criterion_07_lumping_preserves_reward():
    rng = seeded(7)
    worst = 0.0
    for _ in range(100):
        base = generate.random_mrc(rng, n=rng.randint(1, 4))
        chain, part = generate.duplicate_states_mrc(rng, base)
        lumped = mrc.lump(chain, part.collector_real(), "strong")
        for t in (0.0, 0.1, 1.0, 10.0):
            worst = max(worst, abs(total_reward(chain, t) - total_reward(lumped, t)))
    record("7", worst <= 1e-8, f"reward drift under planted ordinary lumping (100 chains): max {worst:.3e}")


def test_criterion_08_ergodic_projection_oracle():
    rng = seeded(8)
    worst_oracle = 0.0
    worst_residual = 0.0
    for _ in range(100):
        n = rng.randint(1, 8)
        q = generate.random_generator(rng, n, p_edge=rng.uniform(0.2, 0.7))
        proj = ergodic_projection(q)
        pi = proj.pi
        worst_residual = max(
            worst_residual,
            float(np.max(np.abs(pi @ pi - pi))),
            float(np.max(np.abs(pi.sum(axis=1) - 1.0))),
        )
        max_rate = float(np.max(np.abs(q)))
        if max_rate > 0.0:
            worst_oracle = max(worst_oracle, float(np.max(np.abs(pi - transition_matrix(q, 1e4 / max_rate)))))
    record(
        "8",
        worst_oracle <= 1e-6 and worst_residual <= 1e-9,
        f"structural projection vs long-horizon evolution: max {worst_oracle:.3e}; "
        f"idempotence/stochasticity residual {worst_residual:.3e}",
    )


def test_criterion_09_weak_degenerates_to_strong():
    rng = seeded(9)
    disagreements = 0
    passes = 0
    for _ in range(200):
        if rng.random() < 0.5:
            chain = generate.random_mrc(rng, n=rng.randint(1, 5))
            part = generate.random_partition(rng, chain.num_states)
        else:
            base = generate.random_mrc(rng, n=rng.randint(1, 3))
            chain, part = generate.duplicate_states_mrc(rng, base)
        v = part.collector_real()
        weak = mrc.check(as_fast_chain(chain), v, "weak").passed
        strong = mrc.check(chain, v, "strong").passed
        passes += strong
        if weak != strong:
            disagreements += 1
    record(
        "9",
        disagreements == 0 and 0 < passes < 200,
        f"weak vs strong verdicts with a zero fast part on 200 pairs ({passes} passing): {disagreements} disagreements",
    )


def test_criterion_10_distributor_certification():
    rng = seeded(10)
    certified = 0
    worst_residual = 0.0
    diagram_failures = 0
    while certified < 50:
        chain, part = generate.fast_funnel_chain(rng)
        v = part.collector_real()
        if not mrc.check(chain, v, "weak").passed:
            continue
        try:
            w = default_tau_distributor(chain, v)
        except Exception:
            continue
        certified += 1
        residuals = tau_distributor_residuals(chain, v, w)
        worst_residual = max(worst_residual, max(residuals.values()))
        if not verify_limit_commutation(chain, v, w, (0.0, 0.5, 1.0, 2.0), tolerance=1e-7):
            diagram_failures += 1
    record(
        "10",
        worst_residual <= 1e-8 and diagram_failures == 0,
        f"50 certified distributors: worst identity residual {worst_residual:.3e}, "
        f"{diagram_failures} commutation failures",
    )


def test_criterion_11_oracle_equivalence():
    rng = seeded(11)
    disagreements = []
    for _ in range(100):
        sys_ = generate.random_lts(rng, n=rng.randint(1, 6))
        for kind in ("strong", "weak", "branching"):
            search = Search(sys_, kind)
            if search.coarsest() != brute_force_coarsest(sys_, search.checker):
                disagreements.append(("lts", kind))
    for _ in range(100):
        if rng.random() < 0.5:
            chain = generate.random_mrc_fast(rng, n=rng.randint(1, 6), p_fast=0.3)
        else:
            base = generate.random_mrc(rng, n=rng.randint(1, 3))
            chain, _ = generate.duplicate_states_mrc(rng, base)
        for kind in ("strong", "weak", "branching"):
            search = Search(chain, kind)
            if search.coarsest() != brute_force_coarsest(chain, search.checker):
                disagreements.append(("mrc", kind))
    record(
        "11",
        not disagreements,
        f"coarsest-partition vs exhaustive oracle, 100 systems + 100 chains, three kinds each: "
        f"{len(disagreements)} disagreements",
    )


def test_criterion_12_probe_completes_and_revalidates(capsys):
    code = cli_main(["probe", "--seed", "0", "--count", "1000", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code in (0, 1)
    assert payload["instances"] >= 1
    if payload["counterexample"] is None:
        record("12", code == 0, f"probe: no counterexample in {payload['instances']} instances")
        return
    ce = payload["counterexample"]
    chain = parse_mrc(ce["model"])
    part = parse_partition(ce["partition"])
    v = part.collector_real()
    branching_again = mrc.check(chain, v, "branching")
    weak_again = mrc.check(chain, v, "weak")
    ok = (
        code == 1
        and ce["revalidated"] is True
        and branching_again.passed
        and not weak_again.passed
        and weak_again.violated == ce["weak_violated"]
    )
    record(
        "12",
        ok,
        f"probe found a branching-but-not-weak chain after {payload['instances']} instances; "
        f"report re-validates ({weak_again.violated})",
    )
