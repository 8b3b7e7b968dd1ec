#!/usr/bin/env python3
"""Walk the bundled models through checks, quotients, and projections.

Run from the repository root:

    python3 scripts/run_showcase.py
"""

from pathlib import Path

import numpy as np

from matbisim import (
    Partition,
    Search,
    default_tau_distributor,
    ergodic_projection,
    format_lts,
    lts,
    mrc,
    parse_lts,
    parse_mrc,
    parse_partition,
    tau_closure,
    total_reward,
    verify_limit_commutation,
)
from matbisim.mrc import as_fast_chain

MODELS = Path(__file__).resolve().parents[1] / "models"


def banner(title: str) -> None:
    print()
    print("=" * 66)
    print(title)
    print("=" * 66)


def main() -> None:
    banner("four_state.lts: strong bisimulation")
    sys4 = parse_lts((MODELS / "four_state.lts").read_text())
    ident = parse_partition((MODELS / "four_state_identity.partition").read_text())
    merge = parse_partition((MODELS / "four_state_merge_siblings.partition").read_text())
    for name, part in (("identity", ident), ("merge siblings", merge)):
        rep = lts.check(sys4, part.collector_bool(sys4.alphabet), "strong")
        print(f"  {name}: {'pass' if rep.passed else f'fail ({rep.violated})'}")
    print("  coarsest strong partition:", Search(sys4, "strong").coarsest().blocks)

    banner("tau_pair.lts: weak quotient and internal closure")
    pair = parse_lts((MODELS / "tau_pair.lts").read_text())
    merged = parse_partition((MODELS / "tau_pair_merged.partition").read_text())
    v = merged.collector_bool(pair.alphabet)
    print("  strong:", lts.check(pair, v, "strong").passed, " weak:", lts.check(pair, v, "weak").passed)
    print("  weak quotient:")
    for line in format_lts(lts.lump(pair, v, "weak")).strip().splitlines():
        print("   ", line)
    print("  closure termination column:", [row[0] != 0 for row in tau_closure(pair).terminating.data])

    banner("absorbing_reward.mrc: transient rewards")
    chain = parse_mrc((MODELS / "absorbing_reward.mrc").read_text())
    for t in (0.0, 0.5, 1.0, 5.0):
        print(f"  R({t}) = {total_reward(chain, t):.6f}")

    banner("fast_absorbing.mrc: weak lumping with a certified distributor")
    fast = as_fast_chain(parse_mrc((MODELS / "fast_absorbing.mrc").read_text()))
    whole = Partition.single_block(2)
    v2 = whole.collector_real()
    print("  projection:\n", np.array2string(ergodic_projection(fast.qf).pi, prefix="   "))
    print("  weak check:", mrc.check(fast, v2, "weak").passed)
    w = default_tau_distributor(fast, v2)
    print("  distributor:", w)
    print("  limit/lump commutation:", verify_limit_commutation(fast, v2, w))

    banner("branching_not_weak.mrc: the branching check does not imply the weak one")
    witness = parse_mrc((MODELS / "branching_not_weak.mrc").read_text())
    part = parse_partition((MODELS / "branching_not_weak.partition").read_text())
    vw = part.collector_real()
    print("  branching:", mrc.check(witness, vw, "branching").passed)
    weak = mrc.check(witness, vw, "weak")
    print("  weak:", weak.passed, f"({weak.violated}, residual {weak.witness.residual:g})")


if __name__ == "__main__":
    main()
