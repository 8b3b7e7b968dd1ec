#!/usr/bin/env python3
"""Byte-identity corpus for the command-line front end.

Writes the bundled models, the malformed files of ``models/malformed`` and a
seeded set of generated models into a work directory, runs every command on
them in process through ``matbisim.cli.main`` (text and ``--json``; 90
models and 20 malformed files, 4140 runs), and prints one line per run:
the argv, the exit code and the SHA-256 of stdout and stderr.  Only
``elapsed_s`` is removed from JSON output before hashing.  All paths are
relative to the work directory, so two versions of the program give the
same lines exactly when they behave the same:

    git archive A | tar -x -C /tmp/a ; git archive B | tar -x -C /tmp/b
    python3 /tmp/a/scripts/cli_corpus.py > a.txt
    python3 /tmp/b/scripts/cli_corpus.py > b.txt
    diff a.txt b.txt

``--src DIR`` imports ``matbisim`` from the source tree ``DIR`` instead of
the one next to this script.  Commits older than the script have no copy
of it, so they are compared by running this copy against their ``src``:

    python3 scripts/cli_corpus.py --src /tmp/old/src > old.txt

``--against DIR`` does the whole comparison in one command: it runs the
corpus on the source tree ``DIR`` (or the checkout ``DIR`` whose ``src`` it
is) and on ``--src``, each in a fresh process, prints only the lines that
differ (``-`` for ``DIR``, ``+`` for ``--src``) and exits 1 if any do:

    git archive A | tar -x -C /tmp/a
    python3 scripts/cli_corpus.py --against /tmp/a
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

KINDS = ("strong", "weak", "branching")

#: Non-default ``--tol`` values at which every chain is refined.
TOLERANCES = ("1e-6", "1e-16")

#: Seed of the generated models; the corpus is one fixed set of runs.
SEED = 7

#: Files that each fail to parse at one line; ``check`` and ``refine`` must
#: name it with exit 2.
MALFORMED = ROOT / "models" / "malformed"

#: Bundled models and the bundled partitions that fit them.
BUNDLED = {
    "four_state.lts": ["four_state_identity.partition", "four_state_merge_siblings.partition"],
    "tau_pair.lts": ["tau_pair_merged.partition"],
    "branching_not_weak.mrc": ["branching_not_weak.partition"],
    "fast_absorbing.mrc": [],
    "absorbing_reward.mrc": [],
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _distributor_text(u) -> str:
    rows = [" ".join(repr(float(x)) for x in row) for row in u]
    return f"dist {u.shape[0]} {u.shape[1]}\n" + "\n".join(rows) + "\n"


def near_tolerance_chains() -> list:
    """Chains whose rows differ by steps within the default tolerance, so
    refinement has to cut groups of near-equal rows: rewards rising by
    0.9 tolerance, and twice-cloned chains with rewards and rates moved by
    up to 1 and 3 tolerances.  They have their own seeds, so the generated
    models above do not move."""
    import numpy as np

    from matbisim import generate
    from matbisim.algebra import DEFAULT_ATOL
    from matbisim.mrc import MrcFast, parse_mrc

    def jitter(noise, q, scale):
        q = q.copy()
        np.fill_diagonal(q, 0.0)
        present = q > 0.0
        q[present] += scale * noise.uniform(-1.0, 1.0, present.sum())
        np.fill_diagonal(q, -q.sum(axis=1))
        return q

    chains = [(parse_mrc("mrc 4\ninit 0:1\nreward 0 0.9e-9 1.8e-9 2.7e-9\n"), None)]
    for seed, scale in ((4, DEFAULT_ATOL), (6, 3 * DEFAULT_ATOL)):
        rng, noise = random.Random(seed), np.random.default_rng(seed)
        chain, _ = generate.duplicate_states_mrc(rng, generate.random_mrc_fast(rng, max_states=3))
        chain, planted = generate.duplicate_states_mrc(rng, chain, p_clone=0.9)
        rho = chain.rho + scale * noise.uniform(-1.0, 1.0, chain.num_states)
        qs, qf = jitter(noise, chain.qs, scale), jitter(noise, chain.qf, scale)
        chains.append((MrcFast(chain.sigma, qs, qf, rho), planted))
    return chains


def write_models(work: Path) -> list[tuple[str, list[str], str | None]]:
    """Write every model, partition and distributor file; return
    ``(model, partitions, distributor)`` names."""
    from matbisim import generate
    from matbisim.algebra import ActionAlphabet
    from matbisim.lts import format_lts, parse_lts
    from matbisim.mrc import format_mrc, parse_mrc
    from matbisim.partition import Partition, format_partition

    entries = []
    for model, parts in BUNDLED.items():
        shutil.copy(ROOT / "models" / model, work / model)
        for part in parts:
            shutil.copy(ROOT / "models" / part, work / part)
        n = (parse_lts if model.endswith(".lts") else parse_mrc)((work / model).read_text()).num_states
        ident = f"{model}.identity.partition"
        (work / ident).write_text(format_partition(Partition.identity(n)))
        entries.append((model, [ident, *parts], None))

    shutil.copytree(MALFORMED, work / MALFORMED.name)

    rng = random.Random(SEED)
    wide = ActionAlphabet(tuple(f"l{i}" for i in range(70)))
    systems = []
    systems += [(generate.random_lts(rng, max_states=6), None) for _ in range(24)]
    systems += [generate.duplicate_states_lts(rng, generate.random_lts(rng, max_states=3)) for _ in range(8)]
    systems += [generate.plant_internal_feeder(rng, generate.random_lts(rng, max_states=4)) for _ in range(4)]
    systems += [(generate.random_lts(rng, n=rng.randint(3, 6), alphabet=wide), None) for _ in range(4)]
    systems += [(generate.random_lts(rng, n=rng.randint(25, 40), p_visible=0.08, p_internal=0.05), None)
                for _ in range(2)]
    chains = []
    chains += [(generate.random_mrc_fast(rng, max_states=6), None) for _ in range(16)]
    chains += [(generate.random_mrc(rng, max_states=6), None) for _ in range(8)]
    chains += [generate.duplicate_states_mrc(rng, generate.random_mrc_fast(rng, max_states=3)) for _ in range(8)]
    chains += [generate.fast_funnel_chain(rng) for _ in range(6)]
    chains += [generate.fast_funnel_chain(rng, base_states=rng.randint(18, 24)) for _ in range(2)]

    named = [(f"gen{i:03d}.{'lts' if i < len(systems) else 'mrc'}", model, planted)
             for i, (model, planted) in enumerate(systems + chains)]
    named += [(f"near{i}.mrc", model, planted) for i, (model, planted) in enumerate(near_tolerance_chains())]
    for name, model, planted in named:
        (work / name).write_text(format_lts(model) if name.endswith(".lts") else format_mrc(model))
        parts = [generate.random_partition(rng, model.num_states)]
        if planted is not None:
            parts.append(planted)
        part_names = []
        for j, part in enumerate(parts):
            part_names.append(f"{name}.{j}.partition")
            (work / part_names[-1]).write_text(format_partition(part))
        dist = f"{name}.dist"
        (work / dist).write_text(_distributor_text(generate.random_real_distributor(rng, parts[-1])))
        entries.append((name, part_names, dist))
    return entries


def runs(entries) -> list[list[str]]:
    """Every argv of the corpus, without ``--json``."""
    out = []
    for model, parts, dist in entries:
        chain = model.endswith(".mrc")
        # only chains take a distributor file; transition systems refuse one
        dist_args = ["--distributor", dist] if dist and chain else []
        for kind in KINDS:
            out.append(["refine", model, "--kind", kind, "--oracle"])
            for part in parts:
                out.append(["check", model, "--partition", part, "--kind", kind])
                out.append(["lump", model, "--partition", part, "--kind", kind])
        for part in parts:
            if dist_args:  # without one, these two runs are the kind loop's
                out.append(["lump", model, "--partition", part, "--kind", "weak", *dist_args])
                out.append(["lump", model, "--partition", part, "--kind", "strong", *dist_args])
            out.append(["diagram", model, "--partition", part, "--kind", "weak", *dist_args])
            out.append(["diagram", model, "--partition", part, "--kind", "branching"])
        if chain:
            out.append(["lump", model, "--partition", parts[0], "--kind", "weak", "--distributor", "missing.dist"])
        out.append(["closure", model])
        out.append(["project", model])
        out.append(["reward", model, "--times", "0", "0.5", "3"])
        if chain:
            out.append(["reward", model, "--times", "1e4", "1e6"])  # long horizons
            # --tol governs the comparisons only, far from and near the rounding error
            for tol in TOLERANCES:
                out += [["refine", model, "--kind", kind, "--tol", tol] for kind in KINDS]
    out.append(["lump", "four_state.lts", "--partition", "four_state_identity.partition", "--kind", "strong",
                "--output", "out.lts"])
    out.append(["closure", "tau_pair.lts", "--output", "out.lts"])
    out.append(["check", "missing.lts", "--partition", "four_state_identity.partition", "--kind", "strong"])
    out.append(["check", "four_state.lts", "--partition", "tau_pair_merged.partition", "--kind", "weak"])
    for command in ("lump", "diagram"):  # the distributor refusal, once per command
        out.append([command, "tau_pair.lts", "--partition", "tau_pair_merged.partition", "--kind", "weak",
                    "--distributor", "missing.dist"])
    for seed in range(4):
        out.append(["probe", "--seed", str(seed), "--count", "40", "--max-states", "4"])
    for path in sorted(MALFORMED.iterdir()):
        bad = f"{MALFORMED.name}/{path.name}"
        if path.suffix == ".partition":
            out.append(["check", "four_state.lts", "--partition", bad, "--kind", "strong"])
        else:
            out.append(["check", bad, "--partition", "four_state_identity.partition", "--kind", "strong"])
            out.append(["refine", bad, "--kind", "strong"])
    return out


def run_one(main, argv: list[str]) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = str(main(argv))
        except BaseException as exc:  # a traceback breaks the CLI contract; record it
            code = f"raised {type(exc).__name__}"
    out = stdout.getvalue()
    if "--json" in argv and out.strip():
        try:
            payload = json.loads(out)
            payload.pop("elapsed_s", None)
            out = json.dumps(payload, ensure_ascii=False)
        except ValueError:
            pass
    line = f"{' '.join(argv)} | exit {code} | out {_sha(out)} | err {_sha(stderr.getvalue())}"
    if "--output" in argv and Path("out.lts").exists():
        line += f" | file {_sha(Path('out.lts').read_text())}"
        os.remove("out.lts")
    return line


def compare(src: Path, against: Path) -> int:
    """Run the corpus on both trees, one after the other; print the lines that differ."""
    if (against / "src" / "matbisim").is_dir():
        against = against / "src"
    done = [subprocess.run([sys.executable, __file__, "--src", str(tree)], stdout=subprocess.PIPE, text=True)
            for tree in (against, src)]
    if any(proc.returncode for proc in done):
        print("# a corpus run failed", file=sys.stderr)
        return 2
    old, new = (proc.stdout.splitlines() for proc in done)
    differing = 0
    for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(None, old, new, autojunk=False).get_opcodes():
        if tag != "equal":
            for line in old[i1:i2]:
                print(f"- {line}")
            for line in new[j1:j2]:
                print(f"+ {line}")
            differing += (i2 - i1) + (j2 - j1)
    print(f"# {differing} differing lines of {len(old)} and {len(new)}", file=sys.stderr)
    return 1 if differing else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="source tree to import matbisim from")
    parser.add_argument("--against", type=Path, help="source tree or checkout to compare with; print differences only")
    args = parser.parse_args()
    if args.against is not None:
        return compare(args.src.resolve(), args.against.resolve())
    sys.path.insert(0, str(args.src.resolve()))
    from matbisim.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        os.chdir(work)
        entries = write_models(work)
        argvs = runs(entries)
        for argv in argvs:
            for extra in ([], ["--json"]):
                print(run_one(cli_main, argv + extra))
        print(f"# {len(entries)} models, {2 * len(argvs)} runs", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
