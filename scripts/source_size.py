#!/usr/bin/env python3
"""Size of each module of ``src/matbisim``: lines, tokens, and the distance
to the next compile-memory step.

Lines are counted as ``wc -l`` counts them.  Tokens are counted as ROADMAP
item 1 counts them: every token of ``tokenize`` that is not a comment or a
non-logical newline, so a docstring is one token.  The compiler's peak
memory steps up once a module passes a multiple of 4096 tokens, and the
benchmark compiles the modules from source in every run, so ``to_step`` is
the number of tokens a module can grow before its next step.

    python3 scripts/source_size.py            # the modules next to this script
    python3 scripts/source_size.py --src DIR  # the modules of the package DIR
"""

from __future__ import annotations

import argparse
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Token counts at which the compiler's peak memory steps up.
STEP = 4096


def count_tokens(path: Path) -> int:
    with tokenize.open(path) as source:
        return sum(t.type not in (tokenize.COMMENT, tokenize.NL) for t in tokenize.generate_tokens(source.readline))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src" / "matbisim", help="package directory")
    args = parser.parse_args(argv)
    print(f"{'module':<16} {'lines':>6} {'tokens':>7} {'next_step':>9} {'to_step':>7}")
    total = 0
    for path in sorted(args.src.glob("*.py")):
        lines = path.read_bytes().count(b"\n")
        tokens = count_tokens(path)
        step = (tokens // STEP + 1) * STEP
        total += lines
        print(f"{path.name:<16} {lines:>6} {tokens:>7} {step:>9} {step - tokens:>7}")
    print(f"{'total':<16} {total:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
