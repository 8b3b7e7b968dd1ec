#!/usr/bin/env python3
"""Scale ladder: time the coarsest-partition search on large seeded models
and append one record to ``BENCH_scale.json``.

    python3 scripts/scale.py
    python3 scripts/scale.py --root /tmp/old --out BENCH_scale.json

A point is one model family, base size and kind.  The models are the
benchmark's own generators, ``perfbench/workloads.py`` ``planted_lts`` and
``funnel_mrc``, seeded with ``random.Random(f"size/{base}")``, so the
program cannot choose its inputs.  Each point runs in a fresh process that
builds and parses the model, then times ``Search(model, kind).coarsest()``.
The process limits itself: a wall-clock alarm of ``--cap-s`` seconds
(``signal.setitimer``) and an address space of ``--memory-mb``
(``resource.setrlimit``).  A point that hits either limit is recorded as
``timeout`` or ``out_of_memory``; a point is never dropped.  Peak RSS is
the process's ``ru_maxrss``.

The record holds the commit of ``--root`` (with ``dirty`` when its source
differs from that commit; null outside a git checkout), the git tree id of
its ``src`` as measured (``src_tree``, equal to ``git rev-parse <commit>:src``
of the commit that holds that source), the limits, each point's status,
seconds, peak RSS in MB, states, blocks and refinement rounds (the calls of
``partition.split_by_keys``, counted by wrapping it in the point's process;
0 where the search is the exhaustive oracle), and the line counts of
``src/matbisim/*.py`` (as ``wc -l`` prints them), the net-lines metric.
Points run one at a time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FAMILIES = ("planted_lts", "funnel_mrc")
KINDS = ("strong", "weak", "branching")
OUT_OF_MEMORY = (
    "MemoryError",
    "Unable to allocate",
    "failed to map segment",
    "Memory allocation still failed",
    "pthread_create failed",
)

# A point's process: argv is root, family, base, kind, cap seconds, memory MB.
# It prints one JSON line with its status.
CHILD = r"""
import json, random, resource, signal, sys, time
root, family, base, kind, cap_s, memory_mb = sys.argv[1:7]
limit = int(memory_mb) * 2**20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.path[:0] = [root + "/perfbench", root + "/src"]


class Timeout(Exception):
    pass


def expire(signum, frame):
    raise Timeout


out = {}
signal.signal(signal.SIGALRM, expire)
signal.setitimer(signal.ITIMER_REAL, float(cap_s))
try:
    import workloads
    from matbisim import parse_lts, parse_mrc, partition
    from matbisim.partition import Search

    # A refinement round is one call of split_by_keys; count them here.
    rounds = 0
    split_by_keys = partition.split_by_keys

    def counted_split(p, keys):
        global rounds
        rounds += 1
        return split_by_keys(p, keys)

    partition.split_by_keys = counted_split

    rng = random.Random(f"size/{base}")
    if family == "planted_lts":
        model = parse_lts(workloads.format_lts(workloads.planted_lts(rng, int(base))[0]))
    else:
        model = parse_mrc(workloads.format_mrc(workloads.funnel_mrc(rng, int(base))[0]))
    out["states"] = model.num_states
    t0 = time.perf_counter()
    blocks = Search(model, kind).coarsest().num_blocks
    out.update(status="ok", seconds=round(time.perf_counter() - t0, 3), blocks=blocks, rounds=rounds)
except Timeout:
    out["status"] = "timeout"
except MemoryError:
    out["status"] = "out_of_memory"
signal.setitimer(signal.ITIMER_REAL, 0)
out["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
print(json.dumps(out))
"""


def run_point(root: Path, family: str, base: int, kind: str, cap_s: float, memory_mb: int) -> dict:
    point = {"family": family, "base": base, "kind": kind}
    argv = [sys.executable, "-c", CHILD, str(root), family, str(base), kind, str(cap_s), str(memory_mb)]
    try:
        # The alarm fires between bytecodes; one long array operation can
        # outlast it, so the process is also killed a little later.
        done = subprocess.run(argv, capture_output=True, text=True, timeout=cap_s + 30)
    except subprocess.TimeoutExpired:
        return {**point, "status": "timeout"}
    lines = done.stdout.strip().splitlines()
    if done.returncode == 0 and lines:
        return {**point, **json.loads(lines[-1])}
    # Loading a library, or OpenBLAS allocating its buffers or starting its
    # threads, fails past the limit with an error of its own or an abort
    # rather than MemoryError.
    tail = done.stderr.strip().splitlines()[-1:] or [f"exit {done.returncode}"]
    memory = any(word in done.stderr for word in OUT_OF_MEMORY)
    return {**point, "status": "out_of_memory" if memory else "error", "detail": tail[0]}


def git(root: Path, *args: str) -> str | None:
    done = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def source_tree(root: Path) -> str | None:
    """The id of the tree of ``src`` as it is on disk: what ``git rev-parse
    <commit>:src`` prints for the commit that holds these files, so a record
    taken from a dirty checkout names the commit it measured."""
    names = git(root, "ls-files", "--cached", "--others", "--exclude-standard", "--", "src")
    if names is None:
        return None
    top: dict = {}
    for name in names.splitlines():
        path = root / name
        if path.is_file():
            *dirs, leaf = Path(name).relative_to("src").parts
            node = top
            for part in dirs:
                node = node.setdefault(part, {})
            node[leaf] = path

    def digest(kind: bytes, body: bytes) -> bytes:
        return hashlib.sha1(b"%s %d\0" % (kind, len(body)) + body).digest()

    def tree(node: dict) -> bytes:
        # git orders a tree's entries by name, a directory's name ending in "/"
        entries = []
        for name, child in node.items():
            if isinstance(child, dict):
                entries.append((name + "/", b"40000", name, tree(child)))
            else:
                mode = b"100755" if os.access(child, os.X_OK) else b"100644"
                entries.append((name, mode, name, digest(b"blob", child.read_bytes())))
        body = b"".join(b"%s %s\0" % (mode, name.encode()) + sha for _, mode, name, sha in sorted(entries))
        return digest(b"tree", body)

    return tree(top).hex()


def source_lines(root: Path) -> dict[str, int]:
    files = sorted((root / "src" / "matbisim").glob("*.py"))
    lines = {f"src/matbisim/{f.name}": len(f.read_bytes().splitlines()) for f in files}
    return {**lines, "total": sum(lines.values())}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", type=Path, default=ROOT, help="git checkout whose src and perfbench are measured")
    parser.add_argument("--bases", type=int, nargs="+", default=[600, 1200, 2400])
    parser.add_argument("--cap-s", type=float, default=60.0, help="wall-clock cap per point")
    parser.add_argument("--memory-mb", type=int, default=2048, help="address-space limit per point")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_scale.json")
    args = parser.parse_args()

    root = args.root.resolve()
    record = {
        "commit": git(root, "rev-parse", "HEAD"),
        "dirty": git(root, "status", "--porcelain", "--", "src") not in ("", None),
        "src_tree": source_tree(root),
        "cap_s": args.cap_s,
        "memory_mb": args.memory_mb,
        "cpus": os.cpu_count(),
        "points": [],
        "source_lines": source_lines(root),
    }
    for family in FAMILIES:
        for base in args.bases:
            for kind in KINDS:
                point = run_point(root, family, base, kind, args.cap_s, args.memory_mb)
                record["points"].append(point)
                print(json.dumps(point), flush=True)
    history = json.loads(args.out.read_text()) if args.out.exists() else []
    history.append(record)
    args.out.write_text(json.dumps(history, indent=1) + "\n")
    print(f"appended a record of {len(record['points'])} points to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
