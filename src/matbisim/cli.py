"""Command-line front end: check / refine / lump / closure / project /
reward / diagram / probe over the text model formats."""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import lts as lts_mod, mrc as mrc_mod
from .algebra import ActionMatrix, DEFAULT_ATOL
from .family import FAMILIES, family_of
from .mrc import DistributorError, GeneratorError
from .partition import (
    CheckFailed,
    CheckReport,
    ModelFormatError,
    Partition,
    Search,
    format_partition,
    first_token,
    parse_partition,
)

SCHEMA_VERSION = 1

#: Entries of a checksummed matrix gathered into text at once.
CHUNK = 1 << 14


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: ``parse_args`` returns a fresh namespace
    on every call, and no handler writes to it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=DEFAULT_ATOL, help="absolute tolerance for real comparisons")
    common.add_argument("--json", action="store_true", help="machine-readable report on stdout")

    parser = argparse.ArgumentParser(prog="matbisim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common], help="check a partition against a bisimulation kind")
    p.add_argument("model", type=Path)
    p.add_argument("--partition", type=Path, required=True)
    p.add_argument("--kind", choices=("strong", "weak", "branching"), required=True)

    p = sub.add_parser("refine", parents=[common], help="print the coarsest passing partition")
    p.add_argument("model", type=Path)
    p.add_argument("--kind", choices=("strong", "weak", "branching"), required=True)
    p.add_argument("--oracle", action="store_true", help="cross-run the exhaustive oracle; exit 1 on disagreement")

    p = sub.add_parser("lump", parents=[common], help="write the quotient model")
    p.add_argument("model", type=Path)
    p.add_argument("--partition", type=Path, required=True)
    p.add_argument("--kind", choices=("strong", "weak", "branching"), required=True)
    p.add_argument("--distributor", type=Path, help="explicit distributor file (weak reward-chain lumping)")
    p.add_argument("--output", type=Path, help="write the quotient here instead of stdout")

    p = sub.add_parser("closure", parents=[common], help="close a transition system under internal steps")
    p.add_argument("model", type=Path)
    p.add_argument("--output", type=Path)

    p = sub.add_parser("project", parents=[common], help="ergodic projection of the fast generator")
    p.add_argument("model", type=Path)

    p = sub.add_parser("reward", parents=[common], help="expected reward rate at sample times")
    p.add_argument("model", type=Path)
    p.add_argument("--times", type=float, nargs="+", default=[0.0, 1.0])

    p = sub.add_parser("diagram", parents=[common], help="verify the lump/closure commutation identities")
    p.add_argument("model", type=Path)
    p.add_argument("--partition", type=Path, required=True)
    p.add_argument("--kind", choices=("weak", "branching"), default="weak")
    p.add_argument("--times", type=float, nargs="+", default=[0.0, 0.5, 1.0, 2.0])
    p.add_argument("--distributor", type=Path)

    p = sub.add_parser("probe", parents=[common], help="search for a branching-but-not-weak reward chain")
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--max-states", type=int, default=5)
    p.add_argument("--seed", type=int, default=0, help="seed of the random draw")

    return parser


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _load_model(path: Path):
    text = path.read_text()
    head = first_token(text)
    if head is None:
        raise ModelFormatError(f"{path}: empty model file")
    if head not in FAMILIES:
        raise ModelFormatError(f"{path}: unknown model header {head!r}")
    return FAMILIES[head].parse_model(text)


def _load_partition(path: Path) -> Partition:
    return parse_partition(path.read_text())


def _digest(obj) -> str:
    """First 16 hex digits of the SHA-256 of a matrix's text form (README, "Checksums").
    The text is gathered ``CHUNK`` entries at a time from a table of the chunk's
    distinct nonzero entries, each formatted once, by each entry's code."""
    if isinstance(obj, ActionMatrix):
        planes = obj.planes.reshape(obj.alphabet.size, -1)
        head, size, width, row_end = "bool|" + "|".join(obj.alphabet.names), planes.shape[1], obj.cols, ";"

        def keys(start):  # each entry's bit mask (bit l for label l) as little-endian bytes
            part = planes[:, start : start + CHUNK]
            packed = np.zeros((len(part) + 7 >> 3, part.shape[1]), np.uint8)  # np.packbits is slower along this axis
            for label, plane in enumerate(part):
                packed[label >> 3] |= plane.view(np.uint8) << (label & 7)
            return np.ascontiguousarray(packed.T).view(f"S{len(packed)}").ravel(), packed.any(axis=0)

        text = lambda masks: [str(int.from_bytes(m, "little")) for m in masks.tolist()]
    else:  # bit patterns keep -0.0, NaN payloads and subnormals apart
        bits = np.asarray(obj, dtype=float).ravel().view(np.int64)
        head, size, width, row_end = "real|" + "x".join(map(str, np.shape(obj))), bits.size, 1, ""
        keys = lambda start: (bits[start : start + CHUNK], bits[start : start + CHUNK] != 0)
        text = lambda bits: list(map("{:.17g}".format, bits.view(np.float64).tolist()))
    digest = hashlib.sha256(head.encode() + b"#")
    for start in range(0, size, CHUNK):
        key, nonzero = keys(start)
        distinct, inverse = np.unique(key[nonzero], return_inverse=True)  # zero, code 0, is not sorted
        texts = ["0", *text(distinct)]
        # code c is texts[c] and ",", and c + len(texts) is texts[c] and the row's end
        table = np.array([t + sep for sep in "," + row_end for t in texts], dtype=bytes)
        code = np.zeros(len(key), np.intp)
        code[nonzero] = inverse + 1
        if row_end:
            code[width - 1 - start % width :: width] += len(texts)
        chunk = table[code].tobytes().translate(None, b"\0")
        digest.update(chunk if start + CHUNK < size else chunk[:-1])  # nothing follows the last entry
    return digest.hexdigest()[:16]


def _render_value(value) -> str:
    if isinstance(value, tuple):
        return "{" + ",".join(value) + "}" if value else "0"
    return f"{value:.12g}"


def _emit(cfg: argparse.Namespace, text_lines: list[str], payload: dict) -> None:
    if cfg.json:
        print(json.dumps({"schema": SCHEMA_VERSION, "command": cfg.command, **payload}, ensure_ascii=False))
    else:
        for line in text_lines:
            print(line)


def _report_payload(report: CheckReport) -> dict:
    witness = None
    if report.witness is not None:
        w = report.witness
        witness = {
            "row": w.row,
            "col": w.col,
            "lhs": list(w.lhs) if isinstance(w.lhs, tuple) else w.lhs,
            "rhs": list(w.rhs) if isinstance(w.rhs, tuple) else w.rhs,
            "residual": w.residual,
        }
    return {"verdict": "pass" if report.passed else "fail", "violated": report.violated, "witness": witness}


def _report_lines(report: CheckReport, heading: str) -> list[str]:
    lines = [f"{heading}: {'PASS' if report.passed else 'FAIL'}"]
    if not report.passed:
        w = report.witness
        lines.append(f"violated: {report.violated}")
        lines.append(f"witness at ({w.row}, {w.col}): lhs {_render_value(w.lhs)}, rhs {_render_value(w.rhs)}")
        if w.residual is not None:
            lines.append(f"residual: {w.residual:.6g}")
    return lines


def _format_model(model) -> str:
    return family_of(model).format_model(model)


def _write_or_print(cfg: argparse.Namespace, text: str, payload_key: str) -> None:
    if cfg.output is not None:
        cfg.output.write_text(text)
        if not cfg.json:
            print(f"wrote {cfg.output}")
        else:
            _emit(cfg, [], {payload_key: text, "output": str(cfg.output)})
    else:
        _emit(cfg, [text.rstrip("\n")], {payload_key: text})


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_check(cfg: argparse.Namespace) -> int:
    started = time.perf_counter()
    model = _load_model(cfg.model)
    family = family_of(model)
    part = _load_partition(cfg.partition)
    v = family.collector(model, part)
    report, rows = family.evaluate(model, v, cfg.kind, atol=cfg.tol)
    elapsed = time.perf_counter() - started
    checksums = {"V": _digest(v), **{name: _digest(x) for name, x in rows}}
    payload = {
        "kind": cfg.kind,
        "model": str(cfg.model),
        **_report_payload(report),
        "partition": [list(b) for b in part.blocks],
        "checksums": checksums,
        "elapsed_s": elapsed,
    }
    heading = f"check {cfg.kind} on {cfg.model} with partition {[list(b) for b in part.blocks]}"
    _emit(cfg, _report_lines(report, heading), payload)
    return 0 if report.passed else 1


def cmd_refine(cfg: argparse.Namespace) -> int:
    model = _load_model(cfg.model)
    search = Search(model, cfg.kind, atol=cfg.tol)
    part = search.coarsest()
    oracle = search.oracle if cfg.oracle else None
    # Up to tolerance the coarsest partition need not be unique; a passing
    # refinement with the oracle's block count is as coarse as the oracle's.
    agrees = None if oracle is None else oracle == part or (
        oracle.num_blocks == part.num_blocks and search.checker(model, part).passed
    )
    text = format_partition(part)
    payload = {
        "kind": cfg.kind,
        "model": str(cfg.model),
        "partition": [list(b) for b in part.blocks],
        "blocks": part.num_blocks,
        "oracle": None if oracle is None else [list(b) for b in oracle.blocks],
        "oracle_agrees": agrees,
    }
    lines = [text.rstrip("\n")]
    if cfg.oracle:
        lines.append(f"oracle agrees: {agrees}")
    _emit(cfg, lines, payload)
    if cfg.oracle and not agrees:
        print("error: refinement and oracle disagree", file=sys.stderr)
        return 1
    return 0


def cmd_lump(cfg: argparse.Namespace) -> int:
    model = _load_model(cfg.model)
    family = family_of(model)
    v = family.collector(model, _load_partition(cfg.partition))
    w = family.read_distributor(cfg.distributor) if cfg.distributor else None
    # an explicit distributor changes only the weak quotient
    w = w if cfg.kind == "weak" else None
    lumped = family.lump(model, v, cfg.kind, atol=cfg.tol, distributor=w)
    text = _format_model(lumped)
    family.parse_model(text)  # the written quotient must read back
    _write_or_print(cfg, text, "model")
    return 0


def cmd_closure(cfg: argparse.Namespace) -> int:
    model = _load_model(cfg.model)
    if family_of(model) is not lts_mod:
        raise ValueError("closure applies to transition systems only")
    text = lts_mod.format_lts(lts_mod.tau_closure(model))
    _write_or_print(cfg, text, "model")
    return 0


def cmd_project(cfg: argparse.Namespace) -> int:
    model = _load_model(cfg.model)
    if family_of(model) is not mrc_mod:
        raise ValueError("projection applies to reward chains only")
    fast = mrc_mod.as_fast_chain(model)
    proj = mrc_mod.ergodic_projection(fast.qf)
    lines = [np.array2string(proj.pi, precision=10, suppress_small=False)]
    lines.append("recurrent classes: " + " ".join("{" + ",".join(map(str, c)) + "}" for c in proj.recurrent_classes))
    lines.append("transient: {" + ",".join(map(str, proj.transient)) + "}")
    payload = {
        "model": str(cfg.model),
        "pi": proj.pi.tolist(),
        "recurrent_classes": [list(c) for c in proj.recurrent_classes],
        "transient": list(proj.transient),
    }
    _emit(cfg, lines, payload)
    return 0


def cmd_reward(cfg: argparse.Namespace) -> int:
    model = _load_model(cfg.model)
    if family_of(model) is not mrc_mod:
        raise ValueError("reward applies to reward chains only")
    fast = mrc_mod.as_fast_chain(model)
    limit = mrc_mod.limit_chain(fast, atol=cfg.tol) if np.any(fast.qf != 0.0) else None
    # σ e^(Qt) ρ, or the limit chain's (σA) e^(Gt) (Eρ) on its classes, Π = A E (Qs was validated when read)
    generator, left, right = (fast.qs, fast.sigma, fast.rho) if limit is None else (
        limit.generator, fast.sigma @ limit.projection.trapping, limit.projection.stationary @ fast.rho)
    is_limit = limit is not None
    del model, fast, limit  # hold no n × n array through the exponentials
    matrices = mrc_mod.transition_matrices(generator, cfg.times, atol=cfg.tol, require_generator=False)
    # unlike a loop variable, map holds no matrix while the next is computed
    values = list(map(lambda p: float(left @ p @ right), matrices))
    lines = [f"R({t:g}) = {v:.12g}" for t, v in zip(cfg.times, values)]
    if is_limit:
        lines.insert(0, "fast transitions present: reporting the limit-chain reward")
    payload = {"model": str(cfg.model), "times": list(cfg.times), "values": values, "limit": is_limit}
    _emit(cfg, lines, payload)
    return 0


def cmd_diagram(cfg: argparse.Namespace) -> int:
    model = _load_model(cfg.model)
    family = family_of(model)
    v = family.collector(model, _load_partition(cfg.partition))
    w = family.read_distributor(cfg.distributor) if cfg.distributor else None
    if family is lts_mod:
        if cfg.kind == "weak":
            ok = lts_mod.verify_weak_commutation(model, v)
        else:
            ok = lts_mod.verify_branching_commutation(model, v)
        detail = {"identities": "lumping commutes with internal closure"}
    else:
        if cfg.kind != "weak":
            raise ValueError("no branching commutation statement is available for reward chains")
        ok = mrc_mod.verify_limit_commutation(model, v, w, cfg.times, atol=cfg.tol)
        detail = {"times": list(cfg.times)}
    payload = {"kind": cfg.kind, "model": str(cfg.model), "verdict": "pass" if ok else "fail", **detail}
    _emit(cfg, [f"diagram {cfg.kind} on {cfg.model}: {'PASS' if ok else 'FAIL'}"], payload)
    return 0 if ok else 1


def cmd_probe(cfg: argparse.Namespace) -> int:
    from . import generate  # only here: every other command skips compiling it

    result = generate.probe_branching_weak(cfg.seed, cfg.count, max_states=cfg.max_states, atol=cfg.tol)
    if result.counterexample is None:
        lines = [f"no counterexample in {result.instances} instances (seed {cfg.seed})"]
        payload = {"seed": cfg.seed, "instances": result.instances, "counterexample": None}
        _emit(cfg, lines, payload)
        return 0
    ce = result.counterexample
    model_text = mrc_mod.format_mrc(ce.model)
    part_text = format_partition(ce.partition)
    lines = [
        f"counterexample after {result.instances} instances (seed {cfg.seed}):",
        "the branching check passes but the weak check fails on "
        + repr(ce.weak_violated),
        f"re-validated through text round-trip: {ce.revalidated}",
        "--- model ---",
        model_text.rstrip("\n"),
        "--- partition ---",
        part_text.rstrip("\n"),
    ]
    payload = {
        "seed": cfg.seed,
        "instances": result.instances,
        "counterexample": {
            "model": model_text,
            "partition": part_text,
            "weak_violated": ce.weak_violated,
            "revalidated": ce.revalidated,
        },
    }
    _emit(cfg, lines, payload)
    return 1


_HANDLERS = {
    "check": cmd_check,
    "refine": cmd_refine,
    "lump": cmd_lump,
    "closure": cmd_closure,
    "project": cmd_project,
    "reward": cmd_reward,
    "diagram": cmd_diagram,
    "probe": cmd_probe,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        cfg = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if not (math.isfinite(cfg.tol) and cfg.tol > 0):
            raise ValueError("tolerance must be positive and finite")
        if not all(math.isfinite(t) and t >= 0 for t in getattr(cfg, "times", ())):
            raise ValueError("times must be nonnegative and finite")
        return _HANDLERS[cfg.command](cfg)
    except (CheckFailed, DistributorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ModelFormatError, GeneratorError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
