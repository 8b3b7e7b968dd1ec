"""Command-line front end: check / refine / lump / closure / project /
reward / diagram / probe over the text model formats."""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import generate, lts as lts_mod, mrc as mrc_mod
from .algebra import ActionMatrix, DEFAULT_ATOL
from .mrc import DistributorError, GeneratorError, MrcFast
from .partition import (
    CheckFailed,
    CheckReport,
    ModelFormatError,
    Partition,
    brute_force_coarsest,
    coarsest_partition,
    format_partition,
    parse_partition,
    standard_checker,
    content_lines,
)

SCHEMA_VERSION = 1


@dataclass
class RunConfig:
    command: str
    tol: float = DEFAULT_ATOL
    json_output: bool = False
    seed: int = 0
    strict_def3: bool = False
    model: Path | None = None
    partition: Path | None = None
    kind: str = "strong"
    times: tuple[float, ...] = (0.0, 1.0)
    oracle: bool = False
    output: Path | None = None
    distributor: Path | None = None
    count: int = 1000
    max_states: int = 5


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=DEFAULT_ATOL, help="absolute tolerance for real comparisons")
    common.add_argument("--json", action="store_true", help="machine-readable report on stdout")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized subcommands")
    common.add_argument(
        "--strict-def3",
        action="store_true",
        help="use the literal variant of the weak middle equality (VUΠAΠV = ΠV)",
    )

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

    return parser


def _config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    cfg.tol = args.tol
    cfg.json_output = args.json
    cfg.seed = args.seed
    cfg.strict_def3 = args.strict_def3
    for name in ("model", "partition", "kind", "oracle", "output", "distributor", "count", "max_states"):
        if hasattr(args, name):
            setattr(cfg, name, getattr(args, name))
    if getattr(args, "times", None) is not None:
        cfg.times = tuple(args.times)
    if cfg.tol <= 0:
        raise ValueError("tolerance must be positive")
    if any(t < 0 for t in cfg.times):
        raise ValueError("times must be nonnegative")
    return cfg


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _load_model(path: Path, tol: float):
    text = path.read_text()
    lines = content_lines(text)
    if not lines:
        raise ModelFormatError(f"{path}: empty model file")
    head = lines[0][1][0]
    if head == "lts":
        return lts_mod.parse_lts(text)
    if head == "mrc":
        return mrc_mod.parse_mrc(text, atol=tol)
    raise ModelFormatError(f"{path}: unknown model header {head!r}")


def _load_partition(path: Path) -> Partition:
    return parse_partition(path.read_text())


def _digest(obj) -> str:
    if isinstance(obj, ActionMatrix):
        payload = (
            "bool|" + "|".join(obj.alphabet.names)
            + "#" + ";".join(",".join(str(m) for m in row) for row in obj.data)
        )
    else:
        arr = np.asarray(obj, dtype=float)
        payload = "real|" + "x".join(map(str, arr.shape)) + "#" + ",".join(f"{x:.17g}" for x in arr.ravel())
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _render_value(value) -> str:
    if isinstance(value, tuple):
        return "{" + ",".join(value) + "}" if value else "0"
    return f"{value:.12g}"


def _emit(cfg: RunConfig, text_lines: list[str], payload: dict) -> None:
    if cfg.json_output:
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
    if isinstance(model, lts_mod.Lts):
        return lts_mod.format_lts(model)
    return mrc_mod.format_mrc(model)


def _write_or_print(cfg: RunConfig, text: str, payload_key: str) -> None:
    if cfg.output is not None:
        cfg.output.write_text(text)
        if not cfg.json_output:
            print(f"wrote {cfg.output}")
        else:
            _emit(cfg, [], {payload_key: text, "output": str(cfg.output)})
    else:
        _emit(cfg, [text.rstrip("\n")], {payload_key: text})


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_check(cfg: RunConfig) -> int:
    started = time.perf_counter()
    model = _load_model(cfg.model, cfg.tol)
    part = _load_partition(cfg.partition)
    if isinstance(model, lts_mod.Lts):
        v = part.collector_bool(model.alphabet)
        report, rows = lts_mod.evaluate(model, v, cfg.kind, strict_middle=cfg.strict_def3)
    else:
        v = part.collector_real()
        report, rows = mrc_mod.evaluate(model, v, cfg.kind, cfg.tol)
    elapsed = time.perf_counter() - started
    checksums = {"V": _digest(v), **{row[0]: _digest(row[1]) for row in rows}}
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


def cmd_refine(cfg: RunConfig) -> int:
    model = _load_model(cfg.model, cfg.tol)
    part = coarsest_partition(model, cfg.kind, atol=cfg.tol, strict_middle=cfg.strict_def3)
    agrees = None
    oracle_blocks = None
    if cfg.oracle:
        checker = standard_checker(model, cfg.kind, atol=cfg.tol, strict_middle=cfg.strict_def3)
        oracle = brute_force_coarsest(model, checker)
        oracle_blocks = [list(b) for b in oracle.blocks]
        agrees = oracle == part
    text = format_partition(part)
    payload = {
        "kind": cfg.kind,
        "model": str(cfg.model),
        "partition": [list(b) for b in part.blocks],
        "blocks": part.num_blocks,
        "oracle": oracle_blocks,
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


def cmd_lump(cfg: RunConfig) -> int:
    model = _load_model(cfg.model, cfg.tol)
    part = _load_partition(cfg.partition)
    if isinstance(model, lts_mod.Lts):
        v = part.collector_bool(model.alphabet)
        if cfg.kind == "strong":
            lumped = lts_mod.lump_strong_lts(model, v)
        elif cfg.kind == "weak":
            lumped = lts_mod.lump_weak_lts(model, v, strict_middle=cfg.strict_def3)
        else:
            lumped = lts_mod.lump_branching_lts(model, v)
    else:
        if cfg.kind == "branching":
            raise ValueError("no branching quotient is defined for reward chains")
        v = part.collector_real()
        if cfg.kind == "strong":
            lumped = mrc_mod.lump_strong_mrc(model, v, cfg.tol)
        else:
            w = mrc_mod.parse_distributor(cfg.distributor.read_text()) if cfg.distributor else None
            lumped = mrc_mod.lump_weak_mrc(model, v, w, atol=cfg.tol)
    text = _format_model(lumped)
    _load_model_text_revalidate(text, cfg.tol)
    _write_or_print(cfg, text, "model")
    return 0


def _load_model_text_revalidate(text: str, tol: float) -> None:
    head = content_lines(text)[0][1][0]
    if head == "lts":
        lts_mod.parse_lts(text)
    else:
        mrc_mod.parse_mrc(text, atol=tol)


def cmd_closure(cfg: RunConfig) -> int:
    model = _load_model(cfg.model, cfg.tol)
    if not isinstance(model, lts_mod.Lts):
        raise ValueError("closure applies to transition systems only")
    text = lts_mod.format_lts(lts_mod.tau_closure(model))
    _write_or_print(cfg, text, "model")
    return 0


def cmd_project(cfg: RunConfig) -> int:
    model = _load_model(cfg.model, cfg.tol)
    if isinstance(model, lts_mod.Lts):
        raise ValueError("projection applies to reward chains only")
    fast = mrc_mod.as_fast_chain(model)
    proj = mrc_mod.ergodic_projection(fast.qf, atol=cfg.tol)
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


def cmd_reward(cfg: RunConfig) -> int:
    model = _load_model(cfg.model, cfg.tol)
    if isinstance(model, lts_mod.Lts):
        raise ValueError("reward applies to reward chains only")
    limit = None
    if isinstance(model, MrcFast) and np.any(model.qf != 0.0):
        limit = mrc_mod.limit_chain(model, atol=cfg.tol)
    values = []
    for t in cfg.times:
        if limit is None:
            values.append(mrc_mod.total_reward(mrc_mod.as_plain_chain(model), t))
        else:
            values.append(float(model.sigma @ limit.transition(t) @ model.rho))
    lines = [f"R({t:g}) = {v:.12g}" for t, v in zip(cfg.times, values)]
    if limit is not None:
        lines.insert(0, "fast transitions present: reporting the limit-chain reward")
    payload = {
        "model": str(cfg.model),
        "times": list(cfg.times),
        "values": values,
        "limit": limit is not None,
    }
    _emit(cfg, lines, payload)
    return 0


def cmd_diagram(cfg: RunConfig) -> int:
    model = _load_model(cfg.model, cfg.tol)
    part = _load_partition(cfg.partition)
    if isinstance(model, lts_mod.Lts):
        v = part.collector_bool(model.alphabet)
        if cfg.kind == "weak":
            ok = lts_mod.verify_weak_commutation(model, v)
        else:
            ok = lts_mod.verify_branching_commutation(model, v)
        detail = {"identities": "lumping commutes with internal closure"}
    else:
        if cfg.kind != "weak":
            raise ValueError("no branching commutation statement is available for reward chains")
        w = mrc_mod.parse_distributor(cfg.distributor.read_text()) if cfg.distributor else None
        ok = mrc_mod.verify_limit_commutation(model, part.collector_real(), w, cfg.times, atol=cfg.tol)
        detail = {"times": list(cfg.times)}
    payload = {"kind": cfg.kind, "model": str(cfg.model), "verdict": "pass" if ok else "fail", **detail}
    _emit(cfg, [f"diagram {cfg.kind} on {cfg.model}: {'PASS' if ok else 'FAIL'}"], payload)
    return 0 if ok else 1


def cmd_probe(cfg: RunConfig) -> int:
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
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _config(args)
        return _HANDLERS[cfg.command](cfg)
    except CheckFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DistributorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ModelFormatError, GeneratorError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
