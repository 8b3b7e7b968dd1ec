"""matbisim benchmark: a single-process closed loop with one client.

    python3 perfbench/run.py --workload lts-refine --seed 1 --seconds 30 --trace 0

Set-up generates the workload's model and partition files from ``--seed``
and times fresh processes that import ``matbisim.cli`` and run one warm-up
operation.  The timed loop then calls ``matbisim.cli.main(argv + ["--json"])``
in this process, one operation after another, repeating the workload's fixed
batch until ``--seconds`` is used up, with the calibration kernel between
operations.  Outputs are validated after timing by the benchmark's own code.

The last line of stdout is the result; the line before it is the run record.
With ``--trace 1`` the run is split into an untraced and a traced part, and
the result holds the per-layer metrics instead of the end-to-end ones.
See RATIONALE.md for the choice of workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import workloads  # noqa: E402
from validate import Invalid, Validator  # noqa: E402

#: Fresh processes timed for ``setup_s`` (one more runs first, untimed, to
#: compile bytecode and warm the file cache).
SETUP_PROCS = 7
#: Share of a traced run spent untraced, for ``trace.overhead_ratio``.
UNTRACED_SHARE = 0.4

# A set-up process: calibration kernel, timed import of matbisim.cli plus
# one warm-up operation, kernel again.  argv: perfbench dir, src dir, CLI args.
CHILD = r"""
import contextlib, io, sys, time
sys.path.insert(0, sys.argv[1])
import measure
before = measure.kernel()
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import matbisim.cli as cli
t1 = time.perf_counter()
out = io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[3:])
t2 = time.perf_counter()
after = measure.kernel()
import json
print(json.dumps({"import_s": t1 - t0, "total_s": t2 - t0, "code": code, "module": cli.__file__,
                  "kernel_before": before, "kernel_after": after}))
"""

END_TO_END = [("batch_s", "s"), ("op_gmean_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

PER_LAYER = [
    ("algebra.matmul.calls", "count"), ("algebra.matmul.s", "s"), ("algebra.matmul.cells", "count"),
    ("algebra.matmul.share", "ratio"),
    ("algebra.rt_closure.calls", "count"), ("algebra.rt_closure.s", "s"),
    ("algebra.solve_linear.calls", "count"), ("algebra.solve_linear.s", "s"),
    ("partition.refine.rounds", "count"), ("partition.split.s", "s"), ("partition.collector.s", "s"),
    ("partition.oracle.candidates", "count"), ("partition.oracle.s", "s"),
    ("lts.check.calls", "count"), ("lts.check.s", "s"), ("lts.signatures.s", "s"),
    ("mrc.ergodic_projection.calls", "count"), ("mrc.ergodic_projection.s", "s"),
    ("mrc.cluster_keys.pairs", "count"), ("mrc.cluster_keys.s", "s"),
    ("mrc.transition_matrix.calls", "count"), ("mrc.transition_matrix.s", "s"),
    ("mrc.distributor.s", "s"), ("mrc.check.calls", "count"), ("mrc.check.s", "s"),
    ("mrc.signatures.s", "s"), ("mrc.reward.max_abs_err", "abs"),
    ("cli.parse.s", "s"), ("cli.format.s", "s"), ("cli.digest.s", "s"), ("cli.main.s", "s"),
    ("setup.import.s", "s"), ("setup.import_scipy.s", "s"),
    ("trace.self.s", "s"), ("trace.overhead_ratio", "ratio"),
]


class BenchError(Exception):
    """The benchmark cannot run here (no program, or a broken set-up)."""


# ---------------------------------------------------------------------------
# Set-up: fresh processes
# ---------------------------------------------------------------------------


def _run_child(argv: list[str], *, importtime: bool = False) -> dict:
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", CHILD, str(HERE), str(SRC), *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(info["module"]).resolve().parent != (SRC / "matbisim").resolve():
        raise BenchError(f"set-up process imported matbisim from {info['module']}")
    if info["code"] != 0:
        raise BenchError(f"warm-up operation exited {info['code']}")
    if importtime:
        info["import_scipy_s"] = scipy_import_time(proc.stderr)
    return info


def scipy_import_time(importtime_log: str) -> float:
    """Cumulative seconds of the outermost ``scipy`` imports in a
    ``-X importtime`` log.  Children are printed before their parents, so
    the log is read backwards with a stack of enclosing imports."""
    total_us, stack = 0, []
    for line in reversed(importtime_log.splitlines()):
        fields = line.split("|")
        if not line.startswith("import time:") or len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2][1:]
        depth = len(name) - len(name.lstrip(" "))
        name = name.strip()
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name.split(".")[0] == "scipy"
        if is_scipy and not any(enclosing for _, enclosing in stack):
            total_us += int(fields[1])
        stack.append((depth, is_scipy))
    return total_us / 1e6


# ---------------------------------------------------------------------------
# The timed loop
# ---------------------------------------------------------------------------


def _call(main, argv: list[str]) -> tuple[object, str, float]:
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception:  # a crash is a failed operation, not a failed run
        elapsed = time.perf_counter() - started
        return "crash", traceback.format_exc(limit=3), elapsed
    return code, out.getvalue(), time.perf_counter() - started


def _loop(call, ops: list, argvs: dict, seconds: float, cal: list, samples: dict, outputs: dict) -> int:
    """Repeat the batch: always one whole pass, then more while the next
    pass is expected to end within ``seconds``.  Each operation runs
    between two calibration kernels and is stored as ``(raw, calibrated)``.
    Returns the pass count."""
    started = time.perf_counter()
    passes = 0
    before = measure.kernel()
    cal.append(before)
    while True:
        pass_started = time.perf_counter()
        for op in ops:
            code, stdout, elapsed = _call(call, argvs[op.id])
            after = measure.kernel()
            cal.append(after)
            samples.setdefault(op.id, []).append((elapsed, measure.calibrate(elapsed, before, after)))
            before = after
            seen = outputs.setdefault(op.id, {})
            seen[(code, stdout)] = seen.get((code, stdout), 0) + 1
        passes += 1
        now = time.perf_counter()
        if now - started + (now - pass_started) > seconds:
            return passes


def _medians(samples: dict) -> tuple[dict, dict]:
    """Per operation: median raw time and median calibrated time."""
    raw = {op_id: statistics.median(r for r, _ in v) for op_id, v in samples.items()}
    cal = {op_id: statistics.median(c for _, c in v) for op_id, v in samples.items()}
    return raw, cal


def _validate(wl, outputs: dict) -> tuple[Validator, list[dict]]:
    validator = Validator(wl.files, wl.planted)
    failures = []
    for op in wl.ops:
        for (code, stdout), count in outputs[op.id].items():
            try:
                if code == "crash":
                    raise Invalid("raised " + stdout.strip().splitlines()[-1])
                validator.validate(op.argv, code, stdout)
            except Invalid as exc:
                failures.append({"op": op.id, "count": count, "category": exc.category, "reason": str(exc)})
            except Exception as exc:  # a validator defect must not pass as correct
                failures.append({"op": op.id, "count": count, "category": "wrong",
                                 "reason": f"validator error: {exc!r}"})
    return validator, failures


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = None
    with contextlib.suppress(OSError):
        cpu = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                    if line.startswith("model name")), None)
    commit = None
    with contextlib.suppress(OSError, IndexError):
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        commit = (ROOT / ".git" / head.split()[1]).read_text().strip() if head.startswith("ref:") else head
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
        or f"default ({os.cpu_count()})",
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _layer_metrics(tracer, passes: int, scale: float) -> dict[str, float]:
    """Per-batch layer figures from the traced passes; times calibrated."""
    layers = tracer.layers()
    zero = {"calls": 0.0, "self_s": 0.0}

    def get(layer: str) -> dict:
        return layers.get(layer, zero)

    out: dict[str, float] = {}
    for name, unit in PER_LAYER:
        layer, _, what = name.rpartition(".")
        if what == "calls":
            out[name] = get(layer)["calls"] / passes
        elif what == "s":
            out[name] = get(layer)["self_s"] * scale / passes
    for key in ("algebra.matmul.cells", "mrc.cluster_keys.pairs", "partition.oracle.candidates"):
        out[key] = tracer.counts[key] / passes
    fixpoints = get("partition.refine")["calls"]
    out["partition.refine.rounds"] = get("partition.split")["calls"] / fixpoints if fixpoints else 0.0
    self_total = sum(v["self_s"] for v in layers.values())
    out["trace.self.s"] = self_total * scale / passes
    out["algebra.matmul.share"] = get("algebra.matmul")["self_s"] / self_total if self_total else 0.0
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    if not (SRC / "matbisim" / "cli.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'matbisim' / 'cli.py'} is missing")
    wl = workloads.build(workload, seed)
    work = HERE / ".work" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for fname, text in wl.files.items():
            (work / fname).write_text(text)

        def argv_of(op) -> list[str]:
            return [str(work / a) if a in wl.files else a for a in op.argv] + ["--json"]

        argvs = {op.id: argv_of(op) for op in wl.ops}
        cal: list[float] = []

        # Set-up: fresh processes import matbisim.cli and run the warm-up,
        # each calibrated by kernels run in the same process.
        _run_child(argv_of(wl.warmup))
        setup: dict[str, list] = {"total": [], "import": []}
        for _ in range(SETUP_PROCS):
            child = _run_child(argv_of(wl.warmup))
            for key in setup:
                raw = child[key + "_s"]
                setup[key].append((raw, measure.calibrate(raw, child["kernel_before"], child["kernel_after"])))
        if trace:
            child = _run_child(argv_of(wl.warmup), importtime=True)
            scipy_s = measure.calibrate(child["import_scipy_s"], child["kernel_before"], child["kernel_after"])

        sys.path.insert(0, str(SRC))
        import matbisim.cli as cli

        if Path(cli.__file__).resolve().parent != (SRC / "matbisim").resolve():
            raise BenchError(f"imported matbisim from {cli.__file__}")

        def call(argv):
            return cli.main(argv)

        _call(call, argv_of(wl.warmup))

        samples: dict[str, list] = {}
        traced: dict[str, list] = {}
        outputs: dict[str, dict] = {}
        if trace:
            passes = _loop(call, wl.ops, argvs, seconds * UNTRACED_SHARE, cal, samples, outputs)
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                traced_passes = _loop(call, wl.ops, argvs, seconds * (1 - UNTRACED_SHARE), cal, traced, outputs)
            finally:
                tracer.uninstall()
        else:
            passes = _loop(call, wl.ops, argvs, seconds, cal, samples, outputs)
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

        validator, failures = _validate(wl, outputs)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    raw_med, cal_med = _medians(samples)
    setup_med = {key: (statistics.median(r for r, _ in v), statistics.median(c for _, c in v))
                 for key, v in setup.items()}
    values = {
        "batch_s": (sum(raw_med.values()), sum(cal_med.values())),
        "op_gmean_s": (measure.gmean(raw_med.values()), measure.gmean(cal_med.values())),
        "setup_s": setup_med["total"],
        "peak_rss_mb": (rss_kb / 1024.0, rss_kb / 1024.0),
    }
    timed = sum(len(v) for v in samples.values())
    attempted = timed + sum(len(v) for v in traced.values())
    failed = sum(f["count"] for f in failures)
    jitter, jitter_n = measure.jitter({op_id: [c for _, c in v] for op_id, v in samples.items()})
    record = {
        "record": "matbisim-bench",
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        **_environment(),
        "cal_ref_s": measure.CAL_REF,
        "cal_median_s": statistics.median(cal),
        "cal_mean_s": statistics.fmean(cal),
        "cal_samples": len(cal),
        "raw": {name: raw for name, (raw, _) in values.items()},
        "metric_samples": {"batch_s": timed, "op_gmean_s": timed, "setup_s": SETUP_PROCS,
                           "peak_rss_mb": SETUP_PROCS + 2},
        "passes": passes,
        "ops": {op_id: {"samples": len(samples[op_id]), "median_s": cal_med[op_id], "raw_median_s": raw_med[op_id]}
                for op_id in samples},
        "jitter_p90_over_median": jitter,
        "jitter_samples": jitter_n,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }
    if trace:
        traced_raw, traced_cal = _medians(traced)
        layer = _layer_metrics(tracer, traced_passes, sum(traced_cal.values()) / sum(traced_raw.values()))
        layer["mrc.reward.max_abs_err"] = max(validator.reward_errors, default=0.0)
        layer["setup.import.s"] = setup_med["import"][1]
        layer["setup.import_scipy.s"] = scipy_s
        layer["trace.overhead_ratio"] = sum(traced_cal.values()) / values["batch_s"][1]
        trace_file = HERE / ".traces" / f"{workload}.npz"
        trace_file.parent.mkdir(exist_ok=True)
        tracer.save(trace_file)
        record.update(traced_passes=traced_passes, absent=tracer.absent, spans=len(tracer.start),
                      trace_file=str(trace_file.relative_to(ROOT)))
        metrics = {name: _metric(layer[name], unit) for name, unit in PER_LAYER}
    else:
        metrics = {name: _metric(values[name][1], unit) for name, unit in END_TO_END}
    result = {
        "correct": not any(f["category"] == "wrong" for f in failures),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
