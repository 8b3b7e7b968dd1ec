"""Tests of the benchmark itself (not of matbisim).

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

The file name keeps these out of the repository's default test collection.
"""

from __future__ import annotations

import json
import math
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import workloads  # noqa: E402
from run import scipy_import_time  # noqa: E402
from tracer import Tracer  # noqa: E402
from validate import Invalid, Validator, parse_mrc, reward_reference  # noqa: E402


def _sizes(files: dict[str, str]) -> dict[str, str]:
    return {name: text.split("\n", 1)[0] for name, text in files.items()}


def test_same_seed_same_bytes_and_fixed_sizes():
    for name in workloads.BUILDERS:
        first, again, other = (workloads.build(name, s) for s in (3, 3, 4))
        assert first.files == again.files, name
        assert [op.argv for op in first.ops] == [op.argv for op in again.ops]
        assert first.files != other.files, name
        # Same file names, same state counts, same operations: only the
        # structure moves with the seed.
        assert _sizes(first.files) == _sizes(other.files), name
        assert [op.id for op in first.ops] == [op.id for op in other.ops]


def test_calibration_and_geometric_mean():
    ref = measure.CAL_REF
    assert math.isclose(measure.calibrate(2.0, 2 * ref, 2 * ref), 1.0)
    assert math.isclose(measure.calibrate(0.5, ref / 4, 3 * ref / 4), 1.0)
    assert math.isclose(measure.gmean([1.0, 4.0]), 2.0)
    assert math.isclose(measure.gmean([0.001, 10.0, 100.0]), 1.0)
    ratio, n = measure.jitter({"a": [1.0] * 9 + [2.0], "b": [10.0] * 10})
    assert n == 20 and 1.0 <= ratio <= 2.0


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_tracer_self_time_on_nested_spans():
    clock = _Clock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        leaf_t()
        clock.now += 1.0
        middle_again()  # same layer nested: one call, time still exact

    def middle_again():
        clock.now += 0.5

    def outer():
        clock.now += 3.0
        middle_t()
        leaf_t()

    leaf_t = tracer.wrap(leaf, "leaf")
    middle_t = tracer.wrap(middle, "middle")
    middle_again = tracer.wrap(middle_again, "middle")
    tracer.wrap(outer, "outer")()
    layers = tracer.layers()
    assert layers["outer"] == {"calls": 1.0, "self_s": 3.0}
    assert layers["middle"] == {"calls": 1.0, "self_s": 2.5}
    assert layers["leaf"] == {"calls": 2.0, "self_s": 4.0}


def test_tracer_lists_renamed_functions_as_absent():
    pkg = types.ModuleType("fakepkg")
    algebra = types.ModuleType("fakepkg.algebra")
    lts = types.ModuleType("fakepkg.lts")

    def rt_closure(m):
        return m

    algebra.rt_closure = rt_closure
    lts.rt_closure = rt_closure  # second import site
    modules = {"fakepkg": pkg, "fakepkg.algebra": algebra, "fakepkg.lts": lts}
    sys.modules.update(modules)
    try:
        tracer = Tracer()
        tracer.install("fakepkg")
        assert lts.rt_closure(5) == 5 and algebra.rt_closure(6) == 6
        assert tracer.layers()["algebra.rt_closure"]["calls"] == 2.0
        assert "lts.check_lts" in tracer.absent and "algebra.ActionMatrix.__matmul__" in tracer.absent
        tracer.uninstall()
        assert lts.rt_closure is rt_closure
    finally:
        for name in modules:
            sys.modules.pop(name)


def test_scipy_import_time_counts_outermost_scipy_imports():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:        50 |         50 |       scipy.sparse._base",
        "import time:        70 |        120 |     scipy.sparse",
        "import time:        10 |        430 |   matbisim.mrc",
        "import time:        40 |         40 |   scipy.linalg",
    ])
    assert math.isclose(scipy_import_time(log), (300 + 120 + 40) / 1e6)


def _refine_payload(blocks) -> str:
    return json.dumps({"partition": blocks, "oracle": None, "oracle_agrees": None})


def test_validator_rejects_a_wrong_partition():
    wl = workloads.build("lts-refine", 1)
    v = Validator(wl.files, wl.planted)
    path = "s40.lts"
    planted = wl.planted[path]["weak"]
    argv = ["refine", path, "--kind", "weak"]
    # The planted weak partition passes the equalities, so it is accepted as
    # a refine result and as a check verdict; the one-block partition is not.
    v.validate(argv, 0, _refine_payload(planted))
    v.validate(["check", path, "--partition", "s40.weak.partition", "--kind", "weak"], 0,
               json.dumps({"verdict": "pass"}))
    try:
        v.validate(argv, 0, _refine_payload([list(range(40))]))
    except Invalid as exc:
        assert exc.category == "wrong"
    else:
        raise AssertionError("one-block partition accepted")
    # Splitting every planted block into singletons passes the equalities
    # but is finer than the planted bisimulation.
    try:
        v.validate(argv, 0, _refine_payload([[s] for s in range(40)]))
    except Invalid as exc:
        assert "finer than the planted" in str(exc)
    else:
        raise AssertionError("identity partition accepted")
    # A check that passes a failing partition is rejected.
    try:
        v.validate(["check", path, "--partition", "s40.weak.partition", "--kind", "strong"], 0,
                   json.dumps({"verdict": "pass"}))
    except Invalid:
        pass
    else:
        raise AssertionError("wrong strong verdict accepted")


def test_validator_rejects_a_perturbed_reward():
    wl = workloads.build("mrc-pipeline", 1)
    v = Validator(wl.files, wl.planted)
    times = [0.1, 1.0, 10.0]
    ref = reward_reference(parse_mrc(wl.files["d60.mrc"]), times)
    argv = ["reward", "d60.mrc", "--times", "0.1", "1", "10"]
    v.validate(argv, 0, json.dumps({"times": times, "values": ref, "limit": False}))
    bumped = list(ref)
    bumped[1] += 1e-7
    try:
        v.validate(argv, 0, json.dumps({"times": times, "values": bumped, "limit": False}))
    except Invalid as exc:
        assert exc.category == "accuracy" and "t=1" in str(exc)
    else:
        raise AssertionError("perturbed reward accepted")


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} passed")
