import contextlib
import hashlib
import json
import os
import signal
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np

from matbisim.algebra import ActionAlphabet, ActionMatrix
from matbisim.cli import CHUNK, _digest, main
from matbisim.partition import format_partition

ROOT = Path(__file__).resolve().parents[1]
MODELS = ROOT / "models"

FOUR = MODELS / "four_state.lts"
FOUR_IDENT = MODELS / "four_state_identity.partition"
FOUR_MERGE = MODELS / "four_state_merge_siblings.partition"
TAU = MODELS / "tau_pair.lts"
TAU_MERGED = MODELS / "tau_pair_merged.partition"
REWARD = MODELS / "absorbing_reward.mrc"
FAST = MODELS / "fast_absorbing.mrc"
WITNESS = MODELS / "branching_not_weak.mrc"
WITNESS_PART = MODELS / "branching_not_weak.partition"


def run(*args):
    return main([str(a) for a in args])


def test_check_pass_and_fail_exit_codes(capsys):
    assert run("check", FOUR, "--partition", FOUR_IDENT, "--kind", "strong") == 0
    out = capsys.readouterr().out
    assert "PASS" in out

    assert run("check", FOUR, "--partition", FOUR_MERGE, "--kind", "strong") == 1
    out = capsys.readouterr().out
    assert "violated: VUAV = AV" in out
    assert "(2, 2)" in out


def test_check_json_schema(capsys):
    assert run("check", FOUR, "--partition", FOUR_MERGE, "--kind", "strong", "--json") == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    assert payload["command"] == "check"
    assert payload["verdict"] == "fail"
    assert payload["violated"] == "VUAV = AV"
    assert payload["witness"] == {"row": 2, "col": 2, "lhs": ["b", "c"], "rhs": ["b"], "residual": None}
    assert payload["partition"] == [[0], [1, 2], [3]]
    assert "V" in payload["checksums"]
    assert payload["elapsed_s"] >= 0.0


def test_check_usage_errors(tmp_path, capsys):
    missing = tmp_path / "nope.partition"
    assert run("check", FOUR, "--partition", missing, "--kind", "strong") == 2
    assert "error" in capsys.readouterr().err

    bad = tmp_path / "bad.lts"
    bad.write_text("lts 1\nalphabet a tau\ninit 0\nterm\n")
    assert run("check", bad, "--partition", FOUR_IDENT, "--kind", "strong") == 2

    mismatched = tmp_path / "short.partition"
    mismatched.write_text("partition 2\n0 1\n")
    assert run("check", FOUR, "--partition", mismatched, "--kind", "strong") == 2

    assert run("check", FOUR, "--partition", FOUR_IDENT, "--kind", "sideways") == 2
    assert run("frobnicate") == 2


def test_refine_with_oracle(capsys):
    assert run("refine", FOUR, "--kind", "strong", "--oracle") == 0
    out = capsys.readouterr().out
    assert "partition 4" in out
    assert "oracle agrees: True" in out


def test_refine_json(capsys):
    assert run("refine", TAU, "--kind", "weak", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["partition"] == [[0, 1]]
    assert payload["blocks"] == 1


def test_lump_then_identity_check_passes(tmp_path, capsys):
    out_model = tmp_path / "lumped.lts"
    assert run("lump", TAU, "--partition", TAU_MERGED, "--kind", "weak", "--output", out_model) == 0
    capsys.readouterr()
    ident = tmp_path / "ident.partition"
    ident.write_text("partition 1\n0\n")
    assert run("check", out_model, "--partition", ident, "--kind", "weak") == 0


def test_lump_failing_check_exits_one(capsys):
    assert run("lump", TAU, "--partition", TAU_MERGED, "--kind", "strong") == 1
    assert "check failed" in capsys.readouterr().err


def test_lump_branching_on_chain_is_a_usage_error(capsys):
    assert run("lump", WITNESS, "--partition", WITNESS_PART, "--kind", "branching") == 2
    assert "branching" in capsys.readouterr().err


def test_lump_strong_identity_round_trips(tmp_path, capsys):
    from matbisim.lts import format_lts, parse_lts

    out_model = tmp_path / "same.lts"
    assert run("lump", FOUR, "--partition", FOUR_IDENT, "--kind", "strong", "--output", out_model) == 0
    original = parse_lts(FOUR.read_text())
    assert parse_lts(out_model.read_text()) == original
    assert out_model.read_text() == format_lts(original)  # canonical bytes
    capsys.readouterr()
    assert run("check", out_model, "--partition", FOUR_IDENT, "--kind", "strong") == 0


def test_closure_command(capsys):
    assert run("closure", TAU) == 0
    out = capsys.readouterr().out
    assert "term 0 1" in out
    assert run("closure", REWARD) == 2


# Runs each argv of argv[1] (JSON) through cli.main in this fresh process and
# prints the exit codes and the scipy modules loaded.
NO_SCIPY_CHILD = r"""
import contextlib, io, json, sys
from matbisim.cli import main
from matbisim.partition import format_partition
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_chain_commands_load_no_scipy():
    part = ["--partition", str(WITNESS_PART)]
    merged = ["--partition", str(TAU_MERGED)]
    commands = [
        ["check", str(WITNESS), *part, "--kind", "weak"],
        ["refine", str(WITNESS), "--kind", "branching", "--oracle"],
        ["lump", str(FAST), *merged, "--kind", "weak"],
        ["diagram", str(FAST), *merged],
        ["project", str(WITNESS)],
        ["reward", str(FAST)],
    ]
    argv = [sys.executable, "-c", NO_SCIPY_CHILD, json.dumps(commands)]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result == {"codes": [1, 0, 0, 0, 0, 0], "scipy": []}


def test_importing_the_cli_leaves_the_generators_unloaded():
    # only probe reads matbisim.generate; every other command skips compiling it
    code = "import sys, matbisim.cli; print('matbisim.generate' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_diagram_evaluates_one_pade_quotient_per_side(tmp_path, monkeypatch, capsys):
    # the default times 0 0.5 1 2: 0 needs none, and 0.5, 1 and 2 scale to
    # one step on both generators (1-norms 18.9 > 2·PADE_THETA), so the
    # lumped and the original side take one quotient each, not three
    import random

    from matbisim import algebra, generate, mrc

    chain, part = generate.fast_funnel_chain(random.Random(0), base_states=12)
    model, partition = tmp_path / "funnel.mrc", tmp_path / "funnel.partition"
    model.write_text(mrc.format_mrc(chain))
    partition.write_text(format_partition(part))
    calls = []

    def counted(a):
        calls.append(a.shape)
        return algebra.pade_quotient(a)

    monkeypatch.setattr(mrc, "pade_quotient", counted)
    assert run("diagram", model, "--partition", partition, "--kind", "weak") == 0
    assert capsys.readouterr().out.endswith(": PASS\n")
    assert len(calls) == 2


def test_reward_evaluates_one_pade_quotient(tmp_path, monkeypatch, capsys):
    # each horizon from 1 on is the previous one to the tenth power, so the
    # limit chain's class generator takes one quotient for seven times
    import random

    from matbisim import algebra, generate, mrc

    chain, _ = generate.fast_funnel_chain(random.Random(0), base_states=12)
    model = tmp_path / "funnel.mrc"
    model.write_text(mrc.format_mrc(chain))
    calls = []

    def counted(a):
        calls.append(a.shape)
        return algebra.pade_quotient(a)

    monkeypatch.setattr(mrc, "pade_quotient", counted)
    assert run("reward", model, "--times", "0.1", "1", "10", "100", "1000", "10000", "100000") == 0
    assert len(capsys.readouterr().out.splitlines()) == 8
    assert len(calls) == 1


def test_project_command(capsys):
    assert run("project", FAST, "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pi"] == [[0.0, 1.0], [0.0, 1.0]]
    assert payload["recurrent_classes"] == [[1]]
    assert payload["transient"] == [0]

    assert run("project", REWARD, "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pi"] == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]

    assert run("project", FOUR) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_reward_command(capsys):
    assert run("reward", REWARD, "--times", "0", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["values"] == [1.0]
    assert payload["limit"] is False

    assert run("reward", FAST, "--times", "0", "1", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["limit"] is True
    assert payload["values"] == [5.0, 5.0]

    assert run("reward", FOUR) == 2  # not a chain


def test_diagram_command(capsys):
    assert run("diagram", TAU, "--partition", TAU_MERGED, "--kind", "weak") == 0
    capsys.readouterr()
    merged = MODELS / "tau_pair_merged.partition"
    assert run("diagram", TAU, "--partition", merged, "--kind", "branching") == 0
    capsys.readouterr()
    assert run("diagram", FAST, "--partition", TAU_MERGED, "--kind", "weak", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "pass"
    assert run("diagram", FAST, "--partition", TAU_MERGED, "--kind", "branching") == 2


def test_lump_weak_with_explicit_distributor_file(tmp_path, capsys):
    dist = tmp_path / "w.dist"
    dist.write_text("dist 1 2\n0.0 1.0\n")
    assert run("lump", FAST, "--partition", TAU_MERGED, "--kind", "weak", "--distributor", dist) == 0
    assert "reward 5.0" in capsys.readouterr().out

    bad = tmp_path / "bad.dist"
    bad.write_text("dist 1 2\n1.0 0.0\n")
    assert run("lump", FAST, "--partition", TAU_MERGED, "--kind", "weak", "--distributor", bad) == 1
    assert "certification" in capsys.readouterr().err


def test_transition_systems_refuse_a_distributor_file(capsys):
    # the file is refused unread, so a missing one gives the same line
    for argv in (
        ("lump", TAU, "--partition", TAU_MERGED, "--kind", "weak"),
        ("lump", TAU, "--partition", TAU_MERGED, "--kind", "strong"),
        ("diagram", TAU, "--partition", TAU_MERGED, "--kind", "weak"),
        ("diagram", TAU, "--partition", TAU_MERGED, "--kind", "branching"),
    ):
        assert run(*argv, "--distributor", MODELS / "nonexistent.dist") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: transition systems take no distributor file: the quotient uses the collector's transpose\n"
        ), argv


def test_closure_without_internal_steps_keeps_visible_part(capsys):
    assert run("closure", FOUR) == 0
    out = capsys.readouterr().out
    for line in ("0 a 1", "0 a 2", "1 b 3", "1 c 3", "2 b 3", "3 d 2"):
        assert line in out
    assert "0 tau 0" in out  # reflexive closure shows up as internal self-loops


def test_diagram_requires_passing_check(capsys):
    assert run("diagram", FOUR, "--partition", FOUR_MERGE, "--kind", "weak") == 1
    assert "check failed" in capsys.readouterr().err


def test_probe_finds_and_misses(capsys):
    # seed 0 hits a counterexample within a few instances
    assert run("probe", "--seed", "0", "--count", "10") == 1
    out = capsys.readouterr().out
    assert "counterexample" in out
    assert "re-validated through text round-trip: True" in out

    # a single instance at this seed is clean
    assert run("probe", "--seed", "0", "--count", "1") == 0
    assert "no counterexample" in capsys.readouterr().out


def test_seed_belongs_to_probe_alone(capsys):
    assert run("probe", "--seed", "0", "--count", "1") == 0
    capsys.readouterr()
    assert run("check", FOUR, "--partition", FOUR_IDENT, "--kind", "strong", "--seed", "1") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: matbisim")
    assert "unrecognized arguments: --seed 1" in captured.err


def test_literal_weak_middle_flag_is_gone(capsys):
    # one weak reading: the flag that selected the literal Definition 3 is
    # refused by the parser, before any handler runs
    for args in (
        ("check", TAU, "--partition", TAU_MERGED, "--kind", "weak"),
        ("refine", TAU, "--kind", "weak"),
        ("lump", TAU, "--partition", TAU_MERGED, "--kind", "weak"),
    ):
        assert run(*args, "--strict-def3") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: matbisim")
        assert "unrecognized arguments: --strict-def3" in captured.err
        assert "Traceback" not in captured.err


def test_probe_json_counterexample_rechecks(tmp_path, capsys):
    assert run("probe", "--seed", "0", "--count", "10", "--json") == 1
    payload = json.loads(capsys.readouterr().out)
    ce = payload["counterexample"]
    assert ce["revalidated"] is True
    model = tmp_path / "ce.mrc"
    part = tmp_path / "ce.partition"
    model.write_text(ce["model"])
    part.write_text(ce["partition"])
    assert run("check", model, "--partition", part, "--kind", "branching") == 0
    capsys.readouterr()
    assert run("check", model, "--partition", part, "--kind", "weak") == 1


def test_tolerance_flag_must_be_positive(capsys):
    assert run("check", FOUR, "--partition", FOUR_IDENT, "--kind", "strong", "--tol", "-1") == 2


def test_tolerance_flag_must_be_finite(capsys):
    # a NaN tolerance compares false against every residual, so it would pass any check
    for tol in ("nan", "inf"):
        assert run("check", WITNESS, "--partition", WITNESS_PART, "--kind", "weak", "--tol", tol) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: tolerance must be positive and finite"]


class Expired(BaseException):
    """Raised by :func:`time_limit`; no handler of the program catches it."""


@contextlib.contextmanager
def time_limit(seconds: int):
    def expire(signum, frame):
        raise Expired(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_times_must_be_finite(capsys):
    commands = [("reward", REWARD), ("reward", FAST), ("diagram", FAST, "--partition", TAU_MERGED)]
    for command in commands:
        for t in ("inf", "nan"):
            with time_limit(10):
                assert run(*command, "--times", "0", t) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == ["error: times must be nonnegative and finite"]


def test_refine_oracle_accepts_an_equally_coarse_passing_partition(tmp_path, capsys, monkeypatch):
    # rewards 0.9 tol apart: refinement cuts {0,1},{2,3}; the oracle's
    # canonical tie-break picks another passing two-block partition
    chain = tmp_path / "chain.mrc"
    chain.write_text("mrc 4\ninit 0:1\nreward 0 0.9e-9 1.8e-9 2.7e-9\n")
    for kind in ("strong", "weak"):
        assert run("refine", chain, "--kind", kind, "--oracle", "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["partition"] == [[0, 1], [2, 3]]
        assert payload["oracle"] != payload["partition"]
        assert len(payload["oracle"]) == 2
        assert payload["oracle_agrees"] is True
    # a passing refinement with more blocks than the oracle's still disagrees
    from matbisim import mrc

    monkeypatch.setattr(mrc, "signature_keys", lambda p, rows, atol=None: list(range(p.n)))
    assert run("refine", chain, "--kind", "strong", "--oracle") == 1
    captured = capsys.readouterr()
    assert "oracle agrees: False" in captured.out
    assert captured.err.splitlines() == ["error: refinement and oracle disagree"]


def test_refine_fixpoint_failing_its_own_check_is_a_clean_error(tmp_path, capsys, monkeypatch):
    # keys that never split a block make the one-block partition the
    # fixpoint, and it fails its own re-check on the distinct rewards
    from matbisim import mrc

    monkeypatch.setattr(mrc, "signature_keys", lambda p, rows, atol=None: list(p.assignment))
    chain = tmp_path / "chain.mrc"
    chain.write_text("mrc 2\ninit 0:1\nreward 0 1\n")
    assert run("refine", chain, "--kind", "strong") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: strong check failed on 'VUρ = ρ'"]


def test_refine_cuts_a_chain_of_within_tolerance_steps(tmp_path, capsys):
    # consecutive rewards differ by 0.9 tol, the ends by 2.7 tol: the blocks
    # are cut so that each spreads at most tol, and the result passes its check
    chain = tmp_path / "chain.mrc"
    chain.write_text("mrc 4\ninit 0:1\nreward 0 0.9e-9 1.8e-9 2.7e-9\n")
    part = tmp_path / "chain.partition"
    for kind in ("strong", "weak"):
        assert run("refine", chain, "--kind", kind) == 0
        out = capsys.readouterr().out
        assert out == "partition 4\n0 1\n2 3\n"
        part.write_text(out)
        assert run("check", chain, "--partition", part, "--kind", kind) == 0
        assert "PASS" in capsys.readouterr().out


CHECKSUM_NAMES = {
    (FOUR, "strong"): {"VUρ = ρ", "VUAV = AV", "VUSV = SV"},
    (FOUR, "weak"): {"VUΠρ = Πρ", "VUΠV = ΠV", "VUΠAΠV = ΠAΠV"},
    (FOUR, "branching"): {"VUΠ_V ρ = Π_V ρ", "VU(I + Π_V S)V = (I + Π_V S)V", "VUΠ_V AV = Π_V AV"},
    (WITNESS, "strong"): {"VUρ = ρ", "VUQsV = QsV", "VUQfV = QfV"},
    (WITNESS, "weak"): {"VUΠρ = Πρ", "VUΠV = ΠV", "VUΠQsΠV = ΠQsΠV"},
    (WITNESS, "branching"): {"VUΠ_V ρ = Π_V ρ", "VUΠ_V Qf V = Π_V Qf V", "VUΠ_V Qs V = Π_V Qs V"},
    # a chain without fast lines: its one generator Q for strong, Qs and Qf = 0 for the others
    (REWARD, "strong"): {"VUρ = ρ", "VUQV = QV"},
    (REWARD, "weak"): {"VUΠρ = Πρ", "VUΠV = ΠV", "VUΠQsΠV = ΠQsΠV"},
    (REWARD, "branching"): {"VUΠ_V ρ = Π_V ρ", "VUΠ_V Qf V = Π_V Qf V", "VUΠ_V Qs V = Π_V Qs V"},
}


def test_check_json_checksums_name_each_equality(capsys, tmp_path):
    reward_part = tmp_path / "reward.partition"
    reward_part.write_text("partition 3\n0\n1 2\n")
    partitions = {FOUR: FOUR_MERGE, WITNESS: WITNESS_PART, REWARD: reward_part}
    for (model, kind), names in CHECKSUM_NAMES.items():
        code = run("check", model, "--partition", partitions[model], "--kind", kind, "--json")
        payload = json.loads(capsys.readouterr().out)
        assert code == (0 if payload["verdict"] == "pass" else 1)
        assert set(payload["checksums"]) == {"V"} | names, (model.name, kind)
        assert payload["violated"] in names | {None}


# Checksums and witnesses of the boolean checks, recorded before the label
# planes replaced mask tuples as storage.  Any change of storage or product
# must leave every digest of V and of each X where it is.
_A = ("65bb79a6daf9468c", "58c861fa0fbf9ccc")  # ρ and AV on four_state
_WITNESS_2_2 = {"row": 2, "col": 2, "lhs": ["b", "c"], "rhs": ["b"], "residual": None}
PINNED_CHECKS = {
    (FOUR, FOUR_IDENT, "strong"): (None, None, {
        "V": "cba6ebd04d47d4d3", "VUρ = ρ": _A[0], "VUAV = AV": _A[1], "VUSV = SV": "a07ba06ce229ca12"}),
    (FOUR, FOUR_IDENT, "weak"): (None, None, {
        "V": "cba6ebd04d47d4d3", "VUΠρ = Πρ": _A[0], "VUΠV = ΠV": "cba6ebd04d47d4d3",
        "VUΠAΠV = ΠAΠV": _A[1]}),
    (FOUR, FOUR_IDENT, "branching"): (None, None, {
        "V": "cba6ebd04d47d4d3", "VUΠ_V ρ = Π_V ρ": _A[0],
        "VU(I + Π_V S)V = (I + Π_V S)V": "cba6ebd04d47d4d3", "VUΠ_V AV = Π_V AV": _A[1]}),
    (FOUR, FOUR_MERGE, "strong"): ("VUAV = AV", _WITNESS_2_2, {
        "V": "8b30b1c0f31df50d", "VUρ = ρ": _A[0], "VUAV = AV": "4a83f444d2481c3f",
        "VUSV = SV": "ab297bb22decfa7d"}),
    (FOUR, FOUR_MERGE, "weak"): ("VUΠAΠV = ΠAΠV", _WITNESS_2_2, {
        "V": "8b30b1c0f31df50d", "VUΠρ = Πρ": _A[0], "VUΠV = ΠV": "8b30b1c0f31df50d",
        "VUΠAΠV = ΠAΠV": "4a83f444d2481c3f"}),
    (FOUR, FOUR_MERGE, "branching"): ("VUΠ_V AV = Π_V AV", _WITNESS_2_2, {
        "V": "8b30b1c0f31df50d", "VUΠ_V ρ = Π_V ρ": _A[0],
        "VU(I + Π_V S)V = (I + Π_V S)V": "8b30b1c0f31df50d", "VUΠ_V AV = Π_V AV": "4a83f444d2481c3f"}),
    (TAU, TAU_MERGED, "strong"): (
        "VUρ = ρ", {"row": 0, "col": 0, "lhs": ["a"], "rhs": [], "residual": None}, {
            "V": "5cf7e17f3a025e7e", "VUρ = ρ": "32e3b74658d8870a", "VUAV = AV": "c27bfc530027dcc8",
            "VUSV = SV": "cfca89a9d179c34d"}),
    (TAU, TAU_MERGED, "weak"): (None, None, {
        "V": "5cf7e17f3a025e7e", "VUΠρ = Πρ": "5cf7e17f3a025e7e", "VUΠV = ΠV": "5cf7e17f3a025e7e",
        "VUΠAΠV = ΠAΠV": "c27bfc530027dcc8"}),
    (TAU, TAU_MERGED, "branching"): (None, None, {
        "V": "5cf7e17f3a025e7e", "VUΠ_V ρ = Π_V ρ": "5cf7e17f3a025e7e",
        "VU(I + Π_V S)V = (I + Π_V S)V": "5cf7e17f3a025e7e", "VUΠ_V AV = Π_V AV": "c27bfc530027dcc8"}),
}


def test_check_json_checksums_and_witnesses_are_pinned(capsys):
    for (model, part, kind), (violated, witness, checksums) in PINNED_CHECKS.items():
        code = run("check", model, "--partition", part, "--kind", kind, "--json")
        payload = json.loads(capsys.readouterr().out)
        where = (model.name, part.name, kind)
        assert code == (0 if violated is None else 1), where
        assert payload["violated"] == violated, where
        assert payload["witness"] == witness, where
        assert payload["checksums"] == checksums, where


def _plain_digest(obj):
    """The checksum text form of README's "Checksums", joined in plain Python."""
    if isinstance(obj, ActionMatrix):
        rows = (",".join(map(str, row)) for row in obj.data)
        text = "bool|" + "|".join(obj.alphabet.names) + "#" + ";".join(rows)
    else:
        arr = np.asarray(obj, dtype=float)
        text = "real|" + "x".join(map(str, arr.shape)) + "#" + ",".join("%.17g" % x for x in arr.ravel().tolist())
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_digest_hashes_the_plain_text_form():
    rng = np.random.default_rng(5)
    special = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, np.inf, -np.inf, np.nan, 0.1, 1.0]
    payload = np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64).view(np.float64)  # two more NaNs
    reals = [
        np.array([[2.5]]),
        np.array([[-0.0]]),
        np.array([[0.0]]),
        np.array(special)[:, None],  # one column
        np.array([special, special[::-1]]),
        payload[None],
        rng.choice(special + [3.0], size=(300, 251)),  # more than 65536 entries, rows across the chunk ends
        np.where(rng.random((3, 70000)) < 0.01, rng.random((3, 70000)), 0.0),
        np.arange(12.0),  # a vector, whose shape has one number
    ]
    for x in reals:
        assert _digest(x) == _plain_digest(x), x.shape
    small, wide = ActionAlphabet(("a", "b", "c")), ActionAlphabet(tuple(f"l{k}" for k in range(70)))
    actions = [
        ActionMatrix.from_planes(small, np.ones((3, 1, 1), bool)),
        ActionMatrix.from_planes(small, np.zeros((3, 1, 1), bool)),
        ActionMatrix.from_planes(small, rng.random((3, 9, 1)) < 0.5),  # one column: every entry ends a row
        ActionMatrix.from_planes(small, rng.random((3, 10000, 7)) < 0.3),  # rows of 7 across the chunk ends
        ActionMatrix.from_planes(small, rng.random((3, 1, 70000)) < 0.01),  # one row longer than a chunk
        ActionMatrix.from_planes(wide, rng.random((70, 30, 40)) < 0.5),  # masks past 64 bits
        ActionMatrix.from_planes(wide, np.eye(70, dtype=bool)[:, None, :].repeat(2, axis=1)),
    ]
    for m in actions:
        assert _digest(m) == _plain_digest(m), m.shape
    # dense and all distinct, every entry formatted: the memory is the chunk's, not the matrix's
    dense = rng.random((500, 500))
    tracemalloc.start()
    try:
        digest = _digest(dense)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert digest == _plain_digest(dense)
    assert peak < 400 * CHUNK < dense.size * 100, peak


def test_probe_arguments_are_bounded(capsys):
    for args in (("--max-states", "0"), ("--max-states", "-3"), ("--count", "-5")):
        assert run("probe", *args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: the probe needs at least one state and a nonnegative count"]


def test_oversized_partition_is_a_short_error(tmp_path, capsys):
    part = tmp_path / "huge.partition"
    part.write_text("partition 1000000\n0\n")
    assert run("check", FOUR, "--partition", part, "--kind", "strong") == 2
    err = capsys.readouterr().err
    assert len(err) < 1024
    assert err.splitlines() == ["error: invalid partition: 999999 states not covered, the first is 1"]


def test_unallocatable_model_is_a_usage_error(capsys, monkeypatch):
    from matbisim import lts

    def unallocatable(text):
        raise MemoryError("Unable to allocate 9.31 GiB for an array with shape (100000, 100000)")

    monkeypatch.setattr(lts, "parse_model", unallocatable)
    assert run("check", FOUR, "--partition", FOUR_IDENT, "--kind", "strong") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: not enough memory: Unable to allocate 9.31 GiB for an array with shape (100000, 100000)"
    ]


def test_reward_refuses_horizons_that_lose_probability_mass(tmp_path, capsys):
    # e^(Qt) of a generator keeps its rows at 1; repeated squaring at these
    # horizons leaks mass (0.969, 0.018 and 0 instead of 1)
    chain = tmp_path / "two.mrc"
    chain.write_text("mrc 2\ninit 0:1\nreward 0 1\nrate 0 1 1\n")
    assert run("reward", chain, "--times", "1e15", "1e17", "1e20") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: time 1e+15 is too long for these rates"]

    assert run("reward", chain, "--times", "1e6") == 0
    assert capsys.readouterr().out == "R(1e+06) = 0.999999999971\n"

    # the check reads --tol: a loss of 0.031 is inside 0.1
    assert run("reward", chain, "--times", "1e15", "--tol", "0.1") == 0
    assert capsys.readouterr().out == "R(1e+15) = 0.969233234251\n"

    # squarings that overflow to inf and NaN are refused too, without warnings
    chain.write_text("mrc 2\ninit 0:1\nreward 0 1\nrate 0 1 2\nrate 1 0 2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("reward", chain, "--times", "1e20") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: time 1e+20 is too long for these rates"]


MALFORMED = MODELS / "malformed"

#: The one stderr line of each malformed file, which names its first bad line.
PARSE_ERRORS = {
    "arity.lts": "line 6: expected '<src> <label> <dst>'",
    "state_not_integer.lts": "line 6: state index must be an integer, got 'one'",
    "state_out_of_range.lts": "line 6: state 3 out of range 0..2",
    "unknown_label.lts": "line 6: unknown label 'c'",
    "comments.lts": "line 13: state -1 out of range 0..2",
    "two_faults.lts": "line 6: unknown label 'c'",
    "keyword.mrc": "line 5: expected 'rate|fast <src> <dst> <value>'",
    "self_rate.mrc": "line 5: self-rates are not allowed",
    "negative_rate.mrc": "line 5: negative rate -0.5",
    "nan_rate.mrc": "line 5: rate must be finite",
    "inf_rate.mrc": "line 5: rate must be finite",
    "init_twice.mrc": "line 2: state 0 appears twice in init",
    "init_sum.mrc": "line 2: initial probabilities sum to 1.0005, not 1",
    "comments.mrc": "line 10: rate must be a number, got 'one'",
    "two_faults.mrc": "line 5: negative rate -1.0",
    "state_not_integer.partition": "line 3: state index must be an integer, got 'three'",
    "duplicate_state.partition": "invalid partition: state 1 in two blocks",
}


def _run_malformed(name):
    path = MALFORMED / name
    if name.endswith(".partition"):
        return run("check", FOUR, "--partition", path, "--kind", "strong")
    return run("refine", path, "--kind", "strong")


def test_malformed_files_report_their_first_bad_line(capsys):
    for name, message in PARSE_ERRORS.items():
        code = _run_malformed(name)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n"), name


def test_rate_sums_that_overflow_name_their_line(capsys):
    # each rate is finite; their sum for one entry, or for one row, is not
    overflows = {
        "rate_sum_overflow.mrc": 5,
        "row_sum_overflow.mrc": 5,
        "summation_order_overflow.mrc": 7,  # only in NumPy's order: the row's last line
    }
    for name, lineno in overflows.items():
        path = MALFORMED / name
        for argv in (("reward", path, "--times", "1"), ("refine", path, "--kind", "strong")):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert run(*argv) == 2
            captured = capsys.readouterr()
            assert caught == [], name
            assert captured.out == ""
            assert captured.err == f"error: line {lineno}: rates out of state 0 sum to more than the largest float\n"


def test_initial_sum_is_held_to_the_default_tolerance_at_its_line(capsys):
    # a looser --tol would pass the parser but not the chain's own check
    for tol in ("1e-3", "1e-12"):
        assert run("refine", MALFORMED / "init_sum.mrc", "--kind", "strong", "--tol", tol) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: line 2: initial probabilities sum to 1.0005, not 1\n"


def test_tiny_tolerance_does_not_revalidate_a_read_chain(tmp_path, capsys):
    # --tol governs comparisons, not validity: the chain's generators were
    # validated to 1e-9 when it was read, and a row that sums to 4.4e-16 is
    # not refused again below that
    import random

    from matbisim import generate, mrc

    model = tmp_path / "seed61.mrc"
    model.write_text(mrc.format_mrc(generate.random_mrc_fast(random.Random(61), n=3, p_fast=0.8)))
    for kind in ("weak", "branching"):
        assert run("refine", model, "--kind", kind) == 0
        default = capsys.readouterr()
        assert default.out == "partition 3\n0 1 2\n"
        assert run("refine", model, "--kind", kind, "--tol", "1e-16") == 0
        assert capsys.readouterr() == default
        assert default.err == ""


def test_initial_sum_is_not_held_to_a_tiny_tolerance(tmp_path, capsys):
    # 0.3 + 0.35 + 0.35 rounds to 1 - 1.1e-16, inside the parser's 1e-9
    chain = tmp_path / "init.mrc"
    chain.write_text("mrc 3\ninit 0:0.3 1:0.35 2:0.35\nreward 1 2 3\nrate 0 1 1\nrate 1 2 1\n")
    assert run("refine", chain, "--kind", "strong", "--tol", "1e-17") == 0
    captured = capsys.readouterr()
    assert captured.out == "partition 3\n0\n1\n2\n" and captured.err == ""


def test_large_rates_pass_the_row_sum_check(tmp_path, capsys):
    # the derived diagonals round off by about 2e-9, above the absolute 1e-9
    model = tmp_path / "large_rates.mrc"
    model.write_text(
        "mrc 3\ninit 0:1\nreward 1 1 1\n"
        "rate 1 0 9312717.652\nrate 1 2 9506226.809\nrate 2 0 1847526.91\nrate 2 1 8604171.236\n"
    )
    assert run("reward", model, "--times", "0") == 0
    assert capsys.readouterr().out == "R(0) = 1\n"


def test_main_can_be_called_again_in_one_process(capsys):
    from matbisim.cli import build_parser

    assert build_parser() is build_parser()

    def reply(*args):
        code = run(*args)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    # defaults are not carried over from an earlier call
    assert reply("reward", REWARD, "--times", "5")[0] == 0
    code, out, _ = reply("reward", REWARD, "--json")
    assert code == 0 and json.loads(out)["times"] == [0.0, 1.0]
    assert reply("diagram", FAST, "--partition", TAU_MERGED, "--kind", "weak", "--times", "3")[0] == 0
    code, out, _ = reply("diagram", FAST, "--partition", TAU_MERGED, "--kind", "weak", "--json")
    assert code == 0 and json.loads(out)["times"] == [0.0, 0.5, 1.0, 2.0]

    # neither a usage error nor --help changes the next call
    alone = reply("reward", FAST, "--times", "0", "1")
    assert alone[0] == 0
    assert reply("reward", FAST, "--times")[0] == 2
    assert reply("reward", FAST, "--times", "0", "1") == alone
    assert reply("reward", "--help")[0] == 0
    assert reply("reward", FAST, "--times", "0", "1") == alone
