"""The scripts import the library by name, so a deleted or renamed entry
point breaks them; run each once."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [["scripts/run_showcase.py"], ["scripts/probe_search.py", "--seeds", "1", "--count", "50"]],
)
def test_script_runs(argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout


def test_scale_ladder_appends_one_record_per_run(tmp_path):
    out = tmp_path / "BENCH_scale.json"
    argv = [sys.executable, "scripts/scale.py", "--bases", "24", "--out", str(out)]
    for runs in (1, 2):
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert len(json.loads(out.read_text())) == runs
    record = json.loads(out.read_text())[-1]
    points = {(p["family"], p["kind"]): p for p in record["points"]}
    assert set(points) == {(f, k) for f in ("planted_lts", "funnel_mrc") for k in ("strong", "weak", "branching")}
    for point in points.values():
        assert point["status"] == "ok" and point["base"] == 24, point
        assert 1 <= point["blocks"] <= point["states"] and point["seconds"] >= 0 and point["peak_rss_mb"] > 0
        assert point["rounds"] >= 1
    # the tree id is null outside a git checkout, as in a `git archive` export
    in_git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True).returncode == 0
    if in_git:
        assert len(record["src_tree"]) == 40
    else:
        assert record["src_tree"] is None
    assert record["source_lines"]["total"] == sum(v for k, v in record["source_lines"].items() if k != "total")


def test_scale_ladder_records_the_points_over_its_limits(tmp_path):
    out = tmp_path / "BENCH_scale.json"
    argv = [sys.executable, "scripts/scale.py", "--bases", "24", "--out", str(out)]
    done = subprocess.run([*argv, "--cap-s", "0.001"], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    points = json.loads(out.read_text())[-1]["points"]
    assert len(points) == 6 and all(p["status"] == "timeout" for p in points), points
    # Base-1200 funnels hold 1920 x 1920 arrays and peak near 300 MB unlimited.
    argv = [sys.executable, "scripts/scale.py", "--bases", "1200", "--out", str(out), "--memory-mb", "200"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    funnels = [p for p in json.loads(out.read_text())[-1]["points"] if p["family"] == "funnel_mrc"]
    assert len(funnels) == 3 and all(p["status"] == "out_of_memory" for p in funnels), funnels


def test_source_size_lists_every_module_with_its_step(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text("x = 1  # a comment\n\n\ndef f():\n    '''one token'''\n    return x\n")
    (package / "b.py").write_text("")
    done = subprocess.run([sys.executable, "scripts/source_size.py", "--src", str(package)], cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    header, *rows, total = done.stdout.splitlines()
    assert header.split() == ["module", "lines", "tokens", "next_step", "to_step"]
    # a.py: NAME OP NUMBER NEWLINE, then def f ( ) : NEWLINE INDENT STRING NEWLINE return x NEWLINE DEDENT ENDMARKER
    assert [row.split() for row in rows] == [["a.py", "6", "18", "4096", "4078"], ["b.py", "0", "1", "4096", "4095"]]
    assert total.split() == ["total", "6"]
    done = subprocess.run([sys.executable, "scripts/source_size.py"], cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    modules = {row.split()[0] for row in done.stdout.splitlines()[1:-1]}
    assert {"cli.py", "lts.py", "mrc.py", "partition.py"} <= modules
