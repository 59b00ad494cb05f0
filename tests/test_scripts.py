"""Smoke tests of the experiment scripts in `scripts/`: each runs as a
separate process on a tiny setting, exits 0 and prints its header."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("name, args, header", [
    ("buffer_ablation.py", ["--seeds", "1", "--sizes", "1", "5"],
     ["scenario=occlusion seeds=1 frames=120 identities=3",
      "buffer   idsw   frag     hota     mota     idf1    score"]),
    ("ga_vs_presets.py",
     ["--scenario", "occlusion", "--population", "2", "--generations", "1"],
     ["scenario=occlusion frames=120"]),
    ("gc_by_stage.py", ["--workload", "big30", "--rounds", "2", "--tiny"],
     ["workload=big30 seed=0 rounds=2",
      "per round         gen0  gen0 ms   gen1  gen1 ms   gen2  gen2 ms"]),
    ("step_costs.py", ["--workload", "presets", "--rounds", "1", "--tiny"],
     ["workload=presets seed=0 rounds=1",
      "stage          min us  mean us  (per step)"]),
    ("eval_costs.py", ["--workload", "presets", "--rounds", "1", "--tiny"],
     ["workload=presets seed=0 rounds=1", "part           ms/round"]),
])
def test_script_runs_and_prints_its_header(name, args, header):
    done = run_script(name, *args)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[:len(header)] == header
