"""Fast self-test of the benchmark: every workload at a tiny size, each
correctness check against a corrupted output, and the refusal to run
without the program's source."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mttsort import metrics
from mttsort.ga import GenerationStats

from mttbench import bench, checks, run, workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_runs_and_checks(workload, trace, tmp_path):
    result = bench.run_benchmark(workload, 0, 0.0, trace, str(tmp_path),
                                 tiny=True, log=lambda *args: None)
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"]
    assert result["attempted"] >= 1
    if workload == "presets":
        # Only the shrink pass, one of five per round, may fail.
        assert result["failed"] * 5 in (0, result["attempted"])
    else:
        assert result["failed"] == 0
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


@pytest.fixture(scope="module")
def clean_pass(tmp_path_factory):
    scene = workloads.scenes("presets", 0, tiny=True)[0]
    assert scene.name == "clean"
    directory = str(tmp_path_factory.mktemp("clean"))
    workloads.write_scene(scene, directory)
    return scene, workloads.file_pass(scene, directory)


def _pred(outcome):
    return metrics.results_to_entries(outcome.parsed)


def test_report_checks_catch_a_dropped_row_and_swapped_ids(clean_pass):
    _, outcome = clean_pass
    pred = _pred(outcome)
    assert checks.report_problems(outcome.gt, pred, outcome.report) == []
    assert checks.report_problems(outcome.gt, pred[:-1], outcome.report)

    half = max(e.frame for e in pred) // 2
    swap = {1: 2, 2: 1}
    swapped = [dataclasses.replace(e, identity=swap.get(e.identity, e.identity))
               if e.frame > half else e for e in pred]
    found = checks.report_problems(outcome.gt, swapped, outcome.report)
    assert any(p.startswith("idf1") for p in found)


def test_count_checks_catch_altered_reports(clean_pass):
    scene, outcome = clean_pass
    report = outcome.report
    identities, n_init = scene.spec.identities, scene.config.n_init
    assert checks.clean_count_problems(report, identities, n_init) == []
    for field in ("fp_count", "idsw_count", "frag_count", "fn_count"):
        altered = dataclasses.replace(report, **{field: getattr(report, field) + 1})
        assert checks.clean_count_problems(altered, identities, n_init)
    altered = dataclasses.replace(report, fp_count=report.fp_count + 1)
    assert checks.report_problems(outcome.gt, _pred(outcome), altered)


def test_perfect_score_check(clean_pass):
    _, outcome = clean_pass
    gt = list(outcome.gt)
    assert checks.perfect_score_problems(metrics.evaluate(gt, gt)) == []
    assert checks.perfect_score_problems(metrics.evaluate(gt, gt[1:]))


def test_unique_id_check_catches_a_repeated_id(clean_pass):
    _, outcome = clean_pass
    assert checks.unique_id_problems(outcome.results) == []
    res = next(r for r in outcome.results if r.records)
    doubled = dataclasses.replace(res, records=res.records + res.records[:1])
    assert checks.unique_id_problems([doubled])


def test_round_trip_check_catches_changed_rows_and_bytes(clean_pass):
    _, outcome = clean_pass
    ok = checks.round_trip_problems(outcome.results, outcome.parsed,
                                    outcome.written, outcome.written)
    assert ok == []
    assert checks.round_trip_problems(outcome.results, outcome.parsed[:-1],
                                      outcome.written, outcome.written)
    assert checks.round_trip_problems(outcome.results, outcome.parsed,
                                      outcome.written, outcome.written[:-1])
    res = outcome.parsed[-1]
    tid, box, conf = res.records[0]
    moved = dataclasses.replace(box, left=box.left + 0.01)
    shifted = outcome.parsed[:-1] + [
        dataclasses.replace(res, records=((tid, moved, conf),) + res.records[1:])]
    assert checks.round_trip_problems(outcome.results, shifted,
                                      outcome.written, outcome.written)


def test_digest_and_ga_checks():
    assert checks.same_digest_problems("x", ["a", "a"]) == []
    assert checks.same_digest_problems("x", ["a", "b"])
    history = [GenerationStats(1, 2.5, 2.0, 0.1), GenerationStats(2, 2.75, 2.5, 0.1)]
    assert checks.ga_problems(2.75, history, 2.75) == []
    assert checks.ga_problems(2.5, history, 2.5)
    assert checks.ga_problems(2.75, history, 2.5)


def test_refuses_to_run_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "mttbench", tmp_path / "mttbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "mttbench/run.py", "--workload", "big30", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
