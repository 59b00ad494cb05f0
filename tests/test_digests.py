"""Byte-identity pins: outputs of the file pipeline and of one small GA.

Each scene is written as a sequence directory, reloaded, tracked, its
results written and parsed back, and evaluated, as the `track` then
`evaluate` commands do. The digest covers the result-file bytes plus the
report text. A change that alters any output on purpose updates the
digests below and says why; any other mismatch is a regression.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest
import scipy

from mttsort import ga, metrics, seqio, synth
from mttsort.model import PRESETS, format_config
from mttsort.tracker import run_sequence

from mttbench import workloads

# The `mttbench` presets at seed 0 (the four synth presets and the
# hand-built `shrink` stream), its big30 scene, whose assignments are
# mostly larger than 5x5, and the first 40 frames of big30.
# The 40-frame slice ends before most lost tracks reach the deep cascade
# levels; the full 200 frames reach them (about 3 s).
SCENE_DIGESTS = {
    "clean": "2b8eec86f7dede26d71544f22ae96968ae896d9341d2ace5e0eb4237dd04e9cd",
    "occlusion": "f3f06c50c8d5d8a1553c5abc4386d9f6d8abaf919919842ba8a989850bbd6d3a",
    "lookalike": "e820c8654142ccf2c87db381a079f19fd248b00a379d62e3ae4c5570a48c6134",
    "crowded": "9db1819bca73db30fb769b0cefe348939d7db469b98e7a1db30ee12ad2522776",
    "shrink": "5d9c5c411ea205061e10c63c6cf1491c4bf8b8f152babf89b7050aba91e5a1dd",
    "big30-40": "b2f0fddb9b817c882962a0667320c24d8b967da0394ab1708cb83b5792953688",
    "big30": "353e51ae802788da7ab36c7a2ae41cdf6e7a56c31370c787284a5115502043ba",
}
# Presets config2-config6 on two seed-0 presets: between them they run the
# confidence prefix at min_confidence 0.3 and 0.7 and NMS at
# nms_max_overlap 0.3 and 0.9, not only config1's 0.5 and 0.7. Two more
# configs hold the lifecycle edges, which the presets (max_age 30 or 80,
# n_init 3) never reach: at max_age 1 and n_init 1 a newborn confirms on
# its second hit and a missed track lives one frame; at max_age 2 and
# n_init 5 a track is tentative for four frames.
EDGE_CONFIGS = {
    "age1-init1": replace(PRESETS["config1"], max_age=1, n_init=1),
    "age2-init5": replace(PRESETS["config1"], max_age=2, n_init=5),
}
CONFIGS = {**PRESETS, **EDGE_CONFIGS}
CONFIG_DIGESTS = {
    ("crowded", "config2"): "3366f7baf84cfc549c621b17e074b0415e9b7fcdf42f682f920385e91dc4b366",
    ("crowded", "config3"): "b16e460f620dfbba587052aff189ce673da77095b9e6198249393e0822a955f0",
    ("crowded", "config4"): "44eeebea0494f571e5562f6179f6c9ce28b7a24bd488401a732db76e63b4f862",
    ("crowded", "config5"): "5ab9a6ffb19e7aa85c0df4e807d44bcc1a5a19dbd08b85eff7bed4552f15dc80",
    ("crowded", "config6"): "cb973b7493773648a6eb726f0424788dc0276b2e713fe619185144ee719919ff",
    ("lookalike", "config2"): "a25b013d9645b01c87acd326623d2c525c531b3a341e5f527e9d8af18e271a35",
    ("lookalike", "config3"): "b8fa21fd88ab190eccef8510e30543b0fe8d763cf156253046f78fd47d9ae6d4",
    ("lookalike", "config4"): "b8f8e07a3948c9cb951590a2596332431f59d18e2a7289ae60b1de1ea23d4453",
    ("lookalike", "config5"): "d9837615073f23269c211463e1cd2d6b85ad144d5e7b7bacd7b67d12fb68f77e",
    ("lookalike", "config6"): "f64ffc1f98dec609da6e10b08d407c8f85ebbae99285d4927bcaa57c7be0e106",
    ("crowded", "age1-init1"): "87d390d91e9de47b97c74fc840da87a34556a4d5190db15432a5ac950a7b7f39",
    ("crowded", "age2-init5"): "20c16ba4fd282a38ba4980484bb8684d53a6adaed7b36383ab111bff54f11420",
    ("lookalike", "age1-init1"): "beaa8b55cded98743c29282f0c0f195fd1f7fe939549208216e869e6e99a1220",
    ("lookalike", "age2-init5"): "7834300c63f89275380c132218d7ce5cbf69ce7e4f58da8c71f00bcd19a5e13f",
}
GA_DIGEST = "a951ce105714bdf4676618bf7c4868cdb203b9185d24966bd71939427a61d7d7"
GA_CONFIG = ga.GAConfig(population_size=6, max_generations=4, seed=0)
GA_FRAMES = 60


def scenes():
    out = workloads.scenes("presets", 0)
    big30 = replace(workloads.BIG30, name="big30-40", frames=40)
    return out + [workloads.Scene("big30-40", big30),
                  workloads.Scene("big30", workloads.BIG30)]


def assert_digest(scene, got, want):
    assert got == want, (
        f"{scene}: output digest {got} differs from the pinned {want} "
        f"(numpy {np.__version__}, scipy {scipy.__version__})")


def file_pipeline_digest(scene, directory):
    workloads.write_scene(scene, str(directory))
    seq = seqio.load_sequence(directory)
    results = run_sequence(seq.detections, scene.config, seq.frame_count)
    pred = directory / "pred.txt"
    seqio.write_results(results, pred)
    parsed = metrics.results_to_entries(seqio.parse_results(pred))
    report = seqio.format_report(metrics.evaluate(seq.gt, parsed))
    return hashlib.sha256(pred.read_bytes() + report.encode()).hexdigest()


@pytest.mark.parametrize("scene", scenes(), ids=lambda s: s.name)
def test_file_pipeline_digest(scene, tmp_path):
    got = file_pipeline_digest(scene, tmp_path / scene.name)
    assert_digest(scene.name, got, SCENE_DIGESTS[scene.name])


@pytest.mark.parametrize("scene_name, config_name", sorted(CONFIG_DIGESTS),
                         ids=lambda v: v)
def test_preset_config_digest(scene_name, config_name, tmp_path):
    scene = {s.name: s for s in workloads.scenes("presets", 0)}[scene_name]
    scene = replace(scene, config=CONFIGS[config_name])
    got = file_pipeline_digest(scene, tmp_path / scene_name)
    assert_digest(f"{scene_name}/{config_name}", got,
                  CONFIG_DIGESTS[scene_name, config_name])


def test_small_ga_digest():
    sequences = []
    for name in workloads.GA_SCENES:
        spec = synth.scenario_preset(name)
        spec = replace(spec, frames=GA_FRAMES, occlusions=tuple(
            w for w in spec.occlusions if w[2] <= GA_FRAMES))
        gt, detections = synth.generate(spec)
        sequences.append(seqio.Sequence(
            name=name, frame_count=spec.frames, width=spec.arena[0],
            height=spec.arena[1], embedding_dim=spec.embedding_dim,
            detections=tuple(detections), gt=tuple(gt)))
    best, best_score, history = ga.run_ga(ga.DEFAULT_GENE_SPECS, GA_CONFIG, sequences)
    text = format_config(best) + f"score = {best_score!r}\n" + ga.format_history(history)
    assert_digest("ga", hashlib.sha256(text.encode()).hexdigest(), GA_DIGEST)
