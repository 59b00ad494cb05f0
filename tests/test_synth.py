import numpy as np
import pytest

from mttsort.model import ConfigError
from mttsort.synth import (
    MAX_FALSE_POSITIVE_RATE, MAX_NOISE_SIGMA, ScenarioSpec, generate, load_scenario, parse_scenario_text,
    preset_scenarios, scenario_preset, with_seed,
)


def entries_equal(a, b):
    return len(a) == len(b) and all(x == y for x, y in zip(a, b))


def detections_equal(a, b):
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if (x.frame, x.box, x.confidence) != (y.frame, y.box, y.confidence):
            return False
        if not np.array_equal(x.embedding, y.embedding):
            return False
    return True


def test_zero_noise_detections_equal_gt():
    spec = ScenarioSpec(identities=2, frames=25, seed=3)
    gt, dets = generate(spec)
    assert len(dets) == len(gt)
    for g, d in zip(gt, dets):
        assert g.frame == d.frame
        assert g.box == d.box


def test_same_seed_identical_output():
    spec = ScenarioSpec(identities=3, frames=30, motion_noise_sigma=1.0,
                        miss_rate=0.1, false_positive_rate=0.4,
                        embedding_noise_sigma=0.3, seed=12)
    gt_a, det_a = generate(spec)
    gt_b, det_b = generate(spec)
    assert entries_equal(gt_a, gt_b)
    assert detections_equal(det_a, det_b)


def test_different_seed_differs():
    spec = ScenarioSpec(identities=2, frames=20, seed=1)
    gt_a, _ = generate(spec)
    gt_b, _ = generate(with_seed(spec, 2))
    assert not entries_equal(gt_a, gt_b)


def test_occlusion_removes_gt_and_detections():
    spec = ScenarioSpec(identities=3, frames=80,
                        occlusions=((2, 40, 60),), seed=5)
    gt, dets = generate(spec)
    for f in range(40, 61):
        assert not any(e.identity == 2 and e.frame == f for e in gt)
    present = {(e.frame, e.identity) for e in gt}
    assert (39, 2) in present and (61, 2) in present
    # with no noise, detections mirror gt presence exactly
    frames_of_id2 = {e.frame for e in gt if e.identity == 2}
    assert len(dets) == len(gt)
    assert {d.frame for d in dets} >= frames_of_id2


def test_gt_stays_inside_arena():
    spec = ScenarioSpec(identities=3, frames=400, arena=(320, 240), seed=9)
    gt, _ = generate(spec)
    for e in gt:
        assert e.box.left >= -1e-9
        assert e.box.top >= -1e-9
        assert e.box.right <= 320 + 1e-9
        assert e.box.bottom <= 240 + 1e-9


def test_detection_count_bound():
    # no jitter, no misses: per frame the identity detections mirror the GT
    # boxes exactly and everything else is a false positive
    spec = ScenarioSpec(identities=3, frames=50, false_positive_rate=0.5,
                        miss_rate=0.0, seed=14)
    gt, dets = generate(spec)
    gt_boxes = {}
    for e in gt:
        gt_boxes.setdefault(e.frame, []).append(e.box)
    dets_by_frame = {}
    for d in dets:
        dets_by_frame.setdefault(d.frame, []).append(d)
    for f, frame_dets in dets_by_frame.items():
        true_dets = [d for d in frame_dets if d.box in gt_boxes.get(f, [])]
        assert len(true_dets) == len(gt_boxes.get(f, []))
        assert len(frame_dets) >= len(true_dets)


def test_embedding_separability_margin():
    spec = ScenarioSpec(identities=3, frames=1, embedding_dim=8,
                        embedding_noise_sigma=0.3, seed=21)
    rng = np.random.default_rng(spec.seed)
    basis, _ = np.linalg.qr(rng.normal(size=(8, 3)))
    anchors = basis.T[:3]
    draws = rng.normal(0, spec.embedding_noise_sigma, size=(1000, 8))
    same, cross = [], []
    for i in range(1000):
        a = anchors[i % 3]
        e1 = a + draws[i]
        e1 = e1 / np.linalg.norm(e1)
        e2 = a + rng.normal(0, spec.embedding_noise_sigma, 8)
        e2 = e2 / np.linalg.norm(e2)
        other = anchors[(i + 1) % 3] + rng.normal(0, spec.embedding_noise_sigma, 8)
        other = other / np.linalg.norm(other)
        same.append(float(e1 @ e2))
        cross.append(float(e1 @ other))
    assert np.mean(same) - np.mean(cross) > 0.2


def test_presets():
    names = [s.name for s in preset_scenarios()]
    assert names == ["clean", "occlusion", "lookalike", "crowded"]
    clean = scenario_preset("clean")
    assert clean.miss_rate == 0.0
    assert clean.false_positive_rate == 0.0
    assert clean.frames == 300 and clean.identities == 3
    assert scenario_preset("crowded").frames == 300
    for spec in preset_scenarios():
        generate(with_seed(spec, 1) if spec.frames <= 150 else spec)  # no errors
    with pytest.raises(ConfigError):
        scenario_preset("nonexistent")


def test_too_many_identities_for_dim():
    with pytest.raises(ConfigError):
        ScenarioSpec(identities=5, embedding_dim=4)


def test_occlusion_window_validation():
    with pytest.raises(ConfigError):
        ScenarioSpec(frames=10, occlusions=((1, 5, 12),))
    with pytest.raises(ConfigError):
        ScenarioSpec(identities=2, frames=10, occlusions=((3, 2, 4),))


def test_scenario_file_round_trip(tmp_path):
    text = (
        "name = demo\n"
        "identities = 2\n"
        "frames = 40\n"
        "arena_width = 320\n"
        "arena_height = 240\n"
        "motion_noise_sigma = 0.5\n"
        "miss_rate = 0.05\n"
        "false_positive_rate = 0.1\n"
        "embedding_dim = 4\n"
        "embedding_noise_sigma = 0.2\n"
        "occlusions = 1:10:15, 2:20:25\n"
        "seed = 77\n"
    )
    spec = parse_scenario_text(text)
    assert spec == ScenarioSpec(
        name="demo", identities=2, frames=40, arena=(320.0, 240.0),
        motion_noise_sigma=0.5, miss_rate=0.05, false_positive_rate=0.1,
        embedding_dim=4, embedding_noise_sigma=0.2,
        occlusions=((1, 10, 15), (2, 20, 25)), seed=77)
    path = tmp_path / "scenario.txt"
    path.write_text(text)
    assert load_scenario(path) == spec
    with pytest.raises(ConfigError):
        parse_scenario_text("identities = two\n")
    with pytest.raises(ConfigError):
        parse_scenario_text("wheels = 4\n")


@pytest.mark.parametrize("line, key", [
    ("arena_width = nan", "arena_width"),
    ("arena_height = inf", "arena_height"),
    ("arena_width = wide", "arena_width"),
    ("arena = 640", "arena"),
    ("occlusions = 1:10", "occlusions"),
    ("occlusions = 1:a:15", "occlusions"),
    ("false_positive_rate = nan", "false_positive_rate"),
    ("embedding_noise_sigma = inf", "embedding_noise_sigma"),
])
def test_scenario_file_errors_name_file_and_key(line, key):
    with pytest.raises(ConfigError, match=f"scene.txt: .*'{key}'"):
        parse_scenario_text(line + "\n", source="scene.txt")


def test_scenario_spec_rejects_nan_rates_and_sigmas():
    for name in ("false_positive_rate", "motion_noise_sigma",
                 "embedding_noise_sigma"):
        with pytest.raises(ConfigError, match=name):
            ScenarioSpec(**{name: float("nan")})


def test_scenario_noise_caps_generate_finite_output():
    # At the caps the draws stay finite; just past them the spec is refused.
    caps = dict(false_positive_rate=MAX_FALSE_POSITIVE_RATE,
                motion_noise_sigma=MAX_NOISE_SIGMA,
                embedding_noise_sigma=MAX_NOISE_SIGMA)
    gt, dets = generate(ScenarioSpec(identities=2, frames=2, **caps))
    assert len(dets) > len(gt)
    assert all(np.isfinite(d.embedding).all() for d in dets)
    for name, cap in caps.items():
        with pytest.raises(ConfigError, match=f"{name} must be within"):
            ScenarioSpec(**{name: cap * 1.5})
