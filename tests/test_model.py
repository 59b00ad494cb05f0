import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mttsort.ga import load_ga_config
from mttsort.model import (
    BoundingBox, ConfigError, Detection, TrackerConfig, format_config,
    load_config, load_preset, parse_config_text, parse_kv_lines, PRESETS,
)
from mttsort.seqio import ParseError, parse_meta
from mttsort.synth import load_scenario


def test_to_center_worked_examples():
    assert BoundingBox(0, 0, 10, 20).to_center().tolist() == [5, 10, 0.5, 20]
    assert BoundingBox(10, 10, 20, 20).to_center().tolist() == [20, 20, 1.0, 20]


@given(
    left=st.floats(-1e4, 1e4),
    top=st.floats(-1e4, 1e4),
    width=st.floats(0.01, 1e4),
    height=st.floats(0.01, 1e4),
)
def test_center_form_round_trip(left, top, width, height):
    box = BoundingBox(left, top, width, height)
    back = BoundingBox.from_center(box.to_center())
    assert np.allclose(
        [back.left, back.top, back.width, back.height],
        [left, top, width, height], rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("width,height", [(0, 5), (5, 0), (-1, 5), (5, -2)])
def test_degenerate_boxes_rejected(width, height):
    with pytest.raises(ValueError):
        BoundingBox(0, 0, width, height)


@pytest.mark.parametrize("fields", [
    (math.nan, 0, 4, 4), (0, -math.inf, 4, 4), (0, 0, math.inf, 4), (0, 0, 4, math.nan),
])
def test_non_finite_boxes_rejected(fields):
    with pytest.raises(ValueError, match="finite"):
        BoundingBox(*fields)


def test_detection_validation():
    box = BoundingBox(0, 0, 4, 4)
    emb = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        Detection(frame=0, box=box, confidence=0.5, embedding=emb)
    with pytest.raises(ValueError):
        Detection(frame=1, box=box, confidence=1.5, embedding=emb)
    for value in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            Detection(frame=1, box=box, confidence=0.5,
                      embedding=np.array([1.0, value]))
    det = Detection(frame=1, box=box, confidence=0.5, embedding=emb)
    assert det.confidence == 0.5


def test_preset_values():
    assert load_preset("config2").min_confidence == 0.7
    config3 = load_preset("config3")
    assert config3.max_dist == 0.4 and config3.max_age == 80
    config4 = load_preset("config4")
    assert config4.nms_max_overlap == 0.3 and config4.max_iou_distance == 0.3
    config6 = load_preset("config6")
    assert config6.min_confidence == 0.3 and config6.max_dist == 0.6


def test_baseline_defaults():
    config1 = load_preset("config1")
    assert config1 == TrackerConfig(
        min_confidence=0.5, max_dist=0.2, max_iou_distance=0.7,
        nms_max_overlap=0.7, max_age=30, n_init=3, nn_budget=100,
        feature_buffer_size=5)


def test_presets_stable_across_loads():
    for name in PRESETS:
        assert load_preset(name) == load_preset(name)


def test_unknown_preset():
    with pytest.raises(ConfigError):
        load_preset("config99")


def test_parse_config_partial_and_comments():
    cfg = parse_config_text(
        "# full-line comment\n"
        "max_dist = 0.4   # trailing comment\n"
        "\n"
        "max_age = 80\n")
    assert cfg.max_dist == 0.4
    assert cfg.max_age == 80
    assert cfg.min_confidence == 0.5  # untouched default


def test_parse_config_errors_name_the_field():
    with pytest.raises(ConfigError, match="max_dist"):
        parse_config_text("max_dist = 1.5\n")
    with pytest.raises(ConfigError, match="max_age"):
        parse_config_text("max_age = 0\n")
    with pytest.raises(ConfigError, match="n_init"):
        parse_config_text("n_init = 2.5\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("maximum_age = 10\n")


def test_parse_kv_rejects_malformed_lines():
    with pytest.raises(ConfigError, match=":2:"):
        parse_kv_lines("a = 1\nnonsense\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_kv_lines("a = 1\na = 2\n")


@given(
    min_confidence=st.floats(0, 1),
    max_dist=st.floats(0.01, 1),
    max_age=st.integers(1, 500),
    feature_buffer_size=st.integers(1, 20),
)
def test_config_format_parse_round_trip(min_confidence, max_dist, max_age,
                                        feature_buffer_size):
    cfg = TrackerConfig(
        min_confidence=min_confidence, max_dist=max_dist,
        max_age=max_age, feature_buffer_size=feature_buffer_size)
    assert parse_config_text(format_config(cfg)) == cfg


def test_out_of_range_config_rejected_directly():
    with pytest.raises(ConfigError, match="nms_max_overlap"):
        TrackerConfig(nms_max_overlap=0.0)
    with pytest.raises(ConfigError, match="nn_budget"):
        TrackerConfig(nn_budget=0)


# Each settings file with its loader, a valid body and a float key; the
# four share one reader, so each must reject the same bad values.
SETTINGS_FILES = {
    "config": (load_config, "", "max_dist"),
    "ga-config": (load_ga_config, "", "mutation_rate"),
    "scenario": (load_scenario, "", "motion_noise_sigma"),
    "meta": (parse_meta,
             "name = x\nframe_count = 3\nheight = 48\nembedding_dim = 2\n", "width"),
}


@pytest.mark.parametrize("kind", sorted(SETTINGS_FILES))
@pytest.mark.parametrize("line", ["{key} = nan", "{key} = inf", "{key} = abc",
                                  "wheels = 1"])
def test_settings_readers_name_the_file_and_key(tmp_path, kind, line):
    loader, body, float_key = SETTINGS_FILES[kind]
    line = line.format(key=float_key)
    key = line.split(" = ")[0]
    path = tmp_path / f"{kind}.txt"
    path.write_text(body + line + "\n")
    with pytest.raises((ConfigError, ParseError),
                       match=re.escape(str(path)) + f".*'{key}'"):
        loader(path)
