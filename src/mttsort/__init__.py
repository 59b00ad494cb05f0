"""mttsort: a DeepSort-derived multi-object tracker with a pooled
appearance-feature buffer, HOTA/MOTA/IDF1 evaluation, and a genetic
hyperparameter optimizer."""

from .model import (
    BoundingBox,
    ConfigError,
    DataError,
    Detection,
    FrameDetections,
    TrackerConfig,
    load_preset,
    PRESETS,
)
from .kalman import KalmanModel, CHI2_GATE_4DOF
from .association import FeatureBuffer, INFEASIBLE, iou_columns, solve_assignment
from .tracker import FrameResult, Track, Tracker, preprocess, run_sequence
from .metrics import EvalReport, GtEntry, evaluate, score, average_reports
from .ga import GAConfig, GeneSpec, DEFAULT_GENE_SPECS, run_ga
from .synth import ScenarioSpec, generate, preset_scenarios, scenario_preset
from .seqio import Sequence, load_sequence, write_results, parse_results

__all__ = [
    "BoundingBox", "ConfigError", "DataError", "Detection", "FrameDetections",
    "TrackerConfig", "load_preset", "PRESETS",
    "KalmanModel", "CHI2_GATE_4DOF",
    "FeatureBuffer", "INFEASIBLE", "iou_columns", "solve_assignment",
    "FrameResult", "Track", "Tracker", "preprocess", "run_sequence",
    "EvalReport", "GtEntry", "evaluate", "score", "average_reports",
    "GAConfig", "GeneSpec", "DEFAULT_GENE_SPECS", "run_ga",
    "ScenarioSpec", "generate", "preset_scenarios", "scenario_preset",
    "Sequence", "load_sequence", "write_results", "parse_results",
]

__version__ = "0.1.0"
