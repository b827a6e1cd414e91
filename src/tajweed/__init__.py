"""Recitation-rule recognition: filter-bank features, an RBF-kernel SVM
trained with SMO, and threshold-gated sliding-window detection."""

from .audio import AudioClip, load_wav, normalize_duration, resample
from .dataset import ManifestEntry, ReviewRecord, load_manifest, save_manifest, split
from .detection import (
    Detection,
    DetectionReport,
    RuleModel,
    calibrate_thresholds,
    detect,
    evaluate,
)
from .features import (
    FeatureConfig,
    FilterBank,
    Scaler,
    build_filterbank,
    extract_features,
    fit_scaler,
)
from .persistence import load_model, save_model
from .svm import (
    KernelParams,
    SvmModel,
    TrainingProblem,
    grid_search,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AudioClip", "load_wav", "resample", "normalize_duration",
    "FeatureConfig", "FilterBank", "Scaler",
    "build_filterbank", "extract_features", "fit_scaler",
    "KernelParams", "TrainingProblem", "SvmModel",
    "train", "grid_search",
    "RuleModel", "Detection", "DetectionReport",
    "detect", "calibrate_thresholds", "evaluate",
    "ManifestEntry", "ReviewRecord", "load_manifest", "save_manifest", "split",
    "save_model", "load_model",
]
