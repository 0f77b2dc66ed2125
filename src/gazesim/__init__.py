"""Eye-tracking signal-quality metrics, synthetic degradation toward a
lower-quality target device, and realism assessment."""

__version__ = "0.1.0"

from .types import (CalibrationCurve, DegradationPlan, FixationWindow,
                    GazeRecording, QualityTable, QualityVector)
from .metrics import (LatencyEstimate, estimate_latency, extract_fixations,
                      fixation_accuracy, fixation_precision, recording_quality,
                      reject_outliers, temporal_precision)
from .quantiles import percentile_rank, quantile
from .degrade import (add_precision_noise, build_accuracy_signal,
                      degrade_benchmark, degrade_modified, jitter_timestamps,
                      lowpass_zero_phase, nominal_target_timestamps,
                      plan_modified, resample_spline, zero_noise_pass)
from .calibrate import sweep_sigma
from .assess import (distribution_summary, one_nn_two_sample,
                     repeated_assessment, TwoSampleResult)
from .oracle import CorpusSpec, OracleSpec, PRESETS, generate_corpus, generate_recording
from .seeding import derive_seed

__all__ = [
    "CalibrationCurve", "DegradationPlan", "FixationWindow", "GazeRecording",
    "QualityTable", "QualityVector",
    "LatencyEstimate", "estimate_latency", "extract_fixations", "fixation_accuracy",
    "fixation_precision", "recording_quality", "reject_outliers", "temporal_precision",
    "percentile_rank", "quantile",
    "add_precision_noise", "build_accuracy_signal",
    "degrade_benchmark", "degrade_modified", "jitter_timestamps",
    "lowpass_zero_phase", "nominal_target_timestamps", "plan_modified",
    "resample_spline", "zero_noise_pass",
    "sweep_sigma",
    "distribution_summary", "one_nn_two_sample", "repeated_assessment", "TwoSampleResult",
    "CorpusSpec", "OracleSpec", "PRESETS", "generate_corpus", "generate_recording",
    "derive_seed",
]
