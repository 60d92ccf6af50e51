"""Robust least-absolute-deviation estimation of superimposed 2-D sinusoids."""

from .estimator import (
    AsymptoticVariances,
    EstimateReport,
    FitError,
    asymptotic_variances,
    fit,
    information_matrix,
    match_components,
)
from .model import (
    ComponentParams,
    Grid,
    ModelParams,
    SignalField,
    read_signal_text,
    synthesize_signal,
    write_signal_text,
)
from .montecarlo import (
    ExperimentResult,
    ExperimentSpec,
    emit_table,
    parse_table,
    read_experiment_config,
    run_experiment,
)
from .noise import (
    Contamination,
    NoiseSpec,
    contaminate,
    density_at_zero,
    noisy_observation,
    parse_noise_spec,
    sample_noise,
)
from .objective import PeakPickingError, pick_peaks
from .optimizer import OptimResult
from .texture import (
    GrayImage,
    field_to_image,
    mean_absolute_pixel_error,
    read_pgm,
    texture_demo,
    write_pgm,
)

__version__ = "0.1.0"
