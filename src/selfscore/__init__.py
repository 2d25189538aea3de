"""Spatially enhanced loss functions and spatial verification for gridded
binary-event forecasts.

The package pairs nine verification scores with neighbourhood and spectral
(Fourier / wavelet) filters to form a census of 336 differentiable loss
configurations, and provides the evaluation side: probabilistic
contingency scores, reliability and performance diagnostics, bootstrap
intervals, and orientation-aware model ranking.  A ``selfscore`` CLI wires
the pieces into batch workflows over a simple binary grid format.
"""

from .evaluation import (AttributesData, PairedTestResult, PerformanceData,
                         attributes_diagram, aupd_from_curve, bootstrap_ci,
                         consistency_bars, emit_report, load_report,
                         paired_bootstrap_test, performance_diagram)
from .fourier import (FourierSpectrum, NumericError, blackman_harris_weights,
                      butterworth_gain, fourier_band_pass, fourier_band_passes,
                      fourier_spectrum)
from .grid import GridField, WavelengthBand, read_grid, write_grid
from .losses import (CENSUS_BANDS, NBHD_HALF_WIDTHS, SPECTRAL_METHODS,
                     FilterSpec, GradCheckReport, LossSpec, PreparedTarget,
                     apply_filter, band_pass, enumerate_configs, grad_check,
                     loss_detail, loss_gradient, loss_value, metric_table,
                     metric_tables, metric_value, parse_filter_id,
                     parse_spec_id, prepare_target)
from .neighbourhood import (max_filter, max_filter_array, mean_filter,
                            mean_filter_array)
from .ranking import (FilterWinner, MetricMatrix, best_per_filter,
                      filter_mean_ranks, overall_mean_ranks, rank_models)
from .scores import (NBHD_SCORE_KINDS, ORIENTATION, SCORE_KINDS,
                     ContingencyCounts, NbhdContingency, ScoreResult,
                     nbhd_contingency, nbhd_score, nbhd_score_detail,
                     pixelwise_score, pixelwise_score_detail,
                     prob_contingency)
from .synthetic import (Cell, SynthSpec, rasterize, sample_cells, synth_mask,
                        synth_prob, translate)
from .wavelet import (WaveletDecomposition, WaveletPyramid, haar_forward,
                      haar_inverse, haar_pyramid, level_wavelengths,
                      pyramid_reconstruct, wavelet_band_pass,
                      wavelet_band_passes, wavelet_decompose)

__version__ = "0.1.0"

__all__ = [
    "AttributesData", "CENSUS_BANDS", "Cell", "ContingencyCounts",
    "FilterSpec", "FilterWinner", "FourierSpectrum", "GradCheckReport",
    "GridField", "LossSpec", "MetricMatrix", "NBHD_HALF_WIDTHS",
    "NBHD_SCORE_KINDS", "NbhdContingency", "NumericError", "ORIENTATION",
    "PairedTestResult", "PerformanceData", "PreparedTarget", "SCORE_KINDS",
    "SPECTRAL_METHODS", "ScoreResult", "SynthSpec", "WaveletDecomposition",
    "WaveletPyramid", "WavelengthBand", "apply_filter", "attributes_diagram",
    "aupd_from_curve", "band_pass", "best_per_filter",
    "blackman_harris_weights", "bootstrap_ci", "butterworth_gain",
    "consistency_bars", "emit_report", "enumerate_configs",
    "filter_mean_ranks", "fourier_band_pass", "fourier_band_passes",
    "fourier_spectrum", "grad_check", "haar_forward", "haar_inverse",
    "haar_pyramid", "level_wavelengths", "load_report", "loss_detail",
    "loss_gradient", "loss_value", "max_filter", "max_filter_array",
    "mean_filter", "mean_filter_array", "metric_table", "metric_tables",
    "metric_value", "nbhd_contingency", "nbhd_score", "nbhd_score_detail",
    "overall_mean_ranks", "paired_bootstrap_test", "parse_filter_id",
    "parse_spec_id", "performance_diagram", "pixelwise_score",
    "pixelwise_score_detail", "prepare_target", "prob_contingency",
    "pyramid_reconstruct", "rank_models", "rasterize", "read_grid",
    "sample_cells", "synth_mask", "synth_prob", "translate",
    "wavelet_band_pass", "wavelet_band_passes", "wavelet_decompose",
    "write_grid",
]
