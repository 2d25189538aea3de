"""Spatially enhanced loss functions and spatial verification for gridded
binary-event forecasts.

The package pairs nine verification scores with neighbourhood and spectral
(Fourier / wavelet) filters to form a census of 336 differentiable loss
configurations, and provides the evaluation side: probabilistic
contingency scores, reliability and performance diagnostics, bootstrap
intervals, and orientation-aware model ranking.  A ``selfscore`` CLI wires
the pieces into batch workflows over a simple binary grid format.
"""

__version__ = "0.1.0"
