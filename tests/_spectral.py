"""Full-grid references for the spectral layers, built from public pieces
and the documented formulas: the centred zero-pad and its crop, the full
|nu| plane and Butterworth gain of a padded grid, and the inverse of a
Haar decomposition."""

import math

import numpy as np

from selfscore.fourier import BUTTERWORTH_ORDER, _axis_frequencies
from selfscore.wavelet import haar_inverse


def centred(shape, target):
    """The rows and columns of ``shape`` centred in ``target``; an odd
    remainder goes to the bottom/right."""
    return tuple(slice((t - n) // 2, (t - n) // 2 + n) for n, t in zip(shape, target))


def taper(field, target):
    """``field``'s values embedded, centred, in a zero grid of ``target``."""
    out = np.zeros(target)
    out[centred(field.shape, target)] = field.values
    return out


def crop(values, shape):
    """The centred ``shape`` window of ``values``."""
    return values[centred(shape, values.shape)]


def full_nu(shape, spacing_deg):
    """|nu| over every row and column of a ``shape`` grid's DFT."""
    nu_r = _axis_frequencies(shape[0], spacing_deg)
    nu_c = _axis_frequencies(shape[1], spacing_deg)
    return np.sqrt(nu_r[:, None] ** 2 + nu_c[None, :] ** 2)


def full_gain(shape, spacing_deg, band):
    """The band's gain built at every wavenumber of the full plane."""
    nu = full_nu(shape, spacing_deg)
    gain = np.ones(nu.shape, dtype=np.float64)
    if band.lo_deg > 0:
        nu_max = 1.0 / band.lo_deg
        gain *= 1.0 / (1.0 + (nu / nu_max) ** (2 * BUTTERWORTH_ORDER))
    if not math.isinf(band.hi_deg):
        nu_min = 1.0 / band.hi_deg
        gain *= 1.0 - 1.0 / (1.0 + (nu / nu_min) ** (2 * BUTTERWORTH_ORDER))
    return gain


def haar_reconstruct(details, coarsest):
    """Invert a Haar decomposition: walk up from the coarsest LL through each
    level's ``(lh, hl, hh)``, given level 1 first."""
    ll = coarsest
    for lh, hl, hh in reversed(details):
        ll = haar_inverse(ll, lh, hl, hh)
    return ll
