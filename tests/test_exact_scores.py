"""Heidke against exact rational arithmetic.

The oracle re-implements the contingency sums, the heidke score and its
gradient with ``fractions.Fraction`` on the float inputs themselves, so it
is exact; the float code must stay within a few ulps of it.  The cases
include the one that exposed the old form n - ((a+b)(a+c) + (b+d)(c+d))/n
of the denominator: an all-zero prediction against the shortest-wavelength
Fourier band of a sparse mask, where n_rand is close to n.  There the old
form's denominator was off by 2.6e-14 relative and its gradient by 2.7e-14
of the largest pixel.
"""

from fractions import Fraction

import numpy as np
import pytest

from selfscore.losses import parse_spec_id, prepare_target
from selfscore.scores import PairSums
from selfscore.synthetic import SynthSpec, synth_mask, synth_prob

BOUND = 4e-15


def exact_heidke(pv, tv, w):
    """(score, gradient) of heidke over the scored pixels ``w``, exactly."""
    ps = [Fraction(float(x)) for x in pv[w]]
    ys = [Fraction(float(x)) for x in tv[w]]
    a = sum(p * y for p, y in zip(ps, ys))
    b = sum(p * (1 - y) for p, y in zip(ps, ys))
    c = sum((1 - p) * y for p, y in zip(ps, ys))
    d = sum((1 - p) * (1 - y) for p, y in zip(ps, ys))
    n = Fraction(len(ps))
    n_rand = ((a + b) * (a + c) + (b + d) * (c + d)) / n
    num, den = a + d - n_rand, n - n_rand
    kappa = ((a + c) - (b + d)) / n
    grad = np.zeros(pv.shape)
    grad[w] = [float(((2 * y - 1 - kappa) * den + num * kappa) / den ** 2) for y in ys]
    return num / den, grad


CASES = {  # name: (grid size, synth seed, target band, prediction, eval mask)
    "zero-F0-0.025": (64, 3, "F0-0.025", "zero", False),
    "zero-F0.025-0.05": (64, 3, "F0.025-0.05", "zero", False),
    "blur-F0.05-0.1": (32, 1, "F0.05-0.1", "blur", False),
    "uniform-W0-0.1": (32, 2, "W0-0.1", "uniform", False),
    "blur-masked-F0.1-inf": (32, 0, "F0.1-inf", "blur", True),
}


def case(name):
    """(prediction, target, scored pixels) of a named case."""
    size, seed, band, pred, masked = CASES[name]
    y = synth_mask(SynthSpec(size, size, 0.02, n_cells=12, seed=seed))
    tv = prepare_target(parse_spec_id(f"heidke_{band}"), y).filtered.values
    rng = np.random.default_rng(seed)
    pv = {"zero": lambda: np.zeros(y.shape), "blur": lambda: synth_prob(y, blur_r=2).values,
          "uniform": lambda: rng.uniform(size=y.shape)}[pred]()
    w = rng.random(y.shape) < 0.7 if masked else np.ones(y.shape, dtype=bool)
    return pv, tv, w


@pytest.mark.parametrize("name", sorted(CASES))
def test_heidke_score_and_gradient_match_exact_arithmetic(name):
    pv, tv, w = case(name)
    want_score, want_grad = exact_heidke(pv, tv, w)
    sums = PairSums(pv, tv, w)
    result = sums.score("heidke")
    assert result.fallbacks == ()
    assert abs(Fraction(result.value) - want_score) <= BOUND
    scale = np.abs(want_grad).max()
    assert np.abs(sums.gradient("heidke") - want_grad).max() <= BOUND * scale

