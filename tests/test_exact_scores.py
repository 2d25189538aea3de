"""Scores and gradients against exact rational arithmetic.

The oracle re-implements the sums and the gradient of every pixelwise score
with ``fractions.Fraction`` on the float inputs themselves, so it is exact.
Each derivative is written in the quotient-rule form of its score's
definition, not in the affine form ``PairSums.gradient`` evaluates, and it
follows the branch the exact sums take.  xent's gradient is rational in the
pixels; its oracle divides by the float ``ln 2`` the code uses, exactly.

A gradient must lie within ``K[kind] * eps`` of the oracle, relative to the
oracle's largest pixel.  Measured on these cases (``k_max`` below), the
affine forms reach k = 4.6 for heidke and at most 1.5 for the rest; the
quotient-rule forms they replaced reached 7.5 (heidke) and 3.7 (fss), and
only csi's k grew, from 0.99 to 1.25.  peirce and gerrity are checked pixel
by pixel against the size of the terms each pixel's derivative adds,
y/(a+c) and (1-y)/(b+d) and their gerrity twins, and their scores against
a/(a+c) and b/(b+d): the honest measure near zero skill, where the
difference cancels.  The oracle makes each case's sums and each kind's
constants once, and keeps every gradient it computes.

The heidke cases include the one that exposed the old form n - ((a+b)(a+c)
+ (b+d)(c+d))/n of the denominator: an all-zero prediction against the
shortest-wavelength Fourier band of a sparse mask, where n_rand is close
to n.  There the old form's denominator was off by 2.6e-14 relative and its
gradient by 2.7e-14 of the largest pixel.
"""

import functools
from fractions import Fraction

import numpy as np
import pytest

from selfscore.losses import parse_spec_id, prepare_target
from selfscore.scores import _LN2, SCORE_KINDS, XENT_EPS, PairSums
from selfscore.synthetic import SynthSpec, synth_mask, synth_prob

BOUND = 4e-15
EPS = np.finfo(np.float64).eps
#: Gradient error bound per kind, in eps times the oracle's largest pixel:
#: heidke's denominator n - n_rand loses digits that the others keep.
K = dict.fromkeys(SCORE_KINDS, 2.0) | {"heidke": 6.0}


@functools.lru_cache(maxsize=None)
def exact_sums(name):
    """The scored pixels of case ``name`` as Fractions, and their exact sums."""
    pv, tv, w = case(name)
    ps = [Fraction(float(x)) for x in pv[w]]
    ys = [Fraction(float(x)) for x in tv[w]]
    sums = {
        "a": sum(p * y for p, y in zip(ps, ys)),
        "b": sum(p * (1 - y) for p, y in zip(ps, ys)),
        "c": sum((1 - p) * y for p, y in zip(ps, ys)),
        "d": sum((1 - p) * (1 - y) for p, y in zip(ps, ys)),
        "n": Fraction(len(ps)),
        "sse": sum((p - y) ** 2 for p, y in zip(ps, ys)),
        "ref": sum(p ** 2 + y ** 2 for p, y in zip(ps, ys)),
        "union": sum(max(p, y) for p, y in zip(ps, ys)),
    }
    return ps, ys, sums


def heidke_parts(s):
    """(a + d - n_rand, n - n_rand) of heidke, in the textbook form."""
    a, b, c, d, n = s["a"], s["b"], s["c"], s["d"], s["n"]
    n_rand = ((a + b) * (a + c) + (b + d) * (c + d)) / n
    return a + d - n_rand, n - n_rand


def constant_branch(kind, s):
    """Whether ``score`` of ``kind`` takes a constant fallback on the sums ``s``."""
    a, b, c, d = s["a"], s["b"], s["c"], s["d"]
    return {"fss": s["ref"] == 0, "iou": s["union"] == 0, "csi": a + b + c == 0,
            "heidke": heidke_parts(s)[1] == 0, "peirce": a + c == 0 or b + d == 0,
            "gerrity": b + d == 0}.get(kind, False)


def exact_derivative(kind, s):
    """d(score kind)/dp at one scored pixel (p, y), with d(a, b, c, d)/dp =
    (y, 1 - y, -y, y - 1), off a constant branch: a function of (p, y) whose
    constants are made from the sums ``s`` once."""
    a, b, c, d, n = s["a"], s["b"], s["c"], s["d"], s["n"]
    if kind == "brier":
        return lambda p, y: 2 * (p - y) / n
    if kind == "fss":  # 1 - sse/ref
        ref, sse, ref2 = s["ref"], s["sse"], s["ref"] ** 2
        return lambda p, y: -(2 * (p - y) * ref - sse * 2 * p) / ref2
    if kind == "iou":  # a/union, with d max(p, y)/dp = 1, 1/2 or 0
        union, union2, half = s["union"], s["union"] ** 2, Fraction(1, 2)
        return lambda p, y: (y * union - a * (1 if p > y else half if p == y else 0)) / union2
    if kind == "dice":  # (a + d)/n
        return lambda p, y: (y + (y - 1)) / n
    if kind == "xent":  # the clip is the identity inside, and flat outside
        lo, hi, scale = Fraction(XENT_EPS), Fraction(1.0 - XENT_EPS), n * Fraction(_LN2)
        return lambda p, y: -(y / p - (1 - y) / (1 - p)) / scale if lo < p < hi else 0
    if kind == "csi":
        den, den2 = a + b + c, (a + b + c) ** 2
        return lambda p, y: (y * den - a * (1 - y)) / den2
    if kind == "heidke":
        num, den = heidke_parts(s)
        kappa, den2 = ((a + c) - (b + d)) / n, den ** 2  # kappa = d(n_rand)/dp
        return lambda p, y: ((2 * y - 1 - kappa) * den + num * kappa) / den2
    if kind == "peirce":
        return lambda p, y: y / (a + c) - (1 - y) / (b + d)
    # gerrity: (a/r + d*r - b - c)/n with r = (a+c)/(b+d) fixed; a/r is 0 at r = 0.
    r = (a + c) / (b + d)
    return lambda p, y: ((y / r if r else 0) + (y - 1) * r - (1 - y) + y) / n


@functools.lru_cache(maxsize=None)
def exact_gradient(name, kind):
    """The gradient of ``kind`` on case ``name``, exact, then rounded to float."""
    pv, _, w = case(name)
    ps, ys, s = exact_sums(name)
    grad = np.zeros(pv.shape)
    if not constant_branch(kind, s):
        derivative = exact_derivative(kind, s)
        grad[w] = [float(derivative(p, y)) for p, y in zip(ps, ys)]
    return grad


def term_scale(name, kind):
    """Per pixel, the size of the terms peirce's or gerrity's derivative adds."""
    pv, _, w = case(name)
    ps, ys, s = exact_sums(name)
    ac, bd = s["a"] + s["c"], s["b"] + s["d"]
    if kind == "peirce":
        terms = [y / ac + (1 - y) / bd for y in ys]
    else:
        r = ac / bd
        terms = [(y * (1 + (1 / r if r else 0)) + (1 - y) * (1 + r)) / s["n"] for y in ys]
    scale = np.zeros(pv.shape)
    scale[w] = [float(t) for t in terms]
    return scale


CASES = {  # name: (grid size, synth seed, target band, prediction, eval mask)
    "zero-F0-0.025": (64, 3, "F0-0.025", "zero", False),
    "zero-F0.025-0.05": (64, 3, "F0.025-0.05", "zero", False),
    "blur-F0.05-0.1": (32, 1, "F0.05-0.1", "blur", False),
    "uniform-W0-0.1": (32, 2, "W0-0.1", "uniform", False),
    "blur-masked-F0.1-inf": (32, 0, "F0.1-inf", "blur", True),
    "blur-binary": (32, 4, None, "blur", False),
    "uniform-no-events": (32, 5, "none", "uniform", False),
}
HEIDKE_CASES = sorted(name for name, spec in CASES.items() if spec[2] not in (None, "none"))


@functools.lru_cache(maxsize=None)
def case(name):
    """(prediction, target, scored pixels) of a named case: the target is a
    band of a synthetic mask, the mask itself, or an all-zero observation."""
    size, seed, band, pred, masked = CASES[name]
    y = synth_mask(SynthSpec(size, size, 0.02, n_cells=12, seed=seed))
    tv = {None: y.values, "none": np.zeros(y.shape)}.get(band)
    if tv is None:
        tv = prepare_target(parse_spec_id(f"heidke_{band}"), y).filtered.values
    rng = np.random.default_rng(seed)
    pv = {"zero": lambda: np.zeros(y.shape), "blur": lambda: synth_prob(y, blur_r=2).values,
          "uniform": lambda: rng.uniform(size=y.shape)}[pred]()
    w = rng.random(y.shape) < 0.7 if masked else np.ones(y.shape, dtype=bool)
    return pv, tv, w


def k_max(name, kind):
    """The gradient's error on case ``name``, in eps times its largest pixel."""
    want = exact_gradient(name, kind)
    scale = np.abs(want).max()
    err = np.abs(PairSums(*case(name)).gradient(kind) - want).max()
    return err / (EPS * scale) if scale else (0.0 if err == 0.0 else np.inf)


@pytest.mark.parametrize("name", HEIDKE_CASES)
def test_heidke_score_and_gradient_match_exact_arithmetic(name):
    _, _, s = exact_sums(name)
    num, den = heidke_parts(s)
    sums = PairSums(*case(name))
    result = sums.score("heidke")
    assert result.fallbacks == ()
    assert abs(Fraction(result.value) - num / den) <= BOUND
    want = exact_gradient(name, "heidke")
    assert np.abs(sums.gradient("heidke") - want).max() <= BOUND * np.abs(want).max()


@pytest.mark.parametrize("kind", SCORE_KINDS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_every_gradient_is_within_k_eps_of_exact_arithmetic(name, kind):
    assert k_max(name, kind) <= K[kind]


def test_the_cases_reach_the_gerrity_zero_event_ratio_and_a_binary_target():
    sums = PairSums(*case("uniform-no-events"))
    assert sums.score("gerrity").fallbacks == ("gerrity_zero_event_ratio",)
    assert sums.score("peirce").fallbacks == ("peirce_empty_class",)
    assert set(np.unique(case("blur-binary")[1])) == {0.0, 1.0}


@pytest.mark.parametrize("kind", ["peirce", "gerrity"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_peirce_and_gerrity_are_exact_to_the_size_of_their_terms(name, kind):
    _, _, s = exact_sums(name)
    sums = PairSums(*case(name))
    result = sums.score(kind)
    if constant_branch(kind, s):
        assert result.fallbacks and not sums.gradient(kind).any()
        return
    a, b, c, d, n = s["a"], s["b"], s["c"], s["d"], s["n"]
    if kind == "peirce":
        exact, terms = a / (a + c) - b / (b + d), a / (a + c) + b / (b + d)
    else:
        r = (a + c) / (b + d)
        exact = ((a / r if r else 0) + d * r - b - c) / n
        terms = ((a / r if r else 0) + d * r + b + c) / n
    assert abs(Fraction(result.value) - exact) <= 2 * EPS * terms
    err = np.abs(sums.gradient(kind) - exact_gradient(name, kind))
    assert (err <= K[kind] * EPS * term_scale(name, kind)).all()
