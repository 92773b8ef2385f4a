"""KDE-based mutual-information upper bound for binary calibration sets.

The bound is I(y; lam) computed from Gaussian kernel density estimates of
the two class-conditional logit densities: no quantizer can carry more
label information than the continuous logit does, so the bound calibrates
how much of the available information a binner's empirical MI captures.
``mi_bound_of_set`` is the bound's one entry point: it takes a calibration
set, fits both KDEs and integrates.

The bound evaluates each density on its quadrature grid by linear binning
onto a 16 times finer grid and one FFT convolution with the sampled kernel
(Silverman 1982, AS 176; Wand 1994), within 1e-8 nats of the exact sum.
The sampled kernel is cut at +/- 39 bandwidths, where it underflows to 0.
"""

import numpy as np

from .data import BinaryCalibrationSet, check_number
from .errors import DataError
from .metrics import mi_of_quantizer

_SQRT_2PI = float(np.sqrt(2.0 * np.pi))
# exp(-0.5 t^2) underflows to exactly 0.0 past |t| ~ 38.6, so the FFT
# kernel cut at +/- 39 h drops no term of the full sum.
_KERNEL_WINDOW = 39.0
_GRID_POINTS = 4096
_GRID_MARGIN = 5.0
_DENSITY_FLOOR = 1e-300
# Fine grid points per quadrature step: every _REFINE-th fine point is a
# quadrature point.
_REFINE = 16


def _linear_bins(samples, lo, step, size):
    """Linear-binning weights of the samples on the grid lo + step * i.

    Each sample splits its unit mass between its two neighbouring grid
    points in proportion to closeness, so the weights sum to the sample
    count and keep each sample's mean position.
    """
    pos = (samples - lo) / step
    left = np.clip(np.floor(pos).astype(np.intp), 0, size - 2)
    frac = pos - left
    return np.bincount(left, 1.0 - frac, size) + np.bincount(left + 1, frac, size)


def _density_on_grid(samples, h: float, lo: float, hi: float) -> np.ndarray:
    """The Gaussian KDE of the sorted samples with bandwidth h at the
    _GRID_POINTS uniform points of [lo, hi].

    The samples are linearly binned onto a grid _REFINE times finer and
    convolved with the Gaussian kernel sampled on it, truncated at +/- 39
    bandwidths, by one zero-padded real FFT; the padding is at least the
    kernel's half-width, so nothing wraps around. Round-off below zero is
    clipped to 0.
    """
    size = (_GRID_POINTS - 1) * _REFINE + 1
    step = (hi - lo) / (size - 1)
    weights = _linear_bins(samples, lo, step, size)
    half = min(int(_KERNEL_WINDOW * h / step), size - 1)
    offsets = np.arange(half + 1) * (step / h)
    kernel = np.exp(-0.5 * offsets * offsets)
    nfft = 1 << (size + half - 1).bit_length()
    padded = np.zeros(nfft)
    padded[: half + 1] = kernel
    padded[nfft - half :] = kernel[:0:-1]
    conv = np.fft.irfft(np.fft.rfft(weights, nfft) * np.fft.rfft(padded), nfft)
    density = conv[: size : _REFINE] / (samples.size * h * _SQRT_2PI)
    return np.maximum(density, 0.0)


def mi_of_densities(grid, p1, p0, prior: float) -> float:
    """I(y; x) in nats, by trapezoid quadrature on grid, from the class
    densities p1 = p(x | y=1) and p0 = p(x | y=0) sampled on it and the
    prior P(y=1). Grid points where the mixture density is below 1e-300 are
    skipped; a negative total is reported as 0.
    """
    mix = prior * p1 + (1.0 - prior) * p0
    ok = mix >= _DENSITY_FLOOR
    integrand = np.zeros_like(grid)
    pos_ok = ok & (p1 > 0)
    neg_ok = ok & (p0 > 0)
    integrand[pos_ok] = prior * p1[pos_ok] * np.log(p1[pos_ok] / mix[pos_ok])
    integrand[neg_ok] += (1.0 - prior) * p0[neg_ok] * np.log(p0[neg_ok] / mix[neg_ok])
    return max(float(np.trapezoid(integrand, grid)), 0.0)


def mi_bound_of_set(cal_set: BinaryCalibrationSet) -> float:
    """I(y; lam) in nats of the set's logits, by trapezoid quadrature.

    Each label's logits get a Gaussian KDE with Scott's bandwidth
    sigma * n^(-1/5), sigma their standard deviation with ddof=1. The grid
    spans [min - 5h, max + 5h] of the pooled logits with h the larger
    bandwidth, 4096 uniform points, where ``_density_on_grid`` evaluates
    each density for ``mi_of_densities``; the prior is the set's share of
    positives. Each label needs two distinct samples, and a spread that
    overflows float64 leaves no finite bandwidth. Both labels' logits are
    read ascending, as the set holds them, so the bound does not depend on
    the order of the calibration rows.
    """
    by_label = [cal_set.pos_logits, cal_set.logits[cal_set.targets == 0]]
    if min(samples.size for samples in by_label) < 2:
        raise DataError("MI bound needs at least two samples of each label")
    kdes = []
    for samples in by_label:
        sigma = float(np.std(samples, ddof=1))
        if sigma <= 0:
            raise DataError("KDE needs at least two distinct samples")
        # sigma > 0 keeps the bandwidth positive; an overflow makes it inf
        h = check_number(sigma * samples.size ** (-0.2), "KDE bandwidth")
        kdes.append((samples, h))
    (pos, h_pos), (neg, h_neg) = kdes
    h = max(h_pos, h_neg)
    lo = min(pos[0], neg[0]) - _GRID_MARGIN * h
    hi = max(pos[-1], neg[-1]) + _GRID_MARGIN * h
    return mi_of_densities(
        np.linspace(lo, hi, _GRID_POINTS),
        _density_on_grid(pos, h_pos, lo, hi),
        _density_on_grid(neg, h_neg, lo, hi),
        pos.size / len(cal_set),
    )


def mi_report(cal_set: BinaryCalibrationSet, named_binners, bound):
    """Rows of (name, n_bins, mi, upper_bound, ratio) for fitted binners, in
    nats.

    bound is mi_bound_of_set(cal_set), of the set the binners were fitted
    on. The ratio is mi / bound, or None when the bound is 0 and no ratio
    exists.
    """
    rows = []
    for name, binner in named_binners:
        mi = mi_of_quantizer(binner, cal_set)
        ratio = mi / bound if bound > 0 else None
        rows.append((name, binner.n_bins, mi, bound, ratio))
    return rows


def mi_report_csv(rows) -> str:
    """The report rows as CSV; a ratio of None is an empty field."""
    lines = ["name,n_bins,mi_nats,upper_bound_nats,ratio"]
    for name, m, mi, bound, ratio in rows:
        ratio = "" if ratio is None else repr(float(ratio))
        lines.append(f"{name},{m},{repr(float(mi))},{repr(float(bound))},{ratio}")
    return "\n".join(lines) + "\n"
