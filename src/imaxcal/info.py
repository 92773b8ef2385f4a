"""KDE-based mutual-information upper bound for binary calibration sets.

The bound is I(y; lam) computed from Gaussian kernel density estimates of
the two class-conditional logit densities: no quantizer can carry more
label information than the continuous logit does, so the bound calibrates
how much of the available information a binner's empirical MI captures.

The bound evaluates each density on its quadrature grid by linear binning
onto a 16 times finer grid and one FFT convolution with the sampled kernel
(Silverman 1982, AS 176; Wand 1994), within 1e-8 nats of the exact sum.
``kde_density`` stays the exact evaluator at arbitrary points.
"""

from dataclasses import dataclass

import numpy as np

from .data import BinaryCalibrationSet, check_number
from .errors import DataError
from .metrics import mi_of_quantizer

_SQRT_2PI = float(np.sqrt(2.0 * np.pi))
# exp(-0.5 t^2) underflows to exactly 0.0 past |t| ~ 38.6, so a +/- 39 h
# window around each query point reproduces the full sum bit-for-bit.
_KERNEL_WINDOW = 39.0
_GRID_POINTS = 4096
_GRID_MARGIN = 5.0
_DENSITY_FLOOR = 1e-300
# Fine grid points per quadrature step: every _REFINE-th fine point is a
# quadrature point.
_REFINE = 16


@dataclass
class Kde1D:
    """Gaussian KDE with a fixed bandwidth; samples kept sorted."""

    samples: np.ndarray
    bandwidth: float

    def __post_init__(self):
        self.samples = np.sort(np.asarray(self.samples, dtype=np.float64))
        if self.samples.ndim != 1 or self.samples.size < 2:
            raise DataError("KDE needs at least two samples")
        if not np.all(np.isfinite(self.samples)):
            raise DataError("KDE samples must be finite")
        self.bandwidth = check_number(self.bandwidth, "KDE bandwidth")
        if not (self.bandwidth > 0 and np.isfinite(self.bandwidth)):
            raise DataError("KDE bandwidth must be positive and finite")


def kde_fit(samples) -> Kde1D:
    """Fit a Gaussian KDE with Scott's rule bandwidth sigma * n^(-1/5).

    The sample standard deviation uses ddof=1. All-identical samples have
    no scale and are rejected; Kde1D takes a fixed bandwidth directly.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size < 2:
        raise DataError("KDE needs at least two samples")
    sigma = float(np.std(samples, ddof=1))
    if sigma <= 0:
        raise DataError("KDE needs at least two distinct samples")
    return Kde1D(samples=samples, bandwidth=sigma * samples.size ** (-0.2))


def kde_density(kde: Kde1D, x):
    """Exact mixture-of-Gaussians density at the query points.

    Queries are processed in sorted chunks against the sample window within
    +/- 39 bandwidths, where the kernel is representable; outside it the
    kernel underflows to zero, so the windowing loses nothing.
    """
    x = np.asarray(x, dtype=np.float64)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    out = np.zeros_like(xs)
    h = kde.bandwidth
    samples = kde.samples
    norm = 1.0 / (samples.size * h * _SQRT_2PI)

    chunk = 256
    for start in range(0, xs.size, chunk):
        q = xs[start : start + chunk]
        lo = np.searchsorted(samples, q[0] - _KERNEL_WINDOW * h, side="left")
        hi = np.searchsorted(samples, q[-1] + _KERNEL_WINDOW * h, side="right")
        if lo >= hi:
            continue
        window = samples[lo:hi]
        # Keep the (chunk x window) temporaries bounded.
        block = max(1, int(4_000_000 / max(q.size, 1)))
        acc = np.zeros(q.size)
        for wstart in range(0, window.size, block):
            z = (q[:, None] - window[None, wstart : wstart + block]) / h
            acc += np.exp(-0.5 * z * z).sum(axis=1)
        out[start : start + chunk] = acc * norm

    result = np.empty_like(out)
    result[order] = out
    return float(result[0]) if scalar else result


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


def _density_on_grid(kde: Kde1D, lo: float, hi: float) -> np.ndarray:
    """The KDE at the _GRID_POINTS uniform points of [lo, hi].

    The samples are linearly binned onto a grid _REFINE times finer and
    convolved with the Gaussian kernel sampled on it, truncated at +/- 39
    bandwidths, by one zero-padded real FFT; the padding is at least the
    kernel's half-width, so nothing wraps around. Round-off below zero is
    clipped to 0.
    """
    size = (_GRID_POINTS - 1) * _REFINE + 1
    step = (hi - lo) / (size - 1)
    h = kde.bandwidth
    weights = _linear_bins(kde.samples, lo, step, size)
    half = min(int(_KERNEL_WINDOW * h / step), size - 1)
    offsets = np.arange(half + 1) * (step / h)
    kernel = np.exp(-0.5 * offsets * offsets)
    nfft = 1 << (size + half - 1).bit_length()
    padded = np.zeros(nfft)
    padded[: half + 1] = kernel
    padded[nfft - half :] = kernel[:0:-1]
    conv = np.fft.irfft(np.fft.rfft(weights, nfft) * np.fft.rfft(padded), nfft)
    density = conv[: size : _REFINE] / (kde.samples.size * h * _SQRT_2PI)
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


def mi_upper_bound(kde_pos: Kde1D, kde_neg: Kde1D, prior: float) -> float:
    """I(y; lam) from the two class-conditional KDEs, by trapezoid quadrature.

    The grid spans [min - 5h, max + 5h] of the pooled samples with
    h = max of the two bandwidths, 4096 uniform points, where
    ``_density_on_grid`` evaluates each density for ``mi_of_densities``.
    """
    prior = check_number(prior, "prior")
    if not 0.0 < prior < 1.0:
        raise DataError("prior must lie strictly inside (0, 1)")
    h = max(kde_pos.bandwidth, kde_neg.bandwidth)
    lo = min(kde_pos.samples[0], kde_neg.samples[0]) - _GRID_MARGIN * h
    hi = max(kde_pos.samples[-1], kde_neg.samples[-1]) + _GRID_MARGIN * h
    return mi_of_densities(
        np.linspace(lo, hi, _GRID_POINTS),
        _density_on_grid(kde_pos, lo, hi),
        _density_on_grid(kde_neg, lo, hi),
        prior,
    )


def mi_bound_of_set(cal_set: BinaryCalibrationSet) -> float:
    """Convenience wrapper: split a set by target, fit the two KDEs, bound."""
    pos = cal_set.logits[cal_set.targets == 1]
    neg = cal_set.logits[cal_set.targets == 0]
    if pos.size < 2 or neg.size < 2:
        raise DataError("MI bound needs at least two samples of each label")
    prior = float(cal_set.targets.mean())
    return mi_upper_bound(kde_fit(pos), kde_fit(neg), prior)


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
