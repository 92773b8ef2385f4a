"""Histogram binning calibrators.

A Binner carries M-1 interior edges on the logit axis and one probability
representative per bin. Edges can come from fixed rules (eq_size, eq_mass)
or from the iterative mutual-information-maximizing fit, which alternates
closed-form edge and phi updates until the edges stop moving; the phi
levels belong to that fit, and a fitted binner starts with their sigmoids
as representatives until set_representatives assigns them from data.

The iterative updates assume the sigmoid model P(y=1 | lam) ~ sigmoid(t)
with t = scale * (lam + bias); the default scale=1, bias=0 uses the logit
itself. Each phi level is a quasi-arithmetic mean of its bin's t values, so
phi levels stay inside their bin's t interval and strict monotonicity of
phis (and hence of the closed-form edges between them) is preserved by
every update.
"""

import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .data import (
    PROB_EPS,
    BinaryCalibrationSet,
    check_count,
    check_finite,
    check_number,
    prob_of_logit,
)
from .errors import DataError, FitError

METHOD_EQ_SIZE = "eq_size"
METHOD_EQ_MASS = "eq_mass"
METHOD_IMAX = "imax"
BINNING_METHODS = (METHOD_IMAX, METHOD_EQ_SIZE, METHOD_EQ_MASS)

REP_EMPIRICAL_FREQ = "empirical_freq"
REP_RAW_PROB_MEAN = "raw_prob_mean"
REP_SCALED_PROB_MEAN = "scaled_prob_mean"
REP_STRATEGIES = (REP_EMPIRICAL_FREQ, REP_RAW_PROB_MEAN, REP_SCALED_PROB_MEAN)

MAX_ITERATIONS = 200
TOLERANCE = 1e-10
# The most points a seeding scores: larger sets are seeded on a weighted sketch.
SKETCH = 1 << 15


@dataclass
class ImaxConfig:
    """Knobs for the iterative fit."""

    n_bins: int = 15
    seed: int = 0
    scale: float = 1.0
    bias: float = 0.0

    def __post_init__(self):
        self.n_bins = check_count(self.n_bins, "n_bins", minimum=2)
        self.seed = check_count(self.seed, "seed")
        self.scale = check_number(self.scale, "scale")
        self.bias = check_number(self.bias, "bias")
        if self.scale <= 0:
            raise DataError(f"scale must be > 0, got {self.scale}")


@dataclass
class FitTrace:
    """Per-pair diagnostics from the iterative fit.

    loss is the sigmoid-model weighted NLL after each completed
    (edge update, phi update) pair, the objective both updates lower; it is
    non-increasing by construction, and the loop keeps no positive counts
    to compute any other loss. final_movement is the largest edge movement
    of the last pair; the fit converged when it fell below TOLERANCE, and
    otherwise stopped at MAX_ITERATIONS. phis are the fit's final phi
    levels, the t values the loss was taken at. seed_s is the wall time of
    the seeding in seconds. Nothing here goes into a bundle, so a refit
    stays byte-identical.
    """

    loss: np.ndarray
    phis: np.ndarray
    empty_bin_events: int = 0
    final_movement: float = np.inf
    converged: bool = False
    seed_s: float = 0.0


@dataclass
class Binner:
    """Step-function calibrator over logit bins: M-1 strictly increasing
    interior edges and one representative in [0, 1] per bin, not forced to
    increase with the logit."""

    edges: np.ndarray
    reps: np.ndarray
    method: str = METHOD_IMAX
    iterations: int = 0
    diagnostics: FitTrace | None = None

    def __post_init__(self):
        if self.method not in BINNING_METHODS:
            raise DataError(f"unknown binning method {self.method!r}")
        self.iterations = check_count(self.iterations, "binner iterations")
        self.edges = np.asarray(self.edges, dtype=np.float64)
        self.reps = np.asarray(self.reps, dtype=np.float64)
        if self.edges.ndim != 1 or self.reps.ndim != 1:
            raise FitError("edges and representatives must be 1-D")
        if self.reps.shape[0] != self.edges.shape[0] + 1:
            raise FitError("need exactly one representative per bin")
        if self.edges.size and np.any(np.diff(self.edges) <= 0):
            raise FitError("edges must be strictly increasing")
        if not np.all(np.isfinite(self.edges)):
            raise FitError("edges must be finite")
        if not np.all((self.reps >= 0.0) & (self.reps <= 1.0)):
            raise FitError("representatives must lie in [0, 1]")

    @property
    def n_bins(self):
        return self.reps.shape[0]


def quantize(binner, lam):
    """Bin index of each logit; values exactly on an edge go right."""
    edges = binner.edges if isinstance(binner, Binner) else np.asarray(binner)
    return np.searchsorted(edges, np.asarray(lam, dtype=np.float64), side="right")


def bin_sums(edges, x, *weights):
    """Per-bin count of x and per-bin sum of each weight array, for the
    len(edges) + 1 bins between edges; values exactly on an edge go right.

    Returns (counts, *sums), counts as integers.
    """
    idx = quantize(edges, x)
    m = len(edges) + 1
    return (
        np.bincount(idx, minlength=m),
        *(np.bincount(idx, weights=w, minlength=m) for w in weights),
    )


def sorted_bin_counts(sorted_values, edges):
    """Per-bin count of ascending sorted_values, for the len(edges) + 1 bins
    between increasing edges; values exactly on an edge go right, as in
    quantize and bin_sums.

    Each count is a difference of M - 1 binary searches into the values, so
    it costs O(M log N) instead of a pass over all N of them. Returns the
    counts as integers.
    """
    return np.diff(
        np.searchsorted(sorted_values, edges, side="left"), prepend=0, append=len(sorted_values)
    )


def bin_counts(edges, cal_set: BinaryCalibrationSet):
    """Per-bin count of cal_set's samples and of its positive samples, for
    the len(edges) + 1 bins between increasing edges, from sorted_bin_counts
    of the set's sorted logits and positives' logits. Returns (counts,
    positives), as integers.
    """
    edges = np.asarray(edges, dtype=np.float64)
    return sorted_bin_counts(cal_set.logits, edges), sorted_bin_counts(cal_set.pos_logits, edges)


def apply_binner(binner: Binner, lam):
    """Map logits to their bin's probability representative."""
    return binner.reps[quantize(binner, lam)]


def fit_eq_size(n_bins: int):
    """Interior edges splitting the probability axis into equal widths.

    Edges sit at logit(i / M), so they are antisymmetric around 0; the
    mirrored construction keeps that antisymmetry exact in floats.
    """
    n_bins = check_count(n_bins, "n_bins", minimum=2)
    probs = np.arange(1, n_bins) / n_bins
    edges = np.log(probs) - np.log1p(-probs)
    return (edges - edges[::-1]) / 2.0


def fit_eq_mass(cal_set: BinaryCalibrationSet, n_bins: int):
    """Interior edges at the empirical logit quantiles i / M.

    They are read from the set's ascending logits with no copy. Only a zero
    edge could depend on the rows' order, in its sign, in a set holding both
    -0.0 and 0.0, which no log-odds from data.logit_of_prob is.
    """
    n_bins = check_count(n_bins, "n_bins", minimum=2)
    if len(cal_set) < n_bins:
        raise FitError(f"need at least {n_bins} samples, got {len(cal_set)}")
    edges = np.quantile(cal_set.logits, np.arange(1, n_bins) / n_bins)
    if np.any(np.diff(edges) <= 0):
        raise FitError(
            "degenerate quantile edges (too many tied logits for eq_mass)"
        )
    return edges


def imax_update_edges(phis, scale: float = 1.0, bias: float = 0.0):
    """Closed-form edge update from strictly increasing phi levels."""
    phis = np.asarray(phis, dtype=np.float64)
    if phis.ndim != 1 or phis.shape[0] < 2:
        raise FitError("need at least two phi levels")
    if np.any(np.diff(phis) <= 0):
        raise FitError("phis must be strictly increasing")
    return kernels.edges_from_phis(phis, scale, bias)


def _midpoint_phis(edges, scale, bias):
    """Strictly increasing in-bin proxies: interior midpoints, outer bins
    extrapolated by the adjacent interior width (1.0 when none exists)."""
    edges = np.asarray(edges, dtype=np.float64)
    if edges.size == 0:
        raise FitError("cannot place proxy phis without edges")
    if edges.size == 1:
        w_lo = w_hi = 1.0
    else:
        w_lo = edges[1] - edges[0]
        w_hi = edges[-1] - edges[-2]
    mids = np.concatenate(
        [[edges[0] - w_lo / 2.0], (edges[:-1] + edges[1:]) / 2.0, [edges[-1] + w_hi / 2.0]]
    )
    return scale * (mids + bias)


def imax_update_phis(
    cal_set: BinaryCalibrationSet, edges, scale: float = 1.0, bias: float = 0.0
):
    """Closed-form phi update: per-bin log-ratio of sigmoid sums, summed in
    the set's ascending order.

    Empty bins fall back to the bin's midpoint proxy, so the result is still
    strictly increasing.
    """
    edges = np.asarray(edges, dtype=np.float64)
    t = scale * (cal_set.logits + bias)
    counts, sum_pos, sum_neg = bin_sums(
        edges, cal_set.logits, prob_of_logit(t), prob_of_logit(-t)
    )
    fallback = np.zeros(counts.shape) if counts.all() else _midpoint_phis(edges, scale, bias)
    return kernels.phis_from_sums(counts, sum_pos, sum_neg, fallback)


def _entropy(x):
    """Binary entropy -(x log x + (1-x) log(1-x)) of each x in [0, 1], nats.

    max(x, 5e-324) is x itself for every x > 0, subnormals included, so each
    term equals xlogy(x, x) bit for bit there; at x == 0 it is -0.0, which
    equals xlogy's 0.0 and vanishes in the sum.
    """
    q = 1.0 - x
    return -(np.log(np.maximum(q, 5e-324)) * q + np.log(np.maximum(x, 5e-324)) * x)


def _seed_phis(t_sorted, n_bins, rng):
    """Greedy k-means++-style seeding of phi levels on the transformed logits.

    Distances are Jensen-Shannon divergences between Bernoulli(sigmoid(t))
    and Bernoulli(sigmoid(center)) in place of squared Euclidean ones.
    Each step draws 2 + floor(log M) candidates proportional to the current
    weighted divergence-to-nearest-center potential, scores each against
    every point and keeps the one that leaves the least potential (the
    earlier draw on a tie). Returns the chosen t values sorted ascending.

    A set of up to SKETCH samples is seeded on its samples, each of weight
    1. A larger one is cut into SKETCH contiguous runs of equal count (to
    within one), each run's point being its middle sample weighted by its
    count, as k-means|| reclusters its weighted candidates; so a step costs
    O(SKETCH) however large the set. The first center is drawn as a sample
    and taken from that sample's run. A distinct value too rare to be any
    run's middle sample is not a point and cannot be picked.
    """
    n = t_sorted.shape[0]
    m = min(n, SKETCH)
    bounds = np.arange(m + 1) * n // m
    t = t_sorted[(bounds[:-1] + bounds[1:]) // 2]
    weights = np.diff(bounds).astype(np.float64)
    first = int(np.searchsorted(bounds, rng.integers(n), side="right")) - 1
    del bounds  # scoring needs only the weights; kept, it lifts the fit above its prefix sums
    p = prob_of_logit(t)
    h = _entropy(p)

    def divergence(c):
        return np.maximum(_entropy((p + p[c]) * 0.5) - (h + h[c]) * 0.5, 0.0)

    n_trials = 2 + int(np.log(n_bins))
    centers = [first]
    dist = divergence(first)
    pot = float((dist * weights).sum())
    for _ in range(1, n_bins):
        if not pot > 0.0:
            raise FitError(
                f"fewer than {n_bins} distinct values of sigmoid(scale * (logit + bias))"
                f" among the {m} seeding points; cannot seed bins"
            )
        draws = rng.random(n_trials) * pot
        candidates = np.minimum(np.searchsorted(np.cumsum(dist * weights), draws), m - 1)
        pot = np.inf
        for c in candidates:
            trial = np.minimum(dist, divergence(c))
            trial_pot = float((trial * weights).sum())
            if trial_pot < pot:
                pot, best, kept = trial_pot, int(c), trial
        dist = kept
        centers.append(best)

    phis = np.sort(t[centers])
    if np.any(np.diff(phis) <= 0):
        raise FitError("seeding produced duplicate phi levels")
    return phis


def fit_imax(cal_set: BinaryCalibrationSet, config: ImaxConfig | None = None) -> Binner:
    """Iteratively fit bin edges that maximize label information.

    Alternates the closed-form edge update (loss-indifference points between
    adjacent phi levels) with the closed-form phi update (per-bin log-ratio
    of sigmoid sums), starting from seeded phi levels. Stops after the phi
    update of the first pair whose maximum edge movement falls below
    TOLERANCE, or after MAX_ITERATIONS pairs.

    Memory: the fit reads the set's ascending logits as they are
    (data.BinaryCalibrationSet). Its only length-N float64 arrays are the two
    prefix sums, and t when scale != 1 or bias != 0; the seeding's arrays
    hold at most SKETCH points each, 3.2 MB at their peak.

    The seeding's wall time goes into the trace's seed_s; it is reported,
    never serialized, so a refit stays byte-identical.
    """
    cfg = config if config is not None else ImaxConfig()
    n = len(cal_set)
    if n < cfg.n_bins:
        raise FitError(f"need at least {cfg.n_bins} samples, got {n}")
    lam = cal_set.logits
    if lam[0] == lam[-1]:
        raise FitError("degenerate calibration set: all logits identical")
    if len(cal_set.pos_logits) in (0, n):
        warnings.warn("calibration set contains a single label", stacklevel=2)

    scale, bias = cfg.scale, cfg.bias
    with np.errstate(over="ignore"):  # an overflow is reported just below
        t = lam if scale == 1.0 and bias == 0.0 else scale * (lam + bias)
    if not (np.isfinite(t[0]) and np.isfinite(t[-1])):
        raise FitError("scale * (logit + bias) is not finite for every logit")
    started = time.perf_counter()
    phis0 = _seed_phis(t, cfg.n_bins, np.random.default_rng(cfg.seed))
    seed_s = time.perf_counter() - started
    cum_pos, tail_neg = kernels.prefix_sums(t)
    del t

    edges, phis, loss, movement, n_pairs, empties = kernels.alternate(
        lam, cum_pos, tail_neg, phis0, scale, bias, TOLERANCE, MAX_ITERATIONS
    )
    return Binner(
        edges=edges,
        reps=prob_of_logit(phis),
        method=METHOD_IMAX,
        iterations=n_pairs,
        diagnostics=FitTrace(
            loss=loss,
            phis=phis,
            empty_bin_events=empties,
            final_movement=movement,
            converged=movement < TOLERANCE,
            seed_s=seed_s,
        ),
    )


def binner_from_edges(edges, method: str) -> Binner:
    """Wrap fixed edges (eq_size / eq_mass) into a Binner.

    Its representatives are the sigmoids of midpoint-proxy phi levels: they
    increase strictly without depending on the data, and an empty outer bin
    keeps its one when set_representatives assigns the rest.
    """
    return Binner(edges=edges, reps=prob_of_logit(_midpoint_phis(edges, 1.0, 0.0)), method=method)


def set_representatives(
    binner: Binner,
    cal_set: BinaryCalibrationSet,
    strategy: str = REP_EMPIRICAL_FREQ,
    weights=None,
    clamp: bool = True,
) -> Binner:
    """Assign per-bin probability representatives from a calibration set.

    empirical_freq uses the in-bin positive fraction, counted by bin_counts;
    raw_prob_mean the in-bin mean of sigmoid(lam), and scaled_prob_mean that
    of weights, one probability per sample of the set, aligned with its
    ascending logits (a bundle passes its scaler's probabilities of them).
    Both means are summed by bin_sums in that ascending order, so they do not
    depend on the order of the calibration rows; weights with another
    strategy are a DataError.
    Empty interior bins fall back to the sigmoid of the bin midpoint; an
    empty outer bin keeps the binner's current representative, the sigmoid
    of its phi level on a binner fresh from a fit. By default
    representatives are clamped to [PROB_EPS, 1 - PROB_EPS] so downstream
    NLL stays finite; clamp=False keeps pure-bin frequencies at exactly 0 or
    1, which is what makes training-split calibration error vanish
    identically.
    """
    if strategy not in REP_STRATEGIES:
        raise DataError(f"unknown representative strategy {strategy!r}")
    if strategy != REP_SCALED_PROB_MEAN and weights is not None:
        raise DataError(f"weights apply only to {REP_SCALED_PROB_MEAN}, not {strategy}")
    if strategy == REP_EMPIRICAL_FREQ:
        counts, mass = bin_counts(binner.edges, cal_set)
    else:
        if strategy == REP_RAW_PROB_MEAN:
            weights = prob_of_logit(cal_set.logits)
        else:
            weights = _checked_weights(weights, len(cal_set))
        counts, mass = bin_sums(binner.edges, cal_set.logits, weights)

    occupied = counts > 0
    reps = np.where(occupied, mass / np.where(occupied, counts, 1.0), np.nan)
    if not np.all(occupied):
        fallback = binner.reps.copy()
        fallback[1:-1] = prob_of_logit(_midpoint_phis(binner.edges, 1.0, 0.0)[1:-1])
        reps = np.where(occupied, reps, fallback)
    if clamp:
        reps = np.clip(reps, PROB_EPS, 1.0 - PROB_EPS)

    return replace(binner, reps=reps)


def _checked_weights(weights, n):
    """scaled_prob_mean's weights as float64: n probabilities in [0, 1]."""
    if weights is None:
        raise DataError(f"{REP_SCALED_PROB_MEAN} needs weights, one probability per sample")
    try:
        weights = np.asarray(weights, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DataError(f"weights must be numbers: {exc}") from exc
    if weights.shape != (n,):
        raise DataError(f"weights shape {weights.shape} does not match {n} samples")
    lo, hi = check_finite(weights, "weights")
    if lo < 0.0 or hi > 1.0:
        raise DataError("weights outside [0, 1]")
    return weights


def fit_edges(cal_set: BinaryCalibrationSet, method: str, cfg: ImaxConfig) -> Binner:
    """A binner by method, its representatives the sigmoids of its phi levels."""
    if method == METHOD_EQ_SIZE:
        # as fit_eq_mass and fit_imax do, before fit_eq_size sizes an array by n_bins
        if len(cal_set) < cfg.n_bins:
            raise FitError(f"need at least {cfg.n_bins} samples, got {len(cal_set)}")
        return binner_from_edges(fit_eq_size(cfg.n_bins), method)
    if method == METHOD_EQ_MASS:
        return binner_from_edges(fit_eq_mass(cal_set, cfg.n_bins), method)
    if method == METHOD_IMAX:
        return fit_imax(cal_set, cfg)
    raise DataError(f"unknown binning method {method!r}")

