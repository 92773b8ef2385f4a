"""Histogram binning calibrators.

A Binner carries M-1 interior edges on the logit axis plus per-bin phi
levels and (once assigned) per-bin probability representatives. Edges can
come from fixed rules (eq_size, eq_mass) or from the iterative
mutual-information-maximizing fit, which alternates closed-form edge and
phi updates until the edges stop moving.

The iterative updates assume the sigmoid model P(y=1 | lam) ~ sigmoid(t)
with t = scale * (lam + bias); the default scale=1, bias=0 uses the logit
itself. Each phi level is a quasi-arithmetic mean of its bin's t values, so
phi levels stay inside their bin's t interval and strict monotonicity of
phis (and hence of the closed-form edges between them) is preserved by
every update.
"""

import bisect
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .data import (
    PROB_EPS,
    BinaryCalibrationSet,
    check_count,
    check_number,
    json_list,
    json_object,
    prob_of_logit,
)
from .errors import DataError, FitError
from .scaling import apply_scaler

METHOD_EQ_SIZE = "eq_size"
METHOD_EQ_MASS = "eq_mass"
METHOD_IMAX = "imax"

REP_EMPIRICAL_FREQ = "empirical_freq"
REP_RAW_PROB_MEAN = "raw_prob_mean"
REP_SCALED_PROB_MEAN = "scaled_prob_mean"
REP_STRATEGIES = (REP_EMPIRICAL_FREQ, REP_RAW_PROB_MEAN, REP_SCALED_PROB_MEAN)

_BINNER_JSON_FIELDS = ("method", "edges", "phis", "reps", "seed", "iterations")

MAX_ITERATIONS = 200
TOLERANCE = 1e-10
# Not data.BLOCK_ENTRIES: the seeding's sums go chunk by chunk, so its chunk size shapes bundles.
SEED_CHUNK = 1 << 16
DRAW_BLOCK = 1 << 12
CELL_PROBES = 256
_SMALLEST_SUBNORMAL = 5e-324


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
        if not (np.isfinite(self.scale) and self.scale > 0):
            raise DataError(f"scale must be finite and > 0, got {self.scale}")
        if not np.isfinite(self.bias):
            raise DataError(f"bias must be finite, got {self.bias}")


@dataclass
class FitTrace:
    """Per-pair diagnostics from the iterative fit.

    loss is the sigmoid-model weighted NLL after each completed
    (edge update, phi update) pair, the objective both updates lower; it is
    non-increasing by construction, and the loop keeps no positive counts
    to compute any other loss. final_movement is the largest edge movement
    of the last pair; the fit converged when it fell below TOLERANCE, and
    otherwise stopped at MAX_ITERATIONS. seed_s is the wall time of the
    seeding in seconds, a timing for diagnostics that Binner.to_dict leaves
    out.
    """

    loss: np.ndarray
    empty_bin_events: int = 0
    final_movement: float = np.inf
    converged: bool = False
    seed_s: float = 0.0


@dataclass
class Binner:
    """Step-function calibrator over logit bins: one representative per bin,
    not forced to increase with the logit."""

    edges: np.ndarray
    phis: np.ndarray
    reps: np.ndarray | None = None
    method: str = METHOD_IMAX
    iterations: int = 0
    seed: int | None = None
    diagnostics: FitTrace | None = None

    def __post_init__(self):
        self.iterations = check_count(self.iterations, "binner iterations")
        if self.seed is not None:
            self.seed = check_count(self.seed, "binner seed")
        self.edges = np.asarray(self.edges, dtype=np.float64)
        self.phis = np.asarray(self.phis, dtype=np.float64)
        if self.edges.ndim != 1 or self.phis.ndim != 1:
            raise FitError("edges and phis must be 1-D")
        if self.phis.shape[0] != self.edges.shape[0] + 1:
            raise FitError("need exactly one phi level per bin")
        if self.edges.size and np.any(np.diff(self.edges) <= 0):
            raise FitError("edges must be strictly increasing")
        if not np.all(np.isfinite(self.edges)) or not np.all(np.isfinite(self.phis)):
            raise FitError("edges and phis must be finite")
        if self.reps is not None:
            self.reps = np.asarray(self.reps, dtype=np.float64)
            if self.reps.shape != self.phis.shape:
                raise FitError("need exactly one representative per bin")
            if not np.all((self.reps >= 0.0) & (self.reps <= 1.0)):
                raise FitError("representatives must lie in [0, 1]")

    @property
    def n_bins(self):
        return self.phis.shape[0]

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "edges": [float(v) for v in self.edges],
            "phis": [float(v) for v in self.phis],
            "reps": None if self.reps is None else [float(v) for v in self.reps],
            "seed": self.seed,
            "iterations": self.iterations,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Binner":
        payload = json_object(payload, _BINNER_JSON_FIELDS, "binner")
        if payload["method"] not in (METHOD_EQ_SIZE, METHOD_EQ_MASS, METHOD_IMAX):
            raise DataError(f"unknown binning method {payload['method']!r}")

        def numbers(name):
            what = f"binner {name}"
            return [check_number(v, what) for v in json_list(payload[name], what)]

        try:
            return cls(
                edges=numbers("edges"),
                phis=numbers("phis"),
                reps=None if payload["reps"] is None else numbers("reps"),
                method=payload["method"],
                iterations=payload["iterations"],
                seed=payload["seed"],
            )
        except FitError as exc:
            raise DataError(f"malformed binner: {exc}") from exc


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


def bin_counts(edges, cal_set: BinaryCalibrationSet):
    """Per-bin count of cal_set's samples and of its positive samples, for
    the len(edges) + 1 bins between increasing edges; values exactly on an
    edge go right, as in quantize and bin_sums.

    Each count is a difference of M - 1 binary searches into the set's
    sorted copies, so after the set's one sort it costs O(M log N) instead of
    a pass over all N samples. Returns (counts, positives), as integers.
    """
    edges = np.asarray(edges, dtype=np.float64)
    return tuple(
        np.diff(np.searchsorted(values, edges, side="left"), prepend=0, append=len(values))
        for values in (cal_set.sorted_logits, cal_set.sorted_pos_logits)
    )


def apply_binner(binner: Binner, lam):
    """Map logits to their bin's probability representative."""
    if binner.reps is None:
        raise FitError("binner has no representatives; call set_representatives")
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

    They are taken on the set's sorted copy: the same order statistics as on
    the set itself, so the same edges. Only a zero edge could differ, in its
    sign, in a set holding both -0.0 and 0.0, which no log-odds from
    data.logit_of_prob is.
    """
    n_bins = check_count(n_bins, "n_bins", minimum=2)
    if len(cal_set) < n_bins:
        raise FitError(f"need at least {n_bins} samples, got {len(cal_set)}")
    edges = np.quantile(cal_set.sorted_logits, np.arange(1, n_bins) / n_bins)
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
    """Closed-form phi update: per-bin log-ratio of sigmoid sums.

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


def _xlogx(x, out):
    """x * log(x) of each x >= 0 into out (not x itself), with 0 * log(0) = 0.

    max(x, 5e-324) is x itself for every x > 0, subnormals included, so the
    result equals xlogy(x, x) bit for bit there; at x == 0 it is -0.0, which
    equals 0.0 and vanishes in the entropy sums below. It allocates nothing.
    """
    np.maximum(x, _SMALLEST_SUBNORMAL, out=out)
    np.log(out, out=out)
    return np.multiply(out, x, out=out)


def _entropy_into(x, out, scratch):
    """Binary entropy -(x log x + (1-x) log(1-x)) of each x into out, nats.

    scratch has x's length; x is left intact. The value is that of
    -(xlogy(x, x) + xlogy(1 - x, 1 - x)) bit for bit.
    """
    np.subtract(1.0, x, out=scratch)
    _xlogx(scratch, out)
    _xlogx(x, scratch)
    out += scratch
    return np.negative(out, out=out)


def _jsd_into(p, h, pc, hc, bufs):
    """Jensen-Shannon divergence between each Bernoulli(p[i]) and
    Bernoulli(pc), H((p+pc)/2) - (h + hc)/2 clamped at 0, in nats.

    h are the entropies of p and hc that of pc. bufs are three buffers at
    least as long as p; the result is a view of the third. Each value equals
    the direct formula evaluated with xlogy bit for bit.
    """
    mid, scratch, out = (buf[: p.shape[0]] for buf in bufs)
    np.add(p, pc, out=mid)
    mid *= 0.5
    _entropy_into(mid, out, scratch)
    np.add(h, hc, out=mid)
    mid *= 0.5
    out -= mid
    return np.maximum(out, 0.0, out=out)


def _chunks(lo, hi):
    """[a, b) pieces of [lo, hi), each at most SEED_CHUNK long."""
    return ((a, min(a + SEED_CHUNK, hi)) for a in range(lo, hi, SEED_CHUNK))


def _voronoi_cell(p, h, dist, c, lo, hi, bufs):
    """The samples of [lo, hi) that center c would take over: [L, R).

    A sample i joins c's cell when JSD(p[i], p[c]) < dist[i]. For p below
    and above p[c] the difference JSD(p, p[c]) - JSD(p, z) to any other
    center z is monotone in p, because the binary entropy is strictly
    concave, so on sorted p the cell is one contiguous run around c. Each
    side's edge is bracketed between a sample known to be inside and one
    known to be outside (or the segment end), and the bracket is narrowed
    by probing at most CELL_PROBES evenly spaced samples at a time. A sample
    with dist[c] == 0 (a center, or tied with one) takes over nothing.
    """
    if not dist[c] > 0.0:
        return c, c
    pc, hc = p[c], h[c]
    ends = []
    for step, stop in ((-1, lo - 1), (1, hi)):
        inside, outside = c, stop
        while abs(outside - inside) > 1:
            stride = -(-(abs(outside - inside) - 1) // CELL_PROBES)
            idx = inside + step * stride * np.arange(1, (abs(outside - inside) - 1) // stride + 1)
            taken = _jsd_into(p[idx], h[idx], pc, hc, bufs) < dist[idx]
            if taken.all():
                inside = int(idx[-1])
            else:
                first = int(np.argmin(taken))
                outside = int(idx[first])
                if first:
                    inside = int(idx[first - 1])
        ends.append(outside)
    return ends[0] + 1, ends[1]


def _block_sums(dist, lo, hi, blocks):
    """Write the sums of dist over every DRAW_BLOCK block that meets [lo, hi)
    into blocks."""
    j = lo // DRAW_BLOCK
    a, b = j * DRAW_BLOCK, min(-(-hi // DRAW_BLOCK) * DRAW_BLOCK, dist.shape[0])
    if a < b:
        sums = np.add.reduceat(dist[a:b], np.arange(0, b - a, DRAW_BLOCK))
        blocks[j : j + sums.shape[0]] = sums


def _drawn_sample(draw, dist, block_cum, buf):
    """The first sample whose cumulative dist reaches draw, clipped to the
    last one: block_cum is the cumulative sum of dist's DRAW_BLOCK block
    sums, so only the block it points into is summed sample by sample, in
    buf."""
    n = dist.shape[0]
    j = int(np.searchsorted(block_cum, draw))
    a = j * DRAW_BLOCK
    if a >= n:
        return n - 1
    b = min(a + DRAW_BLOCK, n)
    cum = np.cumsum(dist[a:b], out=buf[: b - a])
    rest = draw - block_cum[j - 1] if j else draw
    return min(a + int(np.searchsorted(cum, rest)), n - 1)


def _sigmoid_entropy(t_sorted):
    """sigmoid(t) and the binary entropy of each sigmoid, the two length-N
    arrays every seeding on t reads; the entropy is written chunk by chunk."""
    n = t_sorted.shape[0]
    p = prob_of_logit(t_sorted, out=np.empty(n))
    h = np.empty(n)
    scratch = np.empty(min(n, SEED_CHUNK))
    for a, b in _chunks(0, n):
        _entropy_into(p[a:b], h[a:b], scratch[: b - a])
    return p, h


def _seed_phis(t_sorted, n_bins, rng, sigmoid_entropy):
    """Greedy k-means++-style seeding of phi levels on the transformed logits.

    Distances are Jensen-Shannon divergences between Bernoulli(sigmoid(t))
    and Bernoulli(sigmoid(center)) in place of squared Euclidean ones.
    Each step draws 2 + floor(log M) candidates proportional to the current
    divergence-to-nearest-center potential and keeps the candidate that
    shrinks the total potential the most. Returns the chosen t values sorted
    ascending. sigmoid_entropy is _sigmoid_entropy(t_sorted), which
    seedings on one t share.

    A candidate lowers the divergence only of the samples in its Voronoi
    cell (_voronoi_cell), a contiguous run of sorted samples between its
    nearest chosen centers. Each candidate is scored by its gain
    sum(dist - jsd) over that cell, and only the winner's cell is written
    into dist, with every divergence from the in-place kernel _jsd_into.
    Candidates are scored in decreasing order of their cell's dist sum,
    which bounds the gain, and scoring stops once that bound falls below
    the best gain; ties go to the earlier draw, so no pick changes. Draws
    search the sums of dist over DRAW_BLOCK-sample blocks, then the
    cumulative sum of one block, so no step takes a full-length cumsum. The
    potential is summed over all of dist after each step, as a full
    evaluation does.

    Tolerance to a full evaluation: dist and every divergence are the same
    bit for bit except where a sample sits at a cell edge with its
    divergence and dist equal to rounding; a draw can differ only within
    rounding of the cumulative sum, because block sums and the full cumsum
    add in another order; and candidates compare by gain, so a pick can
    differ only where two distinct candidates' potentials agree to about
    1e-15 relative.
    """
    n = t_sorted.shape[0]
    p, h = sigmoid_entropy
    dist = np.empty(n)
    bufs = np.empty((3, min(n, SEED_CHUNK)))

    def jsd_chunks(c, lo, hi):
        for a, b in _chunks(lo, hi):
            yield a, b, _jsd_into(p[a:b], h[a:b], p[c], h[c], bufs)

    n_trials = 2 + int(np.log(n_bins))
    first = int(rng.integers(n))
    centers = [first]  # sorted sample positions of the chosen centers
    for a, b, jsd in jsd_chunks(first, 0, n):
        dist[a:b] = jsd
    blocks = np.empty(-(-n // DRAW_BLOCK))
    _block_sums(dist, 0, n, blocks)
    pot = float(dist.sum())

    for _ in range(1, n_bins):
        if not pot > 0.0:
            raise FitError(
                f"fewer than {n_bins} distinct values of sigmoid(scale * (logit + bias));"
                " cannot seed bins"
            )
        draws = rng.random(n_trials) * pot
        block_cum = np.cumsum(blocks)
        scored = []
        for i, draw in enumerate(draws):
            c = _drawn_sample(draw, dist, block_cum, bufs[0])
            k = bisect.bisect_left(centers, c)
            lo = centers[k - 1] + 1 if k > 0 else 0
            hi = centers[k] if k < len(centers) else n
            cell = _voronoi_cell(p, h, dist, c, lo, hi, bufs)
            bound = sum(float(dist[a:b].sum()) for a, b in _chunks(*cell))
            scored.append((-bound, i, c, cell))
        # a gain never exceeds its cell's dist sum, so in decreasing order of
        # that bound the rest cannot win once it falls below the best gain
        best_gain = -np.inf
        for neg_bound, i, c, cell in sorted(scored):
            if -neg_bound < best_gain:
                break
            gain = 0.0
            for a, b, jsd in jsd_chunks(c, *cell):
                np.subtract(dist[a:b], jsd, out=jsd)
                gain += float(np.maximum(jsd, 0.0, out=jsd).sum())
            if gain > best_gain or (gain == best_gain and i < best_draw):
                best_id, best_cell, best_gain, best_draw = c, cell, gain, i
        for a, b, jsd in jsd_chunks(best_id, *best_cell):
            np.minimum(dist[a:b], jsd, out=dist[a:b])
        _block_sums(dist, *best_cell, blocks)
        bisect.insort(centers, best_id)
        pot = float(dist.sum())

    phis = np.sort(t_sorted[centers])
    if np.any(np.diff(phis) <= 0):
        raise FitError("seeding produced duplicate phi levels")
    return phis


def fit_imax(cal_set: BinaryCalibrationSet, config: ImaxConfig | None = None) -> Binner:
    """Iteratively fit bin edges that maximize label information.

    Alternates the closed-form edge update (loss-indifference points between
    adjacent phi levels) with the closed-form phi update (per-bin log-ratio
    of sigmoid sums), starting from seeded phi levels. Stops after the phi
    update of the first pair whose maximum edge movement falls below
    TOLERANCE, or after MAX_ITERATIONS pairs. This is fit_imax_many with one
    config.

    Memory: the fit reads the set's sorted logits (data.BinaryCalibrationSet),
    which stay with the set. Besides those it holds at most three length-N
    float64 arrays: while seeding the sigmoid, entropy and divergence
    arrays, then the two prefix sums. t adds one when scale != 1 or
    bias != 0; the seeding's three SEED_CHUNK buffers add 1.5 MB.

    The seeding's wall time goes into the trace's seed_s; it is reported,
    never serialized, so a refit stays byte-identical.
    """
    return fit_imax_many(cal_set, [config if config is not None else ImaxConfig()])[0]


def fit_imax_many(cal_set: BinaryCalibrationSet, configs) -> list:
    """fit_imax of cal_set with each config, in order, from one preparation.

    The configs may differ in n_bins and seed but must share scale and
    bias. Every seeding reads one pair of sigmoid and entropy arrays, and
    every alternation one pair of prefix sums, built after the last seeding
    has freed its arrays, so the call's peak memory is that of one fit.
    Each result equals fit_imax's bit for bit: every seeding and every
    alternation reads the same values. The sigmoid and entropy arrays are
    timed in the first config's seed_s.
    """
    configs = list(configs)
    if not configs:
        raise DataError("need at least one imax config")
    scale, bias = configs[0].scale, configs[0].bias
    if any((cfg.scale, cfg.bias) != (scale, bias) for cfg in configs):
        raise DataError("imax configs fitted together must share scale and bias")
    n = len(cal_set)
    for cfg in configs:
        if n < cfg.n_bins:
            raise FitError(f"need at least {cfg.n_bins} samples, got {n}")
    lam = cal_set.sorted_logits
    if lam[0] == lam[-1]:
        raise FitError("degenerate calibration set: all logits identical")
    if cal_set.targets.min() == cal_set.targets.max():
        warnings.warn("calibration set contains a single label", stacklevel=2)

    with np.errstate(over="ignore"):  # an overflow is reported just below
        t = lam if scale == 1.0 and bias == 0.0 else scale * (lam + bias)
    if not (np.isfinite(t[0]) and np.isfinite(t[-1])):
        raise FitError("scale * (logit + bias) is not finite for every logit")
    started = time.perf_counter()
    sigmoid_entropy = _sigmoid_entropy(t)
    seeded = []
    for cfg in configs:
        phis0 = _seed_phis(t, cfg.n_bins, np.random.default_rng(cfg.seed), sigmoid_entropy)
        done = time.perf_counter()
        seeded.append((phis0, done - started))
        started = done
    del sigmoid_entropy
    cum_pos, tail_neg = kernels.prefix_sums(t)
    del t

    binners = []
    for cfg, (phis0, seed_s) in zip(configs, seeded):
        try:
            edges, phis, loss, movement, n_pairs, empties = kernels.alternate(
                lam, cum_pos, tail_neg, phis0, scale, bias, TOLERANCE, MAX_ITERATIONS
            )
        except ValueError as exc:
            raise FitError(str(exc)) from exc
        binners.append(
            Binner(
                edges=edges,
                phis=phis,
                reps=None,
                method=METHOD_IMAX,
                iterations=n_pairs,
                seed=cfg.seed,
                diagnostics=FitTrace(
                    loss=loss,
                    empty_bin_events=empties,
                    final_movement=movement,
                    converged=movement < TOLERANCE,
                    seed_s=seed_s,
                ),
            )
        )
    return binners


def binner_from_edges(edges, method: str, seed=None) -> Binner:
    """Wrap fixed edges (eq_size / eq_mass) into a Binner.

    Baseline binners carry midpoint-proxy phi levels: only the empty-bin
    representative fallback ever reads them, and midpoints keep the
    strictly-increasing invariant without depending on the data.
    """
    edges = np.asarray(edges, dtype=np.float64)
    return Binner(
        edges=edges,
        phis=_midpoint_phis(edges, 1.0, 0.0),
        reps=None,
        method=method,
        iterations=0,
        seed=seed,
    )


def set_representatives(
    binner: Binner,
    cal_set: BinaryCalibrationSet,
    strategy: str = REP_EMPIRICAL_FREQ,
    scaler=None,
    clamp: bool = True,
) -> Binner:
    """Assign per-bin probability representatives from a calibration set.

    empirical_freq uses the in-bin positive fraction, counted by bin_counts
    on the set's sorted copies; raw_prob_mean the in-bin mean of
    sigmoid(lam) and scaled_prob_mean that of sigmoid(scaler(lam)), each
    summed by bin_sums in the set's row order, since a float sum depends on
    its order. Empty interior bins fall back to the sigmoid of the bin
    midpoint, empty outer bins to the sigmoid of their phi level. By default
    representatives are clamped to [PROB_EPS, 1 - PROB_EPS] so downstream
    NLL stays finite; clamp=False keeps pure-bin frequencies at exactly 0 or
    1, which is what makes training-split calibration error vanish
    identically.
    """
    if strategy not in REP_STRATEGIES:
        raise DataError(f"unknown representative strategy {strategy!r}")
    if strategy == REP_EMPIRICAL_FREQ:
        counts, mass = bin_counts(binner.edges, cal_set)
    else:
        if strategy == REP_RAW_PROB_MEAN:
            weights = prob_of_logit(cal_set.logits)
        elif scaler is None:
            raise DataError("scaled_prob_mean needs a fitted scaler")
        else:
            weights = prob_of_logit(apply_scaler(scaler, cal_set.logits))
        counts, mass = bin_sums(binner.edges, cal_set.logits, weights)

    occupied = counts > 0
    reps = np.where(occupied, mass / np.where(occupied, counts, 1.0), np.nan)
    if not np.all(occupied):
        fallback = prob_of_logit(binner.phis)
        if binner.n_bins > 2:
            interior_mid = (binner.edges[:-1] + binner.edges[1:]) / 2.0
            fallback[1:-1] = prob_of_logit(interior_mid)
        reps = np.where(occupied, reps, fallback)
    if clamp:
        reps = np.clip(reps, PROB_EPS, 1.0 - PROB_EPS)

    return replace(binner, reps=reps)


def fit_edges(cal_set: BinaryCalibrationSet, method: str, cfg: ImaxConfig) -> Binner:
    """Edges and phi levels by method, with no representatives yet."""
    if method == METHOD_EQ_SIZE:
        return binner_from_edges(fit_eq_size(cfg.n_bins), method, seed=cfg.seed)
    if method == METHOD_EQ_MASS:
        return binner_from_edges(fit_eq_mass(cal_set, cfg.n_bins), method, seed=cfg.seed)
    if method == METHOD_IMAX:
        return fit_imax(cal_set, cfg)
    raise DataError(f"unknown binning method {method!r}")


def fit_binner(
    cal_set: BinaryCalibrationSet,
    method: str,
    config: ImaxConfig | None = None,
    strategy: str = REP_EMPIRICAL_FREQ,
    scaler=None,
) -> Binner:
    """Fit edges by method, then attach representatives. Convenience wrapper."""
    cfg = config if config is not None else ImaxConfig()
    return set_representatives(fit_edges(cal_set, method, cfg), cal_set, strategy, scaler=scaler)
