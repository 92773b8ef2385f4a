"""Calibration and ranking metrics with verifiable binning schemes.

Every ECE here is an explicit estimator: confidences are grouped either by
a named binning scheme over [0, 1] or by exact value (exact_grouping, the
right choice for discrete calibrators whose output takes few values), and
the reported number is the kept-count-weighted mean absolute gap between
group accuracy and group confidence.
"""

import copy
import warnings
from dataclasses import dataclass, field

import numpy as np

from .binning import ImaxConfig, bin_counts, bin_sums, fit_imax
from .data import (
    PROB_EPS,
    RAW_LOGITS,
    BinaryCalibrationSet,
    check_count,
    check_float64_entries,
    check_labels,
    check_number,
    check_scores,
    logit_of_prob,
    prob_of_logit,
    row_blocks,
    xlogy,
)
from .errors import DataError

SCHEME_EQ_SIZE = "eq_size"
SCHEME_EQ_MASS = "eq_mass"
SCHEME_KMEANS = "kmeans"
SCHEME_IMAX = "imax_eval"
SCHEME_EXACT = "exact_grouping"
EVAL_SCHEMES = (SCHEME_EQ_SIZE, SCHEME_EQ_MASS, SCHEME_KMEANS, SCHEME_IMAX, SCHEME_EXACT)

TIE_CLASS_INDEX = "class_index"
TIE_RAW_LOGIT = "raw_logit"

_KMEANS_MAX_ITER = 100
_KMEANS_TOL = 1e-10

THRESHOLD_ZERO = "zero"
THRESHOLD_ONE_OVER_K = "one_over_k"
THRESHOLD_CLASS_PRIOR = "class_prior"
THRESHOLD_HALF = "half"
NAMED_THRESHOLDS = (
    THRESHOLD_ZERO,
    THRESHOLD_ONE_OVER_K,
    THRESHOLD_CLASS_PRIOR,
    THRESHOLD_HALF,
)


@dataclass
class EvalConfig:
    """Estimator knobs; what a report ranks is a RowStats, fitting knobs an ImaxConfig."""

    eval_scheme: str = SCHEME_EQ_SIZE
    n_eval_bins: int = 100
    cw_thresholds: tuple = (THRESHOLD_CLASS_PRIOR,)
    top_k: tuple = (1, 5)
    bootstrap: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.eval_scheme not in EVAL_SCHEMES:
            raise DataError(f"unknown eval scheme {self.eval_scheme!r}")
        # imax_eval fits its edges by an ImaxConfig, which needs two bins
        minimum = 2 if self.eval_scheme == SCHEME_IMAX else 1
        self.n_eval_bins = check_count(self.n_eval_bins, "n_eval_bins", minimum=minimum)
        check_float64_entries(self.n_eval_bins, f"n_eval_bins = {self.n_eval_bins}")
        self.cw_thresholds = tuple(_check_threshold(thr) for thr in self.cw_thresholds)
        if not self.cw_thresholds:
            raise DataError("cw_thresholds needs at least one threshold")
        self.top_k = tuple(check_count(k, "top_k entry", minimum=1) for k in self.top_k)
        self.bootstrap = check_count(self.bootstrap, "bootstrap count")
        self.seed = check_count(self.seed, "seed")


def _check_threshold(thr):
    """A named threshold, or a number in [0, 1) as a float."""
    if isinstance(thr, str):
        if thr not in NAMED_THRESHOLDS:
            raise DataError(f"unknown threshold {thr!r}")
        return thr
    thr = check_number(thr, "custom threshold")
    if not 0.0 <= thr < 1.0:
        raise DataError("custom threshold must lie in [0, 1)")
    return thr


class RowStats:
    """Per-row statistics of one calibrated matrix, computed once.

    A metric pass reads them at the pass's rows: every row for the full
    pass, the draws of a resample for a bootstrap replicate (see take).
    Sums whose order matters gather per-row arrays at the rows, in draw
    order. Counts need only how often each row is drawn: the accuracies, the
    class priors and exact grouping read the pass's draw counts. A row's
    ranking and loss terms do not depend on which rows are drawn, so each is
    made at most once, on first use, and each column is sorted into its
    distinct values at most once (see ExactGroups); every RowStats made by
    take shares those results. Ties rank by raw logit exactly when
    raw_scores are given (see ranked_classes); tie_break names the rule.
    """

    def __init__(self, calibrated, labels, raw_scores=None):
        calibrated = np.ascontiguousarray(check_scores(calibrated, RAW_LOGITS))
        if calibrated.min() < 0.0 or calibrated.max() > 1.0:
            raise DataError(
                "calibrated scores outside [0, 1]; raw scores need a bundle applied first"
            )
        if raw_scores is not None:
            raw_scores = check_scores(raw_scores, RAW_LOGITS)
            if raw_scores.shape != calibrated.shape:
                raise DataError("raw score shape does not match calibrated scores")
        self.calibrated, self.raw_scores = calibrated, raw_scores
        self.labels = check_labels(labels, *calibrated.shape)
        self.n, self.k = calibrated.shape
        self.tie_break = TIE_CLASS_INDEX if raw_scores is None else TIE_RAW_LOGIT
        self.rows = np.arange(self.n)
        self._weights = None
        self._shared = {}

    def __len__(self):
        return self.rows.size

    def take(self, rows):
        """The same statistics over rows, indices into the full matrix."""
        sample = copy.copy(self)
        sample.rows = rows
        sample._weights = None
        return sample

    def weights(self):
        """How often each row of the full matrix is drawn in this pass, as
        integers."""
        if self._weights is None:
            self._weights = np.bincount(self.rows, minlength=self.n)
        return self._weights

    def ranking(self):
        """(top-1 confidence, top-1 correct as 0/1, rank of the true label)
        for every row of the full matrix."""
        if "ranking" not in self._shared:
            rank = ranked_classes(self)
            top = self.calibrated.max(axis=1)
            self._shared["ranking"] = (top, (rank == 0).astype(np.float64), rank)
        return self._shared["ranking"]

    def losses(self):
        """(NLL term, Brier term) of every row of the full matrix."""
        if "losses" not in self._shared:
            q_true = self.calibrated[np.arange(self.n), self.labels]
            # each row's sum of squares, block by block rather than as an N x K square
            sq_sums = np.empty(self.n)
            for rows in row_blocks(self.n, self.k):
                block = self.calibrated[rows]
                np.sum(block * block, axis=1, out=sq_sums[rows])
            nll_terms = -np.log(np.clip(q_true, PROB_EPS, 1.0))
            self._shared["losses"] = (nll_terms, sq_sums - 2.0 * q_true + 1.0)
        return self._shared["losses"]

    def exact_groups(self, key):
        """ExactGroups of class key's column against the label being key, or
        of the top-1 confidence against top-1 correctness for key "top1"."""
        if key not in self._shared:
            if key == "top1":
                conf, correct, _ = self.ranking()
                self._shared[key] = ExactGroups(conf, correct > 0.0)
            else:
                self._shared[key] = ExactGroups(self.calibrated[:, key], self.labels == key)
        return self._shared[key]


class ExactGroups:
    """One key's rows grouped by exact value, from one sort.

    values holds the distinct values ascending; group g's rows are
    order[starts[g]:starts[g + 1]], in the smallest signed type that holds N,
    and hit[i] says whether row order[i]'s target is 1. The rows of the
    groups from any index on are a suffix of order, and their targets the
    same suffix of hit.
    """

    def __init__(self, values, hit):
        # a column of the matrix is strided: one copy, and the sort and the
        # gather below read contiguous memory
        values = np.ascontiguousarray(values)
        self.order = np.argsort(values).astype(np.min_scalar_type(-values.size))
        ordered = values[self.order]
        new = np.empty(ordered.size, dtype=bool)
        new[:1] = True
        np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
        self.starts = np.flatnonzero(new)
        self.values = ordered[self.starts]
        self.hit = hit[self.order]


def _row_stats(calibrated, labels, raw_scores=None):
    """calibrated if it is a RowStats, which holds the other two, so they
    must be None; else the RowStats of them all."""
    if not isinstance(calibrated, RowStats):
        return RowStats(calibrated, labels, raw_scores)
    if labels is not None or raw_scores is not None:
        raise DataError("a RowStats holds its labels and raw scores; pass None")
    return calibrated


def ranked_classes(calibrated, labels=None, raw_scores=None):
    """Each row's rank of its label by calibrated probability, descending:
    the count of classes above the label's probability, or level with it and
    winning the tie by a higher raw score if raw_scores are given, then by a
    lower class index. O(N·K) comparisons, in the row blocks of
    data.row_blocks; no row is sorted. calibrated may also be a RowStats,
    whose checked inputs are ranked over every row; labels and raw_scores
    are then None.
    """
    stats = _row_stats(calibrated, labels, raw_scores)
    calibrated, labels, raw_scores = stats.calibrated, stats.labels, stats.raw_scores
    n, k = calibrated.shape
    classes = np.arange(k)
    rank = np.empty(n, dtype=np.intp)
    for rows in row_blocks(n, k):
        label = labels[rows, None]
        # the classes that win a tie in calibrated probability against the label
        wins = classes < label
        if raw_scores is not None:
            raw = raw_scores[rows]
            raw_own = np.take_along_axis(raw, label, axis=1)
            wins &= raw == raw_own
            wins |= raw > raw_own
        block = calibrated[rows]
        own = np.take_along_axis(block, label, axis=1)
        wins &= block == own
        wins |= block > own
        rank[rows] = np.count_nonzero(wins, axis=1)
    return rank


def accuracy_topk(calibrated, labels, k=1, tie_break=None, raw_scores=None) -> float:
    """Fraction of samples whose label ranks in the top k classes.

    Ties rank by raw logit exactly when raw_scores are given, as in a
    RowStats; tie_break, if not None, must name that rule. calibrated may
    also be a RowStats, which carries its labels and ranking and scores its
    own rows; labels, tie_break and raw_scores are then None.
    """
    stats = _row_stats(calibrated, labels, raw_scores)
    if tie_break not in (None, stats.tie_break) or tie_break is not None and stats is calibrated:
        raise DataError(f"tie_break {tie_break!r}: raw_logit iff raw scores; None with a RowStats")
    label_rank = stats.ranking()[2]
    hits = np.dot(stats.weights(), label_rank < min(check_count(k, "k", minimum=1), stats.k))
    return float(hits / stats.rows.size)


def _kmeans_1d(values, n_bins, seed):
    """Plain 1-D Lloyd iteration with squared-distance ++-style seeding."""
    rng = np.random.default_rng(seed)
    centers = np.empty(n_bins)
    centers[0] = values[rng.integers(values.size)]
    d2 = (values - centers[0]) ** 2
    for j in range(1, n_bins):
        total = float(d2.sum())
        if total <= 0.0:
            centers = centers[:j]
            break
        centers[j] = values[rng.choice(values.size, p=d2 / total)]
        np.minimum(d2, (values - centers[j]) ** 2, out=d2)
    centers = np.unique(centers)

    values_sorted = np.sort(values)
    for _ in range(_KMEANS_MAX_ITER):
        cuts = (centers[:-1] + centers[1:]) / 2.0
        cnts, sums = bin_sums(cuts, values_sorted, values_sorted)
        occupied = cnts > 0
        new_centers = np.where(occupied, sums / np.maximum(cnts, 1), centers)
        movement = float(np.max(np.abs(new_centers - centers)))
        centers = np.unique(new_centers)
        if movement < _KMEANS_TOL:
            break
    return centers


def eval_bin_edges(values, scheme, n_bins, seed=0, targets=None):
    """Interior edges over [0, 1] for the named evaluation scheme.

    targets (0/1 correctness or label indicators) is required by imax_eval,
    which reuses the iterative fit on the logit of the confidences. kmeans
    and imax_eval give each value its own bin when no more than n_bins differ.
    """
    values = np.asarray(values, dtype=np.float64)
    n_bins = check_count(n_bins, "n_bins", minimum=1)
    if scheme == SCHEME_EQ_SIZE:
        return np.arange(1, n_bins) / n_bins
    if scheme == SCHEME_EQ_MASS:
        edges = np.quantile(values, np.arange(1, n_bins) / n_bins)
        uniq = np.unique(edges)
        if uniq.size < edges.size:
            warnings.warn(
                f"eq_mass eval edges collapsed {edges.size} -> {uniq.size} "
                "(tied quantiles)",
                RuntimeWarning,
                stacklevel=2,
            )
        return uniq
    if scheme in (SCHEME_KMEANS, SCHEME_IMAX):
        if scheme == SCHEME_IMAX and targets is None:
            raise DataError("imax_eval scheme needs 0/1 targets")
        centers = np.unique(values)
        if centers.size > n_bins:
            if scheme == SCHEME_IMAX:
                cal = BinaryCalibrationSet(
                    logits=logit_of_prob(values), targets=np.asarray(targets, dtype=np.int8)
                )
                return prob_of_logit(fit_imax(cal, ImaxConfig(n_bins=n_bins, seed=seed)).edges)
            centers = _kmeans_1d(values, n_bins, seed)
        return (centers[:-1] + centers[1:]) / 2.0
    if scheme == SCHEME_EXACT:
        raise DataError("exact_grouping groups by value and has no edges")
    raise DataError(f"unknown eval scheme {scheme!r}")


def _gap(counts, hits, conf_sums):
    """Kept-count-weighted mean |group accuracy - group confidence| over the
    groups with a nonzero count, and that kept count; (0.0, 0) when every
    group is empty."""
    keep = counts > 0
    counts = counts[keep]
    n_kept = counts.sum()
    if n_kept == 0:
        return 0.0, 0
    gap = np.sum(counts / n_kept * np.abs(hits[keep] / counts - conf_sums[keep] / counts))
    return float(gap), int(n_kept)


def _binned_gap(conf, correct, cfg):
    """Gap of conf against 0/1 correct between cfg's edges, and conf's size."""
    edges = eval_bin_edges(
        conf, cfg.eval_scheme, cfg.n_eval_bins, seed=cfg.seed, targets=correct
    )
    return _gap(*bin_sums(edges, conf, correct, conf))


def _exact_gap(stats, key, threshold=None):
    """Exact-grouping gap of stats' pass over the values of key (see
    RowStats.exact_groups) strictly above threshold, and how many drawn
    rows that keeps.

    The groups above threshold are a suffix of the sorted groups, so the pass
    reads only their rows: two reduceats of their draw counts, the second
    masked by hit, give each group's count and hits, both exact integers.
    Every member of a group has the group's value, so summing a group's
    confidences in draw order adds that one value once per member: the sum
    depends only on value and count, and is formed here the same way.
    """
    groups = stats.exact_groups(key)
    first = 0 if threshold is None else np.searchsorted(groups.values, threshold, side="right")
    if first == groups.values.size:
        return 0.0, 0
    start = groups.starts[first]
    offsets = groups.starts[first:] - start
    drawn = stats.weights()[groups.order[start:]]
    counts = np.add.reduceat(drawn, offsets)
    drawn *= groups.hit[start:]
    hits = np.add.reduceat(drawn, offsets)
    members = np.repeat(np.arange(counts.size), counts)
    conf_sums = np.bincount(
        members, weights=np.repeat(groups.values[first:], counts), minlength=counts.size
    )
    return _gap(counts, hits, conf_sums)


def top1_ece(calibrated, labels, cfg: EvalConfig | None = None) -> float:
    """ECE of the top-label confidence under the configured scheme.

    calibrated may also be a RowStats, as in accuracy_topk.
    """
    cfg = cfg if cfg is not None else EvalConfig()
    stats = _row_stats(calibrated, labels)
    if cfg.eval_scheme == SCHEME_EXACT:
        return _exact_gap(stats, "top1")[0]
    conf, correct, _ = stats.ranking()
    return _binned_gap(conf[stats.rows], correct[stats.rows], cfg)[0]


def resolve_threshold(thr, class_k, n_classes, priors):
    """Value for class k of a threshold that _check_threshold passed."""
    if thr == THRESHOLD_ZERO:
        return 0.0
    if thr == THRESHOLD_ONE_OVER_K:
        return 1.0 / n_classes
    if thr == THRESHOLD_CLASS_PRIOR:
        return float(priors[class_k])
    if thr == THRESHOLD_HALF:
        return 0.5
    return thr


@dataclass
class CwEceResult:
    """Thresholded class-wise ECE: mean over all classes, with diagnostics."""

    mean: float
    per_class: np.ndarray
    kept_counts: np.ndarray
    zero_kept_classes: int


def cw_ece(calibrated, labels, cfg: EvalConfig | None = None, threshold=None) -> CwEceResult:
    """Thresholded class-wise ECE.

    Per class, only predictions with calibrated probability strictly above
    the threshold are kept and grouped under cfg's scheme; the class ECE
    normalizes by the kept count. Classes with nothing kept contribute 0
    to the mean over all K classes and are counted in the diagnostics.
    calibrated may also be a RowStats, as in accuracy_topk.
    """
    cfg = cfg if cfg is not None else EvalConfig()
    stats = _row_stats(calibrated, labels)
    threshold = cfg.cw_thresholds[0] if threshold is None else _check_threshold(threshold)
    rows = stats.rows
    k = stats.k
    priors = np.bincount(stats.labels, weights=stats.weights(), minlength=k) / rows.size
    labels = None if cfg.eval_scheme == SCHEME_EXACT else stats.labels[rows]

    per_class = np.zeros(k)
    kept_counts = np.zeros(k, dtype=np.int64)
    for c in range(k):
        thr = resolve_threshold(threshold, c, k, priors)
        if cfg.eval_scheme == SCHEME_EXACT:
            per_class[c], kept_counts[c] = _exact_gap(stats, c, thr)
            continue
        conf = stats.calibrated[:, c][rows]
        kept = conf > thr
        if np.any(kept):
            per_class[c], kept_counts[c] = _binned_gap(conf[kept], labels[kept] == c, cfg)
    return CwEceResult(
        mean=float(per_class.mean()),
        per_class=per_class,
        kept_counts=kept_counts,
        zero_kept_classes=int(np.count_nonzero(kept_counts == 0)),
    )


def nll(calibrated, labels) -> float:
    """Mean negative log-likelihood of the labeled class (clamped).

    calibrated may also be a RowStats, as in accuracy_topk.
    """
    stats = _row_stats(calibrated, labels)
    return float(np.mean(stats.losses()[0][stats.rows]))


def brier(calibrated, labels) -> float:
    """Mean squared distance to the one-hot label, rows not renormalized.

    calibrated may also be a RowStats, as in accuracy_topk.
    """
    stats = _row_stats(calibrated, labels)
    return float(np.mean(stats.losses()[1][stats.rows]))


def mi_from_joint(joint) -> float:
    """Plug-in mutual information (nats) from a (M, Y) joint count table."""
    joint = np.asarray(joint, dtype=np.float64)
    total = joint.sum()
    if total <= 0:
        raise DataError("joint counts are empty")
    p = joint / total
    pm = p.sum(axis=1, keepdims=True)
    py = p.sum(axis=0, keepdims=True)
    terms = xlogy(p, p) - xlogy(p, pm * py)
    return float(max(terms.sum(), 0.0))


def mi_of_quantizer(binner, cal_set) -> float:
    """Empirical MI (nats) between bin index and binary target.

    binner is a Binner or its bare interior edges. The joint counts come from
    bin_counts, binary searches into the set's sorted copies.
    """
    counts, n_pos = bin_counts(getattr(binner, "edges", binner), cal_set)
    return mi_from_joint(np.column_stack([counts - n_pos, n_pos]))


@dataclass
class MetricReport:
    """One evaluation pass: ranking, calibration, and proper-score metrics.

    values maps each report name to its value, in report order: acc_top<k>
    per top-k, top1_ece, cw_ece[<label>] per threshold label, nll and brier.
    cw holds the class-wise results behind the cw_ece entries, by threshold
    label, and bootstrap_std each name's std over the resamples, if any.
    """

    n_samples: int
    n_classes: int
    config: EvalConfig
    tie_break: str
    values: dict = field(default_factory=dict)
    cw: dict = field(default_factory=dict)
    bootstrap_std: dict = field(default_factory=dict)

    def rows(self):
        """(metric, threshold, value, std) rows, one per entry of values; a
        name cw_ece[<label>] splits into metric cw_ece and threshold label."""
        out = []
        for name, value in self.values.items():
            metric, _, label = name.partition("[")
            out.append((metric, label[:-1], value, self.bootstrap_std.get(name)))
        return out

    def to_dict(self) -> dict:
        payload = {
            "n_samples": self.n_samples,
            "n_classes": self.n_classes,
            "eval_scheme": self.config.eval_scheme,
            "n_eval_bins": self.config.n_eval_bins,
            "tie_break": self.tie_break,
            "accuracy": {
                name.removeprefix("acc_"): value
                for name, value in self.values.items()
                if name.startswith("acc_top")
            },
            "top1_ece": self.values["top1_ece"],
            "cw_ece": {
                label: {
                    "mean": res.mean,
                    "zero_kept_classes": res.zero_kept_classes,
                    "per_class": [float(v) for v in res.per_class],
                }
                for label, res in self.cw.items()
            },
            "nll": self.values["nll"],
            "brier": self.values["brier"],
        }
        if self.bootstrap_std:
            payload["bootstrap"] = {
                "n_resamples": self.config.bootstrap,
                "seed": self.config.seed,
                "std": dict(self.bootstrap_std),
            }
        return payload

    def to_text(self) -> str:
        lines = [f"{'metric':<24}{'threshold':<14}{'value':>12}{'std':>12}"]
        for name, thr, val, std in self.rows():
            std_s = "" if std is None else f"{std:.6f}"
            lines.append(f"{name:<24}{str(thr):<14}{val:>12.6f}{std_s:>12}")
        return "\n".join(lines)


def reports_csv(reports) -> str:
    """One CSV table of the reports' rows under one header; each row's
    eval_bins is its report's n_eval_bins, which tells apart the reports
    of one eval command."""
    lines = ["eval_bins,metric,threshold,value,std"]
    for rep in reports:
        for name, thr, val, std in rep.rows():
            std_s = "" if std is None else repr(float(std))
            lines.append(f"{rep.config.n_eval_bins},{name},{thr},{repr(float(val))},{std_s}")
    return "\n".join(lines) + "\n"


def threshold_label(thr) -> str:
    return thr if isinstance(thr, str) else repr(thr)


def _metric_pass(stats, cfg):
    """Every metric of one pass over stats' rows, by report name, plus the
    class-wise results by threshold label."""
    values = {f"acc_top{k}": accuracy_topk(stats, None, k) for k in cfg.top_k}
    values["top1_ece"] = top1_ece(stats, None, cfg)
    cw = {threshold_label(thr): cw_ece(stats, None, cfg, thr) for thr in cfg.cw_thresholds}
    for label, res in cw.items():
        values[f"cw_ece[{label}]"] = res.mean
    values["nll"] = nll(stats, None)
    values["brier"] = brier(stats, None)
    return values, cw


def build_report(calibrated, labels, cfg: EvalConfig) -> MetricReport:
    """Compute the full metric set, with optional bootstrap dispersion.

    calibrated may also be a RowStats, as in accuracy_topk: reports that
    differ only in cfg can share it, and with it one ranking.

    The bootstrap draws cfg.bootstrap resamples of the rows with
    replacement: resample i is the i-th rng.integers(0, n, size=n) of
    default_rng(cfg.seed). Each metric's std is over the resamples
    (ddof=1), and 0 for a single resample, where it is undefined.
    """
    stats = _row_stats(calibrated, labels)
    report = MetricReport(stats.n, stats.k, cfg, stats.tie_break, *_metric_pass(stats, cfg))
    if cfg.bootstrap > 0:
        rng = np.random.default_rng(cfg.seed)
        replicates = [
            _metric_pass(stats.take(rng.integers(0, stats.n, size=stats.n)), cfg)[0]
            for _ in range(cfg.bootstrap)
        ]
        report.bootstrap_std = {
            name: 0.0
            if cfg.bootstrap == 1
            else float(np.std([rep[name] for rep in replicates], ddof=1))
            for name in replicates[0]
        }
    return report
