"""Core data types and probability-domain transforms.

Multi-class calibration here works one class at a time: a score matrix is
decomposed into K one-vs-rest binary problems on the log-odds scale, and
calibrators consume those binary sets. ovr_logits is the one transform from
a score matrix to those log-odds, for fitting and applying alike; it works
in blocks of rows, so its only N x K array is its output. Probabilities are
clamped away from {0, 1} before the log-odds transform so every logit is
finite.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError

# Probability clamp bound: logits stay within ~ +/- 27.6.
PROB_EPS = 1e-12

RAW_LOGITS = "raw_logits"
PROBABILITIES = "probabilities"

_ROW_SUM_TOL = 1e-6

# Values per row block of each row-wise N x K pass; no result depends on it.
BLOCK_ENTRIES = 1 << 16


def softmax(scores):
    """Row-wise softmax, shift-invariant and safe for large scores.

    Accepts a single score vector or an (N, K) matrix; rejects non-finite
    input (check_finite) rather than propagating NaN into downstream
    transforms.
    """
    scores = np.asarray(scores, dtype=np.float64)
    check_finite(scores, "softmax scores")
    shifted = scores - np.max(scores, axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / np.sum(ex, axis=-1, keepdims=True)


def logit_of_prob(q):
    """Log-odds of a probability, clamped to [PROB_EPS, 1 - PROB_EPS] first."""
    q = np.clip(np.asarray(q, dtype=np.float64), PROB_EPS, 1.0 - PROB_EPS)
    return np.log(q) - np.log1p(-q)


def prob_of_logit(lam, out=None):
    """Sigmoid 1 / (1 + exp(-lam)), the inverse of logit_of_prob away from
    the clamp bounds.

    This is the package's one sigmoid, the formula of scipy.special.expit.
    Below lam = -709 exp(-lam) overflows to inf and the result is the
    correct limit 0, so that overflow is not reported. Given out, a float64
    array of lam's shape (lam itself allowed), the same values are written
    there step by step with no temporary array.
    """
    lam = np.asarray(lam, dtype=np.float64)
    with np.errstate(over="ignore"):
        if out is None:
            return 1.0 / (1.0 + np.exp(-lam))
        np.negative(lam, out=out)
        np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def xlogy(x, y):
    """x * log(y), taken as 0 where x == 0 and y is not NaN.

    The convention of scipy.special.xlogy, so 0 * log(0) terms of entropies
    vanish; log(0) = -inf and log of a negative number = NaN otherwise.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = x * np.log(y)
    return np.where((x == 0) & ~np.isnan(y), 0.0, out)


def check_finite(values, what):
    """The min and max of a float array; any NaN or inf in it is a DataError.

    The package's one finiteness test of an array. A NaN makes both extremes
    NaN, so no mask of the array is made; an empty array passes, as
    (inf, -inf).
    """
    if values.size == 0:
        return np.inf, -np.inf
    lo, hi = values.min(), values.max()
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise DataError(f"{what} contain non-finite values")
    return lo, hi


def check_number(value, what):
    """value as a finite Python float: an int, float or numpy real, not a
    bool, NaN or inf, in the float range. Anything else is a DataError."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise DataError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError as exc:
        raise DataError(f"{what} is out of the float range") from exc
    if not np.isfinite(number):
        raise DataError(f"{what} must be finite, got {number!r}")
    return number


def check_count(value, what, minimum=0):
    """value as a Python int: an int or numpy integer, not a bool, of at
    least minimum and below 2**63, so numpy's int64 holds it. Anything else,
    even an integral float, is a DataError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        rule = "a non-negative integer" if minimum == 0 else f"an integer >= {minimum}"
        raise DataError(f"{what} must be {rule}, got {value!r}")
    if value >= 2**63:
        raise DataError(f"{what} must be below 2**63, got {value!r}")
    return int(value)


def check_float64_entries(entries, what):
    """A DataError if a float64 array of entries values would take 2**63
    bytes or more, the size numpy cannot describe; a count that passes may
    still ask for more memory than there is."""
    if entries >= 2**60:
        raise DataError(f"{what} asks for a float64 array of 2**63 bytes or more")


def check_scores(scores, kind):
    """Validate an N x K score matrix of the given kind; return it as float64
    with its min and max, read once by check_finite.

    The one score check, behind PredictionMatrix, ovr_logits and
    metrics.RowStats: N >= 1, K >= 2, every value finite, a known kind, and
    probability rows inside [0, 1] that sum to 1. A PredictionMatrix's own
    ovr_logits transforms the scores it checked without this check.
    """
    try:
        scores = np.asarray(scores, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DataError(f"scores must be numbers: {exc}") from exc
    if scores.ndim != 2:
        raise DataError(f"scores must be 2-D, got shape {scores.shape}")
    n, k = scores.shape
    if n < 1:
        raise DataError("need at least one sample")
    if k < 2:
        raise DataError(f"need at least two classes, got {k}")
    if kind not in (RAW_LOGITS, PROBABILITIES):
        raise DataError(f"unknown score kind {kind!r}")
    lo, hi = check_finite(scores, "scores")
    if kind == PROBABILITIES:
        if lo < 0.0 or hi > 1.0:
            raise DataError("probability scores outside [0, 1]")
        if np.max(np.abs(scores.sum(axis=1) - 1.0)) > _ROW_SUM_TOL:
            raise DataError("probability rows do not sum to 1")
    return scores, lo, hi


def check_labels(labels, n, k):
    """n integer labels, one per score row, each in [0, k); returned as
    int64. n is at least 1. Float labels that are not finite or not
    integral, or lie beyond the int64 range, are rejected before the cast,
    which would otherwise truncate them or warn."""
    labels = np.asarray(labels)
    if labels.dtype.kind == "f":
        lo, hi = check_finite(labels, "labels")
        if np.any(np.floor(labels) != labels):
            raise DataError("labels must be integers")
        if lo <= -(2.0**63) or hi >= 2.0**63:
            raise DataError("labels out of the int64 range")
    try:
        labels = np.asarray(labels, dtype=np.int64)
    except (TypeError, ValueError) as exc:
        raise DataError(f"labels must be integers: {exc}") from exc
    if labels.shape != (n,):
        raise DataError(f"labels shape {labels.shape} does not match {n} score rows")
    if labels.min() < 0 or labels.max() >= k:
        raise DataError(f"labels must lie in [0, {k})")
    return labels


def row_blocks(n, width):
    """Slices covering rows 0..n-1 in order: at width values per row, each
    holds about BLOCK_ENTRIES values, and at least one row."""
    rows = max(1, BLOCK_ENTRIES // max(1, width))
    for start in range(0, n, rows):
        yield slice(start, start + rows)


def ovr_logits(scores, kind):
    """N x K one-vs-rest log-odds of the scores, checked first: logit_of_prob
    of the softmax of raw logits, or of the probabilities. Blocks of rows,
    about BLOCK_ENTRIES values each, are transformed into the one N x K
    output."""
    return _ovr_logits_of_checked(check_scores(scores, kind)[0], kind)


def _ovr_logits_of_checked(scores, kind):
    """ovr_logits of scores that check_scores has returned."""
    out = np.empty(scores.shape)
    for rows in row_blocks(*scores.shape):
        block = scores[rows]
        out[rows] = logit_of_prob(softmax(block) if kind == RAW_LOGITS else block)
    return out


@dataclass
class PredictionMatrix:
    """Classifier outputs for N samples over K classes plus integer labels.

    kind says whether scores are raw logits (softmax applied on decomposition)
    or probabilities (rows must already lie on the simplex).
    """

    scores: np.ndarray
    labels: np.ndarray
    kind: str = RAW_LOGITS

    def __post_init__(self):
        self.scores = check_scores(self.scores, self.kind)[0]
        self.labels = check_labels(self.labels, *self.scores.shape)

    @property
    def n_samples(self):
        return self.scores.shape[0]

    @property
    def n_classes(self):
        return self.scores.shape[1]

    def ovr_logits(self):
        """N x K one-vs-rest log-odds of the scores (data.ovr_logits), which
        the matrix checked when it was built and are not checked again."""
        return _ovr_logits_of_checked(self.scores, self.kind)

    def class_priors(self):
        """Empirical label frequencies, shape (K,)."""
        return np.bincount(self.labels, minlength=self.n_classes) / self.n_samples


def _read_only(values):
    values.flags.writeable = False
    return values


class BinaryCalibrationSet:
    """One-vs-rest samples of one or more classes, held in one order.

    logits are the samples' log-odds ascending, targets their 0/1 labels
    (int8) aligned with them, and pos_logits the positive samples' logits
    ascending; all three are read-only and set up once, when the set is
    made. Every consumer reads them as they are: the fits, binning.bin_counts'
    binary searches, the sums of the phi update, of the mean representatives
    and of Platt's objective, and the KDE bound. A run of equal logits holds
    its positives first, so the arrays, and each sum taken over them, depend
    only on the multiset of (logit, target) samples, never on their order.

    A set made from a caller's logits and targets sorts a copy and leaves
    the caller's arrays as they were: the logits must be 1-D and finite, the
    targets 1-D, of the same length, and each exactly 0 or 1 (bools too);
    anything else is a DataError. ovr_set sorts the merged buffer it builds
    in place. Finiteness is read on the two ends of the sorted logits.
    """

    def __init__(self, logits, targets):
        logits = np.array(logits, dtype=np.float64)
        targets = np.asarray(targets)
        if logits.ndim != 1 or targets.ndim != 1:
            raise DataError("logits and targets must be 1-D")
        if logits.shape[0] != targets.shape[0]:
            raise DataError("logits and targets length mismatch")
        if logits.shape[0] < 1:
            raise DataError("empty calibration set")
        _check_targets(targets)
        self._hold_sorted(logits, logits[targets == 1])

    @classmethod
    def _sorting_in_place(cls, logits, pos_logits):
        """The set of the float64 buffers logits and pos_logits, its
        positives' logits, which it sorts in place and keeps."""
        cal_set = cls.__new__(cls)
        cal_set._hold_sorted(logits, pos_logits)
        return cal_set

    def _hold_sorted(self, logits, pos_logits):
        logits.sort()
        check_finite(logits[[0, -1]], "logits")
        pos_logits.sort()
        # the j-th of a run of equal positives sits j places after the
        # run's first sample, which searchsorted finds in both arrays
        first = np.searchsorted(logits, pos_logits)
        first += np.arange(pos_logits.shape[0]) - np.searchsorted(pos_logits, pos_logits)
        targets = np.zeros(logits.shape[0], dtype=np.int8)
        targets[first] = 1
        self.logits = _read_only(logits)
        self.targets = _read_only(targets)
        self.pos_logits = _read_only(pos_logits)

    def __len__(self):
        return self.logits.shape[0]


def _check_targets(targets):
    """A DataError unless every target is exactly 0 or 1, checked before
    any cast, which would map 0.5 or 256 to 0 and 257 to 1. Integer and
    bool targets are read through their extremes; a float target needs
    each value compared, since 0.5 and NaN lie within extremes of 0 and 1."""
    if targets.dtype.kind == "f":
        bad = not np.all((targets == 0.0) | (targets == 1.0))
    elif targets.dtype.kind in "biu":
        bad = targets.min() < 0 or targets.max() > 1
    else:
        bad = True
    if bad:
        raise DataError("targets must be 0 or 1")


def ovr_set(lam, labels, classes) -> BinaryCalibrationSet:
    """Merged one-vs-rest set of the given classes: every log-odds of their
    columns of lam, the positives those of the rows labelled with one of
    them. The set sorts the merged buffer this builds in place, so no
    row-order copy outlives the call.

    lam is the N x K matrix of ovr_logits and labels the N integer labels.
    classes must pass check_group_spec as one group of columns of lam.
    """
    (classes,) = check_group_spec((classes,))
    if max(classes) >= lam.shape[1]:
        raise DataError(f"class index {max(classes)} out of range for {lam.shape[1]} classes")
    classes = np.asarray(classes, dtype=np.int64)
    rows = np.flatnonzero(np.isin(labels, classes))
    return BinaryCalibrationSet._sorting_in_place(
        np.take(lam, classes, axis=1).ravel(), lam[rows, labels[rows]]
    )


def check_group_spec(groups_spec):
    """groups_spec, counts as Python ints, if it could group some classes:
    None, a prior-group count of at least 1, or non-empty class-index tuples
    that do not overlap. Otherwise a DataError.

    These rules need no class count, so the CLI applies them before it reads
    a file. GroupCalibrator applies them too, and bundle.resolve_grouping and
    CalibratorBundle add the rule that needs K: groups cover 0..K-1 exactly.
    """
    if groups_spec is None:
        return None
    if isinstance(groups_spec, (int, np.integer)):
        return check_count(groups_spec, "n_groups", minimum=1)
    try:
        groups = tuple(tuple(check_count(c, "class index") for c in g) for g in groups_spec)
    except TypeError as exc:
        raise DataError(f"groups must be a count or class lists, got {groups_spec!r}") from exc
    if not groups or any(len(g) == 0 for g in groups):
        raise DataError("grouping needs non-empty groups")
    flat = [c for g in groups for c in g]
    if len(flat) != len(set(flat)):
        raise DataError("groups overlap")
    return groups
