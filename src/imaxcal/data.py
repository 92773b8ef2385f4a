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
from functools import cached_property

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
    """Validate an N x K score matrix of the given kind; return it as float64.

    The one score check, behind PredictionMatrix, ovr_logits and the raw
    scores of a raw-logit tie break: N >= 1, K >= 2, every value finite, a
    known kind, and probability rows inside [0, 1] that sum to 1. A
    PredictionMatrix's own ovr_logits transforms the scores it checked
    without this check.
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
    return scores


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
    return _ovr_logits_of_checked(check_scores(scores, kind), kind)


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
        self.scores = check_scores(self.scores, self.kind)
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


@dataclass
class BinaryCalibrationSet:
    """One-vs-rest view of one or more classes: logits plus 0/1 targets.

    sorted_logits and sorted_pos_logits are sorted copies, each made on its
    first use, read-only, and kept as long as the set is: the iterative fit
    reads sorted_logits, and binning.bin_counts counts any bins of the set
    by binary searches into both. The set's arrays are not to be changed in place once
    a sorted copy exists.
    """

    logits: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.logits = np.asarray(self.logits, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=np.int8)
        if self.logits.ndim != 1 or self.targets.ndim != 1:
            raise DataError("logits and targets must be 1-D")
        if self.logits.shape[0] != self.targets.shape[0]:
            raise DataError("logits and targets length mismatch")
        if self.logits.shape[0] < 1:
            raise DataError("empty calibration set")
        check_finite(self.logits, "logits")
        if self.targets.min() < 0 or self.targets.max() > 1:
            raise DataError("targets must be 0 or 1")

    def __len__(self):
        return self.logits.shape[0]

    @cached_property
    def sorted_logits(self):
        """The logits sorted ascending, read-only."""
        return _read_only(np.sort(self.logits))

    @cached_property
    def sorted_pos_logits(self):
        """The logits of the positive samples sorted ascending, read-only."""
        pos = self.logits[self.targets == 1]
        pos.sort()
        return _read_only(pos)


def ovr_set(lam, labels, classes) -> BinaryCalibrationSet:
    """Merged one-vs-rest set of the given classes, class after class.

    lam is the N x K matrix of ovr_logits and labels the N integer labels.
    classes must pass check_group_spec as one group of columns of lam.
    """
    (classes,) = check_group_spec((classes,))
    if max(classes) >= lam.shape[1]:
        raise DataError(f"class index {max(classes)} out of range for {lam.shape[1]} classes")
    classes = np.asarray(classes, dtype=np.int64)
    return BinaryCalibrationSet(
        logits=lam[:, classes].T.ravel(),
        targets=(labels[None, :] == classes[:, None]).astype(np.int8).ravel(),
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
