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
    input rather than propagating NaN into downstream transforms.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise DataError("softmax input contains non-finite values")
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


def integer_labels(labels):
    """Labels as int64. NaN, inf and non-integral values are rejected before
    the cast, which would otherwise truncate them or warn."""
    labels = np.asarray(labels)
    if labels.dtype.kind == "f":
        if not np.all(np.isfinite(labels)):
            raise DataError("labels contain non-finite values")
        if np.any(np.floor(labels) != labels):
            raise DataError("labels must be integers")
        if np.any(np.abs(labels) >= 2.0**63):
            raise DataError("labels out of the int64 range")
    try:
        return np.asarray(labels, dtype=np.int64)
    except (TypeError, ValueError) as exc:
        raise DataError(f"labels must be integers: {exc}") from exc


def check_number(value, what):
    """value as a Python float: an int, float or numpy real, not a bool, in
    the float range. Anything else is a DataError."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise DataError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise DataError(f"{what} is out of the float range") from exc


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


def check_scores(scores, kind):
    """Validate an N x K score matrix of the given kind; return it as float64.

    The one score check, behind PredictionMatrix, ovr_logits and the raw
    scores of a raw-logit tie break: N >= 1, K >= 2, every value finite, a
    known kind, and probability rows inside [0, 1] that sum to 1.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise DataError(f"scores must be 2-D, got shape {scores.shape}")
    n, k = scores.shape
    if n < 1:
        raise DataError("need at least one sample")
    if k < 2:
        raise DataError(f"need at least two classes, got {k}")
    if kind not in (RAW_LOGITS, PROBABILITIES):
        raise DataError(f"unknown score kind {kind!r}")
    if not np.all(np.isfinite(scores)):
        raise DataError("scores contain non-finite values")
    if kind == PROBABILITIES:
        if scores.min() < 0.0 or scores.max() > 1.0:
            raise DataError("probability scores outside [0, 1]")
        if np.max(np.abs(scores.sum(axis=1) - 1.0)) > _ROW_SUM_TOL:
            raise DataError("probability rows do not sum to 1")
    return scores


def check_labels(labels, n, k):
    """n integer labels, one per score row, each in [0, k); returned as
    int64. n is at least 1."""
    labels = integer_labels(labels)
    if labels.shape != (n,):
        raise DataError(f"labels shape {labels.shape} does not match {n} score rows")
    if labels.min() < 0 or labels.max() >= k:
        raise DataError(f"labels must lie in [0, {k})")
    return labels


def json_object(value, fields, what):
    """A JSON object with exactly the given fields, returned as it is."""
    if not isinstance(value, dict):
        raise DataError(f"{what} must be a JSON object")
    unknown = set(value) - set(fields)
    if unknown:
        raise DataError(f"unknown {what} fields: {sorted(unknown)}")
    missing = set(fields) - set(value)
    if missing:
        raise DataError(f"missing {what} fields: {sorted(missing)}")
    return value


def json_list(value, what):
    """A JSON list, returned as it is."""
    if not isinstance(value, list):
        raise DataError(f"{what} must be a list")
    return value


def row_blocks(n, width):
    """Slices covering rows 0..n-1 in order: at width values per row, each
    holds about BLOCK_ENTRIES values, and at least one row."""
    rows = max(1, BLOCK_ENTRIES // max(1, width))
    for start in range(0, n, rows):
        yield slice(start, start + rows)


def ovr_logits(scores, kind):
    """N x K one-vs-rest log-odds of checked scores: logit_of_prob of the
    softmax of raw logits, or of the probabilities. Blocks of rows, about
    BLOCK_ENTRIES values each, are transformed into the one N x K output."""
    scores = check_scores(scores, kind)
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
        """N x K one-vs-rest log-odds of the scores (data.ovr_logits)."""
        return ovr_logits(self.scores, self.kind)

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
        if not np.all(np.isfinite(self.logits)):
            raise DataError("logits contain non-finite values")
        bad = (self.targets != 0) & (self.targets != 1)
        if np.any(bad):
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
    The result equals merge_sets of the per-class ovr_decompose sets,
    without a softmax or a copy per class. classes must pass
    check_group_spec as one group of columns of lam.
    """
    (classes,) = check_group_spec((classes,))
    if max(classes) >= lam.shape[1]:
        raise DataError(f"class index {max(classes)} out of range for {lam.shape[1]} classes")
    classes = np.asarray(classes, dtype=np.int64)
    return BinaryCalibrationSet(
        logits=lam[:, classes].T.ravel(),
        targets=(labels[None, :] == classes[:, None]).astype(np.int8).ravel(),
    )


def ovr_decompose(data: PredictionMatrix, class_k: int) -> BinaryCalibrationSet:
    """One-vs-rest binary set for class k on the log-odds scale."""
    return ovr_set(data.ovr_logits(), data.labels, (class_k,))


def merge_sets(sets) -> BinaryCalibrationSet:
    """Concatenate binary sets into one shared pool (order preserved)."""
    sets = list(sets)
    if not sets:
        raise DataError("merge_sets needs at least one set")
    return BinaryCalibrationSet(
        logits=np.concatenate([s.logits for s in sets]),
        targets=np.concatenate([s.targets for s in sets]),
    )


def check_group_spec(groups_spec):
    """groups_spec, counts as Python ints, if it could group some classes:
    None, a prior-group count of at least 1, or non-empty class-index tuples
    that do not overlap. Otherwise a DataError.

    These rules need no class count, so the CLI applies them before it reads
    a file. ClassGrouping and GroupCalibrator apply them too, and add the
    rules that need K: at most K groups, and groups that cover 0..K-1.
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


MODE_ONE_FOR_ALL = "one_for_all"
MODE_BY_PRIOR = "by_prior_quantile"
MODE_EXPLICIT = "explicit"


@dataclass
class ClassGrouping:
    """Partition of the K class indices into calibrator-sharing groups."""

    groups: tuple
    mode: str = MODE_EXPLICIT
    n_classes: int = 0

    def __post_init__(self):
        if self.mode not in (MODE_ONE_FOR_ALL, MODE_BY_PRIOR, MODE_EXPLICIT):
            raise DataError(f"unknown grouping mode {self.mode!r}")
        groups = check_group_spec(self.groups)
        if not isinstance(groups, tuple):
            raise DataError(f"groups must be class lists, got {self.groups!r}")
        groups = tuple(tuple(sorted(g)) for g in groups)
        flat = [c for g in groups for c in g]
        k = check_count(self.n_classes, "n_classes") or (max(flat) + 1)
        if len(flat) != k or sorted(flat) != list(range(k)):
            raise DataError(f"groups must cover classes 0..{k - 1} exactly")
        self.groups = groups
        self.n_classes = k


def group_all(n_classes: int) -> ClassGrouping:
    """Single shared group over every class."""
    return ClassGrouping(
        groups=(tuple(range(n_classes)),), mode=MODE_ONE_FOR_ALL, n_classes=n_classes
    )


def group_singletons(n_classes: int) -> ClassGrouping:
    """Every class its own group (the class-wise strategy)."""
    return ClassGrouping(
        groups=tuple((k,) for k in range(n_classes)),
        mode=MODE_EXPLICIT,
        n_classes=n_classes,
    )


def group_by_prior(data: PredictionMatrix, n_groups: int) -> ClassGrouping:
    """Cut classes into n_groups contiguous blocks of the empirical-prior order.

    Priors come from the calibration split handed in here. Ties are broken by
    class index so the grouping is deterministic.
    """
    k = data.n_classes
    n_groups = check_count(n_groups, "n_groups", minimum=1)
    if n_groups > k:
        raise DataError(f"n_groups must be in [1, {k}], got {n_groups}")
    priors = data.class_priors()
    order = np.lexsort((np.arange(k), priors))
    bounds = [round(i * k / n_groups) for i in range(n_groups + 1)]
    groups = tuple(tuple(order[bounds[i] : bounds[i + 1]]) for i in range(n_groups))
    return ClassGrouping(groups=groups, mode=MODE_BY_PRIOR, n_classes=k)
