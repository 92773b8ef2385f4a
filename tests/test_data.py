"""Containers, score conversions, and one-vs-rest plumbing."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from imaxcal import (
    BinaryCalibrationSet,
    DataError,
    PROBABILITIES,
    PredictionMatrix,
    RAW_LOGITS,
)
from imaxcal.bundle import group_by_prior, resolve_grouping
from imaxcal.data import (
    BLOCK_ENTRIES,
    check_group_spec,
    logit_of_prob,
    ovr_logits,
    ovr_set,
    prob_of_logit,
    softmax,
    xlogy,
)


# --- score conversions -------------------------------------------------

def test_softmax_known_pair():
    row = softmax(np.array([[1.0, 0.0]]))[0]
    assert row[0] == pytest.approx(0.7310585786300049, abs=1e-15)
    assert row[1] == pytest.approx(0.2689414213699951, abs=1e-15)


def test_softmax_constant_row_is_uniform():
    out = softmax(np.full((3, 4), 7.3))
    np.testing.assert_allclose(out, 0.25, atol=1e-15)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    out = softmax(rng.normal(scale=10.0, size=(100, 7)))
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
    assert out.min() > 0.0


def test_softmax_rejects_nonfinite():
    with pytest.raises(DataError):
        softmax(np.array([[0.0, np.nan]]))
    with pytest.raises(DataError):
        softmax(np.array([[0.0, np.inf]]))


@given(st.floats(-30.0, 30.0))
@settings(max_examples=50)
def test_softmax_shift_invariance(shift):
    z = np.array([[0.3, -1.2, 2.5]])
    np.testing.assert_allclose(softmax(z + shift), softmax(z), atol=1e-12)


def test_logit_known_values():
    assert logit_of_prob(np.array(0.5)) == 0.0
    assert logit_of_prob(np.array(0.9)) == pytest.approx(2.1972245773362196, abs=1e-15)
    # antisymmetry around 1/2
    p = np.array([0.1, 0.25, 0.4])
    np.testing.assert_allclose(logit_of_prob(p), -logit_of_prob(1.0 - p), atol=1e-12)


def test_logit_clamps_the_endpoints():
    lo = logit_of_prob(np.array([0.0, 1.0]))
    assert np.all(np.isfinite(lo))
    assert abs(lo[0]) < 30.0 and abs(lo[1]) < 30.0


def test_prob_of_logit_basics():
    assert prob_of_logit(np.array(0.0)) == 0.5
    assert prob_of_logit(np.array(40.0)) > 1.0 - 1e-12
    assert prob_of_logit(np.array(1.0)) == pytest.approx(0.7310585786300049, abs=1e-15)


# scipy.special is the test-only oracle: the package computes both on numpy.
# Relative tolerance 1e-15, about 4.5 ulp; denormal results get the same
# tolerance in absolute terms, scaled from the smallest normal double.
_SCIPY_RTOL = 1e-15
_SCIPY_ATOL = np.finfo(np.float64).tiny * _SCIPY_RTOL


def test_prob_of_logit_matches_scipy_expit():
    rng = np.random.default_rng(0)
    lam = np.concatenate(
        [rng.uniform(-745.0, 745.0, 200_000), rng.normal(0.0, 5.0, 200_000)]
    )
    np.testing.assert_allclose(
        prob_of_logit(lam), special.expit(lam), rtol=_SCIPY_RTOL, atol=_SCIPY_ATOL
    )


def test_xlogy_matches_scipy_xlogy():
    rng = np.random.default_rng(1)
    x = rng.uniform(0.0, 1.0, 200_000)
    x[::7] = 0.0
    for y in (rng.uniform(0.0, 1.0, x.size), np.exp(rng.uniform(-700.0, 700.0, x.size))):
        np.testing.assert_allclose(
            xlogy(x, y), special.xlogy(x, y), rtol=_SCIPY_RTOL, atol=_SCIPY_ATOL
        )


def test_sigmoid_and_xlogy_special_values_equal_scipy_exactly():
    lam = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0, 1000.0, -1000.0, 745.0, -745.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning at +/-1000
        got = prob_of_logit(lam)
        x = np.array([0.0, 0.0, 0.0, -0.0, np.nan, 1.0, 0.0, 1.0, 2.0, 0.0])
        y = np.array([0.0, np.inf, np.nan, 1.0, 0.0, 0.0, -1.0, -1.0, np.inf, 1000.0])
        got_xlogy = xlogy(x, y)
    np.testing.assert_array_equal(got, special.expit(lam))
    np.testing.assert_array_equal(got_xlogy, special.xlogy(x, y))
    assert xlogy(0.0, 0.0) == 0.0 and np.isnan(xlogy(0.0, np.nan))


@given(st.floats(1e-9, 1.0 - 1e-9))
@settings(max_examples=100)
def test_logit_prob_roundtrip(p):
    assert prob_of_logit(logit_of_prob(np.array(p))) == pytest.approx(p, abs=1e-9)


# --- PredictionMatrix --------------------------------------------------

def test_prediction_matrix_shapes_and_priors():
    scores = np.array([[2.0, 0.0, -1.0], [0.0, 1.0, 0.5], [3.0, 0.0, 0.0], [0.0, 0.0, 4.0]])
    labels = np.array([0, 1, 0, 2])
    data = PredictionMatrix(scores, labels, kind=RAW_LOGITS)
    assert data.n_samples == 4
    assert data.n_classes == 3
    np.testing.assert_allclose(data.class_priors(), [0.5, 0.25, 0.25])
    np.testing.assert_allclose(prob_of_logit(data.ovr_logits()).sum(axis=1), 1.0, atol=1e-12)


def test_prediction_matrix_probabilities_passthrough():
    q = np.array([[0.7, 0.3], [0.2, 0.8]])
    data = PredictionMatrix(q, np.array([0, 1]), kind=PROBABILITIES)
    np.testing.assert_array_equal(data.ovr_logits(), logit_of_prob(q))


def test_prediction_matrix_rejections():
    good = np.array([[0.5, 0.5], [0.1, 0.9]])
    with pytest.raises(DataError):
        PredictionMatrix(good, np.array([0, 2]), kind=PROBABILITIES)  # label out of range
    with pytest.raises(DataError):
        PredictionMatrix(good, np.array([0]), kind=PROBABILITIES)  # length mismatch
    with pytest.raises(DataError):
        PredictionMatrix(np.array([[0.6, 0.6], [0.1, 0.9]]), np.array([0, 1]), kind=PROBABILITIES)
    with pytest.raises(DataError):
        PredictionMatrix(good, np.array([0, 1]), kind="scores")
    with pytest.raises(DataError):
        PredictionMatrix(np.array([[1.0], [0.5]]), np.array([0, 0]), kind=PROBABILITIES)  # K < 2


@pytest.mark.parametrize(
    "scores,kind",
    [
        (np.array([0.5, 0.5]), PROBABILITIES),
        (np.zeros((0, 3)), RAW_LOGITS),
        (np.array([[1.0], [0.5]]), RAW_LOGITS),
        (np.array([[0.0, np.nan], [1.0, 2.0]]), RAW_LOGITS),
        (np.array([[0.5, 0.5], [0.1, 0.9]]), "scores"),
        (np.array([[1.5, -0.5], [0.1, 0.9]]), PROBABILITIES),
        (np.array([[0.6, 0.6], [0.1, 0.9]]), PROBABILITIES),
    ],
)
def test_scores_are_checked_the_same_way_with_and_without_labels(scores, kind):
    with pytest.raises(DataError) as bare:
        ovr_logits(scores, kind)
    labels = np.zeros(scores.shape[0] if scores.ndim == 2 else 1, dtype=np.int64)
    with pytest.raises(DataError) as labelled:
        PredictionMatrix(scores, labels, kind=kind)
    assert str(bare.value) == str(labelled.value)


@pytest.mark.parametrize("kind", [RAW_LOGITS, PROBABILITIES])
def test_a_matrix_transforms_the_scores_it_checked_without_checking_them_again(
    kind, finite_scans
):
    # the module function checks its scores; the matrix checked its own when
    # it was built, so only softmax's check of each block of raw logits reads
    # them again; both give the same log-odds
    logits = np.random.default_rng(3).normal(size=(3000, 7))
    data = PredictionMatrix(logits if kind == RAW_LOGITS else softmax(logits),
                            np.zeros(3000, dtype=np.int64), kind=kind)
    softmax_reads = data.scores.size if kind == RAW_LOGITS else 0
    finite_scans.clear()
    from_matrix = data.ovr_logits()
    assert sum(finite_scans) == softmax_reads
    finite_scans.clear()
    np.testing.assert_array_equal(ovr_logits(data.scores, kind), from_matrix)
    assert sum(finite_scans) == data.scores.size + softmax_reads


def test_non_integral_labels_are_rejected_not_truncated():
    good = np.array([[0.5, 0.5], [0.1, 0.9]])
    with pytest.raises(DataError, match="integers"):
        PredictionMatrix(good, np.array([0.0, 1.5]), kind=PROBABILITIES)
    data = PredictionMatrix(good, np.array([0.0, 1.0]), kind=PROBABILITIES)
    assert data.labels.dtype == np.int64
    np.testing.assert_array_equal(data.labels, [0, 1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e30])
def test_nan_and_huge_labels_are_rejected_before_the_cast(bad):
    good = np.array([[0.5, 0.5], [0.1, 0.9]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an invalid-cast RuntimeWarning would raise here
        with pytest.raises(DataError):
            PredictionMatrix(good, np.array([0.0, bad]), kind=PROBABILITIES)


# --- BinaryCalibrationSet and one-vs-rest ------------------------------

def test_binary_set_validation():
    s = BinaryCalibrationSet(np.array([0.1, -0.4]), np.array([1, 0]))
    assert len(s) == 2
    with pytest.raises(DataError):
        BinaryCalibrationSet(np.array([0.1]), np.array([1, 0]))
    with pytest.raises(DataError):
        BinaryCalibrationSet(np.array([0.1, 0.2]), np.array([1, 2]))
    with pytest.raises(DataError):
        BinaryCalibrationSet(np.array([np.nan, 0.2]), np.array([1, 0]))


def test_binary_set_checks_its_values_without_a_sample_length_mask():
    # the merged set of a K=100, N=20k shared fit; a bool mask of it is 2 MB
    n = 2_000_000
    logits = np.random.default_rng(0).normal(size=n)
    targets = (logits > 1.0).astype(np.int8)
    tracemalloc.start()
    try:
        BinaryCalibrationSet(logits, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n // 100
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DataError, match="non-finite"):
            BinaryCalibrationSet(np.where(np.arange(n) == n - 1, bad, logits), targets)
    for bad in (-1, 2):
        with pytest.raises(DataError, match="0 or 1"):
            BinaryCalibrationSet(logits, np.where(np.arange(n) == n - 1, bad, targets))


def test_sorted_copies_are_made_once_and_read_only():
    logits = np.array([0.5, -1.0, 2.0, -1.0, 0.0])
    s = BinaryCalibrationSet(logits, np.array([1, 0, 1, 1, 0]))
    lam, pos = s.sorted_logits, s.sorted_pos_logits
    assert s.sorted_logits is lam and s.sorted_pos_logits is pos
    np.testing.assert_array_equal(lam, [-1.0, -1.0, 0.0, 0.5, 2.0])
    np.testing.assert_array_equal(pos, [-1.0, 0.5, 2.0])
    for values in (lam, pos):
        with pytest.raises(ValueError):
            values[0] = 3.0
    # the set itself keeps its row order and stays writable
    np.testing.assert_array_equal(s.logits, logits)
    s.logits[0] = 0.5
    empty = BinaryCalibrationSet(np.array([1.0, 2.0]), np.array([0, 0])).sorted_pos_logits
    assert empty.shape == (0,) and not empty.flags.writeable


def test_ovr_targets_follow_the_labels():
    scores = np.array([[0.0, 1.0, 2.0], [2.0, 1.0, 0.0], [0.0, 0.0, 5.0]])
    labels = np.array([2, 0, 2])
    data = PredictionMatrix(scores, labels, kind=RAW_LOGITS)
    two = ovr_set(data.ovr_logits(), data.labels, (2,))
    np.testing.assert_array_equal(two.targets, [1, 0, 1])
    # a class that never occurs gets all-zero targets
    one = ovr_set(data.ovr_logits(), data.labels, (1,))
    assert one.targets.sum() == 0


def test_ovr_logits_come_from_the_normalized_row():
    q = np.array([[0.5, 0.5]])
    data = PredictionMatrix(q, np.array([0]), kind=PROBABILITIES)
    lam0 = ovr_set(data.ovr_logits(), data.labels, (0,)).logits[0]
    assert lam0 == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("kind", [RAW_LOGITS, PROBABILITIES])
@pytest.mark.parametrize("k", [10, 2, BLOCK_ENTRIES + 7])
def test_log_odds_in_row_blocks_equal_the_whole_matrix_formula_bit_for_bit(kind, k):
    # three and a half blocks of rows; K above the block size leaves one row
    # per block. A spread of 10 puts some entries on the probability clamp.
    rows = max(1, BLOCK_ENTRIES // k)
    scores = np.random.default_rng(k).normal(0.0, 10.0, size=(3 * rows + rows // 2 + 1, k))
    if kind == PROBABILITIES:
        scores = softmax(scores)
        want = logit_of_prob(scores)
    else:
        want = logit_of_prob(softmax(scores))
    got = ovr_logits(scores, kind)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    got = PredictionMatrix(scores, np.zeros(len(scores), dtype=np.int64), kind).ovr_logits()
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_ovr_positive_counts_match_label_counts():
    rng = np.random.default_rng(4)
    data = PredictionMatrix(
        rng.normal(size=(60, 5)), rng.integers(0, 5, size=60), kind=RAW_LOGITS
    )
    lam = data.ovr_logits()
    for k in range(5):
        assert ovr_set(lam, data.labels, (k,)).targets.sum() == np.sum(data.labels == k)


def test_ovr_set_concatenates_class_after_class():
    lam = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
    labels = np.array([2, 0])
    merged = ovr_set(lam, labels, (2, 0))
    assert len(merged) == 4
    np.testing.assert_array_equal(merged.logits, [2.0, 5.0, 0.0, 3.0])
    np.testing.assert_array_equal(merged.targets, [1, 0, 0, 1])
    with pytest.raises(DataError):
        ovr_set(lam, labels, ())


def test_ovr_set_class_order_only_permutes():
    rng = np.random.default_rng(7)
    lam = rng.normal(size=(5, 3))
    labels = rng.integers(0, 3, size=5)
    ab = ovr_set(lam, labels, (0, 1, 2))
    ba = ovr_set(lam, labels, (2, 0, 1))
    np.testing.assert_array_equal(np.sort(ab.logits), np.sort(ba.logits))
    assert ab.targets.sum() == ba.targets.sum()
    np.testing.assert_array_equal(np.sort(ab.logits[ab.targets == 1]),
                                  np.sort(ba.logits[ba.targets == 1]))


# --- class groupings ----------------------------------------------------

def test_group_by_prior_orders_by_frequency():
    # class 2 is rare, class 0 common; ascending prior order decides
    # membership, and each block lists its classes ascending
    labels = np.array([0] * 6 + [1] * 3 + [2] * 1)
    data = PredictionMatrix(np.zeros((10, 3)), labels, kind=RAW_LOGITS)
    groups = group_by_prior(data, 2)
    assert groups == ((1, 2), (0,))
    assert all(type(c) is int for g in groups for c in g)


def test_group_by_prior_uniform_falls_back_to_index_order():
    labels = np.array([0, 1, 2, 3])
    data = PredictionMatrix(np.zeros((4, 4)), labels, kind=RAW_LOGITS)
    assert group_by_prior(data, 2) == ((0, 1), (2, 3))


@pytest.mark.parametrize(
    "spec", [0, -1, np.int64(0), [], [(0, 1), ()], [(0, 3), (2, 3)], [(0,), (0,)]]
)
def test_group_specs_are_checked_without_a_class_count(spec):
    with pytest.raises(DataError):
        check_group_spec(spec)
    data = PredictionMatrix(np.zeros((4, 4)), np.array([0, 1, 2, 3]), kind=RAW_LOGITS)
    with pytest.raises(DataError):
        if isinstance(spec, (int, np.integer)):
            group_by_prior(data, spec)
        else:
            resolve_grouping(data, "scw", spec)


@pytest.mark.parametrize("spec", [None, 1, 7, [(0, 1), (2,)], [(5,)]])
def test_group_specs_that_fit_some_class_count_pass(spec):
    check_group_spec(spec)


def test_group_by_prior_rejects_too_many_groups():
    labels = np.array([0, 1])
    data = PredictionMatrix(np.zeros((2, 2)), labels, kind=RAW_LOGITS)
    with pytest.raises(DataError):
        group_by_prior(data, 3)
