"""ECE variants, ranking metrics, mutual information, and the report object."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from imaxcal import BinaryCalibrationSet, DataError, EvalConfig
from imaxcal.binning import METHOD_EQ_SIZE, binner_from_edges, fit_edges, ImaxConfig, METHOD_IMAX
from imaxcal.metrics import (
    SCHEME_EQ_MASS,
    SCHEME_EQ_SIZE,
    SCHEME_EXACT,
    SCHEME_IMAX,
    SCHEME_KMEANS,
    THRESHOLD_CLASS_PRIOR,
    THRESHOLD_HALF,
    THRESHOLD_ONE_OVER_K,
    THRESHOLD_ZERO,
    TIE_CLASS_INDEX,
    TIE_RAW_LOGIT,
    RowStats,
    accuracy_topk,
    brier,
    build_report,
    cw_ece,
    eval_bin_edges,
    mi_from_joint,
    mi_of_quantizer,
    nll,
    ranked_classes,
    reports_csv,
    resolve_threshold,
    threshold_label,
    top1_ece,
)
from imaxcal.synth import BinaryMixtureSpec, gen_binary_mixture


EXACT = EvalConfig(eval_scheme=SCHEME_EXACT)


# --- config validation ---------------------------------------------------

def test_eval_config_validation():
    with pytest.raises(DataError):
        EvalConfig(eval_scheme="histogram")
    with pytest.raises(DataError):
        EvalConfig(n_eval_bins=0)
    with pytest.raises(DataError):
        EvalConfig(cw_thresholds=("quartile",))
    with pytest.raises(DataError):
        EvalConfig(cw_thresholds=(1.5,))
    with pytest.raises(DataError):
        EvalConfig(bootstrap=-1)


def test_imax_eval_needs_two_bins_and_the_other_binned_schemes_one():
    with pytest.raises(DataError, match="n_eval_bins must be an integer >= 2, got 1"):
        EvalConfig(eval_scheme="imax_eval", n_eval_bins=1)
    assert EvalConfig(eval_scheme="imax_eval", n_eval_bins=2).n_eval_bins == 2
    for scheme in ("eq_size", "eq_mass", "kmeans"):
        assert EvalConfig(eval_scheme=scheme, n_eval_bins=1).n_eval_bins == 1


@pytest.mark.parametrize("seed", [-1, 1.5, "1"])
def test_eval_config_rejects_a_seed_numpy_cannot_take(seed):
    with pytest.raises(DataError, match="seed must be a non-negative integer"):
        EvalConfig(bootstrap=2, seed=seed)


# --- ranking and accuracy -------------------------------------------------

def _lexsort_order(calibrated, tie_break=TIE_CLASS_INDEX, raw_scores=None):
    """Every row's classes in rank order, by one full sort: the oracle for
    ranked_classes. A stable lexsort on descending probability, then on
    descending raw score when tie_break is raw_logit, leaves the remaining
    ties in ascending class index."""
    calibrated = np.asarray(calibrated, dtype=np.float64)
    keys = (-calibrated,)
    if tie_break == TIE_RAW_LOGIT:
        keys = (-np.asarray(raw_scores, dtype=np.float64), *keys)
    return np.lexsort(keys, axis=-1)


def _raw_under(tie_break, raw_scores):
    """The raw scores a RowStats takes to rank ties by tie_break: None for
    class_index."""
    return raw_scores if tie_break == TIE_RAW_LOGIT else None


def test_ranked_classes_tie_goes_to_the_lower_index():
    cal = np.array([[0.4, 0.4, 0.2]] * 3)
    assert ranked_classes(cal, [0, 1, 2]).tolist() == [0, 1, 2]
    stats = RowStats(cal, [0, 1, 2])
    assert stats.ranking()[1].tolist() == [1.0, 0.0, 0.0]


def test_raw_logit_tie_break_consults_the_raw_scores():
    cal = np.array([[0.4, 0.4, 0.2]] * 3)
    raw = np.array([[1.0, 3.0, 0.0]] * 3)
    rank = ranked_classes(cal, [0, 1, 2], raw)
    assert rank.tolist() == [1, 0, 2]
    stats = RowStats(cal, [0, 1, 2], raw)
    assert stats.tie_break == TIE_RAW_LOGIT
    assert stats.ranking()[1].tolist() == [0.0, 1.0, 0.0]
    with pytest.raises(DataError, match="iff raw scores"):
        accuracy_topk(cal, [0, 1, 2], 1, tie_break=TIE_RAW_LOGIT)
    with pytest.raises(DataError, match="tie_break 'random'"):
        accuracy_topk(cal, [0, 1, 2], 1, "random", raw)


def _ranking_inputs(k, seed):
    """Few distinct probabilities, so most classes tie with the label, and
    integer raw scores, so many of those also tie in raw score. Row 0 is all
    zeros of both signs, in the probabilities and in the raw scores."""
    rng = np.random.default_rng(seed)
    n = 300
    levels = np.array([0.0, 0.05, 0.1, 0.3, 0.5, 0.9, 1.0])
    cal = levels[rng.integers(0, levels.size, size=(n, k))]
    raw = rng.integers(-2, 3, size=(n, k)).astype(np.float64)
    cal[0] = 0.0
    cal[0, ::2] = -0.0
    raw[0] = 0.0
    raw[0, ::3] = -0.0
    labels = rng.integers(0, k, size=n)
    labels[0] = k - 1
    return cal, labels, raw


@pytest.mark.parametrize("k", [2, 10, 100, 1000])
@pytest.mark.parametrize("tie_break", [TIE_CLASS_INDEX, TIE_RAW_LOGIT])
def test_ranked_classes_equals_the_label_position_in_a_full_sort(k, tie_break):
    cal, labels, raw = _ranking_inputs(k, seed=k)
    order = _lexsort_order(cal, tie_break, raw)
    rank = ranked_classes(cal, labels, _raw_under(tie_break, raw))
    assert rank.tolist() == np.argmax(order == labels[:, None], axis=1).tolist()

    conf, correct, stats_rank = RowStats(cal, labels, _raw_under(tie_break, raw)).ranking()
    top_conf = cal[np.arange(len(labels)), order[:, 0]]
    assert stats_rank.tolist() == rank.tolist()
    assert correct.tolist() == (order[:, 0] == labels).astype(np.float64).tolist()
    # equal as numbers; the bits differ at most in the sign of a zero
    assert conf.tolist() == top_conf.tolist()
    assert np.all((conf.view(np.uint64) == top_conf.view(np.uint64)) | (conf == 0.0))

    cfg = EvalConfig(eval_scheme=SCHEME_EXACT, top_k=(1, 5), bootstrap=2, seed=1)
    report = build_report(RowStats(cal, labels, _raw_under(tie_break, raw)), None, cfg)
    point, cw, std = _oracle_report(cal, labels, cfg, raw, tie_break)
    assert list(report.values.items()) == list(point.items())
    per_class = cw[THRESHOLD_CLASS_PRIOR][1]
    assert report.cw[THRESHOLD_CLASS_PRIOR].per_class.tolist() == per_class.tolist()
    assert report.bootstrap_std == std


@pytest.mark.parametrize("n,k", [(20_000, 100), (5_000, 1000)])
@pytest.mark.parametrize("tie_break", [TIE_CLASS_INDEX, TIE_RAW_LOGIT])
def test_ranking_holds_no_matrix_of_class_indices(n, k, tie_break):
    rng = np.random.default_rng(5)
    cal = rng.random(7)[rng.integers(0, 7, size=(n, k))]
    raw = rng.normal(size=(n, k))
    stats = RowStats(cal, rng.integers(0, k, size=n), _raw_under(tie_break, raw))
    tracemalloc.start()
    try:
        stats.ranking()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a full int64 order of every row alone would take 8 bytes per entry
    assert peak <= 6 * n * k


@pytest.mark.parametrize("tie_break", [TIE_CLASS_INDEX, TIE_RAW_LOGIT])
def test_ranked_classes_compares_one_row_block_at_a_time(tie_break):
    n, k = 2_000, 1000
    rng = np.random.default_rng(7)
    cal = rng.random(7)[rng.integers(0, 7, size=(n, k))]
    raw = rng.normal(size=(n, k))
    labels = rng.integers(0, k, size=n)
    tracemalloc.start()
    try:
        ranked_classes(cal, labels, _raw_under(tie_break, raw))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one N x K bool mask of the whole matrix alone would take 1 byte per entry
    assert peak < 0.5 * n * k, peak


def test_row_stats_hold_no_matrix_of_squares():
    n, k = 5_000, 1000
    rng = np.random.default_rng(6)
    cal = rng.random((n, k))
    labels = rng.integers(0, k, size=n)
    tracemalloc.start()
    try:
        RowStats(cal, labels).losses()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the squares of the whole matrix alone would take 8 bytes per entry
    assert peak <= n * k


def test_row_stats_make_their_loss_terms_on_first_use():
    n, k = 200_000, 10
    rng = np.random.default_rng(6)
    cal = rng.random((n, k))
    labels = rng.integers(0, k, size=n)
    tracemalloc.start()
    try:
        stats = RowStats(cal, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the row indices take 8 bytes per row, as would each per-row term
    assert peak <= 1.5 * 8 * n, peak / (8 * n)
    # every pass over drawn rows reads the one copy
    assert stats.take(labels).losses() is stats.losses()


def test_accuracy_topk_basics():
    cal = np.array([[0.6, 0.3, 0.1], [0.1, 0.2, 0.7], [0.5, 0.4, 0.1]])
    labels = np.array([0, 2, 1])
    assert accuracy_topk(cal, labels, k=1) == pytest.approx(2.0 / 3.0)
    assert accuracy_topk(cal, labels, k=2) == 1.0
    # k beyond the class count saturates
    assert accuracy_topk(cal, labels, k=10) == 1.0


# --- evaluation bin edges --------------------------------------------------

def test_eq_size_eval_edges_are_uniform():
    np.testing.assert_array_equal(
        eval_bin_edges(np.array([0.1, 0.9]), SCHEME_EQ_SIZE, 4), [0.25, 0.5, 0.75]
    )


def test_eq_mass_eval_edges_use_quantiles():
    vals = np.array([0.1, 0.2, 0.3, 0.4])
    np.testing.assert_array_equal(eval_bin_edges(vals, SCHEME_EQ_MASS, 2), [0.25])


def test_eq_mass_eval_collapses_ties_with_a_warning():
    vals = np.repeat([0.3, 0.5, 0.7], 40).astype(np.float64)
    with pytest.warns(RuntimeWarning):
        edges = eval_bin_edges(vals, SCHEME_EQ_MASS, 10)
    np.testing.assert_array_equal(edges, [0.3, 0.5, 0.7])


def test_kmeans_eval_edge_splits_two_clusters():
    rng = np.random.default_rng(0)
    vals = np.concatenate(
        [0.2 + 0.02 * rng.standard_normal(60), 0.8 + 0.02 * rng.standard_normal(60)]
    )
    vals = np.clip(vals, 0.0, 1.0)
    edge = eval_bin_edges(vals, SCHEME_KMEANS, 2, seed=0)[0]
    assert 0.25 < edge < 0.75


def test_imax_eval_edges_are_confidence_space_cuts():
    rng = np.random.default_rng(2)
    conf = rng.uniform(0.05, 0.95, size=400)
    correct = (rng.random(400) < conf).astype(np.int64)
    edges = eval_bin_edges(conf, SCHEME_IMAX, 4, seed=0, targets=correct)
    assert edges.size == 3
    assert np.all(np.diff(edges) > 0)
    assert edges[0] > 0.0 and edges[-1] < 1.0
    with pytest.raises(DataError):
        eval_bin_edges(conf, SCHEME_IMAX, 4, seed=0)  # no targets given


def test_exact_grouping_has_no_edges():
    with pytest.raises(DataError):
        eval_bin_edges(np.array([0.1, 0.2]), SCHEME_EXACT, 4)
    with pytest.raises(DataError):
        eval_bin_edges(np.array([0.1, 0.2]), "voronoi", 4)


# --- top-1 ECE --------------------------------------------------------------

def test_top1_ece_hand_case():
    # two confidence levels: 0.8 with 3/5 correct, 0.4 with 2/5 correct
    cal = np.vstack([np.tile([0.8, 0.1], (5, 1)), np.tile([0.4, 0.1], (5, 1))])
    labels = np.array([0, 0, 0, 1, 1, 0, 0, 1, 1, 1])
    assert top1_ece(cal, labels, EXACT) == pytest.approx(0.10, abs=1e-12)


def test_top1_ece_of_overconfident_constant():
    cal = np.tile([1.0, 0.0], (10, 1))
    labels = np.array([0] * 8 + [1] * 2)
    assert top1_ece(cal, labels, EXACT) == pytest.approx(0.2, abs=1e-12)
    binned = EvalConfig(eval_scheme=SCHEME_EQ_SIZE, n_eval_bins=100)
    assert top1_ece(cal, labels, binned) == pytest.approx(0.2, abs=1e-12)


def test_top1_ece_zero_for_self_consistent_discrete_levels():
    rng = np.random.default_rng(3)
    levels = np.array([0.55, 0.7, 0.9])
    conf = rng.choice(levels, size=3000)
    correct = rng.random(3000) < conf
    labels = np.where(correct, 0, 1)
    cal = np.stack([conf, 1.0 - conf], axis=1)
    # exact grouping measures only sampling noise here
    assert top1_ece(cal, labels, EXACT) < 0.05


def test_exact_grouping_ignores_the_bin_count():
    rng = np.random.default_rng(4)
    conf = rng.uniform(0.4, 1.0, size=500)
    cal = np.stack([conf, 1.0 - conf], axis=1)
    labels = (rng.random(500) > conf).astype(np.int64)
    values = [
        top1_ece(cal, labels, EvalConfig(eval_scheme=SCHEME_EXACT, n_eval_bins=n))
        for n in (10, 100, 1000)
    ]
    assert values[0] == values[1] == values[2]


# --- class-wise ECE ----------------------------------------------------------

def test_cw_ece_hand_case():
    cal = np.array([[0.8, 0.1], [0.8, 0.1]])
    res = cw_ece(cal, np.array([0, 1]), EXACT, threshold=THRESHOLD_HALF)
    assert res.per_class[0] == pytest.approx(0.3, abs=1e-12)
    assert res.per_class[1] == 0.0
    assert res.zero_kept_classes == 1
    assert res.kept_counts.tolist() == [2, 0]
    assert res.mean == pytest.approx(0.15, abs=1e-12)


def test_cw_threshold_strictness():
    # a score exactly at the threshold is dropped
    cal = np.array([[0.5, 0.5], [0.6, 0.4]])
    res = cw_ece(cal, np.array([0, 0]), EXACT, threshold=0.5)
    assert res.kept_counts.tolist() == [1, 0]


def test_a_resample_that_draws_no_row_above_the_threshold_keeps_none():
    # rows 0 and 1 are class 0's only rows above 0.5: the full pass keeps
    # both, a resample that draws neither keeps none of class 0
    cal = np.array([[0.9, 0.1], [0.9, 0.1], [0.2, 0.8], [0.2, 0.8]])
    stats = RowStats(cal, np.array([0, 1, 1, 0]))
    assert cw_ece(stats, None, EXACT, threshold=0.5).kept_counts.tolist() == [2, 2]
    res = cw_ece(stats.take(np.array([2, 3, 3, 2])), None, EXACT, threshold=0.5)
    assert res.per_class[0] == 0.0
    assert res.kept_counts.tolist() == [0, 4]
    assert res.zero_kept_classes == 1


def test_cw_ece_threshold_variants_run():
    rng = np.random.default_rng(5)
    cal = rng.dirichlet(np.ones(4), size=300)
    labels = rng.integers(0, 4, size=300)
    for thr in (THRESHOLD_ZERO, THRESHOLD_ONE_OVER_K, THRESHOLD_CLASS_PRIOR, THRESHOLD_HALF, 0.3):
        res = cw_ece(cal, labels, EXACT, threshold=thr)
        assert 0.0 <= res.mean <= 1.0
        assert res.per_class.size == 4


def test_cw_class0_gap_matches_top1_when_class0_always_wins():
    # rows [q, 1-q] with q > 1/2: class 0 is always the argmax, so its
    # thresholded-at-zero class gap is exactly the top-1 gap
    rng = np.random.default_rng(6)
    q = rng.uniform(0.5 + 1e-6, 1.0, size=400)
    hit = rng.random(400) < q
    pair = np.stack([q, 1.0 - q], axis=1)
    pair_labels = np.where(hit, 0, 1)
    res = cw_ece(pair, pair_labels, EXACT, threshold=THRESHOLD_ZERO)
    assert res.per_class[0] == pytest.approx(top1_ece(pair, pair_labels, EXACT), abs=1e-12)


# --- proper scores ------------------------------------------------------------

def test_nll_and_brier_known_values():
    assert nll(np.array([[0.8, 0.2]]), np.array([0])) == pytest.approx(
        -math.log(0.8), abs=1e-12
    )
    assert brier(np.array([[0.8, 0.2]]), np.array([0])) == pytest.approx(0.08, abs=1e-12)
    assert brier(np.array([[0.5, 0.5]]), np.array([1])) == pytest.approx(0.5, abs=1e-12)


def test_nll_clamps_rather_than_diverging():
    v = nll(np.array([[0.0, 1.0]]), np.array([0]))
    assert np.isfinite(v) and v > 20.0


def test_scores_are_permutation_invariant():
    rng = np.random.default_rng(7)
    cal = rng.dirichlet(np.ones(5), size=100)
    labels = rng.integers(0, 5, size=100)
    perm = rng.permutation(100)
    assert nll(cal[perm], labels[perm]) == pytest.approx(nll(cal, labels), rel=1e-12)
    assert brier(cal[perm], labels[perm]) == pytest.approx(brier(cal, labels), rel=1e-12)


# --- mutual information ---------------------------------------------------------

def test_mi_from_joint_known_values():
    j = np.array([[30.0, 10.0], [10.0, 30.0]])
    closed = 0.75 * math.log(1.5) - 0.25 * math.log(2.0)
    assert mi_from_joint(j) == pytest.approx(closed, rel=1e-12)
    # one bin carries no information
    assert mi_from_joint(np.array([[40.0], [60.0]])) == 0.0
    with pytest.raises(DataError):
        mi_from_joint(np.zeros((2, 2)))


def test_mi_perfect_separation_reaches_log2():
    j = np.array([[50.0, 0.0], [0.0, 50.0]])
    assert mi_from_joint(j) == pytest.approx(math.log(2.0), abs=1e-12)


def test_mi_is_invariant_to_bin_relabeling():
    cal, _ = gen_binary_mixture(BinaryMixtureSpec(n=2000, seed=0))
    b = fit_edges(cal, METHOD_IMAX, ImaxConfig(n_bins=4, seed=0))
    mirrored = binner_from_edges(-b.edges[::-1], METHOD_EQ_SIZE)
    flipped = BinaryCalibrationSet(-cal.logits, cal.targets)
    assert mi_of_quantizer(mirrored, flipped) == pytest.approx(
        mi_of_quantizer(b, cal), rel=1e-12
    )


def _add_at_joint_mi(binner, cal):
    """The former joint table: one np.add.at per sample, with a row per bin
    of a Binner, or as many rows as the highest occupied bin needs for bare
    edges."""
    edges = getattr(binner, "edges", binner)
    idx = np.searchsorted(edges, cal.logits, side="right")
    rows = binner.n_bins if hasattr(binner, "n_bins") else int(idx.max()) + 1
    joint = np.zeros((rows, 2))
    np.add.at(joint, (idx, cal.targets.astype(np.int64)), 1.0)
    return mi_from_joint(joint)


def _random_quantizer_case(rng):
    n = int(rng.integers(2, 300))
    # few distinct levels give tied logits; some samples sit on an edge
    levels = rng.normal(size=int(rng.integers(1, 40)))
    logits = rng.choice(levels, size=n)
    targets = (rng.random(n) < rng.random()).astype(np.int8)
    pool = np.concatenate([levels, rng.normal(scale=3.0, size=20)])
    edges = np.unique(rng.choice(pool, size=int(rng.integers(1, 20))))
    return edges, BinaryCalibrationSet(logits=logits, targets=targets)


def test_mi_of_quantizer_matches_the_add_at_joint_table():
    rng = np.random.default_rng(5)
    for _ in range(500):
        edges, cal = _random_quantizer_case(rng)
        binner = binner_from_edges(edges, METHOD_EQ_SIZE)
        assert mi_of_quantizer(binner, cal) == _add_at_joint_mi(binner, cal)
        # bare edges now get every bin's row; the trailing empty rows change
        # only the order of the summation
        oracle = _add_at_joint_mi(edges, cal)
        assert mi_of_quantizer(edges, cal) == pytest.approx(oracle, rel=5e-16, abs=1e-300)


# --- bootstrap -------------------------------------------------------------------

def test_bootstrap_constant_metric_has_zero_std():
    # every row identical, so every resample gives every metric the same
    # value; the values are exact in binary, so their mean is too
    cal = np.tile([0.75, 0.25], (100, 1))
    labels = np.zeros(100, dtype=np.int64)
    for scheme in (SCHEME_EQ_SIZE, SCHEME_KMEANS, SCHEME_EXACT):
        cfg = EvalConfig(
            eval_scheme=scheme, cw_thresholds=(THRESHOLD_CLASS_PRIOR, THRESHOLD_ZERO),
            top_k=(1, 2), bootstrap=20,
        )
        report = build_report(cal, labels, cfg)
        point, _, _ = _oracle_report(cal, labels, cfg)
        assert list(report.values.items()) == list(point.items())
        assert report.values["top1_ece"] == 0.25
        assert len(report.bootstrap_std) == 7
        assert set(report.bootstrap_std.values()) == {0.0}


def test_bootstrap_std_shrinks_with_sample_size():
    def std_of_nll(n):
        rng = np.random.default_rng(0)
        cal = rng.dirichlet(np.ones(4), size=n)
        labels = rng.integers(0, 4, size=n)
        cfg = EvalConfig(eval_scheme=SCHEME_EXACT, top_k=(1,), bootstrap=40, seed=1)
        return build_report(cal, labels, cfg).bootstrap_std["nll"]

    ratio = std_of_nll(500) / std_of_nll(50_000)
    # sqrt(100) = 10 up to resampling noise
    assert 3.0 < ratio < 33.0


# --- report ------------------------------------------------------------------------

def _report_inputs(n=400, k=4, seed=8):
    rng = np.random.default_rng(seed)
    cal = rng.dirichlet(np.ones(k), size=n)
    labels = rng.integers(0, k, size=n)
    return cal, labels


def test_report_dict_layout():
    cal, labels = _report_inputs()
    cfg = EvalConfig()
    doc = build_report(cal, labels, cfg).to_dict()
    assert doc["n_samples"] == 400
    assert doc["n_classes"] == 4
    assert doc["eval_scheme"] == SCHEME_EQ_SIZE
    assert doc["n_eval_bins"] == 100
    assert set(doc["accuracy"]) == {"top1", "top5"}
    assert "class_prior" in doc["cw_ece"]
    assert 0.0 <= doc["top1_ece"] <= 1.0
    assert doc["nll"] > 0.0
    assert "bootstrap" not in doc


def test_report_csv_round_trips_values():
    cal, labels = _report_inputs(seed=9)
    cfg = EvalConfig(
        cw_thresholds=(
            THRESHOLD_CLASS_PRIOR, THRESHOLD_HALF, THRESHOLD_ONE_OVER_K, THRESHOLD_ZERO, 0.25
        ),
        top_k=(1, 3, 1),
        bootstrap=2,
    )
    report = build_report(cal, labels, cfg)
    lines = reports_csv([report]).strip().splitlines()
    assert lines[0] == "eval_bins,metric,threshold,value,std"
    assert all(line.startswith("100,") for line in lines[1:])
    rows = [line.split(",")[1:] for line in lines[1:]]
    by_name = {(r[0], r[1]): r[2] for r in rows}
    # repr-format values parse back to the exact float
    assert float(by_name[("top1_ece", "")]) == report.to_dict()["top1_ece"]
    cw_rows = [r for r in rows if r[0] == "cw_ece"]
    assert [r[1] for r in cw_rows] == ["class_prior", "half", "one_over_k", "zero", "0.25"]

    # every output lists the report's names once each, in the report's order
    names = list(report.values)
    assert names == [
        "acc_top1", "acc_top3", "top1_ece", "cw_ece[class_prior]", "cw_ece[half]",
        "cw_ece[one_over_k]", "cw_ece[zero]", "cw_ece[0.25]", "nll", "brier",
    ]

    def name(metric, thr):
        return f"{metric}[{thr}]" if thr else metric

    assert [name(r[0], r[1]) for r in rows] == names
    assert [float(r[2]) for r in rows] == list(report.values.values())
    text_rows = report.to_text().splitlines()[1:]
    assert [name(line[:24].strip(), line[24:38].strip()) for line in text_rows] == names
    assert list(report.to_dict()["bootstrap"]["std"]) == names


def test_report_bootstrap_block():
    cal, labels = _report_inputs(seed=10)
    cfg = EvalConfig(bootstrap=8, seed=5)
    doc = build_report(cal, labels, cfg).to_dict()
    assert doc["bootstrap"]["n_resamples"] == 8
    assert doc["bootstrap"]["std"]["top1_ece"] >= 0.0
    # std column shows up in the CSV when resampling ran
    csv_lines = reports_csv([build_report(cal, labels, cfg)]).strip().splitlines()
    top1_row = next(line for line in csv_lines if line.startswith("100,top1_ece"))
    assert top1_row.split(",")[4] != ""


def test_report_text_mentions_the_headline_metrics():
    cal, labels = _report_inputs(seed=11)
    text = build_report(cal, labels, EvalConfig()).to_text()
    for needle in ("top1_ece", "nll", "brier", "acc_top1"):
        assert needle in text


# --- oracle: the per-resample report that ranked every resample's matrix ----

def _oracle_check(calibrated, labels):
    calibrated = np.asarray(calibrated, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    return calibrated, labels


def _oracle_accuracy(calibrated, labels, k, tie_break, raw_scores):
    calibrated, labels = _oracle_check(calibrated, labels)
    order = _lexsort_order(calibrated, tie_break, raw_scores)
    kk = min(int(k), calibrated.shape[1])
    return float(np.mean(np.any(order[:, :kk] == labels[:, None], axis=1)))


def _oracle_grouped_gap(conf, correct, cfg):
    n = conf.shape[0]
    if cfg.eval_scheme == SCHEME_EXACT:
        _, inverse, counts = np.unique(conf, return_inverse=True, return_counts=True)
        acc = np.bincount(inverse, weights=correct) / counts
        avg_conf = np.bincount(inverse, weights=conf) / counts
    else:
        edges = eval_bin_edges(
            conf, cfg.eval_scheme, cfg.n_eval_bins, seed=cfg.seed, targets=correct
        )
        idx = np.searchsorted(edges, conf, side="right")
        m = len(edges) + 1
        counts = np.bincount(idx, minlength=m)
        keep = counts > 0
        acc = (np.bincount(idx, weights=correct, minlength=m) / np.maximum(counts, 1))[keep]
        avg_conf = (np.bincount(idx, weights=conf, minlength=m) / np.maximum(counts, 1))[keep]
        counts = counts[keep]
    return float(np.sum(counts / n * np.abs(acc - avg_conf)))


def _oracle_top1(calibrated, labels, cfg, tie_break, raw_scores):
    calibrated, labels = _oracle_check(calibrated, labels)
    top = _lexsort_order(calibrated, tie_break, raw_scores)[:, 0]
    conf = calibrated[np.arange(calibrated.shape[0]), top]
    return _oracle_grouped_gap(conf, (top == labels).astype(np.float64), cfg)


def _oracle_cw(calibrated, labels, cfg, threshold):
    calibrated, labels = _oracle_check(calibrated, labels)
    k = calibrated.shape[1]
    priors = np.array([np.mean(labels == c) for c in range(k)])
    per_class = np.zeros(k)
    kept_counts = np.zeros(k, dtype=np.int64)
    for c in range(k):
        conf = calibrated[:, c]
        kept = conf > resolve_threshold(threshold, c, k, priors)
        kept_counts[c] = int(kept.sum())
        if kept_counts[c]:
            hit = (labels[kept] == c).astype(np.float64)
            per_class[c] = _oracle_grouped_gap(conf[kept], hit, cfg)
    return float(per_class.mean()), per_class, kept_counts


def _oracle_report(calibrated, labels, cfg, raw=None, tie_break=TIE_CLASS_INDEX):
    """Every point value and bootstrap std, each resample ranked afresh."""

    def compute(idx):
        cal, lab = calibrated[idx], labels[idx]
        rw = None if raw is None else raw[idx]
        rep = {}
        for k in cfg.top_k:
            rep[f"acc_top{k}"] = _oracle_accuracy(cal, lab, k, tie_break, rw)
        rep["top1_ece"] = _oracle_top1(cal, lab, cfg, tie_break, rw)
        for thr in cfg.cw_thresholds:
            rep[f"cw_ece[{threshold_label(thr)}]"] = _oracle_cw(cal, lab, cfg, thr)[0]
        q_true = cal[np.arange(len(lab)), lab]
        rep["nll"] = float(np.mean(-np.log(np.clip(q_true, 1e-12, 1.0))))
        rep["brier"] = float(np.mean(np.sum(cal**2, axis=1) - 2.0 * q_true + 1.0))
        return rep

    point = compute(np.arange(len(labels)))
    cw = {
        threshold_label(thr): _oracle_cw(calibrated, labels, cfg, thr)
        for thr in cfg.cw_thresholds
    }
    std = {}
    if cfg.bootstrap > 0:
        rng = np.random.default_rng(cfg.seed)
        samples = {}
        for _ in range(cfg.bootstrap):
            idx = rng.integers(0, len(labels), size=len(labels))
            for name, val in compute(idx).items():
                samples.setdefault(name, []).append(val)
        std = {
            name: (0.0 if cfg.bootstrap == 1 else float(np.std(vals, ddof=1)))
            for name, vals in samples.items()
        }
    return point, cw, std


def _oracle_inputs(inputs):
    rng = np.random.default_rng(21)
    n, k = (3000, 3) if inputs == "levels" else (600, 6)
    raw = rng.normal(size=(n, k))
    labels = rng.integers(0, k, size=n)
    if inputs == "tied":
        # few distinct levels, as a binning calibrator outputs, with ties
        # inside rows, exact zeros and a negative zero
        levels = np.array([-0.0, 0.0, 0.05, 0.1, 0.1 + 0.2, 0.5, 0.9, 1.0])
        cal = levels[rng.integers(0, levels.size, size=(n, k))]
        cal[:, 1] = cal[:, 2]
    elif inputs == "levels":
        # groups of about a thousand rows over three levels, one of them the
        # custom threshold 0.3, which keeps only the groups above it
        cal = np.array([0.1, 0.3, 0.6])[rng.integers(0, 3, size=(n, k))]
    else:
        cal = rng.dirichlet(np.ones(k), size=n)
    return cal, labels, raw


@pytest.mark.parametrize("inputs", ["distinct", "tied", "levels"])
@pytest.mark.parametrize("scheme", [SCHEME_EQ_SIZE, SCHEME_EQ_MASS, SCHEME_KMEANS, SCHEME_EXACT])
@pytest.mark.parametrize("tie_break", [TIE_CLASS_INDEX, TIE_RAW_LOGIT])
@pytest.mark.parametrize("bootstrap", [1, 2, 7])
def test_report_equals_the_per_resample_oracle(inputs, scheme, tie_break, bootstrap):
    cal, labels, raw = _oracle_inputs(inputs)
    cfg = EvalConfig(
        eval_scheme=scheme,
        n_eval_bins=7,
        cw_thresholds=(THRESHOLD_CLASS_PRIOR, THRESHOLD_ONE_OVER_K, THRESHOLD_ZERO, 0.3),
        top_k=(1, 5, 9),
        bootstrap=bootstrap,
        seed=3,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # eq_mass collapses tied edges
        report = build_report(RowStats(cal, labels, _raw_under(tie_break, raw)), None, cfg)
        point, cw, std = _oracle_report(cal, labels, cfg, raw, tie_break)
    assert list(report.values.items()) == list(point.items())
    for label, (mean, per_class, kept_counts) in cw.items():
        assert report.cw[label].mean == mean
        assert report.cw[label].per_class.tolist() == per_class.tolist()
        assert report.cw[label].kept_counts.tolist() == kept_counts.tolist()
        assert report.cw[label].zero_kept_classes == int(np.sum(kept_counts == 0))
    assert report.bootstrap_std == std
    assert list(report.bootstrap_std) == list(std)


def test_one_ranking_serves_every_report(monkeypatch):
    import imaxcal.metrics as metrics_mod

    cal, labels, raw = _oracle_inputs("tied")
    ranked_rows = []
    real = metrics_mod.ranked_classes

    def counting(calibrated, *args):
        ranked_rows.append(len(calibrated))
        return real(calibrated, *args)

    monkeypatch.setattr(metrics_mod, "ranked_classes", counting)
    stats = RowStats(cal, labels)
    for n_bins in (10, 100):
        build_report(stats, None, EvalConfig(n_eval_bins=n_bins, bootstrap=5))
    build_report(stats, None, EvalConfig(eval_scheme=SCHEME_EXACT, bootstrap=5))
    assert ranked_rows == [len(labels)]


def test_a_row_stats_ranking_checks_the_matrix_once(monkeypatch):
    # the ranking reads the inputs the RowStats checked when it was built,
    # so eval checks each matrix once
    import imaxcal.metrics as metrics_mod

    cal, labels, raw = _oracle_inputs("tied")
    checked = []
    real = metrics_mod.check_scores

    def counting(scores, *args):
        checked.append(len(scores))
        return real(scores, *args)

    monkeypatch.setattr(metrics_mod, "check_scores", counting)
    rank = RowStats(cal, labels).ranking()[2]
    assert checked == [len(labels)]
    monkeypatch.undo()
    np.testing.assert_array_equal(rank, ranked_classes(cal, labels))
    with_raw = RowStats(cal, labels, raw)
    np.testing.assert_array_equal(ranked_classes(with_raw), ranked_classes(cal, labels, raw))


def test_a_row_stats_passed_with_labels_a_tie_break_or_raw_scores_is_a_data_error():
    # a RowStats holds its labels, tie break and raw scores: a second source
    # of any of them would be read or ignored, so it is refused
    cal, labels, raw = _oracle_inputs("tied")
    stats = RowStats(cal, labels, raw)
    with pytest.raises(DataError, match="RowStats holds"):
        build_report(stats, labels, EvalConfig())
    with pytest.raises(DataError, match="RowStats holds"):
        top1_ece(stats, labels)
    with pytest.raises(DataError, match="None with a RowStats"):
        accuracy_topk(stats, None, 1, tie_break=TIE_RAW_LOGIT)
    with pytest.raises(DataError, match="RowStats holds"):
        accuracy_topk(stats, None, 1, raw_scores=raw)
    for metric in (cw_ece, nll, brier, ranked_classes):
        with pytest.raises(DataError, match="RowStats holds"):
            metric(stats, labels)
    report = build_report(stats, None, EvalConfig())
    assert report.to_dict()["tie_break"] == TIE_RAW_LOGIT
    assert report.values["acc_top1"] == accuracy_topk(cal, labels, 1, TIE_RAW_LOGIT, raw)


_RAW_CASES = ("none", "valid", "nan", "inf", "wrong shape", "1-D", "text")


@example(tie_break=TIE_CLASS_INDEX, raw_case="nan", seed=0, at=0)
@example(tie_break=None, raw_case="text", seed=0, at=0)
@example(tie_break=TIE_CLASS_INDEX, raw_case="valid", seed=0, at=0)
@given(
    tie_break=st.sampled_from([None, TIE_CLASS_INDEX, TIE_RAW_LOGIT, "random"]),
    raw_case=st.sampled_from(_RAW_CASES),
    seed=st.integers(0, 2**16),
    at=st.integers(0, 12 * 4 - 1),
)
def test_raw_scores_are_given_exactly_when_the_tie_break_is_raw_logit(
    tie_break, raw_case, seed, at
):
    # ties rank by raw logit exactly when raw scores are given; malformed
    # raw scores are a DataError, never silently ignored
    rng = np.random.default_rng(seed)
    n, k = 12, 4
    cal = np.array([0.1, 0.4])[rng.integers(0, 2, size=(n, k))]
    labels = rng.integers(0, k, size=n)
    raw = rng.integers(-2, 3, size=(n, k)).astype(np.float64)
    bad = raw.copy()
    bad.flat[at] = np.nan if raw_case == "nan" else np.inf
    raw_scores = {
        "none": None,
        "valid": raw,
        "nan": bad,
        "inf": bad,
        "wrong shape": raw[:, :-1],
        "1-D": raw[0],
        "text": "nonsense",
    }[raw_case]
    calls = (
        lambda: RowStats(cal, labels, raw_scores),
        lambda: ranked_classes(cal, labels, raw_scores),
        lambda: accuracy_topk(cal, labels, 1, tie_break, raw_scores),
    )
    if raw_case not in ("none", "valid"):
        for call in calls:
            with pytest.raises(DataError):
                call()
        return
    rule = TIE_CLASS_INDEX if raw_scores is None else TIE_RAW_LOGIT
    assert RowStats(cal, labels, raw_scores).tie_break == rule
    order = _lexsort_order(cal, rule, raw_scores)
    want = np.argmax(order == labels[:, None], axis=1)
    assert ranked_classes(cal, labels, raw_scores).tolist() == want.tolist()
    if tie_break not in (None, rule):
        with pytest.raises(DataError, match="iff raw scores"):
            accuracy_topk(cal, labels, 1, tie_break, raw_scores)
    else:
        got = accuracy_topk(cal, labels, 1, tie_break, raw_scores)
        assert got == _oracle_accuracy(cal, labels, 1, rule, raw_scores)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5, 1.5])
def test_every_metric_rejects_scores_outside_the_unit_interval(bad):
    cal, labels = _report_inputs(n=20)
    cal[3, 1] = bad
    for metric in (accuracy_topk, top1_ece, cw_ece, nll, brier):
        with pytest.raises(DataError):
            metric(cal, labels)
    with pytest.raises(DataError):
        build_report(cal, labels, EvalConfig(bootstrap=2))


def test_labels_must_index_a_class():
    cal, labels = _report_inputs(n=20, k=4)
    for bad in (-1, 4, 1.7, np.nan, np.inf):
        bad_labels = labels.astype(np.float64)
        bad_labels[0] = bad
        for metric in (accuracy_topk, top1_ece, cw_ece, nll, brier):
            with pytest.raises(DataError):
                metric(cal, bad_labels)
        with pytest.raises(DataError):
            build_report(cal, bad_labels, EvalConfig())
    with pytest.raises(DataError, match="integers"):
        accuracy_topk(np.array([[0.9, 0.1], [0.2, 0.8]]), [0.0, 1.7])
