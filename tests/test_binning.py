"""Bin-edge fitting: baselines, the alternating optimizer, representatives."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit

from imaxcal import (
    BinaryCalibrationSet,
    Binner,
    DataError,
    FitError,
    ImaxConfig,
    METHOD_EQ_MASS,
    METHOD_EQ_SIZE,
    METHOD_IMAX,
    REP_EMPIRICAL_FREQ,
    REP_RAW_PROB_MEAN,
    REP_SCALED_PROB_MEAN,
    Scaler,
    KIND_TEMPERATURE,
)
from imaxcal import kernels
from imaxcal.binning import (
    MAX_ITERATIONS,
    SKETCH,
    TOLERANCE,
    _midpoint_phis,
    _seed_phis,
    apply_binner,
    bin_counts,
    bin_sums,
    binner_from_edges,
    fit_edges,
    fit_eq_mass,
    fit_eq_size,
    fit_imax,
    imax_update_edges,
    imax_update_phis,
    quantize,
    set_representatives,
)
from imaxcal.data import PROB_EPS, ovr_set, prob_of_logit
from imaxcal.metrics import mi_from_joint, mi_of_quantizer
from imaxcal.scaling import apply_scaler
from imaxcal.synth import (
    PRESETS,
    BinaryMixtureSpec,
    MulticlassSynthSpec,
    gen_binary_mixture,
    gen_multiclass,
)
from test_bundle import _load_one, _one_calibrator_doc


def _mixture(n=2000, seed=0, **params):
    cal, _ = gen_binary_mixture(BinaryMixtureSpec(n=n, seed=seed, **params))
    return cal


# --- quantize / apply ---------------------------------------------------

def test_quantize_half_open_bins():
    edges = np.array([-1.0, 1.5])
    np.testing.assert_array_equal(quantize(edges, np.array([-5.0, 0.0, 5.0])), [0, 1, 2])
    # a value exactly on an edge belongs to the bin on its right
    assert quantize(edges, np.array([1.5]))[0] == 2
    assert quantize(edges, np.array([-1.0]))[0] == 1


def test_quantize_accepts_binner_or_edges():
    b = binner_from_edges(np.array([0.0]), METHOD_EQ_SIZE)
    lam = np.array([-2.0, 3.0])
    np.testing.assert_array_equal(quantize(b, lam), quantize(np.array([0.0]), lam))


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=40))
@settings(max_examples=50)
def test_quantize_is_monotone(values):
    lam = np.sort(np.asarray(values, dtype=np.float64))
    idx = quantize(np.array([-10.0, -1.0, 2.0]), lam)
    assert np.all(np.diff(idx) >= 0)


def test_apply_binner_single_bin_is_constant():
    b = Binner(edges=np.array([]), reps=np.array([0.42]), method=METHOD_IMAX)
    np.testing.assert_array_equal(apply_binner(b, np.array([-5.0, 0.0, 7.0])), 0.42)


def test_apply_binner_image_has_at_most_m_values():
    cal = _mixture(n=4000, seed=1)
    b = set_representatives(fit_edges(cal, METHOD_IMAX, ImaxConfig(n_bins=8, seed=0)), cal)
    out = apply_binner(b, np.random.default_rng(0).normal(scale=4.0, size=100_000))
    assert np.unique(out).size <= 8


def test_apply_binner_monotone_when_reps_are():
    cal = _mixture(n=3000, seed=2)
    b = set_representatives(fit_edges(cal, METHOD_IMAX, ImaxConfig(n_bins=6, seed=0)), cal)
    assert np.all(np.diff(b.reps) >= 0)
    lam = np.sort(np.random.default_rng(1).normal(size=500))
    assert np.all(np.diff(apply_binner(b, lam)) >= 0)


# --- Binner container ---------------------------------------------------

@pytest.mark.parametrize(
    "edges,reps,message",
    [
        ([1.0, 0.5], [0.1, 0.5, 0.9], "edges must be strictly increasing"),
        ([0.0, np.inf], [0.1, 0.5, 0.9], "edges must be finite"),
        ([0.0], [0.1, 0.5, 0.9], "one representative per bin"),
        ([0.0], [0.5], "one representative per bin"),
        ([0.0], [[0.5, 0.5]], "must be 1-D"),
        ([0.0], [0.5, 1.1], r"representatives must lie in \[0, 1\]"),
    ],
)
def test_binner_validation(edges, reps, message):
    with pytest.raises(FitError, match=message):
        Binner(edges=np.array(edges), reps=np.array(reps), method=METHOD_IMAX)


def test_a_binner_with_an_unknown_method_is_a_data_error():
    # the rule is the type's, so no Binner can be written that cannot be read
    with pytest.raises(DataError, match="unknown binning method 'foo'"):
        Binner(edges=[0.0], reps=[0.2, 0.8], method="foo")


def test_binner_rejects_nan_reps():
    with pytest.raises(FitError):
        Binner(edges=np.array([0.0]), reps=np.array([np.nan, np.nan]), method=METHOD_IMAX)


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("iterations", None, "binner iterations must be a non-negative integer"),
        ("edges", ["a"], "binner edges must be a number"),
        ("reps", [0.2, 1.5], r"malformed binner: representatives must lie in \[0, 1\]"),
    ],
)
def test_a_malformed_bundle_binner_is_a_data_error(field, value, message):
    doc = _one_calibrator_doc(binner=binner_from_edges(np.array([0.0]), METHOD_EQ_SIZE))
    doc["calibrators"][0]["binner"][field] = value
    with pytest.raises(DataError, match=message):
        _load_one(doc)


def test_binner_reps_bounds_are_inclusive():
    Binner(edges=np.array([0.0]), reps=np.array([0.0, 1.0]), method=METHOD_IMAX)


def test_binner_json_round_trip_is_exact():
    cal = _mixture(n=1000, seed=3)
    b = set_representatives(fit_edges(cal, METHOD_IMAX, ImaxConfig(n_bins=5, seed=0)), cal)
    back = _load_one(_one_calibrator_doc(binner=b)).binner
    np.testing.assert_array_equal(back.edges, b.edges)
    np.testing.assert_array_equal(back.reps, b.reps)
    assert back.method == b.method
    assert back.iterations == b.iterations


def test_binner_json_is_strict():
    doc = _one_calibrator_doc(binner=binner_from_edges(np.array([0.0]), METHOD_EQ_SIZE))
    payload = doc["calibrators"][0]["binner"]
    payload["extra"] = 1
    with pytest.raises(DataError, match="unknown binner fields"):
        _load_one(doc)
    del payload["extra"]
    del payload["reps"]
    with pytest.raises(DataError, match="missing binner fields"):
        _load_one(doc)
    doc["calibrators"][0]["binner"] = ["not", "an", "object"]
    with pytest.raises(DataError, match="binner must be a JSON object"):
        _load_one(doc)


# --- baseline edges -----------------------------------------------------

def test_eq_size_known_edges():
    np.testing.assert_array_equal(fit_eq_size(2), [0.0])
    edges = fit_eq_size(4)
    ln3 = 1.0986122886681098
    np.testing.assert_allclose(edges, [-ln3, 0.0, ln3], atol=1e-15)


@pytest.mark.parametrize("m", [2, 3, 7, 10])
def test_eq_size_edges_are_antisymmetric(m):
    edges = fit_eq_size(m)
    np.testing.assert_array_equal(edges, -edges[::-1])
    assert np.all(np.diff(edges) > 0)


def test_eq_mass_median_split():
    cal = BinaryCalibrationSet(np.array([1.0, 2.0, 3.0, 4.0]), np.array([0, 0, 1, 1]))
    np.testing.assert_array_equal(fit_eq_mass(cal, 2), [2.5])


def test_eq_mass_balances_occupancy():
    rng = np.random.default_rng(3)
    lam = rng.normal(size=103)
    cal = BinaryCalibrationSet(lam, (rng.random(103) < expit(lam)).astype(np.int64))
    edges = fit_eq_mass(cal, 5)
    counts = np.bincount(quantize(edges, lam), minlength=5)
    assert counts.tolist() == [21, 20, 21, 20, 21]
    assert counts.max() - counts.min() <= 1


def test_eq_mass_rejects_degenerate_quantiles():
    cal = BinaryCalibrationSet(np.zeros(20), np.ones(20, dtype=np.int64))
    with pytest.raises(FitError):
        fit_eq_mass(cal, 4)


def test_eq_mass_needs_enough_samples():
    cal = BinaryCalibrationSet(np.array([0.0, 1.0]), np.array([0, 1]))
    with pytest.raises(FitError):
        fit_eq_mass(cal, 3)


# --- closed-form updates ------------------------------------------------

def test_edge_update_known_values():
    edge = imax_update_edges(np.array([0.0, 1.0]))[0]
    assert edge == pytest.approx(0.4900342764192143, abs=1e-12)
    # antisymmetric phi pair puts the edge exactly at zero
    assert imax_update_edges(np.array([-1.0, 1.0]))[0] == 0.0


def test_edge_update_rejects_unsorted_phis():
    with pytest.raises(FitError):
        imax_update_edges(np.array([1.0, 0.5]))


def test_edge_lies_strictly_between_its_phis():
    rng = np.random.default_rng(0)
    lo = rng.uniform(-20, 19, size=10_000)
    hi = lo + rng.uniform(1e-6, 8.0, size=10_000)
    pairs = np.stack([lo, hi], axis=1)
    edges = np.array([imax_update_edges(p)[0] for p in pairs[:200]])
    assert np.all(edges > pairs[:200, 0]) and np.all(edges < pairs[:200, 1])
    # vectorized check over the full draw via the two-level formula
    sp = np.logaddexp(0.0, pairs)
    sn = np.logaddexp(0.0, -pairs)
    g = np.log(sp[:, 1] - sp[:, 0]) - np.log(sn[:, 0] - sn[:, 1])
    assert np.all(g > lo) and np.all(g < hi)


@given(
    st.floats(-25, 25),
    st.floats(1e-5, 10.0),
    st.floats(1e-5, 10.0),
)
@settings(max_examples=100)
def test_edge_bracket_property(phi0, gap1, gap2):
    phis = np.array([phi0, phi0 + gap1, phi0 + gap1 + gap2])
    edges = imax_update_edges(phis)
    assert phis[0] < edges[0] < phis[1] < edges[1] < phis[2]


def test_phi_update_single_bin_matches_single_logit():
    for lam in (0.0, 1.0, -3.7):
        cal = BinaryCalibrationSet(np.array([lam]), np.array([1]))
        phi = imax_update_phis(cal, np.array([]))[0]
        assert phi == pytest.approx(lam, abs=1e-12)


def test_phi_update_known_pair():
    cal = BinaryCalibrationSet(np.array([0.0, 1.0]), np.array([0, 1]))
    phi = imax_update_phis(cal, np.array([]))[0]
    assert phi == pytest.approx(0.4706149197340812, abs=1e-15)
    cal2 = BinaryCalibrationSet(np.array([-2.0, 2.0]), np.array([0, 1]))
    assert imax_update_phis(cal2, np.array([]))[0] == 0.0


def test_phi_update_midpoint_fallback_without_prev():
    cal = BinaryCalibrationSet(np.array([0.0, 0.2]), np.array([0, 1]))
    phis = imax_update_phis(cal, np.array([-1.0, 1.0]))
    assert np.all(np.diff(phis) > 0)


# --- the fit's objective --------------------------------------------------

def weighted_surrogate_loss(cal_set, edges, phis, scale=1.0, bias=0.0):
    """Sigmoid-model weighted NLL of the step function phis over edges, the
    objective the alternating updates lower (labels enter only through the
    sigmoid(t) pseudo-weights)."""
    per_bin = np.asarray(phis, dtype=np.float64)[quantize(np.asarray(edges), cal_set.logits)]
    t = scale * (cal_set.logits + bias)
    loss = prob_of_logit(t) * np.logaddexp(0.0, -per_bin)
    loss += prob_of_logit(-t) * np.logaddexp(0.0, per_bin)
    return float(np.mean(loss))


def test_weighted_loss_matches_direct_computation():
    cal = _mixture(n=300, seed=5)
    edges = fit_eq_size(4)
    phis = imax_update_phis(cal, edges)
    got = weighted_surrogate_loss(cal, edges, phis)
    t = cal.logits
    per_bin_phi = phis[quantize(edges, t)]
    direct = np.mean(
        expit(t) * np.logaddexp(0.0, -per_bin_phi) + expit(-t) * np.logaddexp(0.0, per_bin_phi)
    )
    assert got == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("scale,bias", [(1.0, 0.0), (1.3, -0.2)])
def test_the_reported_loss_is_the_weighted_nll_at_the_returned_fit(scale, bias):
    # event=fit_group prints loss[-1]: it must be the objective at the
    # edges and phis the fit returns
    cal = _mixture(n=5000, seed=9)
    b = fit_imax(cal, ImaxConfig(n_bins=10, seed=1, scale=scale, bias=bias))
    want = weighted_surrogate_loss(cal, b.edges, b.diagnostics.phis, scale, bias)
    assert b.diagnostics.loss[-1] == pytest.approx(want, rel=1e-12, abs=0)


# --- fit_imax -----------------------------------------------------------

def test_fit_imax_is_deterministic():
    cal = _mixture(n=1500, seed=6)
    cfg = ImaxConfig(n_bins=8, seed=4)
    a = fit_imax(cal, cfg)
    b = fit_imax(cal, cfg)
    np.testing.assert_array_equal(a.edges, b.edges)
    np.testing.assert_array_equal(a.diagnostics.phis, b.diagnostics.phis)
    np.testing.assert_array_equal(a.reps, b.reps)
    assert a.iterations == b.iterations


def test_fit_imax_diagnostics_trace():
    cal = _mixture(n=1500, seed=7)
    b = fit_imax(cal, ImaxConfig(n_bins=6, seed=0))
    trace = b.diagnostics
    assert trace.loss.size == b.iterations
    assert np.all(np.diff(trace.loss) <= 1e-12 + 1e-10 * np.abs(trace.loss[:-1]))
    assert b.iterations <= 200


def test_fit_imax_weighted_loss_never_worse_than_its_init():
    for params in ({}, PRESETS["fig2-imbalanced"]):
        cal = _mixture(n=10_000, seed=0, **params)
        lam = np.sort(cal.logits)
        cum_pos, tail_neg = kernels.prefix_sums(lam)
        for edges0 in (fit_eq_size(15), fit_eq_mass(cal, 15)):
            phis0 = imax_update_phis(cal, edges0)
            at_init = weighted_surrogate_loss(cal, edges0, phis0)
            edges, phis, *_ = kernels.alternate(
                lam, cum_pos, tail_neg, phis0, 1.0, 0.0, TOLERANCE, MAX_ITERATIONS
            )
            at_end = weighted_surrogate_loss(cal, edges, phis)
            assert at_end <= at_init + 1e-12


def _fresh_set(n):
    rng = np.random.default_rng(0)
    lam = rng.normal(0.0, 3.0, n)
    return BinaryCalibrationSet(lam, (rng.random(n) < expit(lam)).astype(np.int8))


def _peak_bytes(fit, cal):
    """tracemalloc's peak while fit(cal) runs, in bytes."""
    tracemalloc.start()
    try:
        fit(cal)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_fit_imax_peak_memory_per_merged_sample():
    # the shared fit's set is N*K samples: its working arrays bound the memory
    # a large fit needs (about 120 B per sample before the fit sorted without
    # a permutation and seeded without full-length copies, 44 B before the
    # seeding dropped its cumulative divergence array)
    n = 1 << 20
    peak = _peak_bytes(lambda c: fit_imax(c, ImaxConfig(n_bins=15, seed=0)), _fresh_set(n))
    assert peak / n <= 40.0


def test_fit_imax_above_the_sketch_size_holds_only_its_prefix_sums():
    # the fit reads the set's sorted logits as they are, so its length-N
    # arrays are its two prefix sums, 16 B per merged sample: the seeding
    # scores at most SKETCH points, whatever the set's size
    data = gen_multiclass(MulticlassSynthSpec(n_classes=100, n=2000, t_gen=0.5, seed=0))
    cal = ovr_set(data.ovr_logits(), data.labels, range(100))
    assert len(cal) > SKETCH
    peak = _peak_bytes(lambda c: fit_imax(c, ImaxConfig(n_bins=15, seed=0)), cal)
    assert peak / len(cal) <= 17.0


def test_seeding_peak_does_not_grow_with_the_set():
    # the seeding holds a fixed number of SKETCH-length arrays, whatever the
    # set's size; one more than that (say, the runs' bounds kept alive while
    # it scores) reads 13 arrays
    peaks = []
    for n in (1 << 16, 1 << 20):
        t = np.sort(np.random.default_rng(0).normal(0.0, 2.0, n))
        peaks.append(_peak_bytes(lambda s: _seed_phis(s, 15, np.random.default_rng(0)), t))
    assert max(peaks) <= 12.5 * SKETCH * 8
    assert abs(peaks[1] - peaks[0]) < 0.01 * peaks[0]


def test_fit_imax_symmetric_mixture_splits_near_zero():
    cal = _mixture(n=100_000, seed=0)
    b = fit_imax(cal, ImaxConfig(n_bins=2, seed=0))
    assert abs(b.edges[0]) < 0.05


def test_fit_imax_separates_well_spread_distinct_values():
    vals = np.repeat(np.array([-3.0, -1.0, 0.5, 2.0]), 50)
    rng = np.random.default_rng(1)
    y = (rng.random(vals.size) < expit(vals)).astype(np.int64)
    b = fit_imax(BinaryCalibrationSet(vals, y), ImaxConfig(n_bins=4, seed=0))
    np.testing.assert_array_equal(
        quantize(b, np.array([-3.0, -1.0, 0.5, 2.0])), [0, 1, 2, 3]
    )


def test_fit_imax_rejections():
    small = BinaryCalibrationSet(np.array([0.0, 1.0]), np.array([0, 1]))
    with pytest.raises(FitError, match="need at least 3 samples, got 2"):
        fit_imax(small, ImaxConfig(n_bins=3))
    flat = BinaryCalibrationSet(np.zeros(50), np.r_[np.ones(25), np.zeros(25)].astype(np.int64))
    with pytest.raises(FitError):
        fit_imax(flat, ImaxConfig(n_bins=2))
    coarse = BinaryCalibrationSet(
        np.repeat([0.0, 1.0], 25), np.tile([0, 1], 25).astype(np.int64)
    )
    with pytest.raises(FitError):
        fit_imax(coarse, ImaxConfig(n_bins=3))
    spread = BinaryCalibrationSet(np.linspace(-5.0, 5.0, 50), np.tile([0, 1], 25))
    # every sigmoid(1e300 * logit) is 0 or 1, so there are too few distinct levels
    with pytest.raises(FitError, match="distinct values of sigmoid"):
        fit_imax(spread, ImaxConfig(n_bins=3, scale=1e300))
    with pytest.raises(FitError, match="not finite"):
        fit_imax(spread, ImaxConfig(n_bins=3, scale=1e308))
    # a non-finite setting that got past ImaxConfig still ends in a FitError
    for field, value in (("bias", math.nan), ("scale", math.inf)):
        cfg = ImaxConfig(n_bins=3)
        setattr(cfg, field, value)
        with pytest.raises(FitError):
            fit_imax(spread, cfg)
    # above SKETCH samples a value too rare to be a run's middle sample is no
    # seeding point: 2^18 logits at 0 leave 3 distinct points for 8 bins
    rare = np.concatenate([np.linspace(-6.0, -1.0, 8), np.zeros(1 << 18), np.linspace(1.0, 6.0, 8)])
    sketched = BinaryCalibrationSet(rare, np.arange(rare.size) % 2)
    with pytest.raises(FitError, match="fewer than 8 distinct values .* cannot seed bins"):
        fit_imax(sketched, ImaxConfig(n_bins=8))
    t = np.full(20, np.nan)
    with pytest.raises(FitError, match="cannot seed"):
        _seed_phis(t, 3, np.random.default_rng(0))


def test_fit_imax_warns_on_single_label():
    cal = BinaryCalibrationSet(np.linspace(-1, 1, 40), np.ones(40, dtype=np.int64))
    with pytest.warns(UserWarning):
        fit_imax(cal, ImaxConfig(n_bins=2, seed=0))


def test_imax_config_validation():
    with pytest.raises(DataError):
        ImaxConfig(n_bins=1)
    with pytest.raises(DataError):
        ImaxConfig(scale=0.0)
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(DataError):
            ImaxConfig(scale=value)
        with pytest.raises(DataError):
            ImaxConfig(bias=value)


@pytest.mark.parametrize("seed", [-1, 1.5, "1"])
def test_imax_config_rejects_a_seed_numpy_cannot_take(seed):
    with pytest.raises(DataError, match="seed must be a non-negative integer"):
        ImaxConfig(seed=seed)


# --- representatives ----------------------------------------------------

def test_empirical_freq_is_the_in_bin_positive_rate():
    lam = np.array([-2.0, -1.5, 1.5, 2.0, 2.5, 3.0])
    y = np.array([0, 1, 1, 1, 1, 0])
    b = binner_from_edges(np.array([0.0]), METHOD_EQ_SIZE)
    b = set_representatives(b, BinaryCalibrationSet(lam, y))
    np.testing.assert_allclose(b.reps, [0.5, 0.75], atol=1e-15)


def test_clamp_pins_pure_bins_just_inside():
    lam = np.array([-2.0, 2.0])
    y = np.array([0, 1])
    b = binner_from_edges(np.array([0.0]), METHOD_EQ_SIZE)
    clamped = set_representatives(b, BinaryCalibrationSet(lam, y))
    assert 0.0 < clamped.reps[0] < 1e-11 and 1.0 - 1e-11 < clamped.reps[1] < 1.0
    raw = set_representatives(b, BinaryCalibrationSet(lam, y), clamp=False)
    np.testing.assert_array_equal(raw.reps, [0.0, 1.0])


def test_raw_prob_mean_strategy():
    lam = np.array([-1.0, -0.5, 0.5, 1.0])
    y = np.array([0, 0, 1, 1])
    b = binner_from_edges(np.array([0.0]), METHOD_EQ_SIZE)
    b = set_representatives(b, BinaryCalibrationSet(lam, y), strategy=REP_RAW_PROB_MEAN)
    np.testing.assert_allclose(
        b.reps, [expit([-1.0, -0.5]).mean(), expit([0.5, 1.0]).mean()], atol=1e-15
    )


def test_scaled_prob_mean_needs_weights():
    cal = _mixture(n=200, seed=8)
    b = binner_from_edges(np.array([0.0]), METHOD_EQ_SIZE)
    with pytest.raises(DataError, match="scaled_prob_mean needs weights"):
        set_representatives(b, cal, strategy=REP_SCALED_PROB_MEAN)
    ident = Scaler(kind=KIND_TEMPERATURE, temperature=1.0)
    weights = prob_of_logit(apply_scaler(ident, cal.logits))
    scaled = set_representatives(b, cal, strategy=REP_SCALED_PROB_MEAN, weights=weights)
    plain = set_representatives(b, cal, strategy=REP_RAW_PROB_MEAN)
    np.testing.assert_array_equal(scaled.reps, plain.reps)


@pytest.mark.parametrize(
    "strategy,weights,message",
    [
        (REP_SCALED_PROB_MEAN, np.full(199, 0.5), r"weights shape \(199,\) does not match 200"),
        (REP_SCALED_PROB_MEAN, np.full((200, 1), 0.5), "does not match 200 samples"),
        (REP_SCALED_PROB_MEAN, np.full(200, 1.5), r"weights outside \[0, 1\]"),
        (REP_SCALED_PROB_MEAN, ["x"] * 200, "weights must be numbers"),
        (REP_RAW_PROB_MEAN, np.full(200, 0.5), "weights apply only to scaled_prob_mean"),
        (REP_EMPIRICAL_FREQ, np.full(200, 0.5), "weights apply only to scaled_prob_mean"),
    ],
)
def test_weights_are_one_probability_per_sample_for_scaled_prob_mean(strategy, weights, message):
    cal = _mixture(n=200, seed=8)
    b = binner_from_edges(np.array([0.0]), METHOD_EQ_SIZE)
    with pytest.raises(DataError, match=message):
        set_representatives(b, cal, strategy=strategy, weights=weights)


def test_unknown_strategy_is_rejected():
    cal = _mixture(n=200, seed=9)
    b = binner_from_edges(np.array([0.0]), METHOD_EQ_SIZE)
    with pytest.raises(DataError):
        set_representatives(b, cal, strategy="mode")


def test_empty_outer_bins_keep_their_representative():
    cal = BinaryCalibrationSet(
        np.array([0.0, 0.1, -0.1, 0.05]), np.array([1, 1, 0, 0])
    )
    b = Binner(edges=np.array([-1.0, 1.0]), reps=np.array([0.1, 0.3, 0.9]), method=METHOD_IMAX)
    np.testing.assert_array_equal(set_representatives(b, cal).reps, [0.1, 0.5, 0.9])


def test_empty_interior_bins_fall_back_to_the_midpoint():
    cal = BinaryCalibrationSet(np.array([-5.0, 0.0, 5.0]), np.array([0, 1, 1]))
    b = Binner(
        edges=np.array([-3.0, -1.0, 1.0, 3.0]), reps=np.full(5, 0.5), method=METHOD_IMAX
    )
    reps = set_representatives(b, cal).reps
    assert reps[1] == pytest.approx(expit(-2.0), abs=1e-15)
    assert reps[3] == pytest.approx(expit(2.0), abs=1e-15)


# --- counts on the sorted copy -------------------------------------------

# values and edges share these points, so many values sit exactly on an edge
_GRID = (-3.0, -1.0, 0.0, 0.5, 2.0)


@st.composite
def _binned_sets(draw):
    value = st.sampled_from(_GRID) | st.floats(-10.0, 10.0)
    logits = draw(st.lists(value, min_size=1, max_size=60))
    labels = draw(st.sampled_from(["mixed", "all 0", "all 1"]))
    if labels == "mixed":
        targets = draw(st.lists(st.integers(0, 1), min_size=len(logits), max_size=len(logits)))
    else:
        targets = [int(labels == "all 1")] * len(logits)
    # edges reach past the values on both sides
    edge = st.sampled_from(_GRID) | st.floats(-20.0, 20.0)
    edges = sorted(set(draw(st.lists(edge, min_size=1, max_size=8))))
    return BinaryCalibrationSet(np.array(logits), np.array(targets)), np.array(edges)


@given(_binned_sets())
@settings(max_examples=200)
def test_bin_counts_equals_the_bin_sums_pass(case):
    cal, edges = case
    counts, positives = bin_counts(edges, cal)
    want_counts, want_positives = bin_sums(edges, cal.logits, cal.targets.astype(np.float64))
    assert counts.dtype.kind == positives.dtype.kind == "i"
    np.testing.assert_array_equal(counts, want_counts)
    np.testing.assert_array_equal(positives, want_positives)


def _bin_sums_reps(binner, cal, clamp):
    """set_representatives' empirical_freq as one bin_sums pass over the
    unsorted set, the way it was computed before bin_counts."""
    counts, mass = bin_sums(binner.edges, cal.logits, cal.targets.astype(np.float64))
    occupied = counts > 0
    reps = np.where(occupied, mass / np.where(occupied, counts, 1.0), np.nan)
    if not np.all(occupied):
        fallback = binner.reps.copy()
        if binner.n_bins > 2:
            fallback[1:-1] = prob_of_logit((binner.edges[:-1] + binner.edges[1:]) / 2.0)
        reps = np.where(occupied, reps, fallback)
    return np.clip(reps, PROB_EPS, 1.0 - PROB_EPS) if clamp else reps


def _bin_sums_mi(edges, cal):
    """mi_of_quantizer as one bin_sums pass over the unsorted set."""
    counts, n_pos = bin_sums(edges, cal.logits, cal.targets.astype(np.float64))
    return mi_from_joint(np.column_stack([counts - n_pos, n_pos]))


@pytest.mark.parametrize("m", [2, 5, 15])
def test_counts_on_the_sorted_copy_match_the_bin_sums_pass_bit_for_bit(m):
    rng = np.random.default_rng(m)
    # + 0.0 turns the -0.0 that rounding leaves into 0.0: which of two equal
    # zeros a quantile picks depends on the sort, and no log-odds is -0.0
    tied = BinaryCalibrationSet(
        np.round(rng.normal(0.0, 2.0, 5000), 1) + 0.0, rng.integers(0, 2, 5000)
    )
    for cal in (_mixture(n=5000, seed=m), tied):
        quantile_edges = np.quantile(cal.logits, np.arange(1, m) / m)
        if np.all(np.diff(quantile_edges) > 0):
            assert fit_eq_mass(cal, m).tobytes() == quantile_edges.tobytes()
        # the wide edges leave the outer bins empty
        for edges in (fit_eq_size(m), 9.0 * fit_eq_size(m), fit_imax(cal, ImaxConfig(m)).edges):
            binner = binner_from_edges(edges, METHOD_EQ_SIZE)
            for clamp in (True, False):
                got = set_representatives(binner, cal, clamp=clamp).reps
                assert got.tobytes() == _bin_sums_reps(binner, cal, clamp).tobytes()
            assert mi_of_quantizer(binner, cal).hex() == _bin_sums_mi(edges, cal).hex()


def test_fit_edges_dispatch():
    cal = _mixture(n=500, seed=10)
    for method in (METHOD_EQ_SIZE, METHOD_EQ_MASS, METHOD_IMAX):
        b = fit_edges(cal, method, ImaxConfig(n_bins=4, seed=0))
        assert b.method == method
        assert b.n_bins == 4
        # a fitted binner's representatives are the sigmoids of its phi
        # levels: the fitted ones for imax, midpoint proxies for the rest
        phis = b.diagnostics.phis if method == METHOD_IMAX else _midpoint_phis(b.edges, 1.0, 0.0)
        assert b.reps.tobytes() == prob_of_logit(phis).tobytes()
    with pytest.raises(DataError):
        fit_edges(cal, "kmeans", ImaxConfig(n_bins=4))
