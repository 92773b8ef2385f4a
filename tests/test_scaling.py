"""Temperature and Platt scaling, and the scaler-then-bin hybrid."""

import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.special import expit, logsumexp, softmax

from imaxcal import (
    BinaryCalibrationSet,
    DataError,
    FitError,
    ImaxConfig,
    KIND_PLATT,
    KIND_TEMPERATURE,
    PROBABILITIES,
    RAW_LOGITS,
    PredictionMatrix,
    Scaler,
    prob_of_logit,
)
from imaxcal.binning import (
    METHOD_IMAX,
    REP_RAW_PROB_MEAN,
    REP_SCALED_PROB_MEAN,
    fit_edges,
    set_representatives,
)
from imaxcal.scaling import apply_scaler, fit_platt, fit_temperature
from imaxcal.synth import MulticlassSynthSpec, gen_multiclass
from test_bundle import _load_one, _one_calibrator_doc


def _platt_data(n=100_000, seed=42):
    rng = np.random.default_rng(seed)
    lam = rng.normal(0.0, 2.0, size=n)
    y = (rng.random(n) < expit(lam)).astype(np.int64)
    return lam, y


# --- Scaler container ---------------------------------------------------

def test_scaler_validation():
    with pytest.raises(FitError):
        Scaler(kind=KIND_TEMPERATURE, temperature=0.0)
    # the number rule: a NaN or inf parameter is a DataError, as in any holder of a real
    with pytest.raises(DataError, match="scaler temperature must be finite"):
        Scaler(kind=KIND_TEMPERATURE, temperature=np.inf)
    with pytest.raises(DataError, match="scaler b must be finite"):
        Scaler(kind=KIND_PLATT, a=1.0, b=np.nan)
    with pytest.raises(DataError):
        Scaler(kind="beta", temperature=1.0)


def _load_scaler(doc, payload):
    doc["calibrators"][0]["scaler"] = payload
    return _load_one(doc).scaler


def test_scaler_json_round_trip():
    for s in (
        Scaler(kind=KIND_TEMPERATURE, temperature=2.5),
        Scaler(kind=KIND_PLATT, a=1.5, b=-0.25),
    ):
        doc = _one_calibrator_doc(scaler=s)
        assert _load_scaler(doc, doc["calibrators"][0]["scaler"]) == s
    with pytest.raises(DataError, match="unknown temperature scaler fields"):
        _load_scaler(doc, {"kind": KIND_TEMPERATURE, "temperature": 1.0, "junk": 0})
    with pytest.raises(DataError, match="missing temperature scaler fields"):
        _load_scaler(doc, {"kind": KIND_TEMPERATURE})
    for kind in ([1], {"a": 1}, None, "logistic"):
        with pytest.raises(DataError, match="known kind"):
            _load_scaler(doc, {"kind": kind, "temperature": 1.0})
    with pytest.raises(DataError, match="known kind"):
        _load_scaler(doc, [KIND_TEMPERATURE, 1.0])
    with pytest.raises(DataError, match="malformed scaler: temperature must be positive"):
        _load_scaler(doc, {"kind": KIND_TEMPERATURE, "temperature": 0.0})


def test_apply_scaler_formulas():
    lam = np.array([-3.0, 0.0, 3.0])
    t2 = Scaler(kind=KIND_TEMPERATURE, temperature=2.0)
    np.testing.assert_allclose(apply_scaler(t2, lam), lam / 2.0, atol=1e-15)
    pl = Scaler(kind=KIND_PLATT, a=2.0, b=0.5)
    np.testing.assert_allclose(apply_scaler(pl, lam), 2.0 * lam + 0.5, atol=1e-15)
    ident = Scaler(kind=KIND_TEMPERATURE, temperature=1.0)
    np.testing.assert_array_equal(apply_scaler(ident, lam), lam)


# --- temperature --------------------------------------------------------

def test_temperature_recovers_the_generation_scale():
    # generator sharpness t_gen leaves softmax(z / t_gen) miscalibrated by
    # exactly 1 / t_gen, which the fit should find
    for t_gen, target in ((1.0, 1.0), (0.5, 2.0)):
        data = gen_multiclass(MulticlassSynthSpec(n_classes=10, n=20_000, t_gen=t_gen, seed=0))
        s = fit_temperature(data)
        assert s.kind == KIND_TEMPERATURE
        assert abs(s.temperature - target) / target < 0.02


def test_temperature_never_changes_the_argmax():
    data = gen_multiclass(MulticlassSynthSpec(n_classes=7, n=2000, t_gen=0.7, seed=1))
    s = fit_temperature(data)
    scaled = data.scores / s.temperature
    np.testing.assert_array_equal(np.argmax(scaled, axis=1), np.argmax(data.scores, axis=1))


def test_temperature_improves_the_multiclass_nll():
    data = gen_multiclass(MulticlassSynthSpec(n_classes=10, n=10_000, t_gen=0.5, seed=2))
    s = fit_temperature(data)

    def nll_at(temp):
        z = data.scores / temp
        z = z - z.max(axis=1, keepdims=True)
        logq = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        return -logq[np.arange(data.n_samples), data.labels].mean()

    assert nll_at(s.temperature) <= nll_at(1.0)


def _bounded_search_temperature(data):
    """The bounded Brent search plus Newton polish that fit_temperature
    replaced, kept as its reference."""
    scores = data.scores - data.scores.max(axis=1, keepdims=True)
    z_true = scores[np.arange(data.n_samples), data.labels]
    lo, hi = 1e-2, 1e2

    def nll_of_inverse_temp(u):
        return float(np.mean(logsumexp(u * scores, axis=1) - u * z_true))

    res = minimize_scalar(
        nll_of_inverse_temp,
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-8},
    )
    u = float(res.x)

    # Newton polish on the inverse temperature (analytic first two derivatives).
    for _ in range(3):
        p = softmax(u * scores, axis=1)
        s1 = np.sum(p * scores, axis=1)
        s2 = np.sum(p * scores**2, axis=1)
        grad = float(np.mean(s1 - z_true))
        curv = float(np.mean(s2 - s1**2))
        if curv <= 0:
            break
        step = grad / curv
        u_new = min(max(u - step, lo), hi)
        if abs(u_new - u) < 1e-12:
            u = u_new
            break
        u = u_new

    return min(max(1.0 / u, lo), hi)


def test_temperature_matches_the_bounded_search_it_replaced():
    identical = 0
    for k in (2, 3, 10, 100):
        for t_gen in (0.05, 0.3, 0.5, 1.0, 2.0, 5.0, 50.0):
            for seed in range(3):
                data = gen_multiclass(
                    MulticlassSynthSpec(n_classes=k, n=2000, t_gen=t_gen, seed=seed)
                )
                want = _bounded_search_temperature(data)
                got = fit_temperature(data).temperature
                assert abs(got - want) <= 1e-12 * want, (k, t_gen, seed, got, want)
                identical += got == want
    assert identical >= 80


def _slope_at(data, temperature):
    """d/du of the mean NLL of softmax(u * scores) at u = 1 / temperature."""
    p = softmax(data.scores / temperature, axis=1)
    z_true = data.scores[np.arange(data.n_samples), data.labels]
    return float(np.mean(np.sum(p * data.scores, axis=1) - z_true))


def test_temperature_zeroes_the_slope_at_an_interior_optimum():
    for t_gen in (0.3, 2.0):
        data = gen_multiclass(MulticlassSynthSpec(n_classes=10, n=5000, t_gen=t_gen, seed=4))
        t = fit_temperature(data).temperature
        assert 1e-2 < t < 1e2
        assert abs(_slope_at(data, t)) <= 1e-10


def test_temperature_edge_cases_land_on_the_bounds():
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 5, size=300)
    # every top margin is +50 on the true class: the NLL falls all the way
    # to the smallest temperature (the bounded search stopped at 0.0100000002)
    separable = np.zeros((300, 5))
    separable[np.arange(300), labels] = 50.0
    assert fit_temperature(PredictionMatrix(separable, labels, RAW_LOGITS)).temperature == 0.01
    # scores unrelated to the labels: the flattest softmax wins
    noise = rng.normal(size=(300, 5))
    assert fit_temperature(PredictionMatrix(noise, labels, RAW_LOGITS)).temperature == 100.0
    # equal scores: the NLL does not depend on T, and the fit takes the upper bound
    equal = np.ones((300, 5))
    assert fit_temperature(PredictionMatrix(equal, labels, RAW_LOGITS)).temperature == 100.0


def test_temperature_input_requirements():
    probs = PredictionMatrix(
        np.array([[0.7, 0.3], [0.2, 0.8]]), np.array([0, 1]), kind=PROBABILITIES
    )
    with pytest.raises(DataError):
        fit_temperature(probs)
    tiny = gen_multiclass(MulticlassSynthSpec(n_classes=3, n=1, seed=0))
    with pytest.raises(FitError):
        fit_temperature(tiny)


# --- Platt --------------------------------------------------------------

def test_platt_recovers_identity_on_self_consistent_labels():
    lam, y = _platt_data()
    s = fit_platt(BinaryCalibrationSet(lam, y))
    assert s.kind == KIND_PLATT
    assert s.a == pytest.approx(1.0, abs=0.05)
    assert s.b == pytest.approx(0.0, abs=0.05)


def test_platt_flips_sign_with_the_logits():
    lam, y = _platt_data()
    s = fit_platt(BinaryCalibrationSet(lam, y))
    flipped = fit_platt(BinaryCalibrationSet(-lam, y))
    assert flipped.a == pytest.approx(-s.a, abs=1e-6)
    assert flipped.b == pytest.approx(s.b, abs=1e-6)


def test_platt_fit_is_affine_equivariant():
    # refitting on c*lam + d lands exactly on the reparametrized optimum
    lam, y = _platt_data()
    s = fit_platt(BinaryCalibrationSet(lam, y))
    moved = fit_platt(BinaryCalibrationSet(2.0 * lam + 2.0, y))
    assert moved.a == pytest.approx(s.a / 2.0, abs=1e-6)
    assert moved.b == pytest.approx(s.b - s.a, abs=1e-6)


def test_platt_preserves_ranking_when_slope_is_positive():
    lam, y = _platt_data(n=5000, seed=3)
    s = fit_platt(BinaryCalibrationSet(lam, y))
    assert s.a > 0
    order = np.argsort(lam)
    assert np.all(np.diff(apply_scaler(s, lam[order])) > 0)


def _reference_platt(lam, y):
    """The damped Newton of fit_platt, each term a fresh array."""
    targets = y.astype(np.float64)

    def objective(a, b):
        t = a * lam + b
        return float(np.mean(np.logaddexp(0.0, t) - targets * t))

    a, b = 1.0, 0.0
    obj = objective(a, b)
    while True:
        p = 1.0 / (1.0 + np.exp(-(a * lam + b)))
        resid = p - targets
        grad = np.array([np.mean(resid * lam), np.mean(resid)])
        if float(np.linalg.norm(grad)) < 1e-8:
            return a, b
        w = p * (1.0 - p)
        hess = np.array(
            [[np.mean(w * lam * lam), np.mean(w * lam)], [np.mean(w * lam), np.mean(w)]]
        )
        step = np.linalg.solve(hess, grad)
        scale = 1.0
        while (cand := objective(a - scale * step[0], b - scale * step[1])) > obj:
            scale *= 0.5
        a, b, obj = a - scale * step[0], b - scale * step[1], cand


def test_platt_reuses_three_buffers_and_keeps_every_bit():
    lam, y = _platt_data(n=200_000, seed=7)
    cal_set = BinaryCalibrationSet(0.5 * lam - 0.3, y)
    tracemalloc.start()
    try:
        s = fit_platt(cal_set)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # float64 targets and three float64 buffers take 32 bytes per sample
    assert peak <= 40 * lam.size
    assert (s.a, s.b) == _reference_platt(cal_set.logits, y)


def test_platt_rejections():
    with pytest.raises(FitError):
        fit_platt(BinaryCalibrationSet(np.linspace(-1, 1, 30), np.ones(30, dtype=np.int64)))
    with pytest.raises(FitError):
        fit_platt(
            BinaryCalibrationSet(np.zeros(30), np.tile([0, 1], 15).astype(np.int64))
        )


# --- scaler-then-bin ----------------------------------------------------

def _probs(scaler, cal):
    """The scaler's probabilities of the set's logits, the weights a bundle
    hands scaled_prob_mean."""
    return prob_of_logit(apply_scaler(scaler, cal.logits))


def test_identity_scaler_reproduces_raw_prob_means():
    rng = np.random.default_rng(11)
    lam = rng.normal(size=1500)
    y = (rng.random(1500) < expit(lam)).astype(np.int64)
    cal = BinaryCalibrationSet(lam, y)
    cfg = ImaxConfig(n_bins=6, seed=0)
    ident = _probs(Scaler(kind=KIND_TEMPERATURE, temperature=1.0), cal)
    hybrid = set_representatives(fit_edges(cal, METHOD_IMAX, cfg), cal, REP_SCALED_PROB_MEAN, ident)
    plain = set_representatives(fit_edges(cal, METHOD_IMAX, cfg), cal, REP_RAW_PROB_MEAN)
    np.testing.assert_array_equal(hybrid.edges, plain.edges)
    np.testing.assert_array_equal(hybrid.reps, plain.reps)


def test_edges_do_not_depend_on_the_scaler():
    rng = np.random.default_rng(12)
    lam = rng.normal(size=1500)
    y = (rng.random(1500) < expit(lam)).astype(np.int64)
    cal = BinaryCalibrationSet(lam, y)
    cfg = ImaxConfig(n_bins=6, seed=0)
    sharp = set_representatives(
        fit_edges(cal, METHOD_IMAX, cfg), cal, REP_SCALED_PROB_MEAN,
        weights=_probs(Scaler(kind=KIND_TEMPERATURE, temperature=3.0), cal),
    )
    soft = set_representatives(
        fit_edges(cal, METHOD_IMAX, cfg), cal, REP_SCALED_PROB_MEAN,
        weights=_probs(Scaler(kind=KIND_PLATT, a=0.2, b=0.4), cal),
    )
    np.testing.assert_array_equal(sharp.edges, soft.edges)
    assert not np.array_equal(sharp.reps, soft.reps)
