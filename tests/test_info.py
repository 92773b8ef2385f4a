"""KDE density estimation and the label-information upper bound."""

import math

import numpy as np
import pytest

from imaxcal import BinaryCalibrationSet, DataError, info
from imaxcal.binning import (
    ImaxConfig,
    METHOD_EQ_MASS,
    METHOD_EQ_SIZE,
    METHOD_IMAX,
    fit_binner,
)
from imaxcal.info import (
    Kde1D,
    kde_density,
    kde_fit,
    mi_bound_of_set,
    mi_report,
    mi_report_csv,
    mi_upper_bound,
)
from imaxcal.metrics import mi_of_quantizer
from imaxcal.synth import (
    BinaryMixtureSpec,
    PRESETS,
    analytic_mi,
    analytic_sigmoid_model,
    gen_binary_mixture,
)


def _entropy(p):
    return -(p * math.log(p) + (1.0 - p) * math.log(1.0 - p))


# --- density estimation ---------------------------------------------------

def test_scott_bandwidth():
    rng = np.random.default_rng(0)
    x = rng.normal(size=400)
    k = kde_fit(x)
    assert k.bandwidth == np.std(x, ddof=1) * 400 ** -0.2


def test_kde_fit_rejections():
    with pytest.raises(DataError):
        kde_fit(np.array([1.0]))
    with pytest.raises(DataError):
        kde_fit(np.full(10, 2.0))  # zero spread needs an explicit bandwidth
    Kde1D(np.full(10, 2.0), 0.3)
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(DataError):
            Kde1D(np.array([0.0, 1.0]), bad)


def test_kde_density_matches_the_direct_sum():
    rng = np.random.default_rng(0)
    x = rng.normal(size=400)
    k = kde_fit(x)
    q = rng.uniform(-3, 3, size=50)
    naive = np.zeros(50)
    for xi in x:
        naive += np.exp(-0.5 * ((q - xi) / k.bandwidth) ** 2)
    naive /= x.size * k.bandwidth * math.sqrt(2.0 * math.pi)
    np.testing.assert_allclose(kde_density(k, q), naive, atol=1e-12)


def test_kde_density_symmetry_and_positivity():
    k = Kde1D(np.array([-1.0, 1.0]), 0.5)
    assert kde_density(k, np.array([-0.3]))[0] == kde_density(k, np.array([0.3]))[0]
    rng = np.random.default_rng(1)
    vals = kde_density(k, rng.uniform(-30, 30, size=200))
    assert np.all(vals >= 0.0)


def test_kde_mass_is_close_to_one():
    rng = np.random.default_rng(2)
    x = rng.normal(size=500)
    k = kde_fit(x)
    h = k.bandwidth
    grid = np.linspace(x.min() - 5 * h, x.max() + 5 * h, 4096)
    mass = np.trapezoid(kde_density(k, grid), grid)
    assert mass == pytest.approx(1.0, abs=1e-3)


# --- the information bound --------------------------------------------------

def test_identical_densities_carry_no_information():
    rng = np.random.default_rng(3)
    k = kde_fit(rng.normal(size=500))
    assert mi_upper_bound(k, k, 0.3) < 1e-12


def test_far_separated_classes_reach_the_label_entropy():
    rng = np.random.default_rng(1)
    kp = kde_fit(rng.normal(20.0, 1.0, size=2000))
    kn = kde_fit(rng.normal(-20.0, 1.0, size=2000))
    assert mi_upper_bound(kp, kn, 0.5) == pytest.approx(math.log(2.0), abs=1e-4)


def test_bound_never_exceeds_the_prior_entropy():
    rng = np.random.default_rng(1)
    kp = kde_fit(rng.normal(2.0, 1.0, size=3000))
    kn = kde_fit(rng.normal(-6.0, 1.0, size=3000))
    for prior in (0.01, 0.1, 0.5, 0.9):
        assert mi_upper_bound(kp, kn, prior) <= _entropy(prior) + 1e-9


def test_bound_is_swap_symmetric():
    rng = np.random.default_rng(4)
    kp = kde_fit(rng.normal(1.0, 1.0, size=800))
    kn = kde_fit(rng.normal(-0.5, 1.3, size=800))
    a = mi_upper_bound(kp, kn, 0.25)
    b = mi_upper_bound(kn, kp, 0.75)
    assert a == pytest.approx(b, rel=1e-12)


def test_bound_units_and_validation():
    rng = np.random.default_rng(5)
    kp = kde_fit(rng.normal(1.0, 1.0, size=500))
    kn = kde_fit(rng.normal(-1.0, 1.0, size=500))
    with pytest.raises(DataError):
        mi_upper_bound(kp, kn, 0.0)
    with pytest.raises(DataError):
        mi_upper_bound(kp, kn, 1.0)


def test_set_bound_needs_both_labels():
    lone = BinaryCalibrationSet(np.linspace(-1, 1, 20), np.ones(20, dtype=np.int64))
    with pytest.raises(DataError):
        mi_bound_of_set(lone)


def test_set_bound_respects_the_empirical_prior_entropy():
    cal, _ = gen_binary_mixture(
        BinaryMixtureSpec(n=10_000, seed=0, **PRESETS["fig2-imbalanced"])
    )
    p_hat = cal.targets.mean()
    assert mi_bound_of_set(cal) <= _entropy(p_hat) + 1e-9


def test_no_quantizer_beats_the_kde_bound_on_imbalanced_data():
    cal, _ = gen_binary_mixture(
        BinaryMixtureSpec(n=10_000, seed=0, **PRESETS["fig2-imbalanced"])
    )
    bound = mi_bound_of_set(cal)
    for method in (METHOD_IMAX, METHOD_EQ_SIZE, METHOD_EQ_MASS):
        for m in (2, 8, 16):
            mi = mi_of_quantizer(fit_binner(cal, method, ImaxConfig(n_bins=m, seed=0)), cal)
            assert mi <= bound + 5e-4


def test_no_quantizer_beats_the_analytic_information():
    # the closed-form pre-quantization information is the hard ceiling
    spec = BinaryMixtureSpec(n=100_000, seed=0)
    cal, _ = gen_binary_mixture(spec)
    ceiling = analytic_mi(spec)
    for method in (METHOD_IMAX, METHOD_EQ_MASS):
        for m in (2, 16):
            mi = mi_of_quantizer(fit_binner(cal, method, ImaxConfig(n_bins=m, seed=0)), cal)
            assert mi <= ceiling + 5e-4


def test_kde_bound_agrees_with_quadrature_at_scale():
    # one large draw pins the sample estimate against the closed form
    spec = BinaryMixtureSpec(n=1_000_000, seed=3)
    cal, _ = gen_binary_mixture(spec)
    assert mi_bound_of_set(cal) == pytest.approx(analytic_mi(spec), abs=2e-3)


# --- the binned FFT densities against the exact sum ---------------------------

def _exact_bound(monkeypatch, kde_pos, kde_neg, prior):
    """The same quadrature with every density from the exact kde_density."""
    with monkeypatch.context() as m:
        m.setattr(
            info,
            "_density_on_grid",
            lambda kde, lo, hi: kde_density(kde, np.linspace(lo, hi, info._GRID_POINTS)),
        )
        return mi_upper_bound(kde_pos, kde_neg, prior)


@pytest.mark.parametrize("prior", [0.01, 0.5])
@pytest.mark.parametrize("n", [2_000, 20_000])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fft_bound_matches_the_exact_sum(monkeypatch, seed, n, prior):
    rng = np.random.default_rng(seed)
    y = rng.random(n) < prior
    lam = rng.normal(np.where(y, 1.0, -1.0), 1.0)
    for bandwidth in (None, 0.05, 5.0, 50.0):
        kp, kn = (
            kde_fit(s) if bandwidth is None else Kde1D(s, bandwidth) for s in (lam[y], lam[~y])
        )
        fast = mi_upper_bound(kp, kn, prior)
        assert fast == pytest.approx(_exact_bound(monkeypatch, kp, kn, prior), abs=1e-8)


def test_linear_binning_keeps_every_sample():
    rng = np.random.default_rng(7)
    for n in (2, 1_000, 100_000):
        x = np.sort(rng.normal(size=n))
        size = 513
        step = (x[-1] - x[0] + 2.0) / (size - 1)
        weights = info._linear_bins(x, x[0] - 1.0, step, size)
        assert weights.shape == (size,)
        assert np.all(weights >= 0.0)
        assert weights.sum() == pytest.approx(n, rel=1e-12)
        # each sample's mass stays centred on it
        centres = x[0] - 1.0 + step * np.arange(size)
        assert weights @ centres == pytest.approx(x.sum(), abs=1e-9 * n)


def test_a_kernel_wider_than_the_grid_does_not_wrap_around():
    # h = 50 on samples spanning 1: the +/- 39h kernel window is about four
    # times the grid's width, so a circular convolution would fold mass
    # back in at the ends and flatten the density there
    k = Kde1D(np.linspace(-0.5, 0.5, 200), 50.0)
    lo, hi = -0.5 - 250.0, 0.5 + 250.0
    fast = info._density_on_grid(k, lo, hi)
    exact = kde_density(k, np.linspace(lo, hi, info._GRID_POINTS))
    np.testing.assert_allclose(fast, exact, rtol=1e-6)
    assert fast[0] < 0.5 * fast[info._GRID_POINTS // 2]


# --- the comparison report ---------------------------------------------------

def _fig2_report(n=10_000, m=15):
    cal, _ = gen_binary_mixture(
        BinaryMixtureSpec(n=n, seed=0, **PRESETS["fig2-imbalanced"])
    )
    named = [
        (method, fit_binner(cal, method, ImaxConfig(n_bins=m, seed=0)))
        for method in (METHOD_IMAX, METHOD_EQ_SIZE, METHOD_EQ_MASS)
    ]
    return cal, mi_report(cal, named, mi_bound_of_set(cal))


def test_report_rows_are_consistent():
    _, rows = _fig2_report()
    assert [r[0] for r in rows] == [METHOD_IMAX, METHOD_EQ_SIZE, METHOD_EQ_MASS]
    for name, n_bins, mi, bound, ratio in rows:
        assert n_bins == 15
        assert ratio == pytest.approx(mi / bound, rel=1e-12)
        assert mi <= bound + 5e-4
    by_name = {r[0]: r[2] for r in rows}
    assert by_name[METHOD_IMAX] >= by_name[METHOD_EQ_MASS]


def test_imax_mi_never_drops_as_bins_double():
    # doubling the bin budget can only refine the quantizer
    spec = BinaryMixtureSpec(n=10_000, seed=1, **PRESETS["fig2-imbalanced"])
    scale, bias = analytic_sigmoid_model(spec)
    cal, _ = gen_binary_mixture(spec)
    mis = [
        mi_of_quantizer(
            fit_binner(
                cal, METHOD_IMAX, ImaxConfig(n_bins=m, seed=0, scale=scale, bias=bias)
            ),
            cal,
        )
        for m in (2, 4, 8, 16)
    ]
    assert np.all(np.diff(mis) >= -1e-6)


def test_report_on_label_independent_logits():
    rng = np.random.default_rng(6)
    lam = rng.normal(size=4000)
    y = rng.integers(0, 2, size=4000)
    cal = BinaryCalibrationSet(lam, y)
    named = [("imax", fit_binner(cal, METHOD_IMAX, ImaxConfig(n_bins=8, seed=0)))]
    rows = mi_report(cal, named, mi_bound_of_set(cal))
    assert rows[0][2] < 0.01
    assert rows[0][3] < 0.01


def test_report_csv_shape():
    _, rows = _fig2_report(n=3000, m=4)
    text = mi_report_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "name,n_bins,mi_nats,upper_bound_nats,ratio"
    first = lines[1].split(",")
    assert first[0] == METHOD_IMAX
    assert int(first[1]) == 4
    # repr floats survive the round trip
    assert float(first[2]) == rows[0][2]
