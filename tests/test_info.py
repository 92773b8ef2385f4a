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
    fit_edges,
)
from imaxcal.info import mi_bound_of_set, mi_of_densities, mi_report, mi_report_csv
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

def kde_density(samples, h, x):
    """Exact mixture-of-Gaussians density of the sorted samples with
    bandwidth h at the query points: the oracle of the FFT densities that
    the bound evaluates.

    Queries are processed in sorted chunks against the sample window within
    +/- 39 bandwidths, where the kernel is representable; outside it the
    kernel underflows to zero, so the windowing loses nothing.
    """
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    out = np.zeros_like(xs)
    norm = 1.0 / (samples.size * h * info._SQRT_2PI)

    chunk = 256
    for start in range(0, xs.size, chunk):
        q = xs[start : start + chunk]
        lo = np.searchsorted(samples, q[0] - info._KERNEL_WINDOW * h, side="left")
        hi = np.searchsorted(samples, q[-1] + info._KERNEL_WINDOW * h, side="right")
        if lo >= hi:
            continue
        window = samples[lo:hi]
        # Keep the (chunk x window) temporaries bounded.
        block = max(1, int(4_000_000 / max(q.size, 1)))
        acc = np.zeros(q.size)
        for wstart in range(0, window.size, block):
            z = (q[:, None] - window[None, wstart : wstart + block]) / h
            acc += np.exp(-0.5 * z * z).sum(axis=1)
        out[start : start + chunk] = acc * norm

    result = np.empty_like(out)
    result[order] = out
    return result


def _set(pos, neg):
    """The calibration set of the positives' and the negatives' logits."""
    return BinaryCalibrationSet(
        np.concatenate([pos, neg]), np.repeat([1, 0], [len(pos), len(neg)])
    )


def test_each_label_gets_scotts_bandwidth_on_one_grid(monkeypatch):
    rng = np.random.default_rng(0)
    pos, neg = rng.normal(1.0, 1.0, size=400), rng.normal(-1.0, 2.0, size=300)
    seen = []

    def record(samples, h, lo, hi):
        seen.append((samples, h, lo, hi))
        return np.ones(info._GRID_POINTS)

    monkeypatch.setattr(info, "_density_on_grid", record)
    mi_bound_of_set(_set(pos, neg))
    scott = [np.std(x, ddof=1) * x.size ** -0.2 for x in (pos, neg)]
    assert [h for _, h, _, _ in seen] == scott
    for (samples, _, _, _), x in zip(seen, (pos, neg)):
        np.testing.assert_array_equal(samples, np.sort(x))
    h = max(scott)
    grids = {(lo, hi) for _, _, lo, hi in seen}
    assert grids == {(min(pos.min(), neg.min()) - 5 * h, max(pos.max(), neg.max()) + 5 * h)}


_X = np.random.default_rng(0).normal(size=10)
_FLAT = np.full(10, 2.0)


# (positives, negatives, message); both labels' counts are checked before
# either spread, so a lone sample wins over a flat class of the other label
@pytest.mark.parametrize(
    "pos, neg, message",
    [
        (_X[:1], _X, "two samples of each label"),
        (_X, _X[:1], "two samples of each label"),
        (_FLAT, _X[:1], "two samples of each label"),
        (_X[:1], _FLAT, "two samples of each label"),
        # zero spread has no Scott bandwidth
        (_FLAT, _X, "two distinct samples"),
        (_X, _FLAT, "two distinct samples"),
    ],
    ids=[
        "one positive",
        "one negative",
        "flat positives and one negative",
        "one positive and flat negatives",
        "flat positives",
        "flat negatives",
    ],
)
def test_set_bound_rejections(pos, neg, message):
    with pytest.raises(DataError, match=message):
        mi_bound_of_set(_set(pos, neg))


def test_kde_density_matches_the_direct_sum():
    rng = np.random.default_rng(0)
    x = rng.normal(size=400)
    h = np.std(x, ddof=1) * 400 ** -0.2
    q = rng.uniform(-3, 3, size=50)
    naive = np.zeros(50)
    for xi in x:
        naive += np.exp(-0.5 * ((q - xi) / h) ** 2)
    naive /= x.size * h * math.sqrt(2.0 * math.pi)
    np.testing.assert_allclose(kde_density(np.sort(x), h, q), naive, atol=1e-12)


def test_kde_density_symmetry_and_positivity():
    samples = np.array([-1.0, 1.0])
    assert kde_density(samples, 0.5, [-0.3])[0] == kde_density(samples, 0.5, [0.3])[0]
    rng = np.random.default_rng(1)
    vals = kde_density(samples, 0.5, rng.uniform(-30, 30, size=200))
    assert np.all(vals >= 0.0)


def test_kde_mass_is_close_to_one():
    rng = np.random.default_rng(2)
    x = np.sort(rng.normal(size=500))
    h = np.std(x, ddof=1) * 500 ** -0.2
    grid = np.linspace(x[0] - 5 * h, x[-1] + 5 * h, 4096)
    mass = np.trapezoid(kde_density(x, h, grid), grid)
    assert mass == pytest.approx(1.0, abs=1e-3)


# --- the information bound --------------------------------------------------

def test_identical_densities_carry_no_information():
    # each logit listed once per label
    x = np.random.default_rng(3).normal(size=500)
    assert mi_bound_of_set(_set(x, x)) < 1e-12


def test_far_separated_classes_reach_the_label_entropy():
    rng = np.random.default_rng(1)
    cal = _set(rng.normal(20.0, 1.0, size=2000), rng.normal(-20.0, 1.0, size=2000))
    assert mi_bound_of_set(cal) == pytest.approx(math.log(2.0), abs=1e-4)


@pytest.mark.parametrize("n_pos, n_neg", [(30, 2970), (300, 2700), (1500, 1500), (2700, 300)])
def test_bound_never_exceeds_the_prior_entropy(n_pos, n_neg):
    rng = np.random.default_rng(1)
    cal = _set(rng.normal(2.0, 1.0, size=n_pos), rng.normal(-6.0, 1.0, size=n_neg))
    assert mi_bound_of_set(cal) <= _entropy(n_pos / (n_pos + n_neg)) + 1e-9


@pytest.mark.parametrize("n_pos, n_neg", [(200, 600), (500, 500)])
def test_flipping_the_targets_leaves_the_bound(n_pos, n_neg):
    rng = np.random.default_rng(4)
    cal = _set(rng.normal(1.0, 1.0, size=n_pos), rng.normal(-0.5, 1.3, size=n_neg))
    flipped = BinaryCalibrationSet(cal.logits, 1 - cal.targets)
    assert mi_bound_of_set(cal) == pytest.approx(mi_bound_of_set(flipped), rel=1e-12)


@pytest.mark.parametrize("label", [0, 1])
def test_set_bound_needs_both_labels(label):
    lone = BinaryCalibrationSet(np.linspace(-1, 1, 20), np.full(20, label, dtype=np.int64))
    with pytest.raises(DataError, match="two samples of each label"):
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
            mi = mi_of_quantizer(fit_edges(cal, method, ImaxConfig(n_bins=m, seed=0)), cal)
            assert mi <= bound + 5e-4


def test_no_quantizer_beats_the_analytic_information():
    # the closed-form pre-quantization information is the hard ceiling
    spec = BinaryMixtureSpec(n=100_000, seed=0)
    cal, _ = gen_binary_mixture(spec)
    ceiling = analytic_mi(spec)
    for method in (METHOD_IMAX, METHOD_EQ_MASS):
        for m in (2, 16):
            mi = mi_of_quantizer(fit_edges(cal, method, ImaxConfig(n_bins=m, seed=0)), cal)
            assert mi <= ceiling + 5e-4


def test_kde_bound_agrees_with_quadrature_at_scale():
    # one large draw pins the sample estimate against the closed form
    spec = BinaryMixtureSpec(n=1_000_000, seed=3)
    cal, _ = gen_binary_mixture(spec)
    assert mi_bound_of_set(cal) == pytest.approx(analytic_mi(spec), abs=2e-3)


# --- the binned FFT densities against the exact sum ---------------------------

def _exact_density(samples, h, lo, hi):
    """_density_on_grid's densities from the exact kde_density."""
    return kde_density(samples, h, np.linspace(lo, hi, info._GRID_POINTS))


@pytest.mark.parametrize("prior", [0.01, 0.5])
@pytest.mark.parametrize("n", [2_000, 20_000])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fft_bound_matches_the_exact_sum(monkeypatch, seed, n, prior):
    rng = np.random.default_rng(seed)
    y = rng.random(n) < prior
    lam = rng.normal(np.where(y, 1.0, -1.0), 1.0)
    # Scott's bandwidths, through the bound itself
    cal = BinaryCalibrationSet(lam, y)
    fast = mi_bound_of_set(cal)
    with monkeypatch.context() as m:
        m.setattr(info, "_density_on_grid", _exact_density)
        assert fast == pytest.approx(mi_bound_of_set(cal), abs=1e-8)
    # fixed bandwidths, on the grid the bound spans for them
    pos, neg = np.sort(lam[y]), np.sort(lam[~y])
    for h in (0.05, 5.0, 50.0):
        lo = min(pos[0], neg[0]) - info._GRID_MARGIN * h
        hi = max(pos[-1], neg[-1]) + info._GRID_MARGIN * h
        grid = np.linspace(lo, hi, info._GRID_POINTS)
        fast, exact = (
            mi_of_densities(grid, density(pos, h, lo, hi), density(neg, h, lo, hi), prior)
            for density in (info._density_on_grid, _exact_density)
        )
        assert fast == pytest.approx(exact, abs=1e-8)


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
    samples = np.linspace(-0.5, 0.5, 200)
    lo, hi = -0.5 - 250.0, 0.5 + 250.0
    fast = info._density_on_grid(samples, 50.0, lo, hi)
    exact = _exact_density(samples, 50.0, lo, hi)
    np.testing.assert_allclose(fast, exact, rtol=1e-6)
    assert fast[0] < 0.5 * fast[info._GRID_POINTS // 2]


# --- the comparison report ---------------------------------------------------

def _fig2_report(n=10_000, m=15):
    cal, _ = gen_binary_mixture(
        BinaryMixtureSpec(n=n, seed=0, **PRESETS["fig2-imbalanced"])
    )
    named = [
        (method, fit_edges(cal, method, ImaxConfig(n_bins=m, seed=0)))
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
            fit_edges(
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
    named = [("imax", fit_edges(cal, METHOD_IMAX, ImaxConfig(n_bins=8, seed=0)))]
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
