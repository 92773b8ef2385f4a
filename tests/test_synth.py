"""Synthetic generators and their closed-form oracles."""

import math

import numpy as np
import pytest
from scipy.special import expit

from imaxcal import DataError, EvalConfig
from imaxcal.data import softmax
from imaxcal.metrics import SCHEME_EQ_SIZE, accuracy_topk, top1_ece
from imaxcal.synth import (
    BinaryMixtureSpec,
    FIG2_IMBALANCED,
    MulticlassSynthSpec,
    PRESETS,
    analytic_mi,
    analytic_posterior,
    analytic_sigmoid_model,
    gen_binary_mixture,
    gen_multiclass,
)


# --- binary mixture ---------------------------------------------------------

def test_binary_generation_is_deterministic():
    spec = BinaryMixtureSpec(n=500, seed=9)
    a, _ = gen_binary_mixture(spec)
    b, _ = gen_binary_mixture(spec)
    np.testing.assert_array_equal(a.logits, b.logits)
    np.testing.assert_array_equal(a.targets, b.targets)
    c, _ = gen_binary_mixture(BinaryMixtureSpec(n=500, seed=10))
    assert not np.array_equal(a.logits, c.logits)


def test_binary_prior_within_sampling_noise():
    spec = BinaryMixtureSpec(n=100_000, seed=0, **FIG2_IMBALANCED)
    cal, _ = gen_binary_mixture(spec)
    p_hat = cal.targets.mean()
    sigma = math.sqrt(0.01 * 0.99 / 100_000)
    assert abs(p_hat - 0.01) < 3.0 * sigma


def test_returned_closure_is_the_analytic_posterior():
    spec = BinaryMixtureSpec(n=200, seed=1)
    cal, posterior = gen_binary_mixture(spec)
    np.testing.assert_allclose(
        posterior(cal.logits), analytic_posterior(spec, cal.logits), atol=1e-15
    )


def test_symmetric_posterior_is_a_sigmoid_in_two_lambda():
    spec = BinaryMixtureSpec()
    lam = np.linspace(-4, 4, 101)
    np.testing.assert_allclose(analytic_posterior(spec, lam), expit(2.0 * lam), atol=1e-12)


def test_sigmoid_model_parameters():
    assert analytic_sigmoid_model(BinaryMixtureSpec()) == (2.0, 0.0)
    scale, bias = analytic_sigmoid_model(BinaryMixtureSpec(**FIG2_IMBALANCED))
    assert scale == pytest.approx(8.0, abs=1e-12)
    assert bias == pytest.approx(1.4256100187331762, abs=1e-12)
    with pytest.raises(DataError):
        analytic_sigmoid_model(BinaryMixtureSpec(sigma_pos=1.0, sigma_neg=2.0))


def test_sigmoid_model_reproduces_the_posterior():
    spec = BinaryMixtureSpec(**FIG2_IMBALANCED)
    scale, bias = analytic_sigmoid_model(spec)
    lam = np.linspace(-12, 6, 301)
    np.testing.assert_allclose(
        expit(scale * (lam + bias)), analytic_posterior(spec, lam), atol=1e-12
    )


def test_analytic_mi_values():
    fig2 = analytic_mi(BinaryMixtureSpec(**FIG2_IMBALANCED))
    assert fig2 == pytest.approx(0.05598522343591946, rel=1e-12)
    # nearly-separable classes saturate the label entropy from below
    h = -(0.01 * math.log(0.01) + 0.99 * math.log(0.99))
    assert fig2 < h
    sym = analytic_mi(BinaryMixtureSpec())
    assert sym == pytest.approx(0.33683082034683165, rel=1e-10)
    assert 0.0 < sym < math.log(2.0)


def test_binary_spec_validation():
    with pytest.raises(DataError):
        BinaryMixtureSpec(prior=0.0)
    with pytest.raises(DataError):
        BinaryMixtureSpec(prior=1.0)
    with pytest.raises(DataError):
        BinaryMixtureSpec(sigma_pos=0.0)
    with pytest.raises(DataError):
        BinaryMixtureSpec(n=0)


@pytest.mark.parametrize("seed", [-1, 1.5, "1"])
@pytest.mark.parametrize("spec", [BinaryMixtureSpec, MulticlassSynthSpec])
def test_synth_specs_reject_a_seed_numpy_cannot_take(spec, seed):
    with pytest.raises(DataError, match="seed must be a non-negative integer"):
        spec(seed=seed)


def test_binary_spec_dict_payload():
    spec = BinaryMixtureSpec(n=100, seed=3, **FIG2_IMBALANCED)
    doc = spec.to_dict()
    assert doc["family"] == "binary_mixture"
    assert doc["prior"] == 0.01
    assert doc["n"] == 100 and doc["seed"] == 3


def test_preset_table():
    assert PRESETS["fig2-imbalanced"] is FIG2_IMBALANCED
    assert FIG2_IMBALANCED == dict(
        prior=0.01, mu_pos=2.0, sigma_pos=1.0, mu_neg=-6.0, sigma_neg=1.0
    )


# --- multiclass generator -----------------------------------------------------

def test_multiclass_generation_is_deterministic():
    spec = MulticlassSynthSpec(n_classes=5, n=300, seed=2)
    a = gen_multiclass(spec)
    b = gen_multiclass(spec)
    np.testing.assert_array_equal(a.scores, b.scores)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_multiclass_label_frequencies():
    data = gen_multiclass(MulticlassSynthSpec(n_classes=2, n=100_000, seed=0))
    p_hat = (data.labels == 0).mean()
    sigma = math.sqrt(0.25 / 100_000)
    assert abs(p_hat - 0.5) < 3.0 * sigma


def test_softmax_of_tempered_scores_is_the_posterior():
    # softmax(t_gen * scores) recovers the generative posterior, so the
    # emitted confidences are calibrated once multiplied back by t_gen
    spec = MulticlassSynthSpec(n_classes=10, n=100_000, t_gen=1.0, seed=0)
    data = gen_multiclass(spec)
    cfg = EvalConfig(eval_scheme=SCHEME_EQ_SIZE, n_eval_bins=100)
    assert top1_ece(softmax(data.scores), data.labels, cfg) < 0.015


def test_sharpened_scores_are_overconfident():
    gaps = []
    for seed in range(3):
        data = gen_multiclass(MulticlassSynthSpec(n_classes=10, n=5000, t_gen=0.5, seed=seed))
        probs = softmax(data.scores)
        conf = probs.max(axis=1).mean()
        acc = accuracy_topk(probs, data.labels, k=1)
        gaps.append(conf - acc)
    assert all(g > 0.05 for g in gaps)


def test_custom_priors_shift_label_frequencies():
    priors = (0.7, 0.2, 0.1)
    data = gen_multiclass(MulticlassSynthSpec(n_classes=3, n=50_000, priors=priors, seed=1))
    freqs = np.bincount(data.labels, minlength=3) / 50_000
    np.testing.assert_allclose(freqs, priors, atol=0.01)


def test_multiclass_spec_validation():
    with pytest.raises(DataError):
        MulticlassSynthSpec(n_classes=1)
    with pytest.raises(DataError):
        MulticlassSynthSpec(t_gen=0.0)
    with pytest.raises(DataError):
        MulticlassSynthSpec(n_classes=3, priors=(0.5, 0.5))
    with pytest.raises(DataError):
        MulticlassSynthSpec(n_classes=2, priors=(1.2, -0.2))


def test_multiclass_spec_dict_payload():
    spec = MulticlassSynthSpec(n_classes=4, n=50, t_gen=0.5, seed=7)
    doc = spec.to_dict()
    assert doc["family"] == "multiclass"
    assert doc["n_classes"] == 4 and doc["t_gen"] == 0.5
    # the generator's fixed shift and noise, in the sidecar's key order
    assert list(doc) == [
        "family", "n_classes", "n", "t_gen", "priors", "separation", "noise_sigma", "seed"
    ]
    assert doc["separation"] == 4.0 and doc["noise_sigma"] == 2.0
