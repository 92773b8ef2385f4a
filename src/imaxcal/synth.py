"""Synthetic data with known ground truth.

Two generators: a binary Gaussian logit mixture whose posterior and mutual
information are available in closed form / by quadrature, and a multiclass
score generator whose softmax outputs are exactly calibrated at t_gen = 1
and systematically over- or under-confident otherwise.

All randomness flows from a single seed through the counter-based Philox
generator, split into named streams with SeedSequence.spawn: stream 0 draws
labels, stream k+1 draws class k's noise column (the binary mixture uses
stream 1 for its logit noise).
"""

from dataclasses import asdict, dataclass

import numpy as np

from .data import (
    RAW_LOGITS, BinaryCalibrationSet, PredictionMatrix, check_count, check_number, prob_of_logit
)
from .errors import DataError
from .info import mi_of_densities


def _streams(seed, count):
    root = np.random.SeedSequence(seed)
    return [np.random.Generator(np.random.Philox(child)) for child in root.spawn(count)]


@dataclass
class BinaryMixtureSpec:
    """y ~ Bernoulli(prior); lam | y ~ Normal(mu_y, sigma_y)."""

    prior: float = 0.5
    mu_pos: float = 1.0
    sigma_pos: float = 1.0
    mu_neg: float = -1.0
    sigma_neg: float = 1.0
    n: int = 10_000
    seed: int = 0

    def __post_init__(self):
        for name in ("prior", "mu_pos", "sigma_pos", "mu_neg", "sigma_neg"):
            setattr(self, name, check_number(getattr(self, name), name))
        if not 0.0 < self.prior < 1.0:
            raise DataError("prior must lie strictly inside (0, 1)")
        if self.sigma_pos <= 0 or self.sigma_neg <= 0:
            raise DataError("mixture sigmas must be positive")
        self.n = check_count(self.n, "n", minimum=1)
        self.seed = check_count(self.seed, "seed")

    def to_dict(self) -> dict:
        return {"family": "binary_mixture", **asdict(self)}


# The heavily imbalanced two-Gaussian preset used across the test suite:
# 1 positive per 99 negatives, well-separated conditionals.
FIG2_IMBALANCED = dict(prior=0.01, mu_pos=2.0, sigma_pos=1.0, mu_neg=-6.0, sigma_neg=1.0)

PRESETS = {"fig2-imbalanced": FIG2_IMBALANCED}


def _log_normal_pdf(x, mu, sigma):
    z = (x - mu) / sigma
    return -0.5 * z * z - np.log(sigma) - 0.5 * np.log(2.0 * np.pi)


def analytic_posterior(spec: BinaryMixtureSpec, lam):
    """Exact P(y=1 | lam) for the mixture, computed in log space."""
    lam = np.asarray(lam, dtype=np.float64)
    log_pos = np.log(spec.prior) + _log_normal_pdf(lam, spec.mu_pos, spec.sigma_pos)
    log_neg = np.log1p(-spec.prior) + _log_normal_pdf(lam, spec.mu_neg, spec.sigma_neg)
    return prob_of_logit(log_pos - log_neg)


def gen_binary_mixture(spec: BinaryMixtureSpec):
    """Draw the mixture; returns (BinaryCalibrationSet, posterior closure)."""
    labels_rng, noise_rng = _streams(spec.seed, 2)
    targets = (labels_rng.random(spec.n) < spec.prior).astype(np.int8)
    eps = noise_rng.standard_normal(spec.n)
    mu = np.where(targets == 1, spec.mu_pos, spec.mu_neg)
    sigma = np.where(targets == 1, spec.sigma_pos, spec.sigma_neg)
    logits = mu + sigma * eps

    cal_set = BinaryCalibrationSet(logits=logits, targets=targets)
    return cal_set, lambda lam: analytic_posterior(spec, lam)


def analytic_sigmoid_model(spec: BinaryMixtureSpec) -> tuple:
    """Exact (scale, bias) making sigmoid(scale * (lam + bias)) the posterior.

    For equal conditional variances the posterior logit is affine in lam:
    (mu1 - mu0) / s^2 * lam + logit(prior) + (mu0^2 - mu1^2) / (2 s^2).
    Feeding these into the binner config reproduces the adjusted closed-form
    updates for data whose raw logits are not already calibrated. Unequal
    variances make the posterior logit quadratic, so no affine match exists.
    """
    if spec.sigma_pos != spec.sigma_neg:
        raise DataError("affine posterior match needs equal sigmas")
    var = spec.sigma_pos**2
    scale = (spec.mu_pos - spec.mu_neg) / var
    intercept = (
        np.log(spec.prior)
        - np.log1p(-spec.prior)
        + (spec.mu_neg**2 - spec.mu_pos**2) / (2.0 * var)
    )
    return float(scale), float(intercept / scale)


def analytic_mi(spec: BinaryMixtureSpec) -> float:
    """I(y; lam) in nats by quadrature on the true mixture densities."""
    span = 12.0 * max(spec.sigma_pos, spec.sigma_neg)
    lo = min(spec.mu_pos, spec.mu_neg) - span
    hi = max(spec.mu_pos, spec.mu_neg) + span
    grid = np.linspace(lo, hi, 32_769)
    p1 = np.exp(_log_normal_pdf(grid, spec.mu_pos, spec.sigma_pos))
    p0 = np.exp(_log_normal_pdf(grid, spec.mu_neg, spec.sigma_neg))
    return mi_of_densities(grid, p1, p0, spec.prior)


SEPARATION = 4.0
NOISE_SIGMA = 2.0


@dataclass
class MulticlassSynthSpec:
    """Label from priors; scores are prior-shifted Gaussians over t_gen.

    The true class's score mean is SEPARATION above the noise mean and the
    noise std is NOISE_SIGMA, so softmax of the un-tempered scores is the
    exact posterior: t_gen = 1 emits calibrated confidences, t_gen < 1
    overconfident ones, and temperature scaling should recover 1 / t_gen.
    """

    n_classes: int = 10
    n: int = 10_000
    t_gen: float = 1.0
    priors: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        self.n_classes = check_count(self.n_classes, "n_classes", minimum=2)
        self.n = check_count(self.n, "n", minimum=1)
        self.t_gen = check_number(self.t_gen, "t_gen")
        if self.t_gen <= 0:
            raise DataError("t_gen must be positive")
        self.seed = check_count(self.seed, "seed")
        if self.priors is None:
            self.priors = np.full(self.n_classes, 1.0 / self.n_classes)
        else:
            self.priors = np.asarray(self.priors, dtype=np.float64)
            if self.priors.shape != (self.n_classes,):
                raise DataError("priors length must equal n_classes")
            if self.priors.min() <= 0 or abs(self.priors.sum() - 1.0) > 1e-9:
                raise DataError("priors must be positive and sum to 1")

    def to_dict(self) -> dict:
        return {
            "family": "multiclass",
            "n_classes": self.n_classes,
            "n": self.n,
            "t_gen": self.t_gen,
            "priors": [float(p) for p in self.priors],
            "separation": SEPARATION,
            "noise_sigma": NOISE_SIGMA,
            "seed": self.seed,
        }


def gen_multiclass(spec: MulticlassSynthSpec) -> PredictionMatrix:
    """Draw raw-logit scores whose softmax posterior is known exactly."""
    gens = _streams(spec.seed, spec.n_classes + 1)
    labels = gens[0].choice(spec.n_classes, size=spec.n, p=spec.priors)

    shift = (NOISE_SIGMA**2 / SEPARATION) * np.log(spec.priors)
    scores = np.empty((spec.n, spec.n_classes))
    for k in range(spec.n_classes):
        scores[:, k] = shift[k] + NOISE_SIGMA * gens[k + 1].standard_normal(spec.n)
    scores[np.arange(spec.n), labels] += SEPARATION
    with np.errstate(over="ignore"):  # a score beyond the float range is a DataError below
        scores /= spec.t_gen
    return PredictionMatrix(scores=scores, labels=labels, kind=RAW_LOGITS)
