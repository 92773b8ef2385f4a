"""Benchmark inputs, generated from a seed by this package's own numpy code.

The families match the closed forms the program's synthetic generators use,
but nothing here imports the program: a change to its generators or to its
CSV writer must not change what the benchmark feeds it.

- multiclass: labels uniform over K classes; every score column is Gaussian
  noise (sd 2) with the true class shifted up by 4, all divided by t_gen, so
  softmax(t_gen * scores) is the exact posterior.
- binary: y ~ Bernoulli(prior), lam | y ~ Normal(+-mu, sigma), written as
  two-column raw logits [0, lam] so class 1's one-vs-rest logit is lam.
"""

import numpy as np

SEPARATION = 4.0
NOISE_SIGMA = 2.0


def multiclass(rng, n, k, t_gen):
    labels = rng.integers(0, k, size=n)
    shift = (NOISE_SIGMA**2 / SEPARATION) * np.log(1.0 / k)
    scores = shift + NOISE_SIGMA * rng.standard_normal((n, k))
    scores[np.arange(n), labels] += SEPARATION
    return scores / t_gen, labels


def binary_mixture(rng, n, prior=0.5, mu=1.0, sigma=1.0):
    labels = (rng.random(n) < prior).astype(np.int64)
    lam = np.where(labels == 1, mu, -mu) + sigma * rng.standard_normal(n)
    return np.column_stack([np.zeros(n), lam]), labels


def mixture_mi_nats(prior=0.5, mu=1.0, sigma=1.0, n_grid=200_001):
    """I(y; lam) of the binary mixture by Simpson quadrature over +-14 sigma."""
    x = np.linspace(-mu - 14.0 * sigma, mu + 14.0 * sigma, n_grid)
    log_norm = -np.log(sigma) - 0.5 * np.log(2.0 * np.pi)
    p1 = np.exp(log_norm - 0.5 * ((x - mu) / sigma) ** 2)
    p0 = np.exp(log_norm - 0.5 * ((x + mu) / sigma) ** 2)
    mix = prior * p1 + (1.0 - prior) * p0
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(p1 > 0, prior * p1 * np.log(p1 / mix), 0.0)
        f += np.where(p0 > 0, (1.0 - prior) * p0 * np.log(p0 / mix), 0.0)
    weights = np.ones(n_grid)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float((x[1] - x[0]) / 3.0 * np.dot(weights, f))


def write_scores(path, scores):
    """Headerless CSV, every float written with repr so it round-trips."""
    with open(path, "w") as fh:
        for row in scores.tolist():
            fh.write(",".join(map(repr, row)))
            fh.write("\n")


def write_labels(path, labels):
    with open(path, "w") as fh:
        fh.write("\n".join(map(str, labels.tolist())))
        fh.write("\n")
