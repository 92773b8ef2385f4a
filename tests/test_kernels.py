"""The prefix-sum alternation kernel and the cell-local seeding, each
against its direct O(N)-per-step reference, and the one-softmax decomposition
against the per-class one."""

import numpy as np
import pytest
from scipy.special import expit

from imaxcal import kernels
from imaxcal.binning import (
    MAX_ITERATIONS,
    SEED_CHUNK,
    TOLERANCE,
    ImaxConfig,
    _seed_phis,
    _sigmoid_entropy,
    _voronoi_cell,
    _xlogx,
    fit_imax,
)
from imaxcal.bundle import resolve_grouping
from imaxcal.data import (
    PROBABILITIES,
    BinaryCalibrationSet,
    PredictionMatrix,
    logit_of_prob,
    merge_sets,
    ovr_decompose,
    ovr_set,
    prob_of_logit,
    xlogy,
)
from imaxcal.synth import (
    BinaryMixtureSpec,
    MulticlassSynthSpec,
    gen_binary_mixture,
    gen_multiclass,
)


def _alternate_oracle(lam, sig_pos, sig_neg, phis0, scale, bias, tol, max_iter):
    """The alternation with per-bin sums from a bincount pass over all N
    samples in every iteration; returns what kernels.alternate returns."""
    phis = np.array(phis0, dtype=np.float64, copy=True)
    n = lam.shape[0]
    m = phis.shape[0]
    loss = []
    edges = None
    empty_events = 0
    for _ in range(max_iter):
        new_edges = kernels.edges_from_phis(phis, scale, bias)
        movement = np.inf if edges is None else float(np.max(np.abs(new_edges - edges)))
        edges = new_edges
        bin_idx = np.searchsorted(edges, lam, side="right")
        counts = np.bincount(bin_idx, minlength=m).astype(np.float64)
        sum_pos = np.bincount(bin_idx, weights=sig_pos, minlength=m)
        sum_neg = np.bincount(bin_idx, weights=sig_neg, minlength=m)
        occupied = counts > 0.0
        empty_events += int(m - np.count_nonzero(occupied))
        phis = np.where(
            occupied,
            np.log(np.where(occupied, sum_pos, 1.0))
            - np.log(np.where(occupied, sum_neg, 1.0)),
            phis,
        )
        sp_pos = np.logaddexp(0.0, phis)
        sp_neg = np.logaddexp(0.0, -phis)
        loss.append(float(np.dot(sum_pos, sp_neg) + np.dot(sum_neg, sp_pos)) / n)
        if movement < tol:
            break
    return edges, phis, np.array(loss), movement, len(loss), empty_events


def _binary_entropy(p):
    return -(xlogy(p, p) + xlogy(1.0 - p, 1.0 - p))


def _jsd_to(p, h, q, hq):
    """Jensen-Shannon divergence rows between Bernoulli(q[i]) and every
    Bernoulli(p[j]); JSD(p, q) = H((p+q)/2) - (H(p)+H(q))/2, nats."""
    mid = (p[None, :] + q[:, None]) / 2.0
    out = _binary_entropy(mid) - (h[None, :] + hq[:, None]) / 2.0
    return np.maximum(out, 0.0)


def _seed_oracle(t_sorted, n_bins, rng):
    """k-means++ seeding that evaluates every candidate against all samples."""
    p = expit(t_sorted)
    h = _binary_entropy(p)
    n = t_sorted.shape[0]
    n_trials = 2 + int(np.log(n_bins))
    chosen = np.empty(n_bins)
    first = int(rng.integers(n))
    chosen[0] = t_sorted[first]
    dist = _jsd_to(p, h, p[first : first + 1], h[first : first + 1])[0]
    pot = float(dist.sum())
    for j in range(1, n_bins):
        draws = rng.random(n_trials) * pot
        cand_ids = np.searchsorted(np.cumsum(dist), draws)
        np.clip(cand_ids, None, n - 1, out=cand_ids)
        cand_dist = np.minimum(dist, _jsd_to(p, h, p[cand_ids], h[cand_ids]))
        cand_pot = cand_dist.sum(axis=1)
        best = int(np.argmin(cand_pot))
        chosen[j] = t_sorted[cand_ids[best]]
        dist = cand_dist[best]
        pot = float(cand_pot[best])
    return np.sort(chosen)


def _ovr_decompose_oracle(data, class_k):
    """Class k's one-vs-rest set from its own softmax column."""
    return BinaryCalibrationSet(
        logits=logit_of_prob(data.probabilities()[:, class_k]),
        targets=(data.labels == class_k).astype(np.int8),
        source_classes=frozenset({class_k}),
    )


def _problem(seed, n=500, m=4):
    """(lam, t, phis0): sorted logits, their transform at scale 1 and bias 0
    and initial phi levels. The labels enter the alternation only through
    the sigmoid pseudo-weights of t, so a problem needs none."""
    spec = BinaryMixtureSpec(n=n, seed=seed)
    cal, _ = gen_binary_mixture(spec)
    lam = np.sort(cal.logits)
    phis0 = np.quantile(lam, np.linspace(0.1, 0.9, m))
    return lam, lam, phis0


def _kernel_args(lam, t, phis0):
    """kernels.alternate's leading inputs for a problem."""
    cum_pos, tail_neg = kernels.prefix_sums(t)
    return lam, cum_pos, tail_neg, phis0


def _assert_matches_oracle(problem, scale, bias, tol, max_iter):
    lam, t, phis0 = problem
    got = kernels.alternate(*_kernel_args(*problem), scale, bias, tol, max_iter)
    want = _alternate_oracle(lam, expit(t), expit(-t), phis0, scale, bias, tol, max_iter)
    assert got[4] == want[4]  # n_pairs
    assert got[5] == want[5]  # empty-bin events
    np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
    np.testing.assert_allclose(got[1], want[1], rtol=0, atol=1e-12)
    np.testing.assert_allclose(got[2], want[2], rtol=1e-12, atol=0)
    assert (got[3] < tol) == (want[3] < tol)
    return got


@pytest.mark.parametrize("m", [2, 4, 15])
@pytest.mark.parametrize("seed", range(5))
def test_alternate_matches_the_bincount_oracle(seed, m):
    _assert_matches_oracle(_problem(seed, n=2000, m=m), 1.0, 0.0, 1e-10, 200)


def test_alternate_matches_the_oracle_with_scale_and_bias():
    lam, _, _ = _problem(4, n=1500, m=6)
    t = 1.7 * (lam - 0.4)
    phis0 = np.quantile(t, np.linspace(0.1, 0.9, 6))
    _assert_matches_oracle((lam, t, phis0), 1.7, -0.4, 1e-10, 200)


def test_alternate_matches_the_oracle_with_empty_bins():
    # all mass far to the right of the lower phi levels leaves those bins empty
    lam = np.linspace(5.0, 6.0, 50)
    phis0 = np.array([-8.0, -6.0, 5.2, 5.8])
    got = _assert_matches_oracle((lam, lam, phis0), 1.0, 0.0, 1e-10, 20)
    assert got[5] > 0


def test_a_sample_on_an_edge_goes_right():
    lam, _, phis0 = _problem(1, n=300, m=3)
    edges = kernels.edges_from_phis(phis0, 1.0, 0.0)
    # put samples exactly on the first-pair edges, keeping lam sorted
    on_edge = np.sort(np.concatenate([lam, edges, edges]))
    args = (on_edge, on_edge, phis0)
    one = _assert_matches_oracle(args, 1.0, 0.0, 1e-10, 1)
    np.testing.assert_array_equal(one[0], edges)
    _assert_matches_oracle(args, 1.0, 0.0, 1e-10, 200)


def test_edges_scale_and_bias_transform():
    # the transformed-domain edge is fixed; scale divides it, bias shifts it
    phis = np.array([-1.0, 0.2, 2.3])
    base = kernels.edges_from_phis(phis, 1.0, 0.0)
    moved = kernels.edges_from_phis(phis, 2.0, 0.3)
    np.testing.assert_allclose(moved, base / 2.0 - 0.3, atol=1e-14)


def test_alternate_rejects_unsorted_phis():
    lam, cum_pos, tail_neg, _ = _kernel_args(*_problem(0))
    with pytest.raises(ValueError):
        kernels.alternate(lam, cum_pos, tail_neg, np.array([0.5, 0.5, 1.0]), 1.0, 0.0, 1e-10, 10)


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_weighted_loss_trace_never_increases(seed):
    args = _kernel_args(*_problem(seed, n=800, m=6))
    _, _, loss, _, n_pairs, _ = kernels.alternate(*args, 1.0, 0.0, 1e-10, 200)
    assert n_pairs == loss.size
    assert np.all(np.diff(loss) <= 1e-12 + 1e-10 * np.abs(loss[:-1]))


def test_stops_well_before_the_iteration_cap():
    args = _kernel_args(*_problem(2, n=2000, m=4))
    _, _, _, movement, n_pairs, _ = kernels.alternate(*args, 1.0, 0.0, 1e-10, 200)
    assert n_pairs < 200
    assert movement < 1e-10


def test_final_movement_reports_a_fit_stopped_at_the_cap():
    args = _kernel_args(*_problem(2, n=2000, m=4))
    _, _, _, movement, n_pairs, _ = kernels.alternate(*args, 1.0, 0.0, 1e-10, 3)
    assert n_pairs == 3
    assert 1e-10 <= movement < np.inf
    _, _, _, movement, _, _ = kernels.alternate(*args, 1.0, 0.0, 1e-10, 1)
    assert movement == np.inf


def test_empty_bin_keeps_its_phi():
    # all mass far to the right of the lower phi levels leaves those bins empty
    lam = np.linspace(5.0, 6.0, 50)
    phis0 = np.array([-8.0, -6.0, 5.5])
    _, phis, _, _, _, empties = kernels.alternate(
        *_kernel_args(lam, lam, phis0), 1.0, 0.0, 1e-10, 1
    )
    assert empties == 2
    assert phis[0] == -8.0 and phis[1] == -6.0


# --- seeding ---------------------------------------------------------------

@pytest.mark.parametrize("m", [2, 4, 8, 15])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_seeding_picks_what_a_full_evaluation_picks(seed, m):
    data = gen_multiclass(MulticlassSynthSpec(n_classes=6, n=800, t_gen=0.5, seed=seed))
    t = np.sort(ovr_set(data.ovr_logits(), data.labels, range(6)).logits)
    got = _seed_phis(t, m, np.random.default_rng(seed), _sigmoid_entropy(t))
    want = _seed_oracle(t, m, np.random.default_rng(seed))
    np.testing.assert_array_equal(got, want)


def test_seeding_with_tied_logits_matches_the_oracle():
    # clamped probabilities tie many logits at the same value
    rng = np.random.default_rng(5)
    t = np.sort(np.concatenate([np.full(300, -27.6), rng.normal(0.0, 2.0, 700)]))
    for seed in range(3):
        got = _seed_phis(t, 8, np.random.default_rng(seed), _sigmoid_entropy(t))
        want = _seed_oracle(t, 8, np.random.default_rng(seed))
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_seeding_matches_the_oracle_across_chunks(seed):
    # cells run across SEED_CHUNK boundaries and draws go through dozens of
    # DRAW_BLOCK block sums
    rng = np.random.default_rng(seed)
    t = np.sort(rng.normal(0.0, 3.0, 3 * SEED_CHUNK + 4321))
    got = _seed_phis(t, 15, np.random.default_rng(seed), _sigmoid_entropy(t))
    want = _seed_oracle(t, 15, np.random.default_rng(seed))
    np.testing.assert_array_equal(got, want)


def test_seeding_with_saturated_probabilities_matches_the_oracle():
    # sigmoid(t) is exactly 1 above t = 37 and exactly 0 below t = -745
    rng = np.random.default_rng(8)
    t = np.sort(np.concatenate([
        np.full(40, -800.0), rng.uniform(-60.0, -40.0, 200), rng.normal(0.0, 2.0, 500),
        rng.uniform(40.0, 60.0, 200), np.full(40, 50.0),
    ]))
    for seed in range(3):
        got = _seed_phis(t, 8, np.random.default_rng(seed), _sigmoid_entropy(t))
        want = _seed_oracle(t, 8, np.random.default_rng(seed))
        np.testing.assert_array_equal(got, want)


def test_seeding_with_one_sample_per_bin_picks_every_sample():
    t = np.array([-3.0, -1.0, -0.5, 0.25, 2.0, 7.0])
    for seed in range(3):
        got = _seed_phis(t, t.size, np.random.default_rng(seed), _sigmoid_entropy(t))
        np.testing.assert_array_equal(got, t)
        np.testing.assert_array_equal(got, _seed_oracle(t, t.size, np.random.default_rng(seed)))


def test_xlogx_equals_xlogy():
    x = np.concatenate([
        [0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 0.5, 1.0 - 2**-53, 1.0],
        np.random.default_rng(4).random(10_000),
    ])
    got = _xlogx(x, np.empty_like(x))
    want = xlogy(x, x)
    np.testing.assert_array_equal(got, want)
    nonzero = x > 0  # at x == 0 the kernel gives -0.0, equal to xlogy's 0.0
    np.testing.assert_array_equal(got[nonzero].view(np.int64), want[nonzero].view(np.int64))


def test_voronoi_cell_is_exactly_the_samples_a_candidate_takes():
    rng = np.random.default_rng(6)
    t = np.sort(rng.normal(0.0, 3.0, 50_000))
    p = expit(t)
    h = _binary_entropy(p)
    centers = [9_000, 31_000]
    dist = np.min(_jsd_to(p, h, p[centers], h[centers]), axis=0)
    bufs = np.empty((3, SEED_CHUNK))
    segments = [(0, centers[0]), (centers[0] + 1, centers[1]), (centers[1] + 1, t.size)]
    for lo, hi in segments:
        for c in [lo, hi - 1, *rng.integers(lo, hi, 5)]:
            cell = _voronoi_cell(p, h, dist, int(c), lo, hi, bufs)
            taken = _jsd_to(p[lo:hi], h[lo:hi], p[c : c + 1], h[c : c + 1])[0] < dist[lo:hi]
            want = np.flatnonzero(taken) + lo
            assert want.size > 0 and cell == (want[0], want[-1] + 1)
            assert want.size == want[-1] + 1 - want[0]
    for c in centers:
        assert _voronoi_cell(p, h, dist, c, 0, t.size, bufs) == (c, c)


# --- the whole fit -----------------------------------------------------------

@pytest.mark.parametrize("scale,bias", [(1.0, 0.0), (1.7, -0.4)])
def test_fit_imax_matches_the_oracles(scale, bias):
    # the fit sorts without a permutation, seeds cell by cell and sums bins
    # by prefix sums; the oracles evaluate every sample in every step
    data = gen_multiclass(MulticlassSynthSpec(n_classes=6, n=800, t_gen=0.5, seed=2))
    cal = ovr_set(data.ovr_logits(), data.labels, range(6))
    got = fit_imax(cal, ImaxConfig(n_bins=8, seed=5, scale=scale, bias=bias))

    lam = np.sort(cal.logits)
    t = scale * (lam + bias)
    phis0 = _seed_oracle(t, 8, np.random.default_rng(5))
    edges, phis, loss, _, n_pairs, empties = _alternate_oracle(
        lam, expit(t), expit(-t), phis0, scale, bias, TOLERANCE, MAX_ITERATIONS
    )
    assert got.iterations == n_pairs
    assert got.diagnostics.empty_bin_events == empties
    np.testing.assert_allclose(got.edges, edges, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.phis, phis, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.diagnostics.loss, loss, rtol=1e-12, atol=0)


def test_prefix_sums_accumulate_each_sigmoid_from_its_tiny_end():
    t = np.sort(np.random.default_rng(3).normal(0.0, 8.0, 1001))
    cum_pos, tail_neg = kernels.prefix_sums(t)
    zero = np.zeros(1)
    want_pos = np.concatenate([zero, np.cumsum(prob_of_logit(t))])
    want_neg = np.concatenate([np.cumsum(prob_of_logit(-t)[::-1])[::-1], zero])
    np.testing.assert_array_equal(cum_pos, want_pos)
    np.testing.assert_array_equal(tail_neg, want_neg)


# --- decomposition -----------------------------------------------------------

@pytest.mark.parametrize("kind", ["logits", "probs"])
@pytest.mark.parametrize("strategy,groups", [("cw", None), ("scw", None), ("scw", 3)])
def test_one_softmax_decomposition_is_bit_identical(kind, strategy, groups):
    data = gen_multiclass(MulticlassSynthSpec(n_classes=7, n=600, t_gen=0.5, seed=3))
    if kind == "probs":
        data = PredictionMatrix(data.probabilities(), data.labels, PROBABILITIES)
    lam = data.ovr_logits()
    for g in resolve_grouping(data, strategy, groups).groups:
        got = ovr_set(lam, data.labels, g)
        want = merge_sets([_ovr_decompose_oracle(data, k) for k in g])
        np.testing.assert_array_equal(got.logits, want.logits)
        np.testing.assert_array_equal(got.targets, want.targets)
        assert got.targets.dtype == want.targets.dtype
        assert got.source_classes == want.source_classes
    for k in range(data.n_classes):
        np.testing.assert_array_equal(
            ovr_decompose(data, k).logits, _ovr_decompose_oracle(data, k).logits
        )
