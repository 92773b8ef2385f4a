"""The alternating bin-edge/phi-level loop of the iterative fit.

Domain conventions: logits lam are sorted ascending; t = scale * (lam + bias)
is the transformed logit the sigmoid model operates on; phis live in the t
domain while edges live in the lam domain.

Because lam is sorted, every bin is a contiguous run of samples, so the
per-bin sums the phi update needs are differences of prefix sums built once
before the loop: prefix_sums gives the sigmoid(t) and sigmoid(-t) sums. An
iteration then costs O(M log N) for M bins, instead of a pass over all N
samples. The labels enter only through those sigmoid pseudo-weights, so the
loop keeps no positive counts and no per-sample label array.
"""

import numpy as np

from .data import prob_of_logit


def _softplus(x):
    return np.logaddexp(0.0, x)


def edges_from_phis(phis, scale, bias):
    """Closed-form loss-indifference edges between adjacent phi levels.

    For each adjacent pair the returned edge is the logit where assigning a
    sample to either bin incurs the same model loss, which is

        g_m = (1/scale) * log( (sp(phi_m) - sp(phi_{m-1}))
                             / (sp(-phi_{m-1}) - sp(-phi_m)) ) - bias

    with sp the softplus. Requires strictly increasing phis.
    """
    phis = np.asarray(phis, dtype=np.float64)
    sp_pos = _softplus(phis)
    sp_neg = _softplus(-phis)
    num = sp_pos[1:] - sp_pos[:-1]
    den = sp_neg[:-1] - sp_neg[1:]
    return (np.log(num) - np.log(den)) / scale - bias


def phis_from_sums(counts, sum_pos, sum_neg, fallback):
    """Closed-form phi update: per-bin log-ratio of the sigmoid sums.

    Empty bins (count 0) take their fallback level instead.
    """
    occupied = counts > 0
    return np.where(
        occupied,
        np.log(np.where(occupied, sum_pos, 1.0)) - np.log(np.where(occupied, sum_neg, 1.0)),
        fallback,
    )


def prefix_sums(t):
    """Prefix sums of sigmoid(t) and suffix sums of sigmoid(-t) over sorted t.

    Returns (cum_pos, tail_neg), each of length N + 1, with
    cum_pos[i] = sum(sigmoid(t[:i])) and tail_neg[i] = sum(sigmoid(-t[i:])).
    sigmoid(t) is tiny at the low end and sigmoid(-t) at the high end, so
    accumulating each from its tiny end keeps small bins from being
    differences of large totals. Each sigmoid is written into its output
    buffer by data.prob_of_logit and summed there, so the values are those
    of cumsum(prob_of_logit(t)) and of the reversed cumsum of
    prob_of_logit(-t), bit for bit, with no further length-N array.
    """
    n = t.shape[0]
    cum_pos = np.empty(n + 1)
    tail_neg = np.empty(n + 1)
    cum_pos[0] = 0.0
    tail_neg[n] = 0.0
    prob_of_logit(t, out=cum_pos[1:])
    sig_neg = np.negative(t, out=tail_neg[:n])
    prob_of_logit(sig_neg, out=sig_neg)
    np.cumsum(cum_pos, out=cum_pos)
    backwards = tail_neg[::-1]
    np.cumsum(backwards, out=backwards)
    return cum_pos, tail_neg


# The argument and result order keeps max_iter at argument 7 and n_pairs,
# empty_events at results 4, 5, where perfbench/tracer.py reads them.
def alternate(lam, cum_pos, tail_neg, phis0, scale, bias, tol, max_iter):
    """Run the alternating edge/phi updates until movement stalls.

    Parameters
    ----------
    lam : float64 (N,), sorted ascending
    cum_pos, tail_neg : prefix_sums(t) for t = scale*(lam+bias)
    phis0 : float64 (M,), strictly increasing initial phi levels
    scale, bias : sigmoid-model transform parameters
    tol : early stop once the largest edge movement drops below this
    max_iter : maximum number of (edge update, phi update) pairs

    Returns
    -------
    (edges, phis, loss, movement, n_pairs, empty_events)
        loss is the sigmoid-model weighted NLL after each completed pair
        (non-increasing by construction), the only loss the loop computes:
        it keeps no positive counts; movement is the largest edge movement
        of the last pair (inf when only one pair ran), so the fit converged
        iff movement < tol; empty_events counts phi updates skipped on empty
        bins.
    """
    lam = np.ascontiguousarray(lam, dtype=np.float64)
    phis = np.array(phis0, dtype=np.float64, copy=True)
    n = lam.shape[0]
    m = phis.shape[0]
    if np.any(np.diff(phis) <= 0.0):
        raise ValueError("initial phis not strictly increasing")

    loss = np.empty(max_iter)
    edges = None
    movement = np.inf
    empty_events = 0
    n_pairs = 0

    for it in range(max_iter):
        new_edges = edges_from_phis(phis, scale, bias)
        movement = np.inf if edges is None else float(np.max(np.abs(new_edges - edges)))
        edges = new_edges

        # Half-open bins [g_m, g_{m+1}); a sample exactly on an edge goes right.
        bounds = np.empty(m + 1, dtype=np.intp)
        bounds[0] = 0
        bounds[1:m] = np.searchsorted(lam, edges, side="left")
        bounds[m] = n
        lo, hi = bounds[:-1], bounds[1:]
        counts = hi - lo
        sum_pos = cum_pos[hi] - cum_pos[lo]
        sum_neg = tail_neg[lo] - tail_neg[hi]

        empty_events += int(m - np.count_nonzero(counts))
        phis = phis_from_sums(counts, sum_pos, sum_neg, phis)
        if np.any(np.diff(phis) <= 0.0):
            raise ValueError("phi levels lost strict monotonicity mid-iteration")

        sp_pos = _softplus(phis)
        sp_neg = _softplus(-phis)
        loss[it] = float(np.dot(sum_pos, sp_neg) + np.dot(sum_neg, sp_pos)) / n
        n_pairs = it + 1
        if movement < tol:
            break

    return edges, phis, loss[:n_pairs].copy(), movement, n_pairs, empty_events
