"""Parametric logit scalers: temperature and Platt.

Scalers act on one-vs-rest logits (lam -> lam / T, lam -> a * lam + b) and
double as the smoothing stage of the hybrid binner, where bin
representatives are means of scaled probabilities instead of raw ones.
Both fits are Newton solves of a convex NLL in numpy: T by a bracketed
Newton search on the slope in 1 / T, (a, b) by damped Newton.
"""

from dataclasses import dataclass

import numpy as np

from .data import (
    RAW_LOGITS,
    BinaryCalibrationSet,
    PredictionMatrix,
    check_number,
    json_object,
    prob_of_logit,
    softmax,
)
from .errors import DataError, FitError

KIND_TEMPERATURE = "temperature"
KIND_PLATT = "platt"

TEMPERATURE_BOUNDS = (1e-2, 1e2)
_TEMPERATURE_MAX_ITER = 100
_PLATT_GRAD_TOL = 1e-8
_PLATT_MAX_ITER = 200


@dataclass
class Scaler:
    """Fitted scaler parameters; kind selects the transform."""

    kind: str
    temperature: float | None = None
    a: float | None = None
    b: float | None = None

    def __post_init__(self):
        if self.kind == KIND_TEMPERATURE:
            self.temperature = check_number(self.temperature, "scaler temperature")
            if not np.isfinite(self.temperature):
                raise FitError("temperature scaler needs a finite temperature")
            if self.temperature <= 0:
                raise FitError("temperature must be positive")
        elif self.kind == KIND_PLATT:
            self.a = check_number(self.a, "scaler a")
            self.b = check_number(self.b, "scaler b")
            if not (np.isfinite(self.a) and np.isfinite(self.b)):
                raise FitError("platt parameters must be finite")
        else:
            raise DataError(f"unknown scaler kind {self.kind!r}")

    def to_dict(self) -> dict:
        if self.kind == KIND_TEMPERATURE:
            return {"kind": self.kind, "temperature": self.temperature}
        return {"kind": self.kind, "a": self.a, "b": self.b}

    @classmethod
    def from_dict(cls, payload: dict) -> "Scaler":
        kind = payload.get("kind") if isinstance(payload, dict) else None
        if kind not in (KIND_TEMPERATURE, KIND_PLATT):
            raise DataError(f"scaler must be a JSON object with a known kind, got {kind!r}")
        names = ("temperature",) if kind == KIND_TEMPERATURE else ("a", "b")
        json_object(payload, ("kind", *names), f"{kind} scaler")
        try:
            return cls(**payload)
        except FitError as exc:
            raise DataError(f"malformed scaler: {exc}") from exc


def apply_scaler(scaler: Scaler, lam):
    """Transform logits: lam / T for temperature, a * lam + b for Platt."""
    lam = np.asarray(lam, dtype=np.float64)
    if scaler.kind == KIND_TEMPERATURE:
        return lam / scaler.temperature
    return scaler.a * lam + scaler.b


def _nll_derivatives(u, scores, z_true):
    """First and second derivative in u of the mean NLL of softmax(u * scores)."""
    p = softmax(u * scores)
    s1 = np.sum(p * scores, axis=1)
    s2 = np.sum(p * scores**2, axis=1)
    return float(np.mean(s1 - z_true)), float(np.mean(s2 - s1**2))


def fit_temperature(data: PredictionMatrix) -> Scaler:
    """Fit T by minimizing the multiclass softmax NLL of scores / T.

    The NLL is convex in the inverse temperature u = 1 / T, so its slope
    increases with u. If the slope keeps one sign over u in [1e-2, 1e2], T is
    that bound's inverse, exactly. Otherwise Newton steps on the slope, which
    bisect the sign-change bracket whenever a step would leave it or fails to
    halve the previous step, run until a step is at most 1e-12 u. Bisection
    keeps the step cap, a FitError, out of reach on valid input.
    """
    if data.kind != RAW_LOGITS:
        raise DataError("temperature scaling needs raw logits, not probabilities")
    if data.n_samples < 2:
        raise FitError("temperature scaling needs at least two samples")
    scores = data.scores - data.scores.max(axis=1, keepdims=True)
    z_true = scores[np.arange(data.n_samples), data.labels]
    lo, hi = TEMPERATURE_BOUNDS
    if _nll_derivatives(lo, scores, z_true)[0] >= 0:
        return Scaler(kind=KIND_TEMPERATURE, temperature=1.0 / lo)
    if _nll_derivatives(hi, scores, z_true)[0] <= 0:
        return Scaler(kind=KIND_TEMPERATURE, temperature=1.0 / hi)

    u, step = 1.0, hi - lo
    for _ in range(_TEMPERATURE_MAX_ITER):
        grad, curv = _nll_derivatives(u, scores, z_true)
        if grad < 0:
            lo = u
        else:
            hi = u
        if curv > 0 and lo <= u - grad / curv <= hi and abs(grad / curv) <= abs(step) / 2:
            step = grad / curv
        else:
            step = u - (lo + hi) / 2
        u -= step
        if abs(step) <= 1e-12 * u:
            return Scaler(kind=KIND_TEMPERATURE, temperature=1.0 / u)
    raise FitError("temperature fit did not converge")


def _platt_objective(a, b, lam, targets, t, loss):
    """Mean binary NLL of sigmoid(a lam + b), formed in the length-N buffers
    t and loss."""
    np.multiply(a, lam, out=t)
    t += b
    np.logaddexp(0.0, t, out=loss)
    np.multiply(targets, t, out=t)
    loss -= t
    return float(np.mean(loss))


def fit_platt(cal_set: BinaryCalibrationSet) -> Scaler:
    """Fit (a, b) by damped Newton on the binary NLL of sigmoid(a lam + b).

    The objective is convex; iteration stops when the gradient 2-norm drops
    below 1e-8. Every per-sample term is formed in one of three buffers of
    the set's length, reused across steps.
    """
    lam = cal_set.logits
    targets = cal_set.targets.astype(np.float64)
    if cal_set.targets.min() == cal_set.targets.max():
        raise FitError("platt scaling needs both labels present")
    if np.ptp(lam) == 0.0:
        raise FitError("degenerate calibration set: all logits identical")
    p, u, v = (np.empty(lam.shape) for _ in range(3))

    a, b = 1.0, 0.0
    obj = _platt_objective(a, b, lam, targets, u, v)
    for _ in range(_PLATT_MAX_ITER):
        np.multiply(a, lam, out=u)
        u += b
        prob_of_logit(u, out=p)
        resid = np.subtract(p, targets, out=v)
        grad = np.array([np.mean(np.multiply(resid, lam, out=u)), np.mean(resid)])
        if float(np.linalg.norm(grad)) < _PLATT_GRAD_TOL:
            break
        w = np.subtract(1.0, p, out=v)
        w *= p
        # w lam lam is (w lam) lam, so it reuses w lam in place
        w_lam = np.multiply(w, lam, out=u)
        mean_w_lam = np.mean(w_lam)
        hess = np.array(
            [
                [np.mean(np.multiply(w_lam, lam, out=u)), mean_w_lam],
                [mean_w_lam, np.mean(w)],
            ]
        )
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError as exc:
            raise FitError("platt Newton step failed: singular Hessian") from exc

        # Halve the step until the (convex) objective stops increasing.
        scale = 1.0
        for _ in range(40):
            cand = _platt_objective(a - scale * step[0], b - scale * step[1], lam, targets, u, v)
            if cand <= obj:
                break
            scale *= 0.5
        else:
            raise FitError("platt line search failed to make progress")
        a -= scale * step[0]
        b -= scale * step[1]
        obj = cand
    else:
        raise FitError("platt Newton did not converge")
    return Scaler(kind=KIND_PLATT, a=a, b=b)

