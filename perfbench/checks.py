"""Output checks, computed with this package's own numpy code.

Each check returns a list of problems; an empty list means the output is
correct. The reference bundle application and top-1 ECE restate the
documented contracts (softmax, clamped log-odds, right-closed bin lookup,
exact grouping by confidence value) independently of the program.
"""

import json
import math

import numpy as np

PROB_EPS = 1e-12
# Share of calibrated entries allowed to land in a neighbouring bin when a
# logit sits within rounding of an edge.
APPLY_MISMATCH_TOL = 1e-4
# Absolute tolerance for top-1 ECE and accuracy against the reference.
REPORT_TOL = 1e-4
# |KDE bound - closed-form MI| allowed for the binary mixture, in nats. The
# Scott-rule bandwidth oversmooths, so the bound sits a few 1e-3 below.
MI_BOUND_TOL = 0.02
MI_REPORT_ROWS = 12


def reference_apply(bundle, scores):
    """Calibrated matrix of a one-group binning bundle, rows not renormalized."""
    shifted = scores - scores.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    q = np.clip(ex / ex.sum(axis=1, keepdims=True), PROB_EPS, 1.0 - PROB_EPS)
    lam = np.log(q) - np.log1p(-q)
    binner = bundle["calibrators"][0]["binner"]
    edges = np.asarray(binner["edges"], dtype=np.float64)
    reps = np.asarray(binner["reps"], dtype=np.float64)
    return reps[np.searchsorted(edges, lam, side="right")]


def reference_top1(calibrated, labels):
    """(top-1 accuracy, top-1 ECE with exact grouping); ties go to the lower class."""
    top = calibrated.argmax(axis=1)
    conf = calibrated[np.arange(len(top)), top]
    correct = (top == labels).astype(np.float64)
    _, inverse = np.unique(conf, return_inverse=True)
    gap = np.bincount(inverse, weights=correct) - np.bincount(inverse, weights=conf)
    return float(correct.mean()), float(np.abs(gap).sum() / len(top))


def check_bundle(text, n_classes, n_bins):
    """Parse a shared-fit bundle; returns (bundle or None, problems)."""
    try:
        bundle = json.loads(text)
        calibrators = bundle["calibrators"]
        binner = calibrators[0]["binner"]
        edges = np.asarray(binner["edges"], dtype=np.float64)
        reps = np.asarray(binner["reps"], dtype=np.float64)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return None, [f"bundle unreadable: {exc!r}"]
    problems = []
    if bundle.get("n_classes") != n_classes or len(calibrators) != 1:
        problems.append("bundle is not one shared calibrator over every class")
    if reps.shape != (n_bins,) or edges.shape != (n_bins - 1,):
        problems.append(f"bundle has {reps.size} bins, expected {n_bins}")
    if not (np.all(np.isfinite(edges)) and np.all(np.diff(edges) > 0)):
        problems.append("bundle edges are not finite and increasing")
    if not (np.all(np.isfinite(reps)) and reps.min() >= 0.0 and reps.max() <= 1.0):
        problems.append("bundle representatives are not in [0, 1]")
    return (None if problems else bundle), problems


def check_calibrated(path, bundle, scores):
    try:
        calibrated = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except (OSError, ValueError) as exc:
        return [f"calibrated CSV unreadable: {exc!r}"]
    if calibrated.shape != scores.shape:
        return [f"calibrated CSV has shape {calibrated.shape}, expected {scores.shape}"]
    if not np.all(np.isfinite(calibrated)):
        return ["calibrated CSV holds non-finite values"]
    if calibrated.min() < 0.0 or calibrated.max() > 1.0:
        return ["calibrated CSV holds values outside [0, 1]"]
    if bundle is not None:
        mismatch = float(np.mean(calibrated != reference_apply(bundle, scores)))
        if mismatch > APPLY_MISMATCH_TOL:
            return [f"{mismatch:.2e} of calibrated entries differ from the bundle's bins"]
    return []


def _finite_numbers(node):
    if isinstance(node, dict):
        return all(_finite_numbers(v) for v in node.values())
    if isinstance(node, list):
        return all(_finite_numbers(v) for v in node)
    if isinstance(node, float):
        return math.isfinite(node)
    return True


def check_report(path, bundle, scores, labels):
    """Returns (top1_ece or None, problems)."""
    try:
        with open(path) as fh:
            report = json.load(fh)
        ece = float(report["top1_ece"])
        acc = float(report["accuracy"]["top1"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return None, [f"eval report unreadable: {exc!r}"]
    if not _finite_numbers(report):
        return None, ["eval report holds non-finite numbers"]
    if bundle is None:
        return ece, []
    ref_acc, ref_ece = reference_top1(reference_apply(bundle, scores), labels)
    problems = []
    if abs(ece - ref_ece) > REPORT_TOL:
        problems.append(f"top1_ece {ece!r} differs from reference {ref_ece!r}")
    if abs(acc - ref_acc) > REPORT_TOL:
        problems.append(f"top-1 accuracy {acc!r} differs from reference {ref_acc!r}")
    return ece, problems


def check_mi_report(path, closed_form_mi):
    """Returns (KDE bound or None, problems)."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        values = np.array([[float(v) for v in row[2:5]] for row in rows])
    except (OSError, ValueError) as exc:
        return None, [f"mi-report unreadable: {exc!r}"]
    if values.shape != (MI_REPORT_ROWS, 3) or not np.all(np.isfinite(values)):
        return None, [f"mi-report has not {MI_REPORT_ROWS} finite rows"]
    bound = float(values[0, 1])
    if np.any(values[:, 1] != bound):
        return None, ["mi-report rows disagree on the KDE bound"]
    if abs(bound - closed_form_mi) > MI_BOUND_TOL:
        return bound, [f"KDE bound {bound!r} is not within {MI_BOUND_TOL} of {closed_form_mi!r}"]
    return bound, []
