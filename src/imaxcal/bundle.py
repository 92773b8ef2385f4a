"""Persistable multi-class calibrator: one calibrator per group of classes.

A bundle is its calibrators, each a Binner (discrete calibrator) or a
Scaler (parametric one) for one group of classes, and the fit's provenance.
Applying a bundle maps each class's one-vs-rest logit through its group's
calibrator and never renormalizes the resulting rows.

This module is the one reader and writer of the bundle format. The JSON
format is strict: version "3", unknown fields rejected, floats serialized
with shortest round-trip formatting so a refit with the same seed is
byte-identical. Its top level is version, n_classes, input_kind,
calibrators and provenance. Each fact is recorded once: the groups are the
calibrators' classes; the "strategy" and "groups" spec that chose them, and
the seed, are provenance. A binner is written as method, edges, reps and
iterations; a scaler as its kind and then temperature, or a and b. A field
named twice at any level, nesting deeper than json recurses, an integer too
long for int() and the non-JSON constants NaN, Infinity and -Infinity are
each a DataError, as is a provenance that is not finite JSON. Version "1"
and "2" bundles, which kept the strategy and grouping mode at the top
level, are not read: refit them.

A bundle in memory holds the same facts as its JSON, and once each. Its
input_kind is the kind of scores apply_bundle reads. Its provenance is kept
as the JSON value it is written as, so a groups spec reads as lists, as on
disk. Two bundles are equal when their JSON records are, so a bundle loaded
back equals the one written.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .binning import (
    BINNING_METHODS,
    METHOD_EQ_MASS,
    METHOD_EQ_SIZE,
    METHOD_IMAX,
    REP_EMPIRICAL_FREQ,
    REP_RAW_PROB_MEAN,
    REP_SCALED_PROB_MEAN,
    REP_STRATEGIES,
    Binner,
    ImaxConfig,
    apply_binner,
    fit_edges,
    set_representatives,
)
from .data import (
    PROBABILITIES,
    RAW_LOGITS,
    PredictionMatrix,
    check_count,
    check_group_spec,
    check_number,
    ovr_logits,
    ovr_set,
    prob_of_logit,
    row_blocks,
)
from .errors import DataError, FitError
from .scaling import (
    KIND_PLATT,
    KIND_TEMPERATURE,
    SCALER_FIELDS,
    Scaler,
    apply_scaler,
    fit_platt,
    fit_temperature,
)

BUNDLE_VERSION = "3"
STRATEGY_CW = "cw"
STRATEGY_SCW = "scw"

METHOD_TEMPERATURE = "temperature"
METHOD_PLATT = "platt"
METHOD_IMAX_WITH_SCALER = "imax_with_scaler"
FIT_METHODS = (
    METHOD_EQ_SIZE,
    METHOD_EQ_MASS,
    METHOD_IMAX,
    METHOD_TEMPERATURE,
    METHOD_PLATT,
    METHOD_IMAX_WITH_SCALER,
)

_BUNDLE_FIELDS = ("version", "n_classes", "input_kind", "calibrators", "provenance")
_CALIBRATOR_FIELDS = ("classes", "binner", "scaler")
_BINNER_FIELDS = ("method", "edges", "reps", "iterations")


@dataclass
class GroupCalibrator:
    classes: tuple
    binner: Binner | None = None
    scaler: Scaler | None = None

    def __post_init__(self):
        # the rules of one group: class indices, at least one, none twice
        (self.classes,) = check_group_spec((self.classes,))
        if (self.binner is None) == (self.scaler is None):
            raise DataError("group calibrator needs exactly one of binner/scaler")


@dataclass
class CalibratorBundle:
    """Calibrators whose classes cover 0..n_classes-1 once each, and a
    provenance that is any finite JSON object, kept as its JSON value;
    fit_bundle's records the seed, method, strategy and groups spec, then
    the fit's settings."""

    n_classes: int
    input_kind: str
    calibrators: list
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.n_classes = check_count(self.n_classes, "bundle n_classes", minimum=1)
        if not isinstance(self.provenance, dict):
            raise DataError("bundle provenance must be an object")
        self.provenance = _json_value(self.provenance)
        if self.input_kind not in (RAW_LOGITS, PROBABILITIES):
            raise DataError(f"unknown input kind {self.input_kind!r}")
        _cover(self.groups, self.n_classes)

    @property
    def groups(self) -> tuple:
        """Each calibrator's classes, ascending, in calibrator order."""
        return _ascending(cal.classes for cal in self.calibrators)

    def __eq__(self, other):
        """Equal bundles have one record, the same JSON; diagnostics are not bundle facts."""
        return isinstance(other, CalibratorBundle) and self.to_json() == other.to_json()

    def has_binners(self) -> bool:
        return any(cal.binner is not None for cal in self.calibrators)

    def to_json(self) -> str:
        payload = {
            "version": BUNDLE_VERSION,
            "n_classes": self.n_classes,
            "input_kind": self.input_kind,
            "calibrators": [
                {
                    "classes": list(cal.classes),
                    "binner": None if cal.binner is None else _binner_json(cal.binner),
                    "scaler": None if cal.scaler is None else _scaler_json(cal.scaler),
                }
                for cal in self.calibrators
            ],
            # checked again, since the dict may have changed since the build
            "provenance": _json_value(self.provenance),
        }
        return json.dumps(payload, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CalibratorBundle":
        try:
            payload = json.loads(
                text, object_pairs_hook=_unique_fields, parse_constant=_no_constant
            )
        except (ValueError, RecursionError) as exc:
            # ValueError covers a JSONDecodeError, an integer of more digits
            # than int() converts and a NaN or Infinity; json recurses once
            # per level of nesting
            raise DataError(f"bundle is not valid JSON: {exc}") from exc
        # the version first, since an older format has other fields
        if isinstance(payload, dict) and payload.get("version", BUNDLE_VERSION) != BUNDLE_VERSION:
            raise DataError(
                f"unsupported bundle version {payload['version']!r}"
                f" (expected {BUNDLE_VERSION!r})"
            )
        payload = _json_object(payload, _BUNDLE_FIELDS, "bundle")
        calibrators = []
        for cal in _json_list(payload["calibrators"], "bundle calibrators"):
            cal = _json_object(cal, _CALIBRATOR_FIELDS, "calibrator")
            binner = None if cal["binner"] is None else _read_binner(cal["binner"])
            scaler = None if cal["scaler"] is None else _read_scaler(cal["scaler"])
            calibrators.append(GroupCalibrator(cal["classes"], binner, scaler))
        return cls(
            n_classes=payload["n_classes"],
            input_kind=payload["input_kind"],
            calibrators=calibrators,
            provenance=payload["provenance"],
        )


def _json_value(provenance):
    """provenance as the JSON value to_json writes and from_json reads back,
    so tuples become lists and keys strings. A value that is not finite JSON,
    or keys that become one field twice, are a DataError: to_json writes
    only text that from_json reads."""
    try:
        text = json.dumps(provenance, allow_nan=False)
        return json.loads(text, object_pairs_hook=_unique_fields)
    except (TypeError, ValueError, RecursionError, DataError) as exc:
        raise DataError(f"bundle provenance must be finite JSON: {exc}") from exc


def _unique_fields(pairs) -> dict:
    """A JSON object's fields as a dict; a field named twice is a DataError."""
    fields = {}
    for name, value in pairs:
        if name in fields:
            raise DataError(f"bundle repeats the field {name!r}")
        fields[name] = value
    return fields


def _no_constant(name):
    """json's hook for NaN, Infinity and -Infinity, which JSON lacks."""
    raise ValueError(f"{name} is not a JSON value")


def _json_object(value, fields, what):
    """A JSON object with exactly the given fields, returned as it is."""
    if not isinstance(value, dict):
        raise DataError(f"{what} must be a JSON object")
    unknown = set(value) - set(fields)
    if unknown:
        raise DataError(f"unknown {what} fields: {sorted(unknown)}")
    missing = set(fields) - set(value)
    if missing:
        raise DataError(f"missing {what} fields: {sorted(missing)}")
    return value


def _json_list(value, what):
    """A JSON list, returned as it is."""
    if not isinstance(value, list):
        raise DataError(f"{what} must be a list")
    return value


def _malformed(what, build):
    """build(), with a FitError from a model type's own checks made a
    DataError: a value read from a bundle, not a fit, broke the rule."""
    try:
        return build()
    except FitError as exc:
        raise DataError(f"malformed {what}: {exc}") from exc


def _binner_json(binner: Binner) -> dict:
    return {
        "method": binner.method,
        "edges": [float(v) for v in binner.edges],
        "reps": [float(v) for v in binner.reps],
        "iterations": binner.iterations,
    }


def _read_binner(payload) -> Binner:
    payload = _json_object(payload, _BINNER_FIELDS, "binner")

    def numbers(name):
        what = f"binner {name}"
        return [check_number(v, what) for v in _json_list(payload[name], what)]

    return _malformed("binner", lambda: Binner(
        edges=numbers("edges"),
        reps=numbers("reps"),
        method=payload["method"],
        iterations=payload["iterations"],
    ))


def _scaler_json(scaler: Scaler) -> dict:
    return {"kind": scaler.kind, **{f: getattr(scaler, f) for f in SCALER_FIELDS[scaler.kind]}}


def _read_scaler(payload) -> Scaler:
    kind = payload.get("kind") if isinstance(payload, dict) else None
    if kind not in (KIND_TEMPERATURE, KIND_PLATT):
        raise DataError(f"scaler must be a JSON object with a known kind, got {kind!r}")
    _json_object(payload, ("kind", *SCALER_FIELDS[kind]), f"{kind} scaler")
    return _malformed("scaler", lambda: Scaler(**payload))


def _ascending(groups) -> tuple:
    """groups as tuples, each sorted ascending, in the order given."""
    return tuple(tuple(sorted(g)) for g in groups)


def _cover(groups, n_classes):
    """A DataError unless groups hold classes 0..n_classes-1 once each. The
    count is compared first, so n_classes read from a file sizes no list."""
    flat = sorted(c for g in groups for c in g)
    if len(flat) != n_classes or flat != list(range(n_classes)):
        raise DataError(f"groups must cover classes 0..{n_classes - 1} exactly")


def group_by_prior(data: PredictionMatrix, n_groups: int) -> tuple:
    """Cut classes into n_groups contiguous blocks of the empirical-prior order.

    Priors come from the calibration split handed in here. Ties are broken by
    class index so the grouping is deterministic. Each block is ascending.
    """
    k = data.n_classes
    n_groups = check_count(n_groups, "n_groups", minimum=1)
    if n_groups > k:
        raise DataError(f"n_groups must be in [1, {k}], got {n_groups}")
    order = np.lexsort((np.arange(k), data.class_priors())).tolist()
    bounds = [round(i * k / n_groups) for i in range(n_groups + 1)]
    return _ascending(order[bounds[i] : bounds[i + 1]] for i in range(n_groups))


def check_strategy(
    strategy: str,
    groups_spec=None,
    method: str | None = None,
    scaler_kind: str | None = None,
    input_kind: str | None = None,
):
    """A DataError unless strategy, groups_spec, method, scaler_kind and
    input_kind combine: temperature fits one scaler on all classes jointly,
    so it takes no groups and no cw, and it scales raw logits, so it takes
    no probabilities; cw fits one calibrator per class, so it takes no
    groups and no platt; a scaler kind goes with imax_with_scaler, which
    needs one. Returns groups_spec as data.check_group_spec returns it.
    fit_bundle, resolve_grouping and the CLI's flag checks apply it."""
    if strategy not in (STRATEGY_CW, STRATEGY_SCW):
        raise DataError(f"unknown strategy {strategy!r}")
    if method == METHOD_IMAX_WITH_SCALER:
        if scaler_kind not in (KIND_TEMPERATURE, KIND_PLATT):
            raise DataError("imax_with_scaler needs a temperature or platt scaler")
    elif scaler_kind is not None:
        raise DataError(f"a scaler applies to imax_with_scaler only, not to {method}")
    temperature = method == METHOD_TEMPERATURE or scaler_kind == KIND_TEMPERATURE
    if temperature and input_kind == PROBABILITIES:
        raise DataError("temperature scaling needs raw logits, not probabilities")
    if method == METHOD_TEMPERATURE and groups_spec is not None:
        raise DataError("temperature scaling fits one scaler on all classes; no groups")
    groups_spec = check_group_spec(groups_spec)
    if strategy == STRATEGY_CW:
        if groups_spec is not None:
            raise DataError("cw strategy fits one calibrator per class; no groups")
        if method == METHOD_TEMPERATURE:
            raise DataError("temperature scaling is fitted on all classes jointly")
        if method == METHOD_PLATT:
            raise DataError("platt scaling is fitted on the merged shared set only")
    return groups_spec


def resolve_grouping(data: PredictionMatrix, strategy: str, groups_spec=None) -> tuple:
    """The fit's groups, each ascending: cw means singletons; scw defaults
    to one group, an integer selects prior-quantile blocks, and class lists
    give explicit ones, which must cover every class once. A bundle keeps
    these as its calibrators' classes, and strategy and groups_spec in its
    provenance."""
    groups_spec = check_strategy(strategy, groups_spec)
    if strategy == STRATEGY_CW:
        return tuple((c,) for c in range(data.n_classes))
    if groups_spec is None:
        return (tuple(range(data.n_classes)),)
    if isinstance(groups_spec, int):
        return group_by_prior(data, groups_spec)
    groups = _ascending(groups_spec)
    _cover(groups, data.n_classes)
    return groups


def fit_bundle(
    data: PredictionMatrix,
    method: str,
    strategy: str = STRATEGY_SCW,
    groups_spec=None,
    config: ImaxConfig | None = None,
    rep_strategy: str = REP_EMPIRICAL_FREQ,
    scaler_kind: str | None = None,
) -> CalibratorBundle:
    """Fit a complete bundle on a calibration split."""
    if method not in FIT_METHODS:
        raise DataError(f"unknown method {method!r}")
    if rep_strategy not in REP_STRATEGIES:
        raise DataError(f"unknown representative strategy {rep_strategy!r}")
    binned = method in BINNING_METHODS
    if rep_strategy != REP_EMPIRICAL_FREQ and not (binned and rep_strategy == REP_RAW_PROB_MEAN):
        raise DataError(
            f"rep_strategy {rep_strategy} does not apply to {method}: raw_prob_mean needs eq_size,"
            " eq_mass or imax, and scaled_prob_mean needs the scaler that imax_with_scaler fits"
        )
    groups_spec = check_strategy(strategy, groups_spec, method, scaler_kind, data.kind)
    cfg = config if config is not None else ImaxConfig()
    groups = resolve_grouping(data, strategy, groups_spec)
    provenance = {"seed": cfg.seed, "method": method, "strategy": strategy, "groups": groups_spec}
    scaler = None

    if method == METHOD_TEMPERATURE:
        calibrators = [GroupCalibrator(classes=groups[0], scaler=fit_temperature(data))]
    else:
        lam = data.ovr_logits()
        binning_method = method
        if method == METHOD_IMAX_WITH_SCALER:
            binning_method, rep_strategy = METHOD_IMAX, REP_SCALED_PROB_MEAN
            if scaler_kind == KIND_TEMPERATURE:
                scaler = fit_temperature(data)
            else:
                # platt is fitted on the all-class set, which holds every
                # log-odds: the matrix goes while the scaler is fitted and is
                # made again for the groups' sets
                pooled = ovr_set(lam, data.labels, range(data.n_classes))
                del lam
                scaler = fit_platt(pooled)
                del pooled
                lam = data.ovr_logits()
        # the merged sets hold every log-odds the fits read, so the N x K
        # matrix goes before the first fit and each set once it is fitted
        sets = [ovr_set(lam, data.labels, g) for g in reversed(groups)]
        del lam
        calibrators = []
        for g in groups:
            cal_set = sets.pop()
            if method == METHOD_PLATT:
                cal = GroupCalibrator(classes=g, scaler=fit_platt(cal_set))
            else:
                binner = fit_edges(cal_set, binning_method, cfg)
                weights = None
                if scaler is not None:
                    weights = prob_of_logit(apply_scaler(scaler, cal_set.logits))
                binner = set_representatives(binner, cal_set, rep_strategy, weights=weights)
                cal = GroupCalibrator(classes=g, binner=binner)
            calibrators.append(cal)
        if method != METHOD_PLATT:
            provenance.update(n_bins=cfg.n_bins, rep_strategy=rep_strategy)

    provenance["n_fit_samples"] = data.n_samples
    if scaler is not None:
        provenance["scaler"] = _scaler_json(scaler)
    return CalibratorBundle(
        n_classes=data.n_classes,
        input_kind=data.kind,
        calibrators=calibrators,
        provenance=provenance,
    )


def apply_bundle(bundle: CalibratorBundle, scores, kind: str | None = None) -> np.ndarray:
    """Per-class calibrated probabilities, rows not renormalized: the log-odds
    of scores of the bundle's input_kind, each column overwritten with its
    calibrator's values. Each calibrator maps all of its columns at once, in
    the row blocks of data.row_blocks. The bundle is the record of its input
    kind: a kind passed must repeat it, and any other is a DataError."""
    shape = np.shape(scores)
    if len(shape) == 2 and shape[1] != bundle.n_classes:
        raise DataError(f"bundle was fitted for {bundle.n_classes} classes, scores have {shape[1]}")
    if kind is not None and kind != bundle.input_kind:
        raise DataError(f"bundle was fitted on {bundle.input_kind} scores, not {kind}")
    lam = ovr_logits(scores, bundle.input_kind)
    for cal in bundle.calibrators:
        columns = list(cal.classes)
        for rows in row_blocks(len(lam), len(columns)):
            block = (rows, columns)
            if cal.binner is None:
                lam[block] = prob_of_logit(apply_scaler(cal.scaler, lam[block]))
            else:
                lam[block] = apply_binner(cal.binner, lam[block])
    return lam
