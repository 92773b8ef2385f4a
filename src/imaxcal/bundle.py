"""Persistable multi-class calibrator: grouping plus per-group calibrators.

A bundle records how the K classes were grouped and, per group, either a
Binner (discrete calibrator) or a Scaler (parametric one). Applying a
bundle maps each class's one-vs-rest logit through its group's calibrator
and never renormalizes the resulting rows.

The JSON format is strict: version "1", unknown fields rejected, floats
serialized with shortest round-trip formatting so a refit with the same
seed is byte-identical.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .binning import (
    METHOD_EQ_MASS,
    METHOD_EQ_SIZE,
    METHOD_IMAX,
    REP_EMPIRICAL_FREQ,
    REP_SCALED_PROB_MEAN,
    REP_STRATEGIES,
    Binner,
    ImaxConfig,
    apply_binner,
    fit_binner,
)
from .data import (
    PROBABILITIES,
    RAW_LOGITS,
    ClassGrouping,
    PredictionMatrix,
    check_count,
    check_group_spec,
    group_all,
    group_by_prior,
    group_singletons,
    json_list,
    json_object,
    ovr_logits,
    ovr_set,
    prob_of_logit,
    row_blocks,
)
from .errors import DataError
from .scaling import (
    KIND_PLATT,
    KIND_TEMPERATURE,
    Scaler,
    apply_scaler,
    fit_platt,
    fit_temperature,
)

BUNDLE_VERSION = "1"
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

_BUNDLE_FIELDS = (
    "version",
    "strategy",
    "n_classes",
    "input_kind",
    "grouping",
    "calibrators",
    "provenance",
)
_GROUPING_FIELDS = ("mode", "groups")
_CALIBRATOR_FIELDS = ("classes", "binner", "scaler")


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
    strategy: str
    n_classes: int
    input_kind: str
    grouping: ClassGrouping
    calibrators: list
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        check_strategy(self.strategy)
        self.n_classes = check_count(self.n_classes, "bundle n_classes")
        if not isinstance(self.provenance, dict):
            raise DataError("bundle provenance must be an object")
        if self.input_kind not in (RAW_LOGITS, PROBABILITIES):
            raise DataError(f"unknown input kind {self.input_kind!r}")
        covered = sorted(c for cal in self.calibrators for c in cal.classes)
        if covered != list(range(self.n_classes)):
            raise DataError("calibrators must cover every class exactly once")
        if self.grouping.n_classes != self.n_classes or self.grouping.groups != tuple(
            tuple(sorted(cal.classes)) for cal in self.calibrators
        ):
            raise DataError("grouping must list the calibrators' classes, in order")

    def has_binners(self) -> bool:
        return any(cal.binner is not None for cal in self.calibrators)

    def to_json(self) -> str:
        payload = {
            "version": BUNDLE_VERSION,
            "strategy": self.strategy,
            "n_classes": self.n_classes,
            "input_kind": self.input_kind,
            "grouping": {
                "mode": self.grouping.mode,
                "groups": [list(g) for g in self.grouping.groups],
            },
            "calibrators": [
                {
                    "classes": list(cal.classes),
                    "binner": None if cal.binner is None else cal.binner.to_dict(),
                    "scaler": None if cal.scaler is None else cal.scaler.to_dict(),
                }
                for cal in self.calibrators
            ],
            "provenance": self.provenance,
        }
        return json.dumps(payload, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CalibratorBundle":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"bundle is not valid JSON: {exc}") from exc
        payload = json_object(payload, _BUNDLE_FIELDS, "bundle")
        if payload["version"] != BUNDLE_VERSION:
            raise DataError(
                f"unsupported bundle version {payload['version']!r}"
                f" (expected {BUNDLE_VERSION!r})"
            )
        grouping = ClassGrouping(
            **json_object(payload["grouping"], _GROUPING_FIELDS, "bundle grouping"),
            n_classes=payload["n_classes"],
        )
        calibrators = []
        for cal in json_list(payload["calibrators"], "bundle calibrators"):
            cal = json_object(cal, _CALIBRATOR_FIELDS, "calibrator")
            binner = None if cal["binner"] is None else Binner.from_dict(cal["binner"])
            # applying a binner maps each bin to its representative, and every
            # bundle fit writes them, so one without is malformed
            if binner is not None and binner.reps is None:
                raise DataError("bundle binner has no representatives")
            scaler = None if cal["scaler"] is None else Scaler.from_dict(cal["scaler"])
            calibrators.append(GroupCalibrator(cal["classes"], binner, scaler))
        return cls(
            strategy=payload["strategy"],
            n_classes=payload["n_classes"],
            input_kind=payload["input_kind"],
            grouping=grouping,
            calibrators=calibrators,
            provenance=payload["provenance"],
        )


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
    needs one. groups_spec must pass data.check_group_spec. fit_bundle,
    CalibratorBundle and the CLI's flag checks apply it."""
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
    check_group_spec(groups_spec)
    if strategy != STRATEGY_CW:
        return
    if groups_spec is not None:
        raise DataError("cw strategy fits one calibrator per class; no groups")
    if method == METHOD_TEMPERATURE:
        raise DataError("temperature scaling is fitted on all classes jointly")
    if method == METHOD_PLATT:
        raise DataError("platt scaling is fitted on the merged shared set only")


def resolve_grouping(
    data: PredictionMatrix, strategy: str, groups_spec=None
) -> ClassGrouping:
    """Grouping for the fit: cw means singletons; scw defaults to one group,
    an integer selects prior-quantile blocks, class lists give explicit ones."""
    check_strategy(strategy, groups_spec)
    if strategy == STRATEGY_CW:
        return group_singletons(data.n_classes)
    if groups_spec is None:
        return group_all(data.n_classes)
    if isinstance(groups_spec, (int, np.integer)):
        return group_by_prior(data, groups_spec)
    return ClassGrouping(groups=groups_spec, n_classes=data.n_classes)


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
    check_strategy(strategy, groups_spec, method, scaler_kind, data.kind)
    cfg = config if config is not None else ImaxConfig()
    grouping = resolve_grouping(data, strategy, groups_spec)
    provenance = {"seed": cfg.seed, "method": method}
    scaler = None

    if method == METHOD_TEMPERATURE:
        calibrators = [GroupCalibrator(classes=grouping.groups[0], scaler=fit_temperature(data))]
    else:
        lam = data.ovr_logits()
        binning_method = method
        if method == METHOD_IMAX_WITH_SCALER:
            if scaler_kind == KIND_TEMPERATURE:
                scaler = fit_temperature(data)
            else:
                # a view of the all-class set's values replaces the matrix
                pooled = ovr_set(lam, data.labels, range(data.n_classes))
                lam = pooled.logits.reshape(data.n_classes, -1).T
                scaler = fit_platt(pooled)
                del pooled
            binning_method = METHOD_IMAX
            rep_strategy = REP_SCALED_PROB_MEAN
        # the merged sets hold every log-odds the fits read, so the N x K
        # matrix goes before the first fit and each set once it is fitted
        sets = [ovr_set(lam, data.labels, g) for g in reversed(grouping.groups)]
        del lam
        calibrators = []
        for g in grouping.groups:
            if method == METHOD_PLATT:
                cal = GroupCalibrator(classes=g, scaler=fit_platt(sets.pop()))
            else:
                binner = fit_binner(sets.pop(), binning_method, cfg, rep_strategy, scaler)
                cal = GroupCalibrator(classes=g, binner=binner)
            calibrators.append(cal)
        if method != METHOD_PLATT:
            provenance.update(n_bins=cfg.n_bins, rep_strategy=rep_strategy)

    provenance["n_fit_samples"] = data.n_samples
    if scaler is not None:
        provenance["scaler"] = scaler.to_dict()
    return CalibratorBundle(
        strategy=strategy,
        n_classes=data.n_classes,
        input_kind=data.kind,
        grouping=grouping,
        calibrators=calibrators,
        provenance=provenance,
    )


def apply_bundle(bundle: CalibratorBundle, scores, kind: str) -> np.ndarray:
    """Per-class calibrated probabilities, rows not renormalized: the scores'
    log-odds, each column overwritten with its calibrator's values. Each
    calibrator maps all of its columns at once, in the row blocks of
    data.row_blocks."""
    shape = np.shape(scores)
    if len(shape) == 2 and shape[1] != bundle.n_classes:
        raise DataError(f"bundle was fitted for {bundle.n_classes} classes, scores have {shape[1]}")
    lam = ovr_logits(scores, kind)
    for cal in bundle.calibrators:
        columns = list(cal.classes)
        for rows in row_blocks(len(lam), len(columns)):
            block = (rows, columns)
            if cal.binner is None:
                lam[block] = prob_of_logit(apply_scaler(cal.scaler, lam[block]))
            else:
                lam[block] = apply_binner(cal.binner, lam[block])
    return lam
