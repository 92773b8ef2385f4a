"""The integer and number rules, data.check_count and data.check_number, the
array finiteness rule, data.check_finite, and the score rule,
data.check_scores.

Every count, seed, class index and real that a caller hands the library is
checked by the type that holds it. A value of the wrong type or range, NaN
and inf included, is an ImaxcalError, never another exception and never a
silent cast; a value that passes is stored as a Python int or float, so the
object serializes. A calibrated matrix passes the score rule before its
[0, 1] check.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from imaxcal import binning as binning_mod, bundle as bundle_mod
from imaxcal.binning import (
    REP_SCALED_PROB_MEAN,
    Binner,
    ImaxConfig,
    binner_from_edges,
    fit_eq_mass,
    fit_eq_size,
    set_representatives,
)
from imaxcal.bundle import CalibratorBundle, GroupCalibrator, fit_bundle, resolve_grouping
from imaxcal.data import (
    RAW_LOGITS,
    BinaryCalibrationSet,
    PredictionMatrix,
    check_count,
    check_finite,
    check_labels,
    check_number,
    check_scores,
    ovr_set,
    softmax,
)
from imaxcal.errors import DataError, FitError, ImaxcalError
from imaxcal.info import mi_bound_of_set
from imaxcal.metrics import (
    EvalConfig,
    RowStats,
    accuracy_topk,
    brier,
    build_report,
    cw_ece,
    eval_bin_edges,
    nll,
    ranked_classes,
    top1_ece,
)
from imaxcal.scaling import Scaler
from imaxcal.synth import (
    BinaryMixtureSpec,
    MulticlassSynthSpec,
    gen_binary_mixture,
    gen_multiclass,
)
from test_bundle import _one_calibrator_doc

# Every kind of value a caller might pass for a count or a real. Counts stay
# small: a count too large for memory fails in numpy, which no type check
# can foresee, so that case is left out of these properties.
VALUES = st.one_of(
    st.booleans(),
    st.integers(-3, 12),
    st.integers(-3, 12).map(float),
    st.floats(-3.0, 12.0),
    st.sampled_from([np.nan, np.inf, -np.inf, 1e300]),
    st.integers(-3, 12).map(np.int64),
    st.integers(0, 12).map(np.uint8),
    st.floats(-3.0, 12.0).map(np.float64),
    st.floats(-3.0, 12.0, width=32).map(np.float32),
    st.text(max_size=3),
    st.none(),
    st.just([2]),
)


def _data(k=4, n=60, seed=0):
    rng = np.random.default_rng(seed)
    return PredictionMatrix(rng.normal(size=(n, k)), np.arange(n) % k)


DATA = _data()
POOLED = ovr_set(DATA.ovr_logits(), DATA.labels, range(DATA.n_classes))
TEMPERATURE_BUNDLE = fit_bundle(DATA, "temperature")
EQ_SIZE_JSON = fit_bundle(DATA, "eq_size", config=ImaxConfig(n_bins=3)).to_json()


def _stored(value, kind):
    return type(value) is kind


def _attempt(call):
    """call()'s result, or None if it raised an ImaxcalError; any other
    exception fails the test."""
    try:
        return call()
    except ImaxcalError:
        return None


# --- the rules themselves ---------------------------------------------------


# integers at and beyond the int64 range, as Python and numpy values
BEYOND_INT64 = st.sampled_from([
    2**63 - 1, 2**63, 10**23, 10**400,
    np.int64(2**63 - 1), np.uint64(2**63), np.uint64(2**64 - 1),
])


@given(st.one_of(VALUES, BEYOND_INT64), st.integers(0, 3))
def test_check_count_returns_a_python_int_or_raises_a_data_error(value, minimum):
    try:
        got = check_count(value, "x", minimum)
    except DataError as exc:
        assert "x must be" in str(exc)
        integral = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
        assert not integral or value < minimum or value >= 2**63
        return
    assert _stored(got, int) and got == value and minimum <= got < 2**63


def test_a_count_beyond_int64_is_a_data_error_before_numpy_sees_it():
    # numpy would raise a bare ValueError sizing an array by it
    with pytest.raises(DataError, match=r"n_bins must be below 2\*\*63"):
        fit_bundle(DATA, "eq_size", config=ImaxConfig(n_bins=10**400))
    assert check_count(np.int64(2**63 - 1), "n") == 2**63 - 1
    with pytest.raises(DataError, match=r"seed must be below 2\*\*63"):
        check_count(np.uint64(2**63), "seed")


def test_an_eq_size_fit_with_more_bins_than_samples_fails_before_it_sizes_an_array(monkeypatch):
    # 2**40 bins would ask numpy for 8 TiB of edges; the sample count stops
    # the fit first, as it does imax and eq_mass
    def no_edges(n_bins):
        raise AssertionError("fit_eq_size ran")

    monkeypatch.setattr(binning_mod, "fit_eq_size", no_edges)
    with pytest.raises(FitError, match="need at least 1099511627776 samples"):
        fit_bundle(DATA, "eq_size", config=ImaxConfig(n_bins=2**40))


def test_a_count_whose_float64_array_numpy_cannot_describe_is_a_data_error():
    # 2**60 float64 values take 2**63 bytes; numpy raised a bare ValueError
    message = r"asks for a float64 array of 2\*\*63 bytes or more"
    for build in (
        lambda: BinaryMixtureSpec(n=2**60),
        lambda: MulticlassSynthSpec(n_classes=2**30, n=2**30),
        lambda: MulticlassSynthSpec(n_classes=2**62),
        lambda: EvalConfig(n_eval_bins=2**60),
    ):
        with pytest.raises(DataError, match=message):
            build()
    assert BinaryMixtureSpec(n=2**60 - 1).n == 2**60 - 1
    assert MulticlassSynthSpec(n_classes=2, n=2**59 - 1).n == 2**59 - 1
    assert EvalConfig(n_eval_bins=2**60 - 1).n_eval_bins == 2**60 - 1


@given(st.one_of(VALUES, st.sampled_from([10**400, -(10**400)])))
def test_check_number_returns_a_python_float_or_raises_a_data_error(value):
    try:
        got = check_number(value, "x")
    except DataError:
        numeric = isinstance(value, (int, float, np.integer, np.floating))
        beyond_float = type(value) is int and abs(value) > 2**1100
        assert not numeric or isinstance(value, bool) or beyond_float or not np.isfinite(value)
        return
    assert _stored(got, float) and np.isfinite(got) and got == value


@pytest.mark.parametrize("value", [True, 2.0, 2.5, "2", None, np.float64(2.0), -1])
def test_a_count_is_never_cast(value):
    with pytest.raises(DataError, match="n must be"):
        check_count(value, "n")


def test_the_messages_name_the_rule():
    with pytest.raises(DataError, match=r"seed must be a non-negative integer, got 2\.5"):
        check_count(2.5, "seed")
    with pytest.raises(DataError, match=r"n_bins must be an integer >= 2, got 1"):
        check_count(1, "n_bins", minimum=2)
    with pytest.raises(DataError, match=r"t_gen must be a number, got '1'"):
        check_number("1", "t_gen")


# --- NaN and inf are never a real ------------------------------------------

# every holder of a real, as a call that hands it the value
_REAL_HOLDERS = {
    "ImaxConfig scale": lambda v: ImaxConfig(scale=v),
    "ImaxConfig bias": lambda v: ImaxConfig(bias=v),
    "EvalConfig threshold": lambda v: EvalConfig(cw_thresholds=(v,)),
    "Scaler temperature": lambda v: Scaler("temperature", temperature=v),
    "Scaler a": lambda v: Scaler("platt", a=v, b=0.0),
    "Scaler b": lambda v: Scaler("platt", a=1.0, b=v),
    "BinaryMixtureSpec prior": lambda v: BinaryMixtureSpec(prior=v),
    "BinaryMixtureSpec mu_pos": lambda v: BinaryMixtureSpec(mu_pos=v),
    "BinaryMixtureSpec sigma_pos": lambda v: BinaryMixtureSpec(sigma_pos=v),
    "BinaryMixtureSpec mu_neg": lambda v: BinaryMixtureSpec(mu_neg=v),
    "BinaryMixtureSpec sigma_neg": lambda v: BinaryMixtureSpec(sigma_neg=v),
    "MulticlassSynthSpec t_gen": lambda v: MulticlassSynthSpec(t_gen=v),
    "MulticlassSynthSpec priors": lambda v: MulticlassSynthSpec(n_classes=3, priors=(v, 0.5, 0.5)),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("holder", sorted(_REAL_HOLDERS))
def test_a_non_finite_real_is_a_data_error_in_every_holder(holder, value):
    # one rule, data.check_number, names it for each holder
    with pytest.raises(DataError, match="must be finite, got"):
        _REAL_HOLDERS[holder](value)


@pytest.mark.parametrize("wide", [1, 0], ids=["positives", "negatives"])
def test_a_spread_that_overflows_leaves_no_bandwidth(wide):
    # the wide label's standard deviation overflows to inf, and so would the
    # FFT kernel's width
    cal = BinaryCalibrationSet([-1e308, 1e308, 0.0, 1.0], [wide, wide, 1 - wide, 1 - wide])
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(DataError, match="KDE bandwidth must be finite, got inf"):
            mi_bound_of_set(cal)


# --- NaN and inf are never in an array ---------------------------------------

_TWO_SAMPLES = BinaryCalibrationSet([-1.0, 1.0], [0, 1])

# each array a caller hands the library, as a call with one value in it
_ARRAY_HOLDERS = {
    "check_finite": lambda v: check_finite(np.array([0.0, v]), "values"),
    "softmax": lambda v: softmax(np.array([[0.0, 1.0], [v, 0.0]])),
    "check_scores": lambda v: check_scores([[0.0, 1.0], [0.0, v]], RAW_LOGITS),
    "check_labels": lambda v: check_labels(np.array([0.0, v]), 2, 2),
    "PredictionMatrix labels": lambda v: PredictionMatrix(np.zeros((2, 2)), [v, 1.0]),
    "BinaryCalibrationSet logits": lambda v: BinaryCalibrationSet([0.0, v], [0, 1]),
    "set_representatives weights": lambda v: set_representatives(
        binner_from_edges([0.0], "eq_size"), _TWO_SAMPLES, REP_SCALED_PROB_MEAN, [0.5, v]
    ),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("holder", sorted(_ARRAY_HOLDERS))
def test_a_non_finite_array_value_is_a_data_error_in_every_holder(holder, value):
    # one rule, data.check_finite, names it for each holder
    with pytest.raises(DataError, match="contain non-finite values"):
        _ARRAY_HOLDERS[holder](value)


def test_check_finite_returns_the_extremes_and_passes_an_empty_array():
    lo, hi = check_finite(np.array([[3.0, -2.0], [0.5, 7.0]]), "x")
    assert (lo, hi) == (-2.0, 7.0)
    assert check_finite(np.empty((0, 3)), "x") == (np.inf, -np.inf)
    with pytest.raises(DataError, match="^x contain non-finite values$"):
        check_finite(np.array([1.0, np.nan, -np.inf]), "x")


def test_check_finite_makes_no_mask():
    # a bool mask would take 1 B per value; the extremes take a constant
    values = np.random.default_rng(0).normal(size=2_000_000)
    values[-1] = np.nan
    tracemalloc.start()
    try:
        check_finite(values[:-1], "values")
        with pytest.raises(DataError, match="non-finite"):
            check_finite(values, "values")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096, peak


# --- the calibrated-matrix rule ---------------------------------------------

# each way into a metric, as a call on a calibrated matrix and its labels
_CALIBRATED_ENTRIES = {
    "RowStats": RowStats,
    "ranked_classes": ranked_classes,
    "accuracy_topk": accuracy_topk,
    "top1_ece": top1_ece,
    "cw_ece": cw_ece,
    "nll": nll,
    "brier": brier,
    "build_report": lambda cal, labels: build_report(cal, labels, EvalConfig()),
}

_BAD_CALIBRATED = {
    "text": ("x", [0, 1]),
    "text matrix": ([["a", "b"], ["c", "d"]], [0, 1]),
    "NaN": ([[np.nan, 1.0], [0.5, 0.5]], [0, 1]),
    "1-D": ([0.5, 0.5], [0, 1]),
    "one column": ([[1.0], [1.0]], [0, 0]),
}


@pytest.mark.parametrize("bad", sorted(_BAD_CALIBRATED))
@pytest.mark.parametrize("entry", sorted(_CALIBRATED_ENTRIES))
def test_a_malformed_calibrated_matrix_is_a_data_error_at_every_entry(entry, bad):
    # text raised numpy's bare ValueError, and one column passed
    with pytest.raises(DataError):
        _CALIBRATED_ENTRIES[entry](*_BAD_CALIBRATED[bad])


def test_check_scores_finds_a_nan_without_a_mask_of_the_matrix():
    # a bool mask of the matrix would take 1 B per entry
    scores = np.random.default_rng(0).normal(size=(5_000, 1_000))
    scores[-1, -1] = np.nan
    tracemalloc.start()
    try:
        check_scores(scores[:-1], RAW_LOGITS)
        with pytest.raises(DataError, match="non-finite"):
            check_scores(scores, RAW_LOGITS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * scores.size, peak


# --- every type that holds a count or a real --------------------------------

def _report(cfg):
    return build_report(np.full((8, 4), 0.25), np.arange(8) % 4, cfg)


# per family: the call that uses a config, and the text it serializes to
_USE = {
    "imax": lambda cfg: fit_bundle(DATA, "eq_size", config=cfg),
    "eval": _report,
    "binary": gen_binary_mixture,
    "multiclass": gen_multiclass,
}
_SERIALIZE = {
    "imax": lambda cfg: _USE["imax"](cfg).to_json(),
    "eval": lambda cfg: json.dumps(_report(cfg).to_dict()),
    "binary": lambda spec: json.dumps(spec.to_dict()),
    "multiclass": lambda spec: json.dumps(spec.to_dict()),
}

_FIELDS = [
    ("imax", ImaxConfig, "n_bins", int),
    ("imax", ImaxConfig, "seed", int),
    ("imax", ImaxConfig, "scale", float),
    ("imax", ImaxConfig, "bias", float),
    ("eval", EvalConfig, "n_eval_bins", int),
    ("eval", EvalConfig, "bootstrap", int),
    ("eval", EvalConfig, "seed", int),
    ("binary", BinaryMixtureSpec, "n", int),
    ("binary", BinaryMixtureSpec, "seed", int),
    ("binary", BinaryMixtureSpec, "prior", float),
    ("binary", BinaryMixtureSpec, "mu_pos", float),
    ("binary", BinaryMixtureSpec, "sigma_pos", float),
    ("binary", BinaryMixtureSpec, "mu_neg", float),
    ("binary", BinaryMixtureSpec, "sigma_neg", float),
    ("multiclass", MulticlassSynthSpec, "n_classes", int),
    ("multiclass", MulticlassSynthSpec, "n", int),
    ("multiclass", MulticlassSynthSpec, "t_gen", float),
    ("multiclass", MulticlassSynthSpec, "seed", int),
]


@pytest.mark.parametrize("family, build, name, kind", _FIELDS)
@settings(max_examples=40)
@given(value=VALUES)
def test_a_config_field_is_checked_stored_and_serializable(family, build, name, kind, value):
    # a synthetic spec draws 50 rows unless n itself is drawn, at most 12
    fields = {"n": 50} if family in ("binary", "multiclass") else {}
    obj = _attempt(lambda: build(**{**fields, name: value}))
    if obj is None:
        return
    assert _stored(getattr(obj, name), kind)
    _attempt(lambda: _USE[family](obj))
    assert _SERIALIZE[family](obj)


@pytest.mark.parametrize("name", ["top_k", "cw_thresholds"])
@settings(max_examples=40)
@given(value=VALUES)
def test_an_eval_config_entry_is_checked_stored_and_serializable(name, value):
    cfg = _attempt(lambda: EvalConfig(**{name: (value,)}))
    if cfg is None:
        return
    entry = getattr(cfg, name)[0]
    assert _stored(entry, int) if name == "top_k" else _stored(entry, float)
    assert _SERIALIZE["eval"](cfg)


@settings(max_examples=60)
@given(value=VALUES)
def test_binners_and_scalers_store_checked_values(value):
    edges = np.array([-1.0, 1.0])
    binner = _attempt(lambda: Binner(edges, np.array([0.1, 0.5, 0.9]), iterations=value))
    if binner is not None:
        assert _stored(binner.iterations, int)
        _one_calibrator_doc(binner=binner)
    for fields in ({"temperature": value}, {"a": value, "b": 0.5}, {"a": 1.0, "b": value}):
        kind = "temperature" if "temperature" in fields else "platt"
        scaler = _attempt(lambda: Scaler(kind, **fields))
        if scaler is not None:
            assert all(_stored(getattr(scaler, f), float) for f in fields)
            _one_calibrator_doc(scaler=scaler)


@settings(max_examples=60)
@given(value=VALUES)
def test_edge_rules_take_only_checked_values(value):
    for fit in (fit_eq_size, lambda m: fit_eq_mass(POOLED, m)):
        edges = _attempt(lambda: fit(value))
        if edges is not None:
            assert len(edges) == value - 1


@settings(max_examples=60)
@given(value=VALUES)
def test_group_counts_and_class_indices_are_checked(value):
    for groups_spec in (value, [[0, 1], [2, value]]):
        fitted = _attempt(lambda: fit_bundle(DATA, "eq_size", groups_spec=groups_spec))
        if fitted is not None:
            for cal in fitted.calibrators:
                assert all(_stored(c, int) for c in cal.classes)
            CalibratorBundle.from_json(fitted.to_json())
    groups = _attempt(lambda: resolve_grouping(DATA, "scw", ((0, 1), (value, 2))))
    if groups is not None:
        assert groups == ((0, 1), (2, 3))
        assert all(_stored(c, int) for g in groups for c in g)
    scaler = Scaler("temperature", temperature=1.0)
    cal = _attempt(lambda: GroupCalibrator(classes=(0, value), scaler=scaler))
    if cal is not None:
        assert all(_stored(c, int) for c in cal.classes)
    lam = DATA.ovr_logits()
    pooled = _attempt(lambda: ovr_set(lam, DATA.labels, (0, value)))
    if pooled is not None:
        # the set holds the log-odds of columns 0 and value, ascending
        np.testing.assert_array_equal(pooled.logits, np.sort(lam[:, [0, int(value)]], axis=None))
    fitted = TEMPERATURE_BUNDLE
    made = _attempt(lambda: CalibratorBundle(value, fitted.input_kind, fitted.calibrators))
    if made is not None:
        assert _stored(made.n_classes, int)
        CalibratorBundle.from_json(made.to_json())


_JSON_VALUES = st.one_of(
    st.booleans(), st.integers(-3, 12), st.floats(-3.0, 12.0), st.text(max_size=3),
    st.none(), st.just([1]), st.just({"a": 1}),
)


@settings(max_examples=60)
@given(
    path=st.sampled_from([
        ("n_classes",), ("input_kind",), ("provenance",),
        ("calibrators", 0, "classes", 1), ("calibrators", 0, "classes"),
        ("calibrators", 0, "binner", "method"), ("calibrators", 0, "binner", "iterations"),
        ("calibrators", 0, "binner", "edges", 0), ("calibrators", 0, "binner", "reps", 1),
    ]),
    value=_JSON_VALUES,
)
def test_a_bundle_loads_only_checked_values(path, value):
    payload = json.loads(EQ_SIZE_JSON)
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    loaded = _attempt(lambda: CalibratorBundle.from_json(json.dumps(payload)))
    if loaded is not None:
        assert _stored(loaded.n_classes, int)
        assert all(_stored(c, int) for cal in loaded.calibrators for c in cal.classes)
        assert loaded.to_json()


# --- the cases that escaped the rules before --------------------------------

_BAD_CALLS = {
    "n_bins float": lambda: fit_bundle(DATA, "imax", config=ImaxConfig(n_bins=2.5)),
    "groups float": lambda: fit_bundle(DATA, "imax", groups_spec=2.5),
    "groups text": lambda: fit_bundle(DATA, "imax", groups_spec="ab"),
    "groups float index": lambda: fit_bundle(DATA, "eq_size", groups_spec=[[0, 1], [2, 3.5]]),
    "bootstrap float": lambda: EvalConfig(bootstrap=1.5),
    "n float multiclass": lambda: MulticlassSynthSpec(n=10.5),
    "n_classes float": lambda: MulticlassSynthSpec(n_classes=3.5),
    "t_gen text": lambda: MulticlassSynthSpec(t_gen="1"),
    "t_gen subnormal": lambda: gen_multiclass(MulticlassSynthSpec(n=5, t_gen=5e-324)),
    # priors were cast by numpy, so a NaN one built and failed in gen_multiclass
    "priors NaN": lambda: MulticlassSynthSpec(n_classes=3, priors=(np.nan, 0.5, 0.5)),
    "priors text": lambda: MulticlassSynthSpec(n_classes=3, priors=("0.2", "0.3", "0.5")),
    "priors no list": lambda: MulticlassSynthSpec(n_classes=3, priors=object()),
    "n float binary": lambda: BinaryMixtureSpec(n=10.5),
    "prior text": lambda: BinaryMixtureSpec(prior="0.5"),
    "scale text": lambda: ImaxConfig(scale="2"),
    "temperature text": lambda: Scaler("temperature", temperature="2"),
    "threshold None": lambda: EvalConfig(cw_thresholds=(None,)),
    "n_eval_bins float": lambda: EvalConfig(n_eval_bins=2.5),
    "top_k float": lambda: EvalConfig(top_k=(2.5,)),
    "eq_size float": lambda: fit_eq_size(2.5),
    "class index float": lambda: GroupCalibrator(
        classes=(0, 1.5), scaler=Scaler("temperature", temperature=1.0)
    ),
    "no thresholds": lambda: EvalConfig(cw_thresholds=()),
    "ovr_set float class": lambda: ovr_set(DATA.ovr_logits(), DATA.labels, (1.7,)),
    "ovr_set class out of range": lambda: ovr_set(DATA.ovr_logits(), DATA.labels, (7,)),
    "eval_bin_edges float": lambda: eval_bin_edges(np.linspace(0.0, 1.0, 5), "eq_size", 2.5),
}


@pytest.mark.parametrize("case", sorted(_BAD_CALLS))
def test_a_malformed_value_is_a_data_error(case):
    with pytest.raises(DataError):
        _BAD_CALLS[case]()


def test_numpy_values_are_stored_as_python_values():
    cfg = ImaxConfig(n_bins=np.int64(5), seed=np.int64(0), scale=np.float32(2.0))
    assert fit_bundle(DATA, "imax", config=cfg).to_json()
    eval_cfg = EvalConfig(n_eval_bins=np.int64(10), bootstrap=np.int64(2), seed=np.int64(3),
                          top_k=(np.int64(2),), cw_thresholds=(np.float64(0.25),))
    json.dumps(build_report(np.full((8, 4), 0.25), np.arange(8) % 4, eval_cfg).to_dict())
    assert MulticlassSynthSpec(n=np.int64(10)).to_dict()["n"] == 10
    binner = Binner(np.array([0.0]), np.array([0.2, 0.8]), iterations=np.int64(1))
    assert _one_calibrator_doc(binner=binner)["calibrators"][0]["binner"]["iterations"] == 1
    fitted = fit_bundle(DATA, "eq_size", groups_spec=np.int64(2))
    assert len(fitted.calibrators) == 2
    explicit = fit_bundle(DATA, "eq_size", groups_spec=np.array([[0, 3], [1, 2]]))
    assert explicit.groups == ((0, 3), (1, 2))
    assert [cal.classes for cal in explicit.calibrators] == [(0, 3), (1, 2)]
    assert fit_bundle(DATA, "eq_size", groups_spec=[range(2), (2, 3)]).to_json()


def test_an_int_real_is_written_as_a_float():
    assert json.dumps(MulticlassSynthSpec(t_gen=1).to_dict()["t_gen"]) == "1.0"
    assert BinaryMixtureSpec(prior=np.float32(0.5), mu_pos=2).to_dict()["mu_pos"] == 2.0


def test_an_explicit_threshold_is_checked_like_a_config_one():
    cal, labels = np.full((8, 4), 0.25), np.arange(8) % 4
    for bad in ("bogus", 1.0, True, "0.5", [0.5]):
        with pytest.raises(DataError):
            cw_ece(cal, labels, threshold=bad)
    assert cw_ece(cal, labels, threshold=0).mean == cw_ece(cal, labels, threshold=0.0).mean


# --- bad names are rejected before any work ---------------------------------


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"strategy": "bogus"}, "unknown strategy"),
        ({"rep_strategy": "bogus"}, "unknown representative strategy"),
        ({"rep_strategy": "scaled_prob_mean"}, "scaled_prob_mean needs the scaler"),
        # a strategy the method would ignore or replace is no longer silent
        ({"method": "platt", "rep_strategy": "raw_prob_mean"}, "does not apply to platt"),
        ({"method": "temperature", "rep_strategy": "raw_prob_mean"}, "to temperature"),
        (
            {"method": "imax_with_scaler", "scaler_kind": "temperature",
             "rep_strategy": "raw_prob_mean"},
            "raw_prob_mean does not apply to imax_with_scaler",
        ),
        (
            {"method": "imax_with_scaler", "scaler_kind": "platt",
             "rep_strategy": "scaled_prob_mean"},
            "scaled_prob_mean does not apply to imax_with_scaler",
        ),
        # the cover rule needs K, and is checked before any fit too
        ({"groups_spec": [(0, 1), (1, 2)]}, "groups overlap"),
        ({"groups_spec": [(0,), (2,)]}, "cover classes 0..3 exactly"),
        ({"groups_spec": [(0, 1), (2, 3, 4)]}, "cover classes 0..3 exactly"),
        ({"groups_spec": 5}, r"n_groups must be in \[1, 4\]"),
    ],
)
def test_an_unknown_strategy_fails_before_any_fit(monkeypatch, kwargs, message):
    def no_fit(*args, **kw):
        raise AssertionError("a fit ran before the check")

    for name in ("fit_edges", "ovr_set", "fit_temperature", "fit_platt"):
        monkeypatch.setattr(bundle_mod, name, no_fit)
    monkeypatch.setattr(PredictionMatrix, "ovr_logits", no_fit)
    with pytest.raises(DataError, match=message):
        fit_bundle(DATA, **{"method": "imax", **kwargs})
