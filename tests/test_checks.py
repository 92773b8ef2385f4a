"""The integer and number rules: data.check_count and data.check_number.

Every count, seed, class index and real that a caller hands the library is
checked by the type that holds it. A value of the wrong type or range is an
ImaxcalError, never another exception and never a silent cast; a value that
passes is stored as a Python int or float, so the object serializes.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from imaxcal import bundle as bundle_mod
from imaxcal.binning import (
    Binner,
    ImaxConfig,
    binner_from_edges,
    fit_eq_mass,
    fit_eq_size,
)
from imaxcal.bundle import CalibratorBundle, GroupCalibrator, fit_bundle
from imaxcal.data import ClassGrouping, PredictionMatrix, check_count, check_number, ovr_set
from imaxcal.errors import DataError, ImaxcalError
from imaxcal.info import Kde1D, mi_upper_bound
from imaxcal.metrics import EvalConfig, build_report, cw_ece, eval_bin_edges
from imaxcal.scaling import Scaler
from imaxcal.synth import (
    BinaryMixtureSpec,
    MulticlassSynthSpec,
    gen_binary_mixture,
    gen_multiclass,
)

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


@given(st.one_of(VALUES, st.sampled_from([10**400, -(10**400)])))
def test_check_number_returns_a_python_float_or_raises_a_data_error(value):
    try:
        got = check_number(value, "x")
    except DataError:
        numeric = isinstance(value, (int, float, np.integer, np.floating))
        beyond_float = type(value) is int and abs(value) > 2**1100
        assert not numeric or isinstance(value, bool) or beyond_float
        return
    assert _stored(got, float)
    assert got == value or (np.isnan(got) and np.isnan(value))


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
    binner = _attempt(lambda: binner_from_edges(edges, "eq_size", seed=value))
    if binner is not None:
        assert binner.seed is None or _stored(binner.seed, int)
        json.dumps(binner.to_dict())
    binner = _attempt(lambda: Binner(edges, np.array([-2.0, 0.0, 2.0]), iterations=value))
    if binner is not None:
        assert _stored(binner.iterations, int)
        json.dumps(binner.to_dict())
    for fields in ({"temperature": value}, {"a": value, "b": 0.5}, {"a": 1.0, "b": value}):
        kind = "temperature" if "temperature" in fields else "platt"
        scaler = _attempt(lambda: Scaler(kind, **fields))
        if scaler is not None:
            assert all(_stored(getattr(scaler, f), float) for f in fields)
            json.dumps(scaler.to_dict())


@settings(max_examples=60)
@given(value=VALUES)
def test_edge_rules_kde_and_bound_take_only_checked_values(value):
    for fit in (fit_eq_size, lambda m: fit_eq_mass(POOLED, m)):
        edges = _attempt(lambda: fit(value))
        if edges is not None:
            assert len(edges) == value - 1
    samples = np.linspace(-1.0, 1.0, 9)
    kde = _attempt(lambda: Kde1D(samples, value))
    if kde is not None:
        assert _stored(kde.bandwidth, float)
    kde = Kde1D(samples, 0.5)
    bound = _attempt(lambda: mi_upper_bound(kde, kde, value))
    assert bound is None or _stored(bound, float)


@settings(max_examples=60)
@given(value=VALUES)
def test_group_counts_and_class_indices_are_checked(value):
    for groups_spec in (value, [[0, 1], [2, value]]):
        fitted = _attempt(lambda: fit_bundle(DATA, "eq_size", groups_spec=groups_spec))
        if fitted is not None:
            for cal in fitted.calibrators:
                assert all(_stored(c, int) for c in cal.classes)
            CalibratorBundle.from_json(fitted.to_json())
    grouping = _attempt(lambda: ClassGrouping(groups=((0, 1), (2, value)), n_classes=4))
    if grouping is not None:
        assert grouping.groups == ((0, 1), (2, 3))
    grouping = _attempt(lambda: ClassGrouping(groups=((0, 1), (2, 3)), n_classes=value))
    if grouping is not None:
        assert _stored(grouping.n_classes, int)
    scaler = Scaler("temperature", temperature=1.0)
    cal = _attempt(lambda: GroupCalibrator(classes=(0, value), scaler=scaler))
    if cal is not None:
        assert all(_stored(c, int) for c in cal.classes)
    pooled = _attempt(lambda: ovr_set(DATA.ovr_logits(), DATA.labels, (0, value)))
    if pooled is not None:
        rows = slice(int(value) * DATA.n_samples, (int(value) + 1) * DATA.n_samples)
        np.testing.assert_array_equal(pooled.logits[DATA.n_samples:], POOLED.logits[rows])
    fitted = TEMPERATURE_BUNDLE
    made = _attempt(lambda: CalibratorBundle(
        "scw", value, fitted.input_kind, fitted.grouping, fitted.calibrators
    ))
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
        ("n_classes",), ("grouping", "groups", 0, 0), ("grouping", "groups"),
        ("calibrators", 0, "classes", 1), ("calibrators", 0, "classes"),
        ("calibrators", 0, "binner", "seed"), ("calibrators", 0, "binner", "iterations"),
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
    "n float binary": lambda: BinaryMixtureSpec(n=10.5),
    "prior text": lambda: BinaryMixtureSpec(prior="0.5"),
    "scale text": lambda: ImaxConfig(scale="2"),
    "temperature text": lambda: Scaler("temperature", temperature="2"),
    "threshold None": lambda: EvalConfig(cw_thresholds=(None,)),
    "bandwidth text": lambda: Kde1D(np.arange(4.0), bandwidth="1"),
    "prior text bound": lambda: mi_upper_bound(*[Kde1D(np.arange(4.0), 1.0)] * 2, "0.5"),
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
    assert binner_from_edges(np.array([0.0]), "eq_size", seed=np.int64(1)).to_dict()["seed"] == 1
    fitted = fit_bundle(DATA, "eq_size", groups_spec=np.int64(2))
    assert len(fitted.calibrators) == 2
    explicit = fit_bundle(DATA, "eq_size", groups_spec=np.array([[0, 3], [1, 2]]))
    assert explicit.grouping.groups == ((0, 3), (1, 2))
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
    ],
)
def test_an_unknown_strategy_fails_before_any_fit(monkeypatch, kwargs, message):
    def no_fit(*args, **kw):
        raise AssertionError("a fit ran before the check")

    monkeypatch.setattr(bundle_mod, "fit_edges", no_fit)
    monkeypatch.setattr(bundle_mod, "ovr_set", no_fit)
    monkeypatch.setattr(PredictionMatrix, "ovr_logits", no_fit)
    with pytest.raises(DataError, match=message):
        fit_bundle(DATA, "imax", **kwargs)
