"""Multi-class calibrator bundles: fitting, serialization, application."""

import ast
import copy
import json
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from imaxcal import (
    Binner,
    CalibratorBundle,
    DataError,
    EvalConfig,
    GroupCalibrator,
    ImaxcalError,
    ImaxConfig,
    KIND_PLATT,
    KIND_TEMPERATURE,
    PROBABILITIES,
    PredictionMatrix,
    RAW_LOGITS,
    Scaler,
)
from imaxcal.binning import (
    METHOD_EQ_MASS,
    METHOD_EQ_SIZE,
    METHOD_IMAX,
    REP_RAW_PROB_MEAN,
    apply_binner,
    binner_from_edges,
)
from imaxcal.bundle import (
    BUNDLE_VERSION,
    FIT_METHODS,
    METHOD_IMAX_WITH_SCALER,
    METHOD_PLATT,
    METHOD_TEMPERATURE,
    STRATEGY_CW,
    STRATEGY_SCW,
    apply_bundle,
    check_strategy,
    fit_bundle,
    resolve_grouping,
)
from imaxcal.data import logit_of_prob, prob_of_logit, softmax
from imaxcal.metrics import SCHEME_EXACT, THRESHOLD_ZERO, cw_ece, top1_ece
from imaxcal.scaling import apply_scaler
from imaxcal.synth import MulticlassSynthSpec, gen_multiclass


def _data(n=1200, k=6, t_gen=0.5, seed=0):
    return gen_multiclass(MulticlassSynthSpec(n_classes=k, n=n, t_gen=t_gen, seed=seed))


def _peak_bytes(run):
    """tracemalloc's peak while run() runs, in bytes."""
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def _quiet_fit(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return fit_bundle(*args, **kwargs)


_GROUP_FORMS = {"none": None, "count": 2, "lists": [(4, 3), (0, 1, 2)]}


def _fit_cases():
    """Every fit method (imax_with_scaler with each scaler kind), strategy,
    groups form and input kind that check_strategy lets combine, at K=5."""
    methods = [(m, None) for m in FIT_METHODS if m != METHOD_IMAX_WITH_SCALER]
    methods += [(METHOD_IMAX_WITH_SCALER, KIND_TEMPERATURE), (METHOD_IMAX_WITH_SCALER, KIND_PLATT)]
    cases = []
    for method, scaler_kind in methods:
        for strategy in (STRATEGY_SCW, STRATEGY_CW):
            for form, groups in _GROUP_FORMS.items():
                for kind in (RAW_LOGITS, PROBABILITIES):
                    try:
                        check_strategy(strategy, groups, method, scaler_kind, kind)
                    except DataError:
                        continue
                    name = "-".join(filter(None, (method, scaler_kind, strategy, form, kind)))
                    cases.append(pytest.param(method, scaler_kind, strategy, groups, kind, id=name))
    return cases


def _fit_case(method, scaler_kind, strategy, groups, kind):
    """A bundle of one _fit_cases case, fitted on 600 rows, with its scores."""
    data = _data(n=600, k=5, seed=2)
    if kind == PROBABILITIES:
        data = PredictionMatrix(softmax(data.scores), data.labels, kind=PROBABILITIES)
    bundle = _quiet_fit(data, method, strategy=strategy, groups_spec=groups,
                        config=ImaxConfig(n_bins=3, seed=0), scaler_kind=scaler_kind)
    return bundle, data.scores


# --- grouping resolution ----------------------------------------------------

def test_resolve_grouping_variants():
    data = _data(k=6)
    assert resolve_grouping(data, STRATEGY_SCW) == ((0, 1, 2, 3, 4, 5),)
    singletons = ((0,), (1,), (2,), (3,), (4,), (5,))
    assert resolve_grouping(data, STRATEGY_CW) == singletons
    assert len(resolve_grouping(data, STRATEGY_SCW, groups_spec=3)) == 3
    explicit = resolve_grouping(data, STRATEGY_SCW, groups_spec=[(2, 1, 0), (3, 4, 5)])
    assert explicit == ((0, 1, 2), (3, 4, 5))
    with pytest.raises(DataError):
        resolve_grouping(data, STRATEGY_CW, groups_spec=2)


@pytest.mark.parametrize(
    "spec, message",
    [
        ([(0, 1, 2), (2, 3, 4, 5)], "groups overlap"),
        ([(0, 1, 2), (4, 5)], "cover classes 0..5 exactly"),  # a gap at 3
        ([(0, 1, 2), (3, 4, 5, 6)], "cover classes 0..5 exactly"),  # class 6 >= K
        ([(0, 1, 2.0), (3, 4, 5)], "class index must be a non-negative integer"),
    ],
)
def test_explicit_groups_must_partition_the_classes(spec, message):
    with pytest.raises(DataError, match=message):
        resolve_grouping(_data(k=6), STRATEGY_SCW, groups_spec=spec)


# --- fitting ------------------------------------------------------------------

def test_scw_imax_bundle_shape():
    data = _data()
    b = fit_bundle(data, METHOD_IMAX, config=ImaxConfig(n_bins=8, seed=0))
    assert b.provenance["strategy"] == STRATEGY_SCW
    assert len(b.calibrators) == 1
    assert b.calibrators[0].classes == (0, 1, 2, 3, 4, 5)
    assert b.calibrators[0].binner.reps.size == 8
    assert b.has_binners()
    assert b.provenance["method"] == METHOD_IMAX
    assert b.provenance["n_fit_samples"] == data.n_samples


def test_cw_strategy_fits_one_calibrator_per_class():
    data = _data(n=2000)
    b = _quiet_fit(data, METHOD_IMAX, strategy=STRATEGY_CW, config=ImaxConfig(n_bins=5, seed=0))
    assert len(b.calibrators) == 6
    assert all(len(c.classes) == 1 for c in b.calibrators)


def test_temperature_bundle_has_a_single_shared_scaler():
    data = _data()
    b = fit_bundle(data, METHOD_TEMPERATURE)
    assert not b.has_binners()
    assert b.calibrators[0].scaler.kind == KIND_TEMPERATURE
    with pytest.raises(DataError):
        fit_bundle(data, METHOD_TEMPERATURE, strategy=STRATEGY_CW)
    with pytest.raises(DataError):
        fit_bundle(data, METHOD_PLATT, strategy=STRATEGY_CW)


def test_temperature_takes_no_groups():
    data = _data()
    for groups_spec in (3, [[0, 1, 2], [3, 4, 5]]):
        with pytest.raises(DataError, match="no groups"):
            fit_bundle(data, METHOD_TEMPERATURE, groups_spec=groups_spec)


def test_only_the_hybrid_takes_a_scaler_kind():
    data = _data()
    for method in (METHOD_IMAX, METHOD_EQ_MASS, METHOD_TEMPERATURE, METHOD_PLATT):
        with pytest.raises(DataError, match="imax_with_scaler only"):
            fit_bundle(data, method, scaler_kind=KIND_PLATT)


def test_hybrid_needs_a_scaler_kind():
    data = _data()
    for scaler_kind in (None, "beta"):
        with pytest.raises(DataError, match="needs a temperature or platt scaler"):
            fit_bundle(data, METHOD_IMAX_WITH_SCALER, scaler_kind=scaler_kind)
    b = fit_bundle(
        data, METHOD_IMAX_WITH_SCALER, config=ImaxConfig(n_bins=8, seed=0),
        scaler_kind=KIND_TEMPERATURE,
    )
    assert b.provenance["scaler"]["kind"] == KIND_TEMPERATURE


_BINNER_PROVENANCE = [
    "seed", "method", "strategy", "groups", "n_bins", "rep_strategy", "n_fit_samples"
]
_SCALER_PROVENANCE = ["seed", "method", "strategy", "groups", "n_fit_samples"]


@pytest.mark.parametrize(
    "method, kwargs, strategy, keys",
    [
        ("eq_size", {}, STRATEGY_SCW, _BINNER_PROVENANCE),
        (METHOD_EQ_MASS, {"strategy": STRATEGY_CW}, STRATEGY_CW, _BINNER_PROVENANCE),
        (METHOD_IMAX, {"strategy": STRATEGY_CW}, STRATEGY_CW, _BINNER_PROVENANCE),
        (METHOD_IMAX, {"groups_spec": 2}, STRATEGY_SCW, _BINNER_PROVENANCE),
        (METHOD_TEMPERATURE, {}, STRATEGY_SCW, _SCALER_PROVENANCE),
        (METHOD_PLATT, {"groups_spec": 2}, STRATEGY_SCW, _SCALER_PROVENANCE),
        (
            METHOD_IMAX_WITH_SCALER,
            {"scaler_kind": KIND_TEMPERATURE},
            STRATEGY_SCW,
            _BINNER_PROVENANCE + ["scaler"],
        ),
        (
            METHOD_IMAX_WITH_SCALER,
            {"scaler_kind": KIND_PLATT},
            STRATEGY_SCW,
            _BINNER_PROVENANCE + ["scaler"],
        ),
    ],
)
def test_provenance_keys_and_strategy_per_method(method, kwargs, strategy, keys):
    # the bundle bytes follow the provenance key order
    b = _quiet_fit(_data(), method, config=ImaxConfig(n_bins=5, seed=2), **kwargs)
    assert list(b.provenance) == keys
    assert b.provenance["strategy"] == strategy
    assert b.provenance["groups"] == kwargs.get("groups_spec")
    assert b.provenance["method"] == method


def test_unknown_method_is_rejected():
    with pytest.raises(DataError):
        fit_bundle(_data(), "isotonic")


def test_refit_is_byte_identical():
    data = _data(seed=4)
    cfg = ImaxConfig(n_bins=6, seed=1)
    a = fit_bundle(data, METHOD_IMAX, config=cfg).to_json()
    b = fit_bundle(data, METHOD_IMAX, config=cfg).to_json()
    assert a == b


def test_scw_imax_fit_peak_memory_per_merged_sample():
    # the N x K log-odds matrix is dropped once the merged set is built, and
    # the set holds one sorted order, so the fit's peak is the set (9.1 B per
    # merged sample) plus fit_imax's prefix sums (16 B): about 25.2 B here.
    # It was 33 B while the set kept its row order beside a sorted copy, and
    # 76 B while the matrix stayed alive.
    data = _data(n=2000, k=100, seed=0)
    peak = _peak_bytes(lambda: fit_bundle(data, METHOD_IMAX, config=ImaxConfig(n_bins=15, seed=0)))
    assert peak / (data.n_samples * data.n_classes) <= 26.0


def test_imax_with_a_platt_scaler_peaks_about_as_high_as_a_platt_fit():
    # the all-class set the scaler is fitted on holds the log-odds, so the
    # fit keeps no N x K matrix beside it (1.00 here, 1.20 with one held)
    data = _data(n=10_000, k=100, seed=1)
    platt = _peak_bytes(lambda: fit_bundle(data, METHOD_PLATT))
    for groups_spec in (None, 4):
        # the matrix is made again for the groups' sets once the all-class
        # set is gone, whatever the number of groups
        both = _peak_bytes(lambda: fit_bundle(
            data, METHOD_IMAX_WITH_SCALER, groups_spec=groups_spec, scaler_kind=KIND_PLATT
        ))
        assert both <= 1.05 * platt, groups_spec


# --- serialization ----------------------------------------------------------------

def test_json_round_trip_preserves_outputs():
    data = _data(seed=5)
    b = fit_bundle(data, METHOD_IMAX, config=ImaxConfig(n_bins=6, seed=0))
    back = CalibratorBundle.from_json(b.to_json())
    fresh = _data(seed=6)
    np.testing.assert_array_equal(
        apply_bundle(back, fresh.scores, RAW_LOGITS),
        apply_bundle(b, fresh.scores, RAW_LOGITS),
    )


def test_bundle_json_is_strict():
    b = fit_bundle(_data(), METHOD_TEMPERATURE)
    doc = json.loads(b.to_json())
    assert doc["version"] == BUNDLE_VERSION

    tampered = dict(doc, version="2")
    with pytest.raises(DataError):
        CalibratorBundle.from_json(json.dumps(tampered))

    extra = dict(doc, note="hi")
    with pytest.raises(DataError):
        CalibratorBundle.from_json(json.dumps(extra))

    missing = {k: v for k, v in doc.items() if k != "input_kind"}
    with pytest.raises(DataError):
        CalibratorBundle.from_json(json.dumps(missing))

    bad_cal = json.loads(b.to_json())
    bad_cal["calibrators"][0]["mystery"] = 1
    with pytest.raises(DataError):
        CalibratorBundle.from_json(json.dumps(bad_cal))

    with pytest.raises(DataError):
        CalibratorBundle.from_json("[1, 2]")
    with pytest.raises(DataError):
        CalibratorBundle.from_json("{broken")


def test_a_bundle_records_its_groups_once():
    # the groups are the calibrators' classes, each group ascending, in the
    # order the groups were given; the provenance keeps the spec as given,
    # as JSON lists
    b = fit_bundle(_data(n=500, k=5), METHOD_EQ_SIZE, groups_spec=[(4, 3), (0, 1, 2)],
                   config=ImaxConfig(n_bins=3))
    assert b.groups == ((3, 4), (0, 1, 2))
    doc = json.loads(b.to_json())
    assert list(doc) == ["version", "n_classes", "input_kind", "calibrators", "provenance"]
    assert [cal["classes"] for cal in doc["calibrators"]] == [[3, 4], [0, 1, 2]]
    assert (doc["provenance"]["strategy"], doc["provenance"]["groups"]) == (
        STRATEGY_SCW, [[4, 3], [0, 1, 2]]
    )

    # a hand-edited group listed as [1, 0, 2] loads and is written as given
    doc["calibrators"][1]["classes"] = [1, 0, 2]
    loaded = CalibratorBundle.from_json(json.dumps(doc))
    assert loaded.groups == ((3, 4), (0, 1, 2))
    assert loaded.to_json() == json.dumps(doc, indent=2) + "\n"


def test_a_bundle_binner_records_edges_and_representatives():
    # the phi levels and the seed stay with the fit: the seed is provenance
    b = fit_bundle(_data(n=500, k=5), METHOD_IMAX, config=ImaxConfig(n_bins=4, seed=3))
    doc = json.loads(b.to_json())
    binner = doc["calibrators"][0]["binner"]
    assert list(binner) == ["method", "edges", "reps", "iterations"]
    assert (len(binner["edges"]), len(binner["reps"])) == (3, 4)
    assert doc["provenance"]["seed"] == 3


@pytest.mark.parametrize("method, scaler_kind, strategy, groups, kind", _fit_cases())
def test_a_bundle_loaded_back_equals_the_bundle_written(method, scaler_kind, strategy, groups,
                                                        kind):
    b, _ = _fit_case(method, scaler_kind, strategy, groups, kind)
    text = b.to_json()
    back = CalibratorBundle.from_json(text)
    assert (back.n_classes, back.input_kind, back.provenance) == (
        b.n_classes, b.input_kind, b.provenance
    )
    assert len(back.calibrators) == len(b.calibrators)
    for got, want in zip(back.calibrators, b.calibrators):
        assert (got.classes, got.scaler) == (want.classes, want.scaler)
        assert (got.binner is None) == (want.binner is None)
        if want.binner is not None:
            assert (got.binner.method, got.binner.iterations) == (
                want.binner.method, want.binner.iterations
            )
            np.testing.assert_array_equal(got.binner.edges, want.binner.edges)
            np.testing.assert_array_equal(got.binner.reps, want.binner.reps)
    assert back.to_json() == text
    assert back == b


def test_bundles_are_equal_when_their_json_is():
    # == compares the one record, the JSON, not a binner's arrays field by field
    imax = _quiet_fit(_data(n=300, k=3), METHOD_IMAX, config=ImaxConfig(n_bins=3, seed=0))
    scaler = fit_bundle(_data(n=300, k=3), METHOD_TEMPERATURE)
    changed = copy.deepcopy(imax)
    reps = changed.calibrators[0].binner.reps
    reps[0] = np.nextafter(reps[0], 0.0)
    assert changed != imax
    assert imax != scaler
    assert imax != imax.to_json()


def test_the_bundle_module_keys_no_mapping_by_scaler_kind():
    # a scaler kind's fields are scaling.SCALER_FIELDS; the bundle reads them
    import imaxcal.bundle as bundle_mod

    kinds = {"KIND_TEMPERATURE", "KIND_PLATT", repr(KIND_TEMPERATURE), repr(KIND_PLATT)}
    keyed = [
        ast.unparse(node)
        for node in ast.walk(ast.parse(Path(bundle_mod.__file__).read_text()))
        if isinstance(node, ast.Dict)
        and any(key is not None and ast.unparse(key) in kinds for key in node.keys)
    ]
    assert keyed == []


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _payloads(draw):
    """A Binner's or a Scaler's constructor arguments, as (type, kwargs)."""
    if draw(st.booleans()):
        edges = sorted(draw(st.lists(_FINITE, unique=True, max_size=4)))
        reps = st.lists(st.floats(0.0, 1.0), min_size=len(edges) + 1, max_size=len(edges) + 1)
        return Binner, dict(
            method=draw(st.sampled_from([METHOD_IMAX, METHOD_EQ_SIZE, METHOD_EQ_MASS, "isotonic"])),
            edges=edges,
            reps=draw(reps),
            iterations=draw(st.integers(0, 2**63 - 1)),
        )
    if draw(st.booleans()):
        return Scaler, dict(kind=KIND_TEMPERATURE, temperature=draw(_FINITE))
    return Scaler, dict(kind=KIND_PLATT, a=draw(_FINITE), b=draw(_FINITE))


@given(st.data())
@settings(max_examples=100)
def test_a_constructed_bundle_round_trips(data):
    # what the constructors accept, to_json writes and from_json reads back
    n_classes = data.draw(st.integers(1, 4))
    owner = data.draw(st.lists(st.integers(0, n_classes - 1), min_size=n_classes,
                               max_size=n_classes))
    groups = [data.draw(st.permutations([c for c, o in enumerate(owner) if o == g]))
              for g in data.draw(st.permutations(sorted(set(owner))))]
    provenance = data.draw(st.dictionaries(
        st.text(max_size=3), st.integers() | _FINITE | st.text(max_size=3), max_size=3
    ))
    try:
        calibrators = []
        for classes in groups:
            build, kwargs = data.draw(_payloads())
            model = build(**kwargs)
            calibrators.append(GroupCalibrator(tuple(classes), **{
                "binner" if build is Binner else "scaler": model
            }))
        b = CalibratorBundle(n_classes, data.draw(st.sampled_from([RAW_LOGITS, PROBABILITIES])),
                             calibrators, provenance)
    except ImaxcalError:
        return
    text = b.to_json()
    assert CalibratorBundle.from_json(text).to_json() == text


@pytest.mark.parametrize("n_classes", [10**9, 10**12])
def test_a_huge_class_count_fails_the_cover_rule_at_once(n_classes):
    # the count comes from the file; the cover rule compares it with the
    # listed classes before it builds anything of that size
    doc = json.loads(fit_bundle(_data(k=5), METHOD_TEMPERATURE).to_json())
    doc["n_classes"] = n_classes
    with pytest.raises(DataError, match=r"groups must cover classes 0\.\.\d+ exactly"):
        CalibratorBundle.from_json(json.dumps(doc))


def _one_calibrator_doc(**payload):
    """The JSON of a two-class bundle whose one calibrator holds payload, as
    a dict."""
    calibrator = GroupCalibrator((0, 1), **payload)
    bundle = CalibratorBundle(2, RAW_LOGITS, [calibrator])
    return json.loads(bundle.to_json())


def _load_one(doc):
    """The one calibrator of bundle doc, loaded from its JSON text."""
    return CalibratorBundle.from_json(json.dumps(doc)).calibrators[0]


# Faults that json itself meets, each made by replacing the first occurrence
# of a piece of a fitted bundle's text, and the DataError each must raise
_FAULTY_TEXTS = {
    "repeated binner reps": (
        '"reps": [', '"reps": [0.5, 0.5, 0.5],\n"reps": [', "bundle repeats the field 'reps'"
    ),
    "repeated version": (
        '"version": "3",', '"version": "3",\n"version": "3",', "bundle repeats the field 'version'"
    ),
    # format 2 kept these two at the top level; format 3 keeps them in provenance
    "strategy at the top level": (
        '"n_classes":',
        '"strategy": "scw",\n"n_classes":',
        r"unknown bundle fields: \['strategy'\]",
    ),
    "grouping at the top level": (
        '"calibrators":',
        '"grouping": "one_for_all",\n"calibrators":',
        r"unknown bundle fields: \['grouping'\]",
    ),
    "5000-digit integer in provenance": (
        '"provenance": {', '"provenance": {"n": ' + "7" * 5000 + ",", "not valid JSON: Exceeds"
    ),
    "5000-digit seed": ('"seed": 0', '"seed": ' + "1" * 5000, "not valid JSON: Exceeds"),
    "200000-deep array in provenance": (
        '"provenance": {',
        '"provenance": {"n": ' + "[" * 200_000 + "]" * 200_000 + ",",
        "not valid JSON: maximum recursion depth",
    ),
    # json reads these three, which JSON lacks, unless told not to
    "NaN in provenance": ('"provenance": {', '"provenance": {"x": NaN,', "not valid JSON: NaN"),
    "Infinity in provenance": (
        '"provenance": {', '"provenance": {"x": [Infinity],', "not valid JSON: Infinity"
    ),
    "-Infinity in binner edges": (
        '"edges": [', '"edges": [-Infinity, ', "not valid JSON: -Infinity"
    ),
}


def _faulty_text(text, fault):
    old, new, _ = _FAULTY_TEXTS[fault]
    assert old in text
    return text.replace(old, new, 1)


@pytest.mark.parametrize("fault", sorted(_FAULTY_TEXTS))
def test_a_bundle_text_the_parser_rejects_is_a_data_error(fault):
    text = fit_bundle(_data(n=300, k=3), METHOD_IMAX, config=ImaxConfig(n_bins=3)).to_json()
    with pytest.raises(DataError, match=_FAULTY_TEXTS[fault][2]):
        CalibratorBundle.from_json(_faulty_text(text, fault))


def test_bundle_json_ends_with_newline():
    assert fit_bundle(_data(), METHOD_TEMPERATURE).to_json().endswith("\n")


# --- container validation ----------------------------------------------------------

def test_group_calibrator_wants_exactly_one_payload():
    binner = binner_from_edges(np.array([0.0]), METHOD_EQ_MASS)
    scaler = Scaler(kind=KIND_TEMPERATURE, temperature=2.0)
    GroupCalibrator(classes=(0,), binner=binner)
    GroupCalibrator(classes=(0,), scaler=scaler)
    with pytest.raises(DataError):
        GroupCalibrator(classes=(0,))
    with pytest.raises(DataError):
        GroupCalibrator(classes=(0,), binner=binner, scaler=scaler)


def test_calibrators_cover_every_class_once():
    b = fit_bundle(_data(k=4), METHOD_IMAX, groups_spec=2, config=ImaxConfig(n_bins=4, seed=0))
    assert len(b.calibrators) == 2
    assert sorted(c for cal in b.calibrators for c in cal.classes) == [0, 1, 2, 3]
    with pytest.raises(DataError):  # class 4 would have no calibrator
        CalibratorBundle(5, b.input_kind, b.calibrators)
    with pytest.raises(DataError):  # no classes and no calibrators
        CalibratorBundle(0, b.input_kind, [])


@pytest.mark.parametrize(
    "value",
    [float("nan"), [float("inf")], {"y": -float("inf")}, object(), np.arange(2)],
    ids=["nan", "inf", "minus-inf", "object", "array"],
)
def test_a_provenance_that_is_not_finite_json_is_a_data_error(value):
    # to_json would write NaN or Infinity, which from_json rejects, or fail
    calibrator = GroupCalibrator((0, 1), scaler=Scaler(kind=KIND_TEMPERATURE, temperature=1.0))
    with pytest.raises(DataError, match="bundle provenance must be finite JSON"):
        CalibratorBundle(2, RAW_LOGITS, [calibrator], provenance={"x": value})
    bundle = CalibratorBundle(2, RAW_LOGITS, [calibrator], provenance={"x": [1.5, None, "a"]})
    assert CalibratorBundle.from_json(bundle.to_json()).provenance == {"x": [1.5, None, "a"]}


def test_a_provenance_is_kept_as_the_json_value_it_is_written_as():
    calibrator = GroupCalibrator((0, 1), scaler=Scaler(kind=KIND_TEMPERATURE, temperature=1.0))
    b = CalibratorBundle(2, RAW_LOGITS, [calibrator], provenance={"g": ((1,), (0,)), 3: "k"})
    assert b.provenance == {"g": [[1], [0]], "3": "k"}
    # keys that json writes as one field are a DataError, not a file that
    # from_json rejects
    with pytest.raises(DataError, match="bundle provenance must be finite JSON"):
        CalibratorBundle(2, RAW_LOGITS, [calibrator], provenance={1: "a", "1": "b"})


def test_a_provenance_changed_after_the_build_is_checked_when_written():
    b = fit_bundle(_data(n=300, k=3), METHOD_TEMPERATURE)
    b.provenance["x"] = float("nan")
    with pytest.raises(DataError, match="bundle provenance must be finite JSON"):
        b.to_json()
    b.provenance["x"] = (1, 2)
    assert json.loads(b.to_json())["provenance"]["x"] == [1, 2]


# --- application ----------------------------------------------------------------------

def test_apply_checks_the_class_count():
    b = fit_bundle(_data(k=6), METHOD_TEMPERATURE)
    wrong = np.zeros((3, 4))
    with pytest.raises(DataError, match="bundle was fitted for 6 classes, scores have 4"):
        apply_bundle(b, wrong, RAW_LOGITS)


@pytest.mark.parametrize("method, scaler_kind, strategy, groups, kind", _fit_cases())
def test_apply_reads_the_input_kind_from_the_bundle(method, scaler_kind, strategy, groups, kind):
    b, scores = _fit_case(method, scaler_kind, strategy, groups, kind)
    np.testing.assert_array_equal(apply_bundle(b, scores), apply_bundle(b, scores, kind))
    other = PROBABILITIES if kind == RAW_LOGITS else RAW_LOGITS
    with pytest.raises(DataError, match=f"fitted on {kind} scores, not {other}"):
        apply_bundle(b, scores, other)


def test_identity_temperature_bundle_reproduces_probabilities():
    data = _data(k=4, seed=7)
    probs = softmax(data.scores)
    b = CalibratorBundle(
        n_classes=4,
        input_kind=PROBABILITIES,
        calibrators=[
            GroupCalibrator(
                classes=(0, 1, 2, 3),
                scaler=Scaler(kind=KIND_TEMPERATURE, temperature=1.0),
            )
        ],
    )
    out = apply_bundle(b, probs, PROBABILITIES)
    np.testing.assert_allclose(out, probs, atol=1e-9)


def _apply_per_column(bundle, scores, kind):
    """The column-at-a-time oracle: probabilities first, then each column's
    own log-odds through its group's calibrator, into a second matrix."""
    probs = softmax(scores) if kind == RAW_LOGITS else scores
    out = np.empty_like(probs)
    for cal in bundle.calibrators:
        for c in cal.classes:
            lam = logit_of_prob(probs[:, c])
            if cal.binner is not None:
                out[:, c] = apply_binner(cal.binner, lam)
            else:
                out[:, c] = prob_of_logit(apply_scaler(cal.scaler, lam))
    return out


@pytest.mark.parametrize(
    "method, kwargs, kind",
    [
        (METHOD_IMAX, {}, RAW_LOGITS),
        (METHOD_IMAX, {}, PROBABILITIES),
        (METHOD_IMAX, {"strategy": STRATEGY_CW}, RAW_LOGITS),
        (METHOD_IMAX, {"groups_spec": 3}, RAW_LOGITS),
        (METHOD_TEMPERATURE, {}, RAW_LOGITS),
        (METHOD_PLATT, {}, RAW_LOGITS),
        (METHOD_IMAX_WITH_SCALER, {"scaler_kind": KIND_PLATT}, RAW_LOGITS),
    ],
)
def test_apply_equals_the_per_column_formula_bit_for_bit(method, kwargs, kind):
    # 38k rows of K=6 are three and a half blocks of the log-odds transform
    fit_on, test = _data(seed=3), _data(n=38_230, seed=4)
    to_kind = (lambda s: s) if kind == RAW_LOGITS else softmax
    fit_on = PredictionMatrix(to_kind(fit_on.scores), fit_on.labels, kind)
    b = _quiet_fit(fit_on, method, config=ImaxConfig(n_bins=8, seed=0), **kwargs)
    scores = to_kind(test.scores)
    got, want = apply_bundle(b, scores, kind), _apply_per_column(b, scores, kind)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_log_odds_and_apply_hold_one_n_by_k_array():
    # the log-odds transform works in blocks of rows into its one N x K
    # output, and apply calibrates that output in place; a transform of the
    # whole matrix at once peaked at 32 B per entry, and an apply with a
    # probability matrix and a second output at about 3.1 N*K*8 bytes
    data = _data(n=200_000, k=10, seed=0)
    entries = data.scores.size
    assert _peak_bytes(data.ovr_logits) <= 12.0 * entries
    b = fit_bundle(data, METHOD_IMAX, config=ImaxConfig(n_bins=15, seed=0))
    assert _peak_bytes(lambda: apply_bundle(b, data.scores, RAW_LOGITS)) <= 1.5 * 8 * entries


def test_binned_outputs_take_few_values_and_skip_renormalization():
    data = _data(n=3000, seed=8)
    b = fit_bundle(data, METHOD_IMAX, config=ImaxConfig(n_bins=5, seed=0))
    out = apply_bundle(b, data.scores, RAW_LOGITS)
    assert out.shape == data.scores.shape
    for col in range(out.shape[1]):
        assert np.unique(out[:, col]).size <= 5
    assert np.all(out >= 0.0) and np.all(out <= 1.0)
    row_sums = out.sum(axis=1)
    assert np.max(np.abs(row_sums - 1.0)) > 1e-6


# --- end-to-end behavior ------------------------------------------------------------------

def test_per_class_training_rates_are_reproduced_exactly():
    # class-wise binners with empirical-rate representatives have zero
    # thresholded class gap on their own training split
    data = gen_multiclass(MulticlassSynthSpec(n_classes=10, n=4000, t_gen=0.5, seed=3))
    b = _quiet_fit(data, METHOD_IMAX, strategy=STRATEGY_CW, config=ImaxConfig(n_bins=15, seed=0))
    out = apply_bundle(b, data.scores, RAW_LOGITS)
    res = cw_ece(out, data.labels, EvalConfig(eval_scheme=SCHEME_EXACT), threshold=THRESHOLD_ZERO)
    assert res.mean < 1e-12


def test_scaled_representatives_beat_raw_means_on_sharpened_scores():
    cfg = ImaxConfig(n_bins=15, seed=0)
    exact = EvalConfig(eval_scheme=SCHEME_EXACT)
    wins = 0
    for seed in range(20):
        d = gen_multiclass(MulticlassSynthSpec(n_classes=10, n=2000, t_gen=0.5, seed=seed))
        hybrid = fit_bundle(
            d, METHOD_IMAX_WITH_SCALER, config=cfg, scaler_kind=KIND_TEMPERATURE
        )
        raw = fit_bundle(d, METHOD_IMAX, config=cfg, rep_strategy=REP_RAW_PROB_MEAN)
        e_hybrid = top1_ece(apply_bundle(hybrid, d.scores, RAW_LOGITS), d.labels, exact)
        e_raw = top1_ece(apply_bundle(raw, d.scores, RAW_LOGITS), d.labels, exact)
        wins += e_hybrid < e_raw
    assert wins >= 16


@pytest.mark.parametrize(
    "method,kwargs,bound",
    [
        (METHOD_IMAX, {"strategy": STRATEGY_SCW}, 0.0),
        (METHOD_IMAX, {"strategy": STRATEGY_CW}, 0.0),
        (METHOD_EQ_MASS, {"strategy": STRATEGY_SCW}, 0.0),
        (METHOD_EQ_MASS, {"strategy": STRATEGY_CW}, 0.0),
        (METHOD_EQ_SIZE, {"strategy": STRATEGY_SCW}, 0.0),
        (METHOD_IMAX, {"strategy": STRATEGY_SCW, "groups_spec": 3}, 0.0),
        (METHOD_PLATT, {}, 1e-12),
        (METHOD_TEMPERATURE, {}, 1e-12),
        (METHOD_IMAX_WITH_SCALER, {"scaler_kind": KIND_PLATT}, 4e-15),
        (METHOD_IMAX_WITH_SCALER, {"scaler_kind": KIND_TEMPERATURE}, 4e-15),
        (METHOD_IMAX, {"rep_strategy": REP_RAW_PROB_MEAN}, 4e-15),
    ],
)
def test_relabelling_the_classes_permutes_the_output_columns(method, kwargs, bound):
    # new class j is old class perm[j]: its score column moves to j and its
    # labels become j. Distinct class counts leave group_by_prior no ties to
    # break by class index, so a fit sees the same sets under other names.
    # The scalers and the representative means (raw_prob_mean,
    # imax_with_scaler) read the last bits of the log-odds, which softmax
    # takes from a row sum in column order, so a relabelling moves them; they
    # match within a bound: up to 5.1e-13 for platt, 2.7e-13 for temperature
    # and 1.2e-15 for the representative means. Every other case is
    # byte-identical.
    spec = MulticlassSynthSpec(n_classes=10, n=3000, t_gen=0.5, priors=np.arange(1.0, 11.0) / 55.0)
    data = gen_multiclass(spec)
    assert len(set(np.bincount(data.labels, minlength=10).tolist())) == 10
    perm = np.random.default_rng(1).permutation(10)
    relabelled = PredictionMatrix(data.scores[:, perm], np.argsort(perm)[data.labels], RAW_LOGITS)
    cfg = ImaxConfig(n_bins=15, seed=0)
    before = apply_bundle(_quiet_fit(data, method, config=cfg, **kwargs), data.scores, RAW_LOGITS)
    after = apply_bundle(
        _quiet_fit(relabelled, method, config=cfg, **kwargs), relabelled.scores, RAW_LOGITS
    )
    want = np.ascontiguousarray(before[:, perm])
    if bound:
        np.testing.assert_allclose(after, want, rtol=0, atol=bound)
    else:
        assert after.tobytes() == want.tobytes()


# Every method whose fit reads only calibration sets: each set holds one
# sorted order, so every sum it takes is over the multiset of rows.
# fit_temperature averages over score rows in row order, so temperature and
# imax_with_scaler with a temperature scaler are outside this property.
_ROW_ORDER_FITS = [
    (METHOD_EQ_SIZE, {}),
    (METHOD_EQ_MASS, {}),
    (METHOD_IMAX, {}),
    (METHOD_IMAX, {"strategy": STRATEGY_CW}),
    (METHOD_IMAX, {"groups_spec": 2}),
    (METHOD_IMAX, {"rep_strategy": REP_RAW_PROB_MEAN}),
    (METHOD_PLATT, {}),
    (METHOD_IMAX_WITH_SCALER, {"scaler_kind": KIND_PLATT}),
    (METHOD_IMAX_WITH_SCALER, {"scaler_kind": KIND_PLATT, "groups_spec": 2}),
]


@settings(max_examples=20)
@given(
    k=st.integers(3, 5),
    n=st.integers(80, 200),
    seed=st.integers(0, 2**16),
    order=st.randoms(use_true_random=False),
)
def test_a_refit_on_permuted_rows_is_byte_identical(k, n, seed, order):
    data = _data(n=n, k=k, seed=seed)
    rows = list(range(n))
    order.shuffle(rows)
    permuted = PredictionMatrix(data.scores[rows], data.labels[rows], RAW_LOGITS)
    cfg = ImaxConfig(n_bins=4, seed=seed)
    for method, kwargs in _ROW_ORDER_FITS:
        want = _quiet_fit(data, method, config=cfg, **kwargs).to_json()
        assert _quiet_fit(permuted, method, config=cfg, **kwargs).to_json() == want, method


# --- mutated bundle JSON ------------------------------------------------------------

_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**20), 10**20)
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(["eq_mass", "imax", "temperature", "platt", "cw", "explicit", "1"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=2),
    max_leaves=4,
)


@pytest.fixture(scope="module")
def valid_bundle_docs():
    data = _data(n=300, k=3, seed=4)
    cfg = ImaxConfig(n_bins=4, seed=0)
    bundles = [
        _quiet_fit(data, METHOD_IMAX, groups_spec=2, config=cfg),
        _quiet_fit(data, METHOD_EQ_MASS, strategy=STRATEGY_CW, config=cfg),
        _quiet_fit(data, METHOD_IMAX_WITH_SCALER, config=cfg, scaler_kind=KIND_PLATT),
        _quiet_fit(data, METHOD_TEMPERATURE),
        _quiet_fit(data, METHOD_PLATT, groups_spec=2),
    ]
    return [json.loads(b.to_json()) for b in bundles]


def _paths(node, path=()):
    """Every position in a JSON tree, as key/index paths from the root."""
    yield path
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, (*path, key))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, (*path, i))


def _mutate(doc, draw):
    """Change a value, add a field or element, or delete one, somewhere in doc."""
    path = draw(st.sampled_from(list(_paths(doc))))
    action = draw(st.sampled_from(["replace", "add", "delete"]))
    if not path:
        return draw(_JSON_VALUES) if action == "replace" else doc
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    node = parent[path[-1]]
    if action == "delete":
        del parent[path[-1]]
    elif action == "add" and isinstance(node, dict):
        node[draw(st.text(max_size=6))] = draw(_JSON_VALUES)
    elif action == "add" and isinstance(node, list):
        node.insert(draw(st.integers(0, len(node))), draw(_JSON_VALUES))
    else:
        parent[path[-1]] = draw(_JSON_VALUES)
    return doc


@given(st.data())
@settings(max_examples=100)
def test_a_mutated_bundle_loads_or_is_a_data_error(valid_bundle_docs, data):
    doc = copy.deepcopy(data.draw(st.sampled_from(valid_bundle_docs)))
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(doc, data.draw)
    try:
        bundle = CalibratorBundle.from_json(json.dumps(doc))
    except DataError:
        return
    logits = np.random.default_rng(0).normal(0.0, 20.0, size=(50, max(bundle.n_classes, 1)))
    scores = logits if bundle.input_kind == RAW_LOGITS else softmax(logits)
    try:
        out = apply_bundle(bundle, scores)
    except ImaxcalError:
        return
    assert np.all((out >= 0.0) & (out <= 1.0))


# a line that names a field, as json.dumps(..., indent=2) writes it
_FIELD_LINE = re.compile(r'^\s*"[^"]*": ')
_NUMBER = re.compile(r"-?\d+(\.\d+)?([eE][-+]?\d+)?")


@given(st.data())
@settings(max_examples=60)
def test_a_mutated_bundle_text_loads_or_is_a_data_error(valid_bundle_docs, data):
    # the faults json itself meets: a repeated field, deep nesting and an
    # integer too long for int()
    lines = json.dumps(data.draw(st.sampled_from(valid_bundle_docs)), indent=2).splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    line = lines[i]
    action = data.draw(st.sampled_from(["repeat", "wrap", "digits"]))
    size = data.draw(st.integers(1, 5000))
    if action == "repeat":
        lines.insert(i, line)
    elif action == "wrap":
        head, sep, value = line.rpartition(": ")
        body = value.rstrip(",")
        lines[i] = head + sep + "[" * size + body + "]" * size + value[len(body):]
    elif (number := _NUMBER.search(line)) is not None:
        lines[i] = line[: number.start()] + "9" * size + line[number.end():]
    try:
        CalibratorBundle.from_json("\n".join(lines))
    except DataError:
        return
    # a field named twice is never read as one of its two values
    assert not (action == "repeat" and _FIELD_LINE.match(line))
