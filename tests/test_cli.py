"""Command-line interface: flows, flags, exit codes, artifacts."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from imaxcal import (
    binning as binning_mod,
    cli as cli_mod,
    metrics as metrics_mod,
    synth as synth_mod,
)
from imaxcal.binning import ImaxConfig, fit_edges
from imaxcal.bundle import apply_bundle, fit_bundle
from imaxcal.cli import main
from imaxcal.data import PROBABILITIES, RAW_LOGITS, PredictionMatrix, ovr_set, softmax
from imaxcal.info import mi_bound_of_set, mi_report, mi_report_csv
from imaxcal.metrics import SCHEME_EXACT, TIE_RAW_LOGIT, EvalConfig, accuracy_topk, build_report
from imaxcal.synth import BinaryMixtureSpec, analytic_mi
from test_bundle import _FAULTY_TEXTS, _faulty_text


DIAG_TOKEN = r'[a-z0-9_]+=("[^"]*"|\S+)'
DIAG_LINE = re.compile(rf"^{DIAG_TOKEN}( {DIAG_TOKEN})*$")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One synth dataset pair shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    assert main(
        [
            "synth", "--multiclass", "--k", "5", "--tgen", "0.5",
            "--n", "400", "--seed", "5", "--out-prefix", str(root / "mc"),
        ]
    ) == 0
    assert main(
        ["synth", "--n", "600", "--seed", "2", "--out-prefix", str(root / "bin")]
    ) == 0
    return root


def _fit_bundle(workdir, name="bundle.json", extra=()):
    out = workdir / name
    code = main(
        [
            "fit", str(workdir / "mc-scores.csv"), str(workdir / "mc-labels.csv"),
            "-o", str(out), "--bins", "8", "--seed", "0", *extra,
        ]
    )
    assert code == 0
    return out


# --- synth ---------------------------------------------------------------

def test_synth_binary_artifacts(workdir):
    scores = np.loadtxt(workdir / "bin-scores.csv", delimiter=",")
    labels = np.loadtxt(workdir / "bin-labels.csv", dtype=np.int64)
    assert scores.shape == (600, 2)
    np.testing.assert_array_equal(scores[:, 0], 0.0)
    assert set(np.unique(labels)) <= {0, 1}
    sidecar = json.loads((workdir / "bin-spec.json").read_text())
    assert sidecar["spec"]["family"] == "binary_mixture"
    spec = BinaryMixtureSpec(n=600, seed=2)
    assert sidecar["analytic"]["mi_nats"] == analytic_mi(spec)


def test_synth_is_deterministic(tmp_path):
    for prefix in ("a", "b"):
        assert main(
            ["synth", "--n", "200", "--seed", "7", "--out-prefix", str(tmp_path / prefix)]
        ) == 0
    assert (tmp_path / "a-scores.csv").read_bytes() == (tmp_path / "b-scores.csv").read_bytes()
    assert (tmp_path / "a-labels.csv").read_bytes() == (tmp_path / "b-labels.csv").read_bytes()


def test_synth_preset_parameters(tmp_path):
    assert main(
        ["synth", "--preset", "fig2-imbalanced", "--n", "300", "--out-prefix", str(tmp_path / "f")]
    ) == 0
    sidecar = json.loads((tmp_path / "f-spec.json").read_text())
    assert sidecar["spec"]["prior"] == 0.01
    assert sidecar["spec"]["mu_neg"] == -6.0


def test_synth_multiclass_artifacts(workdir):
    scores = np.loadtxt(workdir / "mc-scores.csv", delimiter=",")
    labels = np.loadtxt(workdir / "mc-labels.csv", dtype=np.int64)
    assert scores.shape == (400, 5)
    assert labels.min() >= 0 and labels.max() < 5
    sidecar = json.loads((workdir / "mc-spec.json").read_text())
    assert sidecar["spec"]["family"] == "multiclass"
    assert sidecar["spec"]["t_gen"] == 0.5


def test_synth_flag_errors(tmp_path):
    out = str(tmp_path / "x")
    assert main(["synth", "--preset", "fig2-imbalanced", "--multiclass", "--out-prefix", out]) == 2
    assert main(["synth", "--n", "0", "--out-prefix", out]) == 2
    assert main(["synth", "--prior", "1.5", "--out-prefix", out]) == 2
    assert main(["synth", "--seed", "-1", "--out-prefix", out]) == 2
    # flags the chosen generator would ignore, even at their default values
    mixture = [["--prior", "0.3"], ["--mu-pos", "2"], ["--mu-neg", "-2"],
               ["--sigma-pos", "1.5"], ["--sigma-neg", "1.0"]]
    for extra in (
        *(["--multiclass", *flag] for flag in mixture),
        *(["--preset", "fig2-imbalanced", *flag] for flag in mixture),
        ["--k", "5"],
        ["--tgen", "0.5"],
        ["--k", "10"],
        ["--preset", "fig2-imbalanced", "--tgen", "1.0"],
    ):
        assert main(["synth", *extra, "--out-prefix", out]) == 2, extra
    assert not (tmp_path / "x-scores.csv").exists()


@pytest.mark.parametrize("flags", [["--multiclass", "--tgen", "inf"], ["--mu-pos", "nan"]])
def test_a_non_finite_synth_value_is_one_usage_line(tmp_path, capsys, flags):
    # --tgen inf wrote a matrix of +-0.0, and --mu-pos nan failed once drawn
    capsys.readouterr()
    assert main(["synth", *flags, "--n", "20", "--out-prefix", str(tmp_path / "s")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error=usage ") and "must be finite" in err[0], err
    assert list(tmp_path.iterdir()) == []


# --- fit -------------------------------------------------------------------

def test_fit_writes_a_versioned_bundle(workdir, capsys):
    out = _fit_bundle(workdir)
    doc = json.loads(out.read_text())
    assert doc["version"] == "3"
    assert list(doc) == ["version", "n_classes", "input_kind", "calibrators", "provenance"]
    assert (doc["provenance"]["strategy"], doc["provenance"]["groups"]) == ("scw", None)
    assert len(doc["calibrators"]) == 1
    err = capsys.readouterr().err
    assert any(line.startswith("event=fit") for line in err.splitlines())


def test_fit_reports_convergence_per_imax_group(workdir, tmp_path, capsys):
    capsys.readouterr()
    out = tmp_path / "cw.json"
    assert main(
        [
            "fit", str(workdir / "mc-scores.csv"), str(workdir / "mc-labels.csv"),
            "-o", str(out), "--bins", "4", "--strategy", "cw",
        ]
    ) == 0
    lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("event=fit_group")]
    doc = json.loads(out.read_text())
    assert len(lines) == len(doc["calibrators"]) == 5
    for i, (line, cal) in enumerate(zip(lines, doc["calibrators"])):
        assert DIAG_LINE.match(line), line
        fields = dict(token.split("=", 1) for token in line.split())
        assert fields["group"] == str(i)
        assert fields["n"] == "400"
        assert fields["iterations"] == str(cal["binner"]["iterations"])
        assert fields["converged"] == str(int(float(fields["movement"]) < 1e-10))
    # baseline binners have no iterative fit to report
    assert main(
        [
            "fit", str(workdir / "mc-scores.csv"), str(workdir / "mc-labels.csv"),
            "-o", str(tmp_path / "eq.json"), "--method", "eq_mass",
        ]
    ) == 0
    assert "event=fit_group" not in capsys.readouterr().err


def test_fit_group_reports_the_final_loss_and_the_empty_bins(workdir, tmp_path, capsys):
    scores, labels = workdir / "mc-scores.csv", workdir / "mc-labels.csv"
    capsys.readouterr()
    outs = [tmp_path / "cw.json", tmp_path / "cw-again.json"]
    for out in outs:
        assert main(
            ["fit", str(scores), str(labels), "-o", str(out), "--bins", "6",
             "--strategy", "cw", "--seed", "3"]
        ) == 0
    # the seeding time is reported on stderr and kept out of the bundle
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert b"seed_s" not in outs[0].read_bytes()
    lines = [l for l in capsys.readouterr().err.splitlines() if l.startswith("event=fit_group")]
    data = PredictionMatrix(
        np.loadtxt(scores, delimiter=","), np.loadtxt(labels), RAW_LOGITS
    )
    fitted = fit_bundle(data, "imax", strategy="cw", config=ImaxConfig(n_bins=6, seed=3))
    assert len(lines) == 2 * len(fitted.calibrators) == 10
    for line, cal in zip(lines, 2 * fitted.calibrators):
        assert DIAG_LINE.match(line), line
        fields = dict(token.split("=", 1) for token in line.split())
        trace = cal.binner.diagnostics
        assert fields["loss"] == f"{trace.loss[-1]:.10g}"
        assert float(fields["loss"]) == pytest.approx(trace.loss[-1], rel=1e-9)
        assert int(fields["empty_bins"]) == trace.empty_bin_events
        assert re.fullmatch(r"\d+\.\d{3}", fields["seed_s"]), fields["seed_s"]


def test_fit_is_reproducible(workdir, tmp_path):
    a = _fit_bundle(workdir, name="a.json")
    args = [
        "fit", str(workdir / "mc-scores.csv"), str(workdir / "mc-labels.csv"),
        "-o", str(tmp_path / "b.json"), "--bins", "8", "--seed", "0",
    ]
    assert main(args) == 0
    assert a.read_bytes() == (tmp_path / "b.json").read_bytes()


def test_fit_grouping_flags(workdir, tmp_path):
    out = tmp_path / "g.json"
    assert main(
        [
            "fit", str(workdir / "mc-scores.csv"), str(workdir / "mc-labels.csv"),
            "-o", str(out), "--bins", "6", "--groups", "0-1,2-4",
        ]
    ) == 0
    doc = json.loads(out.read_text())
    assert doc["provenance"]["groups"] == [[0, 1], [2, 3, 4]]
    assert [cal["classes"] for cal in doc["calibrators"]] == [[0, 1], [2, 3, 4]]
    assert len(doc["calibrators"]) == 2
    # a group count picks prior quantiles instead
    assert main(
        [
            "fit", str(workdir / "mc-scores.csv"), str(workdir / "mc-labels.csv"),
            "-o", str(out), "--bins", "6", "--groups", "2",
        ]
    ) == 0
    assert len(json.loads(out.read_text())["calibrators"]) == 2
    # per-class strategy refuses explicit groups
    assert main(
        [
            "fit", str(workdir / "mc-scores.csv"), str(workdir / "mc-labels.csv"),
            "-o", str(out), "--strategy", "cw", "--groups", "2",
        ]
    ) == 2


def test_fit_scaler_shorthand(workdir, tmp_path):
    out = tmp_path / "h.json"
    assert main(
        [
            "fit", str(workdir / "mc-scores.csv"), str(workdir / "mc-labels.csv"),
            "-o", str(out), "--bins", "6", "--scaler", "temperature",
        ]
    ) == 0
    doc = json.loads(out.read_text())
    assert doc["provenance"]["method"] == "imax_with_scaler"
    assert main(
        [
            "fit", str(workdir / "mc-scores.csv"), str(workdir / "mc-labels.csv"),
            "-o", str(out), "--method", "imax_with_scaler", "--scaler", "none",
        ]
    ) == 2


def test_fit_usage_errors(workdir, tmp_path, capsys):
    out = str(tmp_path / "x.json")
    base = ["fit", str(workdir / "mc-scores.csv"), str(workdir / "mc-labels.csv"), "-o", out]
    assert main(base + ["--method", "isotonic"]) == 2
    assert main(base + ["--rep-strategy", "mode"]) == 2
    assert main(base + ["--holdout-frac", "1.0"]) == 2
    assert main(base + ["--seed", "-1"]) == 2
    # flags a method would ignore
    for method in ("platt", "eq_size", "eq_mass", "temperature"):
        assert main(base + ["--method", method, "--scaler", "temperature"]) == 2
    assert main(base + ["--method", "temperature", "--groups", "2"]) == 2
    for extra in (
        ["--method", "platt", "--rep-strategy", "raw-prob-mean"],
        ["--method", "platt", "--rep-strategy", "empirical-freq"],  # the default, but given
        ["--method", "platt", "--bins", "15"],
        ["--method", "temperature", "--bins", "7"],
        ["--method", "temperature", "--rep-strategy", "raw-prob-mean"],
        ["--method", "imax", "--scaler", "platt", "--rep-strategy", "raw-prob-mean"],
        ["--method", "imax-with-scaler", "--scaler", "temperature", "--rep-strategy",
         "empirical-freq"],
    ):
        assert main(base + extra) == 2, extra
    # flag values are checked before any file is read
    missing = ["fit", str(tmp_path / "missing.csv"), str(workdir / "mc-labels.csv"), "-o", out]
    assert main(missing + ["--bins", "1"]) == 2
    assert main(missing + ["--method", "platt", "--bins", "7"]) == 2
    for extra in (
        ["--strategy", "cw", "--groups", "2"],
        ["--method", "temperature", "--strategy", "cw"],
        ["--method", "platt", "--strategy", "cw"],
        ["--method", "temperature", "--groups", "2"],
        ["--method", "platt", "--scaler", "temperature"],
        ["--method", "imax_with_scaler"],
        ["--groups", "2-0"],
        ["--groups", "0"],
        ["--groups=-1"],
        ["--groups", "0-3,2-5"],
        ["--groups", "0,0"],
        ["--method", "temperature", "--input-kind", "probs"],
        ["--scaler", "temperature", "--input-kind", "probs"],
    ):
        assert main(missing + extra) == 2, extra
    for extra, message in (
        (["--groups", "a"], "bad --groups value 'a'"),
        (["--groups", ","], "no --groups value in [',']"),
    ):
        capsys.readouterr()
        assert main(missing + extra) == 2, extra
        assert message in capsys.readouterr().err, extra
    assert not (tmp_path / "x.json").exists()
    # defaults stay silent, and the flags still apply where a method uses them
    for extra in (
        ["--method", "platt"],
        ["--method", "imax", "--scaler", "platt", "--bins", "6"],
        ["--method", "eq_mass", "--bins", "6", "--rep-strategy", "raw-prob-mean"],
    ):
        assert main(base + extra) == 0, extra


def test_fit_data_and_fit_errors(workdir, tmp_path, capsys):
    out = str(tmp_path / "x.json")
    scores = str(workdir / "mc-scores.csv")
    labels = str(workdir / "mc-labels.csv")
    assert main(["fit", scores, str(workdir / "bin-labels.csv"), "-o", out]) == 3  # length mismatch
    capsys.readouterr()
    assert main(["fit", scores, str(workdir / "bin-scores.csv"), "-o", out]) == 3  # two columns
    assert "must have one column" in capsys.readouterr().err
    assert main(["fit", str(workdir / "missing.csv"), labels, "-o", out]) == 3
    assert main(["fit", scores, labels, "-o", out, "--input-kind", "probs"]) == 3
    # group specs that need the class count K=5: more groups than classes,
    # and groups that miss class 4
    for groups in ("6", "0-1,2-3"):
        assert main(["fit", scores, labels, "-o", out, "--groups", groups]) == 3, groups
    # four rows merged over three classes cannot feed fifteen bins
    assert main(
        ["synth", "--multiclass", "--k", "3", "--n", "4", "--out-prefix", str(tmp_path / "tiny")]
    ) == 0
    assert main(
        ["fit", str(tmp_path / "tiny-scores.csv"), str(tmp_path / "tiny-labels.csv"), "-o", out]
    ) == 4


@pytest.mark.parametrize("empty", ["scores", "labels"])
def test_an_empty_csv_prints_one_data_error_line(workdir, tmp_path, capsys, empty):
    files = {"scores": str(workdir / "mc-scores.csv"), "labels": str(workdir / "mc-labels.csv")}
    (tmp_path / "empty.csv").write_text("")
    files[empty] = str(tmp_path / "empty.csv")
    for command in (["eval"], ["fit", "-o", str(tmp_path / "x.json")]):
        capsys.readouterr()
        assert main([*command, files["scores"], files["labels"]]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error=data "), err


@pytest.mark.parametrize("bad", ["1.5", "nan", "inf", "1e30"])
def test_a_bad_label_file_is_a_data_error(workdir, tmp_path, capsys, bad):
    labels = (workdir / "mc-labels.csv").read_text().splitlines()
    labels[3] = bad
    (tmp_path / "labels.csv").write_text("\n".join(labels) + "\n")
    capsys.readouterr()
    assert main(
        ["fit", str(workdir / "mc-scores.csv"), str(tmp_path / "labels.csv"),
         "-o", str(tmp_path / "x.json")]
    ) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and "Warning" not in err
    assert all(DIAG_LINE.match(line) for line in err.splitlines()), err


def test_fit_holdout_split(workdir, tmp_path, capsys):
    out = tmp_path / "hold.json"
    assert main(
        [
            "fit", str(workdir / "mc-scores.csv"), str(workdir / "mc-labels.csv"),
            "-o", str(out), "--bins", "6", "--holdout-frac", "0.25", "--seed", "3",
        ]
    ) == 0
    err = capsys.readouterr().err
    split_line = next(l for l in err.splitlines() if l.startswith("event=holdout_split"))
    assert DIAG_LINE.match(split_line)
    held_scores = np.loadtxt(tmp_path / "hold.holdout-scores.csv", delimiter=",")
    held_labels = np.loadtxt(tmp_path / "hold.holdout-labels.csv", dtype=np.int64)
    assert held_scores.shape[0] == held_labels.shape[0]
    assert 0 < held_scores.shape[0] < 400
    fit_n = int(re.search(r"fit_n=(\d+)", split_line).group(1))
    assert fit_n + held_scores.shape[0] == 400


def test_a_holdout_with_no_samples_is_a_data_error_before_any_file_is_written(tmp_path, capsys):
    # 1 % of about 15 rows per class rounds to no holdout row at all
    prefix = str(tmp_path / "small")
    assert main(["synth", "--n", "30", "--seed", "1", "--out-prefix", prefix]) == 0
    capsys.readouterr()
    out = tmp_path / "small.json"
    assert main(
        ["fit", f"{prefix}-scores.csv", f"{prefix}-labels.csv", "-o", str(out), "--bins", "2",
         "--holdout-frac", "0.01"]
    ) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error=data "), err
    assert "no holdout samples" in err[0]
    assert not out.exists()
    assert not (tmp_path / "small.holdout-scores.csv").exists()
    assert not (tmp_path / "small.holdout-labels.csv").exists()


def test_a_class_with_one_row_keeps_it_for_the_fit(tmp_path, capsys):
    # 0.9 of one row rounds to one held-out row, which would leave class 2
    # with no fit row; the split keeps the row for the fit instead
    rng = np.random.default_rng(8)
    labels = np.array([0] * 20 + [1] * 20 + [2])
    scores = rng.normal(size=(labels.size, 3))
    np.savetxt(tmp_path / "s.csv", scores, delimiter=",")
    np.savetxt(tmp_path / "l.csv", labels, fmt="%d")
    out = tmp_path / "one.json"
    assert main(
        ["fit", str(tmp_path / "s.csv"), str(tmp_path / "l.csv"), "-o", str(out),
         "--method", "eq_size", "--bins", "2", "--holdout-frac", "0.9"]
    ) == 0
    assert "fit_n=5 holdout_n=36" in capsys.readouterr().err
    held_scores = np.loadtxt(tmp_path / "one.holdout-scores.csv", delimiter=",")
    held_labels = np.loadtxt(tmp_path / "one.holdout-labels.csv", dtype=np.int64)
    assert 2 not in held_labels
    assert not np.any(np.all(held_scores == scores[-1], axis=1))


def test_a_fit_that_fails_after_the_holdout_split_writes_no_file(tmp_path, capsys):
    # two fit rows over two classes merge into four samples, too few for the
    # default bins: the fit fails (exit 4) after the holdout is split off
    np.savetxt(tmp_path / "s.csv", [[0.5, -0.5], [-1.0, 1.0], [2.0, 0.0]], delimiter=",")
    np.savetxt(tmp_path / "l.csv", [0, 1, 0], fmt="%d")
    out = tmp_path / "few.json"
    assert main(
        ["fit", str(tmp_path / "s.csv"), str(tmp_path / "l.csv"), "-o", str(out),
         "--holdout-frac", "0.5"]
    ) == 4
    assert "need at least" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["l.csv", "s.csv"]


@pytest.mark.parametrize("command", ["fit --holdout-frac", "synth", "eval", "mi-report link"])
def test_a_command_that_fails_removes_the_outputs_it_created(workdir, tmp_path, capsys, command):
    # the last path each command writes is a directory, so it fails after
    # writing the others; mi-report writes through a dangling link into that
    # directory and fails on its scores, so the file it created is the link's
    # target, and the link is left dangling
    mc = [str(workdir / "mc-scores.csv"), str(workdir / "mc-labels.csv")]
    bad, link = tmp_path / "bad.csv", tmp_path / "link.csv"
    blocked, argv = {
        "fit --holdout-frac": (
            tmp_path / "b",
            ["fit", *mc, "-o", str(tmp_path / "b"), "--bins", "4", "--holdout-frac", "0.2"],
        ),
        "synth": (
            tmp_path / "x-spec.json", ["synth", "--n", "50", "--out-prefix", str(tmp_path / "x")]
        ),
        "eval": (
            tmp_path / "r.csv",
            ["eval", *mc, "--bundle", str(_fit_bundle(workdir)), "-o", str(tmp_path / "r.json"),
             "--csv", str(tmp_path / "r.csv")],
        ),
        "mi-report link": (
            tmp_path / "target",
            ["mi-report", str(bad), str(workdir / "bin-labels.csv"), "-o", str(link)],
        ),
    }[command]
    blocked.mkdir()
    if command == "mi-report link":
        bad.write_text("a,b\n")
        link.symlink_to(blocked / "new.csv")
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main(argv) == 3
    [error] = capsys.readouterr().err.splitlines()
    if command == "mi-report link":
        assert error.startswith(f'error=data msg="parse failure in {bad}: ')
        assert link.is_symlink()
    else:
        # every output path is opened before any input is read, so the
        # command fails before it reports any work
        assert error.startswith(f'error=data msg="cannot write {blocked}: ')
    assert sorted(tmp_path.rglob("*")) == before


def test_a_command_that_fails_keeps_an_output_file_that_existed(workdir, tmp_path, capsys):
    report = tmp_path / "r.json"
    report.write_text("{}\n")
    (tmp_path / "r.csv").mkdir()
    assert main(
        ["eval", str(workdir / "mc-scores.csv"), str(workdir / "mc-labels.csv"),
         "--bundle", str(_fit_bundle(workdir)), "-o", str(report), "--csv", str(tmp_path / "r.csv")]
    ) == 3
    assert "cannot write" in capsys.readouterr().err
    assert report.read_text() == "{}\n"


# --- apply -----------------------------------------------------------------

def test_apply_quantizes_each_column(workdir, tmp_path):
    bundle = _fit_bundle(workdir)
    out = tmp_path / "cal.csv"
    assert main(["apply", str(bundle), str(workdir / "mc-scores.csv"), "-o", str(out)]) == 0
    cal = np.loadtxt(out, delimiter=",")
    assert cal.shape == (400, 5)
    assert cal.min() >= 0.0 and cal.max() <= 1.0
    for col in range(5):
        assert np.unique(cal[:, col]).size <= 8


def test_the_scores_file_gives_eval_the_raw_scores_of_applied_output(workdir, tmp_path):
    # eval --raw-scores takes the file apply read: the report on apply's
    # output equals the report through the bundle, tie breaks included
    bundle = str(_fit_bundle(workdir))
    scores, labels = str(workdir / "mc-scores.csv"), str(workdir / "mc-labels.csv")
    cal = str(tmp_path / "cal.csv")
    assert main(["apply", bundle, scores, "-o", cal]) == 0
    flags = ["--tie-break", "raw-logit", "--bootstrap", "3"]
    reports = [tmp_path / "r1.json", tmp_path / "r2.json", tmp_path / "r3.json"]
    assert main(["eval", cal, labels, "--raw-scores", scores, "--eval-scheme", "exact",
                 *flags, "-o", str(reports[0])]) == 0
    assert main(["eval", scores, labels, "--bundle", bundle, *flags, "-o", str(reports[1])]) == 0
    assert main(["eval", scores, labels, "--bundle", bundle, "--bootstrap", "3",
                 "-o", str(reports[2])]) == 0
    assert reports[0].read_bytes() == reports[1].read_bytes()
    # the raw scores decide some ties here
    by_raw, by_index = (json.loads(r.read_text())["accuracy"] for r in reports[1:])
    assert by_raw["top1"] != by_index["top1"]


def test_the_probability_path_equals_the_library_bit_for_bit(workdir, tmp_path):
    # fit --input-kind probs records the kind in the bundle, and apply and
    # eval --bundle read it from there
    probs = softmax(np.loadtxt(workdir / "mc-scores.csv", delimiter=","))
    labels = np.loadtxt(workdir / "mc-labels.csv", dtype=np.int64)
    scores, bundle, cal, report, mi = (
        tmp_path / name for name in ("probs.csv", "b.json", "c.csv", "r.json", "m.csv")
    )
    scores.write_text("".join(",".join(map(repr, row)) + "\n" for row in probs.tolist()))
    fit_on = [str(scores), str(workdir / "mc-labels.csv")]
    assert main(["fit", *fit_on, "-o", str(bundle), "--input-kind", "probs",
                 "--groups", "2", "--bins", "8"]) == 0
    assert main(["apply", str(bundle), str(scores), "-o", str(cal)]) == 0
    assert main(["eval", *fit_on, "--bundle", str(bundle), "-o", str(report)]) == 0
    assert main(["mi-report", *fit_on, "--input-kind", "probs", "--bins", "4", "--bins", "8",
                 "-o", str(mi)]) == 0

    data = PredictionMatrix(probs, labels, PROBABILITIES)
    fitted = fit_bundle(data, "imax", groups_spec=2, config=ImaxConfig(n_bins=8, seed=0))
    assert bundle.read_text() == fitted.to_json()
    calibrated = apply_bundle(fitted, probs, PROBABILITIES)
    got = np.loadtxt(cal, delimiter=",")
    np.testing.assert_array_equal(got.view(np.uint64), calibrated.view(np.uint64))
    want = build_report(calibrated, labels, EvalConfig(eval_scheme=SCHEME_EXACT))
    assert report.read_text() == json.dumps(want.to_dict(), indent=2) + "\n"
    pooled = ovr_set(data.ovr_logits(), labels, range(data.n_classes))
    named = [
        (method, fit_edges(pooled, method, ImaxConfig(n_bins=m, seed=0)))
        for m in (4, 8)
        for method in ("imax", "eq_size", "eq_mass")
    ]
    assert mi.read_text() == mi_report_csv(mi_report(pooled, named, mi_bound_of_set(pooled)))


def test_apply_error_paths(workdir, tmp_path):
    bundle = _fit_bundle(workdir)
    out = str(tmp_path / "cal.csv")
    # class-count mismatch between bundle and scores
    assert main(["apply", str(bundle), str(workdir / "bin-scores.csv"), "-o", out]) == 3
    assert main(["apply", str(tmp_path / "nope.json"), str(workdir / "mc-scores.csv"), "-o", out]) == 3
    tampered = tmp_path / "tampered.json"
    doc = json.loads(bundle.read_text())
    doc["version"] = "4"
    tampered.write_text(json.dumps(doc))
    assert main(["apply", str(tampered), str(workdir / "mc-scores.csv"), "-o", out]) == 3


@pytest.mark.parametrize("suffix", cli_mod._COMPRESSED)
def test_apply_refuses_an_output_name_the_reader_would_decompress(tmp_path, capsys, suffix):
    # refused before the missing inputs are read, and no file is made
    out = tmp_path / f"cal.csv{suffix}"
    args = ["apply", str(tmp_path / "b.json"), str(tmp_path / "s.csv"), "-o", str(out)]
    assert main(args) == 2
    assert "error=usage" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "field,value",
    [
        ("reps", [float("nan")] * 8),
        ("iterations", None),
        ("edges", ["a"] * 7),
        ("method", "bogus"),
        ("reps", None),
    ],
)
def test_a_malformed_binner_is_a_data_error(workdir, tmp_path, capsys, field, value):
    bundle = _fit_bundle(workdir)
    doc = json.loads(bundle.read_text())
    doc["calibrators"][0]["binner"][field] = value
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(
        [
            "eval", str(workdir / "mc-scores.csv"), str(workdir / "mc-labels.csv"),
            "--bundle", str(tampered),
        ]
    ) == 3
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err and "error=data" in captured.err
    assert "top1_ece" not in captured.out
    out = tmp_path / "c.csv"
    assert main(["apply", str(tampered), str(workdir / "mc-scores.csv"), "-o", str(out)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and "error=data" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "mutate",
    [
        pytest.param(lambda doc: doc.update(n_classes="x"), id="n_classes"),
        pytest.param(lambda doc: doc.update(n_classes="5"), id="n_classes-numeric-text"),
        pytest.param(lambda doc: doc.update(n_classes=5.9), id="n_classes-float"),
        pytest.param(lambda doc: doc.update(n_classes=10**12), id="n_classes-huge"),
        pytest.param(lambda doc: doc["calibrators"][0]["classes"].__setitem__(1, 1.9),
                     id="class-float"),
        pytest.param(lambda doc: doc["calibrators"][0]["classes"].__setitem__(2, "2"),
                     id="class-text"),
        *(
            pytest.param(
                lambda doc, field=field, value=value: doc["calibrators"][0]["binner"].update(
                    {field: value(doc["calibrators"][0]["binner"][field])}
                ),
                id=f"binner-{name}",
            )
            for name, field, value in [
                ("iterations-text", "iterations", str),
                ("iterations-float", "iterations", lambda n: n + 0.9),
                ("iterations-negative", "iterations", lambda n: -3),
                ("method-object", "method", lambda s: {"x": [1]}),
                ("edges-text", "edges", lambda edges: [repr(v) for v in edges]),
            ]
        ),
        pytest.param(lambda doc: doc.update(calibrators=None), id="calibrators"),
        pytest.param(lambda doc: doc["calibrators"][0].update(classes=3), id="classes"),
        *(
            pytest.param(
                lambda doc, scaler=scaler: doc["calibrators"][0].update(
                    binner=None, scaler=scaler
                ),
                id=f"scaler-{name}",
            )
            for name, scaler in [
                ("temperature-text", {"kind": "temperature", "temperature": "x"}),
                ("temperature-numeric-text", {"kind": "temperature", "temperature": "1.5"}),
                ("temperature-null", {"kind": "temperature", "temperature": None}),
                ("temperature-list", {"kind": "temperature", "temperature": [1.0]}),
                ("temperature-bool", {"kind": "temperature", "temperature": True}),
                ("temperature-negative", {"kind": "temperature", "temperature": -1.0}),
                ("temperature-zero", {"kind": "temperature", "temperature": 0}),
                ("temperature-nan", {"kind": "temperature", "temperature": float("nan")}),
                ("temperature-huge-int", {"kind": "temperature", "temperature": 10**400}),
                ("platt-text", {"kind": "platt", "a": "x", "b": 0.0}),
                ("platt-null", {"kind": "platt", "a": 1.0, "b": None}),
                ("platt-inf", {"kind": "platt", "a": float("inf"), "b": 0.0}),
            ]
        ),
    ],
)
def test_a_malformed_bundle_is_a_data_error(workdir, tmp_path, capsys, mutate):
    doc = json.loads(_fit_bundle(workdir).read_text())
    mutate(doc)
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(
        ["apply", str(tampered), str(workdir / "mc-scores.csv"), "-o", str(tmp_path / "c.csv")]
    ) == 3
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


# a version "1" bundle, as that format's writer wrote it for eq_size with
# two bins on the mc pair: it also listed the groups, and each binner's phi
# levels and seed
_VERSION_1_BUNDLE = (
    '{"version": "1", "strategy": "scw", "n_classes": 5, "input_kind": "raw_logits",'
    ' "grouping": {"mode": "one_for_all", "groups": [[0, 1, 2, 3, 4]]},'
    ' "calibrators": [{"classes": [0, 1, 2, 3, 4], "binner": {"method": "eq_size",'
    ' "edges": [0.0], "phis": [-0.5, 0.5], "reps": [0.05772811918063315, 0.7892030848329049],'
    ' "seed": 0, "iterations": 0}, "scaler": null}],'
    ' "provenance": {"seed": 0, "method": "eq_size", "n_bins": 2,'
    ' "rep_strategy": "empirical_freq", "n_fit_samples": 400}}\n'
)
# the same fit as format 2 wrote it: it also kept the strategy and the
# grouping mode at the top level
_VERSION_2_BUNDLE = (
    '{"version": "2", "strategy": "scw", "n_classes": 5, "input_kind": "raw_logits",'
    ' "grouping": "one_for_all",'
    ' "calibrators": [{"classes": [0, 1, 2, 3, 4], "binner": {"method": "eq_size",'
    ' "edges": [0.0], "reps": [0.05772811918063315, 0.7892030848329049],'
    ' "iterations": 0}, "scaler": null}],'
    ' "provenance": {"seed": 0, "method": "eq_size", "n_bins": 2,'
    ' "rep_strategy": "empirical_freq", "n_fit_samples": 400}}\n'
)


@pytest.mark.parametrize("command", ["apply", "eval"])
def test_a_version_1_bundle_must_be_refit(workdir, tmp_path, capsys, command):
    # and so must a version "2" one
    for version, text in [("1", _VERSION_1_BUNDLE), ("2", _VERSION_2_BUNDLE)]:
        old = tmp_path / f"v{version}.json"
        old.write_text(text)
        scores, labels = str(workdir / "mc-scores.csv"), str(workdir / "mc-labels.csv")
        out = tmp_path / "out"
        args = {
            "apply": ["apply", str(old), scores, "-o", str(out)],
            "eval": ["eval", scores, labels, "--bundle", str(old), "-o", str(out)],
        }[command]
        capsys.readouterr()
        assert main(args) == 3
        err = capsys.readouterr().err
        assert f"unsupported bundle version '{version}'" in err and "Traceback" not in err
        assert not out.exists()


def test_a_bundle_that_is_not_utf8_is_a_data_error(workdir, tmp_path, capsys):
    raw = tmp_path / "raw.json"
    raw.write_bytes(b"\xff\xfe" + _fit_bundle(workdir).read_bytes())
    capsys.readouterr()
    assert main(
        ["apply", str(raw), str(workdir / "mc-scores.csv"), "-o", str(tmp_path / "c.csv")]
    ) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err and "error=data" in err
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("fault", sorted(_FAULTY_TEXTS))
def test_a_bundle_text_the_parser_rejects_is_a_data_error(workdir, tmp_path, capsys, fault):
    raw = tmp_path / "raw.json"
    raw.write_text(_faulty_text(_fit_bundle(workdir).read_text(), fault))
    capsys.readouterr()
    assert main(
        ["apply", str(raw), str(workdir / "mc-scores.csv"), "-o", str(tmp_path / "c.csv")]
    ) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert sum("error=data" in line for line in err.splitlines()) == 1
    assert re.search(_FAULTY_TEXTS[fault][2], err), err
    assert not (tmp_path / "c.csv").exists()


# --- eval ------------------------------------------------------------------

def test_eval_defaults_without_a_bundle(workdir, tmp_path, capsys):
    bundle = _fit_bundle(workdir)
    cal = tmp_path / "cal.csv"
    assert main(["apply", str(bundle), str(workdir / "mc-scores.csv"), "-o", str(cal)]) == 0
    report = tmp_path / "rep.json"
    assert main(
        ["eval", str(cal), str(workdir / "mc-labels.csv"), "-o", str(report)]
    ) == 0
    stdout = capsys.readouterr().out
    assert "top1_ece" in stdout
    doc = json.loads(report.read_text())
    assert doc["eval_scheme"] == "eq_size"
    assert doc["n_eval_bins"] == 100
    assert set(doc["cw_ece"]) == {"class_prior"}
    assert set(doc["accuracy"]) == {"top1", "top5"}


def test_eval_rejects_uncalibrated_scores(workdir, tmp_path, capsys):
    assert main(
        ["eval", str(workdir / "mc-scores.csv"), str(workdir / "mc-labels.csv")]
    ) == 3
    # one NaN cell in otherwise calibrated scores
    cal = np.full((400, 5), 0.2)
    cal[7, 2] = np.nan
    np.savetxt(tmp_path / "nan.csv", cal, delimiter=",")
    capsys.readouterr()
    assert main(["eval", str(tmp_path / "nan.csv"), str(workdir / "mc-labels.csv")]) == 3
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert "top1_ece" not in captured.out


def test_eval_through_a_bundle_defaults_to_exact_grouping(workdir, tmp_path):
    bundle = _fit_bundle(workdir)
    report = tmp_path / "rep.json"
    assert main(
        [
            "eval", str(workdir / "mc-scores.csv"), str(workdir / "mc-labels.csv"),
            "--bundle", str(bundle), "-o", str(report),
        ]
    ) == 0
    assert json.loads(report.read_text())["eval_scheme"] == "exact_grouping"


def test_eval_bin_sweep_is_flat_under_exact_grouping(workdir, tmp_path, capsys):
    bundle = _fit_bundle(workdir)
    report = tmp_path / "rep.json"
    assert main(
        [
            "eval", str(workdir / "mc-scores.csv"), str(workdir / "mc-labels.csv"),
            "--bundle", str(bundle), "-o", str(report),
            "--eval-scheme", "exact_grouping", "--eval-bins", "10", "--eval-bins", "1000",
        ]
    ) == 0
    docs = json.loads(report.read_text())
    assert isinstance(docs, list) and len(docs) == 2
    assert docs[0]["top1_ece"] == docs[1]["top1_ece"]
    assert "# eval_bins=10" in capsys.readouterr().out


def test_eval_bin_sweep_equals_single_bin_runs(workdir, tmp_path):
    bundle = _fit_bundle(workdir)
    cal = tmp_path / "cal.csv"
    assert main(["apply", str(bundle), str(workdir / "mc-scores.csv"), "-o", str(cal)]) == 0
    common = ["eval", str(cal), str(workdir / "mc-labels.csv"), "--bootstrap", "3",
              "--cw-threshold", "prior,zero"]
    assert main([*common, "-o", str(tmp_path / "sweep.json"),
                 "--eval-bins", "10", "--eval-bins", "100"]) == 0
    singles = []
    for bins in ("10", "100"):
        assert main([*common, "-o", str(tmp_path / "one.json"), "--eval-bins", bins]) == 0
        singles.append(json.loads((tmp_path / "one.json").read_text()))
    assert json.loads((tmp_path / "sweep.json").read_text()) == singles


def test_eval_reports_its_timing_on_stderr(workdir, tmp_path, capsys):
    bundle = _fit_bundle(workdir)
    capsys.readouterr()
    assert main(
        [
            "eval", str(workdir / "mc-scores.csv"), str(workdir / "mc-labels.csv"),
            "--bundle", str(bundle), "--bootstrap", "2",
            "--eval-bins", "10", "--eval-bins", "100",
        ]
    ) == 0
    captured = capsys.readouterr()
    lines = [l for l in captured.err.splitlines() if l.startswith("event=eval ")]
    assert len(lines) == 1 and DIAG_LINE.match(lines[0]), captured.err
    fields = dict(token.split("=", 1) for token in lines[0].split())
    assert set(fields) == {"event", "n", "k", "reports", "bootstrap", "rank_s", "report_s"}
    assert (fields["n"], fields["k"], fields["reports"], fields["bootstrap"]) == (
        "400", "5", "10,100", "2",
    )
    assert float(fields["rank_s"]) >= 0.0 and float(fields["report_s"]) >= 0.0
    assert "rank_s" not in captured.out


def test_eval_threshold_and_topk_flags(workdir, tmp_path, capsys):
    bundle = _fit_bundle(workdir)
    cal = tmp_path / "cal.csv"
    assert main(["apply", str(bundle), str(workdir / "mc-scores.csv"), "-o", str(cal)]) == 0
    csv_out = tmp_path / "rep.csv"
    report = tmp_path / "rep.json"
    assert main(
        [
            "eval", str(cal), str(workdir / "mc-labels.csv"),
            "--csv", str(csv_out), "-o", str(report),
            "--cw-threshold", "zero,one-over-k", "--cw-threshold", "prior", "--cw-threshold", "half",
            "--top-k", "1,3",
        ]
    ) == 0
    lines = csv_out.read_text().strip().splitlines()
    cw_rows = [l for l in lines if l.startswith("100,cw_ece,")]
    assert len(cw_rows) == 4
    doc = json.loads(report.read_text())
    assert set(doc["accuracy"]) == {"top1", "top3"}
    assert set(doc["cw_ece"]) == {"zero", "one_over_k", "class_prior", "half"}
    # no calibrated probability of any class lies above 0.99
    capsys.readouterr()
    assert main(
        [
            "eval", str(workdir / "mc-scores.csv"), str(workdir / "mc-labels.csv"),
            "--bundle", str(bundle), "--cw-threshold", "0.99",
        ]
    ) == 0
    err = capsys.readouterr().err.splitlines()
    assert "event=zero_kept_classes threshold=0.99 count=5" in err, err


def test_eval_tie_break_needs_raw_scores(workdir, tmp_path):
    bundle = _fit_bundle(workdir)
    cal = tmp_path / "cal.csv"
    assert main(["apply", str(bundle), str(workdir / "mc-scores.csv"), "-o", str(cal)]) == 0
    assert main(
        ["eval", str(cal), str(workdir / "mc-labels.csv"), "--tie-break", "raw-logit"]
    ) == 2
    assert main(
        [
            "eval", str(cal), str(workdir / "mc-labels.csv"),
            "--tie-break", "raw-logit", "--raw-scores", str(workdir / "mc-scores.csv"),
        ]
    ) == 0
    for bad in ("nan", "inf"):
        raw = np.loadtxt(workdir / "mc-scores.csv", delimiter=",")
        raw[7, 2] = float(bad)
        np.savetxt(tmp_path / "raw.csv", raw, delimiter=",")
        assert main(
            [
                "eval", str(cal), str(workdir / "mc-labels.csv"),
                "--tie-break", "raw-logit", "--raw-scores", str(tmp_path / "raw.csv"),
            ]
        ) == 3
    assert main(
        [
            "eval", str(workdir / "mc-scores.csv"), str(workdir / "mc-labels.csv"),
            "--bundle", str(bundle), "--tie-break", "raw-logit",
        ]
    ) == 0


def test_eval_bootstrap_block(workdir, tmp_path):
    bundle = _fit_bundle(workdir)
    report = tmp_path / "rep.json"
    assert main(
        [
            "eval", str(workdir / "mc-scores.csv"), str(workdir / "mc-labels.csv"),
            "--bundle", str(bundle), "-o", str(report), "--bootstrap", "3",
        ]
    ) == 0
    doc = json.loads(report.read_text())
    assert doc["bootstrap"]["n_resamples"] == 3


@pytest.mark.parametrize("eval_bins", [["--eval-bins", "15"], []], ids=["15-bins", "default"])
def test_imax_eval_scheme_scores_a_binning_bundle(workdir, tmp_path, eval_bins):
    # a 15-bin calibrator outputs at most 15 distinct values, one eval bin each
    bundle = tmp_path / "b15.json"
    mc = [str(workdir / "mc-scores.csv"), str(workdir / "mc-labels.csv")]
    assert main(["fit", *mc, "-o", str(bundle), "--bins", "15", "--seed", "0"]) == 0
    reports = {}
    for scheme in ("imax_eval", "exact_grouping"):
        out = tmp_path / f"{scheme}.json"
        assert main(
            ["eval", *mc, "--bundle", str(bundle), "--eval-scheme", scheme, "-o", str(out),
             *eval_bins]
        ) == 0
        reports[scheme] = json.loads(out.read_text())
    imax, exact = reports["imax_eval"], reports["exact_grouping"]
    assert imax["top1_ece"] == pytest.approx(exact["top1_ece"], rel=0, abs=1e-12)
    assert imax["cw_ece"]["class_prior"]["mean"] == pytest.approx(
        exact["cw_ece"]["class_prior"]["mean"], rel=0, abs=1e-12
    )


@pytest.mark.parametrize(
    "command,extra,flag,spelling,name",
    [
        *(("eval", [], "--eval-scheme", s, n) for s, n in [
            ("eq-size", "eq_size"), ("eq-mass", "eq_mass"), ("imax", "imax_eval"),
            ("imax-eval", "imax_eval"), ("exact", "exact_grouping"),
            ("exact-grouping", "exact_grouping"),
        ]),
        *(("eval", [], "--cw-threshold", s, n) for s, n in [
            ("one-over-k", "one_over_k"), ("prior", "class_prior"), ("class-prior", "class_prior"),
        ]),
        ("fit", [], "--method", "eq-size", "eq_size"),
        ("fit", [], "--method", "eq-mass", "eq_mass"),
        ("fit", ["--scaler", "platt"], "--method", "imax-with-scaler", "imax_with_scaler"),
        ("fit", [], "--rep-strategy", "empirical-freq", "empirical_freq"),
        ("fit", [], "--rep-strategy", "raw-prob-mean", "raw_prob_mean"),
        ("mi-report", [], "--method", "eq-size", "eq_size"),
        ("mi-report", [], "--method", "eq-mass", "eq_mass"),
        ("eval", [], "--tie-break", "class-index", "class_index"),
        ("eval", [], "--tie-break", "raw-logit", "raw_logit"),
    ],
)
def test_every_flag_spelling_gives_what_its_name_gives(
    workdir, tmp_path, command, extra, flag, spelling, name
):
    mc = [str(workdir / "mc-scores.csv"), str(workdir / "mc-labels.csv")]
    if command == "eval":
        # a scaling bundle, so every scheme sees continuous confidences
        bundle = str(tmp_path / "platt.json")
        assert main(["fit", *mc, "-o", bundle, "--method", "platt"]) == 0
        head = ["eval", *mc, "--bundle", bundle, "--bootstrap", "2", "--eval-bins", "5"]
    elif command == "fit":
        head = ["fit", *mc, "--bins", "6"]
    else:
        head = ["mi-report", str(workdir / "bin-scores.csv"), str(workdir / "bin-labels.csv"),
                "--bins", "2,4"]
    outputs = []
    for i, value in enumerate((spelling, name)):
        out = tmp_path / f"{i}.out"
        assert main([*head, *extra, flag, value, "-o", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_eval_usage_errors(workdir, tmp_path):
    cal = str(workdir / "mc-scores.csv")
    labels = str(workdir / "mc-labels.csv")
    assert main(["eval", cal, labels, "--eval-scheme", "voronoi"]) == 2
    assert main(["eval", cal, labels, "--cw-threshold", "median"]) == 2
    assert main(["eval", cal, labels, "--eval-bins", "ten"]) == 2
    bundle = str(_fit_bundle(workdir))
    assert main(["eval", cal, labels, "--bundle", bundle, "--bootstrap", "2", "--seed", "-1"]) == 2
    # flags eval would ignore
    missing = str(tmp_path / "missing.csv")
    assert main(["eval", cal, labels, "--bundle", bundle, "--raw-scores", missing]) == 2
    # flag values are checked before any file is read
    for flag, value in [
        ("--bootstrap", "-1"), ("--eval-bins", "0"), ("--top-k", "0"), ("--cw-threshold", "1.5"),
    ]:
        assert main(["eval", missing, labels, "--bundle", bundle, flag, value]) == 2
    assert main(["eval", missing, labels, "--raw-scores", missing]) == 2  # class-index tie break


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("eval", "--eval-bins", ""),
        ("eval", "--top-k", " , "),
        ("eval", "--cw-threshold", ","),
        ("mi-report", "--bins", ""),
        ("mi-report", "--method", ""),
    ],
)
def test_a_repeatable_flag_of_only_empty_values_is_a_usage_error(
    tmp_path, capsys, command, flag, value
):
    # not its default, nor a run with no reports, bins or methods
    missing = [str(tmp_path / "scores.csv"), str(tmp_path / "labels.csv")]
    capsys.readouterr()
    assert main([command, *missing, flag, value]) == 2
    assert capsys.readouterr().err.startswith('error=usage msg="no ')


@pytest.mark.parametrize(
    "command, flag, repeated, once",
    [
        ("eval", "--eval-bins", "5,5", "5"),
        ("eval", "--top-k", "1,1", "1"),
        ("eval", "--cw-threshold", "prior,class_prior", "prior"),
        ("mi-report", "--bins", "4,4", "4"),
        ("mi-report", "--method", "imax,eq-mass,imax", "imax,eq-mass"),
    ],
)
def test_a_repeated_value_counts_once(workdir, tmp_path, command, flag, repeated, once):
    if command == "eval":
        head = ["eval", str(workdir / "mc-scores.csv"), str(workdir / "mc-labels.csv"),
                "--bundle", str(_fit_bundle(workdir))]
    else:
        head = ["mi-report", str(workdir / "bin-scores.csv"), str(workdir / "bin-labels.csv"),
                *(["--method", "imax,eq-size"] if flag == "--bins" else ["--bins", "2"])]
    outputs = []
    for i, value in enumerate((repeated, once)):
        out = tmp_path / f"{i}.out"
        assert main([*head, flag, value, "-o", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_two_outputs_cannot_name_one_file(workdir, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    head = ["eval", str(workdir / "mc-scores.csv"), str(workdir / "mc-labels.csv"),
            "--bundle", str(_fit_bundle(workdir))]
    capsys.readouterr()
    for csv_out in ("r.out", str(tmp_path / "r.out")):
        # the JSON report would be written, then lost under the CSV
        assert main([*head, "-o", "r.out", "--csv", csv_out]) == 2, csv_out
        assert "are one file" in capsys.readouterr().err
    assert not (tmp_path / "r.out").exists()
    # a path that is not a regular file, such as the null device, may repeat
    assert main([*head, "-o", os.devnull, "--csv", os.devnull]) == 0


def test_eval_reads_its_bundle_before_its_csvs(workdir, tmp_path, capsys, monkeypatch):
    # as apply does: a bundle that does not load costs no parse of a scores file
    truncated = tmp_path / "truncated.json"
    truncated.write_text(_fit_bundle(workdir).read_text()[:-20])
    scores, labels = str(workdir / "mc-scores.csv"), str(workdir / "mc-labels.csv")
    capsys.readouterr()
    assert main(["apply", str(truncated), scores, "-o", str(tmp_path / "c.csv")]) == 3
    applied = capsys.readouterr().err
    reads = []
    read_matrix = cli_mod._read_matrix

    def counted(path):
        reads.append(path)
        return read_matrix(path)

    monkeypatch.setattr(cli_mod, "_read_matrix", counted)
    assert main(["eval", scores, labels, "--bundle", str(truncated)]) == 3
    assert reads == []
    assert capsys.readouterr().err == applied


def test_one_imax_eval_bin_is_a_usage_error_before_any_file_is_read(tmp_path, capsys):
    missing = [str(tmp_path / "scores.csv"), str(tmp_path / "labels.csv")]
    capsys.readouterr()
    assert main(["eval", *missing, "--eval-scheme", "imax", "--eval-bins", "1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ['error=usage msg="n_eval_bins must be an integer >= 2, got 1"']


@pytest.mark.parametrize("command", ["fit", "synth", "eval"])
def test_a_count_beyond_int64_is_one_usage_line(workdir, tmp_path, capsys, command):
    # each sizes an array by the count, which numpy would refuse with a bare ValueError
    huge = str(10**23)
    mc = [str(workdir / "mc-scores.csv"), str(workdir / "mc-labels.csv")]
    argv = {
        "fit": ["fit", *mc, "-o", str(tmp_path / "b.json"), "--method", "eq_size", "--bins", huge],
        "synth": ["synth", "--n", huge, "--out-prefix", str(tmp_path / "s")],
        "eval": ["eval", *mc, "--bundle", str(_fit_bundle(workdir)), "--eval-scheme", "eq_size",
                 "--eval-bins", huge],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error=usage ") and "below 2**63" in err[0], err


def test_an_eq_size_fit_with_more_bins_than_samples_is_one_fit_line(
    workdir, tmp_path, capsys, monkeypatch
):
    # 2**40 bins would ask numpy for 8 TiB of edges; the sample count stops
    # the fit before fit_eq_size runs
    def no_edges(n_bins):
        raise AssertionError("fit_eq_size ran")

    monkeypatch.setattr(binning_mod, "fit_eq_size", no_edges)
    capsys.readouterr()
    assert main(["fit", str(workdir / "mc-scores.csv"), str(workdir / "mc-labels.csv"),
                 "-o", str(tmp_path / "b.json"), "--method", "eq_size",
                 "--bins", "1099511627776"]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error=fit "), err
    assert not (tmp_path / "b.json").exists()


@pytest.mark.parametrize("command", ["synth", "synth --multiclass", "eval"])
def test_a_count_numpy_cannot_size_an_array_by_is_one_usage_line(
    command, workdir, tmp_path, capsys
):
    # 2**62 float64 values take 2**65 bytes; numpy raised "array is too big"
    huge = str(2**62)
    prefix = str(tmp_path / "s")
    argv = {
        "synth": ["synth", "--n", huge, "--out-prefix", prefix],
        "synth --multiclass": ["synth", "--multiclass", "--k", huge, "--out-prefix", prefix],
        "eval": ["eval", str(workdir / "mc-scores.csv"), str(workdir / "mc-labels.csv"),
                 "-o", str(tmp_path / "r.json"), "--eval-scheme", "eq_size", "--eval-bins", huge],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    err = err.splitlines()
    assert len(err) == 1 and err[0].startswith("error=usage "), err
    assert "asks for a float64 array of 2**63 bytes or more" in err[0]
    assert out == "" and list(tmp_path.iterdir()) == []


def test_running_out_of_memory_is_one_data_line(tmp_path, capsys, monkeypatch):
    # synth --n 2**40 asks numpy for 8 TiB, which it refuses with a MemoryError
    def no_memory(spec):
        raise MemoryError(f"Unable to allocate 8.00 TiB for an array with shape ({spec.n},)")

    monkeypatch.setattr(synth_mod, "draw_binary_mixture", no_memory)
    capsys.readouterr()
    assert main(["synth", "--n", str(2**40), "--out-prefix", str(tmp_path / "s")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err == [
        'error=data msg="out of memory: Unable to allocate 8.00 TiB for an array with shape'
        ' (1099511627776,)"'
    ]
    assert list(tmp_path.iterdir()) == []


def test_eval_bundle_hands_the_ranking_raw_scores_only_under_raw_logit(workdir, monkeypatch):
    # a positional spy on the ranking, which RowStats calls by position
    calls = []
    original = metrics_mod.ranked_classes

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(metrics_mod, "ranked_classes", spy)
    scores_csv, labels_csv = workdir / "mc-scores.csv", workdir / "mc-labels.csv"
    through = ["eval", str(scores_csv), str(labels_csv), "--bundle", str(_fit_bundle(workdir))]
    assert main(through) == 0
    assert main([*through, "--tie-break", "raw-logit"]) == 0
    ((by_index,), kw_index), ((by_raw,), kw_raw) = calls
    assert kw_index == kw_raw == {}
    assert by_index.raw_scores is None
    np.testing.assert_array_equal(by_raw.raw_scores, np.loadtxt(scores_csv, delimiter=","))


def _csv_value(doc, metric, threshold):
    """The JSON report's entry for one (metric, threshold) row of the CSV."""
    if metric.startswith("acc_"):
        return doc["accuracy"][metric.removeprefix("acc_")]
    if metric == "cw_ece":
        return doc["cw_ece"][threshold]["mean"]
    return doc[metric]


def test_eval_csv_of_several_bin_counts_is_one_table(workdir, tmp_path):
    bundle = _fit_bundle(workdir)
    cal = tmp_path / "cal.csv"
    assert main(["apply", str(bundle), str(workdir / "mc-scores.csv"), "-o", str(cal)]) == 0
    csv_out, report = tmp_path / "r.csv", tmp_path / "r.json"
    assert main(
        [
            "eval", str(cal), str(workdir / "mc-labels.csv"), "--eval-bins", "10",
            "--eval-bins", "100", "--csv", str(csv_out), "-o", str(report),
        ]
    ) == 0
    header, *lines = csv_out.read_text().splitlines()
    assert header == "eval_bins,metric,threshold,value,std"
    rows = [line.split(",") for line in lines]
    assert len(rows) == 12 and all(len(row) == 5 for row in rows)
    docs = {str(doc["n_eval_bins"]): doc for doc in json.loads(report.read_text())}
    assert sorted(docs) == ["10", "100"]
    for bins, metric, threshold, value, _ in rows:
        assert float(value) == _csv_value(docs[bins], metric, threshold)
    # the two reports' top1_ece differ, so only eval_bins tells their rows apart
    assert docs["10"]["top1_ece"] != docs["100"]["top1_ece"]


def test_each_report_states_the_tie_break_it_ranked_by(workdir, tmp_path):
    bundle = _fit_bundle(workdir)
    report = tmp_path / "r.json"
    scores_csv, labels_csv = workdir / "mc-scores.csv", workdir / "mc-labels.csv"
    assert main(
        [
            "eval", str(scores_csv), str(labels_csv), "--bundle", str(bundle),
            "--tie-break", "raw-logit", "--eval-bins", "10", "--eval-bins", "100",
            "-o", str(report),
        ]
    ) == 0
    scores = np.loadtxt(scores_csv, delimiter=",")
    labels = np.loadtxt(labels_csv, dtype=np.int64)
    cal = tmp_path / "cal.csv"
    assert main(["apply", str(bundle), str(scores_csv), "-o", str(cal)]) == 0
    calibrated = np.loadtxt(cal, delimiter=",")
    want = accuracy_topk(calibrated, labels, 1, tie_break=TIE_RAW_LOGIT, raw_scores=scores)
    docs = json.loads(report.read_text())
    assert [doc["tie_break"] for doc in docs] == [TIE_RAW_LOGIT] * 2
    assert [doc["accuracy"]["top1"] for doc in docs] == [want] * 2
    # the raw scores decide some ties here, so a class-index ranking would differ
    assert accuracy_topk(calibrated, labels, 1) != want


# --- mi-report ----------------------------------------------------------------

def test_mi_report_stdout(workdir, capsys):
    assert main(
        [
            "mi-report", str(workdir / "bin-scores.csv"), str(workdir / "bin-labels.csv"),
            "--bins", "2,4", "--method", "imax", "--method", "eq_mass",
        ]
    ) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "name,n_bins,mi_nats,upper_bound_nats,ratio"
    assert len(lines) == 1 + 4  # two bin counts x two methods
    for line in lines[1:]:
        name, n_bins, mi, bound, ratio = line.split(",")
        assert name in ("imax", "eq_mass")
        assert int(n_bins) in (2, 4)
        assert float(mi) >= 0.0 and float(bound) > 0.0


def test_mi_report_file_output(workdir, tmp_path):
    out = tmp_path / "mi.csv"
    assert main(
        [
            "mi-report", str(workdir / "bin-scores.csv"), str(workdir / "bin-labels.csv"),
            "--bins", "2", "--method", "imax", "-o", str(out),
        ]
    ) == 0
    assert out.read_text().startswith("name,n_bins,")


def test_mi_report_usage_errors(workdir, tmp_path):
    base = ["mi-report", str(workdir / "bin-scores.csv"), str(workdir / "bin-labels.csv")]
    assert main(base + ["--method", "kmeans"]) == 2
    assert main(base + ["--seed", "-1"]) == 2
    # flag values are checked before any file is read
    missing = ["mi-report", str(tmp_path / "missing.csv"), str(workdir / "bin-labels.csv")]
    assert main(missing + ["--bins", "1"]) == 2


def test_mi_report_fit_failure_leaves_no_csv(workdir, tmp_path, capsys):
    # the fits run in (config, method) order: the 2-bin ones finish and
    # report, then the first fit that needs 2^40 samples stops the command
    out = tmp_path / "mi.csv"
    args = [
        "mi-report", str(workdir / "bin-scores.csv"), str(workdir / "bin-labels.csv"),
        "--bins", "2,1099511627776", "-o", str(out),
    ]
    capsys.readouterr()
    assert main(args) == 4
    *before, last = capsys.readouterr().err.splitlines()
    assert re.fullmatch(r'error=fit msg="need at least 1099511627776 samples, got \d+"', last)
    assert all(line.startswith("event=fit_group ") for line in before), before
    assert not out.exists()


def test_mi_report_diagnostics_leave_the_csv_alone(workdir, tmp_path, capsys):
    from imaxcal import info
    from imaxcal.binning import ImaxConfig, fit_imax
    from imaxcal.data import RAW_LOGITS, PredictionMatrix, ovr_set

    args = [
        "mi-report", str(workdir / "bin-scores.csv"), str(workdir / "bin-labels.csv"),
        "--bins", "2,4", "--method", "imax", "--method", "eq_size",
    ]
    capsys.readouterr()
    assert main(args) == 0
    captured = capsys.readouterr()
    assert main([*args, "-o", str(tmp_path / "mi.csv")]) == 0
    assert (tmp_path / "mi.csv").read_text() == captured.out
    assert main([*args, "-o", str(tmp_path / "again.csv")]) == 0
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "mi.csv").read_bytes()

    # the CSV is the library's report on the merged one-vs-rest set
    scores = np.loadtxt(workdir / "bin-scores.csv", delimiter=",")
    labels = np.loadtxt(workdir / "bin-labels.csv", dtype=np.int64)
    data = PredictionMatrix(scores, labels, RAW_LOGITS)
    cal_set = ovr_set(data.ovr_logits(), data.labels, range(2))
    binners = {m: fit_imax(cal_set, ImaxConfig(n_bins=m, seed=0)) for m in (2, 4)}
    rows = info.mi_report(
        cal_set, [("imax", b) for b in binners.values()], info.mi_bound_of_set(cal_set)
    )
    expected = info.mi_report_csv(rows).splitlines()
    assert [l for l in captured.out.splitlines() if l.startswith("imax,")] == expected[1:]

    lines = captured.err.splitlines()
    assert all(DIAG_LINE.match(line) for line in lines), lines
    fits = [dict(t.split("=", 1) for t in l.split()) for l in lines if l.startswith("event=fit_group")]
    assert [f["bins"] for f in fits] == ["2", "4"]  # one line per imax fit only
    for f in fits:
        binner = binners[int(f["bins"])]
        assert f["n"] == str(len(cal_set))
        assert f["iterations"] == str(binner.iterations)
        assert f["converged"] == str(int(binner.diagnostics.converged))
        assert float(f["movement"]) == pytest.approx(binner.diagnostics.final_movement, rel=1e-2)
    (report,) = [l for l in lines if l.startswith("event=mi_report")]
    fields = dict(t.split("=", 1) for t in report.split())
    assert fields["rows"] == "4"
    for timing in ("fit_s", "bound_s", "score_s"):
        assert float(fields[timing]) >= 0.0
    assert not any(l.startswith("event=zero_bound") for l in lines)


def test_mi_report_leaves_the_ratio_empty_when_the_bound_is_0(tmp_path, capsys):
    # every logit once with each label: the class densities are equal, so
    # the KDE bound and every binner's MI are exactly 0
    lam = np.repeat(np.random.default_rng(0).normal(size=500), 2)
    np.savetxt(tmp_path / "s.csv", np.column_stack([np.zeros_like(lam), lam]), delimiter=",")
    np.savetxt(tmp_path / "l.csv", np.tile([0, 1], 500), fmt="%d")
    capsys.readouterr()
    assert main(["mi-report", str(tmp_path / "s.csv"), str(tmp_path / "l.csv"), "--bins", "2,4"]) == 0
    captured = capsys.readouterr()
    rows = [line.split(",") for line in captured.out.splitlines()[1:]]
    assert len(rows) == 6
    for name, n_bins, mi, bound, ratio in rows:
        assert float(mi) == 0.0 and float(bound) == 0.0 and ratio == ""
    assert "nan" not in captured.out
    lines = captured.err.splitlines()
    assert all(DIAG_LINE.match(line) for line in lines), lines
    assert len([l for l in lines if l.startswith("event=zero_bound ")]) == 1


def test_each_command_reads_the_scores_for_non_finite_values_once_per_pass(
    workdir, tmp_path, finite_scans
):
    # per N x K matrix: fit checks the scores as it builds the matrix and
    # softmax checks each block, and the merged set reads the two ends of its
    # sorted log-odds; apply checks the scores and softmax each block; eval
    # --bundle adds the calibrated matrix's check; mi-report reads as fit
    # does, since the KDE bound takes the merged set's checked log-odds. Each
    # label file adds N values.
    mc = [str(workdir / "mc-scores.csv"), str(workdir / "mc-labels.csv")]
    bundle = str(tmp_path / "b.json")
    mc_entries, bin_rows = 400 * 5, 600
    commands = [
        (["fit", *mc, "-o", bundle, "--bins", "6", "--seed", "0"], 2 * mc_entries + 2 + 400),
        (["apply", bundle, mc[0], "-o", str(tmp_path / "cal.csv")], 2 * mc_entries),
        (["eval", *mc, "--bundle", bundle, "-o", str(tmp_path / "r.json")],
         3 * mc_entries + 400),
        (["mi-report", str(workdir / "bin-scores.csv"), str(workdir / "bin-labels.csv"),
          "--bins", "2,4", "-o", str(tmp_path / "mi.csv")], 2 * 2 * bin_rows + 2 + bin_rows),
    ]
    for argv, entries in commands:
        finite_scans.clear()
        assert main(argv) == 0, argv
        assert sum(finite_scans) == entries, argv[0]


def _scipy_modules_after(argvs):
    """Names of the scipy modules a fresh interpreter holds after importing
    the CLI and running argvs through main; each command must exit 0."""
    code = (
        "import json, sys\n"
        "from imaxcal.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n"
        "print('scipy:', *(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    # a fresh interpreter: this one has imported scipy for other tests
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argvs)], capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1].split()[1:]


def test_importing_the_cli_leaves_heavy_scipy_modules_out():
    assert _scipy_modules_after([]) == []


def test_no_command_loads_scipy(workdir, tmp_path):
    mc = [str(workdir / "mc-scores.csv"), str(workdir / "mc-labels.csv")]
    bundle, cal = str(tmp_path / "b.json"), str(tmp_path / "cal.csv")
    argvs = [
        ["fit", *mc, "-o", bundle, "--method", "imax", "--bins", "6", "--seed", "0"],
        ["apply", bundle, mc[0], "-o", cal],
        ["eval", *mc, "--bundle", bundle, "--bootstrap", "2", "-o", str(tmp_path / "r.json")],
        ["eval", cal, mc[1]],
        ["mi-report", str(workdir / "bin-scores.csv"), str(workdir / "bin-labels.csv"),
         "--bins", "2,4", "-o", str(tmp_path / "mi.csv")],
        ["fit", *mc, "-o", str(tmp_path / "platt.json"), "--method", "platt"],
        ["fit", *mc, "-o", str(tmp_path / "t.json"), "--method", "temperature"],
        ["fit", *mc, "-o", str(tmp_path / "ts.json"), "--scaler", "temperature"],
        ["synth", "--n", "50", "--seed", "1", "--out-prefix", str(tmp_path / "s")],
    ]
    assert _scipy_modules_after(argvs) == []


# --- plumbing --------------------------------------------------------------------

def _write_matrix_by_rows(path, matrix):
    """The row loop the block writer replaced, kept as its reference."""
    with open(path, "w") as fh:
        for row in np.asarray(matrix, dtype=np.float64):
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


def test_matrix_writer_matches_the_row_loop(tmp_path, monkeypatch):
    from imaxcal import cli

    special = np.array([-0.0, 0.0, 5e-324, 1e-300, 0.1 + 0.2, 0.3, 1.0, -1.5e16, 2.0**-1074])
    rng = np.random.default_rng(0)
    tricky = special[rng.integers(0, special.size, size=(25, 3))]
    tricky[0] = [-0.0, 0.0, 5e-324]
    distinct = np.random.default_rng(1).normal(size=(30_000, 3)) * 10.0 ** np.arange(-3, 3, 2)
    # one column, where every separator is a newline
    one_column = np.concatenate([special, rng.normal(size=20)])[:, None]
    # a last column that takes its values from the other columns
    tied_last = special[rng.integers(0, special.size, size=(25, 4))]
    tied_last[:, -1] = tied_last[np.arange(25), rng.integers(0, 3, size=25)]
    for name, matrix, cells in (
        ("tricky", tricky, 7),  # blocks of 2 rows
        ("distinct", distinct, None),
        ("one-column", one_column, 7),
        ("tied-last", tied_last, 9),
    ):
        if cells is not None:
            monkeypatch.setattr("imaxcal.data.BLOCK_ENTRIES", cells)
        cli._write_matrix(tmp_path / f"{name}.csv", matrix)
        _write_matrix_by_rows(tmp_path / f"{name}-rows.csv", matrix)
        written = (tmp_path / f"{name}.csv").read_bytes()
        assert written == (tmp_path / f"{name}-rows.csv").read_bytes()
        monkeypatch.undo()
    assert (tmp_path / "tricky.csv").read_text().startswith("-0.0,0.0,5e-324\n")


def test_matrix_writer_writes_integers_as_their_digits(tmp_path):
    from imaxcal import cli

    edge = np.array([0, -1, 7, -(2**63), 2**63 - 1, 0, -1])
    # 200k labels span several blocks of rows
    labels = np.random.default_rng(2).integers(-3, 100, size=200_000)
    for name, values in (("edge", edge), ("labels", labels)):
        cli._write_matrix(tmp_path / f"{name}.csv", values[:, None])
        expected = "".join(f"{int(v)}\n" for v in values)  # the per-label loop it replaced
        assert (tmp_path / f"{name}.csv").read_text() == expected


def test_a_forked_part_cut_short_is_not_gathered(tmp_path):
    from imaxcal import cli

    path = tmp_path / "m.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    cut = len("1.0,2.0\n")
    shape, rows = np.array([1, 2]).tobytes(), np.array([3.0, 4.0]).tobytes()
    fd = os.open(path, os.O_RDONLY)
    try:
        # a shape cut short reads as zeros in its missing bytes: no rows or no
        # columns
        for sent, gathered in (
            (b"", None), (shape[:8], None), (shape + rows[:-1], EOFError),
            (shape + rows, [[1.0, 2.0], [3.0, 4.0]]),
        ):
            r, w = os.pipe()
            os.write(w, sent)
            os.close(w)
            try:
                if gathered is EOFError:
                    with pytest.raises(EOFError):
                        cli._gather(fd, cut, r)
                else:
                    got = cli._gather(fd, cut, r)
                    assert (got if got is None else got.tolist()) == gathered
            finally:
                os.close(r)
    finally:
        os.close(fd)


def _unwritable_output_commands(workdir, bundle, bad):
    mc = [str(workdir / "mc-scores.csv"), str(workdir / "mc-labels.csv")]
    binary = [str(workdir / "bin-scores.csv"), str(workdir / "bin-labels.csv")]
    return {
        "fit": ["fit", *mc, "-o", str(bad / "b.json"), "--bins", "6"],
        "fit-holdout": ["fit", *mc, "-o", str(bad / "b.json"), "--holdout-frac", "0.2"],
        "apply": ["apply", str(bundle), mc[0], "-o", str(bad / "c.csv")],
        "eval-json": ["eval", *mc, "--bundle", str(bundle), "-o", str(bad / "r.json")],
        "eval-csv": ["eval", *mc, "--bundle", str(bundle), "--csv", str(bad / "r.csv")],
        "mi-report": ["mi-report", *binary, "--bins", "2", "-o", str(bad / "mi.csv")],
        "synth": ["synth", "--n", "50", "--out-prefix", str(bad / "s")],
    }


@pytest.mark.parametrize(
    "command",
    ["fit", "fit-holdout", "apply", "eval-json", "eval-csv", "mi-report", "synth"],
)
def test_an_output_that_cannot_be_written_is_a_data_error(workdir, tmp_path, capsys, command):
    bad = tmp_path / "missing"
    argv = _unwritable_output_commands(workdir, _fit_bundle(workdir), bad)[command]
    capsys.readouterr()
    assert main(argv) == 3
    # the one line on stderr: no traceback, and no work reported before it
    [error] = capsys.readouterr().err.splitlines()
    assert error.startswith(f'error=data msg="cannot write {bad}')


def test_stderr_stays_machine_readable(workdir, tmp_path, capsys):
    capsys.readouterr()  # drop anything buffered so far
    bundle = tmp_path / "b.json"
    assert main(
        [
            "fit", str(workdir / "mc-scores.csv"), str(workdir / "mc-labels.csv"),
            "-o", str(bundle), "--bins", "6", "--holdout-frac", "0.2",
        ]
    ) == 0
    assert main(["fit", str(workdir / "missing.csv"), str(workdir / "mc-labels.csv"),
                 "-o", str(bundle)]) == 3
    # class 4 absent: its per-class set has a single label, which warns
    labels = np.loadtxt(workdir / "mc-labels.csv", dtype=np.int64)
    np.savetxt(tmp_path / "absent.csv", np.where(labels == 4, 0, labels), fmt="%d")
    assert main(["fit", str(workdir / "mc-scores.csv"), str(tmp_path / "absent.csv"),
                 "-o", str(bundle), "--bins", "4", "--strategy", "cw"]) == 0
    err = capsys.readouterr().err
    lines = [l for l in err.splitlines() if l.strip()]
    assert lines, "expected diagnostics on stderr"
    for line in lines:
        assert DIAG_LINE.match(line), line
    assert 'event=warning category=UserWarning msg="calibration set contains a single label"' in lines


# --- mutated CSV input -----------------------------------------------------------

_CELLS = st.sampled_from(
    ["", " ", "x", "nan", "inf", "-inf", "1e400", "1e308", "-1e308", "5e-324",
     "0", "1", "2", "3", "-1", "0.5", "1.5", "1,2"]
)


def _mutate_csv(text, draw):
    """Change a cell, add a column, delete, repeat or insert a row, or cut
    the text short."""
    lines = text.split("\n")
    row = draw(st.integers(0, len(lines) - 1))
    action = draw(st.sampled_from(["cell", "column", "delete", "repeat", "insert", "cut"]))
    if action == "cell":
        cells = lines[row].split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(_CELLS)
        lines[row] = ",".join(cells)
    elif action == "column":
        lines[row] += "," + draw(_CELLS)
    elif action == "delete":
        del lines[row]
    elif action == "repeat":
        lines.insert(row, lines[row])
    elif action == "insert":
        lines.insert(row, draw(_CELLS))
    else:
        return text[: draw(st.integers(0, len(text)))]
    return "\n".join(lines)


@pytest.fixture(scope="module")
def fuzzdir(tmp_path_factory):
    """A small dataset, a bundle fitted on it and its calibrated scores."""
    root = tmp_path_factory.mktemp("fuzz")
    assert main(
        ["synth", "--multiclass", "--k", "3", "--n", "40", "--seed", "1",
         "--out-prefix", str(root / "d")]
    ) == 0
    scores, labels = str(root / "d-scores.csv"), str(root / "d-labels.csv")
    assert main(["fit", scores, labels, "-o", str(root / "b.json"), "--bins", "3"]) == 0
    assert main(["apply", str(root / "b.json"), scores, "-o", str(root / "d-cal.csv")]) == 0
    return root


@given(st.data())
@settings(max_examples=200)
def test_fit_and_eval_of_mutated_csv_exit_with_a_documented_code(fuzzdir, data):
    command, files = data.draw(st.sampled_from([
        ("fit", ("scores", "labels")),
        ("eval", ("scores", "labels")),
        ("eval-calibrated", ("cal", "labels", "scores")),
    ]))
    paths = {name: str(fuzzdir / f"d-{name}.csv") for name in files}
    mutated = data.draw(st.sampled_from(files))
    text = (fuzzdir / f"d-{mutated}.csv").read_text()
    for _ in range(data.draw(st.integers(1, 2))):
        text = _mutate_csv(text, data.draw)
    paths[mutated] = str(fuzzdir / "mutated.csv")
    (fuzzdir / "mutated.csv").write_text(text)
    out = str(fuzzdir / "out")
    if command == "fit":
        argv = ["fit", paths["scores"], paths["labels"], "-o", out, "--bins", "3"]
    elif command == "eval":
        argv = ["eval", paths["scores"], paths["labels"], "--bundle", str(fuzzdir / "b.json"),
                "--bootstrap", "2", "-o", out]
    else:
        argv = ["eval", paths["cal"], paths["labels"], "--tie-break", "raw-logit",
                "--raw-scores", paths["scores"], "-o", out]
    code = main(argv)
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert "NaN" not in (fuzzdir / "out").read_text()


def test_console_script_is_installed():
    out = subprocess.run(
        [sys.executable, "-m", "imaxcal.cli", "--help"], capture_output=True, text=True
    )
    # module execution works even where the entry-point shim is absent
    assert out.returncode == 0
    assert "calibration" in out.stdout
