"""The benchmark's output checks (perfbench/checks.py) read a bundle's JSON
by field name, and the benchmark reads each binner's iterations. A bundle
format that drops or renames one of those fields would show only as a
failed benchmark run; this test fails instead. The checks read only
n_classes and calibrators of the format-3 top level, so the test also pins
that top level and where the provenance keeps the strategy and groups."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from imaxcal.cli import main

CHECKS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"


@pytest.fixture(scope="module")
def checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_checks_pass_a_fitted_and_applied_scw_bundle(checks, tmp_path):
    prefix = tmp_path / "mc"
    scores, labels = f"{prefix}-scores.csv", f"{prefix}-labels.csv"
    bundle, calibrated = tmp_path / "b.json", tmp_path / "cal.csv"
    assert main([
        "synth", "--multiclass", "--k", "5", "--tgen", "0.5", "--n", "400", "--seed", "5",
        "--out-prefix", str(prefix),
    ]) == 0
    assert main(["fit", scores, labels, "-o", str(bundle), "--bins", "6", "--seed", "0"]) == 0
    assert main(["apply", str(bundle), scores, "-o", str(calibrated)]) == 0

    fitted, problems = checks.check_bundle(bundle.read_text(), 5, 6)
    assert problems == []
    assert list(fitted) == ["version", "n_classes", "input_kind", "calibrators", "provenance"]
    assert (fitted["provenance"]["strategy"], fitted["provenance"]["groups"]) == ("scw", None)
    matrix = np.loadtxt(scores, delimiter=",", ndmin=2)
    assert checks.check_calibrated(str(calibrated), fitted, matrix) == []
    (iterations,) = [cal["binner"]["iterations"] for cal in fitted["calibrators"]]
    assert isinstance(iterations, int) and iterations >= 1
