"""Self-test of the benchmark, on reduced shapes.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402

# Per-layer metrics that must be non-zero on a workload, because the
# workload runs the code they measure.
APPLIES = {
    "fit-k100": [
        "fit_s", "eval_s", "heldout_top1_ece", "cli.read_csv_s", "data.softmax_calls",
        "binning.seed_s", "binning.alternate_s", "binning.iterations",
        "binning.alternate_msamples_per_s", "bundle.apply_bundle_s",
        "metrics.ranked_classes_s", "metrics.rows_ranked_per_row",
    ],
    "eval-k10": [
        "fit_s", "apply_s", "eval_s", "heldout_top1_ece", "cli.write_csv_s",
        "cli.write_csv_mb", "bundle.apply_bundle_s", "metrics.cw_ece_s",
        "metrics.bootstrap_s",
    ],
    "mi-binary": [
        "mi_report_s", "mi_bound_err_nats", "info.kde_density_s", "info.mi_bound_s",
        "info.mi_of_quantizer_s", "binning.alternate_calls",
    ],
}
COMMON = ["proc.cpu_s", "setup.scipy_import_s", "setup.imaxcal_import_s", "trace.coverage"]


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    units = declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    values = {name: m["value"] for name, m in result["metrics"].items()}
    expected_nonzero = APPLIES[workload] + COMMON if trace else list(units)
    assert [name for name in expected_nonzero if not values[name] > 0] == []


def test_corrupted_input_is_counted_as_a_failure():
    bench_run = run.Run(ROOT, "eval-k10", 5, smoke=True)
    os.makedirs(bench_run.work)
    try:
        inputs = run.prepare(bench_run)
        path = os.path.join(bench_run.work, "test-scores.csv")
        with open(path) as fh:
            lines = fh.readlines()
        lines[7] = "nan" + lines[7][lines[7].index(","):]
        with open(path, "w") as fh:
            fh.writelines(lines)
        run.measure_untraced(bench_run, inputs, seconds=0)
    finally:
        shutil.rmtree(bench_run.work, ignore_errors=True)
    assert bench_run.attempted > bench_run.failed >= 2  # apply and eval both refuse it


def test_output_checks_reject_corrupted_outputs(tmp_path):
    rng = np.random.default_rng(0)
    scores = rng.standard_normal((50, 3))
    bundle = {"n_classes": 3, "calibrators": [{"binner": {
        "edges": [-1.0, 1.0], "reps": [0.1, 0.5, 0.9]}}]}
    good = checks.reference_apply(bundle, scores)
    cal = tmp_path / "cal.csv"
    np.savetxt(cal, good, delimiter=",")
    assert checks.check_calibrated(cal, bundle, scores) == []
    bad = good.copy()
    bad[3, 1] = 1.5
    np.savetxt(cal, bad, delimiter=",")
    assert checks.check_calibrated(cal, bundle, scores)
    np.savetxt(cal, good[:, :2], delimiter=",")
    assert checks.check_calibrated(cal, bundle, scores)

    report = tmp_path / "r.json"
    report.write_text('{"top1_ece": NaN, "accuracy": {"top1": 0.5}}')
    assert checks.check_report(report, None, scores, np.zeros(50, dtype=int))[1]

    mi = tmp_path / "mi.csv"
    rows = ["name,n_bins,mi_nats,upper_bound_nats,ratio"]
    rows += [f"imax,{m},0.3,0.335,0.9" for m in (2, 4, 8, 16)] * 3
    mi.write_text("\n".join(rows) + "\n")
    assert checks.check_mi_report(mi, 0.33683)[1] == []
    assert checks.check_mi_report(mi, 0.5)[1]
    mi.write_text("\n".join(rows[:-1]) + "\n")
    assert checks.check_mi_report(mi, 0.33683)[1]

    assert checks.check_bundle('{"calibrators": []}', 3, 3)[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("mi-binary", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
