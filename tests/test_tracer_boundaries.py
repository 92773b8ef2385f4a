"""The benchmark's tracer (perfbench/tracer.py) wraps package functions by
name and reads some of their arguments and results by position. A refactor
that renames one or moves an argument would not fail the benchmark: the
tracer lists the name as absent or drops the count, and the per-layer
figure silently reads 0. These tests fail instead."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from imaxcal import kernels, metrics
from imaxcal.binning import MAX_ITERATIONS, ImaxConfig, fit_imax
from imaxcal.synth import BinaryMixtureSpec, gen_binary_mixture

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Spans whose functions are deleted: no command called them, so their figures
# (data.decompose_s, info.kde_density_s) read 0 before the deletion as after,
# and the tracer lists them as absent.
RETIRED = {"data.ovr_decompose", "data.merge_sets", "info.kde_density"}


def test_every_traced_boundary_resolves(tracer):
    assert tracer.BOUNDARIES
    assert RETIRED <= {span for _, _, span in tracer.BOUNDARIES}
    for module_name, attr, span in tracer.BOUNDARIES:
        module = importlib.import_module(module_name)
        resolves = callable(getattr(module, attr, None))
        if span in RETIRED:
            assert not resolves, f"{span}: {module_name}.{attr} is retired but still there"
        else:
            assert resolves, f"{span}: {module_name}.{attr} is gone"


def test_the_tracer_reads_the_kernel_by_position(tracer, monkeypatch):
    names = list(inspect.signature(kernels.alternate).parameters)
    assert names[0] == "lam" and names[7] == "max_iter"

    calls = []
    original = kernels.alternate

    def spy(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(kernels, "alternate", spy)
    cal, _ = gen_binary_mixture(BinaryMixtureSpec(n=400, seed=3))
    binner = fit_imax(cal, ImaxConfig(n_bins=6, seed=0))
    ((args, kwargs, result),) = calls
    assert kwargs == {}, "the fit must pass the kernel's arguments by position"
    assert tracer._counts_before("binning.alternate", args) == {
        "n": len(cal),
        "max_iter": MAX_ITERATIONS,
    }
    assert tracer._counts_after("binning.alternate", args, result) == {
        "iterations": binner.iterations,
        "empty_bin_events": binner.diagnostics.empty_bin_events,
    }

    # the empty-bin count, on a pair whose two lower bins are empty
    lam = np.linspace(5.0, 6.0, 50)
    cum_pos, tail_neg = kernels.prefix_sums(lam)
    result = original(lam, cum_pos, tail_neg, np.array([-8.0, -6.0, 5.5]), 1.0, 0.0, 0.0, 1)
    assert tracer._counts_after("binning.alternate", (), result) == {
        "iterations": 1,
        "empty_bin_events": 2,
    }


def test_the_tracer_counts_the_ranked_rows(tracer, monkeypatch):
    names = list(inspect.signature(metrics.ranked_classes).parameters)
    assert names[0] == "calibrated"

    calls = []
    original = metrics.ranked_classes

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(metrics, "ranked_classes", spy)
    rng = np.random.default_rng(4)
    cal = rng.dirichlet(np.ones(5), size=37)
    stats = metrics.RowStats(cal, rng.integers(0, 5, size=37))
    stats.ranking()
    ((args, kwargs),) = calls
    assert kwargs == {}, "the ranking must pass ranked_classes its arguments by position"
    assert args == (stats,)
    assert tracer._counts_before("metrics.ranked_classes", args) == {"rows": 37}
